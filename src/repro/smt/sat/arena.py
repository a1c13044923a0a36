"""CDCL on a flat clause arena — the SAT core (bottom of Figure 1).

The paper discharges verification conditions with Z3; offline we
substitute this from-scratch conflict-driven clause-learning solver
(two-watched-literal propagation, first-UIP learning with clause
minimization, EVSIDS with phase saving, Luby restarts, learned-clause
deletion, solving under assumptions).  Storing every clause as its own
Python list, with watch lists in a ``dict[int, list[list[int]]]``,
leaves the propagation loop chasing per-clause objects at Figure-11
scale, so the hot loop runs on flat integer buffers:

  * **clause arena** — one flat int buffer holding every clause as
    ``[size, lit0, lit1, ...]``; a clause is identified by the integer
    offset of its size slot, so propagation, conflict analysis, and
    clause deletion never touch a per-clause Python object.  (A plain
    ``list`` backs the buffer rather than ``array('i')``: CPython list
    indexing avoids re-boxing the int on every read and measures ~30%
    faster on the propagation loop; the layout is identical.);
  * **flat watch lists** — per-literal lists of clause offsets,
    indexed by ``(var << 1) | sign`` instead of a dict keyed by the
    literal; one int read per watcher visit and no per-clause object
    in sight (blocker literals were measured and dropped: the extra
    assignment lookup costs more than it saves under CPython);
  * **two-tier VSIDS order** — decisions split into a "hot" heap
    holding only variables with bumped activity (C ``heapq``, entries
    invalidated by value so decay never rewrites the heap) and a
    "cold" pointer that sweeps the remaining variables in index order;
    tie-dominated blasted instances decide in O(1) per decision
    instead of paying a heap operation for every zero-activity pop;
  * **cone-restricted search** — ``solve(..., relevant=...)`` limits
    decisions to a caller-supplied variable set, which is what lets one
    long-lived solver discharge many obligations incrementally without
    re-deciding every variable the session ever blasted (see
    ``repro.smt.solver`` for the soundness argument: everything outside
    the cone is definitional and extendable).

Literals are non-zero ints in the DIMACS convention throughout: ``v``
for the positive literal of variable ``v`` and ``-v`` for its negation.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush

__all__ = ["ArenaSolver", "SAT", "UNSAT", "UNKNOWN", "luby", "to_dimacs"]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def luby(i: int) -> int:
    """The Luby restart sequence (0-indexed): 1 1 2 1 1 2 4 1 1 2 ...

    MiniSat's formulation: find the finite subsequence containing
    index ``i`` and recurse into it.
    """
    if i < 0:
        raise ValueError("luby sequence is 0-indexed")
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i = i % size
    return 1 << seq


def to_dimacs(solver) -> str:
    """Render the problem clauses in DIMACS CNF format.

    Lets the CNF be cross-checked with an external SAT solver when one
    is available; learned clauses are excluded (they are implied).
    """
    clauses = list(solver.iter_problem_clauses())
    lines = [f"p cnf {solver.num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


class ArenaSolver:
    """CDCL over int literals, clauses in one flat int list::

        s = ArenaSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a])
        assert s.solve() == "sat"
        assert s.value(b) is True
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # Clause storage: [size, lit0, .., litN-1] per clause; watched
        # literals live at offset+1 and offset+2.
        self._arena: list[int] = []
        self._clause_offs: list[int] = []  # problem clauses (DIMACS export)
        self._learned: list[int] = []  # learned clause offsets
        self._cla_act: dict[int, float] = {}
        # Watch lists, indexed by (var << 1) | (lit < 0): flat lists of
        # alternating (blocker literal, clause offset) ints.
        self._watch: list[list[int]] = [[], []]
        # Indexed by variable (1-based). assign: 0 unassigned, 1 true, -1 false.
        self._assign = [0]
        self._level = [0]
        self._reason = [-1]  # clause offset, or -1 (decision/assumption/unit)
        self._activity = [0.0]
        self._phase = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # VSIDS order, two tiers.  Hot: (-activity, var) entries for
        # variables touched by a bump or a backtrack; stale entries are
        # detected on pop by comparing against the live activity.
        # Cold: index-ordered sweep over the decidable variables (the
        # cone during relevancy-restricted solves), rebuilt per solve.
        self._hot: list[tuple[float, int]] = []
        self._cold: list[int] | None = None
        self._cold_head = 0
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._ok = True
        # Per-solve search counters (reset at each solve() entry).
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.conflict_literals = 0
        self.max_decision_level = 0
        # Problem-size counter (monotone, never reset).
        self.added_clauses = 0
        self.timed_out = False
        self.max_learned = 4000
        # Chronological backtracking: when a conflict's backjump would
        # unwind more than this many levels, back off a single level
        # instead, keeping the (still consistent) assignment prefix.
        # The learned clause stays asserting — every non-UIP literal
        # lives at or below the backjump level, so it is unit at the
        # shallower level too.  On circuit-shaped UNSAT queries whose
        # conflicts arrive ~1000 decisions deep this avoids re-deciding
        # (and re-propagating) hundreds of variables per conflict.
        # None disables (always use the non-chronological backjump).
        self.chrono_threshold: int | None = 64
        # Cone restriction for the current solve: None = all variables.
        self._rel: set[int] | None = None
        # Optional proof sink (repro.smt.proof.ProofLog).  None keeps
        # the hot loop hook-free: every recording site guards on it.
        self.proof = None
        self._last_ants: list[int] = []
        self._last_zeros: list[int] = []

    # -- variable / clause management --------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watch.append([])
        self._watch.append([])
        return self.num_vars

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def add_clause(self, lits: list[int]) -> bool:
        """Add a clause at decision level 0.  Returns False on conflict."""
        if not self._ok:
            return False
        self._backtrack(0)  # clauses are asserted at the root level
        proof = self.proof
        seen = set()
        clause = []
        falsified = []
        for lit in lits:
            self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = self._value(lit)
            if val is True:
                return True
            if val is False:
                falsified.append(lit)
                continue  # falsified at level 0; drop
            seen.add(lit)
            clause.append(lit)
        if not clause:
            # Every literal already false at level 0: the input clause
            # itself is the refutation's conflict.
            if proof is not None:
                proof.capture_add_conflict(falsified)
            self._ok = False
            return False
        self.added_clauses += 1
        if len(clause) == 1:
            if proof is not None:
                proof.input_unit(clause[0])
            self._enqueue(clause[0], -1)
            confl = self._propagate()
            if confl >= 0:
                if proof is not None:
                    proof.capture_final(self, key=confl)
                self._ok = False
            return self._ok
        off = self._store(clause)
        self._clause_offs.append(off)
        return True

    def _store(self, clause: list[int]) -> int:
        """Append ``clause`` to the arena and watch its first two
        literals.  Returns the clause offset."""
        arena = self._arena
        off = len(arena)
        arena.append(len(clause))
        arena.extend(clause)
        w0, w1 = clause[0], clause[1]
        self._watch[(w0 << 1) if w0 > 0 else (1 - (w0 << 1))].append(off)
        self._watch[(w1 << 1) if w1 > 0 else (1 - (w1 << 1))].append(off)
        return off

    def _detach(self, off: int) -> None:
        arena = self._arena
        for lit in (arena[off + 1], arena[off + 2]):
            wl = self._watch[(lit << 1) if lit > 0 else (1 - (lit << 1))]
            wl.remove(off)

    # -- assignment ---------------------------------------------------------

    def _value(self, lit: int) -> bool | None:
        a = self._assign[lit if lit > 0 else -lit]
        if a == 0:
            return None
        return (a > 0) == (lit > 0)

    def value(self, lit: int) -> bool | None:
        """Model value of ``lit`` after a SAT answer; between solves, its
        root-level value (``None`` when open)."""
        return self._value(lit)

    def _enqueue(self, lit: int, reason: int, level: int | None = None) -> None:
        """Assign ``lit``.  ``level`` overrides the recorded (semantic)
        decision level — chronological backtracking asserts a learned
        literal at its backjump level while the trail stays deeper."""
        var = lit if lit > 0 else -lit
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim) if level is None else level
        self._reason[var] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        """Unassign everything whose *semantic* level exceeds ``level``.

        With chronological backtracking a literal's recorded level can
        sit below its physical position on the trail (an out-of-order
        assignment).  Such literals are still implied at ``level``, so
        popping them would forget sound propagations and silently leave
        their (unit) reasons unwatched; instead they are reinserted at
        the end of the trail and re-propagated from there, which also
        rediscovers any of their implications that did get popped.
        """
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign, phase, reason = self._assign, self._phase, self._reason
        lvl = self._level
        act = self._activity
        hot = self._hot
        rel = self._rel
        trail = self._trail
        keep: list[int] = []
        for i in range(len(trail) - 1, limit - 1, -1):
            lit = trail[i]
            var = lit if lit > 0 else -lit
            if lvl[var] <= level:
                keep.append(lit)
                continue
            phase[var] = lit > 0
            assign[var] = 0
            reason[var] = -1
            # Re-offer the variable to the decision order; the cold
            # pointer never rewinds, so backtracked variables ride the
            # hot heap even at zero activity.
            if rel is None or var in rel:
                heappush(hot, (-act[var], var))
        del trail[limit:]
        del self._trail_lim[level:]
        if keep:
            keep.reverse()  # restore assignment order
            trail.extend(keep)
        self._qhead = len(trail) - len(keep)

    def _conflict_level(self, confl: int) -> int:
        """Highest semantic level among a conflicting clause's literals."""
        arena, level = self._arena, self._level
        c = 0
        for k in range(confl + 1, confl + 1 + arena[confl]):
            q = arena[k]
            lv = level[q if q > 0 else -q]
            if lv > c:
                c = lv
        return c

    # -- VSIDS order ---------------------------------------------------------

    def _rebuild_order(self) -> None:
        """Deterministic per-solve decision order.

        Cold tier: the decidable variables (current cone, or every
        variable) in index order.  Hot tier: variables that already
        carry activity.  Relevancy-restricted solves reset cone
        activity first (see ``solve``), so no earlier query's bumps
        order their decisions; the clauses and variable numbering
        earlier queries left behind still shape the search.
        """
        assign, act = self._assign, self._activity
        if self._rel is None:
            self._cold = None
            self._cold_head = 1
            self._hot = [
                (-act[v], v) for v in range(1, self.num_vars + 1) if act[v] > 0.0 and assign[v] == 0
            ]
            heapify(self._hot)
        else:
            self._cold = sorted(self._rel)
            self._cold_head = 0
            self._hot = []

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> int:
        """Unit propagation.  Returns a conflicting clause offset, or -1."""
        arena = self._arena
        assign = self._assign
        level = self._level
        reason = self._reason
        trail = self._trail
        watch = self._watch
        qhead = self._qhead
        props = 0
        dl = len(self._trail_lim)
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            props += 1
            false_lit = -lit
            # watch index of false_lit:
            wl = watch[(false_lit << 1) if false_lit > 0 else (1 - (false_lit << 1))]
            i = j = 0
            n = len(wl)
            while i < n:
                off = wl[i]
                i += 1
                # Make sure the false literal is in slot 2.
                first = arena[off + 1]
                if first == false_lit:
                    first = arena[off + 2]
                    arena[off + 1] = first
                    arena[off + 2] = false_lit
                # Signed read: +assign for positive lits, -assign for
                # negative, so `> 0` means "literal is true".
                fv = assign[first] if first > 0 else -assign[-first]
                if fv > 0:
                    wl[j] = off
                    j += 1
                    continue
                # Look for a new literal to watch.
                end = off + 1 + arena[off]
                found = False
                for k in range(off + 3, end):
                    lk = arena[k]
                    av = assign[lk] if lk > 0 else -assign[-lk]
                    if av >= 0:
                        arena[off + 2] = lk
                        arena[k] = false_lit
                        watch[(lk << 1) if lk > 0 else (1 - (lk << 1))].append(off)
                        found = True
                        break
                if found:
                    continue
                wl[j] = off
                j += 1
                if fv < 0:
                    # Conflict: copy remaining watchers back.
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    self._qhead = len(trail)
                    self.propagations += props
                    return off
                # Unit: enqueue `first` (enqueue inlined for the hot path).
                var = first if first > 0 else -first
                assign[var] = 1 if first > 0 else -1
                level[var] = dl
                reason[var] = off
                trail.append(first)
            del wl[j:]
        self._qhead = qhead
        self.propagations += props
        return -1

    # -- conflict analysis ----------------------------------------------------

    def _bump_var(self, var: int) -> None:
        act = self._activity
        act[var] += self._var_inc
        if act[var] > 1e100:
            inv = 1e-100
            for v in range(1, self.num_vars + 1):
                act[v] *= inv
            self._var_inc *= inv
            # Hot entries now hold pre-rescale keys; they die as stale
            # pops and the end-of-solve sweep in _pick_branch catches
            # any variable the heap loses track of.
        rel = self._rel
        if rel is None or var in rel:
            heappush(self._hot, (-act[var], var))

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learning.  Returns (learned clause, backjump level)."""
        arena = self._arena
        level = self._level
        trail = self._trail
        learned = [0]  # placeholder for the asserting literal
        seen = bytearray(self.num_vars + 1)
        counter = 0
        lit = 0  # 0 on the conflict clause; the resolved literal after
        off = confl
        index = len(trail) - 1
        cur_level = len(self._trail_lim)
        # Proof recording (cold path, only with a sink attached): the
        # clauses this resolution consumes and the root-level-false
        # literals it silently drops.
        proof = self.proof
        ants: list[int] | None = [] if proof is not None else None
        zeros: set[int] | None = set() if proof is not None else None
        while True:
            if off >= 0:  # a decision has no reason clause to scan
                if ants is not None:
                    ants.append(off)
                end = off + 1 + arena[off]
                for k in range(off + 1, end):
                    q = arena[k]
                    if q == lit:
                        continue  # the implied literal of a reason clause
                    var = q if q > 0 else -q
                    if not seen[var] and level[var] > 0:
                        seen[var] = 1
                        self._bump_var(var)
                        if level[var] >= cur_level:
                            counter += 1
                        else:
                            learned.append(q)
                    elif zeros is not None and level[var] == 0:
                        zeros.add(q)
            # Pick the next literal on the trail to resolve on.  Skip
            # seen literals below the conflict level: out-of-order
            # (chronologically kept) assignments can sit physically
            # above conflict-level ones on the trail, but only
            # conflict-level literals are resolution candidates.
            while True:
                t = trail[index]
                var = t if t > 0 else -t
                if seen[var] and level[var] >= cur_level:
                    break
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit if lit > 0 else -lit
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            off = self._reason[var]

        # Clause minimization: drop literals implied by the rest.
        reason = self._reason
        marked = {q if q > 0 else -q for q in learned[1:]}
        minimized = [learned[0]]
        for q in learned[1:]:
            qvar = q if q > 0 else -q
            roff = reason[qvar]
            if roff < 0:
                minimized.append(q)
                continue
            redundant = True
            for k in range(roff + 1, roff + 1 + arena[roff]):
                r = arena[k]
                rvar = r if r > 0 else -r
                if rvar == qvar:
                    continue
                if rvar not in marked and level[rvar] != 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(q)
            elif ants is not None:
                # Self-subsuming resolution with the reason clause: the
                # proof needs that clause and the units covering its
                # root-level literals.
                ants.append(roff)
                for k in range(roff + 1, roff + 1 + arena[roff]):
                    r = arena[k]
                    if level[r if r > 0 else -r] == 0:
                        zeros.add(r)
        learned = minimized
        if ants is not None:
            self._last_ants = ants
            self._last_zeros = sorted(zeros)

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        bj = max(level[q if q > 0 else -q] for q in learned[1:])
        # Move a literal of the backjump level into watch position 1.
        for i in range(1, len(learned)):
            if level[learned[i] if learned[i] > 0 else -learned[i]] == bj:
                learned[1], learned[i] = learned[i], learned[1]
                break
        return learned, bj

    # -- main search -----------------------------------------------------------

    def _pick_branch(self) -> int:
        assign, act = self._assign, self._activity
        hot = self._hot
        while hot:
            nact, var = hot[0]
            if assign[var] != 0 or act[var] != -nact:
                heappop(hot)  # assigned or stale entry
                continue
            heappop(hot)
            return var if self._phase[var] else -var
        cold = self._cold
        if cold is None:
            i = self._cold_head
            n = self.num_vars
            while i <= n:
                if assign[i] == 0 and act[i] == 0.0:
                    self._cold_head = i + 1
                    return i if self._phase[i] else -i
                i += 1
            self._cold_head = i
        else:
            i = self._cold_head
            n = len(cold)
            while i < n:
                v = cold[i]
                if assign[v] == 0 and act[v] == 0.0:
                    self._cold_head = i + 1
                    return v if self._phase[v] else -v
                i += 1
            self._cold_head = i
        # Safety sweep: an activity rescale can orphan hot entries
        # (their keys no longer match), so never trust an empty heap
        # alone to mean "fully assigned".
        for v in range(1, self.num_vars + 1) if cold is None else cold:
            if assign[v] == 0:
                return v if self._phase[v] else -v
        return 0

    def _reduce_learned(self) -> None:
        if len(self._learned) <= self.max_learned:
            return
        act = self._cla_act
        self._learned.sort(key=lambda off: act.get(off, 0.0))
        keep_from = len(self._learned) // 2
        arena = self._arena
        reason = self._reason
        locked = {reason[lit if lit > 0 else -lit] for lit in self._trail}
        kept_front = []
        proof = self.proof
        for off in self._learned[:keep_from]:
            if off in locked or arena[off] <= 2:
                kept_front.append(off)
                continue
            self._detach(off)
            act.pop(off, None)
            if proof is not None:
                proof.deleted_clause(off)
        self._learned = kept_front + self._learned[keep_from:]

    def solve(
        self,
        assumptions: list[int] = (),
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
        relevant: set[int] | None = None,
    ) -> str:
        """Search for a model consistent with ``assumptions``, literals
        kept as pseudo-decisions below every real decision.

        Returns "sat", "unsat", or "unknown" (budget exhausted).  After
        "sat", use :meth:`value` to read the model.  Two budgets bound
        the search: ``max_conflicts`` (deterministic) and ``timeout_s``,
        a wall-clock deadline checked every few conflicts so a hung
        obligation returns to its scheduler instead of pinning a worker
        forever.  ``self.timed_out`` records which budget fired.

        ``relevant`` restricts decisions to a variable cone: with it,
        "sat" means the cone is fully assigned and propagation
        converged, which is a satisfiability witness whenever every
        clause outside the cone is definitional (Tseitin gates /
        Ackermann constraints over variables the cone does not touch —
        see ``repro.smt.solver``).  Pass ``None`` (the default) for
        classic full-assignment CDCL.
        """
        self.timed_out = False
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.conflict_literals = 0
        self.max_decision_level = 0
        if not self._ok:
            # The root conflict that cleared _ok was captured when it
            # happened; keep that final core for re-asked queries.
            return UNSAT
        if self.proof is not None:
            # Drop any stale final core so a missed hook can never leak
            # a previous query's refutation into this one's certificate.
            self.proof.final = None
        self._rel = relevant
        if relevant is not None:
            # A cone-restricted solve starts from zero activity and a
            # fresh increment, so no earlier query's bumps order its
            # decisions (its learned clauses still steer the search).
            act = self._activity
            for v in relevant:
                act[v] = 0.0
            self._var_inc = 1.0
        try:
            return self._search(list(assumptions), max_conflicts, timeout_s)
        finally:
            self._rel = None

    def _search(
        self,
        assumptions: list[int],
        max_conflicts: int | None,
        timeout_s: float | None,
    ) -> str:
        self._backtrack(0)
        confl = self._propagate()
        if confl >= 0:
            if self.proof is not None:
                self.proof.capture_final(self, key=confl)
            self._ok = False
            return UNSAT
        self._rebuild_order()

        num_assumed = len(assumptions)
        restart_idx = 0
        conflicts_until_restart = 100 * luby(restart_idx)
        budget_left = max_conflicts
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        deadline_check = 0

        while True:
            confl = self._propagate()
            if confl >= 0:
                self.conflicts += 1
                if deadline is not None:
                    deadline_check += 1
                    if deadline_check >= 32:
                        deadline_check = 0
                        if time.monotonic() > deadline:
                            self._backtrack(0)
                            self.timed_out = True
                            return UNKNOWN
                if budget_left is not None:
                    budget_left -= 1
                    if budget_left <= 0:
                        self._backtrack(0)
                        return UNKNOWN
                # With chronological backtracking the conflict can
                # involve only literals below the current decision
                # level; analysis must run at the conflict's own level.
                clevel = self._conflict_level(confl)
                if clevel == 0:
                    if self.proof is not None:
                        self.proof.capture_final(self, key=confl)
                    self._ok = False
                    self._backtrack(0)
                    return UNSAT
                if clevel <= num_assumed:
                    # Conflict depends only on assumptions.  Capture the
                    # reason chain before backtracking destroys it.
                    if self.proof is not None:
                        self.proof.capture_final(self, key=confl)
                    self._backtrack(0)
                    return UNSAT
                if clevel < len(self._trail_lim):
                    self._backtrack(clevel)
                learned, bj = self._analyze(confl)
                self.learned_clauses += 1
                self.conflict_literals += len(learned)
                target = max(bj, num_assumed)
                chrono = self.chrono_threshold
                if chrono is not None and clevel - 1 - target > chrono:
                    # Far backjump: back off one level instead and keep
                    # the assignment prefix.  The learned literal is
                    # still asserted at its semantic level ``bj`` below.
                    target = clevel - 1
                self._backtrack(target)
                if len(learned) == 1:
                    # Asserting unit; learned[0] is unassigned here
                    # because its variable sat above the backjump level.
                    if self.proof is not None:
                        self.proof.learned(learned, self._last_ants, self._last_zeros)
                    self._enqueue(learned[0], -1, level=bj)
                else:
                    off = self._store(learned)
                    if self.proof is not None:
                        self.proof.learned(learned, self._last_ants, self._last_zeros, key=off)
                    self._learned.append(off)
                    self._cla_act[off] = self._cla_inc
                    self._cla_inc *= 1.001
                    self._enqueue(learned[0], off, level=bj)
                self._var_inc *= self._var_decay
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_idx += 1
                    self.restarts += 1
                    conflicts_until_restart = 100 * luby(restart_idx)
                    self._backtrack(num_assumed)
                    if self._rel is None:
                        # Cone-restricted solves defer clause-DB
                        # trimming to maintain() between queries, so a
                        # query's search never depends on the global
                        # learned count.
                        self._reduce_learned()
                continue

            # No conflict: decide.
            if len(self._trail_lim) < num_assumed:
                lit = assumptions[len(self._trail_lim)]
                val = self._value(lit)
                if val is False:
                    # An assumption literal is already falsified (by the
                    # root level or by earlier assumptions): record its
                    # reason chain before it unwinds.
                    if self.proof is not None:
                        self.proof.capture_final(self, lits=[lit])
                    self._backtrack(0)
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                if val is None:
                    self._enqueue(lit, -1)
                continue
            lit = self._pick_branch()
            if lit == 0:
                return SAT
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            if len(self._trail_lim) > self.max_decision_level:
                self.max_decision_level = len(self._trail_lim)
            self._enqueue(lit, -1)

    def maintain(self) -> None:
        """Between-solve housekeeping for long-lived (session) solvers:
        backtrack to the root level and trim the learned-clause DB.
        Cone-restricted solves skip mid-search reduction, so a query's
        search does not depend on how many clauses the session has
        learned; call this after each query to keep the DB bounded
        instead.  The learned clauses it keeps still steer later
        searches: a session's models and counters depend on what it
        solved before, its verdicts do not."""
        self._backtrack(0)
        self._reduce_learned()

    def stats(self) -> dict:
        """Counters for the most recent ``solve()`` call.

        Search counters are per-solve so they describe one query, not
        the solver's lifetime; ``vars``/``clauses`` describe the loaded
        problem.  ``avg_learned_len`` is the conflict-literal rate —
        long learned clauses are the classic symptom of a poorly
        decomposed query.
        """
        return {
            "vars": self.num_vars,
            "clauses": self.added_clauses,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "learned_kept": len(self._learned),
            "conflict_literals": self.conflict_literals,
            "max_decision_level": self.max_decision_level,
            "avg_learned_len": (
                self.conflict_literals / self.learned_clauses if self.learned_clauses else 0.0
            ),
        }

    def model(self) -> dict[int, bool]:
        """The satisfying assignment, as {var: bool}."""
        return {
            v: self._assign[v] > 0
            for v in range(1, self.num_vars + 1)
            if self._assign[v] != 0
        }

    def iter_problem_clauses(self):
        """Yield the problem (non-learned) clauses as literal lists."""
        arena = self._arena
        for off in self._clause_offs:
            yield list(arena[off + 1 : off + 1 + arena[off]])

    # -- proof-log adapters --------------------------------------------------
    # Arena offsets are stable clause keys for the whole session: the
    # arena only ever appends, and a detached clause's cells are never
    # reused, so certificate emission can read clause content long after
    # the search moved on.

    def proof_clause(self, key: int) -> list[int]:
        """Clause content for a proof key (an arena offset), as a fresh
        list (a slice of the arena list is one)."""
        arena = self._arena
        return arena[key + 1 : key + 1 + arena[key]]

    def proof_reason(self, var: int):
        """Proof key of ``var``'s reason clause, or None for a
        decision/assumption/learned-unit assignment."""
        off = self._reason[var]
        return off if off >= 0 else None
