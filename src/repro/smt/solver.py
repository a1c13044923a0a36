"""Solver frontend: assertion stack, check-sat, models.

This is the stack's substitute for Z3 (Figure 1, bottom box):
"constraint solving, counterexample generation".  Each ``check`` call
simplification-folds the assertion set (the term constructors already
did most of the work), bit-blasts it, and runs the CDCL core.

``SolverCache`` adds a persistent memo over the check-sat boundary:
queries are keyed by the canonical (alpha-renamed) digest of their
term DAG, so re-running a verification — or running an equivalent
obligation produced by a different harness — replays the verdict and
counterexample from disk instead of re-solving.

Checks are incremental: one long-lived arena solver plus
bit-blaster pair per process (the :class:`IncrementalSession`) absorbs
every query.  Tseitin definitions and Ackermann constraints blast once
per term node and stay loaded; each obligation is discharged under
assumptions (the query's root literals) with decisions restricted to
the query's variable *cone*, so learned clauses survive from one
obligation to the next while verdicts, models, and per-query counters
stay exactly what a standalone solve would produce.  Why this is sound:

* permanent clauses are only Tseitin gate definitions, Ackermann
  consistency constraints, learned clauses (pure resolution
  consequences of the former two — assumption literals are never
  resolved away, they surface as literals of the learned clause), and
  conjunct lemmas (see below: the negated assumptions of an UNSAT
  piece, a consequence of the definitions in the same way), so the
  clause database is satisfiable and semantically equivalent to
  "definitions + Ackermann" no matter how many queries it absorbed;
* every variable blasted for a node of the query's DAG is in the cone
  (the blaster records per-tid variable ranges), so when the cone is
  fully assigned and propagation is at fixpoint every definition
  clause of the query is checked — the cone assignment restricted to
  the query's own variables is a genuine model;
* any model of the query alone extends to a model of the whole
  database (other queries' inputs are free; pick uninterpreted
  function values consistently), so no resolution proof can refute a
  satisfiable query: UNSAT answers are never an artifact of sharing;
* a verdict-memo hit (see below) replays the verdict of a query with
  the same canonical digest, i.e. the same DAG up to variable names,
  solved earlier in the same session — exactly the trust a store hit
  already places in the digest — and its model is renamed to the
  hitting query's variables, so it satisfies that query; like every
  cache-less answer, it carries no certificate.

A goal root of the form ``not(and(c1..cn))`` (n >= 2) is first refuted
one conjunct at a time (:meth:`Solver._lemma_phase`): each piece solves
the other roots plus ``¬ci`` in the shared session, and every UNSAT
piece leaves a lemma clause that makes the whole-query solve after it
pure propagation.  A lemma is reverse-unit-propagation derivable from
the piece's final core, so it is a consequence of the definitions like
any learned clause; it is stored and logged as one, never as a trusted
input clause, and certificates check it as an ordinary proof line.

A check without a cache first consults the session's *verdict memo*
(``IncrementalSession.memo``), keyed by the canonical digest the store
uses and holding entries in the store's format.  Only SAT and UNSAT are
recorded: verdicts do not depend on the budget, so a hit answers
whatever the caller's ``max_conflicts`` or ``timeout_s``, while UNKNOWN
and timeouts are never recorded.  Cache-backed checks never consult
it: the store stays their only verdict tier, so every entry and
certificate is still written.

This is the only solve path.  A check that must not see any earlier
query (a reference run, say) calls :func:`reset_incremental_session`
first: a session recycled after one query — memo included — behaves
exactly like a fresh solver.  Crash recovery uses the same call:
callers that catch a worker-level failure reset the session so a
possibly-inconsistent one is rebuilt rather than reused.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import time

from ..obs import (
    count as obs_count,
    enabled as _obs_enabled,
    observe as obs_observe,
    span as obs_span,
)
from .bitblast import BitBlaster
from .model import Model
from .proof import CertificateError, ProofLog, build_model_certificate, build_unsat_certificate
from .sat import SAT, UNKNOWN, UNSAT, ArenaSolver
from .sorts import BOOL
from .terms import Term, canonicalize_nodes, mk_bool, serialize_terms

__all__ = [
    "Solver",
    "CheckResult",
    "SolverCache",
    "SolverTimeout",
    "IncrementalSession",
    "get_incremental_session",
    "reset_incremental_session",
    "certs_enabled",
    "SAT",
    "UNSAT",
    "UNKNOWN",
]


def certs_enabled() -> bool:
    """Whether cached checks also produce proof certificates.

    On by default; ``REPRO_NO_CERTS=1`` opts out (the escape hatch when
    cert emission overhead matters more than store trustworthiness).
    Certificates are only assembled for cache-backed checks — the
    digest is the storage key — so without a cache this flag only
    controls whether the incremental session carries a proof log.  Read
    per call so tests can flip the environment without reimporting.
    """
    return os.environ.get("REPRO_NO_CERTS", "") != "1"


class IncrementalSession:
    """A long-lived solver + blaster pair shared by all checks in a
    process (one per scheduler worker, since workers are processes),
    plus the verdict memo of its cache-less checks: canonical digest ->
    store-form entry (see :meth:`SolverCache._result_to_entry`)."""

    def __init__(self) -> None:
        self.sat = ArenaSolver()
        if certs_enabled():
            # Attached before the first clause so input units are never
            # missed; must be present from session birth because any
            # later query's refutation may lean on clauses blasted now.
            self.sat.proof = ProofLog()
        self.blaster = BitBlaster(self.sat)
        self.checks = 0
        self.memo: dict[str, dict] = {}


_session: IncrementalSession | None = None

# Recycle the session once its solver holds this many variables, so a
# long-lived worker's clause database stays bounded.
_SESSION_MAX_VARS = 500_000


def get_incremental_session() -> IncrementalSession:
    """The process-wide session, created on first use and recycled when
    it outgrows ``_SESSION_MAX_VARS`` solver variables."""
    global _session
    if _session is not None and _session.sat.num_vars > _SESSION_MAX_VARS:
        _session = None
    if _session is None:
        _session = IncrementalSession()
    return _session


def reset_incremental_session() -> None:
    """Drop the process-wide session.

    Call after a crash mid-check (worker resilience handlers do): a
    half-blasted or interrupted session might hold inconsistent solver
    state, and rebuilding it only costs re-blasting on the next query.
    """
    global _session
    _session = None


def _walk_query(terms: list[Term]) -> tuple[set[int], set[str]]:
    """Collect every term id in the query DAG plus its variable names."""
    seen: set[int] = set()
    names: set[str] = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t.tid in seen:
            continue
        seen.add(t.tid)
        if t.op == "var":
            names.add(t.payload)
        stack.extend(t.args)
    return seen, names


def _goal_conjuncts(goal: Term) -> tuple[Term, ...]:
    """``c1..cn`` when ``goal`` is ``not(and(c1..cn))`` with n >= 2 (a
    refinement or assertion goal), else empty: no lemma phase."""
    if goal.op == "not" and goal.args[0].op == "and" and len(goal.args[0].args) >= 2:
        return goal.args[0].args
    return ()


# Per-solve search counters; a check reports their sum over its solves.
_SEARCH_COUNTERS = (
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "learned_clauses",
    "conflict_literals",
)


class SolverTimeout(Exception):
    """Raised when a check exceeds its conflict or wall-clock budget."""


class CheckResult:
    """Outcome of a satisfiability check."""

    def __init__(self, status: str, model: Model | None = None, stats: dict | None = None):
        self.status = status
        self.model = model
        self.stats = stats or {}

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    def __repr__(self) -> str:
        return f"CheckResult({self.status})"


class SolverCache:
    """Persistent memo of solver verdicts, keyed by canonical digest.

    Entries live one-file-per-digest under ``path`` and are written
    atomically (tempfile + rename), so concurrent worker processes can
    share a cache directory without locking: the worst race is two
    workers solving the same query and storing identical entries.

    Models are stored under canonical variable names (the alpha
    renaming from ``canonicalize_query``) and remapped to the hitting
    query's own variable names on load — this is what makes
    alpha-equivalent queries share counterexamples, not just verdicts.
    ``unknown`` verdicts are budget-dependent and are never cached.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # Certificates above this size gzip to a fraction of it; below it
    # the gzip header overhead is not worth a second file format.
    CERT_GZIP_THRESHOLD = 32768

    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.path, f"{digest}.json")

    def _cert_path(self, digest: str) -> str:
        """Base certificate path (without the optional ``.gz``)."""
        return os.path.join(self.path, f"{digest}.cert.json")

    def store_certificate(self, digest: str, cert: dict) -> None:
        """Persist a certificate next to its verdict entry (atomic
        write; large documents are gzipped)."""
        data = json.dumps(cert, separators=(",", ":")).encode()
        base = self._cert_path(digest)
        target, stale = base, base + ".gz"
        if len(data) >= self.CERT_GZIP_THRESHOLD:
            # Level 1: these documents are short-lived cache siblings,
            # and emission sits on the solve path — speed over ratio.
            data = gzip.compress(data, 1)
            target, stale = base + ".gz", base
        os.makedirs(os.path.dirname(target), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        # Two runs of the same digest may disagree on compression (the
        # certificate depends on the session's history); never leave
        # both variants.
        try:
            os.unlink(stale)
        except OSError:
            pass

    def load_certificate(self, digest: str) -> dict | None:
        """The stored certificate for ``digest``, or None (absent or
        corrupt — cert-less entries are a supported legacy state)."""
        base = self._cert_path(digest)
        try:
            with open(base, "rb") as handle:
                return json.loads(handle.read().decode())
        except (OSError, ValueError):
            pass
        try:
            with open(base + ".gz", "rb") as handle:
                return json.loads(gzip.decompress(handle.read()).decode())
        except (OSError, ValueError):
            return None

    def _read_entry(self, digest: str) -> dict | None:
        """Load the raw JSON entry for ``digest``, or None if absent or
        corrupt (a torn write loses one memo, never a verdict)."""
        try:
            with open(self._entry_path(digest)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def lookup(self, digest: str, var_map: dict[str, str]) -> "CheckResult | None":
        """Return the cached result for ``digest``, or None on a miss."""
        entry = self._read_entry(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return self._entry_to_result(entry, var_map)

    @staticmethod
    def _entry_to_result(
        entry: dict, var_map: dict[str, str], hit: str = "cache_hit"
    ) -> "CheckResult":
        """Materialize a stored entry as a :class:`CheckResult` for the
        hitting query: models come back from canonical variable names to
        the query's own names via ``var_map``.  Shared with the remote
        read-through tier, which adopts entries from other machines and
        must replay them identically, and with the session's verdict
        memo (``hit="memo_hit"``)."""
        stats = {hit: True, "time_s": 0.0}
        if entry["status"] == SAT:
            canon_to_name = {canon: name for name, canon in var_map.items()}
            values = {
                canon_to_name[canon]: value
                for canon, value in entry["model"].items()
                if canon in canon_to_name
            }
            return CheckResult(SAT, Model(values), stats=stats)
        return CheckResult(UNSAT, stats=stats)

    @staticmethod
    def _result_to_entry(result: "CheckResult", var_map: dict[str, str]) -> dict:
        """The entry :meth:`_entry_to_result` replays: the verdict, and
        for SAT the model under canonical variable names.  Callers
        record SAT and UNSAT results only."""
        entry: dict = {"status": result.status}
        if result.status == SAT:
            entry["model"] = {
                var_map[name]: value
                for name, value in result.model.items()
                if name in var_map
            }
        return entry

    def store(self, digest: str, var_map: dict[str, str], result: "CheckResult") -> None:
        if result.status not in (SAT, UNSAT):
            return
        entry = self._result_to_entry(result, var_map)
        target = self._entry_path(digest)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stores += 1

    def stats(self) -> dict:
        queries = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hits / queries if queries else 0.0,
        }

    def clear(self) -> None:
        # Walks one shard level so clearing works for both the flat
        # PR 2 layout and the sharded VerdictStore layout.
        for name in os.listdir(self.path):
            full = os.path.join(self.path, name)
            if os.path.isdir(full) and len(name) == 2:
                for sub in os.listdir(full):
                    if sub.endswith((".json", ".json.gz")):
                        try:
                            os.unlink(os.path.join(full, sub))
                        except OSError:
                            pass
            elif name.endswith((".json", ".json.gz")):
                try:
                    os.unlink(full)
                except OSError:
                    pass


class Solver:
    """Assertion stack plus check-sat.

    Each ``check`` discharges into the process-wide incremental session
    (see module docstring): the query's roots become assumption
    literals over a shared clause arena, so CNF for shared structure is
    emitted once and learned clauses survive across checks.  An
    optional ``cache`` memoizes verdicts across checks, processes, and
    runs; without one, the session's verdict memo answers repeats of
    an alpha-equivalent query for as long as the session lives.
    """

    def __init__(
        self,
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
        cache: SolverCache | None = None,
    ):
        self._assertions: list[Term] = []
        self._scopes: list[int] = []
        self.max_conflicts = max_conflicts
        self.timeout_s = timeout_s
        self.cache = cache
        self.last_stats: dict = {}
        # Set per check(): the serialized node list behind the digest,
        # reused by certificate emission to avoid a second traversal.
        self._serialized_query: dict | None = None

    def add(self, *terms: Term) -> None:
        for t in terms:
            if t.sort is not BOOL:
                raise TypeError(f"assertion must be boolean, got {t.sort!r}")
            self._assertions.append(t)

    def push(self) -> None:
        self._scopes.append(len(self._assertions))

    def pop(self) -> None:
        if not self._scopes:
            raise RuntimeError("pop without matching push")
        del self._assertions[self._scopes.pop() :]

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(self._assertions)

    def check(self, *extra: Term) -> CheckResult:
        """Check satisfiability of the asserted formulas plus ``extra``."""
        start = time.perf_counter()
        obs_count("solver.queries")
        terms = list(self._assertions) + list(extra)
        # Fast path: syntactic trivialities.
        if any(t is mk_bool(False) for t in terms):
            obs_count("solver.trivial")
            self.last_stats = {"trivial": True, "time_s": 0.0}
            return CheckResult(UNSAT, stats=self.last_stats)
        terms = [t for t in terms if t is not mk_bool(True)]
        if not terms:
            obs_count("solver.trivial")
            self.last_stats = {"trivial": True, "time_s": 0.0}
            return CheckResult(SAT, Model({}), stats=self.last_stats)

        with obs_span("canonicalize", cat="solver-cache") as cargs:
            # Serialize once: the node list feeds both the digest and
            # (on a store miss) the certificate's query payload.
            self._serialized_query = serialize_terms(terms)
            digest, var_map = canonicalize_nodes(self._serialized_query)
        if cargs is not None:
            cargs["vars"] = len(var_map)
        if self.cache is None:
            entry = get_incremental_session().memo.get(digest)
            if entry is not None:
                obs_count("solver.memo.hits")
                result = SolverCache._entry_to_result(entry, var_map, hit="memo_hit")
                self.last_stats = result.stats
                return result
            obs_count("solver.memo.misses")
        else:
            with obs_span("cache.lookup", cat="solver-cache") as largs:
                cached = self.cache.lookup(digest, var_map)
            if largs is not None:
                largs["hit"] = cached is not None
            if cached is not None:
                obs_count("solver.cache.hits")
                self.last_stats = dict(cached.stats)
                self.last_stats["digest"] = digest
                cached.stats["digest"] = digest
                return cached
            obs_count("solver.cache.misses")

        try:
            return self._check_incremental(terms, digest, var_map, start)
        except SolverTimeout:
            raise  # the session is backtracked and still consistent
        except BaseException:
            # Anything else may have interrupted the session mid
            # mutation; rebuild it on the next query.
            reset_incremental_session()
            raise

    def _emit_certificate(
        self, sat, blaster, terms, digest, var_map, status, model_values, assumptions
    ) -> None:
        """Assemble and store this query's certificate (cache-backed
        checks only).  Must run while the solver still holds the
        answer's assignment — before any maintain()/backtrack."""
        if self.cache is None or sat.proof is None or not certs_enabled():
            return
        serialized = getattr(self, "_serialized_query", None)
        # CPU time, not wall: with more workers than cores, wall inside
        # this window counts the *other* workers' preemption as cert cost.
        emit_start = time.process_time()
        try:
            with obs_span("cert.build", cat="solver-cache"):
                if status == UNSAT:
                    cert = build_unsat_certificate(
                        sat, terms, digest, var_map, assumptions, serialized
                    )
                elif status == SAT:
                    cert = build_model_certificate(
                        sat, blaster, terms, digest, var_map, model_values, serialized
                    )
                else:
                    return
            self.cache.store_certificate(digest, cert)
            obs_count("solver.certs")
            # Emission seconds, accumulated as a float counter: the CI
            # overhead gate divides this by the run's wall clock, which
            # is immune to run-to-run wall noise in a two-run A/B.
            obs_count("solver.cert_build_s", time.process_time() - emit_start)
            self.last_stats["cert"] = True
        except CertificateError:
            # A cert we cannot assemble must never turn a sound verdict
            # into a failure; the store audit surfaces the gap instead.
            obs_count("solver.cert_errors")
            self.last_stats["cert_error"] = True

    def _check_incremental(self, terms, digest, var_map, start) -> CheckResult:
        """Session path: blast into the shared context, solve the query
        under assumptions with decisions restricted to its cone."""
        session = get_incremental_session()
        sat, blaster = session.sat, session.blaster
        session.checks += 1
        obs_count("sat.incremental_hits")

        tids, names = _walk_query(terms)
        prior_tids = [
            tid for tid in tids if tid in blaster._bool_cache or tid in blaster._bv_cache
        ]
        emit_before = (
            {label: tuple(cell) for label, cell in blaster.emitted.items()}
            if _obs_enabled()
            else None
        )
        vars_before = sat.num_vars
        clauses_before = sat.added_clauses
        with obs_span("bitblast", cat="bitblast") as bargs:
            # Roots become assumptions, not unit clauses: nothing this
            # query asserts outlives it in the shared clause database.
            roots = [blaster.bool_lit(t) for t in terms]
        blast_time = time.perf_counter() - start
        new_vars = sat.num_vars - vars_before
        new_clauses = sat.added_clauses - clauses_before
        reused_clauses = blaster.clauses_for(prior_tids)
        obs_count("sat.reused_clauses", reused_clauses)
        if bargs is not None:
            bargs.update(vars=new_vars, clauses=new_clauses, reused_clauses=reused_clauses)
            obs_count("bitblast.queries")
            obs_count("bitblast.vars", new_vars)
            obs_count("bitblast.clauses", new_clauses)
            for label, (aux_vars, clauses) in sorted(blaster.emitted.items()):
                prev = emit_before.get(label, (0, 0)) if emit_before else (0, 0)
                d_vars, d_clauses = aux_vars - prev[0], clauses - prev[1]
                if d_vars or d_clauses:
                    obs_count(f"bitblast.aux_vars.{label}", d_vars)
                    obs_count(f"bitblast.clauses.{label}", d_clauses)

        cone = blaster.cone_vars(tids)
        conjuncts = _goal_conjuncts(terms[-1])
        deadline = start + self.timeout_s if self.timeout_s is not None else None
        totals = dict.fromkeys(_SEARCH_COUNTERS, 0)
        totals.update(max_decision_level=0, timed_out=False)
        with obs_span("sat.solve", cat="sat") as sargs:
            lemmas = 0
            if conjuncts:
                lemmas = self._lemma_phase(sat, blaster, terms, roots, conjuncts, deadline, totals)
            status = self._budgeted_solve(sat, roots, cone, deadline, totals)
        elapsed = time.perf_counter() - start
        obs_observe("bitblast.seconds", blast_time)
        obs_observe("sat.solve_seconds", max(0.0, elapsed - blast_time))
        timed_out = totals.pop("timed_out")
        sat_stats = sat.stats()
        sat_stats.update(totals)
        sat_stats["avg_learned_len"] = (
            totals["conflict_literals"] / totals["learned_clauses"]
            if totals["learned_clauses"]
            else 0.0
        )
        if sargs is not None:
            sargs["status"] = status
            sargs.update(sat_stats)
            sargs["cone_vars"] = len(cone)
            sargs["conjuncts"] = len(conjuncts)
            sargs["lemmas"] = lemmas
        self._note_sat_counters(sat_stats)
        obs_count("sat.lemmas", lemmas)
        self.last_stats = {
            "time_s": elapsed,
            "blast_time_s": blast_time,
            "incremental": True,
            "sat_vars": sat.num_vars,
            "sat_clauses": sat.added_clauses,
            "blasted_vars": new_vars,
            "blasted_clauses": new_clauses,
            "reused_clauses": reused_clauses,
            "cone_vars": len(cone),
            "lemmas": lemmas,
            **{key: totals[key] for key in _SEARCH_COUNTERS},
            "max_decision_level": totals["max_decision_level"],
        }
        if self.cache is not None:
            self.last_stats["digest"] = digest
        if timed_out or (self.timeout_s is not None and elapsed > self.timeout_s):
            self.last_stats["timed_out"] = True
            raise SolverTimeout(f"check exceeded {self.timeout_s}s (took {elapsed:.2f}s)")
        model_values = blaster.extract_model(names) if status == SAT else None
        # Certificates read the live assignment (model bits) and the
        # root-level trail (unit justifications), so they must be built
        # before maintain() backtracks the session.
        self._emit_certificate(sat, blaster, terms, digest, var_map, status, model_values, roots)
        if status == SAT:
            result = CheckResult(SAT, Model(model_values), stats=self.last_stats)
        elif status == UNSAT:
            result = CheckResult(UNSAT, stats=self.last_stats)
        else:
            result = CheckResult(UNKNOWN, stats=self.last_stats)
        # Between-query housekeeping: trim the learned DB outside the
        # solve so per-query counters never depend on session history.
        sat.maintain()
        if self.cache is not None:
            self.cache.store(digest, var_map, result)
        elif status != UNKNOWN:
            session.memo[digest] = SolverCache._result_to_entry(result, var_map)
        return result

    def _budgeted_solve(self, sat, assumptions, relevant, deadline, totals) -> str:
        """One ``solve_with`` under what is left of the check's budgets.

        ``max_conflicts`` and the ``timeout_s`` deadline belong to the
        whole check, so every solve it makes draws on them; the solve's
        search counters are added into ``totals``.
        """
        budget = None
        if self.max_conflicts is not None:
            budget = max(self.max_conflicts - totals["conflicts"], 0)
        timeout = None if deadline is None else max(deadline - time.perf_counter(), 0.0)
        status = sat.solve_with(
            assumptions, max_conflicts=budget, timeout_s=timeout, relevant=relevant
        )
        for key in _SEARCH_COUNTERS:
            totals[key] += getattr(sat, key)
        totals["max_decision_level"] = max(totals["max_decision_level"], sat.max_decision_level)
        totals["timed_out"] = totals["timed_out"] or sat.timed_out
        return status

    def _lemma_phase(self, sat, blaster, terms, roots, conjuncts, deadline, totals) -> int:
        """Refute a ``not(and(c1..cn))`` goal one conjunct at a time.

        With the other roots ``r1..rk`` and ``G`` the goal's ``and``
        literal, each conjunct ``ci`` is solved under ``[r1..rk, ¬ci]``
        with decisions restricted to the cone of those terms (unless
        ``ci`` is already true at the root or is ``G`` itself).  An UNSAT
        piece leaves the lemma ``(¬r1 ∨ … ∨ ¬rk ∨ G ∨ ci)`` behind; the
        first SAT or UNKNOWN piece ends the phase.  With every lemma in,
        the whole-query solve that follows is pure propagation, and the
        pieces share learned clauses through the session.  Returns the
        number of lemmas stored.
        """
        others = roots[:-1]
        negated = [-r for r in others]
        goal = -roots[-1]
        other_tids, _ = _walk_query(terms[:-1])
        other_cone = blaster.cone_vars(other_tids)
        lemmas = 0
        for conjunct in conjuncts:
            ci = blaster.bool_lit(conjunct)
            if ci == goal or sat.value(ci):
                # A root-level fact needs no piece; a conjunct blasted to
                # the goal's own literal is the whole query, which the
                # final solve refutes.
                continue
            piece_tids, _ = _walk_query([conjunct])
            piece_cone = other_cone | blaster.cone_vars(piece_tids)
            if self._budgeted_solve(sat, others + [-ci], piece_cone, deadline, totals) != UNSAT:
                break
            lemmas += sat.add_lemma(negated + [goal, ci])
        return lemmas

    @staticmethod
    def _note_sat_counters(sat_stats: dict) -> None:
        for key in _SEARCH_COUNTERS:
            obs_count(f"sat.{key}", sat_stats[key])


def check_sat(*terms: Term, max_conflicts: int | None = None) -> CheckResult:
    """One-shot satisfiability check of a conjunction of terms."""
    solver = Solver(max_conflicts=max_conflicts)
    solver.add(*terms)
    return solver.check()
