"""Proof-certificate production for the SAT core and solver frontend.

Verdicts become *checkable evidence* here (ROADMAP: "Proof
certificates for trust at scale"):

  * :class:`ProofLog` is the optional sink a SAT solver drives while it
    searches.  When no log is attached the hot loop pays one attribute
    read per conflict; with one attached the solver records, per
    learned clause, the clauses it was resolved from (LRAT-style
    antecedent hints), the input unit clauses, deletions, and — at the
    moment an UNSAT answer is decided, before backtracking destroys the
    assignment — the *final core*: the conflict clause plus the reason
    chain that grounds it in assumptions and root-level units.
  * :func:`build_unsat_certificate` trims that session-long log to one
    query's refutation: the transitive antecedent closure of the final
    core, topologically ordered so every proof line is RUP (reverse
    unit propagation) with respect to the lines before it.  The
    certificate carries the blasted-clause manifest (exactly the
    problem clauses the refutation touches), the assumption literals,
    and the canonically-renamed query DAG the digest binds to.
  * :func:`build_model_certificate` packages a SAT answer as a
    bit-level model under canonical variable names plus the
    uninterpreted-function tables the assignment induces, so a
    solver-free evaluator can replay it against the query DAG.

The independent checker (``python -m repro.smt.checkproof``) consumes
these documents with zero imports from this package; the wire format is
specified in docs/CERTIFICATES.md.

Soundness sketch for the trimmed DRAT trace: a first-UIP learned clause
(minimization included) is derivable by input resolution from its
recorded antecedents plus the root-level units justifying any literal
the analysis silently dropped, and input resolution implies RUP.  The
emission closure includes those units (with their own derivations,
recursively), and the dependency graph is acyclic because every
recorded justification predates the event that uses it — so a
topological order exists and each emitted line checks against its
predecessors.  Deletions are logged but never emitted: a checker over a
monotone clause database is sound, since adds are only ever verified
against consequences.
"""

from __future__ import annotations

from .terms import serialize_terms

__all__ = [
    "ProofLog",
    "CertificateError",
    "build_unsat_certificate",
    "build_model_certificate",
    "canonical_query_payload",
]

CERT_FORMAT = "repro-cert"
CERT_VERSION = 1


class CertificateError(RuntimeError):
    """Raised when a certificate cannot be assembled from the log."""


class ProofLog:
    """Clause-proof sink for one SAT solver (one per incremental session).

    The solver drives it through four hooks, all O(clause) and only on
    the cold paths (clause addition, conflict analysis, deletion,
    UNSAT exit):

    ``input_unit(lit)``
        an input clause reduced to a unit and asserted at level 0;
    ``learned(lits, ants, zeros, key=None)``
        a learned clause with the keys of the clauses its resolution
        consumed (``key`` is a stored clause's arena offset; units pass
        ``None``) and ``zeros``, the root-level-false literals the
        analysis silently dropped (their negations are the unit clauses
        the RUP check of this line relies on; recording them *at learn
        time* keeps the dependency graph acyclic — a unit derived later
        from this very clause must never become its prerequisite);
    ``deleted_clause(key)``
        a learned clause detached by DB reduction;
    ``capture_final(sat, lits=None, key=None)``
        the UNSAT moment: walk the conflict's reason chain *now*,
        before backtracking unassigns it (level-0 justifications are
        permanent and stay deferred to emission time).
    """

    __slots__ = ("events", "key2event", "input_units", "deleted", "final")

    def __init__(self) -> None:
        self.events: list[tuple[tuple[int, ...], tuple, tuple[int, ...], int | None]] = []
        self.key2event: dict = {}
        self.input_units: set[int] = set()
        self.deleted: list = []
        self.final: dict | None = None

    # -- recording hooks (called by the solver) --------------------------

    def input_unit(self, lit: int) -> None:
        self.input_units.add(lit)

    def learned(self, lits, ants, zeros=(), key=None) -> int:
        idx = len(self.events)
        self.events.append((tuple(lits), tuple(ants), tuple(zeros), key))
        if key is not None:
            self.key2event[key] = idx
        elif len(lits) == 1:
            # Learned unit: permanent level-0 fact, keyed by its literal
            # so emission-time justification walks can find the event.
            self.key2event[("u", lits[0])] = idx
        return idx

    def deleted_clause(self, key) -> None:
        self.deleted.append(key)

    def capture_final(self, sat, lits=None, key=None) -> None:
        """Record the refutation's support at the UNSAT decision point.

        Walks falsified literals back through their reason clauses while
        the trail is still intact.  Variables assigned at level 0 are
        skipped (their justifications are permanent — emission resolves
        them later); decisions/assumptions terminate the walk (the
        checker asserts the assumption literals itself).
        """
        if key is not None:
            lits = sat.proof_clause(key)
        keys: list = [key] if key is not None else []
        seen_keys = set(keys)
        seen_vars: set[int] = set()
        level = sat._level
        stack = list(lits)
        while stack:
            q = stack.pop()
            var = q if q > 0 else -q
            if var in seen_vars:
                continue
            seen_vars.add(var)
            if level[var] == 0:
                continue
            rk = sat.proof_reason(var)
            if rk is None:
                continue
            if rk not in seen_keys:
                seen_keys.add(rk)
                keys.append(rk)
                stack.extend(sat.proof_clause(rk))
        self.final = {"lits": list(lits), "keys": keys, "from_key": key}

    def capture_add_conflict(self, lits) -> None:
        """An ``add_clause`` whose every literal was already false at
        level 0: the rejected clause is the conflict, and since it never
        reached storage it must ride the certificate's CNF manifest
        explicitly (all its justifications are level-0, hence resolved
        at emission time)."""
        self.final = {"lits": list(lits), "keys": [], "from_key": None, "add_clause": list(lits)}


# ---------------------------------------------------------------------------
# Emission


def canonical_query_payload(terms, var_map: dict[str, str], data: dict | None = None) -> dict:
    """Serialize query terms with variables alpha-renamed canonically.

    The renaming is digest-preserving (``canonicalize_query`` is
    alpha-blind), so the checker can recompute the canonical digest
    from the payload alone and compare it to the certificate's claim —
    the digest binding that ties a certificate to its store entry.
    ``data`` may carry an already-serialized node list for ``terms``
    (the frontend serializes once for the digest and reuses it here).
    """
    if data is None:
        data = serialize_terms(terms)
    nodes = [
        [op, sort_tag, args, var_map.get(str(payload), str(payload)) if op == "var" else payload]
        for op, sort_tag, args, payload in data["nodes"]
    ]
    return {"nodes": nodes, "roots": list(data["roots"])}


def build_unsat_certificate(sat, terms, digest, var_map, assumptions, serialized=None) -> dict:
    """Trim the session proof log to this query's refutation.

    ``assumptions`` are the query's root literals (the session solves
    each query under assumptions, never asserting its roots).  Raises
    :class:`CertificateError` when the log carries no final core — an
    UNSAT answer the hooks did not see.
    """
    p = sat.proof
    if p is None or p.final is None:
        raise CertificateError("solver returned unsat but the proof log has no final core")

    # Hot path (runs once per cache-miss UNSAT, gated in CI at <10% of
    # grid wall): keep the per-literal work free of attribute lookups.
    key2event = p.key2event
    input_units = p.input_units
    level = sat._level
    assign = sat._assign

    # Dependency nodes: ("cls", key) = learned-clause event.  Problem
    # clauses go to the CNF manifest; so does every *root-level unit
    # fact* a derivation leans on, emitted as a unit clause rather than
    # re-derived through its reason chain.  The manifest is trusted
    # wholesale by the checker (it cannot re-blast the query), so
    # deriving those units would add manifest bulk — often the majority
    # of it — without adding a single checked step to the refutation
    # skeleton, which stays fully RUP-checked.
    cnf_keys: list = []
    cnf_key_set = set()
    cnf_units: set[int] = set()
    deps: dict[tuple, list[tuple]] = {}
    order: list[tuple] = []  # discovery order, for deterministic output
    pending: list[tuple] = []

    def need_clause(key) -> tuple | None:
        """Route a clause key to the proof (learned) or the CNF."""
        if key in key2event:
            node = ("cls", key)
            if node not in deps:
                pending.append(node)
            return node
        if key not in cnf_key_set:
            cnf_key_set.add(key)
            cnf_keys.append(key)
        return None

    def clause_unit_deps(lits) -> None:
        # Inlined root-false test: this scans every literal of every
        # clause the cone touches.
        for q in lits:
            var = q if q > 0 else -q
            if level[var] != 0:
                continue
            a = assign[var]
            if a == 0 or (a > 0) == (q > 0):
                continue
            cnf_units.add(-q)

    # Seed: the final core's clauses, plus a unit fact for every
    # root-level-false literal they mention, so the final
    # unit-propagation check sees those literals falsified.  The final
    # core is captured at the UNSAT moment and the
    # certificate is built before the solver moves on, so reading the
    # root-level assignment here is reading the state the answer was
    # decided under.
    for key in p.final["keys"]:
        need_clause(key)
        clause_unit_deps(sat.proof_clause(key))
    clause_unit_deps(p.final["lits"])
    if p.final["from_key"] is None and not p.final.get("add_clause"):
        # A final core with no conflict clause of its own: a single
        # literal that is both required and refuted.  When the literal
        # is itself a root-level unit (an input unit or a learned unit
        # the root level then contradicted), state it as a unit fact;
        # when it is an assumption, the checker asserts it directly.
        for lit in p.final["lits"]:
            if lit in input_units or ("u", lit) in key2event:
                cnf_units.add(lit)

    events = p.events
    while pending:
        node = pending.pop()
        if node in deps:
            continue
        _lits, ants, zeros, _key = events[key2event[node[1]]]
        node_deps: list[tuple] = []
        for ant in ants:
            dep = need_clause(ant)
            if dep is not None:
                node_deps.append(dep)
        # The units standing in for literals the analysis dropped:
        # recorded at learn time, so they predate this clause.
        for q in zeros:
            cnf_units.add(-q)
        deps[node] = node_deps
        order.append(node)

    # Topological order (dependencies first).  The graph is acyclic by
    # construction — every justification predates its user — so a cycle
    # here means the log is corrupt.
    emitted: list[tuple] = []
    state: dict[tuple, int] = {}  # 1 = on stack, 2 = done

    def visit(root: tuple) -> None:
        stack = [(root, iter(deps[root]))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for dep in it:
                mark = state.get(dep)
                if mark == 2:
                    continue
                if mark == 1:
                    raise CertificateError("cycle in proof dependencies")
                state[dep] = 1
                stack.append((dep, iter(deps[dep])))
                advanced = True
                break
            if not advanced:
                stack.pop()
                state[node] = 2
                emitted.append(node)

    for node in order:
        if state.get(node) != 2:
            visit(node)

    proof_lines: list[list[int]] = [list(events[key2event[node[1]]][0]) for node in emitted]

    cnf: list[list[int]] = [[lit] for lit in sorted(cnf_units)]
    # proof_clause already returns a fresh list per call; no extra copy.
    cnf.extend(sat.proof_clause(key) for key in cnf_keys)
    extra = p.final.get("add_clause")
    if extra:
        cnf.append(list(extra))

    num_vars = max(
        max((abs(q) for clause in cnf for q in clause), default=0),
        max((abs(q) for clause in proof_lines for q in clause), default=0),
        max((abs(q) for q in assumptions), default=0),
    )

    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "kind": "drat",
        "digest": digest,
        "mode": "incremental",
        "num_vars": num_vars,
        "query": canonical_query_payload(terms, var_map, serialized),
        "assumptions": list(assumptions),
        "cnf": cnf,
        "proof": proof_lines,
    }


def build_model_certificate(
    sat, blaster, terms, digest, var_map, model_values, serialized=None
) -> dict:
    """Package a SAT answer as a replayable bit-level model.

    ``model_values`` maps the query's own variable names to values (the
    frontend already extracted them); the certificate stores them under
    canonical names so alpha-equivalent cache hits replay unchanged.
    Uninterpreted-function applications get explicit tables: argument
    values are evaluated bottom-up over the query DAG (inner applies
    first, so nested applications read tables already built) and result
    values are read off the blaster's per-node bit caches.
    """
    from .evaluator import eval_term

    funs: dict[str, list] = {}
    env: dict = dict(model_values)

    # Post-order over the query DAG so argument applies precede users.
    post: list = []
    seen: set[int] = set()
    stack = [(t, False) for t in terms]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            post.append(t)
            continue
        if t.tid in seen:
            continue
        seen.add(t.tid)
        stack.append((t, True))
        for a in t.args:
            stack.append((a, False))

    for t in post:
        if t.op != "apply":
            continue
        argv = tuple(eval_term(a, env) for a in t.args)
        bits = blaster._bool_cache.get(t.tid)
        if bits is not None:
            value: int | bool = bool(sat.value(bits))
        else:
            bv = blaster._bv_cache[t.tid]
            value = 0
            for i, lit in enumerate(bv):
                if sat.value(lit):
                    value |= 1 << i
        table = funs.setdefault(t.payload, [])
        key = [int(v) for v in argv]
        if not any(row[0] == key for row in table):
            table.append([key, int(value)])
        env.setdefault(t.payload, {})
        env[t.payload][argv] = value

    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "kind": "model",
        "digest": digest,
        "mode": "incremental",
        "query": canonical_query_payload(terms, var_map, serialized),
        "model": {
            var_map[name]: (int(value) if not isinstance(value, bool) else bool(value))
            for name, value in model_values.items()
            if name in var_map
        },
        "funs": funs,
    }
