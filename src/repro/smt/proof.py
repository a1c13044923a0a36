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
    core, in the order it was learned, so every proof line is RUP
    (reverse unit propagation) with respect to the lines before it.  The
    certificate carries the blasted-clause manifest (exactly the
    problem clauses the refutation touches), the assumption literals,
    and the canonically-renamed query DAG the digest binds to.
  * :func:`build_model_certificate` packages a SAT answer as a
    bit-level model under canonical variable names plus the
    uninterpreted-function tables the assignment induces, so a
    solver-free evaluator can replay it against the query DAG.
  * :func:`build_split_certificate` records an UNSAT answer reached
    through piece obligations (``repro.core.runner``): the whole query
    and the digest of each conjunct's piece, each piece certified by its
    own entry in the store.
  * :func:`encode_certificate` turns a certificate into the bytes the
    store keeps.

The independent checker (``python -m repro.smt.checkproof``) consumes
these documents with zero imports from this package; the wire format is
specified in docs/CERTIFICATES.md.

Soundness sketch for the trimmed DRAT trace: a first-UIP learned clause
(minimization included) is derivable by input resolution from its
recorded antecedents plus the root-level units justifying any literal
the analysis silently dropped, and input resolution implies RUP.  The
certificate states those units as unit facts of its manifest, and
every recorded justification predates the event that uses it — so the
log's own order is a topological order and each emitted line checks
against its predecessors.  Deletions are logged but never emitted: a checker over a
monotone clause database is sound, since adds are only ever verified
against consequences.
"""

from __future__ import annotations

import json
from itertools import filterfalse
from operator import neg

__all__ = [
    "ProofLog",
    "CertificateError",
    "RawJSON",
    "build_unsat_certificate",
    "build_model_certificate",
    "build_split_certificate",
    "encode_certificate",
    "canonical_query_payload",
]

CERT_FORMAT = "repro-cert"
CERT_VERSION = 1


class CertificateError(RuntimeError):
    """Raised when a certificate cannot be assembled from the log."""


class RawJSON(str):
    """A certificate field's value already encoded as JSON text;
    :func:`encode_certificate` writes it verbatim."""


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
        before backtracking unassigns it, noting the root-level facts
        it rests on.
    """

    __slots__ = ("events", "key2event", "input_units", "deleted", "final", "clause_json")

    def __init__(self) -> None:
        self.events: list[tuple[tuple[int, ...], tuple, tuple[int, ...], int | None]] = []
        self.key2event: dict = {}
        self.input_units: set[int] = set()
        self.deleted: list = []
        self.final: dict | None = None
        # JSON text of every problem clause a certificate has carried,
        # by clause key (see build_unsat_certificate).
        self.clause_json: dict = {}

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
        the trail is still intact.  A literal false at level 0 ends its
        branch of the walk, and its negation is noted as a root-level
        unit fact the certificate states; decisions/assumptions end it
        too (the checker asserts the assumption literals itself).
        """
        if key is not None:
            lits = sat.proof_clause(key)
        keys: list = [key] if key is not None else []
        seen_keys = set(keys)
        seen_vars: set[int] = set()
        units: list[int] = []
        level = sat._level
        stack = list(lits)
        while stack:
            q = stack.pop()
            var = q if q > 0 else -q
            if var in seen_vars:
                continue
            seen_vars.add(var)
            if level[var] == 0:
                # Every literal the walk meets is false (the conflict
                # clause's, or a reason's other than the one it implied).
                units.append(-q)
                continue
            rk = sat.proof_reason(var)
            if rk is None:
                continue
            if rk not in seen_keys:
                seen_keys.add(rk)
                keys.append(rk)
                stack.extend(sat.proof_clause(rk))
        self.final = {"lits": list(lits), "keys": keys, "from_key": key, "units": units}

    def capture_add_conflict(self, lits) -> None:
        """An ``add_clause`` whose every literal was already false at
        level 0: the rejected clause is the conflict, and since it never
        reached storage it must ride the certificate's CNF manifest
        explicitly, with the root-level unit facts that falsify it."""
        self.final = {
            "lits": list(lits),
            "keys": [],
            "from_key": None,
            "add_clause": list(lits),
            "units": [-q for q in lits],
        }


# ---------------------------------------------------------------------------
# Emission


def canonical_query_payload(query: dict, var_map: dict[str, str]) -> dict:
    """A serialized query's node list with its variables alpha-renamed
    canonically.

    The renaming is digest-preserving (``canonicalize_nodes`` is
    alpha-blind), so the checker can recompute the canonical digest
    from the payload alone and compare it to the certificate's claim —
    the digest binding that ties a certificate to its store entry.
    """
    nodes = [
        [op, sort_tag, args, var_map.get(str(payload), str(payload)) if op == "var" else payload]
        for op, sort_tag, args, payload in query["nodes"]
    ]
    return {"nodes": nodes, "roots": list(query["roots"])}


def build_unsat_certificate(sat, query, digest, var_map, assumptions) -> dict:
    """Trim the session proof log to this query's refutation.

    ``query`` is the serialized node list the digest was computed from
    and ``assumptions`` its root literals (the session solves each query
    under assumptions, never asserting its roots).  Raises
    :class:`CertificateError` when the log carries no final core — an
    UNSAT answer the hooks did not see.
    """
    p = sat.proof
    if p is None or p.final is None:
        raise CertificateError("solver returned unsat but the proof log has no final core")

    # Hot path (runs once per cache-miss UNSAT, gated in CI at <10% of
    # grid wall): per-clause work runs in C (set, dict and map
    # operations) wherever it can.
    key2event = p.key2event
    learned = key2event.__contains__
    final = p.final
    # Clause content by key: arena[key + 1 : key + 1 + arena[key]]
    # (ArenaSolver.proof_clause, inlined).
    arena = sat._arena

    # Dependency nodes: the keys of learned-clause events.  Problem
    # clauses go to the CNF manifest; so does every *root-level unit
    # fact* a derivation leans on, emitted as a unit clause rather than
    # re-derived through its reason chain.  The manifest is trusted
    # wholesale by the checker (it cannot re-blast the query), so
    # deriving those units would add manifest bulk — often the majority
    # of it — without adding a single checked step to the refutation
    # skeleton, which stays fully RUP-checked.
    #
    # Seed: the final core's clauses, plus a unit fact for every
    # root-level-false literal they mention (noted when the core was
    # captured), so the final unit-propagation check sees those
    # literals falsified.
    cnf_units = set(final["units"])
    if final["from_key"] is None and not final.get("add_clause"):
        # A final core with no conflict clause of its own: a single
        # literal that is both required and refuted.  When the literal
        # is itself a root-level unit (an input unit or a learned unit
        # the root level then contradicted), state it as a unit fact;
        # when it is an assumption, the checker asserts it directly.
        for lit in final["lits"]:
            if lit in p.input_units or ("u", lit) in key2event:
                cnf_units.add(lit)

    events = p.events
    needed: set = set()  # learned keys in the refutation's closure
    reached = list(final["keys"])  # every clause key reached, in order
    pending = list(filter(learned, final["keys"]))
    while pending:
        key = pending.pop()
        if key in needed:
            continue
        needed.add(key)
        _lits, ants, zeros, _key = events[key2event[key]]
        reached += ants
        pending += filter(learned, ants)
        # The units standing in for literals the analysis dropped:
        # recorded at learn time, so they predate this clause.
        cnf_units.update(map(neg, zeros))

    # Proof lines in log order: every justification predates the event
    # that uses it, so log order is a topological order and each line
    # checks against the manifest and the lines before it.
    proof_lines = [list(events[idx][0]) for idx in sorted(map(key2event.__getitem__, needed))]

    # The manifest is the bulk of a certificate, and the queries of one
    # session share most of it (the pieces of a split share the whole's
    # definitions), so each problem clause's JSON text is kept on the
    # log.  A problem clause is never moved or rewritten (propagation
    # only swaps its literals), so its text stays that clause.  A list
    # of ints reprs as its JSON text, spaces aside, faster than any
    # encoder writes it.
    texts = p.clause_json
    cnf_keys = list(filterfalse(learned, dict.fromkeys(reached)))
    for key in filterfalse(texts.__contains__, cnf_keys):
        texts[key] = repr(arena[key + 1 : key + 1 + arena[key]]).replace(" ", "")
    cnf = [f"[{lit}]" for lit in sorted(cnf_units)]
    cnf += map(texts.__getitem__, cnf_keys)
    extra = final.get("add_clause")
    if extra:
        cnf.append(json.dumps(list(extra), separators=(",", ":")))

    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "kind": "drat",
        "digest": digest,
        "mode": "incremental",
        # An upper bound (the session's variable count): the checker
        # ignores it, and the exact maximum would need every literal
        # of the manifest, which is written from kept text.
        "num_vars": sat.num_vars,
        "query": canonical_query_payload(query, var_map),
        "assumptions": list(assumptions),
        "cnf": RawJSON("[" + ",".join(cnf) + "]"),
        "proof": proof_lines,
    }


def build_model_certificate(sat, blaster, terms, query, digest, var_map, model_values) -> dict:
    """Package a SAT answer as a replayable bit-level model.

    ``terms`` are the roots of ``query``, the serialized node list the
    digest was computed from, as the session blasted them.
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
        "query": canonical_query_payload(query, var_map),
        "model": {
            var_map[name]: (int(value) if not isinstance(value, bool) else bool(value))
            for name, value in model_values.items()
            if name in var_map
        },
        "funs": funs,
    }


def build_split_certificate(digest, query, pieces) -> dict:
    """The certificate of a whole query proved by its pieces.

    ``query`` is the whole query in canonical names and ``pieces`` the
    digest of each conjunct's piece, in the goal ``and``'s operand
    order.  The checker derives every piece from ``query`` itself and
    compares digests; each piece's UNSAT answer is certified by the
    ``drat`` certificate stored under its own digest.
    """
    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "kind": "split",
        "digest": digest,
        "query": query,
        "pieces": list(pieces),
    }


def encode_certificate(cert: dict) -> bytes:
    """A certificate's bytes: compact JSON, field by field in order,
    with every :class:`RawJSON` value written as it is."""
    fields = (
        json.dumps(key)
        + ":"
        + (value if isinstance(value, RawJSON) else json.dumps(value, separators=(",", ":")))
        for key, value in cert.items()
    )
    return ("{" + ",".join(fields) + "}").encode()
