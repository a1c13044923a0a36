"""Parallel proof-obligation runner with a persistent solver cache.

Serval's symbolic optimizations deliberately decompose one monolithic
verification task into many small, independent proof obligations:
``split-pc`` (repro.core.engine) yields one guarded final state per
path through the binary, and ``split-cases`` (repro.core.symopt)
yields one proof per monitor-call handler.  Each verification
condition collected in the evaluation context is therefore an
independent check-sat query — the natural unit of parallelism and
memoization.

This module makes those units explicit:

  * :class:`Obligation` — a self-contained query (the serialized term
    DAG of ``assumptions ∧ ¬(∧ goals)``, packaged once where the terms
    were built) that can be shipped to a worker process or hashed for
    the cache, and is keyed, solved and certified as given;
  * :func:`run_obligations` — hands obligations to a scheduler, in
    the calling thread or across worker processes, and reduces results
    deterministically (input order, first failure wins);
  * the persistent verdict store (``repro.core.store``, in the format
    of ``repro.smt.SolverCache``) keyed by the canonical hash-consed
    DAG digest, so alpha-equivalent queries hit across runs and across
    worker processes.

Everything above the solver boundary funnels through here:
``repro.sym.verify_vcs`` turns every VC set into obligations with
:func:`obligations_from_context` at every ``jobs`` value, and
``repro.sym.check_batch``, ``Refinement.prove(jobs=...)`` and the
verifiers' ``jobs``/``cache_dir`` knobs ride on it.

There is one dispatcher, the scheduler (``repro.core.scheduler``): one
FIFO queue, per-obligation timeout + bounded retry, deterministic
reduction.  ``jobs > 1`` feeds the **process-wide** scheduler, one
persistent pool shared by every ``run_obligations`` call; ``jobs=1``
runs the same queue and policy in the calling thread
(``InlineScheduler``).  Either way, verdicts are memoized in the
sharded content-addressed store (``repro.core.store.VerdictStore``)
when a ``cache_dir`` is given, and in the dispatching process's session
memo when not.

An obligation is discharged in two steps.  The lookup
(:func:`_lookup_obligation`: trivial roots, canonicalize, this
machine's verdict tier) runs where the scheduler hands the obligation
out, so a hit is answered there and costs a lookup, never a pool round
trip.  Only a miss reaches the executor (:func:`_check_obligation`),
with its digest and variable map: it reads a remote tier through, if
the store has one, then splits or solves.

**Piece obligations** (§4's split-cases, one level below the VC): a
refinement VC's goal is ``not(and(c1..cn))``, one conjunct per
abstract-state field, and one such query can outweigh every other
obligation of a proof.  When an obligation's lookup misses (the
store, or the session memo without one) and its last root is such a
conjunction with n >= 2, the executor does not solve it: it answers with
a :class:`Split`, one piece obligation per distinct conjunct, each the
query ``R ∧ ¬ci`` over the obligation's other roots ``R`` as
:func:`piece_nodes` derives it.  Pieces run at the head of the
scheduler's queue, each an obligation of its own for budgets, retries,
the store and certificates.  The first piece that is not proved, in
conjunct order, decides the whole; when every piece is proved, the
parent stores the whole digest as ``unsat`` with a ``split``
certificate (docs/CERTIFICATES.md).  Callers see one result per
obligation they submitted, never a piece.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
import os
import time
from typing import Callable, Iterable, Sequence

from ..obs import count as _obs_count, span as _obs_span
from ..smt import (
    SolverTimeout,
    Term,
    canonicalize_nodes,
    deserialize_terms,
    mk_and,
    mk_not,
    mk_true,
    serialize_with_prefix,
)
from ..smt.model import Model
from ..smt.proof import build_split_certificate, canonical_query_payload
from ..smt.solver import (
    CheckResult,
    SAT,
    Solver,
    SolverCache,
    UNSAT,
    get_incremental_session,
)

__all__ = [
    "Obligation",
    "ObligationResult",
    "RunnerStats",
    "Split",
    "default_jobs",
    "obligations_from_context",
    "parallel_map",
    "reduce_results",
    "run_obligations",
]

PROVED = "proved"
FAILED = "failed"
UNKNOWN = "unknown"


def default_jobs() -> int:
    """Worker count when the caller asks for ``jobs=0`` (all cores)."""
    return max(os.cpu_count() or 1, 1)


@dataclass
class Obligation:
    """One independent proof obligation: the query its verdict is keyed,
    solved and certified by.

    ``payload`` is the portable serialization (``repro.smt.serialize_terms``)
    of ``assumptions /\\ not(/\\ goals)``: the assumptions other than
    ``true``, then the negated goal as the last root.  The obligation is
    proved by showing that query unsatisfiable.  It is serialized once,
    where the terms were built (:meth:`from_terms`); every worker keys,
    splits and solves the node list as given and never re-serializes
    it, so an obligation has one digest in every process.
    """

    name: str
    payload: dict

    @classmethod
    def from_terms(
        cls,
        name: str,
        goals: Sequence[Term],
        assumptions: Sequence[Term] = (),
    ) -> "Obligation":
        return cls.sharing_assumptions([(name, goals)], assumptions)[0]

    @classmethod
    def sharing_assumptions(
        cls,
        named_goals: Iterable[tuple[str, Sequence[Term]]],
        assumptions: Sequence[Term] = (),
    ) -> list["Obligation"]:
        """:meth:`from_terms` for each ``(name, goals)`` under the same
        ``assumptions``, which are serialized once
        (``serialize_with_prefix``); each payload is the one
        :meth:`from_terms` makes."""
        named_goals = list(named_goals)
        roots = [a for a in assumptions if a is not mk_true()]
        goal_roots = [mk_not(mk_and(*goals)) for _, goals in named_goals]
        payloads = serialize_with_prefix(roots, goal_roots)
        return [cls(name, payload) for (name, _), payload in zip(named_goals, payloads)]

    def to_json(self) -> dict:
        """Wire format for shipping an obligation to a remote runner
        (``repro.serve`` batch jobs).  Everything inside is already
        JSON-safe: the payload is ``serialize_terms`` output."""
        return {"name": self.name, "payload": self.payload}

    @classmethod
    def from_json(cls, doc: dict) -> "Obligation":
        """Rebuild an obligation from :meth:`to_json` output.

        Builds no terms.  The payload is keyed as given, so it must be a
        query as ``serialize_terms`` lays one out: at least one root,
        every argument an earlier node, every node reached from a root
        (the digest fails on a variable no root reaches).  The terms
        themselves are checked when a worker deserializes them, so a
        malformed batch degrades to per-obligation ``unknown`` verdicts
        instead of taking the daemon down.  Unknown keys are ignored.
        Raises ``ValueError`` on a document that is not an obligation.
        """
        if not isinstance(doc, dict):
            raise ValueError("obligation must be a JSON object")
        if "num_goals" in doc:
            raise ValueError(
                "obligation.num_goals is no longer accepted: the payload is now the "
                "query itself, its goal negated as the last root, and a goals-first "
                "payload read as one would flip its verdict; re-package the "
                "obligation with Obligation.from_terms"
            )
        name = doc.get("name")
        payload = doc.get("payload")
        if not isinstance(name, str) or not name:
            raise ValueError("obligation.name must be a non-empty string")
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("nodes"), list)
            or not isinstance(payload.get("roots"), list)
        ):
            raise ValueError("obligation.payload must carry serialized terms (nodes/roots)")
        nodes, roots = payload["nodes"], payload["roots"]
        if not roots:
            raise ValueError("obligation.payload has no roots")
        for i, node in enumerate(nodes):
            if not isinstance(node, list) or len(node) != 4 or not isinstance(node[2], list):
                raise ValueError(f"obligation.payload node {i} is not [op, sort, args, payload]")
            if not all(_is_index(arg, i) for arg in node[2]):
                raise ValueError(f"obligation.payload node {i} has an argument that is not an earlier node")
        if not all(_is_index(root, len(nodes)) for root in roots):
            raise ValueError("obligation.payload has a root that is not a node")
        unreached = set(range(len(nodes))) - _reached(nodes, roots)
        if unreached:
            raise ValueError(f"obligation.payload node {min(unreached)} is reached by no root")
        return cls(name, payload)


def _is_index(value, bound: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < bound


def _reached(nodes: list, roots: list) -> set[int]:
    """The indices of the nodes some root of a node list reaches."""
    reached: set[int] = set()
    stack = list(roots)
    while stack:
        i = stack.pop()
        if i not in reached:
            reached.add(i)
            stack.extend(nodes[i][2])
    return reached


@dataclass
class ObligationResult:
    """Verdict for one obligation, reduced deterministically."""

    name: str
    status: str  # proved | failed | unknown
    model_values: dict | None = None
    stats: dict = field(default_factory=dict)

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    def to_json(self) -> dict:
        """Wire format for a verdict (``repro.serve`` streams these).

        ``stats`` is filtered to JSON scalars so obs envelopes and other
        process-local baggage never leak onto the wire.
        """
        stats = {
            key: value
            for key, value in self.stats.items()
            if isinstance(value, (int, float, str, bool)) or value is None
        }
        doc: dict = {"name": self.name, "status": self.status, "stats": stats}
        if self.model_values is not None:
            doc["model"] = dict(self.model_values)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ObligationResult":
        if not isinstance(doc, dict) or not isinstance(doc.get("name"), str):
            raise ValueError("obligation result must be an object with a name")
        status = doc.get("status")
        if status not in (PROVED, FAILED, UNKNOWN):
            raise ValueError(f"obligation result has unknown status {status!r}")
        model = doc.get("model")
        if model is not None and not isinstance(model, dict):
            raise ValueError("obligation result model must be an object")
        stats = doc.get("stats", {})
        if not isinstance(stats, dict):
            raise ValueError("obligation result stats must be an object")
        return cls(doc["name"], status, model_values=model, stats=dict(stats))

    def __repr__(self) -> str:
        return f"ObligationResult({self.name}: {self.status})"


@dataclass
class RunnerStats:
    """Aggregate statistics for one ``run_obligations`` call, with the
    scheduler's telemetry at every ``jobs``.

    ``utilization`` is the fraction of pool worker-seconds spent running
    tasks during this run's wall time (1.0 = every worker busy the whole
    time; 0.0 with no pool, at ``jobs=1``); ``max_queue_depth`` is the
    deepest the queue got while the run was live.
    """

    obligations: int = 0
    jobs: int = 1
    wall_time_s: float = 0.0
    cache_queries: int = 0
    cache_hits: int = 0
    retries: int = 0
    timeouts: int = 0
    max_queue_depth: int = 0
    worker_restarts: int = 0
    pool_workers: int = 0
    utilization: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_queries if self.cache_queries else 0.0

    def as_dict(self) -> dict:
        return dict(asdict(self), cache_hit_rate=self.cache_hit_rate)


def obligations_from_context(ctx, assumptions: Sequence = (), prefix: str = "vc") -> list[Obligation]:
    """One obligation per VC collected during symbolic evaluation.

    This is where the engine's path decomposition becomes explicit:
    every ``assert_prop``/``bug_on`` recorded under a path guard is an
    independent query.  ``assumptions`` may be ``SymBool``s or raw
    boolean terms; every VC shares them, so they are serialized once.
    """
    assume_terms = [a.term if hasattr(a, "term") else a for a in assumptions]
    return Obligation.sharing_assumptions(
        ((f"{prefix}[{i}]: {vc.message}", [vc.formula]) for i, vc in enumerate(ctx.vcs)),
        assume_terms,
    )


# ---------------------------------------------------------------------------
# Piece obligations


def _conjuncts(query: dict) -> list[int]:
    """The node indices of ``c1..cn`` when a serialized query's last root
    is ``not(and(c1..cn))`` with n >= 2 and no ``ci`` itself an ``and``,
    else empty (solve it whole).

    A piece's last root is ``not(ci)``, so the flatness rule is what
    keeps a piece from splitting again: every piece is solved, and each
    piece of a ``split`` certificate carries a ``drat`` certificate.
    ``mk_and`` flattens, so every goal :meth:`Obligation.from_terms`
    packages is flat; only a hand-built payload is solved whole.
    """
    nodes = query["nodes"]
    op, _tag, args, _payload = nodes[query["roots"][-1]]
    if op != "not":
        return []
    op, _tag, args, _payload = nodes[args[0]]
    if op != "and" or len(args) < 2 or any(nodes[c][0] == "and" for c in args):
        return []
    return list(args)


def piece_nodes(query: dict, conjunct: int) -> dict:
    """The piece of a serialized query for the conjunct at node index
    ``conjunct``: the query's own nodes plus ``["not", "b", [conjunct],
    None]``, rooted at the other roots and that node, and pruned to the
    nodes those roots reach with their stored order kept (every variable
    left must be reachable, or ``canonicalize_nodes`` fails).

    The rule is syntactic on purpose: ``mk_not`` would fold a conjunct
    that is itself a ``not``, and a re-serialization can reorder nodes,
    while the digest breaks ties between commutative operands by stored
    order.  ``repro.smt.checkproof`` derives pieces by the same rule.
    """
    nodes = query["nodes"] + [["not", "b", [conjunct], None]]
    roots = query["roots"][:-1] + [len(nodes) - 1]
    order = sorted(_reached(nodes, roots))
    index = {old: new for new, old in enumerate(order)}
    return {
        "nodes": [
            [op, tag, [index[a] for a in args], payload]
            for op, tag, args, payload in (nodes[i] for i in order)
        ],
        "roots": [index[r] for r in roots],
    }


@dataclass
class Split:
    """An obligation whose lookup missed, answered by its pieces.

    ``query`` is the obligation's payload (the node list its ``digest``
    was computed from) and ``var_map`` its canonical renaming;
    ``pieces`` holds one piece obligation per distinct digest, in the
    order of their first conjunct, ``digests`` their digests in
    parallel, and ``conjuncts`` maps every conjunct of the goal to its
    piece's index.  ``stats`` are the whole lookup's.
    """

    name: str
    digest: str
    query: dict
    var_map: dict
    pieces: list[Obligation]
    digests: list[str]
    conjuncts: list[int]
    stats: dict = field(default_factory=dict)

    @classmethod
    def derive(cls, name: str, query: dict, digest: str, var_map: dict) -> "Split | None":
        """Every piece of ``query``, derived and canonicalized, one per
        distinct digest; None when :func:`_conjuncts` finds no goal to
        split."""
        pieces: list[Obligation] = []
        digests: list[str] = []
        conjuncts = []
        for i, node in enumerate(_conjuncts(query)):
            payload = piece_nodes(query, node)
            piece_digest, _ = canonicalize_nodes(payload)
            if piece_digest not in digests:
                digests.append(piece_digest)
                pieces.append(Obligation(f"{name} / piece {i}", payload))
            conjuncts.append(digests.index(piece_digest))
        if not conjuncts:
            return None
        return cls(name, digest, query, var_map, pieces, digests, conjuncts)

    def verdict(self, results: Sequence[ObligationResult | None]) -> ObligationResult | None:
        """The whole obligation's result once the piece results (by
        piece index, None while running) decide it, else None.

        Pieces are in first-conjunct order, so the first piece that is
        not proved belongs to the first conjunct that is not: its result
        decides, the same at every ``jobs``, and with every piece proved
        the whole is.  A failed piece's model satisfies ``R`` and
        falsifies its conjunct, so it is the whole obligation's
        counterexample once the whole query's other variables, which
        occur in no root of the piece, are given any value (zero).
        """
        stats = dict(self.stats, split=len(self.conjuncts), pieces=len(self.pieces))
        for result in results:
            if result is None:
                return None
            stats["time_s"] = stats.get("time_s", 0.0) + result.stats.get("time_s", 0.0)
            if not result.proved:
                stats["piece"] = result.name
                for flag in ("timed_out", "worker_error"):
                    if flag in result.stats:
                        stats[flag] = result.stats[flag]
                model = None
                if result.model_values is not None:
                    model = dict.fromkeys(self.var_map, 0)
                    model.update(result.model_values)
                return ObligationResult(self.name, result.status, model_values=model, stats=stats)
        return ObligationResult(self.name, PROVED, stats=stats)

    def record(self, cache_dir: str | None) -> None:
        """Record the proved whole where dispatch looks it up: the store
        at ``cache_dir`` (the process's one store object for it) gets an
        ``unsat`` entry and a ``split`` certificate naming each
        conjunct's piece; with no store, this process's session memo
        gets the verdict."""
        if not cache_dir:
            get_incremental_session().memo[self.digest] = {"status": UNSAT}
            return
        cache = _open_cache(cache_dir)
        # This thread's CPU: on the pool this runs on the dispatcher
        # thread, beside the waiting callers.
        emit_start = time.thread_time()
        with _obs_span("cert.build", cat="solver-cache"):
            cert = build_split_certificate(
                self.digest,
                canonical_query_payload(self.query, self.var_map),
                [self.digests[slot] for slot in self.conjuncts],
            )
        cache.store_certificate(self.digest, cert)
        _obs_count("solver.certs")
        _obs_count("solver.cert_build_s", time.thread_time() - emit_start)
        cache.store(self.digest, {}, CheckResult(UNSAT))


# ---------------------------------------------------------------------------
# Lookup and executor


# One verdict store object per (path, remote URL) in each process.
_STORES: dict[tuple[str, str], object] = {}


def _open_cache(cache_dir: str | None):
    """The store at ``cache_dir``, opened once per process: the sharded
    content-addressed store, with a remote read-through/write-back tier
    when ``REPRO_REMOTE_STORE`` points at a store server."""
    if not cache_dir:
        return None
    from .remote import remote_store_url

    key = (cache_dir, remote_store_url())
    cache = _STORES.get(key)
    if cache is None:
        from .store import open_store

        # Two threads may both open it; every caller gets the one kept.
        cache = _STORES.setdefault(key, open_store(*key))
    return cache


def _lookup_obligation(obligation: Obligation, cache_dir: str | None) -> ObligationResult | tuple:
    """The dispatch step of an obligation, a piece or not: look its
    payload up as given (``Solver.lookup``: trivial roots, canonicalize,
    then this machine's verdict tier, the store's own entries or without
    a store the session memo).  Returns its result on a hit, else the
    ``(digest, var_map)`` that :func:`_check_obligation` takes.  Builds
    no terms and reads no remote tier: the scheduler calls this in the
    thread that hands the obligation out, so it must stay a lookup.
    """
    start = time.perf_counter()
    solver = Solver(cache=_open_cache(cache_dir))
    digest, var_map, hit = solver.lookup(obligation.payload)
    if hit is None:
        return digest, var_map
    return _result(obligation.name, hit, _stats(solver, start))


def _check_obligation(
    obligation: Obligation,
    cache_dir: str | None,
    max_conflicts: int | None,
    timeout_s: float | None,
    digest: str,
    var_map: dict,
) -> ObligationResult | Split:
    """Answer an obligation, a piece or not, that its lookup missed
    (:func:`_lookup_obligation` gave its ``digest`` and ``var_map``), in
    the current process.

    A store with a tier behind it is read through first
    (``Solver.read_through``).  On a miss there, an obligation whose
    goal splits is answered by its :class:`Split`, without terms; any
    other is rebuilt (``deserialize_terms``) and solved.  The
    scheduler's task executor calls this, in a worker or in the calling
    thread; it never canonicalizes the obligation again.
    """
    start = time.perf_counter()
    solver = Solver(
        max_conflicts=max_conflicts,
        timeout_s=timeout_s,
        cache=_open_cache(cache_dir),
    )
    query = obligation.payload
    result = solver.read_through(digest, var_map)
    if result is None:
        split = Split.derive(obligation.name, query, digest, var_map)
        if split is not None:
            split.stats = _stats(solver, start)
            return split
        # A ``true`` root asserts nothing: the solve leaves it out.
        terms = [t for t in deserialize_terms(query) if t is not mk_true()]
        try:
            result = solver.solve(query, digest, var_map, terms)
        except SolverTimeout:
            stats = dict(solver.last_stats, time_s=time.perf_counter() - start, timed_out=True)
            return ObligationResult(obligation.name, UNKNOWN, stats=stats)
    return _result(obligation.name, result, _stats(solver, start))


def _result(name: str, result: CheckResult, stats: dict) -> ObligationResult:
    """An obligation's result from its query's: UNSAT proves it, and a
    model of a SAT query is its counterexample."""
    if result.is_unsat:
        return ObligationResult(name, PROVED, stats=stats)
    if result.is_sat:
        return ObligationResult(name, FAILED, model_values=dict(result.model.items()), stats=stats)
    return ObligationResult(name, UNKNOWN, stats=stats)


def _memoize(result, cache_dir: str | None, digest: str, var_map: dict) -> None:
    """Record a verdict a pool worker returned where dispatch looks it
    up, as :meth:`Split.record` does for a proved whole: with a store at
    ``cache_dir`` the worker's solve already wrote it there, so nothing
    is done; with no store this process's session memo gets its status,
    and for a failure its model under canonical names (the entry the
    worker's own solve recorded in its memo).  Anything else (a split,
    ``unknown``) is not recorded."""
    if cache_dir or not isinstance(result, ObligationResult):
        return
    if result.proved:
        check = CheckResult(UNSAT)
    elif result.status == FAILED and result.model_values is not None:
        check = CheckResult(SAT, Model(result.model_values))
    else:
        return
    get_incremental_session().memo[digest] = SolverCache._result_to_entry(check, var_map)


def _stats(solver: Solver, start: float) -> dict:
    """An obligation's stats: its solver's, timed from ``start``."""
    stats = dict(solver.last_stats)
    stats["time_s"] = time.perf_counter() - start
    stats["cache_hit"] = bool(stats.get("cache_hit", False))
    stats["cached"] = solver.cache is not None and not stats.get("trivial", False)
    return stats


# ---------------------------------------------------------------------------
# Dispatch

def run_obligations(
    obligations: Sequence[Obligation],
    jobs: int = 1,
    cache_dir: str | None = None,
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
) -> tuple[list[ObligationResult], RunnerStats]:
    """Discharge obligations through the scheduler.

    ``jobs=0`` means one worker per core.  With ``jobs > 1`` and more
    than one obligation, the batch feeds the process-wide scheduler's
    pool (``repro.core.scheduler``), shared by every concurrent caller;
    otherwise, and always inside a worker, an ``InlineScheduler`` runs
    it in the calling thread (no multiprocessing overhead, the
    sequential baseline).  Either way each obligation gets
    ``timeout_s`` with ``retries`` bounded re-runs, a task that raises
    is reported ``unknown`` with ``worker_error``, and the sharded
    verdict store at ``cache_dir`` is used.

    The reduction is deterministic regardless of worker scheduling:
    results come back in input order, so "first failing obligation"
    is stable across parallel runs — parallel and sequential runs
    produce identical verdicts in identical order.
    """
    from .scheduler import InlineScheduler, get_scheduler, in_worker

    if jobs == 0:
        jobs = default_jobs()
    if in_worker():
        jobs = 1
    scheduler = get_scheduler(jobs) if jobs > 1 and len(obligations) > 1 else InlineScheduler()
    return scheduler.run(
        obligations,
        cache_dir=cache_dir,
        max_conflicts=max_conflicts,
        timeout_s=timeout_s,
        retries=retries,
        jobs_hint=jobs,
    )


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1) -> list:
    """Order-preserving map across worker processes.

    Generic escape hatch for workloads whose parallel unit is not an
    :class:`Obligation` — e.g. the BPF JIT checker sweeps, where the
    per-item work includes symbolic evaluation, not just solving.
    ``fn`` and the items must be picklable (top-level callables).

    With ``jobs > 1`` the items ride the same shared scheduler queue
    as proof obligations, so a JIT sweep and a refinement proof can
    interleave on the same workers.
    """
    from .scheduler import in_worker

    items = list(items)
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(items) <= 1 or in_worker():
        return [fn(item) for item in items]
    from .scheduler import get_scheduler

    return get_scheduler(jobs).map(fn, items)


def reduce_results(results: Sequence[ObligationResult]) -> ObligationResult | None:
    """Deterministic reduction: the first non-proved result, or None.

    "Stop at first failure" semantics, without depending on which
    worker finished first.
    """
    for result in results:
        if not result.proved:
            return result
    return None
