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

  * :class:`Obligation` — a self-contained query (serialized term DAG
    for the goal formulas plus assumptions) that can be shipped to a
    worker process or hashed for the cache;
  * :func:`run_obligations` — dispatches obligations in-process or
    across worker processes and reduces results deterministically
    (input order, first failure wins);
  * the persistent cache (``repro.smt.SolverCache``) keyed by the
    canonical hash-consed DAG digest, so alpha-equivalent queries hit
    across runs and across worker processes.

Everything above the solver boundary funnels through here:
``repro.sym.verify_vcs`` turns every VC set into obligations with
:func:`obligations_from_context` at every ``jobs`` value, and
``repro.sym.check_batch``, ``Refinement.prove(jobs=...)`` and the
verifiers' ``jobs``/``cache_dir`` knobs ride on it.

There are exactly two dispatch modes, over the same obligations.
``jobs=1`` runs them in-process, in order; ``jobs > 1`` feeds the
**process-wide scheduler** (``repro.core.scheduler``): one persistent
pool shared by every ``run_obligations`` call, fed from one FIFO
queue, with per-obligation timeout + bounded retry.  Either way,
verdicts are memoized in the sharded content-addressed store
(``repro.core.store.VerdictStore``) when a ``cache_dir`` is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import os
import time
from typing import Callable, Iterable, Sequence

from ..obs import observe as _obs_observe, span as _obs_span
from ..smt import (
    SolverTimeout,
    Term,
    deserialize_terms,
    mk_and,
    mk_not,
    serialize_terms,
)
from ..smt.solver import Solver

__all__ = [
    "Obligation",
    "ObligationResult",
    "RunnerStats",
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
    """One independent proof obligation.

    ``payload`` is the portable serialization of ``goals + assumptions``
    (see ``repro.smt.serialize_terms``); ``num_goals`` splits the two
    groups back apart on the worker side.  The obligation is proved by
    showing ``assumptions /\\ not(/\\ goals)`` unsatisfiable.
    """

    name: str
    payload: dict
    num_goals: int
    info: dict = field(default_factory=dict)

    @classmethod
    def from_terms(
        cls,
        name: str,
        goals: Sequence[Term],
        assumptions: Sequence[Term] = (),
        **info,
    ) -> "Obligation":
        goals = list(goals)
        roots = goals + list(assumptions)
        return cls(name, serialize_terms(roots), len(goals), dict(info))

    def to_json(self) -> dict:
        """Wire format for shipping an obligation to a remote runner
        (``repro.serve`` batch jobs).  Everything inside is already
        JSON-safe: the payload is ``serialize_terms`` output."""
        return {
            "name": self.name,
            "num_goals": self.num_goals,
            "payload": self.payload,
            "info": self.info,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Obligation":
        """Rebuild an obligation from :meth:`to_json` output.

        Validates shape only (types and payload structure) — the term
        DAG itself is checked when a worker deserializes it, so a
        malformed batch degrades to per-obligation ``unknown`` verdicts
        instead of taking the daemon down.  Raises ``ValueError`` on a
        document that is not an obligation at all.
        """
        if not isinstance(doc, dict):
            raise ValueError("obligation must be a JSON object")
        name = doc.get("name")
        num_goals = doc.get("num_goals")
        payload = doc.get("payload")
        if not isinstance(name, str) or not name:
            raise ValueError("obligation.name must be a non-empty string")
        if not isinstance(num_goals, int) or isinstance(num_goals, bool) or num_goals < 1:
            raise ValueError("obligation.num_goals must be a positive integer")
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("nodes"), list)
            or not isinstance(payload.get("roots"), list)
        ):
            raise ValueError("obligation.payload must carry serialized terms (nodes/roots)")
        if num_goals > len(payload["roots"]):
            raise ValueError("obligation.num_goals exceeds the payload's root count")
        info = doc.get("info", {})
        if not isinstance(info, dict):
            raise ValueError("obligation.info must be an object")
        return cls(name, payload, num_goals, dict(info))


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
    """Aggregate statistics for one ``run_obligations`` call."""

    obligations: int = 0
    jobs: int = 1
    wall_time_s: float = 0.0
    cache_queries: int = 0
    cache_hits: int = 0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_queries if self.cache_queries else 0.0

    def as_dict(self) -> dict:
        return {
            "obligations": self.obligations,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time_s,
            "cache_queries": self.cache_queries,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
        }


def obligations_from_context(ctx, assumptions: Sequence = (), prefix: str = "vc") -> list[Obligation]:
    """One obligation per VC collected during symbolic evaluation.

    This is where the engine's path decomposition becomes explicit:
    every ``assert_prop``/``bug_on`` recorded under a path guard is an
    independent query.  ``assumptions`` may be ``SymBool``s or raw
    boolean terms.
    """
    assume_terms = [a.term if hasattr(a, "term") else a for a in assumptions]
    out = []
    for i, vc in enumerate(ctx.vcs):
        out.append(
            Obligation.from_terms(
                f"{prefix}[{i}]: {vc.message}",
                [vc.formula],
                assume_terms,
                kind=vc.kind,
                index=i,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Worker side

def _check_obligation(
    obligation: Obligation,
    cache_dir: str | None,
    max_conflicts: int | None,
    timeout_s: float | None,
) -> ObligationResult:
    """Discharge one obligation in the current process (the scheduler's
    workers call this too; their trace envelope lives in the scheduler).
    """
    start = time.perf_counter()
    roots = deserialize_terms(obligation.payload)
    goals = roots[: obligation.num_goals]
    assumptions = roots[obligation.num_goals:]
    if cache_dir:
        # Sharded content-addressed store; reads legacy flat caches too,
        # and grows a remote read-through/write-back tier when
        # REPRO_REMOTE_STORE points at a store server.
        from .store import open_store

        cache = open_store(cache_dir)
    else:
        cache = None
    solver = Solver(max_conflicts=max_conflicts, timeout_s=timeout_s, cache=cache)
    solver.add(*assumptions)
    try:
        result = solver.check(mk_not(mk_and(*goals)))
    except SolverTimeout:
        stats = dict(solver.last_stats, time_s=time.perf_counter() - start, timed_out=True)
        return ObligationResult(obligation.name, UNKNOWN, stats=stats)
    stats = dict(solver.last_stats)
    stats["time_s"] = time.perf_counter() - start
    stats["cache_hit"] = bool(stats.get("cache_hit", False))
    stats["cached"] = cache is not None and not stats.get("trivial", False)
    if result.is_unsat:
        return ObligationResult(obligation.name, PROVED, stats=stats)
    if result.is_sat:
        values = dict(result.model.items())
        return ObligationResult(obligation.name, FAILED, model_values=values, stats=stats)
    return ObligationResult(obligation.name, UNKNOWN, stats=stats)


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
    """Discharge obligations, optionally across worker processes.

    ``jobs=1`` runs in-process (no multiprocessing overhead, the
    sequential baseline); ``jobs=0`` means one worker per core.  With
    ``jobs > 1`` the obligations feed the process-wide scheduler
    (``repro.core.scheduler``): one persistent pool shared by every
    concurrent caller, per-obligation ``timeout_s`` with ``retries``
    bounded re-runs.  Both modes use the sharded verdict store at
    ``cache_dir``.

    The reduction is deterministic regardless of worker scheduling:
    results come back in input order, so "first failing obligation"
    is stable across parallel runs — parallel and sequential runs
    produce identical verdicts in identical order.
    """
    from .scheduler import in_worker

    if jobs == 0:
        jobs = default_jobs()
    if in_worker():
        jobs = 1
    if jobs > 1 and len(obligations) > 1:
        from .scheduler import get_scheduler

        return get_scheduler(jobs).run(
            obligations,
            cache_dir=cache_dir,
            max_conflicts=max_conflicts,
            timeout_s=timeout_s,
            retries=retries,
            jobs_hint=jobs,
        )
    # In-process: solver/sym events already record straight into the
    # caller's collector; only the per-obligation scheduler-layer span
    # needs adding.
    start = time.perf_counter()
    results = []
    for ob in obligations:
        ob_start = time.perf_counter()
        with _obs_span(ob.name, cat="scheduler") as sargs:
            result = _check_obligation(ob, cache_dir, max_conflicts, timeout_s)
        _obs_observe("obligation.wall_seconds", time.perf_counter() - ob_start)
        if sargs is not None:
            sargs["status"] = result.status
        results.append(result)
    stats = RunnerStats(
        obligations=len(obligations),
        jobs=1,
        wall_time_s=time.perf_counter() - start,
        cache_queries=sum(1 for r in results if r.stats.get("cached")),
        cache_hits=sum(1 for r in results if r.stats.get("cache_hit")),
    )
    return results, stats


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

    Mirrors the sequential runner's "stop at first failure" semantics
    without depending on which worker finished first.
    """
    for result in results:
        if not result.proved:
            return result
    return None
