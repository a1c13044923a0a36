"""Verification entry points: prove, refute, and counterexamples.

These mirror Rosette's ``verify``/``solve`` queries (§3.1): a property
is proved by showing its negation unsatisfiable; a failed proof comes
back with a counterexample model for debugging specifications and
implementations.

``check_batch`` and ``verify_vcs`` hand independent proof obligations
(``verify_vcs`` makes one per VC the context collected, §3.3) to
``repro.core.runner``.  The runner discharges them through the
scheduler (``repro.core.scheduler``), in the calling thread at
``jobs=1`` and on the process-wide pool otherwise, and memoizes
verdicts in the shared content-addressed store (``repro.core.store``)
when given one.  That is the only path from a VC set to a verdict, so
the verdict and the first failing VC do not depend on ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

from ..smt import Model, Solver, mk_and, mk_bool, mk_not
from .context import Context, VC
from .value import _coerce_bool

__all__ = ["ProofResult", "prove", "solve", "check_batch", "verify_vcs", "VerificationError"]


class VerificationError(Exception):
    """Raised by ``check_*`` helpers when a proof fails."""

    def __init__(self, message: str, result: "ProofResult"):
        super().__init__(message)
        self.result = result


@dataclass
class ProofResult:
    """Outcome of a proof attempt."""

    proved: bool
    counterexample: Model | None = None
    failed_vc: VC | None = None
    unknown: bool = False
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.proved

    def describe(self) -> str:
        if self.proved:
            return "proved"
        if self.unknown:
            return "unknown (budget exhausted)"
        what = self.failed_vc.message if self.failed_vc else "property"
        return f"failed: {what}; counterexample: {self.counterexample!r}"


def prove(
    prop,
    assumptions: list | tuple = (),
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
) -> ProofResult:
    """Prove a single property under assumptions."""
    prop = _coerce_bool(prop)
    assume = mk_and(*(_coerce_bool(a).term for a in assumptions)) if assumptions else mk_bool(True)
    solver = Solver(max_conflicts=max_conflicts, timeout_s=timeout_s)
    solver.add(assume)
    result = solver.check(mk_not(prop.term))
    if result.is_unsat:
        return ProofResult(True, stats=solver.last_stats)
    if result.is_sat:
        return ProofResult(False, counterexample=result.model, stats=solver.last_stats)
    return ProofResult(False, unknown=True, stats=solver.last_stats)


def solve(*constraints, max_conflicts: int | None = None) -> Model | None:
    """Find a model of the conjunction, or None (Rosette's ``solve``)."""
    solver = Solver(max_conflicts=max_conflicts)
    solver.add(*(_coerce_bool(c).term for c in constraints))
    result = solver.check()
    return result.model if result.is_sat else None


def _proof_result(result, stats: dict, failed_vc: VC | None = None) -> ProofResult:
    """An ``ObligationResult`` as a :class:`ProofResult` (the one
    conversion ``check_batch`` and ``verify_vcs`` share)."""
    if result.proved:
        return ProofResult(True, stats=stats)
    if result.status == "failed":
        model = Model(result.model_values or {})
        return ProofResult(False, counterexample=model, failed_vc=failed_vc, stats=stats)
    return ProofResult(False, unknown=True, failed_vc=failed_vc, stats=stats)


def check_batch(
    obligations,
    jobs: int = 1,
    cache_dir: str | None = None,
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
) -> list[ProofResult]:
    """Discharge a batch of independent proof obligations.

    ``obligations`` is a list of ``core.runner.Obligation`` objects, or
    ``(name, prop, assumptions)`` triples of symbolic booleans which are
    converted on the fly.  Returns one :class:`ProofResult` per
    obligation, in input order (the runner's reduction is deterministic
    regardless of worker scheduling).
    """
    from ..core.runner import Obligation, run_obligations

    converted = []
    for ob in obligations:
        if isinstance(ob, Obligation):
            converted.append(ob)
        else:
            name, prop, assume = ob
            converted.append(
                Obligation.from_terms(
                    name,
                    [_coerce_bool(prop).term],
                    [_coerce_bool(a).term for a in assume],
                )
            )
    results, stats = run_obligations(
        converted,
        jobs=jobs,
        cache_dir=cache_dir,
        max_conflicts=max_conflicts,
        timeout_s=timeout_s,
    )
    return [_proof_result(r, dict(r.stats, runner=stats.as_dict())) for r in results]


def verify_vcs(
    ctx: Context,
    assumptions: list | tuple = (),
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ProofResult:
    """Discharge every VC collected in a context.

    Each VC is one obligation (``core.runner.obligations_from_context``)
    with its own conflict budget and timeout, discharged by
    ``core.runner.run_obligations``: in the calling thread at
    ``jobs=1``, on the shared scheduler's pool otherwise, with verdicts
    memoized in the verdict store at ``cache_dir``.  The result names
    the first VC, in collection order, that is not proved, with its
    counterexample when it failed — the same verdict and VC at every
    ``jobs`` value.
    """
    if not ctx.vcs:
        return ProofResult(True)
    from ..core.runner import obligations_from_context, run_obligations

    start = time.perf_counter()
    obligations = obligations_from_context(ctx, [_coerce_bool(a).term for a in assumptions])
    results, run_stats = run_obligations(
        obligations,
        jobs=jobs,
        cache_dir=cache_dir,
        max_conflicts=max_conflicts,
        timeout_s=timeout_s,
    )
    stats = dict(run_stats.as_dict(), total_time_s=time.perf_counter() - start)
    for result, vc in zip(results, ctx.vcs):
        if not result.proved:
            return _proof_result(result, stats, vc)
    return ProofResult(True, stats=stats)
