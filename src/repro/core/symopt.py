"""Symbolic optimizations (§4).

Symbolic optimizations run *during* symbolic evaluation, using domain
knowledge and symbolic reflection to rewrite values into forms that
evaluate fast and produce solver-friendly constraints.  The paper's
catalog, and where each item lives here:

  * symbolic program counters -> ``split_pc``: implemented by the
    engine worklist (``repro.core.engine``); toggled via
    ``EngineOptions.split_pc``.
  * symbolic memory addresses -> offset concretization: implemented in
    the memory model (``repro.core.memory``); toggled via
    ``MemoryOptions.concretize_offsets``.
  * monolithic dispatching -> split-cases: the monitors' verifiers fix
    the call-number register ``a7`` to each handler's concrete value
    when they build the initial state (``make_impl``); toggled via
    ``SymOptConfig.split_cases``.
  * symbolic system registers -> representation-invariant rewriting:
    no monitor applies it.

``split_cases``, ``split_cases_value``, ``concretize`` and
``rewrite_with_invariant`` below are library forms of these rewrites.
``tests/test_core_symopt.py`` tests each; no monitor calls them.

``SymOptConfig`` bundles the toggles so the monitors' verification
harnesses (and the E5 ablation bench) can switch them together.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..sym import SymBV, SymBool, bug_on, bv_val, ite, merge

__all__ = ["SymOptConfig", "split_cases", "split_cases_value", "rewrite_with_invariant", "concretize"]


@dataclass
class SymOptConfig:
    """Which symbolic optimizations are enabled (all on by default)."""

    split_pc: bool = True
    split_cases: bool = True
    concretize_offsets: bool = True

    @classmethod
    def none(cls) -> "SymOptConfig":
        return cls(False, False, False)


def split_cases_value(x: SymBV, values: list[int]) -> SymBV:
    """Rewrite ``x`` into ``ite(x==C0, C0, ite(x==C1, C1, ... x))``.

    The rewrite is an identity (the last branch keeps ``x``), so it is
    sound for any value; its effect is to expose concrete values to
    downstream partial evaluation.  Applied to a trap-cause register,
    it decomposes a monolithic dispatch constraint into one manageable
    constraint per handler (§4, "Monolithic dispatching").
    """
    out = x
    for c in reversed(values):
        out = ite(x == c, bv_val(c, x.width), out)
    return out


def split_cases(x: SymBV, values: list[int], fn, default=None):
    """Evaluate ``fn`` once per concrete case of ``x`` and merge.

    ``fn(case_value)`` is called with a concrete SymBV for each listed
    value, and with the original symbolic ``x`` for the residual case
    (or ``default(x)`` when given).  Results merge into a single
    guarded value; states should be copied inside ``fn``.
    """
    obs.count("sym.splits", len(values))
    residual = default(x) if default is not None else fn(x)
    out = residual
    for c in reversed(values):
        out = merge(x == c, fn(bv_val(c, x.width)), out)
    return out


def concretize(x: SymBV, candidates: list[int], message: str = "value outside candidate set") -> SymBV:
    """Force ``x`` into a candidate set, emitting a completeness VC.

    Unlike ``split_cases_value`` this has no residual branch: a VC
    requires ``x`` to equal one of the candidates.  Used when domain
    knowledge says the set is exhaustive (e.g. system-call numbers
    after range validation)."""
    covered = None
    for c in candidates:
        g = x == c
        covered = g if covered is None else (covered | g)
    bug_on(~covered, message)
    out = bv_val(candidates[-1], x.width)
    for c in candidates[:-1]:
        out = ite(x == c, bv_val(c, x.width), out)
    return out


def rewrite_with_invariant(reg: SymBV, invariant_value: int, ri_holds: SymBool | None = None) -> SymBV:
    """Rewrite a symbolic system register to its invariant value (§4).

    Many system registers are written once during boot and never
    change (e.g. the trap-vector base).  The representation invariant
    pins them; under RI the rewrite is sound.  When ``ri_holds`` is
    provided the result is guarded so that the rewrite degrades
    gracefully outside RI; refinement proofs assume RI anyway.
    """
    concrete = bv_val(invariant_value, reg.width)
    if ri_holds is None:
        return concrete
    return ite(ri_holds, concrete, reg)
