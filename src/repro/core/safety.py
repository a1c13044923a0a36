"""Safety-property library (§3.3).

As a sanity check on functional specifications, developers prove key
safety properties *of the specifications themselves*.  The paper uses
two flavors:

  * one-safety: predicates on a single specification state (e.g.
    reference-count consistency, Hyperkernel §3.3), and
  * two-safety: predicates on two specification states (e.g.
    noninterference, Terauchi & Aiken).

Both are :func:`repro.core.spec.theorem` over one or two state types.
This module adds what a theorem does not say by itself: that a spec
transition preserves an invariant (:func:`prove_invariant_step`), and
the bounded sums that state reference-count consistency.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sym import ProofResult, SymBool, new_context, sym_true, verify_vcs
from .spec import SpecStruct

__all__ = ["count_where", "prove_invariant_step", "reference_count_consistent"]


def prove_invariant_step(
    name: str,
    invariant: Callable[[Any], SymBool],
    step: Callable[[Any], Any],
    state_type: type[SpecStruct],
    assumptions: Callable[[Any], SymBool] | None = None,
    max_conflicts: int | None = None,
) -> ProofResult:
    """Prove that a spec-level transition preserves an invariant:
    ``inv(s) /\\ A(s) => inv(step(s))``."""
    with new_context() as ctx:
        s = state_type.fresh(f"{name}.s")
        s1 = step(s)
        ctx.assert_prop(invariant(s1), f"{name}: invariant preserved")
        assume = [invariant(s)]
        if assumptions is not None:
            assume.append(assumptions(s))
        return verify_vcs(ctx, assumptions=assume, max_conflicts=max_conflicts)


def count_where(items: list, pred: Callable[[Any], SymBool], width: int):
    """Symbolic count of items satisfying ``pred`` (bounded sum)."""
    from ..sym import bv_val, ite

    total = bv_val(0, width)
    for item in items:
        total = total + ite(pred(item), bv_val(1, width), bv_val(0, width))
    return total


def reference_count_consistent(
    owners: list,
    resources: list,
    declared_count: Callable[[Any], Any],
    owner_of: Callable[[Any, Any], SymBool],
    width: int = 32,
) -> SymBool:
    """Reference-count consistency (Hyperkernel §3.3 flavor).

    For each owner ``o``, ``declared_count(o)`` equals the number of
    resources ``r`` with ``owner_of(r, o)``.  The count is a bounded
    sum over the finite resource set, staying inside the decidable
    fragment (§3.1).
    """
    from ..sym import sym_eq

    out = sym_true()
    for owner in owners:
        actual = count_where(resources, lambda r: owner_of(r, owner), width)
        out = out & sym_eq(declared_count(owner), actual)
    return out
