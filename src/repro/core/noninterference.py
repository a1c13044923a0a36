"""Noninterference specifications (§3.3, §6.2, §6.3).

Noninterference is stated over *specification* states, as unwinding
conditions that each cost one solver query per action:

  * **Step consistency** (Goguen-Meseguer / Rushby,
    :func:`prove_step_consistency`): an observer's view of the state
    determines its view after an action.
  * **Local respect** (:func:`prove_local_respect`): an action that
    may not affect an observer leaves its view unchanged.
  * **Nickel-style intransitive noninterference** (Sigurbjarnarson et
    al., OSDI'18, :func:`prove_nickel_ni`): a policy ``flows_to`` over
    domains, proved by weak step consistency and local respect for
    every action.  This is the specification that caught the PID
    covert channel in CertiKOS's ``spawn`` (§6.2).

The monitors state their properties with these three:
``repro.certikos.ni`` its three small-step properties (§6.2) and the
Nickel unwinding, ``repro.komodo.ni`` the host's view of the
management calls (§6.3).

Actions are finitized: callers enumerate concrete operations, each
carrying symbolic arguments, so every proof stays one solver query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..sym import ProofResult, SymBool, new_context, sym_true, verify_vcs
from .spec import SpecStruct

__all__ = ["Action", "prove_step_consistency", "prove_local_respect", "NIPolicy", "prove_nickel_ni"]


def _no_args(prefix: str) -> tuple:
    """Default argument factory for actions that take no arguments."""
    return ()


@dataclass
class Action:
    """A finitized specification action.

    ``apply(state, *args) -> state`` is the functional spec of one
    operation, and ``make_args(prefix)`` builds its symbolic arguments.
    """

    name: str
    apply: Callable[..., Any]
    make_args: Callable[[str], tuple] = _no_args


def prove_step_consistency(
    name: str,
    action: Action | list[Action],
    state_type: type[SpecStruct],
    equiv: Callable[[Any, Any, Any], SymBool],
    observer_values: list,
    assumptions: Callable[[Any, Any, Any, tuple], SymBool] | None = None,
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
) -> ProofResult:
    """Step consistency for an action, for every observer ``u``:
    ``A(u, s1, s2, args) /\\ s1 ~u s2  =>  step(s1, a) ~u step(s2, a)``
    (§3.3), where ``A`` is ``assumptions`` (true when None) and both
    steps take the same ``args``.  A list of actions is proved over one
    pair of states, so the solver blasts what their VCs share once.
    """
    actions = action if isinstance(action, list) else [action]
    with new_context() as ctx:
        s1 = state_type.fresh(f"{name}.s1")
        s2 = state_type.fresh(f"{name}.s2")
        for a in actions:
            args = a.make_args(name)
            t1 = a.apply(s1, *args)
            t2 = a.apply(s2, *args)
            for u in observer_values:
                assume = sym_true() if assumptions is None else assumptions(u, s1, s2, args)
                pre = assume & equiv(u, s1, s2)
                ctx.assert_prop(
                    pre.implies(equiv(u, t1, t2)),
                    f"{name}: step consistency of {a.name} for observer {u}",
                )
        return verify_vcs(ctx, max_conflicts=max_conflicts, timeout_s=timeout_s)


def prove_local_respect(
    name: str,
    action: Action,
    state_type: type[SpecStruct],
    equiv: Callable[[Any, Any, Any], SymBool],
    observer_values: list,
    unaffected: Callable[[Any, Any, tuple], SymBool],
    assumptions: Callable[[Any], SymBool] | None = None,
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
) -> ProofResult:
    """Local respect: actions invisible to ``u`` leave ``u``'s view
    unchanged: ``A(s) /\\ unaffected(u, s, args) => s ~u step(s, a)``."""
    with new_context() as ctx:
        s = state_type.fresh(f"{name}.s")
        args = action.make_args(name)
        t = action.apply(s, *args)
        assume = sym_true()
        if assumptions is not None:
            assume = assume & assumptions(s)
        for u in observer_values:
            cond = assume & unaffected(u, s, args)
            ctx.assert_prop(cond.implies(equiv(u, s, t)), f"{name}: local respect for observer {u}")
        return verify_vcs(ctx, max_conflicts=max_conflicts, timeout_s=timeout_s)


@dataclass
class NIPolicy:
    """A Nickel-style information-flow policy over finite domains.

    ``domains`` are concrete labels; ``flows_to(d1, d2, s)`` says
    whether information may flow from ``d1`` to ``d2`` in state ``s``
    (intransitive: reachability is *not* implied).  ``dom(action_name,
    s, args)`` maps an action in a state to its acting domain;
    ``equiv(u, s1, s2)`` is per-domain observational equivalence.
    """

    domains: list
    flows_to: Callable[[Any, Any, Any], SymBool]
    dom: Callable[[str, Any, tuple], Any]
    equiv: Callable[[Any, Any, Any], SymBool]
    state_invariant: Callable[[Any], SymBool] | None = None


def prove_nickel_ni(
    policy: NIPolicy,
    actions: list[Action],
    state_type: type[SpecStruct],
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
) -> dict[str, ProofResult]:
    """Prove Nickel's unwinding conditions for every action/observer.

    For each action ``a`` and observer domain ``u``:

      weak step consistency:
        s1 ~u s2 /\\ s1 ~dom(a,s1) s2  =>  step(s1,a) ~u step(s2,a)
      local respect:
        not flows_to(dom(a,s), u, s)  =>  s ~u step(s,a)

    Together (with domain consistency, which holds by construction
    for state-independent ``dom``) these imply intransitive NI, the
    specification that exposed the PID covert channel (§6.2).
    """
    inv = policy.state_invariant or (lambda s: sym_true())
    results: dict[str, ProofResult] = {}
    for action in actions:
        # Both lambdas run inside the call they are passed to.
        results[f"{action.name}.wsc"] = prove_step_consistency(
            f"ni.{action.name}",
            action,
            state_type,
            policy.equiv,
            policy.domains,
            assumptions=lambda u, s1, s2, args: (
                inv(s1) & inv(s2) & policy.equiv(policy.dom(action.name, s1, args), s1, s2)
            ),
            max_conflicts=max_conflicts,
            timeout_s=timeout_s,
        )
        results[f"{action.name}.lr"] = prove_local_respect(
            f"ni.{action.name}",
            action,
            state_type,
            policy.equiv,
            policy.domains,
            unaffected=lambda u, s, args: ~policy.flows_to(policy.dom(action.name, s, args), u, s),
            assumptions=inv,
            max_conflicts=max_conflicts,
            timeout_s=timeout_s,
        )
    return results
