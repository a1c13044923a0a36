"""CertiKOS^s noninterference (§6.2).

Two specifications, both over the functional spec:

1. **CertiKOS's three small-step properties**, which together imply
   step consistency for big-step actions (we reuse and prove them):

   * a small-step action by p from indistinguishable states yields
     indistinguishable states;
   * a small-step action by another process leaves p's view unchanged;
   * being yielded to from indistinguishable states yields
     indistinguishable states.

2. **Nickel-style intransitive noninterference**, "which enabled us
   to catch the PID covert channel in spawn": the original implicit-
   PID spawn targets a child determined by the parent's *private*
   ``nr_children`` counter, so no state-independent policy covers its
   effects; the explicit-PID spawn's effects are covered by the
   static ownership policy.
"""

from __future__ import annotations

from ..core import Action, NIPolicy, prove_local_respect, prove_nickel_ni, prove_step_consistency
from ..sym import ProofResult, SymBool, fresh_bv, new_context, sym_eq, sym_true, verify_vcs
from .layout import NPROC, NSAVED, XLEN, children_of
from .spec import (
    CertiState,
    spec_get_quota,
    spec_spawn,
    spec_spawn_implicit,
    spec_yield,
    state_invariant,
)

__all__ = [
    "observer_equiv",
    "prove_small_step_properties",
    "nickel_policy",
    "prove_nickel",
    "prove_spawn_targets_owned_child",
]


def observer_equiv(u: int, s1, s2) -> SymBool:
    """s1 ~u s2: process u's quota, state flag, registers, children
    counter, and the existence of its statically-owned children.

    Owned children's existence is u's information (only u can spawn
    them), which is what makes the explicit-PID spawn's success
    condition a function of the caller's view.
    """
    bank = slice(u * NSAVED, (u + 1) * NSAVED)
    eq = (
        (s1.quota[u] == s2.quota[u])
        & (s1.state[u] == s2.state[u])
        & (s1.nr_children[u] == s2.nr_children[u])
        & sym_eq(s1.regs[bank], s2.regs[bank])
    )
    for c in children_of(u):
        eq = eq & (s1.state[c] == s2.state[c])
    return eq


def _call_args(prefix: str) -> tuple:
    return fresh_bv(f"{prefix}.a0", XLEN), fresh_bv(f"{prefix}.a1", XLEN)


# The three calls as spec actions on (a0, a1).  Each looks its spec up
# when it runs, so a test can swap one in.
ACTIONS = [
    Action("get_quota", lambda s, a0, a1: spec_get_quota(s), _call_args),
    Action("spawn", lambda s, a0, a1: spec_spawn(s, a0, a1), _call_args),
    Action("yield", lambda s, a0, a1: spec_yield(s), _call_args),
]


def _assume(u: int, s1, s2, args) -> SymBool:
    return state_invariant(s1) & state_invariant(s2)


def _not_running(u: int, s, args) -> SymBool:
    return s.current != u


def _not_spawned(u: int, s, args) -> SymBool:
    """p``u`` does not run and is not the owned child the spawn names
    in a0: the one flow into another process's view the policy allows."""
    out = _not_running(u, s, args)
    for parent in range(NPROC):
        if u in children_of(parent):
            out = out & ((s.current != parent) | (args[0] != u))
    return out


def prove_small_step_properties(max_conflicts: int | None = None) -> dict[str, ProofResult]:
    """The three CertiKOS properties, finitized per action/observer."""
    results: dict[str, ProofResult] = {}
    for action in ACTIONS:
        # (1) same-process step consistency: if the actor's view (and
        # its action arguments) agree, the actor's view agrees after.
        results[f"{action.name}.actor"] = prove_step_consistency(
            f"css.{action.name}",
            action,
            CertiState,
            observer_equiv,
            range(NPROC),
            assumptions=lambda u, s1, s2, args: (
                _assume(u, s1, s2, args) & (s1.current == u) & (s2.current == u)
            ),
            max_conflicts=max_conflicts,
        )
        # (2) another process's action leaves my view unchanged —
        # except for flows the policy allows (spawn into my slot).
        results[f"{action.name}.frame"] = prove_local_respect(
            f"css2.{action.name}",
            action,
            CertiState,
            observer_equiv,
            range(NPROC),
            _not_spawned if action.name == "spawn" else _not_running,
            assumptions=state_invariant,
            max_conflicts=max_conflicts,
        )
    # (3) yield-to consistency: yielding preserves every observer's view
    # (register banks travel with their processes).
    results["yield.to"] = prove_step_consistency(
        "css3",
        Action("yield", spec_yield),
        CertiState,
        observer_equiv,
        range(NPROC),
        assumptions=_assume,
        max_conflicts=max_conflicts,
    )
    return results


SCHED = "scheduler"


def nickel_equiv(u, s1, s2) -> SymBool:
    """Per-domain view for the Nickel instantiation.

    Process observers see their own slot *plus* whether it is their
    turn; the scheduler domain sees the schedule-relevant state (all
    runnable flags and the current PID).  Making "am I current" part
    of the view is what forces yield to be a scheduler-domain action.
    """
    if u is SCHED:
        eq = s1.current == s2.current
        for i in range(NPROC):
            eq = eq & (s1.state[i] == s2.state[i])
        return eq
    if isinstance(u, int):
        bit = (s1.current == u) == (s2.current == u)
        return observer_equiv(u, s1, s2) & bit
    # Symbolic observer (the acting domain in weak step consistency):
    # finitize over the PID space.
    out = sym_true()
    for p in range(NPROC):
        out = out & ((u != p) | nickel_equiv(p, s1, s2))
    return out


def nickel_policy() -> NIPolicy:
    """Intransitive policy: a process may flow to itself and to its
    statically-owned children (spawn); the scheduler (which performs
    yield) may flow to everyone — the standard Nickel treatment of
    scheduling."""

    def flows_to(d1, d2, s) -> SymBool:
        # sym_eq of two ints is sym_true() or sym_false().
        if d1 is SCHED:
            return sym_true()
        allowed = sym_eq(d1, d2)
        for parent in range(NPROC):
            if d2 in children_of(parent):
                allowed = allowed | sym_eq(d1, parent)
        return allowed

    def dom(action_name, s, args):
        return SCHED if action_name == "yield" else s.current

    return NIPolicy(
        domains=list(range(NPROC)),
        flows_to=flows_to,
        dom=dom,
        equiv=nickel_equiv,
        state_invariant=state_invariant,
    )


def prove_nickel(max_conflicts: int | None = None) -> dict[str, ProofResult]:
    """Nickel unwinding over the explicit-PID spec."""
    return prove_nickel_ni(nickel_policy(), ACTIONS, CertiState, max_conflicts=max_conflicts)


def prove_spawn_targets_owned_child(implicit: bool) -> ProofResult:
    """Flow determinism for spawn: which slot a spawn can touch must be
    derivable from the call's *arguments* and the static ownership map.

    For the explicit-PID spawn, the touched child is the ``child``
    argument (when owned) — provable.  For the original implicit spawn
    the touched child is ``N*pid + nr_children + 1``, a function of the
    parent's private counter: the property fails, and the
    counterexample exhibits the PID covert channel (§6.2).
    """
    with new_context() as ctx:
        s = CertiState.fresh("fd.s")
        quota_arg = fresh_bv("fd.quota", XLEN)
        if implicit:
            t = spec_spawn_implicit(s, quota_arg)
            named = None
        else:
            child_arg = fresh_bv("fd.child", XLEN)
            t = spec_spawn(s, child_arg, quota_arg)
            named = child_arg
        inv = state_invariant(s)
        for c in range(1, NPROC):
            bank = slice(c * NSAVED, (c + 1) * NSAVED)
            untouched = (
                (t.state[c] == s.state[c])
                & (t.quota[c] == s.quota[c])
                & sym_eq(t.regs[bank], s.regs[bank])
            )
            if named is not None:
                # Only the named child (and the paying parent) change.
                ctx.assert_prop(
                    (inv & (named != c) & (s.current != c)).implies(untouched),
                    f"spawn touches only the named child (c{c})",
                )
            else:
                # The implicit spawn claims to touch the caller's
                # "next" child; the natural public approximation is the
                # first owned slot — which is wrong once nr_children>0.
                first_owned = {p: children_of(p)[0] for p in range(NPROC) if children_of(p)}
                cond = inv & (s.current != c)
                for p, first in first_owned.items():
                    if first == c:
                        cond = cond & (s.current != p)
                ctx.assert_prop(
                    cond.implies(untouched),
                    f"spawn touches only the statically-first child (c{c})",
                )
        return verify_vcs(ctx)
