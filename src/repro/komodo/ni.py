"""Komodo^s noninterference: Nickel-style unwinding + litmus tests (§6.3).

Komodo's own spec uses big-step actions, which Serval cannot express
(§3.5); like the paper we prove Nickel's specification instead, and
use litmus tests to compare guarantees informally:

  * both specifications preclude the OS from learning the contents of
    a finalized-then-removed enclave's memory
    (:func:`prove_removed_enclave_unobservable`);
  * an enclave's exit value *is* observable to the OS — intentional
    declassification (:func:`exit_declassifies`).
"""

from __future__ import annotations

import functools

from ..core import Action, prove_step_consistency
from ..sym import ProofResult, SymBool, bv_val, fresh_bv, new_context, sym_eq, sym_true, verify_vcs
from .layout import A0, HOST, NENC, NPAGES, NSAVED, XLEN
from .spec import KomodoState, SPEC_CALLS, spec_exit, spec_remove, spec_stop, state_invariant

__all__ = [
    "enclave_equiv",
    "prove_host_cannot_read_enclave",
    "prove_removed_enclave_unobservable",
    "exit_declassifies",
]


def enclave_equiv(u: int, s1, s2) -> SymBool:
    """s1 ~u s2 for enclave u: its lifecycle state, registers, and the
    pages it owns (type + contents)."""
    bank = slice(u * NSAVED, (u + 1) * NSAVED)
    eq = (s1.enc_state[u] == s2.enc_state[u]) & sym_eq(s1.regs[bank], s2.regs[bank])
    for p in range(NPAGES):
        mine1 = (s1.pg_owner[p] == u) & (s1.pg_type[p] != 0)
        mine2 = (s2.pg_owner[p] == u) & (s2.pg_type[p] != 0)
        eq = eq & (mine1 == mine2)
        eq = eq & (~mine1 | (s1.pg_content[p] == s2.pg_content[p]))
    return eq


def host_equiv(s1, s2) -> SymBool:
    """The host sees enclave lifecycle states, the page-database
    *metadata* (it manages page allocation), and its own registers —
    but never secure-page *contents*."""
    eq = s1.cur == s2.cur
    for i in range(NENC):
        eq = eq & (s1.enc_state[i] == s2.enc_state[i])
    for p in range(NPAGES):
        eq = eq & (s1.pg_type[p] == s2.pg_type[p]) & (s1.pg_owner[p] == s2.pg_owner[p])
    bank = slice(HOST * NSAVED, (HOST + 1) * NSAVED)
    return eq & sym_eq(s1.regs[bank], s2.regs[bank])


def prove_host_cannot_read_enclave(max_conflicts: int | None = None) -> ProofResult:
    """Weak step consistency for the host across management calls:
    the host's view after any host call is a function of the host's
    view (secure-page contents never flow to it).  The calls step one
    pair of states with one (eid, page), so the solver blasts what
    their VCs share once."""
    # Every call asks with the same prefix, so all six get one pair.
    eid_page = functools.cache(
        lambda p: (fresh_bv(f"{p}.eid", XLEN), fresh_bv(f"{p}.page", XLEN))
    )

    def call(name: str) -> Action:
        _, fn = SPEC_CALLS[name]
        return Action(name, lambda s, eid, page: fn(s, eid, page, bv_val(0, XLEN)), eid_page)

    names = ("init_addrspace", "init_thread", "finalize", "stop", "remove", "enter")
    return prove_step_consistency(
        "kni",
        [call(name) for name in names],
        KomodoState,
        lambda u, s1, s2: host_equiv(s1, s2),
        [HOST],
        assumptions=lambda u, s1, s2, args: state_invariant(s1) & state_invariant(s2),
        max_conflicts=max_conflicts,
    )


def prove_removed_enclave_unobservable() -> ProofResult:
    """The §6.3 litmus test both NI specs agree on: after Stop +
    Remove, nothing about the enclave's measured contents remains in
    the state (its pages are freed and zeroed)."""
    with new_context() as ctx:
        s = KomodoState.fresh("krm.s")
        eid = fresh_bv("krm.eid", XLEN)
        zero = bv_val(0, XLEN)
        stopped = spec_stop(s, eid, zero, zero)
        removed = spec_remove(stopped, eid, zero, zero)
        inv = state_invariant(s) & (eid < NENC)
        # Formulate via the post-state: once the enclave is INVALID
        # after remove, no page may still carry its data.
        eid_invalid = sym_true()
        for i in range(NENC):
            eid_invalid = eid_invalid & ((eid != i) | (removed.enc_state[i] == 0))
        for p in range(NPAGES):
            still_mine = (removed.pg_owner[p] == eid) & (removed.pg_type[p] != 0)
            ctx.assert_prop(
                (inv & eid_invalid).implies(~still_mine | (removed.pg_content[p] == s.pg_content[p])),
                "no stale ownership after remove",
            )
            was_mine = (s.pg_owner[p] == eid) & (s.pg_type[p] != 0)
            ctx.assert_prop(
                (inv & eid_invalid).implies(~was_mine | (removed.pg_content[p] == 0)),
                f"removed enclave's page {p} contents erased",
            )
        return verify_vcs(ctx)


def exit_declassifies() -> bool:
    """Sanity check (not a theorem): Exit *does* reveal the enclave's
    a0 to the host — Komodo's intentional declassification.  We show
    the host's view can change with the enclave's secret, i.e. the
    naive non-declassifying property is falsifiable."""
    from ..sym import solve

    s = KomodoState.fresh("kdx.s")
    t = spec_exit(s, None, None, None)
    # Find two runs... equivalently: host's a0 after exit depends on
    # the enclave's a0: exhibit a state where they are equal.
    model = solve(
        state_invariant(s),
        s.cur == 0,
        t.regs[HOST * NSAVED + A0] == s.regs[A0],
        s.regs[A0] == 0x1234,
    )
    return model is not None
