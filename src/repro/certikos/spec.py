"""CertiKOS^s abstract specification (§6.2).

Specification state: the current PID, per-process state flags and
quotas, and each process's saved-register view.  Three monitor calls:

  * ``get_quota``            -- returns the caller's remaining quota;
  * ``spawn(child, quota)``  -- creates child with an explicit PID the
    caller owns (the paper's covert-channel fix) and a quota carved
    out of the caller's;
  * ``yield``                -- cooperative round-robin switch.

The spec also provides the *original* CertiKOS spawn (child PID
derived from a private ``nr_children`` counter) so the NI proofs can
demonstrate the PID covert channel the Nickel specification caught.
"""

from __future__ import annotations

from ..core import select, set_bank, spec_struct, update
from ..sym import SymBV, SymBool, bv_val, ite
from .layout import A0, NCHILD, NPROC, NSAVED, PROC_FREE, PROC_RUN, XLEN

__all__ = [
    "CertiState",
    "spec_get_quota",
    "spec_spawn",
    "spec_spawn_implicit",
    "spec_yield",
    "state_invariant",
]

# regs is a flat vector: proc p's register j lives at index p*NSAVED+j.
CertiState = spec_struct(
    "certikos",
    current=XLEN,
    state=(XLEN, NPROC),
    quota=(XLEN, NPROC),
    nr_children=(XLEN, NPROC),
    regs=(XLEN, NPROC * NSAVED),
)

def state_invariant(s) -> SymBool:
    """RI at the specification level: well-formed scheduler state."""
    inv = s.current < NPROC
    inv = inv & (select(s.state, s.current) == PROC_RUN)
    inv = inv & (s.state[0] == PROC_RUN)  # the root process always runs
    for i in range(NPROC):
        inv = inv & ((s.state[i] == PROC_FREE) | (s.state[i] == PROC_RUN))
    return inv


def spec_get_quota(s):
    """a0' := quota[current]; everything else preserved."""
    out = s.copy()
    out.regs = set_bank(s.regs, s.current, A0, select(s.quota, s.current), NSAVED)
    return out


def _spawn_common(s, child: SymBV, quota_arg: SymBV, ok: SymBool):
    out = s.copy()
    zero = bv_val(0, XLEN)
    out.state = update(s.state, child, bv_val(PROC_RUN, XLEN), guard=ok)
    out.quota = update(s.quota, child, quota_arg, guard=ok)
    # Parent pays the child's quota.
    cur_quota = select(s.quota, s.current)
    out.quota = update(out.quota, s.current, cur_quota - quota_arg, guard=ok)
    # The child starts with minimum state: all saved registers zero
    # (ELF loading is delegated to untrusted S-mode, §6.2).
    regs = out.regs
    for j in range(NSAVED):
        regs = set_bank(regs, child, j, zero, NSAVED, guard=ok)
    # Return value: child PID on success, -1 on failure.
    regs = set_bank(regs, s.current, A0, ite(ok, child, bv_val(-1, XLEN)), NSAVED)
    out.regs = regs
    return out


def _owned(current: SymBV, child: SymBV) -> SymBool:
    """Static PID ownership: child in [N*cur+1, N*cur+N] (and exists)."""
    base = current * NCHILD + 1
    return (child >= base) & (child < base + NCHILD) & (child < NPROC)


def spec_spawn(s, child: SymBV, quota_arg: SymBV):
    """CertiKOS^s spawn: the caller *chooses* an owned child PID.

    This closes the covert channel: success depends only on statically
    public information (PID ownership) plus the caller's own state.
    """
    ok = (
        _owned(s.current, child)
        & (select(s.state, child) == PROC_FREE)
        & (quota_arg <= select(s.quota, s.current))
    )
    return _spawn_common(s, child, quota_arg, ok)


def spec_spawn_implicit(s, quota_arg: SymBV):
    """The *original* CertiKOS spawn: child = N*pid + nr_children + 1.

    The allocated PID discloses the caller's number of children to the
    child — the covert channel that the Nickel-style NI specification
    catches (§6.2).  Kept for the bug-reproduction tests.
    """
    child = s.current * NCHILD + select(s.nr_children, s.current) + 1
    ok = (
        (select(s.nr_children, s.current) < NCHILD)
        & (child < NPROC)
        & (select(s.state, child) == PROC_FREE)
        & (quota_arg <= select(s.quota, s.current))
    )
    out = _spawn_common(s, child, quota_arg, ok)
    # The private children counter is what makes the allocated PID a
    # covert channel; the explicit-PID variant never reads or writes it.
    out.nr_children = update(
        out.nr_children, s.current, select(s.nr_children, s.current) + 1, guard=ok
    )
    return out


def spec_next_runnable(s) -> SymBV:
    """Round-robin: the first RUN process after ``current`` (cyclic)."""
    current = s.current
    next_pid = current  # fallback: self
    # Scan offsets NPROC-1 .. 1 so nearer candidates override.
    for off in range(NPROC - 1, 0, -1):
        cand = current + off
        cand = ite(cand >= NPROC, cand - NPROC, cand)
        runnable = select(s.state, cand) == PROC_RUN
        next_pid = ite(runnable, cand, next_pid)
    return next_pid


def spec_yield(s):
    """Switch to the next runnable process (registers travel with the
    per-process banks; nothing else changes)."""
    out = s.copy()
    out.current = spec_next_runnable(s)
    return out


def spec_invalid(s):
    """Unknown monitor call: a0' := -1."""
    out = s.copy()
    out.regs = set_bank(s.regs, s.current, A0, bv_val(-1, XLEN), NSAVED)
    return out
