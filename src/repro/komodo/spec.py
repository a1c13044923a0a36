"""Komodo^s abstract specification (§6.3).

State: a current context (host or enclave), per-enclave lifecycle
states, and a page database mapping each secure page to (type, owner,
content).  The OS constructs enclaves page by page (InitAddrspace /
InitThread / InitL2PTable / InitL3PTable / MapSecure / MapInsecure),
finalizes them, and enters/stops/removes them; an enclave exits back
to the OS.

The two §6.3 interface changes are visible here: InitL3PTable exists
(RISC-V three-level paging), and MapSecure takes a page-table page
index plus entry index rather than a virtual address.
"""

from __future__ import annotations

from ..core import select, set_bank, spec_struct, update
from ..sym import SymBV, SymBool, bv_val, ite
from .layout import (
    A0,
    CALL_NAMES,
    ENC_FINAL,
    ENC_INIT,
    ENC_INVALID,
    ENC_STOPPED,
    HOST,
    NENC,
    NPAGES,
    NSAVED,
    PG_ADDRSPACE,
    PG_DATA,
    PG_FREE,
    PG_L2PT,
    PG_L3PT,
    PG_THREAD,
    XLEN,
)

__all__ = ["KomodoState", "state_invariant", "SPEC_CALLS"]

KomodoState = spec_struct(
    "komodo",
    cur=XLEN,
    enc_state=(XLEN, NENC),
    pg_type=(XLEN, NPAGES),
    pg_owner=(XLEN, NPAGES),
    pg_content=(XLEN, NPAGES),
    regs=(XLEN, (NENC + 1) * NSAVED),
)


def state_invariant(s) -> SymBool:
    inv = s.cur <= HOST
    for i in range(NENC):
        inv = inv & (s.enc_state[i] <= ENC_STOPPED)
    for p in range(NPAGES):
        inv = inv & (s.pg_type[p] <= PG_DATA) & (s.pg_owner[p] < NENC)
        # Free pages carry no content (zeroed on Remove).
        inv = inv & ((s.pg_type[p] != PG_FREE) | (s.pg_content[p] == 0))
        # Owned pages belong to live enclaves: Remove frees an
        # enclave's pages before invalidating it.
        owner_state = select(s.enc_state, s.pg_owner[p])
        inv = inv & ((s.pg_type[p] == PG_FREE) | (owner_state != ENC_INVALID))
    return inv


def _ret(s_out, s_in, value):
    s_out.regs = set_bank(s_out.regs, s_in.cur, A0, value, NSAVED)
    return s_out


def _alloc_page(s, eid: SymBV, page: SymBV, pg_type: int, required_enc_state: int, payload=None):
    """Common shape of the Init*/MapSecure calls: host allocates a free
    page of a given type to an enclave in a given lifecycle state."""
    out = s.copy()
    ok = (
        (s.cur == HOST)
        & (eid < NENC)
        & (page < NPAGES)
        & (select(s.enc_state, eid) == required_enc_state)
        & (select(s.pg_type, page) == PG_FREE)
    )
    out.pg_type = update(s.pg_type, page, bv_val(pg_type, XLEN), ok)
    out.pg_owner = update(s.pg_owner, page, eid, ok)
    if payload is not None:
        out.pg_content = update(s.pg_content, page, payload, ok)
    return _ret(out, s, ite(ok, bv_val(0, XLEN), bv_val(-1, XLEN))), ok


def spec_init_addrspace(s, eid, page, _arg2):
    """Create an enclave: its address-space root page."""
    out = s.copy()
    ok = (
        (s.cur == HOST)
        & (eid < NENC)
        & (page < NPAGES)
        & (select(s.enc_state, eid) == ENC_INVALID)
        & (select(s.pg_type, page) == PG_FREE)
    )
    out.pg_type = update(s.pg_type, page, bv_val(PG_ADDRSPACE, XLEN), ok)
    out.pg_owner = update(s.pg_owner, page, eid, ok)
    out.enc_state = update(s.enc_state, eid, bv_val(ENC_INIT, XLEN), ok)
    return _ret(out, s, ite(ok, bv_val(0, XLEN), bv_val(-1, XLEN)))


def spec_init_thread(s, eid, page, _arg2):
    return _alloc_page(s, eid, page, PG_THREAD, ENC_INIT)[0]


def spec_init_l2ptable(s, eid, page, _arg2):
    return _alloc_page(s, eid, page, PG_L2PT, ENC_INIT)[0]


def spec_init_l3ptable(s, eid, page, _arg2):
    """The call added for RISC-V's three-level paging (§6.3)."""
    return _alloc_page(s, eid, page, PG_L3PT, ENC_INIT)[0]


def spec_map_secure(s, eid, page, payload):
    """Map a data page; takes the page index + payload (word-sized
    stand-in for the page's measured contents)."""
    return _alloc_page(s, eid, page, PG_DATA, ENC_INIT, payload=payload)[0]


def spec_map_insecure(s, eid, _page, _arg2):
    """Insecure mappings share OS memory: no page-db ownership change;
    succeeds for an INIT enclave."""
    out = s.copy()
    ok = (s.cur == HOST) & (eid < NENC) & (select(s.enc_state, eid) == ENC_INIT)
    return _ret(out, s, ite(ok, bv_val(0, XLEN), bv_val(-1, XLEN)))


def spec_finalize(s, eid, _page, _arg2):
    out = s.copy()
    ok = (s.cur == HOST) & (eid < NENC) & (select(s.enc_state, eid) == ENC_INIT)
    out.enc_state = update(s.enc_state, eid, bv_val(ENC_FINAL, XLEN), ok)
    return _ret(out, s, ite(ok, bv_val(0, XLEN), bv_val(-1, XLEN)))


def _enter_like(s, eid):
    out = s.copy()
    ok = (s.cur == HOST) & (eid < NENC) & (select(s.enc_state, eid) == ENC_FINAL)
    out.cur = ite(ok, eid, s.cur)
    # Failure is reported to the host; on success the enclave resumes
    # from its own register bank.
    out.regs = set_bank(out.regs, s.cur, A0, bv_val(-1, XLEN), NSAVED, guard=~ok)
    return out


def spec_enter(s, eid, _page, _arg2):
    return _enter_like(s, eid)


def spec_resume(s, eid, _page, _arg2):
    return _enter_like(s, eid)


def spec_stop(s, eid, _page, _arg2):
    out = s.copy()
    ok = (
        (s.cur == HOST)
        & (eid < NENC)
        & (
            (select(s.enc_state, eid) == ENC_INIT)
            | (select(s.enc_state, eid) == ENC_FINAL)
        )
    )
    out.enc_state = update(s.enc_state, eid, bv_val(ENC_STOPPED, XLEN), ok)
    return _ret(out, s, ite(ok, bv_val(0, XLEN), bv_val(-1, XLEN)))


def spec_remove(s, eid, _page, _arg2):
    """Free a stopped enclave's pages, erasing their contents (the
    §6.3 litmus test: a finalized-then-removed enclave's memory is not
    observable afterwards)."""
    out = s.copy()
    ok = (s.cur == HOST) & (eid < NENC) & (select(s.enc_state, eid) == ENC_STOPPED)
    zero = bv_val(0, XLEN)
    new_type, new_owner, new_content = [], [], []
    for p in range(NPAGES):
        mine = ok & (s.pg_owner[p] == eid) & (s.pg_type[p] != PG_FREE)
        new_type.append(ite(mine, zero, s.pg_type[p]))
        new_owner.append(ite(mine, zero, s.pg_owner[p]))
        new_content.append(ite(mine, zero, s.pg_content[p]))
    out.pg_type, out.pg_owner, out.pg_content = new_type, new_owner, new_content
    out.enc_state = update(s.enc_state, eid, bv_val(ENC_INVALID, XLEN), ok)
    return _ret(out, s, ite(ok, bv_val(0, XLEN), bv_val(-1, XLEN)))


def spec_exit(s, _eid, _page, _arg2):
    """The running enclave returns to the host; its a0 is the exit
    value — an intentional declassification Komodo permits (§6.3)."""
    out = s.copy()
    running = s.cur < NENC
    exit_value = select(s.regs[A0::NSAVED], s.cur)
    out.cur = ite(running, bv_val(HOST, XLEN), s.cur)
    out.regs = set_bank(out.regs, bv_val(HOST, XLEN), A0, exit_value, NSAVED, guard=running)
    return out


def spec_invalid(s, _eid, _page, _arg2):
    out = s.copy()
    return _ret(out, s, bv_val(-1, XLEN))


_SPECS = {
    "init_addrspace": spec_init_addrspace,
    "init_thread": spec_init_thread,
    "init_l2ptable": spec_init_l2ptable,
    "init_l3ptable": spec_init_l3ptable,
    "map_secure": spec_map_secure,
    "map_insecure": spec_map_insecure,
    "finalize": spec_finalize,
    "enter": spec_enter,
    "resume": spec_resume,
    "stop": spec_stop,
    "remove": spec_remove,
    "exit": spec_exit,
}
# Each call's number is the one the binary dispatches on: its position
# in layout.CALL_NAMES.
SPEC_CALLS = {name: (number, _SPECS[name]) for number, name in enumerate(CALL_NAMES)}
SPEC_CALLS["invalid"] = (None, spec_invalid)
