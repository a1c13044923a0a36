"""Komodo^s abstraction function and representation invariant (§6.3)."""

from __future__ import annotations

from ..core import select
from ..riscv import CpuState
from ..sym import SymBV, SymBool, bv_val
from .impl import MONITOR
from .layout import HOST, NENC, NPAGES, PG_DATA, PG_FREE, WORD, XLEN
from .spec import KomodoState

__all__ = ["abstract", "rep_invariant"]


def _load(cpu: CpuState, region: str, offset: int) -> SymBV:
    return cpu.mem.region(region).block.load(bv_val(offset, XLEN), WORD, cpu.mem.opts)


def read_cur(cpu: CpuState) -> SymBV:
    return _load(cpu, "cur", 0)


def abstract(cpu: CpuState) -> KomodoState:
    cur = read_cur(cpu)
    out = KomodoState.__new__(KomodoState)
    out.cur = cur
    out.enc_state = [_load(cpu, "enclaves", 4 * i) for i in range(NENC)]
    out.pg_type = [_load(cpu, "pagedb", 12 * p) for p in range(NPAGES)]
    out.pg_owner = [_load(cpu, "pagedb", 12 * p + 4) for p in range(NPAGES)]
    out.pg_content = [_load(cpu, "pagedb", 12 * p + 8) for p in range(NPAGES)]
    out.regs = MONITOR.register_banks(cpu, cur)
    return out


def rep_invariant(cpu: CpuState) -> SymBool:
    """RI: a well-formed context id and page database."""
    cur = read_cur(cpu)
    inv = cur <= HOST
    enc_state = [_load(cpu, "enclaves", 4 * i) for i in range(NENC)]
    for st in enc_state:
        inv = inv & (st <= 3)
    for p in range(NPAGES):
        inv = inv & (_load(cpu, "pagedb", 12 * p) <= PG_DATA)
        owner = _load(cpu, "pagedb", 12 * p + 4)
        inv = inv & (owner < NENC)
        free = _load(cpu, "pagedb", 12 * p) == PG_FREE
        inv = inv & (~free | (_load(cpu, "pagedb", 12 * p + 8) == 0))
        inv = inv & (free | (select(enc_state, owner) != 0))
    return inv
