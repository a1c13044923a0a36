"""CertiKOS^s abstraction function and representation invariant (§3.3).

``abstract`` maps an implementation machine state (registers + the
monitor's data structures in physical memory) to a specification
state; ``rep_invariant`` pins down the well-formedness facts the
refinement proof may assume — and must re-establish.
"""

from __future__ import annotations

from ..core import select
from ..riscv import CpuState
from ..sym import SymBV, SymBool, bv_val
from .impl import MONITOR
from .layout import NPROC, PROC_FREE, PROC_RUN, WORD, XLEN
from .spec import CertiState

__all__ = ["abstract", "rep_invariant", "read_current", "read_proc_field"]


def read_current(cpu: CpuState) -> SymBV:
    return cpu.mem.region("current").block.load(bv_val(0, XLEN), WORD, cpu.mem.opts)


def read_proc_field(cpu: CpuState, pid: int, field: str) -> SymBV:
    offset = pid * 8 + (0 if field == "state" else WORD)
    return cpu.mem.region("procs").block.load(bv_val(offset, XLEN), WORD, cpu.mem.opts)


def abstract(cpu: CpuState) -> CertiState:
    """AF: the current process's registers live in the CPU; everyone
    else's live in their PCB (§6.2 execution model)."""
    current = read_current(cpu)
    out = CertiState.__new__(CertiState)
    out.current = current
    out.state = [read_proc_field(cpu, p, "state") for p in range(NPROC)]
    out.quota = [read_proc_field(cpu, p, "quota") for p in range(NPROC)]
    # nr_children exists only for the legacy implicit-spawn spec; the
    # explicit-PID system neither stores nor depends on it.
    out.nr_children = [bv_val(0, XLEN) for _ in range(NPROC)]
    out.regs = MONITOR.register_banks(cpu, current)
    return out


def rep_invariant(cpu: CpuState) -> SymBool:
    """RI over the implementation state."""
    current = read_current(cpu)
    inv = current < NPROC
    # The running process is marked RUN, and the root process exists.
    states = [read_proc_field(cpu, p, "state") for p in range(NPROC)]
    inv = inv & (select(states, current) == PROC_RUN)
    inv = inv & (states[0] == PROC_RUN)
    for st in states:
        inv = inv & ((st == PROC_FREE) | (st == PROC_RUN))
    return inv
