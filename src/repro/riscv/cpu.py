"""RISC-V machine state (M-mode, XLEN parameterized).

The monitors run entirely in machine mode (§6.1); the verifier models
the registers, the machine-mode CSRs, and physical memory.  S/U-mode
execution is not interpreted — it is covered by the specification's
PMP/page-walk model (``repro.riscv.pmp``), as in the paper.
"""

from __future__ import annotations

from ..core.memory import Memory
from ..sym import MachineState, SymBV, bv_val, fresh_bv

__all__ = ["CpuState", "MACHINE_CSRS"]

MACHINE_CSRS = [
    "mstatus",
    "mtvec",
    "mscratch",
    "mepc",
    "mcause",
    "mtval",
    "mie",
    "mip",
    "medeleg",
    "mideleg",
    "misa",
    "mhartid",
    "mcounteren",
    "mcycle",
    "minstret",
    "satp",
    "pmpcfg0",
    "pmpaddr0",
    "pmpaddr1",
    "pmpaddr2",
    "pmpaddr3",
    "pmpaddr4",
    "pmpaddr5",
    "pmpaddr6",
    "pmpaddr7",
]


class CpuState(MachineState):
    """Registers, CSRs, memory, and trap bookkeeping."""

    __slots__ = ("xlen", "pc", "regs", "csrs", "mem", "exited", "trap")

    def __init__(
        self,
        xlen: int,
        pc: SymBV,
        regs: list[SymBV],
        csrs: dict[str, SymBV],
        mem: Memory,
    ):
        self.xlen = xlen
        self.pc = pc
        self.regs = regs
        self.csrs = csrs
        self.mem = mem
        self.exited = False  # set by mret/wfi; concrete control flow
        self.trap: str | None = None  # fault indicator (ecall/ebreak in M)

    # -- construction ----------------------------------------------------------

    @classmethod
    def symbolic(cls, xlen: int, pc: int, mem: Memory, prefix: str = "cpu") -> "CpuState":
        """Architecturally-defined trap-entry state (§3.4): concrete pc
        (the trap vector), symbolic general-purpose registers and CSRs."""
        regs = [bv_val(0, xlen)] + [fresh_bv(f"{prefix}.x{i}", xlen) for i in range(1, 32)]
        csrs = {name: fresh_bv(f"{prefix}.{name}", xlen) for name in MACHINE_CSRS}
        return cls(xlen, bv_val(pc, xlen), regs, csrs, mem)

    # -- register access ----------------------------------------------------------

    def reg(self, idx: int) -> SymBV:
        return self.regs[idx]

    def set_reg(self, idx: int, value: SymBV) -> None:
        if idx != 0:  # x0 is hard-wired to zero
            self.regs[idx] = value

    def csr(self, name: str) -> SymBV:
        return self.csrs[name]

    def set_csr(self, name: str, value: SymBV) -> None:
        self.csrs[name] = value

    def __repr__(self) -> str:
        return f"CpuState(xlen={self.xlen}, pc={self.pc!r}, exited={self.exited})"
