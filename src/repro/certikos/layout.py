"""CertiKOS^s configuration and physical memory layout (§6.2).

Scaled-down parameters (documented in DESIGN.md): XLEN=32, four
processes, two children per process.  The PID space is statically
partitioned as in the paper: process ``pid`` owns child PIDs in
``[N*pid + 1, N*pid + N]``.

The monitor's saved-register set is {ra, sp, a0, a1, a2, s0, s1}; all
other user registers are zeroed on trap return (a hardening choice
that also keeps the specification small — the real system saves the
full file; the ABI here declares the rest clobbered-to-zero).
"""

from __future__ import annotations

XLEN = 32
WORD = XLEN // 8
NPROC = 4
NCHILD = 2

# Monitor call numbers (passed in a7).
CALL_GET_QUOTA = 0
CALL_SPAWN = 1
CALL_YIELD = 2

# Process states.
PROC_FREE = 0
PROC_RUN = 1

# Saved user-register set: (spec index, riscv register number).
SAVED_REGS = [("ra", 1), ("sp", 2), ("a0", 10), ("a1", 11), ("a2", 12), ("s0", 8), ("s1", 9)]
NSAVED = len(SAVED_REGS)
A0 = [name for name, _ in SAVED_REGS].index("a0")  # a0's slot in a bank
PCB_STRIDE = 32  # 7 words + pad, power of two for cheap addressing

# Physical layout.
TEXT_BASE = 0x0000_1000
CURRENT_ADDR = 0x0001_0000
PROCS_ADDR = 0x0001_1000  # array of {state, quota}, stride 8
PCB_ADDR = 0x0001_2000  # array of {7 regs + pad}, stride 32
STACK_ADDR = 0x0001_3000
STACK_SIZE = 256
STACK_TOP = STACK_ADDR + STACK_SIZE

DATA_SYMBOLS = [
    ("current", CURRENT_ADDR, WORD, ("cell", WORD)),
    (
        "procs",
        PROCS_ADDR,
        NPROC * 8,
        ("array", NPROC, ("struct", [("state", ("cell", WORD)), ("quota", ("cell", WORD))])),
    ),
    (
        "pcb",
        PCB_ADDR,
        NPROC * PCB_STRIDE,
        (
            "array",
            NPROC,
            ("struct", [("regs", ("array", NSAVED, ("cell", WORD))), ("pad", ("cell", WORD))]),
        ),
    ),
    ("stack", STACK_ADDR, STACK_SIZE, ("array", STACK_SIZE // WORD, ("cell", WORD))),
]


def children_of(pid: int) -> list[int]:
    """Statically-owned child PIDs of ``pid`` that exist."""
    return [c for c in range(NCHILD * pid + 1, NCHILD * pid + NCHILD + 1) if c < NPROC]
