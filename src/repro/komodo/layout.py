"""Komodo^s configuration and layout (§6.3).

A scaled-down port of the Komodo C prototype to RISC-V: NENC enclaves
and NPAGES secure pages tracked by a page database.  Komodo^s keeps
Komodo's architecture-independent data structures but replaces
pointers with indices in struct fields, "not necessary for
verification, but [it] simplifies the task of specifying
representation invariants" — a page *index* needs only a bounds
check, not an alignment-and-range fact about a pointer.
"""

from __future__ import annotations

XLEN = 32
WORD = 4
NENC = 2
NPAGES = 6

# Monitor calls, numbered by position (the value in a7), following the
# Komodo interface with the InitL3PTable addition for three-level
# RISC-V paging (§6.3).
CALL_NAMES = [
    "init_addrspace",
    "init_thread",
    "init_l2ptable",
    "init_l3ptable",
    "map_secure",
    "map_insecure",
    "finalize",
    "enter",
    "resume",
    "stop",
    "remove",
    "exit",
]

# Page types.
PG_FREE = 0
PG_ADDRSPACE = 1
PG_THREAD = 2
PG_L2PT = 3
PG_L3PT = 4
PG_DATA = 5

# Enclave states.
ENC_INVALID = 0
ENC_INIT = 1
ENC_FINAL = 2
ENC_STOPPED = 3

# Security domains: enclaves 0..NENC-1; the OS/host is NENC.
HOST = NENC

# Saved-register set (like CertiKOS^s but narrower).
SAVED_REGS = [("ra", 1), ("sp", 2), ("a0", 10), ("a1", 11)]
NSAVED = len(SAVED_REGS)
A0 = [name for name, _ in SAVED_REGS].index("a0")  # a0's slot in a bank
PCB_STRIDE = 16  # 4 words

# Physical layout.
TEXT_BASE = 0x0000_1000
CUR_ADDR = 0x0002_0000  # current context: HOST or enclave id
ENCLAVES_ADDR = 0x0002_1000  # NENC x {state}, stride 4
PAGEDB_ADDR = 0x0002_2000  # NPAGES x {type, owner, content}, stride 12
PCB_ADDR = 0x0002_3000  # (NENC+1) x {4 regs}, stride 16
STACK_ADDR = 0x0002_4000
STACK_SIZE = 256
STACK_TOP = STACK_ADDR + STACK_SIZE

DATA_SYMBOLS = [
    ("cur", CUR_ADDR, WORD, ("cell", WORD)),
    ("enclaves", ENCLAVES_ADDR, NENC * 4, ("array", NENC, ("struct", [("state", ("cell", 4))]))),
    (
        "pagedb",
        PAGEDB_ADDR,
        NPAGES * 12,
        (
            "array",
            NPAGES,
            ("struct", [("type", ("cell", 4)), ("owner", ("cell", 4)), ("content", ("cell", 4))]),
        ),
    ),
    (
        "pcb",
        PCB_ADDR,
        (NENC + 1) * PCB_STRIDE,
        ("array", NENC + 1, ("struct", [("regs", ("array", NSAVED, ("cell", 4)))])),
    ),
    ("stack", STACK_ADDR, STACK_SIZE, ("array", STACK_SIZE // 4, ("cell", 4))),
]
