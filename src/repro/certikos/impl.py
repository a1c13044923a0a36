"""CertiKOS^s implementation: trap entry/exit in assembly, monitor-call
handlers in mini-C (§6.2).

Execution model (Figure 6): a trap from S-mode arrives at ``entry``
with the caller's registers live.  The monitor

  1. saves the caller's saved-register set into ``pcb[current]``,
  2. switches to its own stack,
  3. dispatches on a7 to a compiled handler,
  4. writes the handler's return value into ``pcb[current].a0``
     (current may have changed across yield),
  5. restores the (possibly new) current process's registers,
     zeroes every other register, and ``mret``s.

The handlers are built as mini-C ASTs and compiled at the requested
optimization level, giving Figure 11 its -O0/-O1/-O2 axis.
"""

from __future__ import annotations

import functools

from ..cc import (
    Arg,
    Assign,
    BinOp,
    Cmp,
    Const,
    Func,
    GlobalAddr,
    If,
    Load,
    Program,
    Return,
    Store,
    Var,
    compile_program,
)
from ..core.image import Image
from ..riscv import Assembler
from .layout import (
    CALL_GET_QUOTA,
    CALL_SPAWN,
    CALL_YIELD,
    DATA_SYMBOLS,
    NCHILD,
    NPROC,
    NSAVED,
    PCB_STRIDE,
    PROC_FREE,
    PROC_RUN,
    SAVED_REGS,
    STACK_TOP,
    TEXT_BASE,
    WORD,
    XLEN,
)

__all__ = ["build_image", "boot_address"]


def _proc_field(pid_expr, field_offset: int):
    """&procs[pid].field  (stride 8)."""
    return BinOp("+", BinOp("+", GlobalAddr("procs"), BinOp("*", pid_expr, Const(8))), Const(field_offset))


def _handlers() -> Program:
    """The mini-C bodies of the three monitor calls."""
    current = Load(GlobalAddr("current"))

    # int c_get_quota(void) { return procs[current].quota; }
    get_quota = Func(
        "c_get_quota",
        0,
        (Return(Load(_proc_field(Load(GlobalAddr("current")), 4))),),
        locals=(),
    )

    # int c_spawn(int child, int quota).  Ownership is validated
    # *before* procs[child] is ever dereferenced; the memory model's
    # bounds side conditions enforce this ordering.
    spawn_body = (
        Assign("cur", Load(GlobalAddr("current"))),
        Assign("base", BinOp("+", BinOp("*", Var("cur"), Const(NCHILD)), Const(1))),
        Assign(
            "ok",
            BinOp(
                "&",
                BinOp(
                    "&",
                    Cmp("<=u", Var("base"), Arg(0)),
                    Cmp("<u", Arg(0), BinOp("+", Var("base"), Const(NCHILD))),
                ),
                Cmp("<u", Arg(0), Const(NPROC)),
            ),
        ),
        If(
            Cmp("!=", Var("ok"), Const(0)),
            (
                If(
                    Cmp("==", Load(_proc_field(Arg(0), 0)), Const(PROC_FREE)),
                    (
                        If(
                            Cmp("<=u", Arg(1), Load(_proc_field(Var("cur"), 4))),
                            (
                                Store(_proc_field(Arg(0), 0), Const(PROC_RUN)),
                                Store(_proc_field(Arg(0), 4), Arg(1)),
                                Store(
                                    _proc_field(Var("cur"), 4),
                                    BinOp("-", Load(_proc_field(Var("cur"), 4)), Arg(1)),
                                ),
                                # the child starts with minimum state
                                *[
                                    Store(
                                        BinOp(
                                            "+",
                                            BinOp(
                                                "+",
                                                GlobalAddr("pcb"),
                                                BinOp("*", Arg(0), Const(PCB_STRIDE)),
                                            ),
                                            Const(WORD * j),
                                        ),
                                        Const(0),
                                    )
                                    for j in range(NSAVED)
                                ],
                                Return(Arg(0)),
                            ),
                        ),
                    ),
                ),
            ),
        ),
        Return(Const(-1)),
    )
    spawn = Func("c_spawn", 2, spawn_body, locals=("cur", "base", "ok"))

    # void c_yield(void): current = next runnable (round robin)
    yield_body = [Assign("cur", Load(GlobalAddr("current"))), Assign("next", Load(GlobalAddr("current")))]
    for off in range(NPROC - 1, 0, -1):
        yield_body += [
            Assign("cand", BinOp("+", Var("cur"), Const(off))),
            If(
                Cmp("<=u", Const(NPROC), Var("cand")),
                (Assign("cand", BinOp("-", Var("cand"), Const(NPROC))),),
            ),
            If(
                Cmp("==", Load(_proc_field(Var("cand"), 0)), Const(PROC_RUN)),
                (Assign("next", Var("cand")),),
            ),
        ]
    yield_body.append(Store(GlobalAddr("current"), Var("next")))
    yield_body.append(Return(Const(0)))
    yield_ = Func("c_yield", 0, tuple(yield_body), locals=("cur", "next", "cand"))

    return Program(funcs=[get_quota, spawn, yield_], data=list(DATA_SYMBOLS))


# Registers to zero on trap exit: everything outside the saved set and
# x0.  (gp, tp, t0-t6, a3-a7, s2-s11)
_SAVED_NUMS = {num for _, num in SAVED_REGS}
CLEARED_REGS = [i for i in range(1, 32) if i not in _SAVED_NUMS]


def _emit_pcb_addr(asm: Assembler, dest: str, scratch: str) -> None:
    """dest = &pcb[current] using dest/scratch as temporaries."""
    asm.la(dest, "current")
    asm.lw(scratch, 0, dest)
    asm.slli(scratch, scratch, PCB_STRIDE.bit_length() - 1)  # * 32
    asm.la(dest, "pcb")
    asm.add(dest, dest, scratch)


@functools.cache
def build_image(opt: int = 1) -> Image:
    """Assemble the complete monitor at the given optimization level.

    Built once per ``opt`` and process: the image is a function of
    ``opt`` alone, and nothing writes an image after assembly, so every
    verifier at one level shares it."""
    return _build_asm(opt).assemble()


def boot_address(opt: int = 1) -> int:
    """Address of the boot entry point in the built image."""
    return _build_asm(opt).addr_of("boot")


@functools.cache
def _build_asm(opt: int) -> Assembler:
    """The monitor's assembly at ``opt``, compiled once per level and
    process; the image and the boot address both read it, and nothing
    writes it."""
    asm = Assembler(base=TEXT_BASE, xlen=XLEN)
    for name, addr, size, shape in DATA_SYMBOLS:
        asm.data_symbol(name, addr, size, shape)

    asm.label("entry")
    # (1) save the caller's registers into pcb[current]; t-registers
    # are clobberable by the monitor ABI.
    _emit_pcb_addr(asm, "t0", "t1")
    for j, (_, num) in enumerate(SAVED_REGS):
        asm.sw(num, WORD * j, "t0")
    # (2) the monitor's own stack.
    asm.li("sp", STACK_TOP)
    # (3) dispatch on a7.
    asm.li("t1", CALL_GET_QUOTA)
    asm.beq("a7", "t1", "do_get_quota")
    asm.li("t1", CALL_SPAWN)
    asm.beq("a7", "t1", "do_spawn")
    asm.li("t1", CALL_YIELD)
    asm.beq("a7", "t1", "do_yield")
    asm.li("a0", -1)
    asm.j("save_ret")

    asm.label("do_get_quota")
    asm.call("c_get_quota")
    asm.j("save_ret")
    asm.label("do_spawn")
    asm.call("c_spawn")
    asm.j("save_ret")
    asm.label("do_yield")
    asm.call("c_yield")
    asm.j("restore")  # yield's "return value" is the next proc's saved a0

    # (4) a0 -> pcb[current].a0 (current unchanged for non-yield calls).
    asm.label("save_ret")
    _emit_pcb_addr(asm, "t0", "t1")
    asm.sw("a0", WORD * 2, "t0")  # slot 2 = a0

    # (5) restore the current process and clear everything else.
    asm.label("restore")
    _emit_pcb_addr(asm, "t0", "t1")
    for j, (_, num) in enumerate(SAVED_REGS):
        asm.lw(num, WORD * j, "t0")
    for num in CLEARED_REGS:
        asm.li(num, 0)
    asm.mret()

    compile_program(_handlers(), asm, opt)
    _emit_boot(asm)
    return asm


# Initial memory quota granted to the root process at boot.
INIT_QUOTA = 16

# Where the (untrusted) S-mode loader starts after boot.
S_MODE_START = 0x0010_0000


def _emit_boot(asm: Assembler) -> None:
    """Boot code (§3.4): establish the representation invariant from
    the architectural reset state, then drop to S-mode.

    Initializes the scheduler state (process 0 runnable with the whole
    quota), zeroes the register banks, points mtvec at the trap
    entry, and clears every register before mret — so AF of the
    post-boot state is exactly the initial specification state.
    """
    asm.label("boot")
    asm.la("t0", "current")
    asm.sw("zero", 0, "t0")
    asm.la("t0", "procs")
    asm.li("t1", PROC_RUN)
    asm.sw("t1", 0, "t0")
    asm.li("t1", INIT_QUOTA)
    asm.sw("t1", WORD, "t0")
    for pid in range(1, NPROC):
        asm.sw("zero", pid * 8, "t0")
        asm.sw("zero", pid * 8 + WORD, "t0")
    asm.la("t0", "pcb")
    for off in range(0, NPROC * PCB_STRIDE, WORD):
        asm.sw("zero", off, "t0")
    asm.li("t0", asm.addr_of("entry"))
    asm.csrrw("zero", "mtvec", "t0")
    asm.li("t0", S_MODE_START)
    asm.csrrw("zero", "mepc", "t0")
    for num in range(1, 32):
        asm.li(num, 0)
    asm.mret()
