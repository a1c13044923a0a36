"""CertiKOS^s implementation: monitor-call handlers in mini-C, on the
trap skeleton both monitors share (§6.2).

``repro.riscv.trap`` states the execution model (Figure 6) and emits
the trap entry, dispatch, exit and boot epilogue.  This module declares
the monitor to it: the three calls (``yield`` switches context), their
handlers, and the boot prologue that builds the initial scheduler
state.
"""

from __future__ import annotations

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
)
from ..riscv import Assembler
from ..riscv.trap import TrapMonitor
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


# Initial memory quota granted to the root process at boot.
INIT_QUOTA = 16


def _boot_prologue(asm: Assembler) -> None:
    """Process 0 runs with the whole quota; every other process is free."""
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


MONITOR = TrapMonitor(
    text_base=TEXT_BASE,
    xlen=XLEN,
    data_symbols=DATA_SYMBOLS,
    saved_regs=SAVED_REGS,
    pcb_stride=PCB_STRIDE,
    stack_top=STACK_TOP,
    pcb_index="current",
    calls=[(CALL_GET_QUOTA, "get_quota"), (CALL_SPAWN, "spawn"), (CALL_YIELD, "yield")],
    # yield's "return value" is the next process's saved a0.
    switching={"yield"},
    handlers=_handlers(),
    boot_prologue=_boot_prologue,
)
build_image = MONITOR.build_image
boot_address = MONITOR.boot_address
