"""Komodo^s implementation: trap entry/exit in assembly, handlers in
mini-C (§6.3).

Same execution model as CertiKOS^s (Figure 6): save the caller's
registers into ``pcb[cur]``, dispatch on a7, write non-switching
calls' return values into the caller's saved a0, restore the (possibly
new) current context, zero the remaining registers, ``mret``.

Context-switching calls (Enter/Resume/Exit) manage saved-register
banks themselves: on success the target context's bank is restored
untouched; failures write -1 into the *caller's* bank.
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
    DATA_SYMBOLS,
    ENC_FINAL,
    ENC_INIT,
    ENC_INVALID,
    ENC_STOPPED,
    HOST,
    NENC,
    NPAGES,
    PCB_STRIDE,
    PG_ADDRSPACE,
    PG_DATA,
    PG_FREE,
    PG_L2PT,
    PG_L3PT,
    PG_THREAD,
    SAVED_REGS,
    STACK_TOP,
    TEXT_BASE,
    WORD,
    XLEN,
)

__all__ = ["build_image", "boot_address", "CALL_NAMES"]

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

# Handlers that switch context and manage return values themselves.
SWITCHING = {"enter", "resume", "exit"}


def _enc_state(eid_expr):
    return BinOp("+", GlobalAddr("enclaves"), BinOp("*", eid_expr, Const(4)))


def _pg_field(page_expr, off: int):
    return BinOp("+", BinOp("+", GlobalAddr("pagedb"), BinOp("*", page_expr, Const(12))), Const(off))


def _pcb_a0(ctx_expr):
    # a0 is saved-register slot 2 (ra, sp, a0, a1).
    return BinOp("+", BinOp("+", GlobalAddr("pcb"), BinOp("*", ctx_expr, Const(PCB_STRIDE))), Const(8))


def _alloc_handler(name: str, pg_type: int, required_state: int, store_payload: bool) -> Func:
    """init_thread/init_l2ptable/init_l3ptable/map_secure shape:
    (eid, page[, payload]) -> 0 / -1."""
    body = (
        Assign(
            "ok",
            BinOp(
                "&",
                Cmp("==", Load(GlobalAddr("cur")), Const(HOST)),
                BinOp("&", Cmp("<u", Arg(0), Const(NENC)), Cmp("<u", Arg(1), Const(NPAGES))),
            ),
        ),
        If(
            Cmp("!=", Var("ok"), Const(0)),
            (
                If(
                    Cmp("==", Load(_enc_state(Arg(0))), Const(required_state)),
                    (
                        If(
                            Cmp("==", Load(_pg_field(Arg(1), 0)), Const(PG_FREE)),
                            (
                                Store(_pg_field(Arg(1), 0), Const(pg_type)),
                                Store(_pg_field(Arg(1), 4), Arg(0)),
                            )
                            + ((Store(_pg_field(Arg(1), 8), Arg(2)),) if store_payload else ())
                            + (Return(Const(0)),),
                        ),
                    ),
                ),
            ),
        ),
        Return(Const(-1)),
    )
    return Func(name, 3, body, locals=("ok",))


def _handlers() -> Program:
    funcs = []

    # init_addrspace additionally flips the enclave to INIT.
    funcs.append(
        Func(
            "c_init_addrspace",
            2,
            (
                Assign(
                    "ok",
                    BinOp(
                        "&",
                        Cmp("==", Load(GlobalAddr("cur")), Const(HOST)),
                        BinOp("&", Cmp("<u", Arg(0), Const(NENC)), Cmp("<u", Arg(1), Const(NPAGES))),
                    ),
                ),
                If(
                    Cmp("!=", Var("ok"), Const(0)),
                    (
                        If(
                            Cmp("==", Load(_enc_state(Arg(0))), Const(ENC_INVALID)),
                            (
                                If(
                                    Cmp("==", Load(_pg_field(Arg(1), 0)), Const(PG_FREE)),
                                    (
                                        Store(_pg_field(Arg(1), 0), Const(PG_ADDRSPACE)),
                                        Store(_pg_field(Arg(1), 4), Arg(0)),
                                        Store(_enc_state(Arg(0)), Const(ENC_INIT)),
                                        Return(Const(0)),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
                Return(Const(-1)),
            ),
            locals=("ok",),
        )
    )
    funcs.append(_alloc_handler("c_init_thread", PG_THREAD, ENC_INIT, False))
    funcs.append(_alloc_handler("c_init_l2ptable", PG_L2PT, ENC_INIT, False))
    funcs.append(_alloc_handler("c_init_l3ptable", PG_L3PT, ENC_INIT, False))
    funcs.append(_alloc_handler("c_map_secure", PG_DATA, ENC_INIT, True))

    funcs.append(
        Func(
            "c_map_insecure",
            2,
            (
                If(
                    BinOp(
                        "&",
                        Cmp("==", Load(GlobalAddr("cur")), Const(HOST)),
                        Cmp("<u", Arg(0), Const(NENC)),
                    ),
                    (
                        If(
                            Cmp("==", Load(_enc_state(Arg(0))), Const(ENC_INIT)),
                            (Return(Const(0)),),
                        ),
                    ),
                ),
                Return(Const(-1)),
            ),
            locals=(),
        )
    )

    def _state_transition(name, from_states, to_state):
        cond = Cmp("==", Load(_enc_state(Arg(0))), Const(from_states[0]))
        for st in from_states[1:]:
            cond = BinOp("|", cond, Cmp("==", Load(_enc_state(Arg(0))), Const(st)))
        return Func(
            name,
            1,
            (
                If(
                    BinOp(
                        "&",
                        Cmp("==", Load(GlobalAddr("cur")), Const(HOST)),
                        Cmp("<u", Arg(0), Const(NENC)),
                    ),
                    (
                        If(
                            Cmp("!=", cond, Const(0)),
                            (Store(_enc_state(Arg(0)), Const(to_state)), Return(Const(0))),
                        ),
                    ),
                ),
                Return(Const(-1)),
            ),
            locals=(),
        )

    funcs.append(_state_transition("c_finalize", [ENC_INIT], ENC_FINAL))
    funcs.append(_state_transition("c_stop", [ENC_INIT, ENC_FINAL], ENC_STOPPED))

    # remove: free all pages owned by a STOPPED enclave (bounded loop,
    # unrolled here as straight-line per-page checks).
    remove_body = [
        Assign(
            "ok",
            BinOp(
                "&",
                Cmp("==", Load(GlobalAddr("cur")), Const(HOST)),
                Cmp("<u", Arg(0), Const(NENC)),
            ),
        ),
    ]
    page_frees = []
    for p in range(NPAGES):
        page_frees.append(
            If(
                BinOp(
                    "&",
                    Cmp("==", Load(_pg_field(Const(p), 4)), Arg(0)),
                    Cmp("!=", Load(_pg_field(Const(p), 0)), Const(PG_FREE)),
                ),
                (
                    Store(_pg_field(Const(p), 0), Const(PG_FREE)),
                    Store(_pg_field(Const(p), 4), Const(0)),
                    Store(_pg_field(Const(p), 8), Const(0)),
                ),
            )
        )
    remove_body.append(
        If(
            Cmp("!=", Var("ok"), Const(0)),
            (
                If(
                    Cmp("==", Load(_enc_state(Arg(0))), Const(ENC_STOPPED)),
                    tuple(page_frees)
                    + (Store(_enc_state(Arg(0)), Const(ENC_INVALID)), Return(Const(0))),
                ),
            ),
        )
    )
    remove_body.append(Return(Const(-1)))
    funcs.append(Func("c_remove", 1, tuple(remove_body), locals=("ok",)))

    # enter/resume: host -> enclave on FINAL; failure writes the
    # caller's saved a0.
    for name in ("c_enter", "c_resume"):
        funcs.append(
            Func(
                name,
                1,
                (
                    If(
                        BinOp(
                            "&",
                            Cmp("==", Load(GlobalAddr("cur")), Const(HOST)),
                            Cmp("<u", Arg(0), Const(NENC)),
                        ),
                        (
                            If(
                                Cmp("==", Load(_enc_state(Arg(0))), Const(ENC_FINAL)),
                                (Store(GlobalAddr("cur"), Arg(0)), Return(Const(0))),
                            ),
                        ),
                    ),
                    Store(_pcb_a0(Load(GlobalAddr("cur"))), Const(-1)),
                    Return(Const(0)),
                ),
                locals=(),
            )
        )

    # exit: running enclave -> host; its saved a0 is the (declassified)
    # exit value, delivered to the host's saved a0.
    funcs.append(
        Func(
            "c_exit",
            0,
            (
                Assign("me", Load(GlobalAddr("cur"))),
                If(
                    Cmp("<u", Var("me"), Const(NENC)),
                    (
                        Store(_pcb_a0(Const(HOST)), Load(_pcb_a0(Var("me")))),
                        Store(GlobalAddr("cur"), Const(HOST)),
                    ),
                ),
                Return(Const(0)),
            ),
            locals=("me",),
        )
    )

    return Program(funcs=funcs, data=list(DATA_SYMBOLS))


_SAVED_NUMS = {num for _, num in SAVED_REGS}
CLEARED_REGS = [i for i in range(1, 32) if i not in _SAVED_NUMS]


def _emit_pcb_addr(asm: Assembler, dest: str, scratch: str) -> None:
    asm.la(dest, "cur")
    asm.lw(scratch, 0, dest)
    asm.slli(scratch, scratch, PCB_STRIDE.bit_length() - 1)
    asm.la(dest, "pcb")
    asm.add(dest, dest, scratch)


@functools.cache
def build_image(opt: int = 1) -> Image:
    """Assemble the monitor at ``opt``, once per level and process (as
    ``repro.certikos.impl.build_image``)."""
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
    _emit_pcb_addr(asm, "t0", "t1")
    for j, (_, num) in enumerate(SAVED_REGS):
        asm.sw(num, WORD * j, "t0")
    asm.li("sp", STACK_TOP)
    for call_no, name in enumerate(CALL_NAMES):
        asm.li("t1", call_no)
        asm.beq("a7", "t1", f"do_{name}")
    asm.li("a0", -1)
    asm.j("save_ret")

    for name in CALL_NAMES:
        asm.label(f"do_{name}")
        if name in ("enter", "resume"):
            # enter(eid) arrives with eid in a0 already.
            asm.call(f"c_{name}")
        elif name == "map_secure":
            asm.call("c_map_secure")
        else:
            asm.call(f"c_{name}")
        asm.j("restore" if name in SWITCHING else "save_ret")

    asm.label("save_ret")
    _emit_pcb_addr(asm, "t0", "t1")
    asm.sw("a0", WORD * 2, "t0")  # slot 2 = a0

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


S_MODE_START = 0x0010_0000


def _emit_boot(asm: Assembler) -> None:
    """Boot code: the host context with an empty page database."""
    asm.label("boot")
    asm.la("t0", "cur")
    asm.li("t1", HOST)
    asm.sw("t1", 0, "t0")
    asm.la("t0", "enclaves")
    for i in range(NENC):
        asm.sw("zero", 4 * i, "t0")
    asm.la("t0", "pagedb")
    for off in range(0, NPAGES * 12, 4):
        asm.sw("zero", off, "t0")
    asm.la("t0", "pcb")
    for off in range(0, (NENC + 1) * PCB_STRIDE, 4):
        asm.sw("zero", off, "t0")
    asm.li("t0", asm.addr_of("entry"))
    asm.csrrw("zero", "mtvec", "t0")
    asm.li("t0", S_MODE_START)
    asm.csrrw("zero", "mepc", "t0")
    for num in range(1, 32):
        asm.li(num, 0)
    asm.mret()
