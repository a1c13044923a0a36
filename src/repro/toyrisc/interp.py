"""The ToyRISC interpreter (paper §3.2, Figures 2-4).

Five instructions over a machine with a program counter and two
registers::

    ret            pc <- 0; halt
    bnez rs, imm   branch to imm if rs != 0
    sgtz rd, rs    rd <- 1 if rs > 0 else 0   (signed)
    sltz rd, rs    rd <- 1 if rs < 0 else 0   (signed)
    li   rd, imm   rd <- imm

Instructions are (opcode, rd, rs, imm) tuples, as in the paper, with
``None`` for don't-care fields.  Running the interpreter on concrete
state emulates; running it on symbolic state under the engine lifts
it into a verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import Interpreter
from ..sym import (
    MachineState,
    SymBV,
    SymBool,
    Union,
    bug_on,
    bv_val,
    fresh_bv,
    ite,
    region,
    sym_false,
)

__all__ = ["Insn", "ToyCpu", "ToyRISC", "sign_program", "REG_NAMES"]

REG_NAMES = {"a0": 0, "a1": 1}


@dataclass(frozen=True)
class Insn:
    """A decoded ToyRISC instruction: (opcode, rd, rs, imm)."""

    op: str
    rd: int | None = None
    rs: int | None = None
    imm: int | None = None


def _reg(name_or_idx) -> int:
    if isinstance(name_or_idx, str):
        return REG_NAMES[name_or_idx]
    return name_or_idx


def ret() -> Insn:
    return Insn("ret")


def bnez(rs, imm: int) -> Insn:
    return Insn("bnez", rs=_reg(rs), imm=imm)


def sgtz(rd, rs) -> Insn:
    return Insn("sgtz", rd=_reg(rd), rs=_reg(rs))


def sltz(rd, rs) -> Insn:
    return Insn("sltz", rd=_reg(rd), rs=_reg(rs))


def li(rd, imm: int) -> Insn:
    return Insn("li", rd=_reg(rd), imm=imm)


class ToyCpu(MachineState):
    """CPU state: pc and two registers (Figure 4's ``struct cpu``)."""

    __slots__ = ("pc", "regs", "halted")

    def __init__(self, pc: SymBV, regs: list[SymBV], halted: SymBool | None = None):
        self.pc = pc
        self.regs = regs
        self.halted = halted if halted is not None else sym_false()

    @classmethod
    def symbolic(cls, width: int = 32, pc: int = 0) -> "ToyCpu":
        """A fully symbolic register state at a concrete pc."""
        return cls(bv_val(pc, width), [fresh_bv("a0", width), fresh_bv("a1", width)])

    @property
    def width(self) -> int:
        return self.pc.width

    def reg(self, idx: int) -> SymBV:
        return self.regs[idx]

    def __repr__(self) -> str:
        return f"ToyCpu(pc={self.pc!r}, a0={self.regs[0]!r}, a1={self.regs[1]!r})"


class ToyRISC(Interpreter):
    """The liftable ToyRISC interpreter.

    With the engine's ``split_pc`` on, ``fetch`` always sees a concrete
    pc.  With it off, ``fetch`` returns a guarded union over every
    instruction the symbolic pc may address — the Figure 5 blow-up.
    """

    def __init__(self, program: list[Insn]):
        self.program = program

    # -- engine protocol ----------------------------------------------------

    def is_halted(self, state: ToyCpu) -> bool:
        return state.halted.is_concrete and state.halted.as_bool()

    def fetch(self, state: ToyCpu):
        with region("toyrisc.fetch"):
            pc = state.pc
            # The behavior is undefined if pc is out of bounds
            # (Figure 4, lines 26-28).
            bug_on(pc >= len(self.program), "pc out of bounds")
            if pc.is_concrete:
                return self.program[pc.as_int()]
            # Symbolic pc: a union over every feasible instruction.
            alts = [(pc == i, insn) for i, insn in enumerate(self.program)]
            return Union([(g, v) for g, v in alts])

    def execute(self, state: ToyCpu, insn) -> None:
        with region("toyrisc.execute"):
            if isinstance(insn, Union):
                merged = insn.map(lambda single: self._exec_copy(state, single))
                state.pc = merged.pc
                state.regs = merged.regs
                state.halted = merged.halted
                return
            self._exec_one(state, insn)

    def _exec_copy(self, state: ToyCpu, insn: Insn) -> ToyCpu:
        fresh = state.copy()
        self._exec_one(fresh, insn)
        return fresh

    def _exec_one(self, state: ToyCpu, insn: Insn) -> None:
        w = state.width
        was_halted = state.halted

        def set_pc(value):
            state.pc = ite(was_halted, state.pc, value)

        def set_reg(idx, value):
            state.regs[idx] = ite(was_halted, state.regs[idx], value)

        next_pc = state.pc + 1
        if insn.op == "ret":
            set_pc(bv_val(0, w))
            state.halted = ite(was_halted, was_halted, ~was_halted)  # halted := true
        elif insn.op == "bnez":
            taken = state.reg(insn.rs) != 0
            set_pc(ite(taken, bv_val(insn.imm, w), next_pc))
        elif insn.op == "sgtz":
            set_pc(next_pc)
            set_reg(insn.rd, ite(state.reg(insn.rs).sgt(0), bv_val(1, w), bv_val(0, w)))
        elif insn.op == "sltz":
            set_pc(next_pc)
            set_reg(insn.rd, ite(state.reg(insn.rs).slt(0), bv_val(1, w), bv_val(0, w)))
        elif insn.op == "li":
            set_pc(next_pc)
            set_reg(insn.rd, bv_val(insn.imm, w))
        else:
            raise ValueError(f"unknown opcode {insn.op!r}")


def sign_program() -> list[Insn]:
    """Figure 3: compute the sign of a0 into a0, using a1 as scratch."""
    return [
        sltz("a1", "a0"),  # 0: a1 <- (a0 < 0)
        bnez("a1", 4),     # 1: branch to 4 if a1 != 0
        sgtz("a0", "a0"),  # 2: a0 <- (a0 > 0)
        ret(),             # 3
        li("a0", -1),      # 4: a0 <- -1
        ret(),             # 5
    ]
