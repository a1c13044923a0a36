"""x86-32 interpreter (the BPF-JIT subset), liftable by the engine.

State: the eight 32-bit GPRs, the four arithmetic flags, and a small
stack (the x86-32 BPF JIT keeps most BPF registers in stack slots off
EBP).  Control flow uses instruction indices as the pc.
"""

from __future__ import annotations

from ..core.engine import Interpreter
from ..sym import MachineState, SymBV, SymBool, bv_val, fresh_bv, ite, sym_false
from .insn import X86Insn

__all__ = ["X86State", "X86Interp", "run_insns"]

STACK_SLOTS = 32


def _carry_flag(wide: SymBV) -> SymBool:
    """CF: bit 32 of the 33-bit sum or difference of the zero-extended
    operands (a carry out, or a borrow: the difference's sign).  The
    bit-blaster gives it the literal its ripple chain carries, so a
    borrow shares gates with a 64-bit subtraction, as a comparator
    ``a < b`` would not."""
    return wide.extract(32, 32) == 1


class X86State(MachineState):
    """GPRs + flags + EBP-relative stack slots."""

    __slots__ = ("pc", "regs", "cf", "zf", "sf", "of", "stack", "exited")

    def __init__(self, pc, regs, cf, zf, sf, of, stack):
        self.pc = pc
        self.regs = regs
        self.cf = cf
        self.zf = zf
        self.sf = sf
        self.of = of
        self.stack = stack  # list of 32-bit slots, index = disp//4
        self.exited = False

    @classmethod
    def symbolic(cls, prefix: str = "x86") -> "X86State":
        return cls(
            bv_val(0, 32),
            [fresh_bv(f"{prefix}.{i}", 32) for i in range(8)],
            sym_false(),
            sym_false(),
            sym_false(),
            sym_false(),
            [fresh_bv(f"{prefix}.stk{i}", 32) for i in range(STACK_SLOTS)],
        )

    def slot(self, disp: int) -> int:
        index, rem = divmod(disp, 4)
        if rem or not 0 <= index < STACK_SLOTS:
            raise ValueError(f"bad stack displacement {disp}")
        return index


class X86Interp(Interpreter):
    def __init__(self, program: list[X86Insn]):
        self.program = program

    def is_halted(self, state):
        return state.exited

    def fetch(self, state):
        pc = state.pc.as_int()
        if pc >= len(self.program):
            state.exited = True
            return X86Insn("ret")
        return self.program[pc]

    # -- execution ----------------------------------------------------------

    def execute(self, state: X86State, insn: X86Insn) -> None:
        name = insn.mnemonic
        handler = getattr(self, f"_exec_{name}", None)
        if handler is None:
            raise NotImplementedError(f"x86 mnemonic {name!r}")
        handler(state, insn)

    def _next(self, state):
        state.pc = state.pc + 1

    def _read_src(self, state, insn) -> SymBV:
        if insn.src is not None:
            return state.regs[insn.src]
        if insn.imm is not None:
            return bv_val(insn.imm, 32)
        if insn.mem is not None:
            return state.stack[state.slot(insn.mem[1])]
        raise ValueError(f"no source operand in {insn!r}")

    def _set_flags_logic(self, state, result: SymBV) -> None:
        state.cf = sym_false()
        state.of = sym_false()
        state.zf = result == 0
        state.sf = result.slt(0)

    def _exec_ret(self, state, insn):
        state.exited = True

    def _exec_mov(self, state, insn):
        state.regs[insn.dst] = self._read_src(state, insn)
        self._next(state)

    def _exec_mov_to_mem(self, state, insn):
        value = state.regs[insn.src] if insn.src is not None else bv_val(insn.imm, 32)
        state.stack[state.slot(insn.mem[1])] = value
        self._next(state)

    def _exec_add(self, state, insn):
        a = state.regs[insn.dst]
        b = self._read_src(state, insn)
        wide = a.zext(33) + b.zext(33)
        result = wide.trunc(32)
        state.cf = _carry_flag(wide)
        state.zf = result == 0
        state.sf = result.slt(0)
        sa, sb = a.slt(0), b.slt(0)
        state.of = (sa == sb) & (result.slt(0) != sa)
        state.regs[insn.dst] = result
        self._next(state)

    def _exec_adc(self, state, insn):
        a = state.regs[insn.dst]
        b = self._read_src(state, insn)
        carry = ite(state.cf, bv_val(1, 33), bv_val(0, 33))
        wide = a.zext(33) + b.zext(33) + carry
        result = wide.trunc(32)
        state.cf = _carry_flag(wide)
        state.zf = result == 0
        state.sf = result.slt(0)
        state.regs[insn.dst] = result
        self._next(state)

    def _exec_sub(self, state, insn):
        a = state.regs[insn.dst]
        b = self._read_src(state, insn)
        result = a - b
        state.cf = _carry_flag(a.zext(33) - b.zext(33))
        state.zf = result == 0
        state.sf = result.slt(0)
        sa, sb = a.slt(0), b.slt(0)
        state.of = (sa != sb) & (result.slt(0) != sa)
        state.regs[insn.dst] = result
        self._next(state)

    def _exec_sbb(self, state, insn):
        a = state.regs[insn.dst]
        b = self._read_src(state, insn)
        borrow = ite(state.cf, bv_val(1, 32), bv_val(0, 32))
        result = a - b - borrow
        wide_borrow = ite(state.cf, bv_val(1, 33), bv_val(0, 33))
        state.cf = _carry_flag(a.zext(33) - b.zext(33) - wide_borrow)
        state.zf = result == 0
        state.sf = result.slt(0)
        state.regs[insn.dst] = result
        self._next(state)

    def _exec_and(self, state, insn):
        result = state.regs[insn.dst] & self._read_src(state, insn)
        self._set_flags_logic(state, result)
        state.regs[insn.dst] = result
        self._next(state)

    def _exec_or(self, state, insn):
        result = state.regs[insn.dst] | self._read_src(state, insn)
        self._set_flags_logic(state, result)
        state.regs[insn.dst] = result
        self._next(state)

    def _exec_xor(self, state, insn):
        result = state.regs[insn.dst] ^ self._read_src(state, insn)
        self._set_flags_logic(state, result)
        state.regs[insn.dst] = result
        self._next(state)

    def _exec_neg(self, state, insn):
        a = state.regs[insn.dst]
        state.cf = a != 0
        result = -a
        state.zf = result == 0
        state.sf = result.slt(0)
        state.regs[insn.dst] = result
        self._next(state)

    def _exec_not(self, state, insn):
        state.regs[insn.dst] = ~state.regs[insn.dst]
        self._next(state)

    def _exec_cmp(self, state, insn):
        a = state.regs[insn.dst]
        b = self._read_src(state, insn)
        result = a - b
        state.cf = _carry_flag(a.zext(33) - b.zext(33))
        state.zf = result == 0
        state.sf = result.slt(0)
        sa, sb = a.slt(0), b.slt(0)
        state.of = (sa != sb) & (result.slt(0) != sa)
        self._next(state)

    def _shift_amount(self, state, insn) -> SymBV:
        if insn.imm is not None:
            return bv_val(insn.imm & 31, 32)
        # cl variant: x86 masks the count to 5 bits.
        return state.regs[1] & 31  # ecx

    def _exec_shl(self, state, insn):
        amt = self._shift_amount(state, insn)
        state.regs[insn.dst] = state.regs[insn.dst] << amt
        self._next(state)

    def _exec_shr(self, state, insn):
        amt = self._shift_amount(state, insn)
        state.regs[insn.dst] = state.regs[insn.dst] >> amt
        self._next(state)

    def _exec_sar(self, state, insn):
        amt = self._shift_amount(state, insn)
        state.regs[insn.dst] = state.regs[insn.dst].ashr(amt)
        self._next(state)

    def _exec_shld(self, state, insn):
        """shld dst, src: shift dst left, filling from src's top bits."""
        amt = self._shift_amount(state, insn)
        dst = state.regs[insn.dst]
        src = state.regs[insn.src]
        filled = ite(amt == 0, dst, (dst << amt) | (src >> (32 - amt)))
        state.regs[insn.dst] = filled
        self._next(state)

    def _exec_shrd(self, state, insn):
        """shrd dst, src: shift dst right, filling from src's low bits."""
        amt = self._shift_amount(state, insn)
        dst = state.regs[insn.dst]
        src = state.regs[insn.src]
        filled = ite(amt == 0, dst, (dst >> amt) | (src << (32 - amt)))
        state.regs[insn.dst] = filled
        self._next(state)

    # -- control flow ---------------------------------------------------------

    def _exec_jmp(self, state, insn):
        state.pc = bv_val(insn.target, 32)

    def _jcc(self, state, insn, cond: SymBool):
        state.pc = ite(cond, bv_val(insn.target, 32), state.pc + 1)

    def _exec_je(self, state, insn):
        self._jcc(state, insn, state.zf)

    def _exec_jne(self, state, insn):
        self._jcc(state, insn, ~state.zf)

    def _exec_jb(self, state, insn):
        self._jcc(state, insn, state.cf)

    def _exec_jae(self, state, insn):
        self._jcc(state, insn, ~state.cf)


def run_insns(program: list[X86Insn], state: X86State) -> X86State:
    """Run a straight-line-with-branches snippet to completion."""
    from ..core import EngineOptions, run_interpreter

    return run_interpreter(X86Interp(program), state, EngineOptions(fuel=2000)).merged()
