"""The eBPF interpreter/verifier (§5).

Semantics follow the kernel's interpreter: eleven 64-bit registers;
ALU (32-bit) operations compute on the low word and **zero-extend**
the result; shifts mask their amount to the operand width.  The
zero-extension and shift-masking rules are exactly what the buggy
Linux JITs got wrong (§7), so this interpreter is the ground truth
the JIT checker compares against.
"""

from __future__ import annotations

from ..core.engine import Interpreter
from ..sym import MachineState, SymBV, bug_on, bv_val, fresh_bv, ite
from .insn import BpfInsn, CLASS_ALU, CLASS_ALU64, CLASS_JMP, CLASS_JMP32

__all__ = ["BpfState", "BpfInterp", "run_insn"]

NREGS = 11


class BpfState(MachineState):
    """R0-R10 (64-bit) plus a program counter over the insn list."""

    __slots__ = ("pc", "regs", "exited")

    def __init__(self, pc: SymBV, regs: list[SymBV]):
        self.pc = pc
        self.regs = regs
        self.exited = False

    @classmethod
    def symbolic(cls, prefix: str = "bpf") -> "BpfState":
        return cls(bv_val(0, 64), [fresh_bv(f"{prefix}.r{i}", 64) for i in range(NREGS)])


def _alu_result(op: str, dst: SymBV, src: SymBV, width: int) -> SymBV:
    """Compute one ALU op at the given width (operands pre-truncated)."""
    shift_mask = width - 1
    if op == "add":
        return dst + src
    if op == "sub":
        return dst - src
    if op == "mul":
        return dst * src
    if op == "div":
        # The in-kernel verifier guarantees non-zero divisors (or
        # patches in a runtime check); semantics here: x/0 = 0.
        return ite(src == 0, bv_val(0, width), dst.udiv(src))
    if op == "mod":
        return ite(src == 0, dst, dst.urem(src))
    if op == "or":
        return dst | src
    if op == "and":
        return dst & src
    if op == "xor":
        return dst ^ src
    if op == "lsh":
        return dst << (src & shift_mask)
    if op == "rsh":
        return dst >> (src & shift_mask)
    if op == "arsh":
        return dst.ashr(src & shift_mask)
    if op == "neg":
        return -dst
    if op == "mov":
        return src
    raise NotImplementedError(f"ALU op {op!r}")


class BpfInterp(Interpreter):
    """Liftable eBPF interpreter over an instruction list."""

    def __init__(self, program: list[BpfInsn]):
        self.program = program

    def is_halted(self, state: BpfState) -> bool:
        return state.exited

    def fetch(self, state: BpfState) -> BpfInsn:
        pc = state.pc.as_int()
        bug_on(state.pc >= len(self.program), "bpf pc out of range")
        return self.program[pc]

    def execute(self, state: BpfState, insn: BpfInsn) -> None:
        if insn.klass in (CLASS_ALU, CLASS_ALU64):
            self._exec_alu(state, insn)
            state.pc = state.pc + 1
            return
        if insn.klass in (CLASS_JMP, CLASS_JMP32):
            self._exec_jmp(state, insn)
            return
        raise NotImplementedError(f"bpf class {insn.klass:#x}")

    def _exec_alu(self, state: BpfState, insn: BpfInsn) -> None:
        op = insn.op_name
        width = 64 if insn.is_alu64 else 32
        dst = state.regs[insn.dst]
        src = state.regs[insn.src] if insn.src_is_reg else bv_val(insn.imm, 64)
        if width == 32:
            result = _alu_result(op, dst.trunc(32), src.trunc(32), 32)
            # ALU32 results are zero-extended into the full register —
            # the rule the buggy JITs miss (§7).
            state.regs[insn.dst] = result.zext(64)
        else:
            if not insn.src_is_reg:
                # Immediates are sign-extended to 64 bits.
                src = bv_val(insn.imm, 32).sext(64) if insn.imm < 0 else bv_val(insn.imm, 64)
            state.regs[insn.dst] = _alu_result(op, dst, src, 64)

    def _exec_jmp(self, state: BpfState, insn: BpfInsn) -> None:
        op = insn.op_name
        if op == "exit":
            state.exited = True
            return
        if op == "ja":
            state.pc = state.pc + (insn.off + 1)
            return
        width = 32 if insn.klass == CLASS_JMP32 else 64
        dst = state.regs[insn.dst]
        src = state.regs[insn.src] if insn.src_is_reg else bv_val(insn.imm, 64)
        if width == 32:
            dst, src = dst.trunc(32), src.trunc(32)
        conds = {
            "jeq": lambda: dst == src,
            "jne": lambda: dst != src,
            "jgt": lambda: dst > src,
            "jge": lambda: dst >= src,
            "jlt": lambda: dst < src,
            "jle": lambda: dst <= src,
            "jsgt": lambda: dst.sgt(src),
            "jsge": lambda: dst.sge(src),
            "jslt": lambda: dst.slt(src),
            "jsle": lambda: dst.sle(src),
            "jset": lambda: (dst & src) != 0,
        }
        cond = conds[op]()
        state.pc = ite(cond, state.pc + (insn.off + 1), state.pc + 1)


def run_insn(insn: BpfInsn, state: BpfState) -> BpfState:
    """Execute a single instruction (the JIT checker's BPF side)."""
    out = state.copy()
    BpfInterp([insn]).execute(out, insn)
    return out
