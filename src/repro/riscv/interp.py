"""The RISC-V interpreter, liftable into a verifier (§3.2, §5).

Implements RV32I/RV64I + M + Zicsr plus the privileged instructions
the monitors use.  Decoding is validated against the encoder (§3.4),
and ``decode_validated`` caches each word — the program text is
concrete, so decode work is done once per process.
"""

from __future__ import annotations

from ..core.engine import Interpreter
from ..core.image import Image
from ..sym import SymBV, bug_on, bv_val, ite, region
from .cpu import CpuState
from .decode import decode_validated
from .insn import CSR_NAMES, Insn

__all__ = ["RiscvInterp"]


class RiscvInterp(Interpreter):
    """Fetch/decode/execute over a binary image."""

    def __init__(self, image: Image, xlen: int = 64):
        self.image = image
        self.xlen = xlen

    # -- engine protocol ----------------------------------------------------------

    def is_halted(self, state: CpuState) -> bool:
        return state.exited or state.trap is not None

    def fetch(self, state: CpuState) -> Insn:
        with region("riscv.fetch"):
            pc = state.pc
            if not pc.is_concrete:
                raise AssertionError("riscv fetch requires split-pc (concrete pc)")
            addr = pc.as_int()
            word = self.image.words.get(addr)
            if word is None:
                raise KeyError(f"fetch outside text section: pc={addr:#x}")
            return decode_validated(word, self.xlen)

    # -- execution ----------------------------------------------------------------

    def execute(self, state: CpuState, insn: Insn) -> None:
        with region("riscv.execute"):
            handler = getattr(self, f"_exec_{insn.name.replace('.', '_')}", None)
            if handler is None:
                raise NotImplementedError(f"no semantics for {insn.name!r}")
            handler(state, insn)

    # Helpers ------------------------------------------------------------------

    def _imm(self, state: CpuState, value: int) -> SymBV:
        return bv_val(value, state.xlen)

    def _next(self, state: CpuState) -> None:
        state.pc = state.pc + 4

    def _word_op(self, state: CpuState, insn: Insn, fn) -> None:
        """RV64 W-form: operate on low 32 bits, sign-extend the result."""
        if state.xlen != 64:
            raise NotImplementedError("W-form instructions require RV64")
        a = state.reg(insn.rs1).trunc(32)
        b = state.reg(insn.rs2).trunc(32)
        state.set_reg(insn.rd, fn(a, b).sext(64))
        self._next(state)

    # ALU register-register -------------------------------------------------------

    def _exec_add(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) + s.reg(i.rs2))
        self._next(s)

    def _exec_sub(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) - s.reg(i.rs2))
        self._next(s)

    def _exec_and(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) & s.reg(i.rs2))
        self._next(s)

    def _exec_or(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) | s.reg(i.rs2))
        self._next(s)

    def _exec_xor(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) ^ s.reg(i.rs2))
        self._next(s)

    def _shamt(self, s: CpuState, value: SymBV) -> SymBV:
        mask = s.xlen - 1
        return value & mask

    def _exec_sll(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) << self._shamt(s, s.reg(i.rs2)))
        self._next(s)

    def _exec_srl(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) >> self._shamt(s, s.reg(i.rs2)))
        self._next(s)

    def _exec_sra(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1).ashr(self._shamt(s, s.reg(i.rs2))))
        self._next(s)

    def _exec_slt(self, s, i):
        s.set_reg(i.rd, ite(s.reg(i.rs1).slt(s.reg(i.rs2)), self._imm(s, 1), self._imm(s, 0)))
        self._next(s)

    def _exec_sltu(self, s, i):
        s.set_reg(i.rd, ite(s.reg(i.rs1) < s.reg(i.rs2), self._imm(s, 1), self._imm(s, 0)))
        self._next(s)

    # M extension ---------------------------------------------------------------

    def _exec_mul(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) * s.reg(i.rs2))
        self._next(s)

    def _mulh_generic(self, s, i, ext_a, ext_b):
        w = s.xlen
        a = ext_a(s.reg(i.rs1), 2 * w)
        b = ext_b(s.reg(i.rs2), 2 * w)
        s.set_reg(i.rd, (a * b).extract(2 * w - 1, w))
        self._next(s)

    def _exec_mulh(self, s, i):
        self._mulh_generic(s, i, lambda v, w: v.sext(w), lambda v, w: v.sext(w))

    def _exec_mulhu(self, s, i):
        self._mulh_generic(s, i, lambda v, w: v.zext(w), lambda v, w: v.zext(w))

    def _exec_mulhsu(self, s, i):
        self._mulh_generic(s, i, lambda v, w: v.sext(w), lambda v, w: v.zext(w))

    def _div_signed(self, a: SymBV, b: SymBV) -> SymBV:
        # RISC-V: division by zero yields all ones.
        return ite(b == 0, bv_val(-1, a.width), a.sdiv(b))

    def _div_unsigned(self, a: SymBV, b: SymBV) -> SymBV:
        return ite(b == 0, bv_val(-1, a.width), a.udiv(b))

    def _rem_signed(self, a: SymBV, b: SymBV) -> SymBV:
        return ite(b == 0, a, a.srem(b))

    def _rem_unsigned(self, a: SymBV, b: SymBV) -> SymBV:
        return ite(b == 0, a, a.urem(b))

    def _exec_div(self, s, i):
        s.set_reg(i.rd, self._div_signed(s.reg(i.rs1), s.reg(i.rs2)))
        self._next(s)

    def _exec_divu(self, s, i):
        s.set_reg(i.rd, self._div_unsigned(s.reg(i.rs1), s.reg(i.rs2)))
        self._next(s)

    def _exec_rem(self, s, i):
        s.set_reg(i.rd, self._rem_signed(s.reg(i.rs1), s.reg(i.rs2)))
        self._next(s)

    def _exec_remu(self, s, i):
        s.set_reg(i.rd, self._rem_unsigned(s.reg(i.rs1), s.reg(i.rs2)))
        self._next(s)

    # RV64 W forms -----------------------------------------------------------------

    def _exec_addw(self, s, i):
        self._word_op(s, i, lambda a, b: a + b)

    def _exec_subw(self, s, i):
        self._word_op(s, i, lambda a, b: a - b)

    def _exec_sllw(self, s, i):
        self._word_op(s, i, lambda a, b: a << (b & 31))

    def _exec_srlw(self, s, i):
        self._word_op(s, i, lambda a, b: a >> (b & 31))

    def _exec_sraw(self, s, i):
        self._word_op(s, i, lambda a, b: a.ashr(b & 31))

    def _exec_mulw(self, s, i):
        self._word_op(s, i, lambda a, b: a * b)

    def _exec_divw(self, s, i):
        self._word_op(s, i, self._div_signed)

    def _exec_divuw(self, s, i):
        self._word_op(s, i, self._div_unsigned)

    def _exec_remw(self, s, i):
        self._word_op(s, i, self._rem_signed)

    def _exec_remuw(self, s, i):
        self._word_op(s, i, self._rem_unsigned)

    # ALU immediates ---------------------------------------------------------------

    def _exec_addi(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) + i.imm)
        self._next(s)

    def _exec_andi(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) & i.imm)
        self._next(s)

    def _exec_ori(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) | i.imm)
        self._next(s)

    def _exec_xori(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) ^ i.imm)
        self._next(s)

    def _exec_slti(self, s, i):
        s.set_reg(i.rd, ite(s.reg(i.rs1).slt(i.imm), self._imm(s, 1), self._imm(s, 0)))
        self._next(s)

    def _exec_sltiu(self, s, i):
        s.set_reg(i.rd, ite(s.reg(i.rs1) < self._imm(s, i.imm), self._imm(s, 1), self._imm(s, 0)))
        self._next(s)

    def _exec_slli(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) << i.imm)
        self._next(s)

    def _exec_srli(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1) >> i.imm)
        self._next(s)

    def _exec_srai(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1).ashr(i.imm))
        self._next(s)

    def _exec_addiw(self, s, i):
        a = s.reg(i.rs1).trunc(32)
        s.set_reg(i.rd, (a + i.imm).sext(64))
        self._next(s)

    def _exec_slliw(self, s, i):
        s.set_reg(i.rd, (s.reg(i.rs1).trunc(32) << i.imm).sext(64))
        self._next(s)

    def _exec_srliw(self, s, i):
        s.set_reg(i.rd, (s.reg(i.rs1).trunc(32) >> i.imm).sext(64))
        self._next(s)

    def _exec_sraiw(self, s, i):
        s.set_reg(i.rd, s.reg(i.rs1).trunc(32).ashr(i.imm).sext(64))
        self._next(s)

    def _exec_lui(self, s, i):
        value = bv_val(i.imm, 32).sext(s.xlen) if s.xlen == 64 else bv_val(i.imm, 32)
        s.set_reg(i.rd, value)
        self._next(s)

    def _exec_auipc(self, s, i):
        offset = bv_val(i.imm, 32).sext(s.xlen) if s.xlen == 64 else bv_val(i.imm, 32)
        s.set_reg(i.rd, s.pc + offset)
        self._next(s)

    # Memory ------------------------------------------------------------------------

    def _load(self, s: CpuState, i: Insn, nbytes: int, signed: bool) -> None:
        with region("riscv.load"):
            addr = s.reg(i.rs1) + i.imm
            value = s.mem.load(addr, nbytes)
            s.set_reg(i.rd, value.sext(s.xlen) if signed else value.zext(s.xlen))
            self._next(s)

    def _store(self, s: CpuState, i: Insn, nbytes: int) -> None:
        with region("riscv.store"):
            addr = s.reg(i.rs1) + i.imm
            s.mem.store(addr, s.reg(i.rs2).trunc(nbytes * 8))
            self._next(s)

    def _exec_lb(self, s, i):
        self._load(s, i, 1, signed=True)

    def _exec_lbu(self, s, i):
        self._load(s, i, 1, signed=False)

    def _exec_lh(self, s, i):
        self._load(s, i, 2, signed=True)

    def _exec_lhu(self, s, i):
        self._load(s, i, 2, signed=False)

    def _exec_lw(self, s, i):
        self._load(s, i, 4, signed=True)

    def _exec_lwu(self, s, i):
        self._load(s, i, 4, signed=False)

    def _exec_ld(self, s, i):
        self._load(s, i, 8, signed=True)

    def _exec_sb(self, s, i):
        self._store(s, i, 1)

    def _exec_sh(self, s, i):
        self._store(s, i, 2)

    def _exec_sw(self, s, i):
        self._store(s, i, 4)

    def _exec_sd(self, s, i):
        self._store(s, i, 8)

    # Control flow ---------------------------------------------------------------------

    def _branch(self, s: CpuState, i: Insn, cond) -> None:
        s.pc = ite(cond, s.pc + i.imm, s.pc + 4)

    def _exec_beq(self, s, i):
        self._branch(s, i, s.reg(i.rs1) == s.reg(i.rs2))

    def _exec_bne(self, s, i):
        self._branch(s, i, s.reg(i.rs1) != s.reg(i.rs2))

    def _exec_blt(self, s, i):
        self._branch(s, i, s.reg(i.rs1).slt(s.reg(i.rs2)))

    def _exec_bge(self, s, i):
        self._branch(s, i, s.reg(i.rs1).sge(s.reg(i.rs2)))

    def _exec_bltu(self, s, i):
        self._branch(s, i, s.reg(i.rs1) < s.reg(i.rs2))

    def _exec_bgeu(self, s, i):
        self._branch(s, i, s.reg(i.rs1) >= s.reg(i.rs2))

    def _exec_jal(self, s, i):
        s.set_reg(i.rd, s.pc + 4)
        s.pc = s.pc + i.imm

    def _exec_jalr(self, s, i):
        target = (s.reg(i.rs1) + i.imm) & ~1
        s.set_reg(i.rd, s.pc + 4)
        s.pc = target

    # CSRs -------------------------------------------------------------------------------

    def _csr_name(self, i: Insn) -> str:
        name = CSR_NAMES.get(i.imm)
        if name is None:
            raise KeyError(f"unknown CSR address {i.imm:#x}")
        return name

    def _exec_csrrw(self, s, i):
        name = self._csr_name(i)
        old = s.csr(name)
        s.set_csr(name, s.reg(i.rs1))
        s.set_reg(i.rd, old)
        self._next(s)

    def _exec_csrrs(self, s, i):
        name = self._csr_name(i)
        old = s.csr(name)
        if i.rs1 != 0:
            s.set_csr(name, old | s.reg(i.rs1))
        s.set_reg(i.rd, old)
        self._next(s)

    def _exec_csrrc(self, s, i):
        name = self._csr_name(i)
        old = s.csr(name)
        if i.rs1 != 0:
            s.set_csr(name, old & ~s.reg(i.rs1))
        s.set_reg(i.rd, old)
        self._next(s)

    def _exec_csrrwi(self, s, i):
        name = self._csr_name(i)
        s.set_reg(i.rd, s.csr(name))
        s.set_csr(name, self._imm(s, i.rs1))
        self._next(s)

    def _exec_csrrsi(self, s, i):
        name = self._csr_name(i)
        old = s.csr(name)
        if i.rs1 != 0:
            s.set_csr(name, old | i.rs1)
        s.set_reg(i.rd, old)
        self._next(s)

    def _exec_csrrci(self, s, i):
        name = self._csr_name(i)
        old = s.csr(name)
        if i.rs1 != 0:
            s.set_csr(name, old & ~self._imm(s, i.rs1))
        s.set_reg(i.rd, old)
        self._next(s)

    # Privileged ----------------------------------------------------------------------------

    def _exec_mret(self, s, i):
        # Return to the interrupted context; ends trap-handler
        # evaluation (§3.4: "ends upon executing a trap-return
        # instruction").
        s.pc = s.csr("mepc")
        s.exited = True

    def _exec_wfi(self, s, i):
        s.exited = True
        self._next(s)

    def _exec_ecall(self, s, i):
        # The monitors never ecall from M-mode; treat as a fault.
        bug_on(True, "ecall executed in machine mode")
        s.trap = "ecall"

    def _exec_ebreak(self, s, i):
        bug_on(True, "ebreak executed in machine mode")
        s.trap = "ebreak"

    def _exec_fence(self, s, i):
        self._next(s)

    def _exec_fence_i(self, s, i):
        self._next(s)
