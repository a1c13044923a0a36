"""Interpreter semantics tests, in the style of riscv-tests (§6.4:
"we wrote new interpreter tests and reused existing ones").

Each case assembles a tiny program, runs it concretely through the
lifted interpreter, and checks the architectural result.
"""

import pytest

from repro.core import run_interpreter
from repro.core.image import build_memory
from repro.core.memory import Memory
from repro.riscv import Assembler, CpuState, RiscvInterp
from repro.sym import bv_val, new_context, prove, sym_implies, verify_vcs

XLEN = 64
MASK = (1 << XLEN) - 1


def run_program(build, regs_in=None, xlen=XLEN, data=None, check_vcs=True):
    """Assemble via ``build(asm)``, run to mret, return final state."""
    asm = Assembler(base=0x1000, xlen=xlen)
    if data:
        for name, addr, size, shape in data:
            asm.data_symbol(name, addr, size, shape)
    build(asm)
    asm.mret()
    image = asm.assemble()
    mem = build_memory(image, addr_width=xlen)
    interp = RiscvInterp(image, xlen=xlen)
    with new_context() as ctx:
        cpu = CpuState.symbolic(xlen, 0x1000, mem)
        for reg, value in (regs_in or {}).items():
            from repro.riscv import reg_num

            cpu.set_reg(reg_num(reg), bv_val(value, xlen))
        final = run_interpreter(interp, cpu).merged()
        if check_vcs:
            assert verify_vcs(ctx).proved, "implicit VCs failed"
    return final


def reg_val(state, name):
    from repro.riscv import reg_num

    return state.reg(reg_num(name)).as_int()


class TestAluRegister:
    def test_add_sub_wrap(self):
        final = run_program(
            lambda a: (a.add("a2", "a0", "a1"), a.sub("a3", "a0", "a1")),
            {"a0": MASK, "a1": 2},
        )
        assert reg_val(final, "a2") == 1
        assert reg_val(final, "a3") == MASK - 2

    def test_logic(self):
        final = run_program(
            lambda a: (a.and_("a2", "a0", "a1") if False else a.emit("and", rd=12, rs1=10, rs2=11),
                       a.emit("or", rd=13, rs1=10, rs2=11),
                       a.xor("a4", "a0", "a1")),
            {"a0": 0xF0F0, "a1": 0x0FF0},
        )
        assert reg_val(final, "a2") == 0x00F0
        assert reg_val(final, "a3") == 0xFFF0
        assert reg_val(final, "a4") == 0xFF00

    def test_slt_sltu(self):
        final = run_program(
            lambda a: (a.slt("a2", "a0", "a1"), a.sltu("a3", "a0", "a1")),
            {"a0": MASK, "a1": 1},  # signed: -1 < 1; unsigned: huge > 1
        )
        assert reg_val(final, "a2") == 1
        assert reg_val(final, "a3") == 0

    def test_shifts_by_register(self):
        final = run_program(
            lambda a: (a.sll("a2", "a0", "a1"), a.srl("a3", "a0", "a1"), a.sra("a4", "a0", "a1")),
            {"a0": 1 << 63, "a1": 4},
        )
        assert reg_val(final, "a2") == 0
        assert reg_val(final, "a3") == 1 << 59
        assert reg_val(final, "a4") == 0xF8 << 56

    def test_shift_amount_masked_to_xlen(self):
        # Shifting by 64+4 behaves like shifting by 4 (low 6 bits).
        final = run_program(lambda a: a.sll("a2", "a0", "a1"), {"a0": 1, "a1": 68})
        assert reg_val(final, "a2") == 16


class TestMulDiv:
    def test_mul(self):
        final = run_program(lambda a: a.mul("a2", "a0", "a1"), {"a0": MASK, "a1": 3})
        assert reg_val(final, "a2") == MASK - 2  # -1 * 3 = -3

    def test_mulh_signed(self):
        final = run_program(lambda a: a.mulh("a2", "a0", "a1"), {"a0": MASK, "a1": 2})
        assert reg_val(final, "a2") == MASK  # (-1 * 2) >> 64 = -1

    def test_mulhu(self):
        final = run_program(lambda a: a.mulhu("a2", "a0", "a1"), {"a0": MASK, "a1": 2})
        assert reg_val(final, "a2") == 1

    def test_div_by_zero(self):
        final = run_program(
            lambda a: (a.div("a2", "a0", "a1"), a.divu("a3", "a0", "a1"),
                       a.rem("a4", "a0", "a1"), a.remu("a5", "a0", "a1")),
            {"a0": 7, "a1": 0},
        )
        assert reg_val(final, "a2") == MASK  # -1
        assert reg_val(final, "a3") == MASK
        assert reg_val(final, "a4") == 7
        assert reg_val(final, "a5") == 7

    def test_div_overflow(self):
        int_min = 1 << 63
        final = run_program(
            lambda a: (a.div("a2", "a0", "a1"), a.rem("a3", "a0", "a1")),
            {"a0": int_min, "a1": MASK},  # INT_MIN / -1
        )
        assert reg_val(final, "a2") == int_min
        assert reg_val(final, "a3") == 0

    def test_signed_division(self):
        final = run_program(
            lambda a: (a.div("a2", "a0", "a1"), a.rem("a3", "a0", "a1")),
            {"a0": (-7) & MASK, "a1": 2},
        )
        assert reg_val(final, "a2") == (-3) & MASK  # truncates toward zero
        assert reg_val(final, "a3") == (-1) & MASK


class TestWForms:
    def test_addw_sign_extends(self):
        final = run_program(lambda a: a.addw("a2", "a0", "a1"), {"a0": 0x7FFFFFFF, "a1": 1})
        assert reg_val(final, "a2") == 0xFFFFFFFF80000000

    def test_subw(self):
        final = run_program(lambda a: a.subw("a2", "a0", "a1"), {"a0": 0, "a1": 1})
        assert reg_val(final, "a2") == MASK

    def test_sraiw(self):
        final = run_program(lambda a: a.sraiw("a2", "a0", 4), {"a0": 0x80000000})
        assert reg_val(final, "a2") == 0xFFFFFFFFF8000000

    def test_addiw_truncates_then_extends(self):
        final = run_program(lambda a: a.addiw("a2", "a0", 0), {"a0": 0x1_FFFF_FFFF})
        assert reg_val(final, "a2") == MASK


class TestImmediates:
    def test_lui_sign_extends_rv64(self):
        final = run_program(lambda a: a.lui("a2", 0x80000000 & 0xFFFFF000))
        assert reg_val(final, "a2") == 0xFFFFFFFF80000000

    def test_li_pseudo_large(self):
        final = run_program(lambda a: a.li("a2", 0x12345))
        assert reg_val(final, "a2") == 0x12345

    def test_li_pseudo_negative(self):
        final = run_program(lambda a: a.li("a2", -5))
        assert reg_val(final, "a2") == MASK - 4

    def test_li_with_high_low_carry(self):
        # value whose low 12 bits >= 0x800 forces the lui+addi carry fix
        final = run_program(lambda a: a.li("a2", 0x12FFF))
        assert reg_val(final, "a2") == 0x12FFF

    def test_auipc(self):
        final = run_program(lambda a: a.auipc("a2", 0x1000))
        assert reg_val(final, "a2") == 0x1000 + 0x1000  # base + imm

    def test_x0_writes_ignored(self):
        final = run_program(lambda a: a.addi("zero", "a0", 5), {"a0": 7})
        assert reg_val(final, "zero") == 0


class TestMemory:
    DATA = [("buf", 0x8000, 32, ("array", 4, ("cell", 8)))]

    def test_store_load_roundtrip(self):
        def build(a):
            a.la("t0", "buf")
            a.sd("a0", 8, "t0")
            a.ld("a2", 8, "t0")

        final = run_program(build, {"a0": 0x1122334455667788}, data=self.DATA)
        assert reg_val(final, "a2") == 0x1122334455667788

    def test_byte_access_sign_extension(self):
        def build(a):
            a.la("t0", "buf")
            a.sd("a0", 0, "t0")
            a.lb("a2", 0, "t0")
            a.lbu("a3", 0, "t0")
            a.lh("a4", 0, "t0")
            a.lhu("a5", 0, "t0")
            a.lw("a6", 0, "t0")
            a.lwu("a7", 0, "t0")

        final = run_program(build, {"a0": 0xFFFF8881}, data=self.DATA)
        assert reg_val(final, "a2") == (-127) & MASK  # 0x81 sign-extended
        assert reg_val(final, "a3") == 0x81
        assert reg_val(final, "a4") == 0xFFFFFFFFFFFF8881
        assert reg_val(final, "a5") == 0x8881
        assert reg_val(final, "a6") == 0xFFFFFFFFFFFF8881
        assert reg_val(final, "a7") == 0xFFFF8881

    def test_symbolic_index_store(self):
        """A store through a symbolic index exercises the §4 memory
        optimization end-to-end through real RISC-V code."""
        def build(a):
            a.la("t0", "buf")
            a.slli("t1", "a0", 3)  # idx * 8
            a.add("t0", "t0", "t1")
            a.sd("a1", 0, "t0")

        asm = Assembler(base=0x1000, xlen=XLEN)
        asm.data_symbol("buf", 0x8000, 32, ("array", 4, ("cell", 8)))
        build(asm)
        asm.mret()
        image = asm.assemble()
        interp = RiscvInterp(image, xlen=XLEN)
        with new_context() as ctx:
            cpu = CpuState.symbolic(XLEN, 0x1000, build_memory(image, addr_width=XLEN))
            idx, val = cpu.reg(10), cpu.reg(11)
            final = run_interpreter(interp, cpu).merged()
            third = final.mem.region("buf").block.load(bv_val(16, XLEN), 8, final.mem.opts)
            assert prove(sym_implies(idx == 2, third == val)).proved
            # The bounds side condition fails without an index check...
            assert not verify_vcs(ctx).proved
        with new_context() as ctx:
            cpu = CpuState.symbolic(XLEN, 0x1000, build_memory(image, addr_width=XLEN))
            idx = cpu.reg(10)
            with ctx.under(idx < 4):
                run_interpreter(interp, cpu).merged()
            # ...and holds with it.
            assert verify_vcs(ctx).proved


class TestControlFlow:
    def test_branch_taken_and_merge(self):
        def build(a):
            a.beqz("a0", "iszero")
            a.li("a2", 1)
            a.j("done")
            a.label("iszero")
            a.li("a2", 2)
            a.label("done")

        assert reg_val(run_program(build, {"a0": 0}), "a2") == 2
        assert reg_val(run_program(build, {"a0": 5}), "a2") == 1

    def test_bounded_loop(self):
        """Sum 1..5 with a loop: finite trip count, engine terminates."""
        def build(a):
            a.li("a2", 0)
            a.li("t0", 5)
            a.label("loop")
            a.beqz("t0", "done")
            a.add("a2", "a2", "t0")
            a.addi("t0", "t0", -1)
            a.j("loop")
            a.label("done")

        assert reg_val(run_program(build, {}), "a2") == 15

    def test_function_call(self):
        def build(a):
            a.call("double")
            a.j("done")
            a.label("double")
            a.slli("a0", "a0", 1)
            a.ret()
            a.label("done")
            a.mv("a2", "a0")

        assert reg_val(run_program(build, {"a0": 21}), "a2") == 42

    def test_symbolic_branch_produces_ite(self):
        asm = Assembler(base=0x1000, xlen=XLEN)
        asm.beqz("a0", "iszero")
        asm.li("a2", 1)
        asm.j("done")
        asm.label("iszero")
        asm.li("a2", 2)
        asm.label("done")
        asm.mret()
        image = asm.assemble()
        with new_context():
            cpu = CpuState.symbolic(XLEN, 0x1000, Memory([], addr_width=XLEN))
            a0 = cpu.reg(10)
            paths = run_interpreter(RiscvInterp(image, xlen=XLEN), cpu)
            final = paths.merged()
            assert len(paths.finals) == 1  # merged at the join
            assert prove(sym_implies(a0 == 0, final.reg(12) == 2)).proved
            assert prove(sym_implies(a0 != 0, final.reg(12) == 1)).proved


class TestCsr:
    def test_csrrw_swap(self):
        def build(a):
            a.csrrw("a2", "mscratch", "a0")
            a.csrrw("a3", "mscratch", "a1")

        final = run_program(build, {"a0": 0x111, "a1": 0x222})
        assert reg_val(final, "a3") == 0x111
        assert final.csr("mscratch").as_int() == 0x222

    def test_csrrs_set_bits(self):
        def build(a):
            a.csrrw("zero", "mstatus", "a0")
            a.csrrs("a2", "mstatus", "a1")

        final = run_program(build, {"a0": 0x8, "a1": 0x2})
        assert final.csr("mstatus").as_int() == 0xA
        assert reg_val(final, "a2") == 0x8

    def test_csrrc_clear_bits(self):
        def build(a):
            a.csrrw("zero", "mstatus", "a0")
            a.csrrc("zero", "mstatus", "a1")

        final = run_program(build, {"a0": 0xF, "a1": 0x3})
        assert final.csr("mstatus").as_int() == 0xC

    def test_csr_immediates(self):
        def build(a):
            a.csrrwi("zero", "mscratch", 5)
            a.csrrsi("zero", "mscratch", 2)
            a.csrrci("zero", "mscratch", 1)

        final = run_program(build, {})
        assert final.csr("mscratch").as_int() == 6

    def test_mret_jumps_to_mepc(self):
        asm = Assembler(base=0x1000, xlen=XLEN)
        asm.mret()
        image = asm.assemble()
        with new_context():
            cpu = CpuState.symbolic(XLEN, 0x1000, Memory([], addr_width=XLEN))
            final = run_interpreter(RiscvInterp(image, xlen=XLEN), cpu).merged()
            assert prove(final.pc == cpu.csr("mepc")).proved
            assert final.exited


class TestFaults:
    def test_ecall_in_machine_mode_flagged(self):
        asm = Assembler(base=0x1000, xlen=XLEN)
        asm.ecall()
        image = asm.assemble()
        with new_context() as ctx:
            cpu = CpuState.symbolic(XLEN, 0x1000, Memory([], addr_width=XLEN))
            run_interpreter(RiscvInterp(image, xlen=XLEN), cpu)
            assert not verify_vcs(ctx).proved

    def test_fetch_outside_text_raises(self):
        asm = Assembler(base=0x1000, xlen=XLEN)
        asm.j(0x100)  # jump past the end
        image = asm.assemble()
        with new_context():
            cpu = CpuState.symbolic(XLEN, 0x1000, Memory([], addr_width=XLEN))
            with pytest.raises(KeyError):
                run_interpreter(RiscvInterp(image, xlen=XLEN), cpu)


class TestRv32:
    def test_basic_alu_rv32(self):
        final = run_program(lambda a: a.add("a2", "a0", "a1"), {"a0": 0xFFFFFFFF, "a1": 2}, xlen=32)
        assert reg_val(final, "a2") == 1

    def test_li_rv32(self):
        final = run_program(lambda a: a.li("a2", 0xDEADB000 - (1 << 32)), {}, xlen=32)
        assert reg_val(final, "a2") == 0xDEADB000


class TestDecodeOnce:
    def test_two_interpreters_over_one_image_decode_each_word_once(self):
        """Decoding is a function of the word: a second interpreter over
        the same image fetches every instruction without decoding it."""
        from repro.riscv import decode_validated

        asm = Assembler(base=0x1000, xlen=XLEN)
        asm.add("a2", "a0", "a1")
        asm.sub("a3", "a2", "a1")
        asm.xor("a4", "a3", "a0")
        asm.mret()
        image = asm.assemble()
        decode_validated.cache_clear()
        for _ in range(2):
            interp = RiscvInterp(image, xlen=XLEN)
            with new_context():
                cpu = CpuState.symbolic(XLEN, 0x1000, Memory([], addr_width=XLEN))
                for addr in sorted(image.words):
                    cpu.pc = bv_val(addr, XLEN)
                    interp.fetch(cpu)
        info = decode_validated.cache_info()
        assert info.misses == len(set(image.words.values())) == 4
        assert info.hits == 4
