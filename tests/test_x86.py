"""Tests for the x86-32 verifier: ALU/flags/shift semantics."""

import pytest

from repro.sym import (
    bv_val,
    fresh_bool,
    ite,
    new_context,
    prove,
    sym_false,
    sym_implies,
    sym_true,
)
from repro.x86 import X86State, mk, run_insns


def state_with(**regs) -> X86State:
    s = X86State.symbolic("tx")
    names = {"eax": 0, "ecx": 1, "edx": 2, "ebx": 3, "esi": 6, "edi": 7}
    for name, val in regs.items():
        s.regs[names[name]] = bv_val(val, 32)
    return s


def run(prog, cf=False, **regs):
    with new_context():
        state = state_with(**regs)
        state.cf = sym_true() if cf else sym_false()
        return run_insns(prog, state)


class TestAluAndFlags:
    def test_add_adc_pair_is_64bit_add(self):
        # (edx:eax) += (ecx:ebx) with carry propagation
        final = run(
            [mk("add", dst="eax", src="ebx"), mk("adc", dst="edx", src="ecx")],
            eax=0xFFFFFFFF, edx=0, ebx=1, ecx=0,
        )
        assert final.regs[0].as_int() == 0
        assert final.regs[2].as_int() == 1  # carry propagated

    def test_sub_sbb_pair_is_64bit_sub(self):
        final = run(
            [mk("sub", dst="eax", src="ebx"), mk("sbb", dst="edx", src="ecx")],
            eax=0, edx=1, ebx=1, ecx=0,
        )
        assert final.regs[0].as_int() == 0xFFFFFFFF
        assert final.regs[2].as_int() == 0  # borrow consumed

    def test_logic_clears_cf(self):
        final = run(
            [mk("add", dst="eax", src="ebx"), mk("and", dst="eax", src="ecx")],
            eax=0xFFFFFFFF, ebx=1, ecx=0xFF,
        )
        assert final.cf.as_bool() is False

    def test_neg(self):
        final = run([mk("neg", dst="eax")], eax=5)
        assert final.regs[0].as_int() == (-5) & 0xFFFFFFFF
        assert final.cf.as_bool() is True

    def test_mov_imm_and_reg(self):
        final = run([mk("mov", dst="eax", imm=0x1234), mk("mov", dst="ebx", src="eax")])
        assert final.regs[3].as_int() == 0x1234


class TestBorrows:
    """sub, sbb and cmp take CF from bit 32 of the 33-bit difference of
    the zero-extended operands, as add/adc take it from the sum."""

    @pytest.mark.parametrize(
        "mnemonic, eax, ebx, cf_in, result, cf_out",
        [
            ("sub", 0, 1, False, 0xFFFFFFFF, True),
            ("cmp", 0, 1, False, 0, True),
            ("sub", 5, 3, True, 2, False),
            ("sbb", 0, 0, True, 0xFFFFFFFF, True),
            ("sbb", 0, 0, False, 0, False),
            ("sbb", 0xFFFFFFFF, 0xFFFFFFFF, True, 0xFFFFFFFF, True),
            ("sbb", 0xFFFFFFFF, 0xFFFFFFFF, False, 0, False),
            ("sbb", 1, 0, True, 0, False),
        ],
    )
    def test_borrow_edges(self, mnemonic, eax, ebx, cf_in, result, cf_out):
        final = run([mk(mnemonic, dst="eax", src="ebx")], cf=cf_in, eax=eax, ebx=ebx)
        assert final.regs[0].as_int() == result
        assert final.cf.as_bool() is cf_out

    @pytest.mark.parametrize("mnemonic", ["sub", "sbb", "cmp"])
    @pytest.mark.parametrize(
        "src",
        [{"src": "ebx"}, {"imm": 0}, {"imm": 2047}, {"imm": 0xFFFFFFFF}],
        ids=["reg", "imm0", "imm2047", "imm-1"],
    )
    def test_cf_equals_the_comparator(self, mnemonic, src):
        """Over symbolic operands and incoming CF: ``a < b`` for sub
        and cmp, ``zext(a) < zext(b) + zext(borrow)`` for sbb."""
        with new_context():
            state = X86State.symbolic("tcf")
            state.cf = fresh_bool("tcf.cf")
            a, borrow = state.regs[0], ite(state.cf, bv_val(1, 32), bv_val(0, 32))
            b = state.regs[3] if "src" in src else bv_val(src["imm"], 32)
            final = run_insns([mk(mnemonic, dst="eax", **src)], state)
            if mnemonic == "sbb":
                want = a.zext(33) < b.zext(33) + borrow.zext(33)
            else:
                want = a < b
            assert prove(final.cf == want).proved


class TestShifts:
    def test_shl_shr_sar(self):
        final = run(
            [mk("shl", dst="eax", imm=4), mk("shr", dst="ebx", imm=4), mk("sar", dst="ecx", imm=4)],
            eax=1, ebx=0x80000000, ecx=0x80000000,
        )
        assert final.regs[0].as_int() == 16
        assert final.regs[3].as_int() == 0x08000000
        assert final.regs[1].as_int() == 0xF8000000

    def test_shift_count_masked_to_5_bits(self):
        # x86: shl by 32 is a no-op (count masked) — the behaviour the
        # buggy 64-bit LSH-by-32 path relied on incorrectly.
        final = run([mk("shl", dst="eax", imm=32)], eax=7)
        assert final.regs[0].as_int() == 7

    def test_shld_shrd(self):
        final = run(
            [mk("shld", dst="edx", src="eax", imm=8)],
            edx=0x00000001, eax=0xAB000000,
        )
        assert final.regs[2].as_int() == 0x000001AB
        final = run(
            [mk("shrd", dst="eax", src="edx", imm=8)],
            eax=0x000000AB, edx=0x00000001,
        )
        assert final.regs[0].as_int() == 0x01000000

    def test_cl_variant(self):
        final = run([mk("shl", dst="eax")], eax=1, ecx=5)
        assert final.regs[0].as_int() == 32


class TestMemoryAndBranches:
    def test_stack_slots(self):
        prog = [
            mk("mov_to_mem", mem=("ebp", 8), src="eax"),
            mk("mov", dst="ebx", mem=("ebp", 8)),
        ]
        final = run(prog, eax=0xCAFE)
        assert final.regs[3].as_int() == 0xCAFE

    def test_conditional_jump(self):
        prog = [
            mk("cmp", dst="eax", src="ebx"),
            mk("je", target=3),
            mk("mov", dst="ecx", imm=1),
            mk("mov", dst="edx", imm=2),
        ]
        final = run(prog, eax=5, ebx=5, ecx=0, edx=0)
        assert final.regs[1].as_int() != 1  # skipped
        assert final.regs[2].as_int() == 2
        final = run(prog, eax=5, ebx=6, ecx=0, edx=0)
        assert final.regs[1].as_int() == 1

    def test_symbolic_branch_merges(self):
        prog = [
            mk("cmp", dst="eax", src="ebx"),
            mk("jb", target=3),
            mk("mov", dst="ecx", imm=1),
            mk("mov", dst="edx", imm=2),
        ]
        with new_context():
            s = X86State.symbolic("txs")
            a, b = s.regs[0], s.regs[3]
            final = run_insns(prog, s)
            assert prove(sym_implies(a >= b, final.regs[1] == 1)).proved
