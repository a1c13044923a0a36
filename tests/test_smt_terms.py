"""Unit tests for term construction, interning, and constant folding."""

import pytest

from repro.smt import (
    BOOL,
    bv_sort,
    mk_and,
    mk_bool,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvashr,
    mk_bvlshr,
    mk_bvmul,
    mk_bvneg,
    mk_bvnot,
    mk_bvor,
    mk_bvshl,
    mk_bvsub,
    mk_bvudiv,
    mk_bvurem,
    mk_bvxor,
    mk_concat,
    mk_eq,
    mk_extract,
    mk_false,
    mk_implies,
    mk_ite,
    mk_not,
    mk_or,
    mk_sext,
    mk_slt,
    mk_true,
    mk_ule,
    mk_ult,
    mk_var,
    mk_xor,
    mk_zext,
    serialize_terms,
    serialize_with_prefix,
    to_signed,
)


def bv8(v):
    return mk_bv(v, 8)


A = mk_var("term_a", bv_sort(8))
B = mk_var("term_b", bv_sort(8))
P = mk_var("term_p", BOOL)
Q = mk_var("term_q", BOOL)


class TestInterning:
    def test_same_construction_same_object(self):
        assert mk_bvadd(A, B) is mk_bvadd(A, B)

    def test_commutative_canonicalization(self):
        assert mk_bvand(A, B) is mk_bvand(B, A)
        assert mk_bvor(A, B) is mk_bvor(B, A)
        assert mk_bvxor(A, B) is mk_bvxor(B, A)
        assert mk_bvmul(A, B) is mk_bvmul(B, A)
        assert mk_eq(A, B) is mk_eq(B, A)

    def test_constants_interned(self):
        assert bv8(5) is bv8(5)
        assert mk_true() is mk_bool(True)


class TestBoolFolding:
    def test_not_not(self):
        assert mk_not(mk_not(P)) is P

    def test_and_identity(self):
        assert mk_and(P, mk_true()) is P
        assert mk_and(P, mk_false()) is mk_false()
        assert mk_and() is mk_true()
        assert mk_and(P, P) is P

    def test_and_complement(self):
        assert mk_and(P, mk_not(P)) is mk_false()

    def test_or_identity(self):
        assert mk_or(P, mk_false()) is P
        assert mk_or(P, mk_true()) is mk_true()
        assert mk_or(P, mk_not(P)) is mk_true()

    def test_and_flattening(self):
        inner = mk_and(P, Q)
        outer = mk_and(inner, mk_not(Q))
        assert outer is mk_false()

    def test_xor(self):
        assert mk_xor(P, P) is mk_false()
        assert mk_xor(P, mk_false()) is P
        assert mk_xor(P, mk_true()) is mk_not(P)

    def test_implies(self):
        assert mk_implies(mk_false(), P) is mk_true()
        assert mk_implies(mk_true(), P) is P

    def test_ite_folding(self):
        assert mk_ite(mk_true(), A, B) is A
        assert mk_ite(mk_false(), A, B) is B
        assert mk_ite(P, A, A) is A
        assert mk_ite(P, mk_true(), mk_false()) is P
        assert mk_ite(P, mk_false(), mk_true()) is mk_not(P)

    def test_ite_negated_condition(self):
        assert mk_ite(mk_not(P), A, B) is mk_ite(P, B, A)

    def test_nested_ite_same_condition(self):
        inner = mk_ite(P, A, B)
        assert mk_ite(P, inner, B) is inner
        # ite(p, a, ite(p, _, b)) == ite(p, a, b)
        assert mk_ite(P, A, mk_ite(P, B, bv8(3))) is mk_ite(P, A, bv8(3))


class TestEqFolding:
    def test_reflexive(self):
        assert mk_eq(A, A) is mk_true()

    def test_constants(self):
        assert mk_eq(bv8(3), bv8(3)) is mk_true()
        assert mk_eq(bv8(3), bv8(4)) is mk_false()

    def test_eq_over_ite_with_const(self):
        t = mk_ite(P, bv8(1), bv8(2))
        assert mk_eq(t, bv8(1)) is P
        assert mk_eq(t, bv8(2)) is mk_not(P)
        assert mk_eq(t, bv8(3)) is mk_false()

    def test_sort_mismatch_raises(self):
        with pytest.raises(TypeError):
            mk_eq(A, mk_bv(0, 16))


class TestArithFolding:
    def test_add(self):
        assert mk_bvadd(bv8(200), bv8(100)) is bv8(44)
        assert mk_bvadd(A, bv8(0)) is A

    def test_add_reassociation(self):
        t = mk_bvadd(mk_bvadd(A, bv8(3)), bv8(5))
        assert t is mk_bvadd(A, bv8(8))

    def test_sub(self):
        assert mk_bvsub(A, A) is bv8(0)
        assert mk_bvsub(A, bv8(0)) is A
        assert mk_bvsub(bv8(3), bv8(5)) is bv8(254)

    def test_sub_becomes_add_of_negated_const(self):
        assert mk_bvsub(A, bv8(1)) is mk_bvadd(A, bv8(255))

    def test_mul(self):
        assert mk_bvmul(A, bv8(0)) is bv8(0)
        assert mk_bvmul(A, bv8(1)) is A
        assert mk_bvmul(bv8(20), bv8(20)) is bv8(144)

    def test_mul_power_of_two_strength_reduction(self):
        assert mk_bvmul(A, bv8(8)) is mk_bvshl(A, bv8(3))

    def test_udiv_urem_by_constants(self):
        assert mk_bvudiv(bv8(10), bv8(3)) is bv8(3)
        assert mk_bvurem(bv8(10), bv8(3)) is bv8(1)
        assert mk_bvudiv(A, bv8(1)) is A
        assert mk_bvurem(A, bv8(1)) is bv8(0)
        assert mk_bvudiv(A, bv8(4)) is mk_bvlshr(A, bv8(2))
        assert mk_bvurem(A, bv8(4)) is mk_bvand(A, bv8(3))

    def test_div_by_zero_smtlib(self):
        assert mk_bvudiv(bv8(7), bv8(0)) is bv8(255)
        assert mk_bvurem(bv8(7), bv8(0)) is bv8(7)

    def test_neg_and_not(self):
        assert mk_bvneg(bv8(1)) is bv8(255)
        assert mk_bvnot(bv8(0)) is bv8(255)
        assert mk_bvnot(mk_bvnot(A)) is A


class TestShiftFolding:
    def test_shl(self):
        assert mk_bvshl(bv8(1), bv8(4)) is bv8(16)
        assert mk_bvshl(A, bv8(0)) is A
        assert mk_bvshl(A, bv8(8)) is bv8(0)
        assert mk_bvshl(A, bv8(255)) is bv8(0)

    def test_lshr(self):
        assert mk_bvlshr(bv8(0x80), bv8(7)) is bv8(1)
        assert mk_bvlshr(A, bv8(9)) is bv8(0)

    def test_ashr(self):
        assert mk_bvashr(bv8(0x80), bv8(7)) is bv8(0xFF)
        assert mk_bvashr(bv8(0x40), bv8(7)) is bv8(0)
        assert mk_bvashr(bv8(0x80), bv8(100)) is bv8(0xFF)


class TestSerializeWithPrefix:
    def test_each_result_is_serialize_terms_of_prefix_and_last(self):
        x = mk_bvadd(A, B)
        prefix = [mk_ult(x, bv8(9)), mk_or(P, Q)]
        lasts = [
            mk_not(mk_eq(x, A)),  # shares the prefix's bvadd
            mk_and(P, mk_ult(A, B)),  # shares a prefix variable
            mk_ult(x, bv8(9)),  # entirely inside the prefix
            mk_xor(P, mk_eq(mk_bvmul(A, B), bv8(3))),
        ]
        got = serialize_with_prefix(prefix, lasts)
        assert got == [serialize_terms([*prefix, last]) for last in lasts]
        assert serialize_with_prefix([], lasts) == [serialize_terms([last]) for last in lasts]
        assert serialize_with_prefix(prefix, []) == []


class TestStructural:
    def test_concat_extract(self):
        assert mk_concat(bv8(0xAB), bv8(0xCD)) is mk_bv(0xABCD, 16)
        assert mk_extract(7, 0, mk_bv(0xABCD, 16)) is bv8(0xCD)
        assert mk_extract(15, 8, mk_bv(0xABCD, 16)) is bv8(0xAB)

    def test_extract_full_width_is_identity(self):
        assert mk_extract(7, 0, A) is A

    def test_extract_of_extract(self):
        w16 = mk_var("term_w16", bv_sort(16))
        inner = mk_extract(11, 4, w16)
        assert mk_extract(3, 0, inner) is mk_extract(7, 4, w16)

    def test_extract_of_concat(self):
        both = mk_concat(A, B)
        assert mk_extract(7, 0, both) is B
        assert mk_extract(15, 8, both) is A

    def test_extract_of_zext(self):
        z = mk_zext(A, 8)
        assert mk_extract(7, 0, z) is A
        assert mk_extract(15, 8, z) is bv8(0)

    def test_zext_sext(self):
        assert mk_zext(bv8(0xFF), 8) is mk_bv(0xFF, 16)
        assert mk_sext(bv8(0xFF), 8) is mk_bv(0xFFFF, 16)
        assert mk_zext(A, 0) is A
        assert mk_zext(mk_zext(A, 4), 4) is mk_zext(A, 8)

    def test_extract_range_checks(self):
        with pytest.raises(ValueError):
            mk_extract(8, 0, A)
        with pytest.raises(ValueError):
            mk_extract(3, 5, A)


class TestComparisons:
    def test_ult_constants(self):
        assert mk_ult(bv8(3), bv8(4)) is mk_true()
        assert mk_ult(bv8(4), bv8(3)) is mk_false()
        assert mk_ult(A, bv8(0)) is mk_false()

    def test_ule_zero(self):
        assert mk_ule(bv8(0), A) is mk_true()

    def test_slt_signed(self):
        assert mk_slt(bv8(0xFF), bv8(0)) is mk_true()  # -1 < 0
        assert mk_slt(bv8(0), bv8(0xFF)) is mk_false()

    def test_reflexive(self):
        assert mk_ult(A, A) is mk_false()
        assert mk_ule(A, A) is mk_true()
        assert mk_slt(A, A) is mk_false()


class TestSignedHelpers:
    def test_to_signed(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x7F, 8) == 127
        assert to_signed(0x80, 8) == -128
