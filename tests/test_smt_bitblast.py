"""Differential tests: bit-blasted semantics vs. the reference evaluator.

Every bitvector operation is checked two ways:
  1. hypothesis property tests comparing ``eval_term`` against Python
     integer semantics, and
  2. solver round-trips: assert ``op(a, b) == var`` with concrete a, b
     and read the var back out of the model.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    BOOL,
    SAT,
    bv_sort,
    check_sat,
    eval_term,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvashr,
    mk_bvlshr,
    mk_bvmul,
    mk_bvneg,
    mk_bvnot,
    mk_bvor,
    mk_bvsdiv,
    mk_bvshl,
    mk_bvsrem,
    mk_bvsub,
    mk_bvudiv,
    mk_bvurem,
    mk_bvxor,
    mk_concat,
    mk_eq,
    mk_extract,
    mk_ite,
    mk_not,
    mk_sext,
    mk_sle,
    mk_slt,
    mk_ule,
    mk_ult,
    mk_var,
    mk_zext,
    to_signed,
    to_unsigned,
)
from repro.smt.bitblast import BitBlaster

W = 8
MASK = (1 << W) - 1
bytes_ = st.integers(min_value=0, max_value=MASK)

VA = mk_var("bb_a", bv_sort(W))
VB = mk_var("bb_b", bv_sort(W))

BINOPS = {
    "bvadd": (mk_bvadd, lambda a, b: (a + b) & MASK),
    "bvsub": (mk_bvsub, lambda a, b: (a - b) & MASK),
    "bvmul": (mk_bvmul, lambda a, b: (a * b) & MASK),
    "bvand": (mk_bvand, lambda a, b: a & b),
    "bvor": (mk_bvor, lambda a, b: a | b),
    "bvxor": (mk_bvxor, lambda a, b: a ^ b),
    "bvudiv": (mk_bvudiv, lambda a, b: MASK if b == 0 else a // b),
    "bvurem": (mk_bvurem, lambda a, b: a if b == 0 else a % b),
    "bvshl": (mk_bvshl, lambda a, b: (a << b) & MASK if b < W else 0),
    "bvlshr": (mk_bvlshr, lambda a, b: a >> b if b < W else 0),
    "bvashr": (mk_bvashr, lambda a, b: to_unsigned(to_signed(a, W) >> min(b, W - 1), W)),
}

PREDOPS = {
    "ult": (mk_ult, lambda a, b: a < b),
    "ule": (mk_ule, lambda a, b: a <= b),
    "slt": (mk_slt, lambda a, b: to_signed(a, W) < to_signed(b, W)),
    "sle": (mk_sle, lambda a, b: to_signed(a, W) <= to_signed(b, W)),
}


def _sdiv_ref(a, b):
    sa, sb = to_signed(a, W), to_signed(b, W)
    if sb == 0:
        return MASK if sa >= 0 else 1
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return to_unsigned(q, W)


def _srem_ref(a, b):
    sa, sb = to_signed(a, W), to_signed(b, W)
    if sb == 0:
        return a
    r = abs(sa) % abs(sb)
    return to_unsigned(-r if sa < 0 else r, W)


BINOPS["bvsdiv"] = (mk_bvsdiv, _sdiv_ref)
BINOPS["bvsrem"] = (mk_bvsrem, _srem_ref)


@given(a=bytes_, b=bytes_)
@settings(max_examples=60, deadline=None)
def test_evaluator_matches_reference(a, b):
    env = {"bb_a": a, "bb_b": b}
    for name, (mk, ref) in BINOPS.items():
        got = eval_term(mk(VA, VB), env)
        assert got == ref(a, b), f"{name}({a:#x}, {b:#x}) = {got:#x}, want {ref(a, b):#x}"
    for name, (mk, ref) in PREDOPS.items():
        assert eval_term(mk(VA, VB), env) == ref(a, b), name


@given(a=bytes_, b=bytes_)
@settings(max_examples=12, deadline=None)
def test_bitblast_matches_reference(a, b):
    """Solve op(a, b) == out with concrete inputs; read out of the model."""
    out = mk_var("bb_out", bv_sort(W))
    ta, tb = mk_bv(a, W), mk_bv(b, W)
    for name, (mk, ref) in BINOPS.items():
        # Force a non-trivial circuit by keeping one symbolic operand
        # pinned with an equality rather than folding to a constant.
        constraint = mk_eq(mk(VA, VB), out)
        result = check_sat(constraint, mk_eq(VA, ta), mk_eq(VB, tb))
        assert result.is_sat, name
        assert result.model["bb_out"] == ref(a, b), (
            f"{name}({a:#x}, {b:#x}): model {result.model['bb_out']:#x}, want {ref(a, b):#x}"
        )


@given(a=bytes_, b=bytes_)
@settings(max_examples=12, deadline=None)
def test_bitblast_predicates(a, b):
    ta, tb = mk_bv(a, W), mk_bv(b, W)
    for name, (mk, ref) in PREDOPS.items():
        pred = mk(VA, VB)
        want = ref(a, b)
        positive = check_sat(pred if want else mk_not(pred), mk_eq(VA, ta), mk_eq(VB, tb))
        negative = check_sat(mk_not(pred) if want else pred, mk_eq(VA, ta), mk_eq(VB, tb))
        assert positive.is_sat, name
        assert negative.is_unsat, name


@given(a=bytes_)
@settings(max_examples=25, deadline=None)
def test_unary_and_structural(a):
    env = {"bb_a": a}
    assert eval_term(mk_bvnot(VA), env) == a ^ MASK
    assert eval_term(mk_bvneg(VA), env) == (-a) & MASK
    assert eval_term(mk_zext(VA, 8), env) == a
    assert eval_term(mk_sext(VA, 8), env) == to_unsigned(to_signed(a, W), 16)
    assert eval_term(mk_extract(3, 0, VA), env) == a & 0xF
    assert eval_term(mk_extract(7, 4, VA), env) == a >> 4
    assert eval_term(mk_concat(VA, VA), env) == (a << 8) | a


def test_bitblast_sext_via_solver():
    out = mk_var("bb_sext_out", bv_sort(16))
    r = check_sat(mk_eq(out, mk_sext(VA, 8)), mk_eq(VA, mk_bv(0x80, 8)))
    assert r.is_sat
    assert r.model["bb_sext_out"] == 0xFF80


def test_bitblast_shift_symbolic_amount():
    """Shift by a symbolic amount covers the barrel shifter stages."""
    amt = mk_var("bb_amt", bv_sort(W))
    t = mk_bvshl(mk_bv(1, W), amt)
    r = check_sat(mk_eq(t, mk_bv(0x20, W)))
    assert r.is_sat and r.model["bb_amt"] == 5
    # No amount produces 3 from shifting 1.
    assert check_sat(mk_eq(t, mk_bv(3, W))).is_unsat


def test_bitblast_overshift_semantics():
    amt = mk_var("bb_amt2", bv_sort(W))
    t = mk_bvshl(VA, amt)
    r = check_sat(mk_eq(amt, mk_bv(200, W)), mk_not(mk_eq(t, mk_bv(0, W))))
    assert r.is_unsat  # overshift always yields zero


def test_bitblast_width_3_nonpow2_overshift():
    """Width 3 exercises the amt >= w comparator in the shifter."""
    v = mk_var("bb_w3", bv_sort(3))
    amt = mk_var("bb_w3amt", bv_sort(3))
    t = mk_bvlshr(v, amt)
    # amount 3..7 must give zero
    r = check_sat(mk_ule(mk_bv(3, 3), amt), mk_not(mk_eq(t, mk_bv(0, 3))))
    assert r.is_unsat


def test_division_by_zero_solver_semantics():
    b = mk_var("bb_divzero", bv_sort(W))
    q = mk_bvudiv(VA, b)
    r = check_sat(mk_eq(b, mk_bv(0, W)), mk_not(mk_eq(q, mk_bv(MASK, W))))
    assert r.is_unsat


def test_uf_consistency():
    from repro.smt import mk_apply

    f_a = mk_apply("bb_f", bv_sort(W), [VA])
    f_b = mk_apply("bb_f", bv_sort(W), [VB])
    # a == b but f(a) != f(b) must be unsat.
    r = check_sat(mk_eq(VA, VB), mk_not(mk_eq(f_a, f_b)))
    assert r.is_unsat
    # f(a) != f(b) alone is satisfiable.
    assert check_sat(mk_not(mk_eq(f_a, f_b))).is_sat


# -- carry-in fusion -----------------------------------------------------------


def _check_blast(term, k, inputs, ref, fused):
    """``term``'s blasted circuit computes ``ref`` of its ``inputs`` on
    every assignment (one solve each, every input bit fixed by an
    assumption), and its 0/1 operand ``k`` was (``fused``) or was not
    blasted as a carry-in: a fused operand never gets bits of its own."""
    blaster = BitBlaster()
    out = blaster.bv_bits(term)
    assert (k.tid not in blaster._bv_cache) is fused, term
    in_bits = [[blaster.bool_lit(v)] if v.sort is BOOL else blaster.bv_bits(v) for v in inputs]
    sat = blaster.sat
    for values in itertools.product(*(range(1 << len(bits)) for bits in in_bits)):
        assumptions = [
            lit if (value >> i) & 1 else -lit
            for bits, value in zip(in_bits, values)
            for i, lit in enumerate(bits)
        ]
        assert sat.solve(assumptions) == SAT
        got = sum(1 << i for i, lit in enumerate(out) if sat.value(lit))
        want = ref(*values) % (1 << term.width)
        assert got == want, f"{term!r} at {values}: blasted {got:#x}, want {want:#x}"


def _carries(w):
    """Each 0/1 operand shape at width ``w``: the term, its input and
    its value as a function of the input's."""
    c = mk_var(f"fuse_c_{w}", BOOL)
    shapes = [
        (mk_ite(c, mk_bv(1, w), mk_bv(0, w)), c, lambda v: v),
        (mk_ite(c, mk_bv(0, w), mk_bv(1, w)), c, lambda v: 1 - v),
    ]
    if w > 1:  # a zext by 0 bits is the bit itself
        bit = mk_var(f"fuse_d_{w}", bv_sort(1))
        shapes.append((mk_zext(bit, w - 1), bit, lambda v: v))
    return shapes


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_fused_carry_chains_match_python(w):
    a = mk_var(f"fuse_a_{w}", bv_sort(w))
    b = mk_var(f"fuse_b_{w}", bv_sort(w))
    total, diff = mk_bvadd(a, b), mk_bvsub(a, b)
    for k, cin, kval in _carries(w):
        with_k = [a, b, cin]
        _check_blast(mk_bvadd(total, k), k, with_k, lambda x, y, v: x + y + kval(v), True)
        _check_blast(mk_bvadd(k, total), k, with_k, lambda x, y, v: x + y + kval(v), True)
        _check_blast(mk_bvsub(diff, k), k, with_k, lambda x, y, v: x - y - kval(v), True)
        _check_blast(mk_bvsub(a, k), k, [a, cin], lambda x, v: x - kval(v), True)
        for const in range(1, 1 << w):
            shifted = mk_bvadd(a, mk_bv(const, w))
            assert shifted.op == "bvadd"
            _check_blast(
                mk_bvsub(shifted, k), k, [a, cin], lambda x, v, K=const: x + K - kval(v), True
            )


@pytest.mark.parametrize("w", [2, 3, 4])
def test_unfused_shapes_match_python(w):
    """``ite(c, 2, 0)`` is no 0/1 operand, and a 0/1 operand added to
    a non-sum has no chain beneath it: both blast as two adders."""
    a = mk_var(f"nofuse_a_{w}", bv_sort(w))
    b = mk_var(f"nofuse_b_{w}", bv_sort(w))
    c = mk_var(f"nofuse_c_{w}", BOOL)
    two = mk_ite(c, mk_bv(2, w), mk_bv(0, w))
    total, diff = mk_bvadd(a, b), mk_bvsub(a, b)
    _check_blast(mk_bvadd(total, two), two, [a, b, c], lambda x, y, v: x + y + 2 * v, False)
    _check_blast(mk_bvsub(diff, two), two, [a, b, c], lambda x, y, v: x - y - 2 * v, False)
    one = mk_ite(c, mk_bv(1, w), mk_bv(0, w))
    _check_blast(mk_bvadd(a, one), one, [a, c], lambda x, v: x + v, False)
    _check_blast(mk_bvadd(one, a), one, [a, c], lambda x, v: x + v, False)
