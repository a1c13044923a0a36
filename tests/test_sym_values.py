"""Tests for the symbolic-value layer (repro.sym)."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.smt import eval_term
from repro.sym import (
    MachineState,
    SymbolicBranchError,
    Union,
    bv_val,
    fresh_bool,
    fresh_bv,
    ite,
    merge,
    merge_states,
    named_bv,
    new_context,
    prove,
    solve,
    sym_false,
    sym_or,
    sym_true,
    verify_vcs,
)


class TestSymBV:
    def test_concrete_arithmetic(self):
        a = bv_val(10, 8)
        assert (a + 5).as_int() == 15
        assert (a - 11).as_int() == 255
        assert (a * 3).as_int() == 30
        assert (a << 4).as_int() == 160
        assert (a >> 1).as_int() == 5
        assert (~a).as_int() == 245
        assert (-a).as_int() == 246

    def test_reverse_operators(self):
        a = bv_val(10, 8)
        assert (5 + a).as_int() == 15
        assert (5 - a).as_int() == 251
        assert (3 * a).as_int() == 30

    def test_comparisons_unsigned_by_default(self):
        big = bv_val(0xFF, 8)
        small = bv_val(1, 8)
        assert (small < big).as_bool()
        assert not big.slt(small).as_bool() is False or True  # signed: -1 < 1
        assert big.slt(small).as_bool()  # -1 < 1 signed

    def test_branching_on_symbolic_raises(self):
        a = fresh_bv("tv_a", 8)
        with pytest.raises(SymbolicBranchError):
            bool(a == 0)
        with pytest.raises(SymbolicBranchError):
            bool(a)
        with pytest.raises(SymbolicBranchError):
            a.as_int()

    def test_branching_on_concrete_ok(self):
        assert bool(bv_val(1, 8) == 1)
        assert not bool(bv_val(1, 8) == 2)

    def test_width_mismatch_rejected(self):
        a = bv_val(1, 8)
        b = bv_val(1, 16)
        with pytest.raises(TypeError):
            a + b

    def test_resize(self):
        a = bv_val(0x80, 8)
        assert a.zext(16).as_int() == 0x80
        assert a.sext(16).as_int() == 0xFF80
        assert bv_val(0x1234, 16).trunc(8).as_int() == 0x34
        assert a.resize(16).as_int() == 0x80
        assert a.resize(16, signed=True).as_int() == 0xFF80
        assert a.resize(8) is a

    def test_named_bv_stable(self):
        assert named_bv("tv_stable", 8).term is named_bv("tv_stable", 8).term


class TestIteMerge:
    def test_ite_concrete_guard(self):
        a, b = bv_val(1, 8), bv_val(2, 8)
        assert ite(sym_true(), a, b) is a
        assert ite(sym_false(), a, b) is b

    def test_ite_symbolic(self):
        c = fresh_bool("tv_c")
        x = ite(c, bv_val(1, 8), bv_val(2, 8))
        assert not x.is_concrete
        assert prove(sym_or(x == 1, x == 2)).proved

    def test_merge_lists(self):
        c = fresh_bool("tv_c2")
        out = merge(c, [bv_val(1, 8), bv_val(2, 8)], [bv_val(1, 8), bv_val(3, 8)])
        assert out[0].as_int() == 1  # identical values stay concrete
        assert not out[1].is_concrete

    def test_merge_dicts(self):
        c = fresh_bool("tv_c3")
        out = merge(c, {"x": bv_val(1, 8)}, {"x": bv_val(2, 8)})
        assert prove(sym_or(out["x"] == 1, out["x"] == 2)).proved

    def test_merge_int_same(self):
        c = fresh_bool("tv_c4")
        assert merge(c, 5, 5) == 5

    def test_merge_distinct_ints_rejected(self):
        c = fresh_bool("tv_c5")
        with pytest.raises(TypeError):
            merge(c, 5, 6)

    def test_union_of_incompatible(self):
        c = fresh_bool("tv_c6")
        u = merge(c, "insn_a", "insn_b")
        assert isinstance(u, Union)
        assert len(u) == 2

    def test_union_flattening(self):
        c1, c2 = fresh_bool("tv_c7"), fresh_bool("tv_c8")
        u1 = merge(c1, "a", "b")
        u2 = merge(c2, u1, "c")
        assert isinstance(u2, Union)
        assert len(u2) == 3

    def test_merge_states_objects(self):
        class S(MachineState):
            __slots__ = ("x",)

            def __init__(self, x):
                self.x = x

        c = fresh_bool("tv_c9")
        merged = merge_states(c, S(bv_val(1, 8)), S(bv_val(2, 8)))
        assert prove(sym_or(merged.x == 1, merged.x == 2)).proved


class TestContextVCs:
    def test_bug_on_unconditional_fails(self):
        with new_context() as ctx:
            a = fresh_bv("tv_vc", 8)
            ctx.bug_on(a == 255, "overflow case")
            result = verify_vcs(ctx)
        assert not result.proved
        assert result.failed_vc.message == "overflow case"
        assert result.counterexample is not None

    def test_bug_on_under_path_guard(self):
        with new_context() as ctx:
            a = fresh_bv("tv_vc2", 8)
            with ctx.under(a < 10):
                ctx.bug_on(a == 255, "overflow case")
            assert verify_vcs(ctx).proved

    def test_assert_prop(self):
        with new_context() as ctx:
            a = fresh_bv("tv_vc3", 8)
            ctx.assert_prop((a & 1) <= 1, "low bit bounded")
            assert verify_vcs(ctx).proved

    def test_nested_contexts_isolated(self):
        with new_context() as outer:
            a = fresh_bv("tv_vc4", 8)
            with new_context() as inner:
                inner.bug_on(a == 0, "inner only")
            assert outer.vcs == []
            assert len(inner.vcs) == 1

    def test_trivially_true_vcs_skipped(self):
        with new_context() as ctx:
            ctx.assert_prop(sym_true(), "trivial")
            assert ctx.vcs == []
            assert verify_vcs(ctx).proved


class TestVcDedup:
    """A VC is recorded once per kind, message and formula."""

    def test_repeated_vc_is_recorded_once(self):
        with new_context() as ctx:
            a = fresh_bv("tv_dd", 8)
            for _ in range(3):
                ctx.bug_on(a == 7, "seven")
                ctx.assert_prop(a != 9, "not nine")
        assert [(vc.kind, vc.message) for vc in ctx.vcs] == [
            ("bug-on", "seven"),
            ("assert", "not nine"),
        ]

    def test_repeat_under_the_same_path_is_recorded_once(self):
        with new_context() as ctx:
            a, b = fresh_bv("tv_dd2a", 8), fresh_bv("tv_dd2b", 8)
            for _ in range(2):
                with ctx.under(b == 1):
                    ctx.bug_on(a == 7, "seven")
            assert len(ctx.vcs) == 1
            # Another path makes another formula.
            with ctx.under(b == 2):
                ctx.bug_on(a == 7, "seven")
            assert len(ctx.vcs) == 2

    def test_same_formula_under_another_message_or_kind_is_kept(self):
        with new_context() as ctx:
            a = fresh_bv("tv_dd3", 8)
            ctx.bug_on(a == 7, "seven")
            ctx.bug_on(a == 7, "also seven")
            ctx.assert_prop(a != 7, "seven")
        assert [(vc.kind, vc.message) for vc in ctx.vcs] == [
            ("bug-on", "seven"),
            ("bug-on", "also seven"),
            ("assert", "seven"),
        ]
        assert ctx.vcs[0].formula is ctx.vcs[1].formula is ctx.vcs[2].formula

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_repeat_names_the_first_instance(self, jobs):
        with new_context() as ctx:
            a, b = fresh_bv("tv_dd4a", 8), fresh_bv("tv_dd4b", 8)
            ctx.assert_prop((a & 1) <= 1, "low bit bounded")
            for _ in range(2):
                with ctx.under(b == 1):
                    ctx.bug_on(a == 5, "five")
                ctx.assert_prop((a | 1) != 0, "odd is nonzero")
            result = verify_vcs(ctx, jobs=jobs)
        assert [vc.message for vc in ctx.vcs] == ["low bit bounded", "five", "odd is nonzero"]
        assert not result.proved
        assert result.failed_vc is ctx.vcs[1]
        # The only counterexample of the first failing VC.
        assert result.counterexample.evaluate(a.term) == 5
        assert result.counterexample.evaluate(b.term) == 1


class TestSolveProve:
    def test_solve_returns_model(self):
        a = fresh_bv("tv_s", 8)
        model = solve(a * a == 49, a < 100)
        assert model is not None
        v = model[a.term.payload]
        assert (v * v) & 0xFF == 49

    def test_solve_unsat_returns_none(self):
        a = fresh_bv("tv_s2", 8)
        assert solve(a < 5, a > 10) is None

    def test_prove_with_assumptions(self):
        a = fresh_bv("tv_s3", 8)
        assert prove(a < 16, assumptions=[a < 10]).proved
        assert not prove(a < 5, assumptions=[a < 10]).proved


@given(x=st.integers(min_value=0, max_value=255), y=st.integers(min_value=0, max_value=255))
@settings(max_examples=40, deadline=None)
def test_symbv_ops_match_eval(x, y):
    a, b = named_bv("tv_hx", 8), named_bv("tv_hy", 8)
    env = {"tv_hx": x, "tv_hy": y}
    assert eval_term((a + b).term, env) == (x + y) & 0xFF
    assert eval_term((a ^ b).term, env) == x ^ y
    assert eval_term((a.udiv(b)).term, env) == (0xFF if y == 0 else x // y)
    assert eval_term((a == b).term, env) == (x == y)
    assert eval_term(a.slt(b).term, env) == (
        (x - 256 if x >= 128 else x) < (y - 256 if y >= 128 else y)
    )
