"""Tests for the specification library: spec structs, vector helpers,
theorems, refinement, safety helpers, and noninterference scaffolding."""

import pytest

from repro.core import (
    Action,
    NIPolicy,
    Refinement,
    count_where,
    prove_invariant_step,
    prove_nickel_ni,
    prove_step_consistency,
    reference_count_consistent,
    select,
    set_bank,
    spec_struct,
    theorem,
    update,
)
from repro.sym import SymBool, bv_val, ite, merge, sym_eq, sym_false, sym_implies, sym_true

Counter = spec_struct("counter", value=8, limit=8)
Pair = spec_struct("pair", a=8, b=8, flag=bool)
Vec = spec_struct("vec", items=(8, 3))


class TestSpecStruct:
    def test_fresh_fields_are_symbolic(self):
        s = Counter.fresh()
        assert not s.value.is_concrete

    def test_construct_with_values(self):
        s = Counter(value=bv_val(3, 8))
        assert s.value.as_int() == 3
        assert not s.limit.is_concrete

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            Counter(bogus=1)

    def test_vector_fields(self):
        v = Vec.fresh()
        assert len(v.items) == 3

    def test_bool_fields(self):
        p = Pair.fresh()
        assert isinstance(p.flag, SymBool)

    def test_eq_is_structural(self):
        s = Counter.fresh()
        t = s.copy()
        from repro.sym import prove

        assert prove(s.eq(t)).proved
        t.value = t.value + 1
        assert not prove(s.eq(t)).proved

    def test_merge(self):
        from repro.sym import fresh_bool, prove

        s, t = Counter.fresh(), Counter.fresh()
        c = fresh_bool("tcs.c")
        m = merge(c, s, t)
        assert prove(sym_implies(c, m.eq(s))).proved


class TestVectorHelpers:
    VEC = [bv_val(v, 8) for v in (10, 20, 30)]

    def test_select_in_range(self):
        assert select(self.VEC, bv_val(1, 8)).as_int() == 20

    def test_select_out_of_range_reads_last(self):
        assert select(self.VEC, bv_val(7, 8)).as_int() == 30

    def test_update_writes_one_element(self):
        out = update(self.VEC, bv_val(1, 8), bv_val(99, 8))
        assert [v.as_int() for v in out] == [10, 99, 30]

    def test_update_false_guard_leaves_vector(self):
        out = update(self.VEC, bv_val(1, 8), bv_val(99, 8), guard=sym_false())
        assert [v.as_int() for v in out] == [10, 20, 30]

    def test_set_bank_writes_one_register_of_one_bank(self):
        # Three banks of two registers: context c's register j at 2c + j.
        regs = [bv_val(v, 8) for v in range(6)]
        out = set_bank(regs, bv_val(1, 8), 1, bv_val(99, 8), 2)
        assert [v.as_int() for v in out] == [0, 1, 2, 99, 4, 5]

    def test_symbolic_index(self):
        from repro.sym import fresh_bv, prove

        idx = fresh_bv("tvh.idx", 8)
        out = update(self.VEC, idx, bv_val(99, 8))
        assert prove(sym_implies(idx == 2, select(out, idx) == 99)).proved
        assert prove(sym_implies(idx != 0, out[0] == 10)).proved


class TestTheorem:
    def test_valid_theorem(self):
        assert theorem("comm", lambda s: sym_eq(s.value + s.limit, s.limit + s.value), Counter).proved

    def test_invalid_theorem_has_model(self):
        result = theorem("bogus", lambda s: s.value == 0, Counter)
        assert not result.proved
        assert result.counterexample is not None

    def test_theorem_with_assumptions(self):
        assert theorem(
            "bounded",
            lambda s: s.value < 16,
            Counter,
            assumptions=lambda s: s.value < 10,
        ).proved


class TestRefinementHarness:
    def make(self, impl_step, rep_invariant=None):
        def spec_step(s):
            out = s.copy()
            out.value = s.value + 2
            return out

        return Refinement(
            name="t",
            make_impl=Counter.fresh,
            impl_step=impl_step,
            spec_step=spec_step,
            # RI must be *inductive*: even values stay even under +2.
            abstract=lambda c: c,
            rep_invariant=rep_invariant or (lambda c: (c.value & 1) == 0),
        )

    def test_correct_impl_refines(self):
        def impl(s):
            out = s.copy()
            out.value = s.value + 1 + 1
            return out

        assert self.make(impl).prove().proved

    def test_wrong_impl_caught(self):
        def impl(s):
            out = s.copy()
            out.value = s.value + 3
            return out

        result = self.make(impl).prove()
        assert not result.proved

    def test_ri_violation_caught(self):
        def impl(s):
            out = s.copy()
            out.value = s.value + 1  # breaks evenness
            return out

        def spec(s):
            out = s.copy()
            out.value = s.value + 1
            return out

        ref = self.make(impl)
        ref.spec_step = spec
        result = ref.prove()
        assert not result.proved
        assert "RI" in result.failed_vc.message


class TestSafetyHelpers:
    def test_invariant_step(self):
        def step(s):
            out = s.copy()
            out.value = ite(s.value < s.limit, s.value + 1, s.value)
            return out

        assert prove_invariant_step(
            "mono", lambda s: s.value <= s.limit, step, Counter
        ).proved

    def test_one_safety(self):
        """One-safety is a theorem over one state."""
        assert theorem("low-bit", lambda s: (s.value & 1) <= 1, Counter).proved

    def test_two_safety(self):
        """Two-safety is a theorem over two states."""
        assert theorem(
            "sym",
            lambda s1, s2: sym_eq(s1.value, s2.value).implies(sym_eq(s2.value, s1.value)),
            Counter,
            Counter,
        ).proved

    def test_count_where(self):
        items = [bv_val(i, 8) for i in (1, 2, 3, 4)]
        n = count_where(items, lambda x: (x & 1) == 1, 8)
        assert n.as_int() == 2

    def test_reference_count(self):
        owners = [0, 1]
        resources = [bv_val(0, 8), bv_val(1, 8), bv_val(0, 8)]
        declared = {0: bv_val(2, 8), 1: bv_val(1, 8)}
        ok = reference_count_consistent(
            owners, resources, lambda o: declared[o], lambda r, o: r == o, width=8
        )
        from repro.sym import prove

        assert prove(ok).proved


class TestNiScaffolding:
    State = spec_struct("nistate", pub=8, sec=8)

    def test_step_consistency_catches_leak(self):
        def leak(s):
            out = s.copy()
            out.pub = s.pub + s.sec
            return out

        action = Action("leak", leak)
        result = prove_step_consistency(
            "leak",
            action,
            self.State,
            equiv=lambda u, s1, s2: sym_eq(s1.pub, s2.pub),
            observer_values=["low"],
        )
        assert not result.proved

    def test_step_consistency_accepts_clean(self):
        def clean(s):
            out = s.copy()
            out.pub = s.pub + 1
            return out

        result = prove_step_consistency(
            "clean",
            Action("clean", clean),
            self.State,
            equiv=lambda u, s1, s2: sym_eq(s1.pub, s2.pub),
            observer_values=["low"],
        )
        assert result.proved

    def test_step_consistency_of_several_actions(self):
        """A list of actions over one pair of states is proved only if
        every action is."""

        def clean(s):
            out = s.copy()
            out.pub = s.pub + 1
            return out

        def leak(s):
            out = s.copy()
            out.pub = s.pub + s.sec
            return out

        def proved(actions):
            return prove_step_consistency(
                "several",
                actions,
                self.State,
                equiv=lambda u, s1, s2: sym_eq(s1.pub, s2.pub),
                observer_values=["low"],
            ).proved

        assert proved([Action("clean", clean), Action("clean again", clean)])
        assert not proved([Action("clean", clean), Action("leak", leak)])

    def test_nickel_ni_end_to_end(self):
        def bump(s):
            out = s.copy()
            out.pub = s.pub + 1
            return out

        policy = NIPolicy(
            domains=["low", "high"],
            flows_to=lambda d1, d2, s: sym_true() if d1 == d2 else sym_false(),
            dom=lambda name, s, args: "low",
            equiv=lambda u, s1, s2: sym_eq(s1.pub, s2.pub)
            if u == "low"
            else sym_eq(s1.sec, s2.sec),
        )
        results = prove_nickel_ni(policy, [Action("bump", bump)], self.State)
        assert all(r.proved for r in results.values())

    @pytest.mark.parametrize("actor, failing", [("high", "leak.lr"), ("low", "leak.wsc")])
    def test_nickel_ni_catches_leak(self, actor, failing):
        """``pub := pub + sec`` leaks high into low: acting as ``high``
        it breaks local respect (high may not flow to low); acting as
        ``low`` it breaks weak step consistency (low's next view reads
        ``sec``)."""

        def leak(s):
            out = s.copy()
            out.pub = s.pub + s.sec
            return out

        policy = NIPolicy(
            domains=["low", "high"],
            flows_to=lambda d1, d2, s: sym_true() if d1 == d2 else sym_false(),
            dom=lambda name, s, args: actor,
            equiv=lambda u, s1, s2: sym_eq(s1.pub, s2.pub)
            if u == "low"
            else sym_eq(s1.sec, s2.sec),
        )
        results = prove_nickel_ni(policy, [Action("leak", leak)], self.State)
        verdicts = {name: result.proved for name, result in results.items()}
        assert verdicts == {"leak.wsc": failing != "leak.wsc", "leak.lr": failing != "leak.lr"}
