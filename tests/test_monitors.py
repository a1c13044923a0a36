"""Monitor tests: CertiKOS^s and Komodo^s (§6).

Binary-level refinement for representative operations (the full grid
is the Figure 11 benchmark), spec-level noninterference, and the
negative results the paper reports (PID covert channel; symbolic-
optimization ablations).
"""

import pytest

from repro.certikos import CertikosVerifier
from repro.certikos.ni import prove_small_step_properties, prove_spawn_targets_owned_child
from repro.certikos.spec import CertiState, spec_get_quota, spec_spawn, spec_yield, state_invariant
from repro.core import prove_invariant_step
from repro.core.symopt import SymOptConfig
from repro.komodo import KomodoVerifier
from repro.komodo.ni import (
    exit_declassifies,
    prove_host_cannot_read_enclave,
    prove_removed_enclave_unobservable,
)
from repro.sym import fresh_bv, new_context, solve

# The full monitor/JIT suites take minutes; CI runs them in a
# separate job after the fast tier passes.
pytestmark = pytest.mark.slow


class TestCertikosRefinement:
    @pytest.fixture(scope="class")
    def verifier(self):
        return CertikosVerifier(opt=1)

    def test_ri_satisfiable(self, verifier):
        """Guard against vacuous proofs: the representation invariant
        must admit states."""
        from repro.certikos.invariants import rep_invariant

        with new_context():
            cpu = verifier.make_cpu()
            assert solve(rep_invariant(cpu)) is not None

    def test_get_quota(self, verifier):
        assert verifier.prove_op("get_quota").proved

    def test_yield(self, verifier):
        assert verifier.prove_op("yield").proved

    def test_invalid_call(self, verifier):
        assert verifier.prove_op("invalid").proved

    def test_broken_spec_rejected(self, verifier):
        """Mutate the spec: the refinement must fail with a model."""
        ref = verifier.refinement("get_quota")
        orig = ref.spec_step

        def broken(s):
            out = orig(s)
            out.current = out.current + 1
            return out

        ref.spec_step = broken
        result = ref.prove()
        assert not result.proved
        assert result.counterexample is not None


class TestCertikosSpecLevel:
    def test_spec_invariant_preserved(self):
        for name, step in [
            ("get_quota", spec_get_quota),
            ("yield", spec_yield),
        ]:
            r = prove_invariant_step(f"certikos.{name}", state_invariant, step, CertiState)
            assert r.proved, name

    def test_spawn_preserves_invariant(self):
        def step(s):
            child = fresh_bv("tsp.child", 32)
            quota = fresh_bv("tsp.quota", 32)
            return spec_spawn(s, child, quota)

        assert prove_invariant_step("certikos.spawn", state_invariant, step, CertiState).proved

    def test_three_small_step_properties(self):
        results = prove_small_step_properties()
        for name, result in results.items():
            assert result.proved, name

    def test_pid_covert_channel(self):
        """§6.2: the explicit-PID spawn is flow-deterministic; the
        original implicit allocation leaks nr_children via the PID."""
        assert prove_spawn_targets_owned_child(implicit=False).proved
        leaky = prove_spawn_targets_owned_child(implicit=True)
        assert not leaky.proved
        assert leaky.counterexample is not None


class TestCertikosAblations:
    def test_no_split_pc_diverges(self):
        """§6.4: disabling symbolic optimizations prevents the
        refinement proof from terminating."""
        from repro.core.errors import EngineFuelExhausted, UnconstrainedPc

        v = CertikosVerifier(opt=1, symopts=SymOptConfig.none(), fuel=200)
        with pytest.raises((EngineFuelExhausted, UnconstrainedPc, AssertionError)):
            v.prove_op("get_quota")

    def test_no_offset_concretization_still_sound(self):
        """Disabling only the memory optimization keeps proofs sound
        (fan-out fallback), just slower."""
        opts = SymOptConfig(concretize_offsets=False)
        v = CertikosVerifier(opt=1, symopts=opts)
        assert v.prove_op("get_quota").proved


class TestBootCode:
    """§3.4: boot-code verification from the architectural reset state."""

    def test_certikos_boot_establishes_ri(self):
        assert CertikosVerifier(opt=1).prove_boot().proved

    def test_komodo_boot_establishes_ri(self):
        assert KomodoVerifier(opt=1).prove_boot().proved

    def test_boot_at_o0(self):
        assert CertikosVerifier(opt=0).prove_boot().proved


class TestKomodo:
    @pytest.fixture(scope="class")
    def verifier(self):
        return KomodoVerifier(opt=1)

    @pytest.mark.parametrize("op", ["init_addrspace", "enter", "exit", "stop"])
    def test_refinement(self, verifier, op):
        assert verifier.prove_op(op).proved

    def test_init_l3ptable_exists(self, verifier):
        """§6.3: the call added for three-level RISC-V paging."""
        assert verifier.prove_op("init_l3ptable").proved

    def test_host_ni(self):
        assert prove_host_cannot_read_enclave().proved

    def test_removed_enclave_unobservable(self):
        assert prove_removed_enclave_unobservable().proved

    def test_exit_declassifies(self):
        assert exit_declassifies()


class TestNickelUnwinding:
    def test_nickel_ni_over_certikos_spec(self):
        """§6.2: the Nickel-style unwinding conditions prove for the
        get_quota/yield actions over the explicit-PID spec."""
        from repro.certikos.ni import prove_nickel

        results = prove_nickel()
        assert results, "no unwinding obligations generated"
        for name, result in results.items():
            assert result.proved, name
