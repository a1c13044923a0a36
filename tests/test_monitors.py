"""Monitor tests: CertiKOS^s and Komodo^s (§6).

Binary-level refinement for representative operations (the full grid
is the Figure 11 benchmark), spec-level noninterference, and the
negative results the paper reports (PID covert channel; symbolic-
optimization ablations).
"""

import pytest

from repro import komodo
from repro.certikos import CertikosVerifier, ni
from repro.certikos.layout import A0, NSAVED
from repro.certikos.ni import prove_small_step_properties, prove_spawn_targets_owned_child
from repro.certikos.spec import CertiState, spec_get_quota, spec_spawn, spec_yield, state_invariant
from repro.core import Action, prove_invariant_step, select, set_bank
from repro.core.symopt import SymOptConfig
from repro.komodo import KomodoVerifier
from repro.komodo.ni import (
    exit_declassifies,
    prove_host_cannot_read_enclave,
    prove_removed_enclave_unobservable,
)
from repro.sym import bv_val, fresh_bv, new_context, solve

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

    @pytest.mark.parametrize("call", list(komodo.SPEC_CALLS))
    def test_spec_invariant_preserved(self, call):
        _, spec = komodo.SPEC_CALLS[call]
        args = [fresh_bv(f"tki.{call}.a{i}", 32) for i in range(3)]
        result = prove_invariant_step(
            f"komodo.{call}", komodo.state_invariant, lambda s: spec(s, *args), komodo.KomodoState
        )
        assert result.proved, result.describe()


class TestNickelUnwinding:
    def test_nickel_ni_over_certikos_spec(self):
        """§6.2: the Nickel-style unwinding conditions prove for the
        get_quota/yield actions over the explicit-PID spec."""
        from repro.certikos.ni import prove_nickel

        results = prove_nickel()
        assert results, "no unwinding obligations generated"
        for name, result in results.items():
            assert result.proved, name


SMALL_STEP = [
    "get_quota.actor",
    "get_quota.frame",
    "spawn.actor",
    "spawn.frame",
    "yield.actor",
    "yield.frame",
    "yield.to",
]


def _get_quota_reads_next(s):
    """a0 := the *next* process's quota."""
    out = s.copy()
    out.regs = set_bank(s.regs, s.current, A0, select(s.quota, s.current + 1), NSAVED)
    return out


def _spawn_bumps_p3(s, child, quota):
    out = spec_spawn(s, child, quota)
    out.quota = list(out.quota)
    out.quota[3] = out.quota[3] + 1
    return out


def _yield_hands_over_p0_quota(s):
    """The process switched to finds process 0's quota in its a0."""
    out = spec_yield(s)
    out.regs = set_bank(out.regs, out.current, A0, s.quota[0], NSAVED)
    return out


class TestNiMutations:
    """Each NI property can fail: a spec that leaks fails exactly the
    properties its leak breaks, and every other one still holds."""

    @pytest.mark.parametrize(
        "name, mutant, failing",
        [
            ("spec_get_quota", _get_quota_reads_next, {"get_quota.actor"}),
            ("spec_spawn", _spawn_bumps_p3, {"spawn.frame"}),
            ("spec_yield", _yield_hands_over_p0_quota, {"yield.actor", "yield.frame", "yield.to"}),
        ],
    )
    def test_certikos_small_step(self, monkeypatch, name, mutant, failing):
        monkeypatch.setattr(f"repro.certikos.ni.{name}", mutant)
        verdicts = {key: result.proved for key, result in prove_small_step_properties().items()}
        assert verdicts == {key: key not in failing for key in SMALL_STEP}

    def test_frame_spares_only_a_spawned_child(self, monkeypatch):
        """Only spawn may change the owned child its a0 names: a
        get_quota that also spawns fails ``get_quota.frame`` alone."""

        def spawning(s, a0, a1):
            return spec_get_quota(spec_spawn(s, a0, a1))

        get_quota, *rest = ni.ACTIONS
        spawns = Action("get_quota", spawning, get_quota.make_args)
        monkeypatch.setattr(ni, "ACTIONS", [spawns, *rest])
        verdicts = {key: result.proved for key, result in prove_small_step_properties().items()}
        assert verdicts == {key: key != "get_quota.frame" for key in SMALL_STEP}

    def test_spawn_flow_watches_whole_banks(self, monkeypatch):
        """An explicit spawn that also writes the last register of
        process 3's bank, a process it does not name, is not
        flow-deterministic."""

        def leaky(s, child, quota):
            out = spec_spawn(s, child, quota)
            last = 4 * NSAVED - 1
            out.regs = list(out.regs)
            out.regs[last] = out.regs[last] + 1
            return out

        monkeypatch.setattr("repro.certikos.ni.spec_spawn", leaky)
        assert not prove_spawn_targets_owned_child(implicit=False).proved

    def test_komodo_host_view(self, monkeypatch):
        """``finalize`` copying a secure page into the host's a0."""
        number, finalize = komodo.SPEC_CALLS["finalize"]
        layout = komodo.layout

        def leaky(s, eid, page, arg2):
            out = finalize(s, eid, page, arg2)
            host = bv_val(layout.HOST, 32)
            out.regs = set_bank(out.regs, host, layout.A0, s.pg_content[0], layout.NSAVED)
            return out

        monkeypatch.setitem(komodo.SPEC_CALLS, "finalize", (number, leaky))
        verdicts = {
            "host view": prove_host_cannot_read_enclave().proved,
            "removed enclave": prove_removed_enclave_unobservable().proved,
            "exit declassifies": exit_declassifies(),
        }
        assert verdicts == {"host view": False, "removed enclave": True, "exit declassifies": True}
