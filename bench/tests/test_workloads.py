import pytest

import workloads as W


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert W.make_inputs(workload, 7) == W.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", ["fig11-cold", "serve-warm", "jit-sweep"])
def test_different_seeds_different_inputs(workload):
    assert W.make_inputs(workload, 1) != W.make_inputs(workload, 2)


def test_longpole_is_one_fixed_proof():
    # One proof leaves the seed nothing to permute.
    assert W.make_inputs("longpole-cold", 1) == W.make_inputs("longpole-cold", 2)
    assert W.make_inputs("longpole-cold", 1) == {"proofs": [["certikos", "invalid", 1]]}


def test_fig11_permutes_the_whole_grid():
    proofs = W.make_inputs("fig11-cold", 3)["proofs"]
    assert len(proofs) == 27 and len({tuple(p) for p in proofs}) == 27


def test_jit_battery_stays_in_domain():
    from repro.bpf.insn import CLASS_ALU64
    from repro.bpf_jit import BOUNDARY_IMMS

    inputs = W.make_inputs("jit-sweep", 5)
    assert (len(inputs["rv"]), len(inputs["x86"])) == (W.RV_BATTERY, W.X86_BATTERY)
    for row in inputs["rv"] + inputs["x86"]:
        insn = W.decode_insn(row)
        assert insn.dst in W.BPF_REGS and insn.src in W.BPF_REGS
        if not insn.src_is_reg:
            assert insn.imm in BOUNDARY_IMMS
            if insn.op_name in W.SHIFT_OPS:
                assert 0 <= insn.imm < (64 if insn.klass == CLASS_ALU64 else 32)


FLIPPED = {"proved": "not-proved", "ok": "violation", "violation": "ok"}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_known_answers_reject_a_flipped_verdict(workload):
    expected = W.expected_verdicts(workload, W.make_inputs(workload, 1))
    observed = dict(expected)
    assert W.check_verdicts(expected, observed) == []
    for name, want in (expected[0], expected[-1]):
        observed[name] = FLIPPED[want]
        assert W.check_verdicts(expected, observed) == [name]
        observed[name] = "unknown"
        assert W.check_verdicts(expected, observed) == [name]
        del observed[name]
        assert W.check_verdicts(expected, observed) == [name]
        observed[name] = want


def test_jit_witnesses_expect_a_violation_per_bug():
    expected = W.expected_verdicts("jit-sweep", W.make_inputs("jit-sweep", 1))
    witnesses = [(n, v) for n, v in expected if n.startswith("witness.")]
    assert [v for _, v in witnesses] == ["violation"] * 15
    assert sum(n.startswith("witness.riscv.") for n, _ in witnesses) == 9
    assert sum(n.startswith("witness.x86-32.") for n, _ in witnesses) == 6


def test_a_witness_the_solver_gave_up_on_is_not_caught():
    from repro.bpf_jit.checker import CheckResult

    assert W.jit_verdict(CheckResult(True)) == "ok"
    assert W.jit_verdict(CheckResult(False, counterexample={"r0": 1})) == "violation"
    unknown = W.jit_verdict(CheckResult(False, counterexample=None))
    assert unknown == "unknown"
    expected = [("witness.riscv.x", "violation")]
    assert W.check_verdicts(expected, {"witness.riscv.x": unknown}) == ["witness.riscv.x"]
