"""Tests for the BPF JIT checker (§7): fixed JITs verify; every
cataloged bug is found on its witness instruction."""

import dataclasses

import pytest

from repro.bpf.insn import alu, jmp
from repro.bpf_jit import RV_BUGS, X86_BUGS, RvJit, X86Jit, check_rv_insn, check_x86_insn, checker
from repro.smt import solver as solver_mod
from repro.smt.evaluator import eval_term
from repro.smt.solver import Solver, get_incremental_session, reset_incremental_session

# The full monitor/JIT suites take minutes; CI runs them in a
# separate job after the fast tier passes.
pytestmark = pytest.mark.slow


class TestFixedRvJit:
    @pytest.mark.parametrize("op", ["add", "sub", "and", "or", "xor", "mov", "neg"])
    @pytest.mark.parametrize("alu64", [True, False])
    def test_alu_reg(self, op, alu64):
        assert check_rv_insn(alu(op, 1, ("r", 2), alu64=alu64), RvJit()).ok

    @pytest.mark.parametrize("op", ["lsh", "rsh", "arsh"])
    @pytest.mark.parametrize("alu64", [True, False])
    def test_shift_reg(self, op, alu64):
        assert check_rv_insn(alu(op, 1, ("r", 2), alu64=alu64), RvJit()).ok

    @pytest.mark.parametrize("imm", [0, 1, 31])
    def test_shift32_imm(self, imm):
        for op in ("lsh", "rsh", "arsh"):
            assert check_rv_insn(alu(op, 1, imm, alu64=False), RvJit()).ok

    @pytest.mark.parametrize("imm", [0, 1, 31, 32, 63])
    def test_shift64_imm(self, imm):
        for op in ("lsh", "rsh", "arsh"):
            assert check_rv_insn(alu(op, 1, imm, alu64=True), RvJit()).ok

    @pytest.mark.parametrize("imm", [-1, -2048, 2047, 12345])
    def test_imm_operands(self, imm):
        assert check_rv_insn(alu("add", 1, imm, alu64=True), RvJit()).ok
        assert check_rv_insn(alu("mov", 1, imm, alu64=False), RvJit()).ok

    @pytest.mark.parametrize("op", ["jeq", "jlt", "jge"])
    def test_jmp32(self, op):
        assert check_rv_insn(jmp(op, 1, ("r", 2), off=3, jmp32=True), RvJit()).ok


class TestFixedX86Jit:
    @pytest.mark.parametrize("op", ["add", "sub", "and", "or", "xor", "mov", "neg"])
    def test_alu64_reg(self, op):
        assert check_x86_insn(alu(op, 1, ("r", 2), alu64=True), X86Jit()).ok

    @pytest.mark.parametrize("op", ["add", "sub", "and", "or", "xor", "mov"])
    def test_alu32_reg(self, op):
        assert check_x86_insn(alu(op, 1, ("r", 2), alu64=False), X86Jit()).ok

    @pytest.mark.parametrize("imm", [0, 1, 31, 32, 33, 63])
    @pytest.mark.parametrize("op", ["lsh", "rsh", "arsh"])
    def test_shift64_imm(self, op, imm):
        assert check_x86_insn(alu(op, 1, imm, alu64=True), X86Jit()).ok

    def test_mov32_imm(self):
        assert check_x86_insn(alu("mov", 1, 5, alu64=False), X86Jit()).ok
        assert check_x86_insn(alu("mov", 1, -1, alu64=False), X86Jit()).ok


class TestBugCatalog:
    """Each of the 15 cataloged bugs is observable on its witness (§7:
    9 RISC-V + 6 x86-32)."""

    @pytest.mark.parametrize("bug", RV_BUGS, ids=lambda b: b.id)
    def test_rv_bug_found(self, bug):
        result = check_rv_insn(bug.witness, RvJit(bugs={bug.id}))
        assert not result.ok, f"{bug.id} not detected"
        assert result.counterexample is not None

    @pytest.mark.parametrize("bug", X86_BUGS, ids=lambda b: b.id)
    def test_x86_bug_found(self, bug):
        result = check_x86_insn(bug.witness, X86Jit(bugs={bug.id}))
        assert not result.ok, f"{bug.id} not detected"
        assert result.counterexample is not None

    def test_catalog_size_matches_paper(self):
        assert len(RV_BUGS) == 9
        assert len(X86_BUGS) == 6

    def test_fixed_jits_pass_all_witnesses(self):
        for bug in RV_BUGS:
            assert check_rv_insn(bug.witness, RvJit()).ok, bug.id
        for bug in X86_BUGS:
            assert check_x86_insn(bug.witness, X86Jit()).ok, bug.id

    def test_counterexample_is_actionable(self):
        """Counterexamples seed regression tests (as the kernel patches
        did): the model gives concrete register values."""
        bug = RV_BUGS[0]
        result = check_rv_insn(bug.witness, RvJit(bugs={bug.id}))
        model = result.counterexample
        # The witness operates on r1/r2; the model binds their symbols.
        assert any("r1" in name or "r2" in name for name, _ in model.items())


class NoImmRvJit(RvJit):
    """Loads no immediate, so an immediate operand reads a stale t1."""

    def _emit_imm(self, reg, imm):
        return []


class NoHighLoadX86Jit(X86Jit):
    """Drops the load of a register source's high word, so the pair's
    high register keeps whatever it held before."""

    def _src_pair_into(self, insn, lo, hi):
        return super()._src_pair_into(insn, lo, hi)[:1]


def _start_terms(state) -> list:
    """The pc, register, CSR and stack-slot terms of a start state."""
    csrs = getattr(state, "csrs", {})
    values = [state.pc, *state.regs, *(csrs[name] for name in sorted(csrs))]
    return [value.term for value in values + list(getattr(state, "stack", ()))]


class TestSharedStartState:
    """Each checker draws its start state once per process.  Machine
    state the JIT's output reads but the BPF state does not determine
    is still a free variable in every check, so a JIT that reads it is
    caught with a counterexample that binds it; and no check changes
    the start state the next one reads."""

    WARM_UP = [alu("add", 1, ("r", 2)), alu("mov", 3, 7, alu64=False), alu("lsh", 1, 32)]

    @pytest.mark.parametrize(
        "check, make_jit, start, buggy, insn, stale",
        [
            (check_rv_insn, RvJit, checker._rv_start, NoImmRvJit(),
             alu("add", 1, 0), "chkrv.x6"),
            (check_x86_insn, X86Jit, checker._x86_start, NoHighLoadX86Jit(),
             alu("mov", 1, ("r", 2)), "chk86m.2"),
        ],
        ids=["riscv-stale-t1", "x86-32-stale-edx"],
    )
    def test_stale_machine_state_is_caught(self, check, make_jit, start, buggy, insn, stale):
        for warm in self.WARM_UP:
            assert check(warm, make_jit()).ok
        before = [_start_terms(state) for state in start()]

        result = check(insn, buggy)
        assert not result.ok and result.counterexample is not None
        bound = {name.split("!")[0] for name, _ in result.counterexample.items()}
        assert stale in bound

        # Terms are interned, so == is identity.
        assert [_start_terms(state) for state in start()] == before
        assert check(insn, make_jit()).ok


def _bug(bugs, bug_id):
    return next(bug for bug in bugs if bug.id == bug_id)


def _by_register(model) -> dict:
    """A counterexample's BPF register values: ``chk.r1!7`` -> ``r1``."""
    return {
        name.split("!")[0].rsplit(".", 1)[1]: value
        for name, value in model.items()
        if name.startswith(("chk.r", "chk86.r"))
    }


class TestMemoReplay:
    """A register-redrawn check is alpha-equivalent to its witness, so
    the session's verdict memo answers it; the replayed counterexample
    must be as actionable as a solved one."""

    @pytest.mark.parametrize(
        "check, make_jit, bug",
        [
            (check_rv_insn, RvJit, _bug(RV_BUGS, "alu32-add-no-zext")),
            (check_x86_insn, X86Jit, _bug(X86_BUGS, "rsh64-imm-ge32")),
        ],
        ids=["riscv", "x86-32"],
    )
    def test_memo_counterexample_is_actionable(self, monkeypatch, check, make_jit, bug):
        calls = []
        real_check = Solver.check

        def spy(solver, *extra):
            result = real_check(solver, *extra)
            calls.append((list(solver.assertions) + list(extra), result))
            return result

        monkeypatch.setattr(Solver, "check", spy)
        reset_incremental_session()
        buggy = make_jit(bugs={bug.id})
        fields = {"dst": 4, "src": 6} if bug.witness.src_is_reg else {"dst": 4}
        moved = dataclasses.replace(bug.witness, **fields)

        first = check(bug.witness, buggy)
        assert not first.ok and first.counterexample is not None
        session = get_incremental_session()
        vars_before = session.sat.num_vars
        second = check(moved, buggy)
        query, answer = calls[-1]
        assert answer.stats == {"memo_hit": True, "time_s": 0.0, "digest": calls[0][1].stats["digest"]}
        assert get_incremental_session() is session
        assert session.sat.num_vars == vars_before

        assert not second.ok and second.counterexample is not None
        env = dict(second.counterexample.items())
        _, own_names = solver_mod._walk_query(query)
        _, first_names = solver_mod._walk_query(calls[0][0])
        assert set(env) <= own_names and set(env).isdisjoint(first_names)
        prefix = "chk.r4!" if make_jit is RvJit else "chk86.r4!"
        assert any(name.startswith(prefix) for name in env)
        # The replayed model is a genuine counterexample of the moved
        # instruction's own query.
        assert all(eval_term(term, env) is True for term in query)
        # ... and it is the first model moved with the instruction: the
        # new dst (and src) take the witness's r1 (and r2) values.
        first_regs = _by_register(first.counterexample)
        second_regs = _by_register(second.counterexample)
        assert second_regs["r4"] == first_regs["r1"]
        if bug.witness.src_is_reg:
            assert second_regs["r6"] == first_regs["r2"]

        assert check(bug.witness, make_jit()).ok
        assert check(moved, make_jit()).ok
