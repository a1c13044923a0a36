"""Tests for the lifting engine: worklist behaviour, merging policy,
fuel, path coverage, and the Paths API."""

import pytest

from repro.core import EngineOptions, run_interpreter
from repro.core.engine import Interpreter, Paths
from repro.core.errors import EngineFuelExhausted, UnconstrainedPc
from repro.smt import mk_bool
from repro.sym import SymBool, bv_val, fresh_bv, ite, merge, new_context, prove
from repro.toyrisc import ToyCpu, ToyRISC, li, ret, sign_program


class MiniState:
    """A two-register machine used to probe engine behaviour."""

    __slots__ = ("pc", "x", "halted")

    def __init__(self, pc, x, halted=False):
        self.pc = pc
        self.x = x
        self.halted = halted

    def copy(self):
        return MiniState(self.pc, self.x, self.halted)

    def __sym_merge__(self, guard: SymBool, other: "MiniState"):
        assert self.halted == other.halted
        return MiniState(merge(guard, self.pc, other.pc), merge(guard, self.x, other.x), self.halted)


class MiniInterp(Interpreter):
    """program: list of callables state -> None (set pc/x/halted)."""

    def __init__(self, program):
        self.program = program
        self.executed = []
        self.copies = 0

    def pc_of(self, state):
        return state.pc

    def set_pc(self, state, pc_val):
        state.pc = bv_val(pc_val, 16)

    def is_halted(self, state):
        return state.halted

    def copy_state(self, state):
        self.copies += 1
        return state.copy()

    def fetch(self, state):
        return self.program[state.pc.as_int()]

    def execute(self, state, insn):
        self.executed.append(state.pc.as_int())
        insn(state)


def halt(state):
    state.halted = True


def goto(n):
    def step(state):
        state.pc = bv_val(n, 16)

    return step


def branch_on_x(then_pc, else_pc):
    def step(state):
        state.pc = ite(state.x == 0, bv_val(then_pc, 16), bv_val(else_pc, 16))

    return step


def add_to_x(n, next_pc):
    def step(state):
        state.x = state.x + n
        state.pc = bv_val(next_pc, 16)

    return step


def fresh_state(x=None):
    return MiniState(bv_val(0, 16), x if x is not None else fresh_bv("eng.x", 16))


class TestMergedWorklist:
    def test_diamond_executes_each_block_once(self):
        # 0: branch -> 1 or 2; 1: x+=1 -> 3; 2: x+=2 -> 3; 3: halt
        prog = [branch_on_x(1, 2), add_to_x(1, 3), add_to_x(2, 3), halt]
        interp = MiniInterp(prog)
        with new_context():
            state = fresh_state()
            x0 = state.x
            paths = run_interpreter(interp, state)
        # With merging, block 3 is processed once.
        assert interp.executed.count(3) == 1
        assert paths.steps == 4

    def test_without_merging_paths_duplicate(self):
        prog = [branch_on_x(1, 2), add_to_x(1, 3), add_to_x(2, 3), halt]
        interp = MiniInterp(prog)
        with new_context():
            paths = run_interpreter(
                interp, fresh_state(), EngineOptions(merge_states=False)
            )
        assert interp.executed.count(3) == 2  # path enumeration forks
        assert len(paths.finals) == 2

    def test_results_agree_between_strategies(self):
        prog = [branch_on_x(1, 2), add_to_x(1, 3), add_to_x(2, 3), halt]
        with new_context():
            s1 = fresh_state()
            x0 = s1.x
            merged = run_interpreter(MiniInterp(prog), s1).merged()
            s2 = MiniState(bv_val(0, 16), x0)
            enumerated = run_interpreter(
                MiniInterp(prog), s2, EngineOptions(merge_states=False)
            ).merged()
            assert prove(merged.x == enumerated.x).proved

    def test_coverage_is_total(self):
        prog = [branch_on_x(1, 2), add_to_x(1, 3), add_to_x(2, 3), halt]
        with new_context():
            paths = run_interpreter(MiniInterp(prog), fresh_state())
            assert prove(SymBool(paths.coverage())).proved

    def test_bounded_loop_terminates(self):
        # 0: if x==0 goto 2 else goto 1; 1: x+=(-1) goto 0; 2: halt
        prog = [branch_on_x(2, 1), add_to_x(-1, 0), halt]
        with new_context():
            state = fresh_state(bv_val(3, 16))
            paths = run_interpreter(MiniInterp(prog), state)
            final = paths.merged()
            assert final.x.as_int() == 0

    def test_fuel_exhaustion_on_unbounded_loop(self):
        prog = [goto(0)]
        with new_context():
            with pytest.raises(EngineFuelExhausted):
                run_interpreter(MiniInterp(prog), fresh_state(), EngineOptions(fuel=10))

    def test_unconstrained_pc_rejected(self):
        def wild(state):
            state.pc = fresh_bv("eng.wild", 16)  # jump to untrusted addr

        with new_context():
            with pytest.raises(UnconstrainedPc):
                run_interpreter(MiniInterp([wild, halt]), fresh_state())

    def test_pc_arithmetic_over_ite_splits(self):
        """split-pc handles ite(c, a, b) + const shapes (§4)."""
        def computed(state):
            base = ite(state.x == 0, bv_val(0, 16), bv_val(1, 16))
            state.pc = base + 1

        prog = [computed, halt, halt]
        with new_context():
            paths = run_interpreter(MiniInterp(prog), fresh_state())
            assert len(paths.finals) >= 1


STRATEGIES = {
    "split-merged": EngineOptions(),
    "split-paths": EngineOptions(merge_states=False),
    "merged-pc": EngineOptions(split_pc=False, fuel=8, max_union=100),
}
PROGRAMS = {"diamond": sign_program, "straight-line": lambda: [li("a0", 7), ret()]}


def _snapshot(cpu):
    return (cpu.pc.term, tuple(r.term for r in cpu.regs), cpu.halted.term)


class TestStateOwnership:
    """The engine runs on a clone of the caller's state and clones
    again only where a state forks."""

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_callers_state_is_unchanged(self, strategy, program):
        with new_context():
            cpu = ToyCpu.symbolic(8)
            before = _snapshot(cpu)
            try:
                paths = run_interpreter(ToyRISC(PROGRAMS[program]()), cpu, STRATEGIES[strategy])
            except EngineFuelExhausted:
                # Without split-pc the diamond never halts (Figure 5);
                # it has still stepped the state it ran on.
                assert (strategy, program) == ("merged-pc", "diamond")
            else:
                assert paths.steps > 0
                assert all(_snapshot(s) != before for _, s in paths.finals)
            assert _snapshot(cpu) == before

    @pytest.mark.parametrize("merge_states", [True, False])
    def test_straight_line_clones_only_at_entry(self, merge_states):
        prog = [add_to_x(1, 1), add_to_x(2, 2), goto(3), halt]
        interp = MiniInterp(prog)
        with new_context():
            paths = run_interpreter(interp, fresh_state(), EngineOptions(merge_states=merge_states))
        assert paths.steps == 4
        assert interp.copies == 1

    @pytest.mark.parametrize("merge_states", [True, False])
    def test_diamond_clones_once_more_at_its_fork(self, merge_states):
        prog = [branch_on_x(1, 2), add_to_x(1, 3), add_to_x(2, 3), halt]
        interp = MiniInterp(prog)
        with new_context():
            run_interpreter(interp, fresh_state(), EngineOptions(merge_states=merge_states))
        assert interp.copies == 2


class TestPathsApi:
    def test_merged_requires_finals(self):
        with pytest.raises(ValueError):
            Paths().merged()

    def test_coverage_empty_is_false(self):
        assert Paths().coverage() is mk_bool(False)
