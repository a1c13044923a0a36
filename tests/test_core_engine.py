"""Tests for the lifting engine: worklist behaviour, merging policy,
fuel, path coverage, and the Paths API."""

import pytest

from repro import obs
from repro.bpf import BpfState
from repro.core import EngineOptions, run_interpreter
from repro.core.engine import Interpreter, Paths
from repro.core.errors import EngineFuelExhausted, UnconstrainedPc
from repro.core.memory import MCell, Memory, Region
from repro.llvm import LlvmState
from repro.riscv import CpuState
from repro.smt import mk_bool
from repro.sym import (
    MachineState,
    SymBool,
    bv_val,
    fresh_bool,
    fresh_bv,
    ite,
    merge_states,
    new_context,
    prove,
)
from repro.toyrisc import ToyCpu, ToyRISC, li, ret, sign_program
from repro.x86 import X86State


class MiniState(MachineState):
    """A two-register machine used to probe engine behaviour."""

    __slots__ = ("pc", "x", "halted")

    def __init__(self, pc, x, halted=False):
        self.pc = pc
        self.x = x
        self.halted = halted


class MiniInterp(Interpreter):
    """program: list of callables state -> None (set pc/x/halted)."""

    def __init__(self, program):
        self.program = program
        self.executed = []

    def is_halted(self, state):
        return state.halted

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


@pytest.fixture
def copies(monkeypatch):
    """Every ``MiniState`` the engine copies, in order."""
    copied = []
    copy = MiniState.copy

    def counting_copy(state):
        copied.append(state)
        return copy(state)

    monkeypatch.setattr(MiniState, "copy", counting_copy)
    return copied


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
    def test_straight_line_clones_only_at_entry(self, merge_states, copies):
        prog = [add_to_x(1, 1), add_to_x(2, 2), goto(3), halt]
        interp = MiniInterp(prog)
        with new_context():
            paths = run_interpreter(interp, fresh_state(), EngineOptions(merge_states=merge_states))
        assert paths.steps == 4
        assert len(copies) == 1

    @pytest.mark.parametrize("merge_states", [True, False])
    def test_diamond_clones_once_more_at_its_fork(self, merge_states, copies):
        prog = [branch_on_x(1, 2), add_to_x(1, 3), add_to_x(2, 3), halt]
        interp = MiniInterp(prog)
        with new_context():
            run_interpreter(interp, fresh_state(), EngineOptions(merge_states=merge_states))
        assert len(copies) == 2


RAM = 0x100  # the base of the one-word memory region of a state that has memory


def _memory(addr_width):
    return Memory([Region("ram", RAM, MCell(8))], addr_width=addr_width)


STATES = {
    "riscv": lambda: CpuState.symbolic(64, 0x1000, _memory(64), prefix="ms.rv"),
    "bpf": lambda: BpfState.symbolic("ms.bpf"),
    "x86": lambda: X86State.symbolic("ms.x86"),
    "toyrisc": lambda: ToyCpu.symbolic(8),
    "llvm": lambda: LlvmState(
        bv_val(0, 32), {"v": fresh_bv("ms.v", 32)}, [fresh_bv("ms.p", 32)], _memory(32)
    ),
}


def _contents(value):
    """What a field holds, as terms and plain values."""
    if isinstance(value, list):
        return [x.term for x in value]
    if isinstance(value, dict):
        return {k: x.term for k, x in value.items()}
    if isinstance(value, Memory):
        return value.load(bv_val(RAM, value.addr_width), 8).term
    return getattr(value, "term", value)


def _write(value):
    """Write into a container field: a register, CSR, stack slot, local
    or param, or a store to memory."""
    if isinstance(value, list):
        value[-1] = bv_val(0x5A, value[-1].width)
    elif isinstance(value, dict):
        key = next(iter(value))
        value[key] = value["ms.new"] = bv_val(0x5A, value[key].width)
    else:
        value.store(bv_val(RAM, value.addr_width), bv_val(0x5A, 64))


class TestMachineStates:
    """Every interpreter's state is a :class:`MachineState`: the engine
    copies and merges it field by field."""

    @pytest.mark.parametrize("kind", sorted(STATES))
    def test_copy_shares_no_container(self, kind):
        with new_context():
            state = STATES[kind]()
            assert isinstance(state, MachineState)
            before = {name: _contents(getattr(state, name)) for name in state.__slots__}
            dup = state.copy()
            written = []
            for name in state.__slots__:
                field, copied = getattr(state, name), getattr(dup, name)
                if isinstance(field, (list, dict, Memory)):
                    assert copied is not field
                    _write(copied)
                    assert _contents(copied) != before[name]
                    written.append(name)
                else:
                    assert copied is field  # terms and flags are shared
            assert {name: _contents(getattr(state, name)) for name in state.__slots__} == before
        assert written

    @pytest.mark.parametrize(
        ("kind", "field", "value"),
        [("riscv", "exited", True), ("riscv", "trap", "ecall"), ("x86", "exited", True)],
    )
    def test_merge_rejects_differing_plain_field(self, kind, field, value):
        with new_context():
            state = STATES[kind]()
            other = state.copy()
            setattr(other, field, value)
            with pytest.raises(ValueError, match=field):
                merge_states(fresh_bool("ms.g"), state, other)
            with pytest.raises(ValueError, match=field):
                merge_states(fresh_bool("ms.g"), other, state)

    @pytest.mark.parametrize(
        ("make", "merges"),
        [
            (lambda: CpuState.symbolic(64, 0x1000, Memory([], addr_width=64)), 59),
            (X86State.symbolic, 45),
            (BpfState.symbolic, 12),
            (ToyCpu.symbolic, 4),
        ],
        ids=["riscv", "x86", "bpf", "toyrisc"],
    )
    def test_merge_counts_one_merge_per_field_element(self, make, merges):
        """pc, then each element of each list and dict, each other
        field, and a memory once: the ``sym.merges`` the quick grid's
        counters are compared on."""
        with new_context():
            a, b = make(), make()
            with obs.tracing() as col:
                merge_states(fresh_bool("ms.g"), a, b)
        assert col.counters["sym.merges"] == merges


class TestPathsApi:
    def test_merged_requires_finals(self):
        with pytest.raises(ValueError):
            Paths().merged()

    def test_coverage_empty_is_false(self):
        assert Paths().coverage() is mk_bool(False)
