"""A JIT check builds only its instruction (§7).

Each checker draws its start state once per process, and the x86-32
property compares each BPF register with its two stack slots half by
half.  So after one warm-up check per JIT a check draws no fresh
variable, and its query names only the registers its instruction
touches.  These are fast-tier tests: a change that draws a start state
per check, or compares a register with ``hi:lo`` whole, fails here
instead of doubling the JIT sweep.
"""

import pytest

from repro import obs
from repro.bpf.insn import alu, jmp
from repro.bpf_jit import RvJit, X86Jit, check_rv_insn, check_x86_insn, checker
from repro.smt import solver as solver_mod
from repro.smt.solver import Solver
from repro.smt.terms import TermManager


@pytest.fixture
def warm():
    """One check per JIT, so both start states exist."""
    assert check_rv_insn(alu("add", 1, ("r", 2)), RvJit()).ok
    assert check_x86_insn(alu("add", 1, ("r", 2)), X86Jit()).ok


@pytest.fixture
def queries(monkeypatch):
    """Every query a check sends to the solver, as its root terms."""
    seen = []
    real_check = Solver.check

    def spy(solver, *extra):
        seen.append(list(solver.assertions) + list(extra))
        return real_check(solver, *extra)

    monkeypatch.setattr(Solver, "check", spy)
    return seen


CHECKS = [
    (check_rv_insn, RvJit, alu("add", 3, ("r", 4))),
    (check_rv_insn, RvJit, alu("sub", 5, ("r", 1), alu64=False)),
    (check_rv_insn, RvJit, alu("add", 2, 2047)),
    (check_rv_insn, RvJit, alu("arsh", 7, 33)),
    (check_rv_insn, RvJit, jmp("jlt", 1, ("r", 2), off=3, jmp32=True)),
    (check_x86_insn, X86Jit, alu("mov", 1, ("r", 2))),
    (check_x86_insn, X86Jit, alu("sub", 3, ("r", 4))),
    (check_x86_insn, X86Jit, alu("rsh", 6, 40)),
    (check_x86_insn, X86Jit, alu("xor", 0, ("r", 9), alu64=False)),
]


def _check_id(check, make_jit, insn) -> str:
    """``X86Jit-add64-r3-r4`` for ``add64 r3, r4`` on the x86-32 JIT."""
    return "-".join([make_jit.__name__, *repr(insn).replace(",", "").split()])


@pytest.mark.parametrize("check, make_jit, insn", CHECKS, ids=[_check_id(*c) for c in CHECKS])
def test_checks_draw_no_fresh_variable(warm, monkeypatch, check, make_jit, insn):
    drawn = []
    real_fresh = TermManager.fresh_name

    def spy(manager, prefix):
        drawn.append(prefix)
        return real_fresh(manager, prefix)

    monkeypatch.setattr(TermManager, "fresh_name", spy)
    assert check(insn, make_jit()).ok
    assert drawn == []


def test_x86_mov64_is_trivial(warm):
    with obs.tracing() as col:
        assert check_x86_insn(alu("mov", 1, ("r", 2)), X86Jit()).ok
    assert col.counters.get("solver.queries") == 1
    assert col.counters.get("solver.trivial") == 1


@pytest.mark.parametrize("alu64", [True, False], ids=["add64", "add32"])
def test_x86_query_names_only_its_registers(warm, queries, alu64):
    assert check_x86_insn(alu("add", 3, ("r", 4), alu64=alu64), X86Jit()).ok
    bpf0, _ = checker._x86_start()
    _, names = solver_mod._walk_query(queries[-1])
    assert names == {bpf0.regs[3].term.payload, bpf0.regs[4].term.payload}
