"""Unit and property tests for the CDCL SAT core.

Every ``solver_cls`` test runs the arena solver twice: with
chronological backtracking (the default) and with it off, so both
backjump paths stay covered.  The oracle for random instances is
brute-force enumeration, not a second solver.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.sat import SAT, ArenaSolver, UNSAT, luby


def _no_chrono() -> ArenaSolver:
    solver = ArenaSolver()
    solver.chrono_threshold = None
    return solver


IMPLS = [ArenaSolver, _no_chrono]
IDS = ["arena", "arena-nochrono"]


@pytest.fixture(params=IMPLS, ids=IDS)
def solver_cls(request):
    return request.param


def brute_force(num_vars: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


def check_model(solver, clauses: list[list[int]]) -> None:
    for clause in clauses:
        assert any(solver.value(l) for l in clause), f"clause {clause} falsified"


class TestBasics:
    def test_unit_propagation(self, solver_cls):
        s = solver_cls()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, c])
        s.add_clause([-c])
        assert s.solve() == SAT
        assert s.value(c) is False
        assert s.value(a) is False
        assert s.value(b) is True

    def test_empty_clause_unsat(self, solver_cls):
        s = solver_cls()
        a = s.new_var()
        s.add_clause([a])
        assert not s.add_clause([-a])
        assert s.solve() == UNSAT

    def test_trivial_sat(self, solver_cls):
        s = solver_cls()
        s.new_var()
        assert s.solve() == SAT

    def test_tautology_dropped(self, solver_cls):
        s = solver_cls()
        a = s.new_var()
        s.add_clause([a, -a])
        assert s.solve() == SAT

    def test_duplicate_literals(self, solver_cls):
        s = solver_cls()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, a, b])
        s.add_clause([-a])
        assert s.solve() == SAT
        assert s.value(b) is True

    def test_pigeonhole_3_2_unsat(self, solver_cls):
        # 3 pigeons, 2 holes: classic small UNSAT instance needing search.
        s = solver_cls()
        p = {(i, j): s.new_var() for i in range(3) for j in range(2)}
        for i in range(3):
            s.add_clause([p[(i, 0)], p[(i, 1)]])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([-p[(i1, j)], -p[(i2, j)]])
        assert s.solve() == UNSAT

    def test_pigeonhole_5_4_unsat(self, solver_cls):
        s = solver_cls()
        n, m = 5, 4
        p = {(i, j): s.new_var() for i in range(n) for j in range(m)}
        for i in range(n):
            s.add_clause([p[(i, j)] for j in range(m)])
        for j in range(m):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    s.add_clause([-p[(i1, j)], -p[(i2, j)]])
        assert s.solve() == UNSAT

    def test_xor_chain_sat(self, solver_cls):
        # x1 ^ x2 ^ ... chain encoded with clauses; forces propagation
        # through learned structure.
        s = solver_cls()
        n = 12
        xs = [s.new_var() for _ in range(n)]
        clauses = []
        for i in range(n - 1):
            a, b = xs[i], xs[i + 1]
            clauses += [[-a, -b], [a, b]]  # a != b
        for c in clauses:
            s.add_clause(list(c))
        s.add_clause([xs[0]])
        assert s.solve() == SAT
        for i in range(n):
            expected = i % 2 == 0
            assert s.value(xs[i]) is expected


class TestAssumptions:
    def test_solve_honours_its_assumptions(self, solver_cls):
        """``solve`` is the one entry point: the literals it is given
        hold in every model it reports, and the next solve drops them."""
        s = solver_cls()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve([-a, -b]) == UNSAT
        assert s.solve() == SAT

    def test_assumptions_flip(self, solver_cls):
        s = solver_cls()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve([-a]) == SAT
        assert s.value(b) is True
        assert s.solve([-b]) == SAT
        assert s.value(a) is True
        assert s.solve([-a, -b]) == UNSAT
        # Solver remains usable after an assumption-UNSAT answer.
        assert s.solve() == SAT

    def test_conflicting_assumption_with_unit(self, solver_cls):
        s = solver_cls()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve([-a]) == UNSAT
        assert s.solve([a]) == SAT


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@pytest.mark.parametrize("impl", IMPLS, ids=IDS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_vars=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_random_3sat_matches_brute_force(impl, seed, num_vars):
    rng = random.Random(seed)
    num_clauses = rng.randint(1, 4 * num_vars)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        lits = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in lits])
    expected = brute_force(num_vars, clauses)
    s = impl()
    s.ensure_vars(num_vars)
    ok = True
    for c in clauses:
        ok = s.add_clause(list(c)) and ok
    result = s.solve() if ok else UNSAT
    assert (result == SAT) == expected
    if result == SAT:
        check_model(s, clauses)


def test_implementations_agree_on_random_instances():
    # Both search configurations must match brute force, including
    # through an assumption solve on the same instance.
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(4, 12)
        clauses = []
        for _ in range(rng.randint(n, 4 * n)):
            lits = rng.sample(range(1, n + 1), min(3, n))
            clauses.append([v if rng.random() < 0.5 else -v for v in lits])
        expected = (
            brute_force(n, clauses),
            brute_force(n, clauses + [[1], [-2]]),
        )
        for impl in IMPLS:
            s = impl()
            s.ensure_vars(n)
            ok = True
            for c in clauses:
                ok = s.add_clause(list(c)) and ok
            base = s.solve() if ok else UNSAT
            if base == SAT:
                check_model(s, clauses)
            assumed = s.solve([1, -2]) if ok else UNSAT
            if assumed == SAT:
                check_model(s, clauses + [[1], [-2]])
            assert (base == SAT, assumed == SAT) == expected, clauses


def test_large_random_instance_completes(solver_cls):
    rng = random.Random(7)
    s = solver_cls()
    n = 120
    s.ensure_vars(n)
    for _ in range(int(3.5 * n)):
        lits = rng.sample(range(1, n + 1), 3)
        s.add_clause([v if rng.random() < 0.5 else -v for v in lits])
    assert s.solve() in (SAT, UNSAT)


def test_dimacs_export(solver_cls):
    from repro.smt.sat import to_dimacs

    s = solver_cls()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    s.add_clause([-a, b])
    text = to_dimacs(s)
    lines = text.strip().splitlines()
    assert lines[0] == "p cnf 2 2"
    assert lines[1] == "1 2 0"
    assert lines[2] == "-1 2 0"
