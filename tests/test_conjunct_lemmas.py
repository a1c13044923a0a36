"""Conjunct lemmas: a ``not(and(c1..cn))`` goal refuted one conjunct at a time.

The lemma phase of an incremental check must never change an answer,
only how it is reached.  Verdicts are compared with brute-force
enumeration over 4-bit variables (and the tables of a boolean
uninterpreted function at the points the query applies it to), SAT
models are replayed against the whole query, and UNSAT certificates
must pass the independent checker with the lemmas in them as ordinary,
checked proof lines.
"""

import copy
import itertools
import random
import time

import pytest

from repro import obs
from repro.smt import (
    BOOL,
    Solver,
    SolverCache,
    bv_sort,
    eval_term,
    mk_and,
    mk_apply,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvmul,
    mk_bvor,
    mk_bvsub,
    mk_bvxor,
    mk_eq,
    mk_not,
    mk_or,
    mk_true,
    mk_ule,
    mk_ult,
    mk_var,
)
from repro.smt.checkproof import CheckFailure, check_certificate
from repro.smt.sat import SAT, UNKNOWN, UNSAT, ArenaSolver
from repro.smt.solver import reset_incremental_session

BV4 = bv_sort(4)
X = mk_var("cl_x", BV4)
Y = mk_var("cl_y", BV4)


def P(t):
    """A boolean uninterpreted predicate over 4-bit values."""
    return mk_apply("cl_p", BOOL, [t])


# Conjuncts valid for every a, b (some fold away at construction).
IDENTITIES = [
    lambda a, b: mk_eq(mk_bvxor(mk_bvxor(a, b), b), mk_bvand(a, mk_bv(15, 4))),
    lambda a, b: mk_ule(mk_bvand(a, b), a),
    lambda a, b: mk_eq(mk_bvmul(a, mk_bvadd(b, mk_bv(1, 4))), mk_bvadd(mk_bvmul(a, b), a)),
    lambda a, b: mk_ule(a, mk_bvor(a, b)),
    lambda a, b: mk_eq(mk_bvxor(a, b), mk_bvsub(mk_bvor(a, b), mk_bvand(a, b))),
]


@pytest.fixture(autouse=True)
def _fresh_session():
    reset_incremental_session()
    yield
    reset_incremental_session()


@pytest.fixture
def lemma_log(monkeypatch):
    """Every lemma the session stores, as a set of literals."""
    stored = []
    add_lemma = ArenaSolver.add_lemma

    def recording(self, lits):
        kept = add_lemma(self, lits)
        if kept:
            stored.append(frozenset(lits))
        return kept

    monkeypatch.setattr(ArenaSolver, "add_lemma", recording)
    return stored


# ---------------------------------------------------------------------------
# Brute force


def _nodes(terms):
    seen, out, stack = set(), [], list(terms)
    while stack:
        t = stack.pop()
        if t.tid not in seen:
            seen.add(t.tid)
            out.append(t)
            stack.extend(t.args)
    return out


def _satisfiable(terms, fixed=None):
    """Whether some assignment (``fixed``, or every one) plus some table
    for the predicates satisfies all of ``terms``."""
    nodes = _nodes(terms)
    names = sorted({t.payload for t in nodes if t.op == "var"})
    apps = [t for t in nodes if t.op == "apply"]
    if fixed is not None:
        envs = [dict(fixed)]
    else:
        envs = (dict(zip(names, vals)) for vals in itertools.product(range(16), repeat=len(names)))
    for env in envs:
        points = sorted({(a.payload, tuple(eval_term(x, env) for x in a.args)) for a in apps})
        for values in itertools.product((False, True), repeat=len(points)):
            full = dict(env)
            for (fun, argv), value in zip(points, values):
                full.setdefault(fun, {})[argv] = value
            if all(eval_term(t, full) for t in terms):
                return True
    return False


# ---------------------------------------------------------------------------
# Random queries


def _operand(rng):
    return rng.choice([X, Y, mk_bv(rng.randrange(16), 4)])


def _expr(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return _operand(rng)
    op = rng.choice([mk_bvadd, mk_bvmul, mk_bvxor, mk_bvand, mk_bvor, mk_bvsub])
    return op(_expr(rng, depth - 1), _expr(rng, depth - 1))


def _conjunct(rng, allow_uf):
    a, b = _expr(rng, 1), _expr(rng, 1)
    if allow_uf and rng.random() < 0.3:
        if rng.random() < 0.7:
            # Functional consistency: valid.
            return mk_or(mk_not(mk_eq(a, b)), mk_eq(P(a), P(b)))
        return mk_eq(P(a), P(b))
    if rng.random() < 0.75:
        return rng.choice(IDENTITIES)(a, b)
    return rng.choice([mk_eq, mk_ule])(_expr(rng), _expr(rng))


def _roots(rng):
    pool = [
        lambda: mk_ult(X, mk_bv(rng.randrange(2, 16), 4)),
        lambda: mk_not(mk_eq(Y, mk_bv(rng.randrange(16), 4))),
        lambda: mk_ule(Y, X),
    ]
    return [rng.choice(pool)() for _ in range(rng.randrange(3))]


def _random_queries(seed, count):
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        conjuncts = [_conjunct(rng, allow_uf=i % 5 == 0) for _ in range(rng.randrange(2, 7))]
        queries.append(_roots(rng) + [mk_not(mk_and(*conjuncts))])
    return queries


def _check(solver, terms):
    result = solver.check(*terms)
    digest = solver.last_stats.get("digest")
    cert = solver.cache.load_certificate(digest) if digest else None
    return result, cert


def _lemma_lines(cert, stored):
    return [n for n, line in enumerate(cert["proof"]) if frozenset(line) in stored]


class TestRandomQueries:
    def test_verdicts_models_and_certificates(self, tmp_path, lemma_log):
        solver = Solver(cache=SolverCache(str(tmp_path / "store")))
        seen = {SAT: 0, UNSAT: 0}
        with_lemma_lines = 0
        for n, query in enumerate(_random_queries(1313, 60)):
            result, cert = _check(solver, query)
            assert result.status in (SAT, UNSAT), n
            assert (result.status == SAT) == _satisfiable(query), n
            seen[result.status] += 1
            if solver.last_stats.get("cache_hit") or solver.last_stats.get("trivial"):
                continue
            assert cert is not None, n
            check_certificate(cert)
            if result.is_sat:
                assert _satisfiable(query, fixed=result.model.items()), n
                continue
            if not solver.last_stats["lemmas"] or not _satisfiable(query[:-1]):
                # Roots that refute themselves never reach the goal.
                continue
            assert _lemma_lines(cert, lemma_log), f"query {n}: certificate has no lemma line"
            with_lemma_lines += 1
        assert seen[SAT] and seen[UNSAT]
        assert with_lemma_lines >= 5

    def test_shared_session_matches_reset_session(self):
        queries = _random_queries(2727, 25)
        shared = [Solver().check(*q).status for q in queries]
        fresh = []
        for q in queries:
            reset_incremental_session()
            fresh.append(Solver().check(*q).status)
        assert shared == fresh


class TestShapes:
    def test_uninterpreted_predicate(self, tmp_path, lemma_log):
        solver = Solver(cache=SolverCache(str(tmp_path / "store")))
        goal = mk_not(mk_and(mk_eq(P(X), P(Y)), mk_eq(mk_bvxor(X, Y), mk_bv(0, 4))))
        same = [mk_ule(X, Y), mk_ule(Y, X)]
        result, cert = _check(solver, same + [goal])
        assert result.is_unsat and solver.last_stats["lemmas"] == 2
        check_certificate(cert)
        assert _lemma_lines(cert, lemma_log)
        result, cert = _check(solver, same[:1] + [goal])
        assert result.is_sat
        assert _satisfiable(same[:1] + [goal], fixed=result.model.items())
        check_certificate(cert)

    def test_goal_only_query_stores_two_literal_lemmas(self, tmp_path, lemma_log):
        """k = 0, the shape of every JIT check: each lemma is (G ∨ ci)."""
        solver = Solver(cache=SolverCache(str(tmp_path / "store")))
        conjuncts = [f(X, Y) for f in IDENTITIES[1:]]
        result, cert = _check(solver, [mk_not(mk_and(*conjuncts))])
        assert result.is_unsat
        assert solver.last_stats["lemmas"] == len(conjuncts)
        assert all(len(lemma) == 2 for lemma in lemma_log)
        check_certificate(cert)
        assert len(_lemma_lines(cert, lemma_log)) == len(conjuncts)

    def test_single_conjunct_has_no_lemma_phase(self, lemma_log):
        solver = Solver()
        goal = mk_not(mk_and(IDENTITIES[2](X, Y)))
        assert goal.args[0].op != "and"
        assert solver.check(goal).is_unsat
        assert solver.last_stats["lemmas"] == 0 and not lemma_log

    def test_conjuncts_folding_to_constants(self, tmp_path, lemma_log, monkeypatch):
        solves = []
        solve_with = ArenaSolver.solve_with

        def counting(self, *args, **kwargs):
            solves.append(args[0])
            return solve_with(self, *args, **kwargs)

        monkeypatch.setattr(ArenaSolver, "solve_with", counting)
        solver = Solver(cache=SolverCache(str(tmp_path / "store")))
        valid = IDENTITIES[2](X, Y)
        # Folds away while the term is built.
        assert len(mk_and(valid, mk_true(), IDENTITIES[3](X, Y)).args) == 2
        # Survive the term layer, fold to a constant literal when blasted.
        blast_true = mk_ule(X, mk_bv(15, 4))
        blast_false = mk_ult(mk_bv(15, 4), X)
        assert blast_true.op != "boolconst" and blast_false.op != "boolconst"

        result, cert = _check(solver, [mk_not(mk_and(valid, blast_true, IDENTITIES[3](X, Y)))])
        assert result.is_unsat
        check_certificate(cert)
        assert _lemma_lines(cert, lemma_log)
        # The conjunct blasted to TRUE is a root fact: no piece for it.
        assert len(solves) == 2 + 1 and solver.last_stats["lemmas"] == 2

        # Only one conjunct survives blasting, so the goal's literal is
        # that conjunct's: no piece at all, just the whole query.
        solves.clear()
        result, cert = _check(solver, [mk_ult(Y, X), mk_not(mk_and(valid, blast_true))])
        assert result.is_unsat and len(solves) == 1
        check_certificate(cert)

        query = [mk_ult(Y, X), mk_not(mk_and(valid, blast_false))]
        result, cert = _check(solver, query)
        assert result.is_sat
        assert _satisfiable(query, fixed=result.model.items())
        check_certificate(cert)


# ---------------------------------------------------------------------------
# Budgets and observability


def _hard_query():
    """Eight distributivity identities over a 4-bit multiplier: every
    piece needs search, not just unit propagation."""
    a = mk_var("cl_a", BV4)
    b = mk_var("cl_b", BV4)
    conjuncts = [
        mk_eq(mk_bvmul(a, mk_bvadd(b, mk_bv(k, 4))), mk_bvadd(mk_bvmul(a, b), mk_bvmul(a, mk_bv(k, 4))))
        for k in range(3, 11)
    ]
    return [mk_not(mk_eq(a, mk_bv(1, 4))), mk_not(mk_and(*conjuncts))]


class TestLemmaLines:
    def test_flipped_lemma_literal_fails_the_check(self, tmp_path, lemma_log):
        """Lemma lines are checked like any proof line.

        The first lemma is the one to corrupt.  A flipped line can stay
        sound and the refutation can route around it: on tiny queries
        unit propagation alone refutes a piece, and the last piece's
        learned clauses can stand in for the last lemmas.  These pieces
        all need search.
        """
        solver = Solver(cache=SolverCache(str(tmp_path / "store")))
        result, cert = _check(solver, _hard_query())
        assert result.is_unsat
        check_certificate(cert)
        lines = _lemma_lines(cert, lemma_log)
        assert len(lines) == 8
        first = lines[0]
        for position in range(len(cert["proof"][first])):
            bad = copy.deepcopy(cert)
            bad["proof"][first][position] *= -1
            with pytest.raises(CheckFailure):
                check_certificate(bad)


class TestBudgets:
    def test_pieces_exhausting_conflicts_yield_unknown(self):
        query = _hard_query()
        solver = Solver()
        assert solver.check(*query).is_unsat
        needed = solver.last_stats["conflicts"]
        assert needed > 8
        reset_incremental_session()
        solver = Solver(max_conflicts=4)
        result = solver.check(*query)
        assert result.status == UNKNOWN
        # The pieces and the final solve drew on one budget of four
        # conflicts (plus the one that found the budget spent).
        assert solver.last_stats["conflicts"] <= 5
        assert solver.last_stats["lemmas"] < 8

    def test_deadline_is_shared_by_the_pieces(self, monkeypatch):
        calls = []
        solve_with = ArenaSolver.solve_with

        def spy(self, assumptions, max_conflicts=None, timeout_s=None, relevant=None):
            calls.append(timeout_s)
            return solve_with(self, assumptions, max_conflicts, timeout_s, relevant)

        monkeypatch.setattr(ArenaSolver, "solve_with", spy)
        solver = Solver(timeout_s=60.0, max_conflicts=10**6)
        start = time.perf_counter()
        assert solver.check(*_hard_query()).is_unsat
        spent = time.perf_counter() - start
        assert len(calls) == 8 + 1  # eight pieces, then the whole query
        assert all(t < 60.0 for t in calls)
        assert calls == sorted(calls, reverse=True) and calls[0] > calls[-1]
        assert 60.0 - calls[-1] <= spent

    def test_last_stats_sum_every_solve(self, monkeypatch):
        sums = {"conflicts": 0, "propagations": 0, "decisions": 0}
        solve_with = ArenaSolver.solve_with

        def spy(self, *args, **kwargs):
            status = solve_with(self, *args, **kwargs)
            for key in sums:
                sums[key] += getattr(self, key)
            return status

        monkeypatch.setattr(ArenaSolver, "solve_with", spy)
        solver = Solver()
        assert solver.check(*_hard_query()).is_unsat
        for key, total in sums.items():
            assert solver.last_stats[key] == total


class TestObservability:
    def test_one_span_per_query_with_lemma_args(self):
        with obs.tracing() as col:
            solver = Solver()
            assert solver.check(*_hard_query()).is_unsat
            assert solver.check(mk_not(mk_eq(X, Y))).is_sat
        spans = [s for s in col.spans if s.name == "sat.solve"]
        assert len(spans) == 2
        assert spans[0].args["conjuncts"] == 8 and spans[0].args["lemmas"] == 8
        assert spans[1].args["conjuncts"] == 0 and spans[1].args["lemmas"] == 0
        assert col.counters["sat.lemmas"] == 8
        assert solver.last_stats["lemmas"] == 0
