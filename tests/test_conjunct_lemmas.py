"""Conjunct by conjunct: a ``not(and(c1..cn))`` goal refuted one piece at a time.

A whole obligation whose store lookup misses and whose goal is a
conjunction runs as piece obligations ``R ∧ ¬ci`` (``repro.core.runner``).
Splitting must never change an answer, only how it is reached.  Verdicts
are compared with brute-force enumeration over 4-bit variables (and the
tables of a boolean uninterpreted function at the points the query
applies it to), a failed obligation's model is replayed against the
whole query, and every store a run leaves behind, ``split`` certificates
included, must pass the independent checker.

(The file keeps the name of the in-check conjunct lemmas these pieces
replaced; the cases that pinned the lemma phase itself are gone with it.)
"""

import itertools
import random

import pytest

from repro import obs
from repro.core.runner import Obligation, run_obligations
from repro.smt import (
    BOOL,
    Solver,
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
from repro.smt.checkproof import audit_store
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


def _obligation(name, query):
    """The obligation whose query is ``query``: its last root is the
    negated goal, the others are assumptions."""
    goal = query[-1]
    conjuncts = goal.args[0].args if goal.op == "not" and goal.args[0].op == "and" else None
    if conjuncts is None:
        conjuncts = [mk_not(goal)]
    return Obligation.from_terms(name, list(conjuncts), query[:-1])


def _run(queries, store, jobs=1, **knobs):
    obligations = [_obligation(f"q{n}", query) for n, query in enumerate(queries)]
    results, _ = run_obligations(obligations, jobs=jobs, cache_dir=str(store), **knobs)
    return results


def _audit(store):
    summary = audit_store(str(store), require_certs=True)
    assert summary["failures"] == []
    return summary


class TestRandomQueries:
    def test_verdicts_models_and_certificates(self, tmp_path):
        store = tmp_path / "store"
        queries = _random_queries(1313, 60)
        results = _run(queries, store)
        seen = {"proved": 0, "failed": 0}
        for n, (query, result) in enumerate(zip(queries, results)):
            assert result.status in seen, n
            assert (result.status == "failed") == _satisfiable(query), n
            seen[result.status] += 1
            if result.status == "failed":
                # The deciding piece's model, completed over the whole
                # query's variables, satisfies the whole query.
                assert _satisfiable(query, fixed=result.model_values.items()), n
        assert seen["proved"] and seen["failed"]
        assert sum(1 for r in results if r.stats.get("split")) >= 40
        assert _audit(store)["split"] >= 5

    def test_shared_session_matches_reset_session(self):
        queries = _random_queries(2727, 25)
        shared = [Solver().check(*q).status for q in queries]
        fresh = []
        for q in queries:
            reset_incremental_session()
            fresh.append(Solver().check(*q).status)
        assert shared == fresh


class TestShapes:
    def test_uninterpreted_predicate(self, tmp_path):
        store = tmp_path / "store"
        goal = mk_not(mk_and(mk_eq(P(X), P(Y)), mk_eq(mk_bvxor(X, Y), mk_bv(0, 4))))
        same = [mk_ule(X, Y), mk_ule(Y, X)]
        [result] = _run([same + [goal]], store)
        assert result.proved and result.stats["split"] == 2
        assert _audit(store)["split"] == 1
        [result] = _run([same[:1] + [goal]], store)
        assert result.status == "failed"
        assert _satisfiable(same[:1] + [goal], fixed=result.model_values.items())
        _audit(store)

    def test_single_conjunct_has_no_lemma_phase(self, tmp_path):
        """One conjunct is no conjunction: the obligation is solved
        whole, with no piece."""
        goal = mk_not(mk_and(IDENTITIES[2](X, Y)))
        assert goal.args[0].op != "and"
        with obs.tracing() as col:
            [result] = _run([[goal]], tmp_path / "store")
        assert result.proved and "split" not in result.stats
        assert col.counters["solver.queries"] == 1

    def test_conjuncts_folding_to_constants(self, tmp_path):
        store = tmp_path / "store"
        valid = IDENTITIES[2](X, Y)
        # Folds away while the term is built.
        assert len(mk_and(valid, mk_true(), IDENTITIES[3](X, Y)).args) == 2
        # Survive the term layer, fold to a constant literal when blasted.
        blast_true = mk_ule(X, mk_bv(15, 4))
        blast_false = mk_ult(mk_bv(15, 4), X)
        assert blast_true.op != "boolconst" and blast_false.op != "boolconst"

        [result] = _run([[mk_not(mk_and(valid, blast_true, IDENTITIES[3](X, Y)))]], store)
        assert result.proved and result.stats["split"] == 3

        query = [mk_ult(Y, X), mk_not(mk_and(valid, blast_false))]
        [result] = _run([query], store)
        assert result.status == "failed" and result.stats["split"] == 2
        assert _satisfiable(query, fixed=result.model_values.items())
        _audit(store)


# ---------------------------------------------------------------------------
# Budgets


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


class TestBudgets:
    def test_pieces_exhausting_conflicts_yield_unknown(self, tmp_path):
        """``max_conflicts`` is per piece: a piece that runs out of it
        makes the whole obligation unknown, under its own name."""
        [result] = _run([_hard_query()], tmp_path / "ample")
        assert result.proved and result.stats["split"] == 8
        reset_incremental_session()
        [result] = _run([_hard_query()], tmp_path / "tight", max_conflicts=1)
        assert result.status == "unknown" and result.name == "q0"
        assert result.stats["piece"].startswith("q0 / piece ")
