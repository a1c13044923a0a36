"""Incremental solving: per-worker sessions, learned-clause reuse,
crash recovery, determinism, and cache-key hygiene.

These pin the contracts the incremental rebuild must not bend:
verdicts and the first failing obligation match the sequential
baseline, sessions recover from crashes, the verdict cache never
confuses queries that differ only in their assumption sets, and the
session's verdict memo answers only alpha-equivalent cache-less repeats
for as long as the session lives.
"""

import random

import pytest

from repro import obs
from repro.core.runner import Obligation, reduce_results, run_obligations
from repro.core.scheduler import ObligationScheduler
from repro.smt import solver as solver_mod
from repro.smt.evaluator import eval_term
from repro.smt.sat import SAT, UNKNOWN, UNSAT, ArenaSolver
from repro.smt.solver import (
    Solver,
    SolverCache,
    SolverTimeout,
    get_incremental_session,
    reset_incremental_session,
)
from repro.smt.terms import (
    fresh_var,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvmul,
    mk_bvxor,
    mk_eq,
    mk_ule,
    mk_ult,
    mk_var,
)
from repro.smt.sorts import bv_sort


@pytest.fixture(autouse=True)
def _fresh_session():
    """Each test starts (and leaves) a clean incremental session."""
    reset_incremental_session()
    yield
    reset_incremental_session()


class TestLearnedRetention:
    def test_learned_clauses_survive_assumption_solves(self):
        """A conflict-heavy instance solved under assumptions leaves
        its learned clauses in the database for the next solve."""
        s = ArenaSolver()
        n, m = 6, 5  # pigeonhole: UNSAT, needs real search
        p = {(i, j): s.new_var() for i in range(n) for j in range(m)}
        for i in range(n):
            s.add_clause([p[(i, j)] for j in range(m)])
        for j in range(m):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    s.add_clause([-p[(i1, j)], -p[(i2, j)]])
        gate = s.new_var()  # free selector so the formula stays assumption-relative
        assert s.solve([gate]) == UNSAT
        kept = s.stats()["learned_kept"]
        assert kept > 0
        first_conflicts = s.conflicts
        # Re-solving under the flipped selector reuses the learned DB:
        # still UNSAT (the pigeonhole core is selector-independent) and
        # the retained clauses are still there.
        assert s.solve([-gate]) == UNSAT
        assert s.stats()["learned_kept"] >= 1
        assert s.conflicts <= first_conflicts

    def test_session_reuses_clauses_across_checks(self):
        x = mk_var("x", bv_sort(16))
        y = mk_var("y", bv_sort(16))
        shared = mk_eq(mk_bvmul(x, y), mk_bv(391, 16))
        s1 = Solver()
        r1 = s1.check(shared, mk_ule(x, mk_bv(100, 16)))
        assert r1.status == SAT
        assert s1.last_stats["incremental"]
        assert s1.last_stats["reused_clauses"] == 0
        s2 = Solver()
        r2 = s2.check(shared, mk_ule(y, mk_bv(100, 16)))
        assert r2.status == SAT
        # The multiplier circuit blasted for the first check is reused.
        assert s2.last_stats["reused_clauses"] > 0
        assert s2.last_stats["blasted_clauses"] < s1.last_stats["blasted_clauses"]


class TestSessionLifecycle:
    def test_session_persists_across_solver_objects(self):
        a = get_incremental_session()
        Solver().check(mk_eq(mk_var("p", bv_sort(4)), mk_bv(3, 4)))
        assert get_incremental_session() is a
        assert a.checks == 1

    def test_reset_on_crash(self, monkeypatch):
        """A check that blows up mid-blast drops the session; the next
        check starts from a fresh, consistent one."""
        before = get_incremental_session()
        from repro.smt import bitblast

        def boom(self, term):
            raise RuntimeError("injected blast failure")

        monkeypatch.setattr(bitblast.BitBlaster, "bool_lit", boom)
        with pytest.raises(RuntimeError, match="injected"):
            Solver().check(mk_eq(mk_var("q", bv_sort(4)), mk_bv(1, 4)))
        monkeypatch.undo()
        after = get_incremental_session()
        assert after is not before
        r = Solver().check(mk_eq(mk_var("q", bv_sort(4)), mk_bv(1, 4)))
        assert r.status == SAT

    def test_session_recycled_past_var_cap(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_SESSION_MAX_VARS", 8)
        first = get_incremental_session()
        Solver().check(mk_eq(mk_var("r", bv_sort(16)), mk_bv(77, 16)))
        assert first.sat.num_vars > 8
        assert get_incremental_session() is not first


class TestDeterminismIncremental:
    def test_first_failure_stable_across_schedulers(self):
        """With each worker reusing its incremental session across
        obligations, ten fresh two-worker schedulers still reproduce the
        sequential verdicts in order, including the same first failure."""
        obligations = []
        for i in range(8):
            x = fresh_var("x", bv_sort(8))
            y = fresh_var("y", bv_sort(8))
            if i in (2, 5):
                goal = mk_eq(x, mk_bv(5, 8))  # not valid
            else:
                goal = mk_eq(
                    mk_bvxor(mk_bvxor(x, y), y),
                    mk_bvand(x, mk_bv(0xFF, 8)),
                )
            obligations.append(Obligation.from_terms(f"inc{i}", [goal]))

        seq_results, _ = run_obligations(obligations, jobs=1)
        seq_verdicts = [r.status for r in seq_results]
        assert seq_verdicts.count("failed") == 2
        seq_first = reduce_results(seq_results)
        assert seq_first is not None and seq_first.name == "inc2"

        for run in range(10):
            sched = ObligationScheduler(workers=2)
            try:
                results, _ = sched.run(obligations, jobs_hint=2)
            finally:
                sched.shutdown()
            assert [r.status for r in results] == seq_verdicts, f"run {run}"
            first = reduce_results(results)
            assert first is not None and first.name == "inc2", f"run {run}"

    def test_incremental_matches_fresh_on_random_queries(self):
        """Property check: every query answers identically on a session
        shared by all of them and on a session reset before each one
        (which behaves exactly like a fresh solver), and every SAT model
        satisfies its query.  Alpha-renamed repeats ride along, so the
        shared session answers some queries from its verdict memo."""

        def build(prefix):
            rng = random.Random(4242)
            queries = []
            for i in range(20):
                x = mk_var(f"{prefix}x{i % 5}", bv_sort(8))
                y = mk_var(f"{prefix}y{i % 3}", bv_sort(8))
                k = mk_bv(rng.randrange(256), 8)
                op = rng.choice([mk_bvadd, mk_bvmul, mk_bvxor, mk_bvand])
                queries.append(mk_eq(op(x, y), k))
                if i % 4 == 3:
                    # No 8-bit square is 3 mod 8: UNSAT after real search.
                    queries.append(mk_eq(mk_bvmul(x, x), mk_bv(8 * rng.randrange(32) + 3, 8)))
            return queries

        queries = build("r") + build("s")[::2]
        memo_hits = []

        def check(query):
            solver = Solver()
            result = solver.check(query)
            if result.is_sat:
                assert eval_term(query, dict(result.model.items())) is True, query
            memo_hits.append(solver.last_stats.get("memo_hit", False))
            return result.status

        shared = [check(q) for q in queries]
        assert any(memo_hits)
        memo_hits.clear()
        fresh = []
        for q in queries:
            reset_incremental_session()
            fresh.append(check(q))
        assert not any(memo_hits)
        assert shared == fresh
        assert SAT in shared and UNSAT in shared


class TestCacheKeys:
    def test_assumption_sets_distinguish_queries(self, tmp_path):
        """Two checks with the same goal but different assumption sets
        must not share a cache entry."""
        cache = SolverCache(str(tmp_path))
        x = mk_var("x", bv_sort(8))
        goal = mk_eq(x, mk_bv(1, 8))

        with obs.tracing() as col:
            s1 = Solver(cache=cache)
            s1.add(mk_eq(x, mk_bv(1, 8)))
            r1 = s1.check(goal)
            assert r1.status == SAT

            s2 = Solver(cache=cache)
            s2.add(mk_eq(x, mk_bv(2, 8)))
            r2 = s2.check(goal)
            assert r2.status == UNSAT  # a key collision would replay SAT
            assert col.counters["solver.cache.misses"] == 2
            assert "solver.cache.hits" not in col.counters

            # Identical query (goal + assumptions) does hit.
            s3 = Solver(cache=cache)
            s3.add(mk_eq(x, mk_bv(1, 8)))
            r3 = s3.check(goal)
            assert r3.status == SAT
            assert col.counters["solver.cache.hits"] == 1


def _factor_query(tag):
    """``a * b == 143`` with ``1 < a < b`` over 8 bits: SAT, but only
    after a couple of conflicts, so a one-conflict budget gives up."""
    a = mk_var(f"{tag}a", bv_sort(8))
    b = mk_var(f"{tag}b", bv_sort(8))
    return [mk_eq(mk_bvmul(a, b), mk_bv(143, 8)), mk_ult(mk_bv(1, 8), a), mk_ult(a, b)]


def _square_query(tag):
    """No 8-bit square is 3 mod 8: UNSAT."""
    x = mk_var(f"{tag}x", bv_sort(8))
    return [mk_eq(mk_bvmul(x, x), mk_bv(43, 8))]


MEMO_HIT = {"memo_hit": True, "time_s": 0.0}


class TestVerdictMemo:
    """The session's verdict memo: cache-less checks of alpha-equivalent
    queries share one solve per session."""

    @pytest.mark.parametrize("query", [_factor_query, _square_query], ids=["sat", "unsat"])
    def test_alpha_renamed_repeat_is_a_memo_hit(self, query):
        first = Solver()
        verdict = first.check(*query("mfa")).status
        assert "memo_hit" not in first.last_stats
        assert "digest" not in first.last_stats
        session = get_incremental_session()
        vars_before = session.sat.num_vars
        with obs.tracing() as col:
            second = Solver()
            assert second.check(*query("mfb")).status == verdict
        assert second.last_stats == MEMO_HIT
        assert get_incremental_session() is session
        assert session.sat.num_vars == vars_before
        assert col.counters["solver.memo.hits"] == 1
        assert "solver.memo.misses" not in col.counters

    def test_sat_hit_replays_model_under_own_names(self):
        Solver().check(*_factor_query("mma"))
        query = _factor_query("mmb")
        solver = Solver()
        result = solver.check(*query)
        assert solver.last_stats == MEMO_HIT
        env = dict(result.model.items())
        assert sorted(env) == ["mmba", "mmbb"]
        assert all(eval_term(t, env) is True for t in query)

    def test_assumption_sets_distinguish_memo_entries(self):
        """Mirror of TestCacheKeys for the memo: the same goal under
        different assumptions never hits."""
        x = mk_var("mkx", bv_sort(8))
        goal = mk_eq(x, mk_bv(1, 8))
        with obs.tracing() as col:
            s1 = Solver()
            s1.add(mk_eq(x, mk_bv(1, 8)))
            assert s1.check(goal).status == SAT

            s2 = Solver()
            s2.add(mk_eq(x, mk_bv(2, 8)))
            assert s2.check(goal).status == UNSAT  # a key collision would replay SAT
            assert "memo_hit" not in s2.last_stats

            s3 = Solver()
            s3.add(mk_eq(x, mk_bv(1, 8)))
            assert s3.check(goal).status == SAT
            assert s3.last_stats == MEMO_HIT
        assert col.counters["solver.memo.misses"] == 2
        assert col.counters["solver.memo.hits"] == 1

    def test_unknown_and_timeouts_are_not_memoized(self):
        query = _factor_query("mua")
        assert Solver(max_conflicts=1).check(*query).status == UNKNOWN
        with pytest.raises(SolverTimeout):
            Solver(timeout_s=0.0).check(*query)
        solver = Solver()
        assert solver.check(*query).status == SAT
        assert "memo_hit" not in solver.last_stats
        # Verdicts do not depend on the budget: a starved check of a
        # renamed copy is now answered from the memo.
        starved = Solver(max_conflicts=1)
        assert starved.check(*_factor_query("mub")).status == SAT
        assert starved.last_stats == MEMO_HIT

    def test_reset_drops_the_memo(self):
        Solver().check(*_factor_query("mra"))
        reset_incremental_session()
        solver = Solver()
        assert solver.check(*_factor_query("mrb")).status == SAT
        assert "memo_hit" not in solver.last_stats

    def test_recycling_past_var_cap_drops_the_memo(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_SESSION_MAX_VARS", 8)
        first = get_incremental_session()
        Solver().check(*_factor_query("mva"))
        assert first.memo and first.sat.num_vars > 8
        solver = Solver()
        assert solver.check(*_factor_query("mvb")).status == SAT
        assert get_incremental_session() is not first
        assert "memo_hit" not in solver.last_stats

    def test_cache_backed_check_bypasses_the_memo(self, tmp_path):
        """A memoized query checked with a cache still misses the store,
        writes its entry and certificate, and never touches the memo."""
        Solver().check(*_factor_query("mca"))
        session = get_incremental_session()
        memo_before = dict(session.memo)
        cache = SolverCache(str(tmp_path))
        with obs.tracing() as col:
            solver = Solver(cache=cache)
            assert solver.check(*_factor_query("mcb")).status == SAT
        assert "memo_hit" not in solver.last_stats
        digest = solver.last_stats["digest"]
        assert cache._read_entry(digest)["status"] == SAT
        assert cache.load_certificate(digest) is not None
        assert col.counters["solver.cache.misses"] == 1
        assert "solver.cache.hits" not in col.counters
        assert not any(name.startswith("solver.memo.") for name in col.counters)
        assert session.memo == memo_before
