"""Tests for the proof-obligation runner (repro.core.runner).

Three contracts the scheduler must uphold:

  * determinism — parallel runs produce exactly the sequential
    verdicts, in the same order, including the same "first failing
    obligation" (the reduction is input-order, not completion-order);
  * memoization — alpha-equivalent queries hit the persistent cache
    (the digest is over the canonicalized hash-consed DAG, so variable
    names don't matter), and a SAT hit replays the model under the
    current query's variable names;
  * invalidation — a changed query misses, and clearing the cache
    forces recomputation with identical verdicts.
"""

import dataclasses

import pytest

from repro.bpf.insn import alu
from repro.bpf_jit import RV_BUGS, RvJit, check_rv_insn
from repro.bpf_jit.checker import _sweep_one, sweep
from repro.certikos import CertikosVerifier
from repro.core import runner
from repro.core.runner import Obligation, obligations_from_context, reduce_results, run_obligations
from repro.core.store import VerdictStore
from repro.smt import (
    SolverCache,
    deserialize_terms,
    eval_term,
    mk_bool,
    mk_not,
    query_digest,
    serialize_terms,
)
from repro.smt.solver import reset_incremental_session
from repro.sym import check_batch, fresh_bv, new_context, verify_vcs


def _algebra_obligations(prefix):
    """A mixed batch: provable identities plus one falsifiable claim."""
    x = fresh_bv(f"{prefix}.x", 32)
    y = fresh_bv(f"{prefix}.y", 32)
    # Identities the term-level simplifier cannot fold away, so every
    # one reaches the solver (and hence the cache).
    return [
        Obligation.from_terms("add-cancel", [((x + y) - y == x).term]),
        Obligation.from_terms("xor-cancel", [((x ^ y) ^ y == x).term]),
        Obligation.from_terms("bogus-shift", [(x << 1 == x).term]),
        Obligation.from_terms("absorb", [((x | y) & x == x).term]),
    ]


class TestDeterminism:
    def test_parallel_matches_sequential_on_algebra(self):
        seq, _ = run_obligations(_algebra_obligations("det.a"))
        # det.b is det.a renamed: with the memo kept, dispatch would
        # answer every task from the sequential run's verdicts.
        reset_incremental_session()
        par, stats = run_obligations(_algebra_obligations("det.b"), jobs=2)
        assert stats.jobs == 2
        assert [r.status for r in seq] == [r.status for r in par]
        assert [r.name for r in seq] == [r.name for r in par]
        assert reduce_results(seq).name == "bogus-shift"
        assert reduce_results(par).name == "bogus-shift"

    def test_parallel_matches_sequential_on_certikos_get_quota(self):
        verifier = CertikosVerifier(opt=1)
        sequential = verifier.prove_op("get_quota")
        verifier.jobs = 2
        reset_incremental_session()  # the workers solve, not the memo
        parallel = verifier.prove_op("get_quota")
        assert sequential.proved and parallel.proved
        assert parallel.stats["obligations"] > 1

    @pytest.mark.parametrize("bug", RV_BUGS[:3], ids=lambda b: b.id)
    def test_parallel_matches_sequential_on_jit_bugs(self, bug):
        # Each cataloged bug's witness instruction must produce a
        # counterexample whether the sweep runs in-process or across
        # worker processes, and clean instructions must stay clean.
        # The battery has more than one item, so jobs=2 really goes
        # through the worker pool.  The same template on other registers
        # is alpha-equivalent to the witness, so a session that checks
        # both answers the second from its verdict memo.
        jit = RvJit(bugs={bug.id})
        moved = dataclasses.replace(bug.witness, dst=4, src=6)
        clean = alu("add", 1, ("r", 2), alu64=True)
        battery = [bug.witness, moved, clean]
        seq = sweep(check_rv_insn, jit, battery, jobs=1)
        par = sweep(check_rv_insn, jit, battery, jobs=2)
        assert [r.ok for r in seq] == [r.ok for r in par] == [False, False, True]
        for side in (seq, par):
            assert all(r.counterexample is not None for r in side[:2])

    def test_sweep_worker_is_picklable_entry(self):
        bug = RV_BUGS[0]
        result = _sweep_one((check_rv_insn, RvJit(bugs={bug.id}), bug.witness))
        assert not result.ok

    def test_verify_vcs_failing_vc_matches_across_jobs(self):
        """One failing VC among several: jobs=1 and jobs=2 name the same
        VC, each with a counterexample that falsifies it."""
        messages = []
        for jobs in (1, 2):
            reset_incremental_session()  # the jobs=1 verdicts are not reused
            with new_context() as ctx:
                a = fresh_bv(f"vvr.{jobs}.a", 16)
                b = fresh_bv(f"vvr.{jobs}.b", 16)
                ctx.assert_prop((a + b) - b == a, "add-cancel")
                ctx.assert_prop((a & b) == a, "and-absorbs")
                ctx.assert_prop((a ^ b) ^ b == a, "xor-cancel")
                ctx.assert_prop((a | b) & a == a, "absorb")
            result = verify_vcs(ctx, jobs=jobs)
            assert not result.proved and not result.unknown
            model = dict(result.counterexample.items())
            assert eval_term(result.failed_vc.formula, model) is False
            assert result.stats["obligations"] == 4
            messages.append(result.failed_vc.message)
        assert messages == ["and-absorbs", "and-absorbs"]


class TestCache:
    def test_alpha_equivalent_queries_hit(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold, cold_stats = run_obligations(
            _algebra_obligations("alpha.one"), cache_dir=cache_dir
        )
        # Same queries over *differently named* variables: every
        # obligation canonicalizes to the same digest and hits.
        warm, warm_stats = run_obligations(
            _algebra_obligations("alpha.two"), cache_dir=cache_dir
        )
        assert warm_stats.cache_hits == warm_stats.cache_queries == 4
        assert warm_stats.cache_hit_rate == 1.0
        assert [r.status for r in cold] == [r.status for r in warm]

    def test_sat_hit_replays_model_under_new_names(self, tmp_path):
        cache = SolverCache(str(tmp_path / "cache"))
        x = fresh_bv("replay.x", 32)
        first = check_batch(
            [("x is 7", x != 7, [])], cache_dir=cache.path
        )[0]
        assert not first.proved
        y = fresh_bv("replay.y", 32)
        second = check_batch(
            [("y is 7", y != 7, [])], cache_dir=cache.path
        )[0]
        assert not second.proved
        # The cached model comes back under the *current* variable
        # names, not the names the original query was stored under.
        first_items = dict(first.counterexample.items())
        second_items = dict(second.counterexample.items())
        assert set(first_items) != set(second_items)
        assert sorted(first_items.values()) == sorted(second_items.values())
        assert y is not x

    def test_digest_is_name_blind_but_structure_sensitive(self):
        x = fresh_bv("dig.x", 32)
        y = fresh_bv("dig.y", 32)
        assert query_digest([(x + 1 == 2).term]) == query_digest([(y + 1 == 2).term])
        assert query_digest([(x + 1 == 2).term]) != query_digest([(x + 1 == 3).term])

    def test_unknown_verdicts_are_not_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        x = fresh_bv("unk.x", 64)
        y = fresh_bv("unk.y", 64)
        hard = [Obligation.from_terms("hard-mul", [(x * y == y * x).term])]
        first, _ = run_obligations(hard, cache_dir=cache_dir, max_conflicts=1)
        if first[0].status != "unknown":
            pytest.skip("budget large enough to decide the query")
        second, stats = run_obligations(hard, cache_dir=cache_dir, max_conflicts=1)
        assert second[0].status == "unknown"
        assert stats.cache_hits == 0

    def test_trivial_obligation_is_not_a_cache_query(self, tmp_path):
        # The goal folds to a constant, so the solver answers without
        # touching the cache; stale stats from nowhere must not say
        # otherwise.
        trivial = [Obligation.from_terms("t", [mk_bool(True)])]
        results, stats = run_obligations(trivial, jobs=1, cache_dir=str(tmp_path / "cache"))
        assert results[0].status == "proved"
        assert results[0].stats["trivial"]
        assert stats.cache_queries == 0 and stats.cache_hits == 0


class TestLookupBeforeTerms:
    """An obligation is looked up as its payload: only a solve builds
    its terms (``runner.deserialize_terms``)."""

    @staticmethod
    def _obligations(prefix):
        x = fresh_bv(f"{prefix}.x", 32)
        y = fresh_bv(f"{prefix}.y", 32)
        # Two conjuncts: a miss answers this one by its pieces.
        whole = Obligation.from_terms(
            "whole", [((x - y) + y == x).term, ((x & y) ^ (x | y) == x ^ y).term]
        )
        return _algebra_obligations(prefix) + [whole]

    @staticmethod
    def _count_deserialized(monkeypatch):
        payloads = []

        def counting(payload, *args, **kwargs):
            payloads.append(payload)
            return deserialize_terms(payload, *args, **kwargs)

        monkeypatch.setattr(runner, "deserialize_terms", counting)
        return payloads

    def test_warm_store_builds_no_terms(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        payloads = self._count_deserialized(monkeypatch)
        cold, _ = run_obligations(self._obligations("lk.cold"), jobs=1, cache_dir=cache_dir)
        solved = len(payloads)
        del payloads[:]
        warm, stats = run_obligations(self._obligations("lk.warm"), jobs=1, cache_dir=cache_dir)
        assert payloads == []
        # Four solved whole, two pieces; the split whole never.
        assert solved == 6
        assert stats.cache_hits == stats.cache_queries == 5
        assert [(r.name, r.status) for r in warm] == [(r.name, r.status) for r in cold]
        assert [r.name for r in warm if not r.proved] == ["bogus-shift"]

    def test_split_whole_is_never_deserialized(self, tmp_path, monkeypatch):
        reset_incremental_session()  # no memo hit from an earlier test
        payloads = self._count_deserialized(monkeypatch)
        whole = self._obligations("lk.split")[-1]
        for cache_dir in (str(tmp_path / "cache"), None):
            del payloads[:]
            [result], _ = run_obligations([whole], jobs=1, cache_dir=cache_dir)
            assert result.proved and result.stats["pieces"] == 2
            assert len(payloads) == 2
            assert all(payload is not whole.payload for payload in payloads)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trivial_payloads(self, tmp_path, jobs):
        def lone(value):
            return Obligation(f"lone {value}", serialize_terms([mk_bool(value)]))

        results, stats = run_obligations(
            [lone(False), lone(True)], jobs=jobs, cache_dir=str(tmp_path / "cache")
        )
        assert [(r.status, r.model_values) for r in results] == [
            ("proved", None),
            ("failed", {}),
        ]
        assert all(r.stats["trivial"] for r in results)
        assert stats.cache_queries == 0


class TestInvalidation:
    def test_changed_query_misses(self, tmp_path):
        cache = SolverCache(str(tmp_path / "cache"))
        x = fresh_bv("inv.x", 32)
        run_obligations(
            [Obligation.from_terms("v1", [(x + 1 == 1 + x).term])], cache_dir=cache.path
        )
        _, stats = run_obligations(
            [Obligation.from_terms("v2", [(x + 2 == 2 + x).term])], cache_dir=cache.path
        )
        assert stats.cache_hits == 0

    def test_gc_keep_zero_forces_recompute_with_same_verdicts(self, tmp_path):
        cache = VerdictStore(str(tmp_path / "cache"))
        batch = _algebra_obligations("clr")
        first, _ = run_obligations(batch, cache_dir=cache.path)
        cache.gc(keep=0)
        second, stats = run_obligations(batch, cache_dir=cache.path)
        assert stats.cache_hits == 0
        assert [r.status for r in first] == [r.status for r in second]

    def test_obligations_from_context_carry_vc_metadata(self):
        with new_context() as ctx:
            a = fresh_bv("meta.a", 8)
            b = fresh_bv("meta.b", 8)
            ctx.assert_prop((a + b) - b == a, "add-cancel")
            obs = obligations_from_context(ctx)
        assert len(obs) == 1
        assert obs[0].name.startswith("vc[0]: ") and "add-cancel" in obs[0].name
        # The payload is the VC's query: its goal, negated, is the last root.
        payload = obs[0].payload
        assert payload["nodes"][payload["roots"][-1]][0] == "not"

    def test_obligations_from_context_match_from_terms(self):
        """The assumptions are serialized once for every VC, yet each
        payload is ``serialize_terms`` of the assumptions other than
        ``true`` and the negated VC, as ``Obligation.from_terms`` packages
        one alone."""
        with new_context() as ctx:
            a = fresh_bv("share.a", 8)
            b = fresh_bv("share.b", 8)
            assumptions = [(a < 100).term, mk_bool(True), (b != 0).term]
            ctx.assert_prop((a + b) - b == a, "add-cancel")
            with ctx.under(a == b):
                ctx.bug_on(a - b != 0, "sub-zero")
            ctx.assert_prop(a < 100, "bounded")
            obs = obligations_from_context(ctx, assumptions)
        kept = [assumptions[0], assumptions[2]]
        assert [ob.payload for ob in obs] == [
            serialize_terms([*kept, mk_not(vc.formula)]) for vc in ctx.vcs
        ]
        assert [ob.payload for ob in obs] == [
            Obligation.from_terms(ob.name, [vc.formula], assumptions).payload
            for ob, vc in zip(obs, ctx.vcs)
        ]
        assert len(obs) == 3
