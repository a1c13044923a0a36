"""Tests for ``repro.obs``: the unified tracing & metrics layer.

Covers the contracts the observability PR promises: span nesting and
post-exit args attachment, bit-identical counters across seeded runs,
worker->parent trace reassembly through the obligation scheduler,
Chrome trace schema validity, the near-zero disabled fast path, SAT
counter reset between solves, and the §3.2 region table (exclusive
time, absorb, dispatch-independence).
"""

import importlib
import sys
import threading
import time

import pytest

from repro import obs
from repro.core.runner import Obligation, run_obligations
from repro.smt import manager, mk_bv, mk_bvadd, mk_bvmul, mk_eq, mk_ult, mk_var
from repro.smt.sat import ArenaSolver
from repro.smt.solver import Solver, reset_incremental_session
from repro.smt.sorts import bv_sort
from repro.sym import fresh_bool, merge, region

# The package re-exports the ``merge`` function under the module's name.
merge_module = importlib.import_module("repro.sym.merge")

BV8 = bv_sort(8)


def _fork_probe(_) -> tuple[bool, bool]:
    """Runs in a scheduler worker: is tracing on, is the term hook set?"""
    return obs.enabled(), manager.on_new_term is not None


def _solve_some(prefix: str) -> None:
    """A small deterministic workload: one non-trivial check, on a fresh
    session (an earlier alpha-equivalent check would otherwise answer it
    from the session's verdict memo)."""
    reset_incremental_session()
    x = mk_var(f"{prefix}_x", BV8)
    y = mk_var(f"{prefix}_y", BV8)
    goal = mk_eq(mk_bvmul(x, y), mk_bv(24, 8))
    Solver().check(goal, mk_ult(x, y))


def _obligations(prefix: str, n: int = 5) -> list[Obligation]:
    out = []
    for i in range(n):
        x = mk_var(f"{prefix}_x{i}", BV8)
        y = mk_var(f"{prefix}_y{i}", BV8)
        goal = mk_eq(mk_bvadd(x, y), mk_bvadd(y, x))
        out.append(Obligation.from_terms(f"{prefix}[{i}]", [goal]))
    return out


def _distinct_obligations(prefix: str, n: int) -> list[Obligation]:
    """Valid obligations with ``n`` distinct digests (``(x + c) + y ==
    y + (c + x)`` for ``c = 1..n``).  With the session reset first none
    is a hit, so each reaches a worker: a hit is answered where it is
    dispatched."""
    out = []
    for i in range(n):
        x = mk_var(f"{prefix}_x{i}", BV8)
        y = mk_var(f"{prefix}_y{i}", BV8)
        c = mk_bv(i + 1, 8)
        goal = mk_eq(mk_bvadd(mk_bvadd(x, c), y), mk_bvadd(y, mk_bvadd(c, x)))
        out.append(Obligation.from_terms(f"{prefix}[{i}]", [goal]))
    return out


class TestSpans:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.get_collector() is None
        # The disabled span is a shared singleton — no allocation.
        assert obs.span("a") is obs.span("b")
        with obs.span("noop") as args:
            assert args is None
        obs.count("nothing", 5)  # no-op, no error

    def test_span_nesting(self):
        with obs.tracing() as col:
            with obs.span("outer", cat="sym"):
                with obs.span("inner", cat="sym"):
                    time.sleep(0.001)
        assert [e.name for e in col.spans] == ["inner", "outer"]
        outer = col.spans[1]
        inner = col.spans[0]
        assert inner.ts >= outer.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-6

    def test_args_attached_after_exit(self):
        """The mutable-args pattern: instrumentation fills the span's
        args dict after the ``with`` block closes."""
        with obs.tracing() as col:
            with obs.span("solve", cat="sat") as args:
                pass
            args["status"] = "unsat"
        assert col.spans[0].args["status"] == "unsat"

    def test_nested_tracing_absorbs_into_outer(self):
        with obs.tracing() as outer:
            obs.count("k", 1)
            with obs.tracing() as inner:
                obs.count("k", 2)
                with obs.span("inner-only"):
                    pass
            # Inner session folded into the outer on exit.
        assert outer.counters["k"] == 3
        assert [e.name for e in outer.spans] == ["inner-only"]
        assert inner.counters["k"] == 2

    def test_session_may_close_out_of_order(self):
        """The daemon holds its session open until ``close()``; a caller
        may open a session after starting it and close the daemon inside
        that block.  Later counts reach the caller's session, which on
        exit folds into the session directly outside it."""
        with obs.tracing() as base:
            daemon = obs.tracing(absorb=False)
            daemon_col = daemon.__enter__()
            with obs.tracing() as inner:
                obs.count("k", 1)
                daemon.__exit__(None, None, None)
                assert obs.get_collector() is inner
                obs.count("k", 2)
            assert obs.get_collector() is base
        assert inner.counters["k"] == 3
        assert daemon_col.counters == {}
        assert base.counters["k"] == 3
        assert not obs.enabled()

    def test_span_cap_drops_and_counts(self):
        col = obs.Collector(max_spans=3)
        with obs.tracing(collector=col):
            for i in range(5):
                with obs.span(f"s{i}"):
                    pass
        assert len(col.spans) == 3
        assert col.dropped_spans == 2

    def test_hooks_restored_after_tracing(self):
        term_hook = manager.on_new_term
        merge_hook = merge_module._merge_hook
        with obs.tracing():
            assert manager.on_new_term is not term_hook
        assert manager.on_new_term is term_hook
        assert merge_module._merge_hook is merge_hook

    def test_disabled_region_is_shared_noop(self):
        assert not obs.enabled()
        assert region("a") is region("b")
        assert region("a") is obs.span("c")
        with region("noop") as stats:
            assert stats is None

    def test_nested_session_counts_terms_once(self):
        """An inner session's terms reach the outer one once, through
        absorb, not a second time through a chained hook."""

        def work(prefix):
            mk_bvadd(mk_var(f"{prefix}_x", BV8), mk_var(f"{prefix}_y", BV8))

        with obs.tracing() as solo:
            work("nest_solo")
        with obs.tracing() as outer:
            with obs.tracing() as inner:
                work("nest_inner")
        assert solo.counters["sym.terms"] == 3
        assert inner.counters["sym.terms"] == 3
        assert outer.counters["sym.terms"] == solo.counters["sym.terms"]


class TestCounters:
    def test_term_hook_and_absorb_lose_no_counts(self):
        """The term hook counts under the collector's lock, so a worker
        snapshot absorbed on another thread cannot overwrite its updates."""
        from repro.obs.collector import _count_term

        n = 100_000

        def count_terms():
            for _ in range(n):
                _count_term(None)

        def absorb_terms():
            for _ in range(n):
                col.absorb({"counters": {"sym.terms": 1}})

        threads = [threading.Thread(target=count_terms), threading.Thread(target=absorb_terms)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.tracing() as col:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert col.counters["sym.terms"] == 2 * n

    def test_stack_counters_recorded(self):
        with obs.tracing() as col:
            _solve_some("ctrs")
        counters = col.counters
        assert counters["solver.queries"] == 1
        assert counters["bitblast.queries"] == 1
        assert counters["bitblast.clauses"] > 0
        assert counters["sym.terms"] > 0
        assert counters["sat.decisions"] > 0
        # Counters are integers only — wall-clock never leaks in.
        assert all(isinstance(v, int) for v in counters.values())

    def test_counters_deterministic_across_runs(self):
        """Two structurally identical workloads produce bit-identical
        counter maps.  Distinct variable prefixes per run keep the
        hash-consed DAG from making the second run trivially free; a
        throwaway first run interns the constants both runs share, so
        the result does not depend on which tests ran before."""
        _solve_some("det_warm")
        with obs.tracing() as first:
            _solve_some("det_a")
        with obs.tracing() as second:
            _solve_some("det_b")
        assert first.counters == second.counters

    def test_cache_counters(self, tmp_path):
        from repro.smt.solver import SolverCache

        x = mk_var("cachectr_x", BV8)
        goal = mk_eq(mk_bvadd(x, x), mk_bv(4, 8))
        with obs.tracing() as col:
            Solver(cache=SolverCache(str(tmp_path))).check(goal)
            Solver(cache=SolverCache(str(tmp_path))).check(goal)
        assert col.counters["solver.cache.misses"] == 1
        assert col.counters["solver.cache.hits"] == 1
        cache_spans = [e for e in col.spans if e.cat == "solver-cache"]
        assert {e.name for e in cache_spans} == {"canonicalize", "cache.lookup", "cert.build"}


class TestWorkerReassembly:
    def test_scheduler_trace_reassembly(self):
        from repro.core.scheduler import shutdown_scheduler

        reset_incremental_session()
        obligations = _distinct_obligations("reasm", 6)
        try:
            with obs.tracing() as col:
                results, stats = run_obligations(obligations, jobs=2)
        finally:
            shutdown_scheduler()
        assert [r.name for r in results] == [ob.name for ob in obligations]
        assert all(r.proved for r in results)

        sched = [e for e in col.spans if e.cat == "scheduler"]
        assert len(sched) == len(obligations)
        # One span per obligation, labelled with its worker's track.
        assert {e.name for e in sched} == {ob.name for ob in obligations}
        assert all(e.tid.startswith("worker-") for e in sched)
        for event in sched:
            assert event.args["status"] == "proved"
            assert event.args["attempts"] == 1
        # Worker-side solver activity landed on worker tracks too.
        sat_spans = [e for e in col.spans if e.cat == "sat"]
        assert sat_spans and all(e.tid.startswith("worker-") for e in sat_spans)
        assert col.counters["solver.queries"] == len(obligations)
        # These obligations enter no sym regions, so the reassembled
        # region table is empty.
        assert col.regions == {}

    def test_forked_workers_start_untraced(self):
        """A pool forked inside a session does not inherit it: untraced
        tasks see no session and no term hook after the parent's ends."""
        from repro.core.scheduler import get_scheduler, shutdown_scheduler

        shutdown_scheduler()
        try:
            with obs.tracing():
                scheduler = get_scheduler(2)
            assert scheduler.map(_fork_probe, range(4)) == [(False, False)] * 4
        finally:
            shutdown_scheduler()

    def test_sweep_region_rows_match_across_dispatch(self):
        """The region table does not depend on how the work was
        dispatched: a JIT sweep run in-process (jobs=1) and on scheduler
        workers (jobs=2) gives the same rows.  Term counts are left out:
        hash-consing makes them depend on what the evaluating process
        had already interned."""
        from repro.bpf_jit import RvJit, check_rv_insn, rv_alu_test_insns
        from repro.bpf_jit.checker import sweep
        from repro.core.scheduler import shutdown_scheduler

        insns = rv_alu_test_insns()[:6]
        rows = {}
        try:
            for jobs in (1, 2):
                with obs.tracing() as col:
                    sweep(check_rv_insn, RvJit(), insns, jobs=jobs)
                rows[jobs] = {
                    name: (r["calls"], r["merges"], r["splits"], r["max_union"])
                    for name, r in col.regions.items()
                }
        finally:
            shutdown_scheduler()
        assert rows[1]["engine.step"][0] > 0
        assert rows[1] == rows[2]

    def test_sequential_trace_has_scheduler_layer(self):
        with obs.tracing() as col:
            results, _ = run_obligations(_obligations("seqtrace", 3), jobs=1)
        assert all(r.proved for r in results)
        sched = [e for e in col.spans if e.cat == "scheduler"]
        assert [e.name for e in sched] == [r.name for r in results]
        assert all(e.args["status"] == "proved" for e in sched)


class TestExport:
    def test_chrome_trace_schema(self):
        with obs.tracing() as col:
            with obs.span("a", cat="sym"):
                with obs.span("b", cat="sat"):
                    pass
            obs.count("sat.conflicts", 7)
        doc = obs.chrome_trace(col)
        assert obs.validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"X"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        assert doc["otherData"]["counters"]["sat.conflicts"] == 7

    def test_validate_rejects_malformed(self):
        assert obs.validate_chrome_trace([]) != []
        assert obs.validate_chrome_trace({"traceEvents": [{"name": "x"}]}) != []

    def test_jsonl_lines(self):
        import json

        with obs.tracing() as col:
            with obs.span("only", cat="bitblast"):
                pass
        lines = list(obs.jsonl_lines(col))
        rows = [json.loads(line) for line in lines]
        assert any(r.get("name") == "only" for r in rows)

    def test_report_renders(self):
        from repro.obs.report import render_report, summarize

        with obs.tracing() as col:
            run_obligations(_obligations("report", 2), jobs=1)
        text = render_report({"obs": summarize(col)})
        assert "obligations by wall time" in text
        assert "report[0]" in text

    def test_report_memo_line(self):
        from repro.obs.report import render_report

        counters = {"solver.memo.hits": 3, "solver.memo.misses": 1}
        text = render_report({"obs": {"counters": counters}})
        assert "verdict memo: 3/4 cache-less checks answered from the session memo" in text
        text = render_report({"obs": {"counters": {"sat.propagations": 5}}})
        assert "verdict memo:" not in text


class TestDisabledOverhead:
    def test_disabled_fast_path_is_cheap(self):
        """The disabled guard is a global load + None test.  Generous
        absolute bound so slow CI machines do not flake: 200k span+count
        pairs well under a second (that is > 2.5us per pair)."""
        assert not obs.enabled()
        span, count = obs.span, obs.count
        start = time.perf_counter()
        for _ in range(200_000):
            with span("hot", cat="sat"):
                pass
            count("hot.counter")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"disabled obs path took {elapsed:.3f}s for 200k pairs"

    @pytest.mark.slow
    def test_toyrisc_verify_untraced(self):
        """End-to-end smoke with tracing disabled: the instrumented
        stack proves the §3.2 walkthrough with no collector active."""
        from repro.toyrisc import prove_sign_refinement

        assert not obs.enabled()
        assert prove_sign_refinement().proved
        assert not obs.enabled()


class TestSatCounterReset:
    def test_stats_reset_between_solves(self):
        solver = ArenaSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        solver.add_clause([a, -b])
        assert solver.solve() == "sat"
        first = solver.stats()
        assert solver.solve() == "sat"
        second = solver.stats()
        # Per-solve counters restart from zero each query instead of
        # accumulating across solves.
        for key in ("conflicts", "decisions", "propagations", "restarts",
                    "learned_clauses", "conflict_literals", "max_decision_level"):
            assert second[key] <= first[key], key
        # The first solve decided something; a cumulative counter would
        # carry that into the second snapshot.
        assert first["decisions"] > 0
        assert second["decisions"] < 2 * first["decisions"]

    def test_stats_keys(self):
        solver = ArenaSolver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.solve()
        stats = solver.stats()
        for key in ("vars", "clauses", "conflicts", "decisions", "propagations",
                    "restarts", "learned_clauses", "learned_kept",
                    "conflict_literals", "max_decision_level", "avg_learned_len"):
            assert key in stats


class TestProfilerIntegration:
    def test_exclusive_time(self):
        with obs.tracing() as col:
            with region("parent"):
                time.sleep(0.02)
                with region("child"):
                    time.sleep(0.02)
        parent = col.regions["parent"]
        child = col.regions["child"]
        assert parent["time_s"] >= parent["excl_s"]
        assert parent["time_s"] >= 0.035
        assert parent["excl_s"] < parent["time_s"] - 0.01  # child time excluded
        assert abs(child["excl_s"] - child["time_s"]) < 1e-6  # leaf: excl == incl

    def test_regions_emit_sym_spans(self):
        with obs.tracing() as col:
            with region("spanned"):
                mk_var("profspan_x", BV8)
        spans = [e for e in col.spans if e.cat == "sym" and e.name == "spanned"]
        assert len(spans) == 1
        assert spans[0].args["terms"] >= 1

    def test_region_obs_only_without_profiler(self):
        """A tracing session alone records region rows for in-process
        symbolic evaluation: one row call per ``sym`` span."""
        from repro.toyrisc import prove_sign_refinement

        with obs.tracing() as col:
            with region("unprofiled") as stats:
                assert stats is None
            assert prove_sign_refinement().proved
        sym_spans = [e for e in col.spans if e.cat == "sym"]
        assert col.regions["unprofiled"]["calls"] == 1
        assert "engine.step" in col.regions
        assert sum(r["calls"] for r in col.regions.values()) == len(sym_spans)

    def test_one_session_feeds_regions_and_counters(self):
        """The region rows and the session's sym.* counters come from
        the same hooks."""
        with obs.tracing() as col:
            with region("both"):
                mk_var("chain_x", BV8)
        assert col.regions["both"]["terms"] >= 1
        assert col.counters["sym.terms"] == col.regions["both"]["terms"]

    def test_absorb_region_snapshot_twice(self):
        """Absorbing one snapshot twice doubles the counts and times of
        its region rows and keeps the largest union."""
        with obs.tracing() as col:
            with region("r"):
                mk_var("absorb2_x", BV8)
                merge(fresh_bool("absorb2_c2"), merge(fresh_bool("absorb2_c1"), "a", "b"), "c")
        snap = col.snapshot()
        other = obs.Collector()
        other.absorb(snap)
        other.absorb(snap)
        once, twice = col.regions["r"], other.regions["r"]
        assert twice["calls"] == 2 * once["calls"]
        assert twice["terms"] == 2 * once["terms"]
        assert twice["merges"] == 2 * once["merges"]
        assert twice["time_s"] == pytest.approx(2 * once["time_s"])
        assert twice["excl_s"] == pytest.approx(2 * once["excl_s"])
        assert twice["max_union"] == once["max_union"] == 2
