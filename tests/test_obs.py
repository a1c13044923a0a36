"""Tests for ``repro.obs``: the unified tracing & metrics layer.

Covers the contracts the observability PR promises: span nesting and
post-exit args attachment, bit-identical counters across seeded runs,
worker->parent trace reassembly through the work-stealing scheduler,
Chrome trace schema validity, the near-zero disabled fast path, SAT
counter reset between solves, and profiler exclusive-time accounting.
"""

import time

import pytest

from repro import obs
from repro.core.runner import Obligation, run_obligations
from repro.smt import manager, mk_bv, mk_bvadd, mk_bvmul, mk_eq, mk_ult, mk_var
from repro.smt.sat import ArenaSolver
from repro.smt.solver import Solver
from repro.smt.sorts import bv_sort
from repro.sym.merge import get_merge_hook
from repro.sym.profiler import active_profiler, profile, region

BV8 = bv_sort(8)


def _solve_some(prefix: str) -> None:
    """A small deterministic workload: one non-trivial check."""
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
        merge_hook = get_merge_hook()
        with obs.tracing():
            assert manager.on_new_term is not term_hook
        assert manager.on_new_term is term_hook
        assert get_merge_hook() is merge_hook


class TestCounters:
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
        hash-consed DAG from making the second run trivially free."""
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

        obligations = _obligations("reasm", 6)
        try:
            with obs.tracing() as col, profile() as prof:
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
        # profiler is empty — but the merge path must leave it usable.
        assert prof.snapshot() == {}

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

        with obs.tracing() as col, profile() as prof:
            run_obligations(_obligations("report", 2), jobs=1)
        text = render_report({"obs": summarize(col, profiler=prof)})
        assert "obligations by wall time" in text
        assert "report[0]" in text


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
        with profile() as prof:
            with region("parent"):
                time.sleep(0.02)
                with region("child"):
                    time.sleep(0.02)
        parent = prof.regions["parent"]
        child = prof.regions["child"]
        assert parent.time_s >= parent.excl_s
        assert parent.time_s >= 0.035
        assert parent.excl_s < parent.time_s - 0.01  # child time excluded
        assert abs(child.excl_s - child.time_s) < 1e-6  # leaf: excl == incl

    def test_regions_emit_sym_spans(self):
        with obs.tracing() as col, profile():
            with region("spanned"):
                mk_var("profspan_x", BV8)
        spans = [e for e in col.spans if e.cat == "sym" and e.name == "spanned"]
        assert len(spans) == 1
        assert spans[0].args["terms"] >= 1

    def test_region_obs_only_without_profiler(self):
        assert active_profiler() is None
        with obs.tracing() as col:
            with region("unprofiled") as stats:
                assert stats is None
        assert [e.name for e in col.spans if e.cat == "sym"] == ["unprofiled"]

    def test_profile_chains_obs_hooks(self):
        """A profiler inside a tracing session feeds both: its own
        regions and the session's sym.* counters."""
        with obs.tracing() as col:
            with profile() as prof:
                with region("both"):
                    mk_var("chain_x", BV8)
        assert prof.regions["both"].terms >= 1
        assert col.counters["sym.terms"] >= 1

    def test_merge_from_roundtrip(self):
        with profile() as prof:
            with region("r"):
                mk_var("mergefrom_x", BV8)
        snap = prof.snapshot()
        with profile() as other:
            other.merge_from(snap)
            other.merge_from(snap)
        r = other.regions["r"]
        assert r.calls == 2 * prof.regions["r"].calls
        assert r.terms == 2 * prof.regions["r"].terms
        assert r.max_union == prof.regions["r"].max_union
