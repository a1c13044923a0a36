"""Tests for the §3.2 symbolic profile (``repro.obs`` regions) and the
verify/solve API details."""

import pytest

from repro import obs
from repro.smt import EvalError, eval_term, mk_var
from repro.smt.sorts import bv_sort
from repro.sym import (
    Union,
    bv_val,
    fresh_bool,
    fresh_bv,
    merge,
    new_context,
    prove,
    region,
    verify_vcs,
)


class TestProfiler:
    def test_inactive_by_default(self):
        assert not obs.enabled()
        with region("nowhere") as stats:
            assert stats is None

    def test_counts_terms_in_region(self):
        with obs.tracing() as col:
            with region("work"):
                a = fresh_bv("pr_a", 8)
                _ = a + 1 + 2 + 3
        assert col.regions["work"]["terms"] > 0
        assert col.regions["work"]["calls"] == 1

    def test_nested_regions_both_credited(self):
        with obs.tracing() as col:
            with region("outer"):
                with region("inner"):
                    _ = fresh_bv("pr_b", 8) ^ 0x55
        assert col.regions["inner"]["terms"] > 0
        assert col.regions["outer"]["terms"] >= col.regions["inner"]["terms"]

    def test_merge_and_union_tracking(self):
        with obs.tracing() as col:
            with region("merging"):
                c1, c2 = fresh_bool("pr_c"), fresh_bool("pr_c2")
                u = merge(c1, "a", "b")  # incompatible -> union
                merge(c2, u, "c")  # growing union observed by the hook
        stats = col.regions["merging"]
        assert stats["merges"] >= 2
        assert stats["max_union"] >= 2

    def test_ranking_orders_by_score(self):
        with obs.tracing() as col:
            with region("hot"):
                x = fresh_bv("pr_d", 8)
                for i in range(50):
                    x = x + i
            with region("cold"):
                pass
        ranking = obs.summarize(col)["regions"]
        assert ranking[0]["name"] == "hot"

    def test_report_renders(self):
        with obs.tracing() as col:
            with region("r1"):
                _ = fresh_bv("pr_e", 8) + 1
        report = obs.render_regions(col.regions.values())
        assert "r1" in report and "score" in report

    def test_hooks_restored_after_profile(self):
        from repro.smt import manager

        before = manager.on_new_term
        with obs.tracing():
            pass
        assert manager.on_new_term is before


class TestVerifyVcsDetails:
    def test_failed_vc_identified_among_many(self):
        with new_context() as ctx:
            a = fresh_bv("pv_a", 8)
            ctx.assert_prop((a & 0x80) <= 0x80, "fine one")
            ctx.assert_prop(a < 10, "broken one")
            ctx.assert_prop(a.udiv(2) <= a, "fine two")
            result = verify_vcs(ctx)
        assert not result.proved
        assert result.failed_vc.message == "broken one"

    def test_budget_gives_unknown(self):
        with new_context() as ctx:
            x = fresh_bv("pv_x", 24)
            y = fresh_bv("pv_y", 24)
            # A hard multiplication identity to starve a 1-conflict budget.
            ctx.assert_prop(x * y == y * x, "commutativity")
            result = verify_vcs(ctx, max_conflicts=1)
        assert result.proved or result.unknown

    def test_empty_context_proves(self):
        with new_context() as ctx:
            assert verify_vcs(ctx).proved


class TestEvaluatorErrors:
    def test_missing_variable(self):
        with pytest.raises(EvalError):
            eval_term(mk_var("missing_one", bv_sort(8)), {})

    def test_uf_default_and_callable(self):
        from repro.smt import mk_apply

        t = mk_apply("pe_f", bv_sort(8), [bv_val(3, 8).term])
        assert eval_term(t, {}) == 0  # unconstrained defaults to 0
        assert eval_term(t, {"pe_f": lambda x: x + 1}) == 4


class TestUnionApi:
    def test_union_map_remerges(self):
        c = fresh_bool("pu_c")
        u = merge(c, "left", "right")
        assert isinstance(u, Union)
        out = u.map(lambda v: bv_val(1 if v == "left" else 2, 8))
        assert prove((out == 1) | (out == 2)).proved
