"""Fleet-wide observability: histograms, Prometheus exposition, the
correlation-ID event log, cross-process trace propagation, and the
``obs.top`` dashboard.

The unit half pins the mergeable-histogram and text-format contracts
(same bucket bounds everywhere, element-wise merge, lossless render/
parse round trip).  The end-to-end half runs a *traced* daemon and
checks what the CI serve-load gate leans on: concurrent ``/metrics``
scrapes during a live grid job parse cleanly with monotonic counters,
and a single client trace_id shows up in daemon spans, a worker-side
solve span, and a store request log line.
"""

import json
import random
import threading
import urllib.request

import pytest

from repro import obs
from repro.core.remote import RemoteStoreClient, StoreServer
from repro.core.runner import Obligation
from repro.obs import HIST_BUCKETS, Histogram
from repro.obs.collector import Collector
from repro.obs.events import (
    current_trace,
    format_trace_header,
    parse_trace_header,
    trace_context,
)
from repro.obs.export import merge_chrome_traces
from repro.obs.prom import CONTENT_TYPE, metric_name, parse_prometheus, render_prometheus
from repro.obs import top as obs_top
from repro.serve import ServeClient, VerificationServer
from repro.smt import bv_sort, mk_bv, mk_bvadd, mk_bvxor, mk_eq, mk_var

BV8 = bv_sort(8)


def _obligations(prefix: str, n: int = 6, salt: int = 0) -> list[Obligation]:
    """Small valid batch that reaches the SAT core.  ``salt`` makes the
    goals structurally unique per test (the cache canonicalizes variable
    names away, so distinct constants are what forces fresh solves)."""
    out = []
    for i in range(n):
        x = mk_var(f"{prefix}_x{i}", BV8)
        y = mk_var(f"{prefix}_y{i}", BV8)
        c = mk_bv((salt + i) % 256, 8)
        goal = mk_eq(mk_bvadd(mk_bvxor(mk_bvxor(x, y), y), c), mk_bvadd(x, c))
        out.append(Obligation.from_terms(f"{prefix}[{i}]", [goal]))
    return out


# ---------------------------------------------------------------------------
# histograms


class TestHistogram:
    def test_observe_and_summary(self):
        hist = Histogram()
        values = [0.0002, 0.001, 0.004, 0.004, 0.03, 0.25, 2.0]
        for v in values:
            hist.observe(v)
        s = hist.summary()
        assert s["count"] == len(values)
        assert s["sum"] == pytest.approx(sum(values))
        assert s["min"] == min(values) and s["max"] == max(values)
        assert s["min"] <= s["p50"] <= s["p90"] <= s["p99"] <= s["max"]

    def test_empty_percentiles(self):
        hist = Histogram()
        assert hist.percentile(0.5) == 0.0
        assert hist.summary()["count"] == 0

    def test_merge_determinism_across_workers(self):
        """Sharding observations across N 'workers' and merging in any
        order reproduces the single-process histogram bit-for-bit —
        the histogram analogue of the counter determinism contract."""
        rng = random.Random(7)
        values = [rng.uniform(1e-5, 5.0) for _ in range(1000)]
        whole = Histogram()
        shards = [Histogram() for _ in range(4)]
        for i, v in enumerate(values):
            whole.observe(v)
            shards[i % 4].observe(v)

        merged_fwd = Histogram()
        for shard in shards:
            merged_fwd.merge(shard)
        merged_rev = Histogram()
        for shard in reversed(shards):
            # Dict form, as worker envelopes ship it.
            merged_rev.merge(shard.to_json())

        assert merged_fwd.to_json() == merged_rev.to_json()
        assert merged_fwd.buckets == whole.buckets
        assert merged_fwd.count == whole.count
        assert merged_fwd.min == whole.min and merged_fwd.max == whole.max
        assert merged_fwd.sum == pytest.approx(whole.sum)

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(bounds=(1.0, 2.0)))

    def test_json_roundtrip(self):
        hist = Histogram()
        for v in (0.003, 0.05, 1.5):
            hist.observe(v)
        clone = Histogram.from_json(json.loads(json.dumps(hist.to_json())))
        assert clone.to_json() == hist.to_json()
        assert clone.summary() == hist.summary()

    def test_collector_observe_and_absorb(self):
        parent, child = Collector(), Collector()
        parent.observe("lat", 0.01)
        child.observe("lat", 0.02)
        child.observe("other", 0.5)
        parent.absorb(child.snapshot())
        assert parent.histograms["lat"].count == 2
        assert parent.histograms["other"].count == 1


# ---------------------------------------------------------------------------
# Prometheus text format


class TestPrometheus:
    def test_metric_name_sanitization(self):
        assert metric_name("obligation.wall_seconds") == "repro_obligation_wall_seconds"
        assert metric_name("store.remote.fetch_s") == "repro_store_remote_fetch_s"
        assert metric_name("repro_already_prefixed") == "repro_already_prefixed"

    def test_content_type_is_0_0_4(self):
        assert "version=0.0.4" in CONTENT_TYPE

    def test_render_parse_roundtrip(self):
        hist = Histogram()
        for v in (0.0003, 0.002, 0.002, 0.9):
            hist.observe(v)
        text = render_prometheus(
            counters={"solver.queries": 3, "sat.conflicts": 120},
            gauges={"scheduler.queued": 2, "serve.uptime_seconds": 1.5, "skip.me": None},
            histograms={"obligation.wall_seconds": hist},
        )
        assert "# TYPE repro_obligation_wall_seconds histogram" in text
        assert 'repro_obligation_wall_seconds_bucket{le="+Inf"} 4' in text

        back = parse_prometheus(text)
        assert back["counters"]["repro_solver_queries"] == 3
        assert back["gauges"]["repro_scheduler_queued"] == 2
        assert "repro_skip_me" not in back["gauges"]
        doc = back["histograms"]["repro_obligation_wall_seconds"]
        assert doc["bounds"] == pytest.approx(list(HIST_BUCKETS))
        assert doc["buckets"] == hist.buckets
        assert doc["count"] == hist.count
        assert doc["sum"] == pytest.approx(hist.sum)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is { not a sample\n")
        # A histogram without its +Inf bucket is invalid exposition.
        bad = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 1\n'
            "repro_h_sum 0.05\nrepro_h_count 1\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus(bad)


# ---------------------------------------------------------------------------
# event log + trace context


class TestEventLog:
    def test_ring_rolloff_keeps_seq_monotonic(self):
        col = Collector(max_events=8)
        for i in range(20):
            col.event("info", f"e{i}")
        records = col.events_since(0)
        assert [r["seq"] for r in records] == list(range(13, 21))
        assert [r["seq"] for r in col.events_since(18)] == [19, 20]

    def test_level_floor_filter(self):
        col = Collector()
        for level in ("debug", "info", "warn", "error", "bogus"):
            col.event(level, level)
        warn_up = col.events_since(0, level="warn")
        assert [r["msg"] for r in warn_up] == ["warn", "error"]
        # Unknown record levels rank as info; unknown filter levels are
        # ignored rather than raising.
        info_up = col.events_since(0, level="info")
        assert "bogus" in [r["msg"] for r in info_up]
        assert len(col.events_since(0, level="nope")) == 5

    def test_absorb_resequences_child_events(self):
        parent, child = Collector(), Collector()
        parent.event("info", "p1")
        child.event("info", "c1")
        child.event("warn", "c2")
        parent.absorb(child.snapshot())
        seqs = [r["seq"] for r in parent.events_since(0)]
        assert seqs == sorted(seqs) == list(range(1, 4))
        assert [r["msg"] for r in parent.events_since(0)] == ["p1", "c1", "c2"]


class TestTraceContext:
    def test_nesting_and_inheritance(self):
        assert current_trace() == (None, None)
        with trace_context("t1"):
            assert current_trace() == ("t1", None)
            with trace_context(None, "t1.3"):
                # ob scopes inherit the enclosing trace_id.
                assert current_trace() == ("t1", "t1.3")
            assert current_trace() == ("t1", None)
        assert current_trace() == (None, None)

    def test_header_roundtrip(self):
        assert parse_trace_header(format_trace_header("abc", None)) == ("abc", None)
        assert parse_trace_header(format_trace_header("abc", "abc.4")) == ("abc", "abc.4")
        assert format_trace_header(None, "x") is None
        assert parse_trace_header(None) == (None, None)
        assert parse_trace_header("  ") == (None, None)

    def test_spans_and_events_stamped_with_ambient_ids(self):
        with obs.tracing() as col:
            with trace_context("tx", "tx.0"):
                with obs.span("solve", cat="sat"):
                    pass
                obs.event("info", "did-a-thing", detail=1)
            with obs.span("unstamped"):
                pass
        assert col.spans[0].args["trace_id"] == "tx"
        assert col.spans[0].args["ob_id"] == "tx.0"
        assert "trace_id" not in (col.spans[1].args or {})
        record = col.events_since(0)[0]
        assert record["trace_id"] == "tx" and record["ob_id"] == "tx.0"
        assert record["detail"] == 1


# ---------------------------------------------------------------------------
# store server: trace header in the request log, Prometheus /store/metrics


class TestStoreServerObservability:
    def test_remote_client_propagates_trace_header(self, tmp_path):
        srv = StoreServer(str(tmp_path / "store")).start()
        try:
            client = RemoteStoreClient(srv.url)
            with obs.tracing() as col, trace_context("tr-remote", "tr-remote.0"):
                assert client.index()["entries"] == 0
            rows = [
                r for r in col.events_since(0)
                if r["msg"] == "store.request" and r["trace_id"] == "tr-remote"
            ]
            assert rows and rows[0]["ob_id"] == "tr-remote.0"
        finally:
            srv.close()

    def test_store_metrics_content_negotiation(self, tmp_path):
        srv = StoreServer(str(tmp_path / "store")).start()
        try:
            request = urllib.request.Request(
                f"{srv.url}/store/metrics", headers={"Accept": "text/plain"}
            )
            with urllib.request.urlopen(request, timeout=10) as reply:
                assert reply.headers["Content-Type"] == CONTENT_TYPE
                parsed = parse_prometheus(reply.read().decode())
            assert parsed["counters"]["repro_store_requests"] >= 1
            assert "repro_store_uptime_seconds" in parsed["gauges"]

            with urllib.request.urlopen(f"{srv.url}/store/metrics", timeout=10) as reply:
                doc = json.loads(reply.read())
            assert doc["counters"]["store.requests"] >= 1
            assert doc["gauges"]["store.spool_pending"] == 0
        finally:
            srv.close()


# ---------------------------------------------------------------------------
# traced daemon end-to-end


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs_serve")
    srv = VerificationServer(store_dir=str(root / "store"), trace=True).start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout_s=120.0)


class TestServeObservability:
    def test_healthz_reports_version_and_uptime(self, client):
        from repro import __version__

        health = client.healthz()
        assert health["version"] == __version__
        assert health["started_at"] > 0
        assert health["uptime_s"] >= 0
        assert client.version() == __version__

    def test_metrics_prometheus_after_job(self, client):
        job_id = client.submit_obligations(_obligations("prom", salt=0), jobs=2)["id"]
        assert client.wait(job_id, timeout_s=120)["state"] == "done"

        text = client.metrics_text()
        assert "repro_obligation_wall_seconds_bucket" in text
        parsed = parse_prometheus(text)
        hist = parsed["histograms"]["repro_obligation_wall_seconds"]
        assert hist["count"] >= 6
        assert sum(hist["buckets"]) == hist["count"]
        assert parsed["gauges"]["repro_scheduler_pool_workers"] >= 1
        assert parsed["gauges"]["repro_serve_uptime_seconds"] > 0
        assert parsed["gauges"]["repro_store_remote_breaker_open"] == 0

        doc = client.metrics()
        summaries = doc["obs"]["histograms"]
        wall = summaries["obligation.wall_seconds"]
        assert wall["count"] == hist["count"]
        assert wall["p50"] <= wall["p90"] <= wall["p99"]
        assert "obligation.queue_wait_seconds" in summaries
        assert doc["store"]["remote_breaker_open"] is False

    def test_metrics_without_full_snapshot(self, client, monkeypatch):
        """Both /metrics renderings read the collector in one locked read
        of counters and histograms, never through ``snapshot()`` (which
        copies every span row under the lock)."""
        from repro.obs import Collector

        def no_snapshot(self):
            raise AssertionError("/metrics must not copy the span buffer")

        monkeypatch.setattr(Collector, "snapshot", no_snapshot)
        doc = client.metrics()
        assert set(doc["obs"]) == {"counters", "spans", "dropped_spans", "histograms", "events"}
        assert isinstance(doc["obs"]["spans"], int)
        for summary in doc["obs"]["histograms"].values():
            assert {"count", "p50", "p90", "p99"} <= set(summary)
        parsed = parse_prometheus(client.metrics_text())
        assert parsed["gauges"]["repro_serve_uptime_seconds"] > 0

    def test_trace_id_spans_daemon_worker_and_store(self, server):
        """One client trace_id is visible in daemon scheduler spans, in
        a worker-side solve span, in the obligation event log, and in a
        store request log line — the acceptance walk of the PR."""
        traced = ServeClient(server.url, timeout_s=120.0, trace_id="e2e-trace-1")
        job = traced.submit_obligations(_obligations("e2e", 4, salt=16), jobs=2)
        assert job["trace_id"] == "e2e-trace-1"
        assert traced.wait(job["id"], timeout_s=120)["state"] == "done"

        spans = server._collector.snapshot()["spans"]
        mine = [row for row in spans if (row[5] or {}).get("trace_id") == "e2e-trace-1"]
        cats = {row[1] for row in mine}
        assert "scheduler" in cats, "no scheduler span carried the trace id"
        worker_solves = [
            row for row in mine if row[1] == "sat" and row[2].startswith("worker-")
        ]
        assert worker_solves, "no worker-side solve span carried the trace id"
        ob_ids = {(row[5] or {}).get("ob_id") for row in worker_solves}
        assert any(ob and ob.startswith("e2e-trace-1.") for ob in ob_ids)

        page = traced.events()
        done = [
            r for r in page["events"]
            if r["msg"] == "obligation.done" and r["trace_id"] == "e2e-trace-1"
        ]
        assert len(done) == 4
        assert all(r["status"] == "proved" for r in done)

        # Any store-route request from this client logs under its trace.
        traced._request("GET", "/store/index")
        store_rows = [
            r for r in traced.events()["events"]
            if r["msg"] == "store.request" and r["trace_id"] == "e2e-trace-1"
        ]
        assert store_rows and store_rows[-1]["path"] == "/store/index"

    def test_concurrent_scrapes_during_grid_job(self, server, client):
        """Scraping /metrics from several threads while a grid job runs
        never yields a torn read: every exposition parses, histogram
        bucket sums equal their counts, and counters are monotonic
        within each scraper's sample sequence."""
        job_id = client.submit_grid("fig11-quick", opt=1, jobs=2)["id"]
        stop = threading.Event()
        failures: list[str] = []
        samples: list[list[dict]] = [[] for _ in range(4)]

        def scrape(slot: int):
            scraper = ServeClient(server.url, timeout_s=30.0)
            while not stop.is_set() and len(samples[slot]) < 40:
                try:
                    parsed = parse_prometheus(scraper.metrics_text())
                except Exception as exc:  # noqa: BLE001 - surfaced via failures
                    failures.append(f"scraper {slot}: {exc}")
                    return
                samples[slot].append(parsed)

        threads = [threading.Thread(target=scrape, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        try:
            assert client.wait(job_id, timeout_s=300)["state"] == "done"
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)

        assert not failures
        assert all(samples), "a scraper never completed a sample"
        for seq in samples:
            for parsed in seq:
                for name, hist in parsed["histograms"].items():
                    assert sum(hist["buckets"]) == hist["count"], name
            for name in ("repro_serve_http_requests", "repro_solver_queries"):
                values = [p["counters"].get(name, 0) for p in seq]
                assert values == sorted(values), f"{name} went backwards"
            counts = [
                p["histograms"]
                .get("repro_obligation_wall_seconds", {"count": 0})["count"]
                for p in seq
            ]
            assert counts == sorted(counts)

    def test_events_endpoint_pages_with_since(self, client):
        job_id = client.submit_obligations(_obligations("evpage", 3, salt=32))["id"]
        assert client.wait(job_id, timeout_s=120)["state"] == "done"

        page = client.events()
        assert page["events"], "daemon recorded no events"
        seqs = [r["seq"] for r in page["events"]]
        assert seqs == sorted(seqs)
        assert page["next"] == seqs[-1]
        tail = client.events(since=page["next"])
        assert all(r["seq"] > page["next"] for r in tail["events"])
        for record in client.events(level="info")["events"]:
            assert record["level"] in ("info", "warn", "error")

    def test_obs_top_once_json(self, server, client, capsys):
        job_id = client.submit_obligations(_obligations("toprun", 4, salt=48), jobs=2)["id"]
        assert client.wait(job_id, timeout_s=120)["state"] == "done"

        assert obs_top.main(["--once", "--json", server.url]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["endpoints"][0]
        assert entry["ok"] is True
        assert entry["version"]
        assert entry["ob_per_s"] > 0
        assert entry["obligations"] >= 4
        assert entry["p50_ms"] <= entry["p99_ms"]
        assert entry["pool_workers"] >= 1
        assert entry["remote"]["breaker_open"] is False

        rendered = obs_top.render(obs_top.build_doc([obs_top.sample_endpoint(server.url)]))
        assert "ob/s" in rendered and "cache hit" in rendered

    def test_obs_top_reports_down_endpoint(self, capsys):
        assert obs_top.main(["--once", "--json", "http://127.0.0.1:9"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["endpoints"][0]["ok"] is False


# ---------------------------------------------------------------------------
# fleet trace merge + report modes


class TestReportAndMerge:
    def _collector_doc(self, name: str) -> dict:
        with obs.tracing() as col:
            with obs.span(name, cat="scheduler"):
                pass
            obs.count("sat.conflicts", 3)
        return obs.chrome_trace(col)

    def test_merge_chrome_traces(self):
        one = self._collector_doc("fleet-a")
        two = self._collector_doc("fleet-b")
        merged = merge_chrome_traces([one, two])
        assert obs.validate_chrome_trace(merged) == []
        assert {e["pid"] for e in merged["traceEvents"]} == {1, 2}
        assert merged["otherData"]["counters"]["sat.conflicts"] == 6
        assert merged["otherData"]["merged_from"] == 2

    def test_report_merge_cli(self, tmp_path, capsys):
        from repro.obs.report import main as report_main

        paths = []
        for i, doc in enumerate([self._collector_doc("m0"), self._collector_doc("m1")]):
            path = tmp_path / f"trace{i}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        out = str(tmp_path / "merged.json")
        assert report_main([*paths, "--merge", "--out", out]) == 0
        merged = json.loads((tmp_path / "merged.json").read_text())
        assert obs.validate_chrome_trace(merged) == []
        # Two artifacts without --merge is a usage error.
        assert report_main(paths) == 2
        capsys.readouterr()

    def test_report_json_mode(self, tmp_path, capsys):
        from repro.obs.report import main as report_main, summarize

        with obs.tracing() as col:
            with obs.span("ob-a", cat="scheduler"):
                pass
            obs.count("solver.queries", 1)
            col.observe("obligation.wall_seconds", 0.02)
        artifact = tmp_path / "bench.json"
        artifact.write_text(json.dumps({"obs": summarize(col)}))

        assert report_main([str(artifact), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["solver.queries"] == 1
        assert doc["histograms"]["obligation.wall_seconds"]["count"] == 1
        assert [row["name"] for row in doc["obligations"]] == ["ob-a"]
