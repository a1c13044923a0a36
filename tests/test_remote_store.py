"""The distributed verdict store (``repro.core.remote``).

Covers the properties the ``store-remote`` CI job leans on:

  * the HTTP object-store protocol round-trips entries and
    certificates byte-for-byte with idempotent first-writer-wins PUTs;
  * a cold client reads through to a warm remote, verifies the fetched
    certificate with the independent checker before adoption, and
    counts hits/misses/rejections in ``repro.obs``; a ``split`` entry is
    adopted only together with the pieces it names;
  * writes spool locally and flush back to the server;
  * under injected faults (500s, timeouts, truncated bodies, corrupted
    certificates) the client degrades to local-only, never adopts a
    bad certificate, and recovers when the server heals;
  * two client processes racing write-back of one digest leave exactly
    one valid object server-side.
"""

import http.client
import json
import multiprocessing
import os
import random
import time
from urllib.parse import urlsplit
import zlib

import pytest

from repro import obs
from repro.core import remote
from repro.core.remote import (
    RemoteStoreClient,
    RemoteVerdictStore,
    StoreAPI,
    StoreServer,
    _reset_breakers,
    _stop_flushers,
)
from repro.core.runner import Obligation, run_obligations
from repro.core.scheduler import ObligationScheduler
from repro.core.store import VerdictStore, main as store_main
from repro.smt import (
    CheckResult,
    Model,
    Solver,
    SolverCache,
    bv_sort,
    mk_bv,
    mk_bvand,
    mk_bvor,
    mk_bvxor,
    mk_eq,
    mk_ule,
    mk_ult,
    mk_var,
)
from repro.smt.checkproof import audit_store, check_certificate


@pytest.fixture(autouse=True)
def _fresh_breakers():
    """Each test starts with every circuit breaker closed, however the
    previous test left the (process-global) breaker table, and leaves
    no spool flusher behind to count its failures into a later test's
    session."""
    _reset_breakers()
    yield
    _stop_flushers()
    _reset_breakers()


# Store digests are alpha-blind, so distinct variable names alone do
# NOT distinguish queries; the constants must differ too.  Derive them
# from the prefix so seeder and checker always build the same query.


def _unsat_query(prefix: str):
    h = zlib.crc32(prefix.encode())
    a = 1 + (h % 120)
    b = a + 4 + ((h >> 8) % 100)
    x = mk_var(f"{prefix}_x", bv_sort(8))
    return [mk_ult(x, mk_bv(a, 8)), mk_ult(mk_bv(b, 8), x)]


def _sat_value(prefix: str) -> int:
    return 10 + (zlib.crc32(prefix.encode()) % 200)


def _sat_query(prefix: str):
    v = _sat_value(prefix)
    x = mk_var(f"{prefix}_x", bv_sort(8))
    return [mk_eq(x, mk_bv(v, 8)), mk_ult(mk_bv(v - 1, 8), x)]


def _seed(store_dir: str, prefixes) -> list[str]:
    """Solve real queries into ``store_dir`` so it holds entries *and*
    checkable certificates; returns their digests."""
    solver = Solver(cache=VerdictStore(store_dir))
    digests = []
    for i, prefix in enumerate(prefixes):
        query = _sat_query(prefix) if i % 2 else _unsat_query(prefix)
        digests.append(solver.check(*query).stats["digest"])
    return digests


DIG = "ab" + "12" * 20  # syntactically valid, never a real query digest


class TestProtocol:
    """StoreAPI request/response semantics, no sockets involved."""

    @pytest.fixture
    def api(self, tmp_path):
        return StoreAPI(VerdictStore(str(tmp_path / "srv")))

    def test_put_then_get_round_trips_bytes(self, api):
        raw = json.dumps({"status": "unsat", "pad": "x"}).encode()
        status, payload, _, headers = api.handle("PUT", f"/store/{DIG}", raw)
        assert status == 201
        assert json.loads(payload) == {"digest": DIG, "stored": True}
        assert headers["ETag"] == f'"{DIG}"'
        status, payload, ctype, headers = api.handle("GET", f"/store/{DIG}", None)
        assert (status, payload, ctype) == (200, raw, "application/json")
        assert headers["ETag"] == f'"{DIG}"'

    def test_put_existing_digest_is_idempotent(self, api):
        raw = json.dumps({"status": "unsat"}).encode()
        assert api.handle("PUT", f"/store/{DIG}", raw)[0] == 201
        # Second writer: success, but nothing stored — the digest is the
        # content address, first writer wins.
        status, payload, _, _ = api.handle("PUT", f"/store/{DIG}", raw)
        assert status == 200
        assert json.loads(payload) == {"digest": DIG, "stored": False}

    def test_get_miss_is_404(self, api):
        assert api.handle("GET", f"/store/{DIG}", None)[0] == 404
        assert api.handle("HEAD", f"/store/{DIG}", None)[0] == 404
        assert api.handle("GET", f"/store/{DIG}/cert", None)[0] == 404

    def test_put_rejects_bad_payloads(self, api):
        assert api.handle("PUT", f"/store/{DIG}", b"not json")[0] == 400
        assert api.handle("PUT", f"/store/{DIG}", b'["list"]')[0] == 400
        bad_status = json.dumps({"status": "unknown"}).encode()
        assert api.handle("PUT", f"/store/{DIG}", bad_status)[0] == 400
        assert api.handle("PUT", f"/store/{DIG}", None)[0] == 400
        # Nothing landed on disk.
        assert api.store.digests() == []

    def test_bad_paths_are_404(self, api):
        assert api.handle("GET", "/store/nothex!", None)[0] == 404
        assert api.handle("GET", "/store/ab", None)[0] == 404  # too short
        assert api.handle("GET", "/store/../etc/passwd", None)[0] == 404

    def test_cert_round_trip_survives_gzip_threshold(self, api):
        entry = json.dumps({"status": "unsat"}).encode()
        api.handle("PUT", f"/store/{DIG}", entry)
        # Large enough that the store gzips it on disk; GET must still
        # return the original JSON bytes (the wire format is plain).
        pad = "y" * SolverCache.CERT_GZIP_THRESHOLD
        cert = json.dumps({"kind": "drat", "digest": DIG, "pad": pad}).encode()
        assert api.handle("PUT", f"/store/{DIG}/cert", cert)[0] == 201
        cert_file = api.store._cert_file(DIG)
        assert cert_file.endswith(".gz")
        status, payload, _, _ = api.handle("GET", f"/store/{DIG}/cert", None)
        assert (status, payload) == (200, cert)

    def test_manifest_reports_presence(self, api):
        entry = json.dumps({"status": "sat", "model": {}}).encode()
        api.handle("PUT", f"/store/{DIG}", entry)
        other = "cd" + "34" * 20
        body = json.dumps({"digests": [DIG, other, "junk!"]}).encode()
        status, payload, _, _ = api.handle("POST", "/store/manifest", body)
        doc = json.loads(payload)
        assert status == 200
        assert doc["entries"] == {DIG: True, other: False, "junk!": False}
        assert doc["certs"][DIG] is False
        assert api.handle("POST", "/store/manifest", b"broken")[0] == 400

    def test_healthz_and_index(self, api):
        api.handle("PUT", f"/store/{DIG}", json.dumps({"status": "unsat"}).encode())
        status, payload, _, _ = api.handle("GET", "/store/healthz", None)
        doc = json.loads(payload)
        assert status == 200 and doc["ok"] and doc["entries"] == 1
        status, payload, _, _ = api.handle("GET", "/store/index", None)
        doc = json.loads(payload)
        assert status == 200 and doc["entries"] == 1 and doc["spool_pending"] == 0

    def test_unsupported_method_is_405(self, api):
        assert api.handle("DELETE", f"/store/{DIG}", None)[0] == 405


class TestReadThrough:
    def test_cold_client_hits_warm_remote_and_adopts(self, tmp_path):
        server_dir = str(tmp_path / "srv")
        [digest] = _seed(server_dir, ["rt_warm"])
        server = StoreServer(server_dir).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            solver = Solver(cache=local)
            with obs.tracing() as col:
                result = solver.check(*_unsat_query("rt_warm"))
            assert result.is_unsat
            assert result.stats["cache_hit"]
            assert col.counters["solver.cache.hits"] == 1
            assert "solver.cache.misses" not in col.counters
            assert col.counters["store.remote.hits"] == 1
            assert col.counters.get("store.remote.rejected_certs", 0) == 0
            # Entry AND certificate adopted: the local copy re-audits.
            assert local.entry_bytes(digest) is not None
            check_certificate(local.load_certificate(digest))
            # Second lookup is a pure local hit — no remote traffic.
            gets_before = server.api.counters()["gets"]
            assert solver.check(*_unsat_query("rt_warm")).is_unsat
            assert server.api.counters()["gets"] == gets_before
        finally:
            server.close()

    def test_sat_model_replays_through_remote(self, tmp_path):
        server_dir = str(tmp_path / "srv")
        _seed(server_dir, ["x", "rt_sat"])  # second query is sat
        server = StoreServer(server_dir).start()
        try:
            solver = Solver(cache=RemoteVerdictStore(str(tmp_path / "cli"), server.url))
            result = solver.check(*_sat_query("rt_sat"))
            assert result.is_sat
            # The adopted model is remapped to *this* query's names and
            # satisfies it.
            assert result.model["rt_sat_x"] == _sat_value("rt_sat")
        finally:
            server.close()

    def test_remote_miss_counts_and_solves_locally(self, tmp_path):
        server = StoreServer(str(tmp_path / "srv")).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            with obs.tracing() as col:
                result = Solver(cache=local).check(*_unsat_query("rt_miss"))
            assert result.is_unsat
            assert col.counters["store.remote.misses"] == 1
            assert "store.remote.hits" not in col.counters
        finally:
            server.close()

    def test_certless_entry_rejected(self, tmp_path):
        # Seed the server store, then take the certificate away.
        server_dir = str(tmp_path / "srv")
        [digest] = _seed(server_dir, ["rt_nc"])
        os.unlink(VerdictStore(server_dir)._cert_file(digest))
        server = StoreServer(server_dir).start()
        try:
            strict = RemoteVerdictStore(str(tmp_path / "strict"), server.url)
            with obs.tracing() as col:
                assert strict.lookup(digest, {}) is None
            assert col.counters["store.remote.rejected_certs"] == 1
            assert strict.entry_bytes(digest) is None  # not adopted
        finally:
            server.close()

    def test_entry_that_is_not_a_verdict_never_adopted(self, tmp_path):
        """A served entry that is not a verdict (here a model-less
        ``sat``) is a remote error, not a hit, before any certificate
        is fetched."""
        server_dir = str(tmp_path / "srv")
        os.makedirs(os.path.join(server_dir, DIG[:2]))
        with open(os.path.join(server_dir, DIG[:2], f"{DIG}.json"), "w") as handle:
            json.dump({"status": "sat"}, handle)
        server = StoreServer(server_dir).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            with obs.tracing() as col:
                assert local.lookup(DIG, {}) is None
            assert col.counters["store.remote.errors"] == 1
            assert "store.remote.rejected_certs" not in col.counters
            assert local.entry_bytes(DIG) is None  # not adopted
        finally:
            server.close()


def _split_obligation() -> Obligation:
    """An obligation whose goal is a conjunction of three valid
    conjuncts, so a store miss runs it as three pieces."""
    x, y = mk_var("sp_x", bv_sort(8)), mk_var("sp_y", bv_sort(8))
    goals = [
        mk_eq(mk_bvxor(mk_bvxor(x, y), y), mk_bvand(x, mk_bv(0xFF, 8))),
        mk_ule(mk_bvand(x, y), x),
        mk_ule(x, mk_bvor(x, y)),
    ]
    return Obligation.from_terms("split", goals, [mk_ult(x, mk_bv(100, 8))])


class TestSplitAdoption:
    @pytest.fixture
    def warm(self, tmp_path):
        """A remote store holding one proved split with its pieces;
        returns its directory and the whole's digest."""
        server_dir = str(tmp_path / "srv")
        [result], _ = run_obligations([_split_obligation()], jobs=1, cache_dir=server_dir)
        assert result.proved and result.stats["pieces"] == 3
        return server_dir, result.stats["digest"]

    def test_cold_client_adopts_split_entry_and_its_pieces(self, tmp_path, warm, monkeypatch):
        server_dir, digest = warm
        server = StoreServer(server_dir).start()
        try:
            monkeypatch.setenv("REPRO_REMOTE_STORE", server.url)
            cold = str(tmp_path / "cold")
            with obs.tracing() as col:
                [result], _ = run_obligations([_split_obligation()], jobs=1, cache_dir=cold)
        finally:
            server.close()
        assert result.proved and result.stats["cache_hit"]
        assert col.counters["solver.queries"] == 1  # the whole hit: no piece ran
        assert col.counters.get("store.remote.rejected_certs", 0) == 0
        assert sorted(VerdictStore(cold).digests()) == sorted(VerdictStore(server_dir).digests())
        summary = audit_store(cold, require_certs=True)
        assert summary["failures"] == [] and summary["split"] == 1 and summary["drat"] == 3

    def test_remote_hit_is_fetched_and_checked_on_a_worker(self, tmp_path, warm, monkeypatch):
        """Dispatch reads the local store only: a remote hit is fetched
        and its certificates checked by the worker the miss is sent to,
        never in the dispatching process."""
        server_dir, _digest = warm
        checks = tmp_path / "checks"
        cert_matches = remote._cert_matches

        def recording(*args):
            with open(checks, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return cert_matches(*args)

        monkeypatch.setattr(remote, "_cert_matches", recording)
        server = StoreServer(server_dir).start()
        sched = None
        try:
            monkeypatch.setenv("REPRO_REMOTE_STORE", server.url)
            sched = ObligationScheduler(workers=2)  # forked with the recorder
            with obs.tracing() as col:
                [result], _ = sched.run([_split_obligation()], cache_dir=str(tmp_path / "cold"))
        finally:
            if sched is not None:
                sched.shutdown()
            server.close()
        assert result.proved and result.stats["cache_hit"]
        assert col.counters["solver.queries"] == 1 and col.counters["store.remote.hits"] == 1
        checked = checks.read_text().split()
        assert len(checked) == 4  # the split and its three pieces
        assert str(os.getpid()) not in checked

    def test_tampered_piece_list_is_rejected_and_nothing_adopted(self, tmp_path, warm):
        server_dir, digest = warm
        store = VerdictStore(server_dir)
        cert = store.load_certificate(digest)
        cert["pieces"][0], cert["pieces"][1] = cert["pieces"][1], cert["pieces"][0]
        store.store_certificate(digest, cert)
        server = StoreServer(server_dir).start()
        try:
            cold = RemoteVerdictStore(str(tmp_path / "cold"), server.url)
            with obs.tracing() as col:
                assert cold.lookup(digest, {}) is None
        finally:
            server.close()
        assert col.counters["store.remote.rejected_certs"] == 1
        assert cold.digests() == []


class TestWriteBack:
    def test_sync_flush_pushes_entry_and_cert(self, tmp_path):
        server = StoreServer(str(tmp_path / "srv")).start()
        try:
            local_dir = str(tmp_path / "cli")
            local = RemoteVerdictStore(local_dir, server.url, async_flush=False)
            digest = Solver(cache=local).check(*_unsat_query("wb_sync")).stats["digest"]
            assert local.spool_pending() == []  # flushed inline
            client = RemoteStoreClient(server.url)
            assert client.head_entry(digest)
            check_certificate(json.loads(client.get_cert(digest)))
        finally:
            server.close()

    def test_async_flush_drains_spool(self, tmp_path):
        server = StoreServer(str(tmp_path / "srv")).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            digest = Solver(cache=local).check(*_unsat_query("wb_async")).stats["digest"]
            client = RemoteStoreClient(server.url)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not local.spool_pending() and client.head_entry(digest):
                    break
                time.sleep(0.05)
            assert local.spool_pending() == []
            assert client.head_entry(digest)
        finally:
            server.close()

    def test_interrupted_flush_is_reported_not_skipped(self, tmp_path, capsys):
        """Satellite: spool files left by an interrupted flush surface
        in summary/index and in the gc/export/import CLI walks."""
        local_dir = str(tmp_path / "cli")
        local = RemoteVerdictStore(
            local_dir, "http://127.0.0.1:1", async_flush=False
        )
        local.store(DIG, {}, CheckResult("unsat"))  # flush attempt fails fast
        assert local.spool_pending() == [DIG]
        assert local.summary()["spool_pending"] == 1
        assert local.write_index()["spool_pending"] == 1

        archive = str(tmp_path / "out.tar.gz")
        assert store_main(["--store", local_dir, "export", archive]) == 0
        out = capsys.readouterr().out
        assert "1 entries still spooled for remote write-back" in out

        dst_dir = str(tmp_path / "dst")
        assert store_main(["--store", dst_dir, "import", archive]) == 0

        # gc of the spooled entry also clears its marker (nothing left
        # to flush) and says so.
        assert store_main(["--store", local_dir, "gc", "--keep", "0"]) == 0
        assert local.spool_pending() == []

    def test_flush_cli_pushes_backlog(self, tmp_path, capsys):
        local_dir = str(tmp_path / "cli")
        local = RemoteVerdictStore(local_dir, "http://127.0.0.1:1", async_flush=False)
        local.store(DIG, {}, CheckResult("unsat"))
        assert local.spool_pending() == [DIG]

        server = StoreServer(str(tmp_path / "srv")).start()
        try:
            _reset_breakers()
            assert (
                store_main(["--store", local_dir, "flush", "--remote", server.url])
                == 0
            )
            assert "flushed 1 spooled entries" in capsys.readouterr().out
            assert local.spool_pending() == []
            assert RemoteStoreClient(server.url).head_entry(DIG)
        finally:
            server.close()

    def test_flush_cli_without_remote_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_REMOTE_STORE", raising=False)
        assert store_main(["--store", str(tmp_path / "s"), "flush"]) == 2
        assert "no remote configured" in capsys.readouterr().err


@pytest.fixture(autouse=True)
def _fast_timeouts(monkeypatch):
    monkeypatch.setenv("REPRO_REMOTE_TIMEOUT_S", "2")
    monkeypatch.setenv("REPRO_REMOTE_BACKOFF_S", "0")


# ---------------------------------------------------------------------------
# Fault injection


class FaultyStoreServer(StoreServer):
    """A store server that injects faults on a schedule.

    ``schedule`` is a list of modes consumed one per matching request:
    ``"500"`` (server error), ``"timeout"`` (stall past the client
    timeout), ``"truncate"`` (full Content-Length, half a body),
    ``"corrupt-cert"`` (valid JSON certificate that does not check),
    or ``None`` (serve normally).  Once the schedule is exhausted the
    server is healed and serves normally.
    """

    STALL_S = 3.0

    def __init__(self, store_dir: str, schedule=None, only_certs: bool = False):
        super().__init__(store_dir)
        self.schedule = list(schedule or [])
        self.only_certs = only_certs
        self.faults_fired = 0
        self._httpd.fault_hook = self._inject

    def _next_mode(self, method: str, path: str):
        if not self.schedule:
            return None
        # Faults target reads (the read-through path under test); the
        # client's background write-back traffic passes through so it
        # cannot consume the schedule out from under the assertions.
        if method not in ("GET", "HEAD"):
            return None
        if self.only_certs and not path.endswith("/cert"):
            return None
        mode = self.schedule.pop(0)
        if mode is not None:
            self.faults_fired += 1
        return mode

    def _inject(self, handler, method, path, body) -> bool:
        mode = self._next_mode(method, path)
        if mode is None:
            return False  # serve normally
        if mode == "500":
            handler._respond(500, b'{"error":"injected"}', "application/json", {})
            return True
        if mode == "timeout":
            time.sleep(self.STALL_S)
            handler._respond(200, b"{}", "application/json", {})
            return True
        if mode == "truncate":
            status, payload, ctype, headers = self.api.handle(method, path, body)
            handler.send_response(status)
            handler.send_header("Content-Type", ctype)
            # Advertise the full body, deliver half, hang up: the client
            # sees IncompleteRead.
            handler.send_header("Content-Length", str(max(len(payload), 2)))
            handler.end_headers()
            handler.wfile.write(payload[: len(payload) // 2])
            handler.close_connection = True
            return True
        if mode == "corrupt-cert":
            digest = path.rsplit("/", 2)[-2]
            bogus = json.dumps(
                {"kind": "drat", "digest": digest, "cnf": [], "proof": []}
            ).encode()
            handler._respond(200, bogus, "application/json", {})
            return True
        raise AssertionError(f"unknown fault mode {mode!r}")


class TestFaultInjection:
    @pytest.fixture
    def warm_dir(self, tmp_path):
        server_dir = str(tmp_path / "srv")
        self.digests = _seed(server_dir, ["fi_a", "fi_b"])
        return server_dir

    @pytest.mark.parametrize("mode", ["500", "timeout", "truncate"])
    def test_network_faults_degrade_to_local(self, tmp_path, warm_dir, mode, monkeypatch):
        if mode == "timeout":
            monkeypatch.setenv("REPRO_REMOTE_TIMEOUT_S", "0.3")
        server = FaultyStoreServer(warm_dir, schedule=[mode]).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            with obs.tracing() as col:
                result = Solver(cache=local).check(*_unsat_query("fi_a"))
            # The solve still completes — locally — and the failure is
            # counted, not raised.
            assert result.is_unsat
            assert col.counters["store.remote.errors"] >= 1
            assert server.faults_fired == 1
        finally:
            server.close()

    def test_corrupted_cert_never_adopted(self, tmp_path, warm_dir):
        # Every cert request serves a bogus-but-well-formed certificate.
        server = FaultyStoreServer(
            warm_dir, schedule=["corrupt-cert"] * 8, only_certs=True
        ).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            with obs.tracing() as col:
                result = Solver(cache=local).check(*_unsat_query("fi_a"))
            assert result.is_unsat  # solved locally
            assert col.counters["store.remote.rejected_certs"] >= 1
            # The poisoned entry and certificate were NOT adopted; the
            # local store holds only this client's own (sound) artifacts
            # whose certificates all check.
            for digest in local.digests():
                check_certificate(local.load_certificate(digest))
        finally:
            server.close()

    def test_client_recovers_when_server_heals(self, tmp_path, warm_dir):
        server = FaultyStoreServer(warm_dir, schedule=["500", "500"]).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            with obs.tracing() as col:
                # Both queries fault (breaker is disabled by the 0s
                # backoff fixture, so each one reaches the server)...
                assert Solver(cache=local).check(*_unsat_query("fi_a")).is_unsat
                assert Solver(cache=local).check(*_sat_query("fi_b")).is_sat
                assert col.counters["store.remote.errors"] == 2
                # ...schedule exhausted: the server is healed and the
                # next cold lookup is a remote hit.
                other = RemoteVerdictStore(str(tmp_path / "cli2"), server.url)
                assert Solver(cache=other).check(*_unsat_query("fi_a")).is_unsat
                assert col.counters["store.remote.hits"] == 1
        finally:
            server.close()

    def test_circuit_breaker_skips_dead_remote(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_BACKOFF_S", "60")
        monkeypatch.setenv("REPRO_REMOTE_TIMEOUT_S", "0.5")
        local = RemoteVerdictStore(str(tmp_path / "cli"), "http://127.0.0.1:1")
        with obs.tracing() as col:
            assert local.lookup("11" * 20, {}) is None  # opens the breaker
            start = time.perf_counter()
            for i in range(20):
                assert local.lookup(f"{i:02d}" * 20, {}) is None
            # Breaker open: the 20 follow-ups never touch the network.
            assert time.perf_counter() - start < 0.5
        assert col.counters["store.remote.errors"] == 1


class TestMidRunKill:
    def test_server_killed_mid_run_degrades_and_completes(self, tmp_path):
        server_dir = str(tmp_path / "srv")
        _seed(server_dir, ["mk_a", "mk_b"])
        server = StoreServer(server_dir).start()
        local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
        queries = [
            _unsat_query("mk_a"), _sat_query("mk_b"),
            _unsat_query("mk_c"), _sat_query("mk_d"), _unsat_query("mk_e"),
        ]
        expected = ["unsat", "sat", "unsat", "sat", "unsat"]
        with obs.tracing() as col:
            statuses = []
            for query in queries[:2]:
                statuses.append(Solver(cache=local).check(*query).status)
            assert col.counters["store.remote.hits"] == 2
            server.close()  # the fleet's store dies mid-run
            for query in queries[2:]:
                statuses.append(Solver(cache=local).check(*query).status)
        # Correct verdicts throughout, failures counted, never raised.
        assert statuses == expected
        assert col.counters["store.remote.errors"] > 0
        # The verdicts solved after the kill are still owed to the
        # remote: their spool markers survive and are reported.
        assert local.summary()["spool_pending"] > 0

    def test_fleet_degrades_with_dead_remote_env(self, tmp_path, monkeypatch):
        """run_obligations with REPRO_REMOTE_STORE pointing at a dead
        server: every obligation completes via open_store's remote tier
        degrading, across worker processes."""
        from repro.core.scheduler import shutdown_scheduler
        from repro.sym import fresh_bv

        # Workers inherit the environment when they fork: restart the
        # persistent pool after setting it, and drop that pool after the
        # run so later tests don't inherit the dead remote.
        monkeypatch.setenv("REPRO_REMOTE_STORE", "http://127.0.0.1:1")
        monkeypatch.setenv("REPRO_REMOTE_TIMEOUT_S", "0.5")
        shutdown_scheduler()

        x = fresh_bv("fd.x", 32)
        y = fresh_bv("fd.y", 32)
        obligations = [
            Obligation.from_terms("fd-add", [((x + y) - y == x).term]),
            Obligation.from_terms("fd-xor", [((x ^ y) ^ y == x).term]),
            Obligation.from_terms("fd-absorb", [((x | y) & x == x).term]),
            Obligation.from_terms("fd-or", [((x | x) == x).term]),
        ]
        try:
            results, stats = run_obligations(
                obligations, jobs=2, cache_dir=str(tmp_path / "cache")
            )
        finally:
            shutdown_scheduler()
        assert all(r.status == "proved" for r in results)


# ---------------------------------------------------------------------------
# Property-based round-trip (stdlib random, fixed seed)


class TestPropertyRoundTrip:
    def test_random_payloads_preserve_bytes_and_binding(self, tmp_path):
        rng = random.Random(0xC0FFEE)
        server = StoreServer(str(tmp_path / "srv")).start()
        client = RemoteStoreClient(server.url)
        try:
            for trial in range(40):
                digest = "".join(
                    rng.choice("0123456789abcdef")
                    for _ in range(rng.choice([16, 40, 64]))
                )
                status = rng.choice(["sat", "unsat"])
                entry = {"status": status}
                if status == "sat":
                    entry["model"] = {
                        f"c{i}": rng.randrange(2**32) for i in range(rng.randrange(4))
                    }
                raw = json.dumps(entry).encode()
                created = client.put_entry(digest, raw)
                assert created or client.head_entry(digest)
                # Bytes survive the wire both ways.
                assert client.get_entry(digest) == raw
                if rng.random() < 0.5:
                    cert = {
                        "kind": "drat" if status == "unsat" else "model",
                        "digest": digest,
                        "pad": "z" * rng.choice([10, 50_000]),
                    }
                    cert_raw = json.dumps(cert).encode()
                    client.put_cert(digest, cert_raw)
                    assert client.get_cert(digest) == cert_raw
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Two-process write-back race


RACE_DIGEST = "ee" + "77" * 20


def _race_writer(local_dir: str, url: str, worker: int, barrier) -> None:
    # _register=False: store() drops the spool marker but starts no
    # background flusher, so the flush happens exactly at the barrier.
    store = RemoteVerdictStore(local_dir, url, _register=False)
    result = CheckResult("sat", Model({"x": worker}))
    store.store(RACE_DIGEST, {"x": "c0"}, result)
    if store.spool_pending() != [RACE_DIGEST]:
        raise SystemExit(2)
    barrier.wait(timeout=30)  # both processes flush at once
    outcome = store.flush_spool()
    if outcome["pending"]:
        raise SystemExit(1)


class TestWriteBackRace:
    def test_two_processes_racing_one_digest_leave_one_valid_object(self, tmp_path):
        server_dir = str(tmp_path / "srv")
        server = StoreServer(server_dir).start()
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_race_writer,
                args=(str(tmp_path / f"cli{worker}"), server.url, worker, barrier),
            )
            for worker in (1, 2)
        ]
        try:
            for p in procs:
                p.start()
            for p in procs:
                p.join(timeout=60)
            assert all(p.exitcode == 0 for p in procs)
            # Exactly one object server-side, valid JSON from one writer
            # or the other, no leftover temp files.
            shard = os.path.join(server_dir, RACE_DIGEST[:2])
            assert os.listdir(shard) == [f"{RACE_DIGEST}.json"]
            entry = json.loads(RemoteStoreClient(server.url).get_entry(RACE_DIGEST))
            assert entry["status"] == "sat" and entry["model"]["c0"] in (1, 2)
            assert not [f for f in os.listdir(server_dir) if f.endswith(".tmp")]
        finally:
            server.close()


class TestServeMount:
    def test_daemon_serves_store_protocol_under_store(self, tmp_path):
        serve_app = pytest.importorskip("repro.serve.app")
        server = serve_app.VerificationServer(
            store_dir=str(tmp_path / "srv"), trace=False
        ).start()
        try:
            client = RemoteStoreClient(server.url)
            assert client.healthz()["ok"]
            raw = json.dumps({"status": "unsat"}).encode()
            assert client.put_entry(DIG, raw)
            assert client.get_entry(DIG) == raw
            assert client.head_entry(DIG)
            assert client.manifest([DIG])["entries"][DIG] is True
            # The daemon's own metrics see the store traffic.
            metrics = server.metrics()
            assert metrics["store"]["puts"] >= 1
            assert metrics["store"]["entries"] == 1
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Request bodies: one reader, one limit, in both HTTP servers


def _send_length(url: str, method: str, path: str, length: str):
    """``(status, JSON reply)`` of a bodiless request whose
    ``Content-Length`` header reads ``length``."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest(method, path)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _start(kind: str, tmp_path):
    """A started store server or daemon over a fresh store, and the path
    of its health route."""
    if kind == "store-server":
        return StoreServer(str(tmp_path / "srv")).start(), "/store/healthz"
    serve_app = pytest.importorskip("repro.serve.app")
    server = serve_app.VerificationServer(store_dir=str(tmp_path / "srv"), trace=False)
    return server.start(), "/healthz"


def _then_health(url: str, method: str, path: str, body: bytes | None, health: str):
    """``(status, payload)`` of ``method path`` sent with ``body``, then
    the status and JSON reply of a ``GET health`` sent after it on the
    same keep-alive connection."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.request(method, path, body=body)
        first = conn.getresponse()
        payload = first.read()
        sock = conn.sock
        conn.request("GET", health)
        second = conn.getresponse()
        assert sock is not None and conn.sock is sock, "the connection was not kept alive"
        return (first.status, payload), (second.status, json.loads(second.read()))
    finally:
        conn.close()


class TestRequestBodies:
    @pytest.mark.parametrize("kind", ["store-server", "daemon"])
    def test_malformed_length_is_400_and_oversized_is_413(self, tmp_path, kind):
        if kind == "store-server":
            server = StoreServer(str(tmp_path / "srv")).start()
            routes = [("PUT", f"/store/{DIG}")]
        else:
            serve_app = pytest.importorskip("repro.serve.app")
            server = serve_app.VerificationServer(
                store_dir=str(tmp_path / "srv"), trace=False
            ).start()
            routes = [("POST", "/jobs"), ("PUT", f"/store/{DIG}")]
        try:
            for method, path in routes:
                for length in ("abc", "-1", "1e3"):
                    status, doc = _send_length(server.url, method, path, length)
                    assert (status, doc) == (400, {"error": f"invalid Content-Length {length!r}"})
                status, doc = _send_length(server.url, method, path, str(StoreAPI.MAX_BODY + 1))
                assert (status, doc) == (413, {"error": "request body too large"})
            assert RemoteStoreClient(server.url).healthz()["ok"]
        finally:
            server.close()

    @pytest.mark.parametrize("kind", ["store-server", "daemon"])
    def test_malformed_length_on_a_get_route(self, tmp_path, kind):
        """A route that ignores bodies still rejects a bad
        ``Content-Length``: every route reads its body first."""
        server, health = _start(kind, tmp_path)
        try:
            for length in ("abc", "-1", "1e3"):
                status, doc = _send_length(server.url, "GET", health, length)
                assert (status, doc) == (400, {"error": f"invalid Content-Length {length!r}"})
            status, doc = _send_length(server.url, "GET", health, str(StoreAPI.MAX_BODY + 1))
            assert (status, doc) == (413, {"error": "request body too large"})
        finally:
            server.close()

    @pytest.mark.parametrize("kind", ["store-server", "daemon"])
    def test_head_reply_has_no_body(self, tmp_path, kind):
        """HEAD on a route with no HEAD handler gets the 404's headers
        and no body, so the next request on the connection parses."""
        server, health = _start(kind, tmp_path)
        try:
            first, second = _then_health(server.url, "HEAD", health, None, health)
            assert first == (404, b"")
            assert second[0] == 200 and second[1]["ok"]
        finally:
            server.close()

    @pytest.mark.parametrize("kind", ["store-server", "daemon"])
    def test_every_method_gets_a_json_reply(self, tmp_path, kind):
        """A method no route serves gets a JSON error, not the standard
        library's 501 page, and the connection stays open."""
        server, health = _start(kind, tmp_path)
        parts = urlsplit(server.url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            replies = {}
            sockets = set()
            for method, path in [
                ("DELETE", f"/store/{DIG}"),
                ("PATCH", "/jobs"),
                ("OPTIONS", "/store/healthz"),
                ("GET", health),
            ]:
                conn.request(method, path)
                response = conn.getresponse()
                assert response.getheader("Content-Type") == "application/json"
                replies[method] = (response.status, json.loads(response.read()))
                sockets.add(id(conn.sock))
            assert replies["DELETE"][0] == 405 and "error" in replies["DELETE"][1]
            for method in ("PATCH", "OPTIONS"):
                assert replies[method][0] in (404, 405) and "error" in replies[method][1]
            assert replies["GET"][0] == 200 and replies["GET"][1]["ok"]
            assert len(sockets) == 1, "the connection was not kept alive"
        finally:
            conn.close()
            server.close()

    @pytest.mark.parametrize("kind", ["store-server", "daemon"])
    def test_body_a_route_ignores_is_consumed(self, tmp_path, kind):
        """A body sent to a route that reads none does not stay on the
        connection to be parsed as the next request."""
        server, health = _start(kind, tmp_path)
        routes = [("GET", health, 200)]
        if kind == "daemon":
            routes.append(("POST", "/jobs/nosuch/cancel", 404))
        try:
            for method, path, status in routes:
                first, second = _then_health(server.url, method, path, b'{"x":1}', health)
                assert first[0] == status
                assert second[0] == 200 and second[1]["ok"]
        finally:
            server.close()
