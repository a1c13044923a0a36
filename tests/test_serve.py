"""The verification daemon (``repro.serve``).

Covers the serving contracts the CI load gate leans on: a submitted
batch reproduces the sequential runner's verdicts exactly, verdicts
stream incrementally with ``since`` cursors, concurrent clients share
one warm verdict store, a daemon restart marks live jobs
``interrupted`` instead of losing them, and cancellation drops queued
work while keeping every record accounted for.
"""

import copy
import json
import os
import threading
import time

import pytest

from repro.core.runner import Obligation, ObligationResult, run_obligations
from repro.serve import GRIDS, ServeClient, ServeError, VerificationServer, run_grid
from repro.serve.jobs import RUNNING, JobRegistry
from repro.smt import bv_sort, fresh_var, mk_bv, mk_bvadd, mk_bvand, mk_bvmul, mk_bvxor, mk_eq, mk_ule


def _batch():
    """Six obligations that reach the SAT core, with known failures at
    indices 2 and 4 (same shape as the scheduler suite's set)."""
    obligations = []
    for i in range(6):
        x = fresh_var("x", bv_sort(8))
        y = fresh_var("y", bv_sort(8))
        if i in (2, 4):
            goal = mk_eq(x, mk_bv(5, 8))  # not valid
        else:
            goal = mk_eq(
                mk_bvxor(mk_bvxor(x, y), y),
                mk_bvand(x, mk_bv(0xFF, 8)),
            )
            if i % 2:
                goal = mk_ule(mk_bvand(x, mk_bv(0x0F, 8)), mk_bv(0x0F, 8))
        obligations.append(Obligation.from_terms(f"ob{i}", [goal]))
    return obligations


def _slow_obligation(name: str, bits: int = 12) -> Obligation:
    """The ring identity (x+1)(y+1) == xy+x+y+1: not simplified away at
    construction, and slow enough at 12 bits that it only ends via its
    per-obligation timeout — the in-flight piece of the cancel tests."""
    x = fresh_var("sx", bv_sort(bits))
    y = fresh_var("sy", bv_sort(bits))
    one = mk_bv(1, bits)
    lhs = mk_bvmul(mk_bvadd(x, one), mk_bvadd(y, one))
    rhs = mk_bvadd(mk_bvadd(mk_bvmul(x, y), mk_bvadd(x, y)), one)
    return Obligation.from_terms(name, [mk_eq(lhs, rhs)])


def _rejected_obligations():
    """Documents ``Obligation.from_json`` rejects, each with a fragment
    of its message: not an obligation, a goals-first document of the
    old format, and payloads that are not a query to key as given."""
    good = _batch()[0].to_json()
    nodes, roots = good["payload"]["nodes"], good["payload"]["roots"]
    forward = copy.deepcopy(nodes)
    forward[-1][2] = [len(nodes)]
    stray = nodes + [["var", 8, [], "stray"]]
    return [
        (42, "JSON object"),
        ({**good, "name": ""}, "name"),
        ({**good, "payload": None}, "serialized terms"),
        ({**good, "payload": {"nodes": []}}, "serialized terms"),
        ({**good, "num_goals": 1}, "goal negated"),
        ({**good, "payload": {"nodes": nodes, "roots": []}}, "no roots"),
        ({**good, "payload": {"nodes": forward, "roots": roots}}, "not an earlier node"),
        ({**good, "payload": {"nodes": stray, "roots": roots}}, "reached by no root"),
    ]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    srv = VerificationServer(store_dir=str(root / "store"), trace=False).start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout_s=120.0)


class TestObligationJobs:
    def test_batch_matches_sequential_runner(self, client):
        """Submit/poll round-trip: the daemon's records, reduced in
        index order, equal a sequential ``run_obligations`` verbatim."""
        obligations = _batch()
        sequential = [r.status for r in run_obligations(obligations, jobs=1)[0]]
        assert sequential.count("failed") == 2

        job = client.submit_obligations(obligations, jobs=2)
        assert job["id"] and job["location"] == f"/jobs/{job['id']}"
        final = client.wait(job["id"], timeout_s=120)
        assert final["state"] == "done"
        assert final["progress"] == {"total": len(obligations), "done": len(obligations)}

        records = client.results(job["id"])
        assert [r["status"] for r in records] == sequential
        assert [r["name"] for r in records] == [ob.name for ob in obligations]

    def test_verdicts_stream_and_page_with_since(self, client):
        obligations = _batch()
        job_id = client.submit_obligations(obligations, jobs=2)["id"]

        streamed = list(client.stream(job_id))
        assert sorted(r["index"] for r in streamed) == list(range(len(obligations)))

        # Cursor pagination: any suffix re-reads exactly the tail.
        page = client.verdicts(job_id, since=4)
        assert page["since"] == 4
        assert page["next"] == len(obligations)
        assert len(page["verdicts"]) == len(obligations) - 4
        full = client.verdicts(job_id)["verdicts"]
        assert full[4:] == page["verdicts"]

    def test_concurrent_clients_share_warm_cache(self, server, client):
        """Two clients resubmitting an already-proved batch must both be
        answered entirely from the shared verdict store."""
        docs = [ob.to_json() for ob in _batch()]
        cold = client.wait(client.submit_obligations(docs)["id"], timeout_s=120)
        assert cold["state"] == "done"
        assert cold["stats"]["cache_queries"] == len(docs)

        finals = []
        errors = []

        def resubmit():
            try:
                worker = ServeClient(server.url, timeout_s=120.0)
                finals.append(worker.wait(worker.submit_obligations(docs)["id"], timeout_s=120))
            except Exception as exc:  # noqa: BLE001 - surfaced via errors
                errors.append(exc)

        threads = [threading.Thread(target=resubmit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(finals) == 2
        for final in finals:
            assert final["state"] == "done"
            assert final["stats"]["cache_hits"] == len(docs)

    def test_cancel_drops_queued_work(self, server, client):
        """Cancel mid-job: queued obligations are dropped immediately,
        in-flight ones end at their timeout, nothing is lost."""
        slow = [_slow_obligation(f"slow{i}") for i in range(6)]
        job_id = client.submit_obligations(slow, jobs=2, timeout_s=1.0)["id"]

        # Wait for the runner thread to hand the batch to the scheduler
        # (the ticket is what cancel reaches through).
        job = server.registry.get(job_id)
        deadline = time.monotonic() + 30
        while job.ticket is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.ticket is not None

        reply = client.cancel(job_id)
        assert reply["cancelling"] is True

        final = client.wait(job_id, timeout_s=60)
        assert final["state"] == "cancelled"
        records = client.results(job_id)
        assert len(records) == len(slow)
        assert all(r["status"] == "unknown" for r in records)
        assert any(r["stats"].get("cancelled") for r in records)

        # Cancelling a terminal job is refused.
        with pytest.raises(ServeError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.code == 409


class TestGridJobs:
    def test_grid_job_matches_sequential_reference(self, server, client):
        """A daemon grid job's verdict map equals a plain in-process
        sequential run — the determinism contract the load gate diffs."""
        expected, _ = run_grid("fig11-quick", opt=1, jobs=1, cache_dir=None)
        job_id = client.submit_grid("fig11-quick", opt=1)["id"]
        final = client.wait(job_id, timeout_s=300)
        assert final["state"] == "done"
        assert final["progress"]["total"] == len(GRIDS["fig11-quick"])
        assert client.verdict_map(job_id) == expected
        assert final["stats"]["verdict_map"] == expected


class TestRestartContract:
    def test_restart_marks_live_jobs_interrupted(self, tmp_path):
        """A job that was running when the daemon died is reported
        ``interrupted`` by the next daemon, verdicts-so-far intact."""
        spool = str(tmp_path / "spool")
        registry = JobRegistry(spool)
        job = registry.create("grid", {"grid": "fig11-quick"})
        with job.cond:
            job.state = RUNNING
        partial = {"index": 0, "name": "certikos.get_quota", "status": "proved", "proved": True}
        job.add_verdict(partial)
        registry.persist(job)

        srv = VerificationServer(
            store_dir=str(tmp_path / "store"), spool_dir=spool, trace=False
        ).start()
        try:
            reborn = ServeClient(srv.url)
            assert reborn.healthz()["recovered_jobs"] == [job.id]
            snapshot = reborn.job(job.id)
            assert snapshot["state"] == "interrupted"
            assert "restarted" in snapshot["error"]
            page = reborn.verdicts(job.id)
            assert page["state"] == "interrupted"
            assert page["verdicts"] == [partial]
        finally:
            srv.close()

    def test_failed_spool_write_keeps_the_record_and_no_tempfile(
        self, tmp_path, monkeypatch
    ):
        """A spool write whose rename fails raises nothing, keeps the
        previous record, and leaves no tempfile in the spool."""
        spool = tmp_path / "spool"
        registry = JobRegistry(str(spool))
        job = registry.create("grid", {"grid": "fig11-quick"})
        with job.cond:
            job.state = RUNNING

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        registry.persist(job)
        monkeypatch.undo()
        assert sorted(path.name for path in spool.iterdir()) == [f"{job.id}.json"]
        assert json.loads((spool / f"{job.id}.json").read_text())["state"] == "queued"


class TestHttpSurface:
    def test_healthz_and_metrics(self, client):
        health = client.healthz()
        assert health["ok"] is True
        assert all(isinstance(n, int) for n in health["jobs"].values())
        metrics = client.metrics()
        assert metrics["store"]["entries"] >= 0
        assert set(metrics["jobs"]) == set(health["jobs"])

    def test_bad_requests(self, client):
        cases = [
            (400, lambda: client._request("POST", "/jobs", {"kind": "bogus"})),
            (400, lambda: client.submit_grid("no-such-grid")),
            (400, lambda: client.submit_grid("fig11-quick", opt=7)),
            (400, lambda: client.submit_obligations([])),
            (400, lambda: client.submit_obligations(_batch(), jobs=-1)),
            (400, lambda: client.submit_obligations(_batch(), timeout_s=-2)),
            (400, lambda: client.submit_obligations(_batch(), max_conflicts=0)),
            (404, lambda: client.job("nope")),
            (404, lambda: client.cancel("nope")),
            (404, lambda: client._request("GET", "/nonsense")),
        ]
        cases += [
            (400, lambda doc=doc: client.submit_obligations([doc]))
            for doc, _message in _rejected_obligations()
        ]
        for code, call in cases:
            with pytest.raises(ServeError) as excinfo:
                call()
            assert excinfo.value.code == code, call

        job_id = client.submit_obligations(_batch())["id"]
        client.wait(job_id, timeout_s=120)
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", f"/jobs/{job_id}/verdicts?since=-1")
        assert excinfo.value.code == 400


class TestWireFormat:
    def test_obligation_round_trip(self):
        original = _batch()[0]
        doc = json.loads(json.dumps(original.to_json()))
        assert set(doc) == {"name", "payload"}
        clone = Obligation.from_json(doc)
        assert clone.name == original.name
        assert clone.payload == original.payload
        # Unknown keys, a leftover ``info`` among them, are ignored.
        assert Obligation.from_json({**doc, "info": "anything"}) == clone
        # The clone is verifiable, with the original's verdict.
        assert run_obligations([clone], jobs=1)[0][0].status == "proved"

    def test_obligation_validation(self):
        for doc, message in _rejected_obligations():
            with pytest.raises(ValueError, match=message):
                Obligation.from_json(doc)

    def test_result_wire_format_drops_non_scalars(self):
        result = ObligationResult(
            "ob0", "proved", stats={"cached": True, "envelope": object()}
        )
        doc = result.to_json()
        assert doc["stats"] == {"cached": True}
        back = ObligationResult.from_json(doc)
        assert back.name == "ob0" and back.status == "proved"
        with pytest.raises(ValueError):
            ObligationResult.from_json({"name": "ob0", "status": "banana"})


class TestCertificateEndpoints:
    def test_certificates_per_verdict(self, server, client):
        """Every cache-backed verdict exposes its stored proof
        certificate, bound to the record's query digest."""
        job_id = client.submit_obligations(_batch(), jobs=2)["id"]
        assert client.wait(job_id, timeout_s=120)["state"] == "done"

        doc = client._request("GET", f"/jobs/{job_id}/certificates")
        rows = doc["certificates"]
        assert doc["count"] == len(rows) == 6
        certified = [row for row in rows if row["certificate"] is not None]
        assert certified, "no verdict carried a certificate"
        for row in certified:
            assert row["certificate"]["digest"] == row["digest"]
            assert row["certificate"]["kind"] in ("drat", "model")

    def test_obligation_jobs_always_use_the_store(self, server, client):
        """There is no store-less obligation job: a ``cache`` key is
        ignored like any other unknown key, so every record carries its
        query digest and the certificate stored under it."""
        job_id = client.submit_obligations(_batch(), jobs=2, cache=False)["id"]
        assert client.wait(job_id, timeout_s=120)["state"] == "done"

        rows = client._request("GET", f"/jobs/{job_id}/certificates")["certificates"]
        assert len(rows) == 6
        for row in rows:
            assert row["digest"] is not None, row
            assert row["certificate"]["digest"] == row["digest"]

    def test_verdicts_certs_flag_inlines_certificates(self, server, client):
        job_id = client.submit_obligations(_batch(), jobs=2)["id"]
        assert client.wait(job_id, timeout_s=120)["state"] == "done"

        plain = client.verdicts(job_id)["verdicts"]
        assert all("certificate" not in r for r in plain)
        with_certs = client._request("GET", f"/jobs/{job_id}/verdicts?certs=1")["verdicts"]
        assert len(with_certs) == len(plain)
        assert any(r["certificate"] is not None for r in with_certs)
        for record in with_certs:
            cert = record["certificate"]
            if cert is not None:
                assert cert["digest"] == record["stats"]["digest"]

    def test_grid_job_certificates_are_null_rows(self, server, client):
        """Grid-job records aggregate many queries and carry no digest;
        the endpoint answers with null certificates, not an error."""
        job = client._request(
            "POST", "/jobs", {"kind": "grid", "grid": "fig11-quick", "jobs": 2}
        )
        assert client.wait(job["id"], timeout_s=300)["state"] == "done"
        doc = client._request("GET", f"/jobs/{job['id']}/certificates")
        assert doc["count"] == len(GRIDS["fig11-quick"])
        assert all(row["certificate"] is None for row in doc["certificates"])
        assert all(row["digest"] is None for row in doc["certificates"])
