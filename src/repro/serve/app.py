"""The verification daemon: HTTP/JSON front end over the scheduler.

``VerificationServer`` wires four existing pieces into a long-lived
service with zero new dependencies (stdlib ``http.server`` only):

  * the process-wide obligation scheduler discharges every job's
    obligations (``repro.core.scheduler``);
  * one content-addressed verdict store is shared by *all* jobs and
    all clients, so concurrent submissions of overlapping work hit one
    warm cache (``repro.core.store``);
  * the job registry spools state so a daemon restart marks live jobs
    ``interrupted`` instead of losing them (``repro.serve.jobs``);
  * an optional process-lifetime ``repro.obs`` tracing session feeds
    ``GET /metrics``.

Endpoints (all JSON)::

    POST /jobs                  submit {"kind": "grid"|"obligations", ...}
    GET  /jobs                  job summaries
    GET  /jobs/<id>             status + progress + verdict map
    GET  /jobs/<id>/verdicts    verdict records; ?since=N pages, ?wait_s=S
                                long-polls until new verdicts land,
                                ?certs=1 inlines stored proof certificates
    GET  /jobs/<id>/certificates  per-verdict proof certificates (null
                                for records without a query digest)
    POST /jobs/<id>/cancel      cancel (queued obligations dropped,
                                in-flight ones finish)
    GET  /healthz               liveness + version + pool/job counts
    GET  /metrics               obs counters/histograms + scheduler/store
                                telemetry; ``Accept: text/plain`` gets
                                Prometheus 0.0.4 exposition instead
    GET  /events                structured event ring; ?since=N pages,
                                ?level=warn filters by severity
    *    /store/...              the distributed-store object protocol
                                (``repro.core.remote.StoreAPI``), so one
                                daemon can serve verdicts to a fleet

Determinism contract: a grid job's verdict map is keyed ``monitor.op``
exactly like the bench CLI's artifact, and an obligation batch's
records carry their submission ``index`` — reduced in index order they
equal a sequential ``run_obligations`` call verbatim, however the
workers interleaved.
"""

from __future__ import annotations

import json
import re
import threading
import time

from ..core.remote import (
    HTTPService,
    RequestError,
    RequestHandler,
    StoreAPI,
    breaker_open,
    json_reply,
)
from ..core.runner import Obligation
from ..core.scheduler import get_scheduler, peek_scheduler
from ..core.store import DEFAULT_STORE_DIR, VerdictStore
from ..obs.events import TRACE_HEADER, new_trace_id, parse_trace_header, trace_context
from .grids import GRIDS, run_grid
from .jobs import CANCELLED, DONE, FAILED, RUNNING, JobRegistry

__all__ = ["VerificationServer"]

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_-]+)(/verdicts|/certificates|/cancel)?$")

# Long-poll ceiling: clients asking for more still get a response (and
# re-poll), so a dead client can never pin a handler thread for long.
MAX_WAIT_S = 30.0


class VerificationServer(HTTPService):
    """The daemon: owns the registry, the store, and the HTTP listener.

    ``default_jobs`` is how many scheduler workers a job uses unless
    its submission says otherwise; the pool itself is shared and grows
    to the largest request.  ``trace=True`` (default) keeps a
    process-lifetime obs tracing session open so ``/metrics`` reports
    live counters from every layer.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir: str | None = None,
        spool_dir: str | None = None,
        default_jobs: int = 2,
        trace: bool = True,
        verbose: bool = False,
    ):
        import os

        self.store_dir = store_dir or DEFAULT_STORE_DIR
        self.store = VerdictStore(self.store_dir)
        # The daemon's store doubles as a distributed-store server:
        # remote clients read/write it under /store/ with the same
        # protocol the standalone `store serve` daemon speaks.
        self.store_api = StoreAPI(self.store)
        self.spool_dir = spool_dir or os.path.join(self.store_dir, "jobs")
        self.registry = JobRegistry(self.spool_dir)
        self.default_jobs = default_jobs
        self.started_t = time.time()
        self._collector = None
        self._trace_ctx = None
        if trace:
            from ..obs import tracing

            self._trace_ctx = tracing(absorb=False)
            self._collector = self._trace_ctx.__enter__()
        super().__init__(_Handler, host, port, verbose)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop listening.  Running jobs stay in the spool as
        ``running``; the next daemon marks them ``interrupted`` — the
        restart contract tests rely on.  Idempotent."""
        super().close()
        if self._trace_ctx is not None:
            self._trace_ctx.__exit__(None, None, None)
            self._trace_ctx = None

    # -- submission ------------------------------------------------------

    def submit(self, doc: dict, trace_id: str | None = None):
        """Validate a ``POST /jobs`` body, register the job, and start
        its runner thread.  Raises :class:`RequestError` on a bad body.

        ``trace_id`` is the client's correlation id (``X-Repro-Trace``);
        jobs submitted without one get a fresh daemon-generated id, so
        every job is traceable either way.
        """
        if not isinstance(doc, dict):
            raise RequestError(400, "request body must be a JSON object")
        trace_id = trace_id or new_trace_id()
        kind = doc.get("kind")
        if kind == "grid":
            job = self._submit_grid(doc, trace_id)
        elif kind == "obligations":
            job = self._submit_obligations(doc, trace_id)
        else:
            raise RequestError(400, f"kind must be 'grid' or 'obligations', got {kind!r}")
        threading.Thread(
            target=self._run_job, args=(job,), name=f"job-{job.id}", daemon=True
        ).start()
        return job

    def _jobs_knob(self, doc: dict) -> int:
        jobs = doc.get("jobs", self.default_jobs)
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
            raise RequestError(400, "jobs must be a non-negative integer")
        return jobs or self.default_jobs

    def _budget_knobs(self, doc: dict) -> tuple[int | None, float | None]:
        max_conflicts = doc.get("max_conflicts")
        if max_conflicts is not None and (
            not isinstance(max_conflicts, int) or max_conflicts < 1
        ):
            raise RequestError(400, "max_conflicts must be a positive integer")
        timeout_s = doc.get("timeout_s")
        if timeout_s is not None and (
            not isinstance(timeout_s, (int, float)) or timeout_s <= 0
        ):
            raise RequestError(400, "timeout_s must be a positive number")
        return max_conflicts, timeout_s

    def _submit_grid(self, doc: dict, trace_id: str | None = None):
        grid = doc.get("grid", "fig11-quick")
        if grid not in GRIDS:
            raise RequestError(400, f"unknown grid {grid!r}; one of {sorted(GRIDS)}")
        opt = doc.get("opt", 1)
        if opt not in (0, 1, 2):
            raise RequestError(400, "opt must be 0, 1, or 2")
        max_conflicts, timeout_s = self._budget_knobs(doc)
        params = {
            "grid": grid,
            "opt": opt,
            "jobs": self._jobs_knob(doc),
            "max_conflicts": max_conflicts,
            "timeout_s": timeout_s,
        }
        job = self.registry.create("grid", params, trace_id=trace_id)
        job.total = len(GRIDS[grid])
        return job

    def _submit_obligations(self, doc: dict, trace_id: str | None = None):
        raw = doc.get("obligations")
        if not isinstance(raw, list) or not raw:
            raise RequestError(400, "obligations must be a non-empty list")
        try:
            obligations = [Obligation.from_json(entry) for entry in raw]
        except ValueError as exc:
            raise RequestError(400, str(exc))
        max_conflicts, timeout_s = self._budget_knobs(doc)
        params = {
            "count": len(obligations),
            "jobs": self._jobs_knob(doc),
            "max_conflicts": max_conflicts,
            "timeout_s": timeout_s,
        }
        job = self.registry.create("obligations", params, trace_id=trace_id)
        job.total = len(obligations)
        # Runtime-only: parsed payloads ride on the job object, never
        # through the spool.
        job.obligations = obligations
        return job

    # -- execution -------------------------------------------------------

    def _run_job(self, job) -> None:
        from ..obs import count, event

        with job.cond:
            job.state = RUNNING
            job.started_t = time.time()
        self.registry.persist(job)
        count("serve.jobs.started")
        start = time.perf_counter()
        # The whole job thread runs under the job's trace_id, so every
        # span it records, every obligation it submits, and every store
        # request it triggers is correlated back to this submission.
        with trace_context(job.trace_id):
            event("info", "job.started", job=job.id, kind=job.kind)
            try:
                if job.kind == "grid":
                    self._run_grid_job(job)
                else:
                    self._run_obligations_job(job)
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                job.finish(FAILED, error=f"{type(exc).__name__}: {exc}")
                event("error", "job.failed", job=job.id, error=f"{type(exc).__name__}: {exc}")
            finally:
                job.stats["wall_s"] = time.perf_counter() - start
                self.registry.persist(job)
                count(f"serve.jobs.{job.state}")
                event(
                    "info",
                    "job.finished",
                    job=job.id,
                    state=job.state,
                    wall_s=job.stats["wall_s"],
                )

    def _run_grid_job(self, job) -> None:
        params = job.params

        def on_verdict(label, result):
            job.add_verdict(
                {
                    "index": len(job.verdicts),
                    "name": label,
                    "status": "proved" if result.proved else
                    ("unknown" if result.unknown else "failed"),
                    "proved": bool(result.proved),
                }
            )
            self.registry.persist(job)

        verdicts, totals = run_grid(
            params["grid"],
            opt=params["opt"],
            jobs=params["jobs"],
            cache_dir=self.store_dir,
            max_conflicts=params.get("max_conflicts"),
            timeout_s=params.get("timeout_s"),
            on_verdict=on_verdict,
            should_stop=lambda: job.cancel_requested,
        )
        job.stats.update(totals)
        job.stats["verdict_map"] = verdicts
        job.finish(CANCELLED if job.cancel_requested else DONE)

    def _run_obligations_job(self, job) -> None:
        params = job.params
        scheduler = get_scheduler(params["jobs"])

        def on_result(index, result):
            # Runs under the scheduler lock, on the dispatcher thread or
            # on this one for a hit: append + notify only, no scheduler
            # calls, no disk IO (see _Ticket docs).
            record = result.to_json()
            record["index"] = index
            job.add_verdict(record)

        ticket = scheduler.submit_obligations(
            job.obligations,
            cache_dir=self.store_dir,
            max_conflicts=params.get("max_conflicts"),
            timeout_s=params.get("timeout_s"),
            job=job.id,
            on_result=on_result,
            trace_id=job.trace_id,
        )
        job.ticket = ticket
        results = ticket.wait()
        progress = ticket.progress()
        job.stats.update(
            obligations=len(results),
            cache_queries=sum(1 for r in results if r is not None and r.stats.get("cached")),
            cache_hits=sum(1 for r in results if r is not None and r.stats.get("cache_hit")),
            retries=progress["retries"],
            timeouts=progress["timeouts"],
        )
        job.finish(CANCELLED if ticket.cancelled else DONE)

    def cancel(self, job) -> bool:
        """Request cancellation; returns False once the job is terminal."""
        with job.cond:
            if job.is_terminal():
                return False
            job.cancel_requested = True
        ticket = job.ticket
        if ticket is not None:
            scheduler = peek_scheduler()
            if scheduler is not None:
                scheduler.cancel(ticket)
        return True

    # -- monitoring ------------------------------------------------------

    def healthz(self) -> dict:
        from .. import __version__

        scheduler = peek_scheduler()
        return {
            "ok": True,
            "version": __version__,
            "started_at": self.started_t,
            "uptime_s": time.time() - self.started_t,
            "jobs": self.registry.counts(),
            "pool_workers": scheduler.pool_size if scheduler else 0,
            "recovered_jobs": list(self.registry.recovered),
        }

    def _snapshot(self) -> dict:
        """One read of everything ``GET /metrics`` reports, in either
        format, so a scrape reads each source once."""
        scheduler = peek_scheduler()
        collector = self._collector
        return {
            "uptime_s": time.time() - self.started_t,
            "jobs": self.registry.counts(),
            "scheduler": scheduler.telemetry() if scheduler else None,
            "entries": len(self.store.digests()),
            "spool_pending": len(self.store.spool_pending()),
            "breaker_open": breaker_open(),
            "store_api": self.store_api.counters(),
            "obs": collector.metrics() if collector is not None else None,
            "events": collector.event_seq if collector is not None else None,
        }

    def metrics(self) -> dict:
        """``GET /metrics``: the JSON document."""
        snap = self._snapshot()
        doc = {
            "uptime_s": snap["uptime_s"],
            "jobs": snap["jobs"],
            "scheduler": snap["scheduler"],
            "store": {
                "path": self.store.path,
                "entries": snap["entries"],
                "spool_pending": snap["spool_pending"],
                "remote_breaker_open": snap["breaker_open"],
                **snap["store_api"],
            },
        }
        read = snap["obs"]
        if read is not None:
            from ..obs import Histogram

            doc["obs"] = {
                "counters": read["counters"],
                "spans": read["spans"],
                "dropped_spans": read["dropped_spans"],
                "histograms": {
                    name: Histogram.from_json(h).summary()
                    for name, h in read["histograms"].items()
                },
                "events": snap["events"],
            }
        return doc

    def prometheus_metrics(self) -> str:
        """``GET /metrics`` with ``Accept: text/plain`` — the Prometheus
        0.0.4 exposition of everything the JSON document reports:
        collector counters, latency histograms with their buckets, and
        the gauges (queue depth, pool size, breaker state, backlog,
        uptime)."""
        from ..obs.prom import render_prometheus

        snap = self._snapshot()
        read = snap["obs"] or {"counters": {}, "histograms": {}}
        counters = dict(read["counters"])
        for name, value in snap["store_api"].items():
            counters[f"store.{name}"] = value
        telemetry = snap["scheduler"] or {}
        if snap["scheduler"] is not None:
            for key in ("steals", "retries", "timeouts", "worker_restarts"):
                counters[f"scheduler.{key}"] = telemetry.get(key, 0)
        gauges = {
            "serve.uptime_seconds": snap["uptime_s"],
            "scheduler.pool_workers": telemetry.get("pool_workers", 0),
            "scheduler.queued": telemetry.get("queued", 0),
            "scheduler.inflight": telemetry.get("inflight", 0),
            "scheduler.max_queue_depth": telemetry.get("max_queue_depth", 0),
            "store.entries": snap["entries"],
            "store.spool_pending": snap["spool_pending"],
            "store.remote.breaker_open": int(snap["breaker_open"]),
        }
        for state, n in snap["jobs"].items():
            gauges[f"serve.jobs.{state}"] = n
        return render_prometheus(
            counters=counters, gauges=gauges, histograms=read["histograms"]
        )

    def events(self, since: int = 0, level: str | None = None) -> list[dict]:
        """The daemon's structured event ring (``GET /events``)."""
        if self._collector is None:
            return []
        return self._collector.events_since(since, level=level)


# ---------------------------------------------------------------------------
# HTTP routes


class _Handler(RequestHandler):
    server_version = "repro-serve/1.0"

    @property
    def app(self) -> VerificationServer:
        return self.server.app

    def _query(self) -> dict:
        from urllib.parse import parse_qs, urlsplit

        return {k: v[-1] for k, v in parse_qs(urlsplit(self.path).query).items()}

    def _job_or_404(self, job_id: str):
        job = self.app.registry.get(job_id)
        if job is None:
            raise RequestError(404, f"no such job {job_id!r}")
        return job

    def route(self, method, path, body):
        from ..obs import count

        count("serve.http.requests")
        if path == "/store" or path.startswith("/store/"):
            return self.app.store_api.handle(
                method,
                path,
                body,
                accept=self.headers.get("Accept", ""),
                trace=self.headers.get(TRACE_HEADER),
            )
        match = _JOB_PATH.match(path)
        if method == "GET" and path == "/healthz":
            return json_reply(200, self.app.healthz())
        if method == "GET" and path == "/metrics":
            if "text/plain" in (self.headers.get("Accept") or ""):
                from ..obs.prom import CONTENT_TYPE

                return 200, self.app.prometheus_metrics().encode(), CONTENT_TYPE, {}
            return json_reply(200, self.app.metrics())
        if method == "GET" and path == "/events":
            return self._get_events()
        if method == "GET" and path == "/jobs":
            return json_reply(
                200, {"jobs": [job.snapshot() for job in self.app.registry.jobs()]}
            )
        if method == "POST" and path == "/jobs":
            if body is None:
                raise RequestError(400, "request body required")
            try:
                doc = json.loads(body)
            except ValueError as exc:
                raise RequestError(400, f"invalid JSON body: {exc}")
            trace_id, _ = parse_trace_header(self.headers.get(TRACE_HEADER))
            job = self.app.submit(doc, trace_id=trace_id)
            return json_reply(
                201,
                {"id": job.id, "state": job.state, "kind": job.kind,
                 "trace_id": job.trace_id, "location": f"/jobs/{job.id}"},
            )
        if match and method == "GET" and match.group(2) is None:
            return json_reply(200, self._job_or_404(match.group(1)).snapshot())
        if match and method == "GET" and match.group(2) == "/verdicts":
            return self._get_verdicts(self._job_or_404(match.group(1)))
        if match and method == "GET" and match.group(2) == "/certificates":
            return self._get_certificates(self._job_or_404(match.group(1)))
        if match and method == "POST" and match.group(2) == "/cancel":
            job = self._job_or_404(match.group(1))
            accepted = self.app.cancel(job)
            return json_reply(
                202 if accepted else 409,
                {"id": job.id, "state": job.state, "cancelling": accepted},
            )
        raise RequestError(404, f"no route for {method} {path}")

    def _get_events(self):
        """``GET /events?since=N&level=L`` — the daemon's structured
        event ring, paged by sequence number."""
        query = self._query()
        try:
            since = int(query.get("since", 0))
        except ValueError:
            raise RequestError(400, "since must be an integer")
        level = query.get("level")
        records = self.app.events(since=since, level=level)
        return json_reply(
            200,
            {
                "since": since,
                "next": records[-1]["seq"] if records else since,
                "events": records,
            },
        )

    def _record_certificate(self, record) -> dict | None:
        """The stored proof certificate behind a verdict record, if the
        record names a query digest and the store holds one.  Grid-job
        records carry no digest (their verdicts aggregate many queries)
        — those get None, as do legacy cert-less store entries."""
        digest = None
        if isinstance(record, dict):
            stats = record.get("stats")
            if isinstance(stats, dict):
                digest = stats.get("digest")
        if not isinstance(digest, str):
            return None
        return self.app.store.load_certificate(digest)

    def _get_verdicts(self, job):
        query = self._query()
        try:
            since = int(query.get("since", 0))
            wait_s = min(float(query.get("wait_s", 0)), MAX_WAIT_S)
        except ValueError:
            raise RequestError(400, "since must be an integer, wait_s a number")
        if since < 0:
            raise RequestError(400, "since must be >= 0")
        with_certs = query.get("certs") in ("1", "true")
        deadline = time.monotonic() + wait_s
        with job.cond:
            while (
                len(job.verdicts) <= since
                and not job.is_terminal()
                and (remaining := deadline - time.monotonic()) > 0
            ):
                job.cond.wait(min(remaining, 1.0))
            records = list(job.verdicts[since:])
            state = job.state
        if with_certs:
            # Store reads happen outside the job lock: certificates can
            # be large and the store is shared with running jobs.
            records = [
                dict(record, certificate=self._record_certificate(record))
                if isinstance(record, dict)
                else record
                for record in records
            ]
        return json_reply(
            200,
            {
                "id": job.id,
                "state": state,
                "since": since,
                "next": since + len(records),
                "verdicts": records,
            },
        )

    def _get_certificates(self, job):
        """Certificates for every verdict the job has produced so far.

        One row per verdict record: ``{index, name, digest,
        certificate}``.  ``certificate`` is null when the record has no
        digest (grid jobs) or the store has no certificate for it —
        callers feed the non-null ones to ``repro.smt.checkproof``.
        """
        with job.cond:
            records = list(job.verdicts)
            state = job.state
        rows = []
        for pos, record in enumerate(records):
            if not isinstance(record, dict):
                continue
            stats = record.get("stats")
            digest = stats.get("digest") if isinstance(stats, dict) else None
            rows.append(
                {
                    "index": record.get("index", pos),
                    "name": record.get("name"),
                    "digest": digest if isinstance(digest, str) else None,
                    "certificate": self._record_certificate(record),
                }
            )
        return json_reply(
            200,
            {
                "id": job.id,
                "state": state,
                "count": len(rows),
                "certificates": rows,
            },
        )
