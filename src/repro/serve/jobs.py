"""Job lifecycle for the verification daemon.

A *job* is one client submission — a named verifier grid or a batch of
serialized proof obligations — tracked from ``queued`` through
``running`` to a terminal state.  The registry is the daemon's only
mutable state: everything else (verdicts, the solver cache) lives in
the content-addressed store shared with the CLI path.

Durability: every state change is spooled to ``<spool>/<id>.json``
through the store's atomic write (``SolverCache._atomic_write``).  On
startup the registry replays the spool; any job that was ``queued`` or
``running`` when the previous daemon died is marked ``interrupted`` —
its verdicts-so-far are preserved, it is just no longer being driven.
That is the crash contract the KVerus-style fleet scheduling needs: a
restart never silently loses a job, it reports it resumable-by-
resubmission.

States::

    queued -> running -> done
                      -> failed       (job raised; error recorded)
                      -> cancelled    (client asked; partial verdicts kept)
    queued|running -> interrupted     (daemon restarted mid-job)
"""

from __future__ import annotations

import itertools
import json
import os
import secrets
import threading
import time

from ..smt.solver import SolverCache

__all__ = ["Job", "JobRegistry", "STATES", "TERMINAL_STATES"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, INTERRUPTED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED, INTERRUPTED)


class Job:
    """One tracked submission.

    ``verdicts`` is append-only and index-ordered as records land —
    the streaming endpoint pages through it with ``since=N`` cursors.
    ``cond`` guards every mutable field and is notified on each append
    and on every state change, which is what makes long-polling cheap.
    """

    def __init__(self, job_id: str, kind: str, params: dict, trace_id: str | None = None):
        self.id = job_id
        self.kind = kind  # "grid" | "obligations"
        self.params = params
        # Correlation id for fleet-wide observability: client-supplied
        # via X-Repro-Trace or daemon-generated at submit.
        self.trace_id = trace_id
        self.state = QUEUED
        self.created_t = time.time()
        self.started_t: float | None = None
        self.finished_t: float | None = None
        self.verdicts: list[dict] = []
        self.total: int | None = None  # obligations expected, once known
        self.stats: dict = {}
        self.error: str | None = None
        self.cancel_requested = False
        self.cond = threading.Condition()
        # Runtime-only handles (never serialized): the scheduler ticket
        # for obligation jobs, so cancel() can reach it.
        self.ticket = None

    # -- state transitions (registry persists after each) ---------------

    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_verdict(self, record: dict) -> None:
        with self.cond:
            self.verdicts.append(record)
            self.cond.notify_all()

    def finish(self, state: str, error: str | None = None) -> None:
        with self.cond:
            self.state = state
            self.error = error
            self.finished_t = time.time()
            self.cond.notify_all()

    # -- serialization ---------------------------------------------------

    def snapshot(self, with_verdicts: bool = False) -> dict:
        """JSON view of the job; the spool record and the API payload."""
        with self.cond:
            doc = {
                "id": self.id,
                "kind": self.kind,
                "state": self.state,
                "trace_id": self.trace_id,
                "params": self.params,
                "created_t": self.created_t,
                "started_t": self.started_t,
                "finished_t": self.finished_t,
                "progress": {
                    "total": self.total,
                    "done": len(self.verdicts),
                },
                "stats": dict(self.stats),
                "error": self.error,
            }
            if with_verdicts:
                doc["verdicts"] = list(self.verdicts)
            return doc

    @classmethod
    def from_snapshot(cls, doc: dict) -> "Job":
        job = cls(
            doc["id"], doc.get("kind", "?"), doc.get("params", {}),
            trace_id=doc.get("trace_id"),
        )
        job.state = doc.get("state", QUEUED)
        job.created_t = doc.get("created_t", 0.0)
        job.started_t = doc.get("started_t")
        job.finished_t = doc.get("finished_t")
        job.verdicts = list(doc.get("verdicts", []))
        job.total = (doc.get("progress") or {}).get("total")
        job.stats = dict(doc.get("stats", {}))
        job.error = doc.get("error")
        return job


class JobRegistry:
    """Thread-safe job table with spool-backed durability."""

    def __init__(self, spool_dir: str | None = None):
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._serial = itertools.count(1)
        self.spool_dir = spool_dir
        self.recovered: list[str] = []
        if spool_dir:
            os.makedirs(spool_dir, exist_ok=True)
            self._recover()

    def _recover(self) -> None:
        """Replay the spool: live-at-crash jobs become ``interrupted``."""
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.spool_dir, name)) as handle:
                    doc = json.load(handle)
                job = Job.from_snapshot(doc)
            except (OSError, ValueError, KeyError):
                continue  # torn spool record: drop, never crash startup
            if job.state in (QUEUED, RUNNING):
                job.state = INTERRUPTED
                job.error = "daemon restarted while the job was live"
                job.finished_t = time.time()
                self.recovered.append(job.id)
                self.persist(job)
            self._jobs[job.id] = job

    # -- CRUD ------------------------------------------------------------

    def create(self, kind: str, params: dict, trace_id: str | None = None) -> Job:
        with self._lock:
            job_id = f"j{next(self._serial):04d}-{secrets.token_hex(4)}"
            job = Job(job_id, kind, params, trace_id=trace_id)
            self._jobs[job_id] = job
        self.persist(job)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.created_t)

    def counts(self) -> dict:
        out = {state: 0 for state in STATES}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
        return out

    # -- durability ------------------------------------------------------

    def persist(self, job: Job) -> None:
        """Spool the job snapshot atomically; a no-op without a spool.  A
        failed write leaves the previous record (and no tempfile): it
        degrades durability, not service."""
        if not self.spool_dir:
            return
        SolverCache._atomic_write(
            os.path.join(self.spool_dir, f"{job.id}.json"),
            json.dumps(job.snapshot(with_verdicts=True)).encode(),
        )
