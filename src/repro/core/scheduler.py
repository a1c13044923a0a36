"""Process-wide obligation scheduler: one persistent pool, one queue.

A pool built per ``run_obligations`` call would sit idle between the
Figure 11 grid's tasks — twelve refinement proofs, two safety suites, a
JIT sweep — and pay pool startup on every call.  This module owns **one
persistent worker pool for the whole process**, fed by one queue, so
any number of concurrent verification tasks keep all cores busy
end-to-end (§3.3's decomposition into independent obligations is what
makes this sound: obligations share no state, only the
content-addressed verdict store).

Scheduling discipline:

  * the parent keeps **one FIFO queue** of task ids; a submission
    appends its tasks in submission order;
  * the dispatcher thread hands the head of the queue to an idle
    worker, one task at a time, under the scheduler lock, so no worker
    idles while work is queued and tasks start in submission order;
  * a retried task goes back to the *head* of the queue;
  * verdict reduction is by submission index, never completion order —
    every result lands in the slot it would have filled sequentially,
    so parallel runs report *identical* verdicts and first-failures to
    sequential runs.

Resilience (per KVerus' proof-fleet scheduling): each obligation gets a
wall-clock ``timeout_s`` enforced inside the SAT core plus **one bounded
retry**; a timed-out-twice obligation reports ``unknown`` instead of
wedging the run, and a crashed worker is respawned with its in-flight
obligation requeued.

Telemetry compatible with ``RunnerStats`` (queue depth, retries,
timeouts, per-worker utilization) flows through ``ProofResult.stats``
into the ``BENCH_runner.json`` artifact.
"""

from __future__ import annotations

import atexit
from collections import deque
from dataclasses import dataclass
import multiprocessing
import os
import queue as queue_mod
import threading
import time

from .runner import (
    Obligation,
    ObligationResult,
    RunnerStats,
    UNKNOWN,
    _check_obligation,
    default_jobs,
)

__all__ = [
    "ObligationScheduler",
    "SchedulerStats",
    "get_scheduler",
    "peek_scheduler",
    "shutdown_scheduler",
]

# Set in worker processes so nested verification work never tries to
# spawn grandchild processes (daemonic workers cannot fork).
_WORKER_ENV = "REPRO_SCHEDULER_WORKER"


@dataclass
class SchedulerStats(RunnerStats):
    """``RunnerStats`` plus the scheduler telemetry.

    ``utilization`` is the fraction of worker-seconds spent solving
    during this run's wall time (1.0 = every worker busy the whole
    time); ``max_queue_depth`` is the deepest the queue got while the
    run was live.
    """

    retries: int = 0
    timeouts: int = 0
    max_queue_depth: int = 0
    worker_restarts: int = 0
    pool_workers: int = 0
    utilization: float = 0.0

    def as_dict(self) -> dict:
        out = super().as_dict()
        out.update(
            retries=self.retries,
            timeouts=self.timeouts,
            max_queue_depth=self.max_queue_depth,
            worker_restarts=self.worker_restarts,
            pool_workers=self.pool_workers,
            utilization=self.utilization,
        )
        return out


class _CallError:
    """Marker result for a generic task whose callable raised."""

    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"_CallError({self.message})"


class _Task:
    __slots__ = (
        "tid",
        "kind",
        "payload",
        "ticket",
        "index",
        "attempts",
        "max_attempts",
        "name",
        "queued_t",
    )

    def __init__(self, tid, kind, payload, ticket, index, max_attempts, name):
        self.tid = tid
        self.kind = kind  # "ob" | "call"
        self.payload = payload
        self.ticket = ticket
        self.index = index
        self.attempts = 0
        self.max_attempts = max_attempts
        self.name = name
        self.queued_t = time.perf_counter()


class _Ticket:
    """One submission's rendezvous point and per-run telemetry.

    With ``trace`` set, workers run each task inside their own tracing
    session and ship the span/counter/region snapshot back through the
    outbox; ``obs`` holds those ``(wid, snapshot)`` envelopes and
    ``timeline`` the queued/start/end record per task, both indexed by
    submission order.

    ``job`` is an opaque caller tag (the serving layer uses its job id)
    so concurrent submissions can be told apart in telemetry, and
    ``on_result`` — when set — is invoked as ``on_result(index, result)``
    each time a task finalizes.  The callback runs on the dispatcher
    thread while the scheduler lock is held: it must be fast and must
    never call back into the scheduler (stash the result and notify a
    condition instead).
    """

    def __init__(
        self,
        count: int,
        trace: bool = False,
        job: str | None = None,
        on_result=None,
        trace_id: str | None = None,
    ):
        self.results: list = [None] * count
        self.pending = count
        self.done = 0
        self.event = threading.Event()
        self.trace = trace
        self.job = job
        self.trace_id = trace_id
        self.on_result = on_result
        self.cancelled = False
        self.obs: list = [None] * count
        self.timeline: list = [None] * count
        self.retries = 0
        self.timeouts = 0
        self.busy_s = 0.0
        self.max_depth = 0

    def wait(self, timeout: float | None = None) -> list:
        self.event.wait(timeout)
        return self.results

    def progress(self) -> dict:
        """Point-in-time per-job counters, safe to read from any thread
        (monitoring only — values may be mid-update)."""
        return {
            "total": len(self.results),
            "done": self.done,
            "pending": self.pending,
            "cancelled": self.cancelled,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "busy_s": self.busy_s,
        }


def _pool_context():
    """Prefer fork (workers inherit the interned DAG for free); fall
    back to spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_task(kind: str, payload) -> object:
    if kind == "ob":
        obligation, cache_dir, max_conflicts, timeout_s = payload
        return _check_obligation(obligation, cache_dir, max_conflicts, timeout_s)
    fn, item = payload
    return fn(item)


def _worker_main(wid: int, inbox, outbox) -> None:
    """Worker process loop: pull a task, solve, report, repeat.

    Never raises out of the loop — any failure is reported as a result
    so the dispatcher, not the pool, decides what to do about it.

    When the parent is tracing (``trace`` set in the task message), the
    task runs inside its own obs tracing session, and the serialized
    snapshot (spans, counters, §3.2 region rows) rides home in the
    outbox message.  ``time.perf_counter()`` is machine-wide on Linux,
    so the worker's span timestamps land directly on the parent's
    timeline.
    """
    os.environ[_WORKER_ENV] = "1"
    from ..obs.events import trace_context

    while True:
        msg = inbox.get()
        if msg is None:
            return
        tid, kind, payload, trace, ids = msg
        trace_id, ob_id = ids if ids is not None else (None, None)
        start = time.perf_counter()
        snap = None
        try:
            # Bind the correlation ids around the whole solve so every
            # span recorded below — and every remote-store request the
            # cache makes — carries the submitting job's trace_id.
            with trace_context(trace_id, ob_id):
                if trace:
                    from ..obs import tracing

                    with tracing(absorb=False) as col:
                        result = _run_task(kind, payload)
                    snap = col.snapshot()
                else:
                    result = _run_task(kind, payload)
        except BaseException as exc:  # resilience: the loop must survive
            # A crash may have left the worker's incremental SAT session
            # mid-mutation; drop it so the next task starts clean.
            from ..smt.solver import reset_incremental_session

            reset_incremental_session()
            if kind == "ob":
                result = ObligationResult(
                    payload[0].name, UNKNOWN, stats={"worker_error": repr(exc)}
                )
            else:
                result = _CallError(repr(exc))
        outbox.put((wid, tid, result, time.perf_counter() - start, start, snap))


class _Worker:
    __slots__ = ("wid", "process", "inbox")

    def __init__(self, wid, process, inbox):
        self.wid = wid
        self.process = process
        self.inbox = inbox


class ObligationScheduler:
    """The process-wide scheduler: persistent pool + one FIFO queue.

    Use :func:`get_scheduler` rather than constructing one per call —
    sharing the pool across calls is the point.
    """

    def __init__(self, workers: int = 0):
        workers = workers or default_jobs()
        self._ctx = _pool_context()
        self._lock = threading.Lock()
        self._outbox = self._ctx.Queue()
        self._workers: list[_Worker] = []
        self._idle: set[int] = set()
        self._inflight: dict[int, int] = {}  # wid -> tid
        self._tasks: dict[int, _Task] = {}
        self._queue: deque[int] = deque()  # tids waiting for a worker
        self._next_tid = 0
        self.closed = False
        # Process-lifetime counters (per-run numbers live on tickets).
        self.retries = 0
        self.timeouts = 0
        self.worker_restarts = 0
        self.max_queue_depth = 0
        for _ in range(workers):
            self._spawn_worker()
        self._dispatcher = threading.Thread(
            target=self._loop, name="obligation-scheduler", daemon=True
        )
        self._dispatcher.start()

    # -- pool management -------------------------------------------------

    def _spawn_worker(self) -> None:
        wid = len(self._workers)
        inbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main, args=(wid, inbox, self._outbox), daemon=True
        )
        process.start()
        self._workers.append(_Worker(wid, process, inbox))
        self._idle.add(wid)

    def _respawn(self, worker: _Worker) -> None:
        self.worker_restarts += 1
        worker.process = self._ctx.Process(
            target=_worker_main, args=(worker.wid, worker.inbox, self._outbox), daemon=True
        )
        worker.process.start()

    def grow(self, extra: int) -> None:
        """Add workers (the pool only ever grows; idle workers block on
        their inbox and cost nothing)."""
        with self._lock:
            for _ in range(extra):
                self._spawn_worker()
            self._feed_idle()

    @property
    def pool_size(self) -> int:
        return len(self._workers)

    def telemetry(self) -> dict:
        """Process-lifetime counters plus a point-in-time queue picture
        (the serving layer's ``/metrics`` payload)."""
        with self._lock:
            return {
                "pool_workers": len(self._workers),
                "queued": len(self._queue),
                "inflight": len(self._inflight),
                # One queue feeds every worker, so this is always 0; the
                # key stays because bench/child.py reads scheduler.steals
                # from /metrics in traced serve runs.
                "steals": 0,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "worker_restarts": self.worker_restarts,
                "max_queue_depth": self.max_queue_depth,
            }

    def shutdown(self) -> None:
        """Stop workers and the dispatcher.  Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            for worker in self._workers:
                try:
                    worker.inbox.put(None)
                except (OSError, ValueError):
                    pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()

    # -- submission ------------------------------------------------------

    def submit_obligations(
        self,
        obligations,
        cache_dir: str | None = None,
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        trace: bool = False,
        job: str | None = None,
        on_result=None,
        trace_id: str | None = None,
    ) -> _Ticket:
        """Queue obligations; returns a ticket to ``wait()`` on.

        Multiple tickets may be outstanding at once — that is how
        independent verification tasks share the pool.  ``job`` tags
        the ticket for telemetry and ``on_result(index, result)``
        streams each verdict as it finalizes (see :class:`_Ticket` for
        the callback's constraints).  ``trace_id`` (defaulting to the
        submitting thread's ambient id) rides to the workers so their
        spans and store requests are correlated with the job.
        """
        specs = [
            ("ob", (ob, cache_dir, max_conflicts, timeout_s), ob.name) for ob in obligations
        ]
        return self._submit(
            specs, retries, trace, job=job, on_result=on_result, trace_id=trace_id
        )

    def submit_calls(self, fn, items, retries: int = 0, trace: bool = False) -> _Ticket:
        """Queue generic ``fn(item)`` tasks (the JIT-sweep shape)."""
        specs = [("call", (fn, item), f"{getattr(fn, '__name__', 'call')}[{i}]") for i, item in enumerate(items)]
        return self._submit(specs, retries, trace)

    def _submit(
        self, specs, retries: int, trace: bool = False, job=None, on_result=None, trace_id=None
    ) -> _Ticket:
        if trace_id is None:
            from ..obs.events import current_trace

            trace_id = current_trace()[0]
        ticket = _Ticket(len(specs), trace=trace, job=job, on_result=on_result, trace_id=trace_id)
        if not specs:
            ticket.event.set()
            return ticket
        with self._lock:
            if self.closed:
                raise RuntimeError("scheduler is shut down")
            for index, (kind, payload, name) in enumerate(specs):
                tid = self._next_tid
                self._next_tid += 1
                self._tasks[tid] = _Task(tid, kind, payload, ticket, index, 1 + retries, name)
                self._queue.append(tid)
            self._note_depth()
            self._feed_idle()
        return ticket

    # -- dispatch (all called under self._lock) --------------------------

    def _note_depth(self) -> None:
        """Record the queue's depth on the scheduler and on every live
        ticket.  Called only where the queue grows (submit, requeue):
        between those points it only shrinks, so no maximum is missed."""
        depth = len(self._queue)
        self.max_queue_depth = max(self.max_queue_depth, depth)
        for ticket in {task.ticket for task in self._tasks.values()}:
            ticket.max_depth = max(ticket.max_depth, depth)

    def _feed_idle(self) -> None:
        while self._idle and self._queue:
            task = self._tasks.get(self._queue.popleft())
            if task is None:
                # Finalized by a late result after a worker-death requeue.
                continue
            wid = min(self._idle)
            self._idle.discard(wid)
            self._inflight[wid] = task.tid
            ticket = task.ticket
            ids = None
            if ticket.trace_id is not None:
                ids = (ticket.trace_id, f"{ticket.trace_id}.{task.index}")
            self._workers[wid].inbox.put((task.tid, task.kind, task.payload, ticket.trace, ids))

    def _finalize(
        self,
        task: _Task,
        result,
        wid: int | None = None,
        start: float | None = None,
        elapsed: float = 0.0,
        snap: dict | None = None,
    ) -> None:
        del self._tasks[task.tid]
        ticket = task.ticket
        ticket.results[task.index] = result
        ob_id = f"{ticket.trace_id}.{task.index}" if ticket.trace_id else None
        if wid is not None and start is not None:
            ticket.timeline[task.index] = {
                "name": task.name,
                "queued_t": task.queued_t,
                "start_t": start,
                "end_t": start + elapsed,
                "wid": wid,
                "attempts": task.attempts + 1,
            }
            # Latency histograms go to the process-global collector (the
            # daemon's process-lifetime session): obligation wall time
            # and how long the task sat queued before a worker took it.
            from ..obs import event as obs_event, observe as obs_observe

            obs_observe("obligation.wall_seconds", elapsed)
            obs_observe("obligation.queue_wait_seconds", max(0.0, start - task.queued_t))
            if task.kind == "ob":
                status = result.status if isinstance(result, ObligationResult) else "?"
                obs_event(
                    "info",
                    "obligation.done",
                    trace_id=ticket.trace_id,
                    ob_id=ob_id,
                    name=task.name,
                    status=status,
                    wall_s=elapsed,
                    worker=wid,
                    job=ticket.job,
                )
        if snap is not None:
            ticket.obs[task.index] = (wid, snap)
        ticket.done += 1
        ticket.pending -= 1
        if ticket.on_result is not None:
            try:
                ticket.on_result(task.index, result)
            except Exception:
                # A broken observer must not wedge dispatch.
                pass
        if ticket.pending == 0:
            ticket.event.set()

    def _cancelled_result(self, task: _Task):
        if task.kind == "ob":
            return ObligationResult(task.name, UNKNOWN, stats={"cancelled": True})
        return _CallError("cancelled")

    def cancel(self, ticket: _Ticket) -> int:
        """Cancel a submission: tasks still queued are finalized as
        ``unknown`` with ``stats["cancelled"]`` set; tasks already on a
        worker run to completion (their per-obligation timeout still
        applies) but are never retried.  Returns the number of tasks
        cancelled before they started.  Idempotent; the ticket's
        ``wait()`` returns once in-flight tasks drain.
        """
        with self._lock:
            if ticket.cancelled:
                return 0
            ticket.cancelled = True
            queued = [self._tasks.get(tid) for tid in self._queue]
            doomed = [t for t in queued if t is not None and t.ticket is ticket]
            self._queue = deque(t.tid for t in queued if t is not None and t.ticket is not ticket)
            for task in doomed:
                self._finalize(task, self._cancelled_result(task))
            return len(doomed)

    def _requeue(self, wid: int, task: _Task) -> None:
        task.attempts += 1
        self.retries += 1
        task.ticket.retries += 1
        from ..obs import event as obs_event

        obs_event(
            "warn",
            "obligation.retry",
            trace_id=task.ticket.trace_id,
            ob_id=f"{task.ticket.trace_id}.{task.index}" if task.ticket.trace_id else None,
            name=task.name,
            attempt=task.attempts + 1,
            worker=wid,
        )
        # Back to the head of the queue: it is the oldest work waiting.
        self._queue.appendleft(task.tid)
        self._note_depth()

    # -- dispatcher thread ----------------------------------------------

    def _loop(self) -> None:
        while True:
            try:
                wid, tid, result, elapsed, start, snap = self._outbox.get(timeout=0.2)
            except queue_mod.Empty:
                with self._lock:
                    if self.closed:
                        return
                    self._check_workers()
                continue
            except (OSError, EOFError, ValueError):
                return
            with self._lock:
                if self.closed:
                    return
                self._inflight.pop(wid, None)
                self._idle.add(wid)
                task = self._tasks.get(tid)
                # None: a duplicate delivery after a worker-death requeue.
                if task is not None:
                    task.ticket.busy_s += elapsed
                    self._handle_result(wid, task, result, elapsed, start, snap)
                self._feed_idle()

    def _handle_result(
        self, wid: int, task: _Task, result, elapsed: float, start: float, snap: dict | None
    ) -> None:
        if task.ticket.cancelled:
            # No retry budget for a cancelled job; report what we got.
            self._finalize(task, result, wid=wid, start=start, elapsed=elapsed, snap=snap)
            return
        if task.kind == "ob":
            timed_out = (
                isinstance(result, ObligationResult)
                and result.status == UNKNOWN
                and bool(result.stats.get("timed_out"))
            )
            errored = isinstance(result, ObligationResult) and "worker_error" in result.stats
            if timed_out:
                self.timeouts += 1
                task.ticket.timeouts += 1
            if (timed_out or errored) and task.attempts + 1 < task.max_attempts:
                self._requeue(wid, task)
                return
        self._finalize(task, result, wid=wid, start=start, elapsed=elapsed, snap=snap)

    def _check_workers(self) -> None:
        for worker in self._workers:
            if worker.process.is_alive():
                continue
            from ..obs import event as obs_event

            obs_event("error", "worker.died", worker=worker.wid)
            tid = self._inflight.pop(worker.wid, None)
            if tid is not None and tid in self._tasks:
                task = self._tasks[tid]
                if task.ticket.cancelled:
                    self._finalize(task, self._cancelled_result(task))
                elif task.attempts + 1 < task.max_attempts:
                    self._requeue(worker.wid, task)
                elif task.kind == "ob":
                    self._finalize(
                        task,
                        ObligationResult(task.name, UNKNOWN, stats={"worker_error": "worker died"}),
                    )
                else:
                    self._finalize(task, _CallError("worker died"))
            self._respawn(worker)
            self._idle.add(worker.wid)
        self._feed_idle()

    # -- high-level entry points ----------------------------------------

    def _collect_trace(self, ticket: _Ticket) -> None:
        """Absorb worker envelopes into the caller's collector, and lay
        down one ``scheduler``-category span per task (its solving
        interval, on its worker's track)."""
        from ..obs import get_collector

        col = get_collector()
        if col is None:
            return
        for entry in ticket.obs:
            if entry is not None:
                wid, snap = entry
                col.absorb(snap, tid=f"worker-{wid}")
        for index, entry in enumerate(ticket.timeline):
            if entry is None:
                continue
            result = ticket.results[index]
            args = {
                "queued_s": entry["start_t"] - entry["queued_t"],
                "attempts": entry["attempts"],
                "worker": entry["wid"],
            }
            if ticket.trace_id is not None:
                args["trace_id"] = ticket.trace_id
                args["ob_id"] = f"{ticket.trace_id}.{index}"
            if isinstance(result, ObligationResult):
                args["status"] = result.status
            col.add_span(
                entry["name"],
                "scheduler",
                f"worker-{entry['wid']}",
                entry["start_t"],
                entry["end_t"] - entry["start_t"],
                args,
            )

    def run(
        self,
        obligations,
        cache_dir: str | None = None,
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        jobs_hint: int | None = None,
        trace: bool | None = None,
    ) -> tuple[list[ObligationResult], SchedulerStats]:
        """Submit, wait, and reduce — the ``run_obligations`` shape.

        ``jobs_hint`` is what the caller asked for; it is reported as
        ``stats.jobs`` for compatibility with PR 2 consumers even though
        the whole pool participates.  ``trace`` defaults to whether the
        caller is tracing.
        """
        from ..obs import enabled

        start = time.perf_counter()
        trace = enabled() if trace is None else trace
        ticket = self.submit_obligations(
            obligations,
            cache_dir=cache_dir,
            max_conflicts=max_conflicts,
            timeout_s=timeout_s,
            retries=retries,
            trace=trace,
        )
        results = ticket.wait()
        wall = time.perf_counter() - start
        if trace:
            self._collect_trace(ticket)
        workers = len(self._workers)
        stats = SchedulerStats(
            obligations=len(obligations),
            jobs=min(jobs_hint or workers, max(len(obligations), 1)),
            wall_time_s=wall,
            cache_queries=sum(1 for r in results if r.stats.get("cached")),
            cache_hits=sum(1 for r in results if r.stats.get("cache_hit")),
            retries=ticket.retries,
            timeouts=ticket.timeouts,
            max_queue_depth=ticket.max_depth,
            worker_restarts=self.worker_restarts,
            pool_workers=workers,
            utilization=ticket.busy_s / (wall * workers) if wall > 0 and workers else 0.0,
        )
        return results, stats

    def map(self, fn, items, trace: bool | None = None) -> list:
        """Order-preserving parallel map over the shared pool.

        Raises ``RuntimeError`` if ``fn`` raised in a worker (after the
        worker-death retry budget), mirroring ``Pool.map``.
        """
        from ..obs import enabled

        trace = enabled() if trace is None else trace
        ticket = self.submit_calls(fn, list(items), trace=trace)
        results = ticket.wait()
        if trace:
            self._collect_trace(ticket)
        for result in results:
            if isinstance(result, _CallError):
                raise RuntimeError(f"scheduler map task failed: {result.message}")
        return results


# ---------------------------------------------------------------------------
# The process-wide instance

_GLOBAL: ObligationScheduler | None = None
_GLOBAL_LOCK = threading.Lock()


def in_worker() -> bool:
    """True inside a scheduler worker process (nested parallelism is
    downgraded to sequential there; daemonic workers cannot fork)."""
    return os.environ.get(_WORKER_ENV) == "1"


def peek_scheduler() -> ObligationScheduler | None:
    """The shared scheduler if one is live, without creating it (the
    serving layer's ``/metrics`` must not fork a pool on a read)."""
    with _GLOBAL_LOCK:
        if _GLOBAL is not None and not _GLOBAL.closed:
            return _GLOBAL
        return None


def get_scheduler(workers: int = 0) -> ObligationScheduler:
    """The shared scheduler, growing its pool to ``workers`` if needed."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        want = workers or default_jobs()
        if _GLOBAL is None or _GLOBAL.closed:
            _GLOBAL = ObligationScheduler(want)
        elif _GLOBAL.pool_size < want:
            _GLOBAL.grow(want - _GLOBAL.pool_size)
        return _GLOBAL


def shutdown_scheduler() -> None:
    """Tear down the shared pool (atexit; tests use it to reset seeds)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is not None:
            _GLOBAL.shutdown()
            _GLOBAL = None


atexit.register(shutdown_scheduler)
