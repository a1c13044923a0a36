"""Obligation scheduler: one queue and one policy, on a pool or inline.

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
  * the head of the queue goes to an idle worker, one task at a time,
    under the scheduler lock, so no worker idles while work is queued
    and tasks start in submission order.  Each worker has two one-way
    pipes of its own, tasks in and results out: whichever thread grows
    the queue or frees a worker (a submitter, or the dispatcher thread
    on a result) writes the task down the worker's task pipe itself,
    and the dispatcher thread reads every result pipe, so no feeder
    thread sits between the two and no lock is shared between
    processes;
  * that thread first looks an obligation up (canonicalize, then this
    machine's verdict tier: the local store, or without one this
    process's session memo, see ``repro.core.runner``).  A hit is
    finalized right there, on track ``main``, and the next task is
    taken; only a miss is sent, with its digest and variable map, so
    on a warm store no task reaches a worker.  A miss whose digest
    another task is already answering, for the same store and under the
    same budget (``max_conflicts``, ``timeout_s``), is parked behind
    that task, off the queue, and goes back to the head, in order, once
    it is finalized: one solve per digest at a time.  A store already
    holds each verdict a worker returns; the memo, which is not
    durable, records each decided one, where the next lookup reads it;
  * a retried task goes back to the *head* of the queue;
  * when a worker answers an obligation with a ``Split`` (its lookup
    missed and its goal is a conjunction, see ``repro.core.runner``),
    one obligation task per distinct piece goes to the *head* of the
    queue, in conjunct order; the obligation is finalized once its
    pieces decide it, and a proved one is recorded whole where dispatch
    looks it up;
  * verdict reduction is by submission index, never completion order —
    every result lands in the slot it would have filled sequentially,
    so parallel runs report *identical* verdicts and first-failures to
    sequential runs.

Resilience (per KVerus' proof-fleet scheduling): each obligation, and
each piece, gets a wall-clock ``timeout_s`` enforced inside the SAT core
plus **one bounded retry**; a spent deadline is the solver's answer,
``unknown`` with ``timed_out``, so a timed-out-twice obligation reports
it instead of wedging the run, and a task whose lookup or run raises
reports ``unknown`` with ``worker_error``.  A worker that dies,
busy or idle, reads as EOF on its result pipe (or breaks its task pipe
when a task is sent to it): its in-flight task is requeued, or reported
``worker died`` once its retries are spent, and the worker is replaced
by a fresh process on fresh pipes.  A periodic liveness check backs
this up for a death that leaves a pipe open (another process forked
while one of its ends was open).  Should the dispatcher thread itself
raise, every pending task is reported ``unknown`` with ``worker_error``
(a call with ``_CallError``) and the scheduler closes, so the next
:func:`get_scheduler` builds a fresh one instead of leaving tickets to
wait forever.

``jobs=1`` is the same policy with one worker: :class:`InlineScheduler`
runs the queue in the calling thread, with no processes and no
dispatcher thread, and makes the same lookup before it runs a miss.
Worker processes and the inline scheduler run each miss through one
executor (:func:`_execute`), so lookups, pieces, retries, crash
capture, reduction and telemetry exist once, and both return
``RunnerStats`` (queue depth, retries, timeouts, per-worker
utilization, which counts worker runs only), which flows through
``ProofResult.stats`` into the ``BENCH_runner.json`` artifact.  An
obligation's own ``stats`` are its answer's provenance and time; what
its solve cost is recorded only inside a tracing session (the ``sat.*``
and ``bitblast.*`` counters, which a traced worker's snapshot carries
back to the parent's session).
"""

from __future__ import annotations

import atexit
from collections import deque
import multiprocessing
from multiprocessing.connection import wait as wait_pipes
from multiprocessing.reduction import ForkingPickler
import os
import threading
import time
import traceback

from ..obs import (
    current_trace,
    event as obs_event,
    get_collector,
    observe as obs_observe,
    trace_context,
    tracing,
)
from ..smt.solver import reset_incremental_session
from .runner import (
    ObligationResult,
    RunnerStats,
    Split,
    UNKNOWN,
    _check_obligation,
    _lookup_obligation,
    _memoize,
    default_jobs,
)

__all__ = [
    "InlineScheduler",
    "ObligationScheduler",
    "get_scheduler",
    "peek_scheduler",
    "shutdown_scheduler",
]

# Set in worker processes so nested verification work never tries to
# spawn grandchild processes (daemonic workers cannot fork).
_WORKER_ENV = "REPRO_SCHEDULER_WORKER"

# The inline scheduler's one worker, the calling thread, and its track.
_MAIN = "main"


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
        "parent",
        "slot",
        "split",
        "piece_results",
        "ran",
        "key",
        "waiters",
    )

    def __init__(self, tid, kind, payload, ticket, index, max_attempts, name, parent=None, slot=0):
        self.tid = tid
        self.kind = kind  # "ob" | "call"
        self.payload = payload
        self.ticket = ticket
        self.index = index  # a piece shares its obligation's index
        self.attempts = 0
        self.max_attempts = max_attempts
        self.name = name
        self.queued_t = time.perf_counter()
        # A piece: the obligation task it belongs to, and its slot there
        # (a piece is an "ob" task whose obligation the split derived).
        self.parent = parent
        self.slot = slot
        # An obligation answered by pieces: its Split, the results by
        # slot, and (wid, start, elapsed, snap) of the run that split it.
        self.split = None
        self.piece_results = None
        self.ran = None
        # An obligation its lookup missed: its (digest, var_map), which
        # the executor takes, and the misses with the same answer parked
        # behind it until it is finalized.
        self.key = None
        self.waiters: list[_Task] = []

    @property
    def ids(self) -> tuple[str, str] | None:
        """The ``(trace_id, ob_id)`` its run is bound to, or None."""
        trace_id = self.ticket.trace_id
        return None if trace_id is None else (trace_id, f"{trace_id}.{self.index}")

    @property
    def answer(self) -> tuple:
        """What a miss's result answers: its digest, the store it is
        recorded in and its budget (``max_conflicts``, ``timeout_s``).
        A miss parks only behind a task with the same answer: one whose
        result its own lookup will read, from a run it would have made
        itself."""
        return (self.key[0], *self.payload[1:])

    @property
    def args(self) -> tuple:
        """What the executor runs: a call's ``(fn, item)``, or an
        obligation's payload and the key its lookup found."""
        return self.payload if self.kind == "call" else (*self.payload, *self.key)


class _Ticket:
    """One submission's rendezvous point and per-run telemetry.

    A ticket traces exactly when a tracing session was open at
    submission: then ``trace`` is set, workers run each task inside
    their own session and ship the span/counter/region snapshot back
    with the result, and ``obs`` collects those ``(wid, snapshot)``
    envelopes (an inline task records straight into the session).
    ``timeline`` holds the queued/start/end record of each submitted
    task, by submission order, either way (an obligation its pieces
    decided adds ``verdict_s``, its time to verdict), and
    ``piece_timeline`` those of the pieces, in finishing order.  The
    first ``wait()`` that sees the ticket complete folds the envelopes,
    and one ``scheduler`` span per task and piece (on its worker's
    track; ``main`` for an inline task and for a hit answered at
    dispatch), into that session's collector.
    ``results`` and ``on_result`` see submitted obligations only, never
    a piece.

    ``job`` is an opaque caller tag (the serving layer uses its job id)
    so concurrent submissions can be told apart in telemetry, and
    ``on_result`` — when set — is invoked as ``on_result(index, result)``
    each time a task finalizes.  The callback runs while the scheduler
    lock is held, on whichever thread finalized the task: the
    dispatcher thread for a worker's result, a submitting thread for a
    hit answered where it was dispatched (possibly before
    ``submit_obligations`` returns).  It must be fast and must never
    call back into the scheduler (stash the result and notify a
    condition instead).
    """

    def __init__(
        self,
        count: int,
        job: str | None = None,
        on_result=None,
        trace_id: str | None = None,
    ):
        self.results: list = [None] * count
        self.pending = count
        self.done = 0
        self.event = threading.Event()
        # The session to fold the worker trace into; cleared once folded.
        self._collector = get_collector()
        self._fold_lock = threading.Lock()
        self.trace = self._collector is not None
        self.job = job
        self.trace_id = trace_id
        self.on_result = on_result
        self.cancelled = False
        self.obs: list = []
        self.timeline: list = [None] * count
        self.piece_timeline: list = []
        self.retries = 0
        self.timeouts = 0
        self.busy_s = 0.0
        self.max_depth = 0

    def wait(self, timeout: float | None = None) -> list:
        if self.event.wait(timeout) and self._collector is not None:
            self._collect_trace()
        return self.results

    def _collect_trace(self) -> None:
        """Absorb the worker envelopes into the submitter's collector,
        and lay down one ``scheduler``-category span per task (its
        solving interval, on its worker's track).  Runs once."""
        with self._fold_lock:
            col, self._collector = self._collector, None
        if col is None:
            return
        for wid, snap in list(self.obs):
            col.absorb(snap, tid=f"worker-{wid}")
        for entry in [e for e in self.timeline if e is not None] + list(self.piece_timeline):
            args = {
                "queued_s": entry["start_t"] - entry["queued_t"],
                "attempts": entry["attempts"],
                "worker": entry["wid"],
            }
            if self.trace_id is not None:
                args["trace_id"] = self.trace_id
                args["ob_id"] = f"{self.trace_id}.{entry['index']}"
            if entry["status"] is not None:
                args["status"] = entry["status"]
            if "verdict_s" in entry:
                args["verdict_s"] = entry["verdict_s"]
            wid = entry["wid"]
            col.add_span(
                entry["name"],
                "scheduler",
                _MAIN if wid == _MAIN else f"worker-{wid}",
                entry["start_t"],
                entry["end_t"] - entry["start_t"],
                args,
            )

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
        return _check_obligation(*payload)
    fn, item = payload
    return fn(item)


def _execute(kind: str, payload, trace: bool, ids, catch=Exception) -> tuple:
    """Run one task: ``(result, elapsed, start, snapshot)``.

    The one task executor, for worker processes and the inline
    scheduler alike.  A task that raises ``catch`` is reported as a
    result (``unknown`` with ``worker_error`` for an obligation), so the
    scheduler, not the executor, decides what to do about it.

    With ``trace`` set (a worker whose parent traces) the task runs
    inside its own obs tracing session, and the serialized snapshot
    (spans, counters, §3.2 region rows) is returned with the result;
    otherwise it records into whatever session is active.
    ``time.perf_counter()`` is machine-wide on Linux, so a worker's span
    timestamps land directly on the parent's timeline.
    """
    trace_id, ob_id = ids if ids is not None else (None, None)
    start = time.perf_counter()
    snap = None
    try:
        # Bind the correlation ids around the whole solve so every span
        # recorded below — and every remote-store request the cache
        # makes — carries the submitting job's trace_id.
        with trace_context(trace_id, ob_id):
            if trace:
                with tracing(absorb=False) as col:
                    result = _run_task(kind, payload)
                snap = col.snapshot()
            else:
                result = _run_task(kind, payload)
    except catch as exc:
        # A crash may have left the incremental SAT session
        # mid-mutation; drop it so the next task starts clean.
        reset_incremental_session()
        if kind != "call":
            result = ObligationResult(payload[0].name, UNKNOWN, stats={"worker_error": repr(exc)})
        else:
            result = _CallError(repr(exc))
    return result, time.perf_counter() - start, start, snap


def _worker_main(tasks, results) -> None:
    """Worker process loop: read a task from its own task pipe,
    :func:`_execute` it, write the reply to its own result pipe, repeat
    until ``None`` or EOF.  Never raises out of a task: it catches even
    ``SystemExit`` and ``KeyboardInterrupt``."""
    os.environ[_WORKER_ENV] = "1"
    while True:
        try:
            msg = tasks.recv()
        except EOFError:
            return
        if msg is None:
            return
        tid, kind, payload, trace, ids = msg
        results.send((tid, *_execute(kind, payload, trace, ids, BaseException)))


class _Worker:
    """A pool process, and the parent's ends of its two pipes: ``tasks``
    to send it work, ``results`` to read its replies."""

    __slots__ = ("wid", "process", "tasks", "results")

    def __init__(self, wid):
        self.wid = wid
        self.process = self.tasks = self.results = None


def _error_result(task: "_Task", message: str):
    """What a task reports when it could not run to a result."""
    if task.kind != "call":
        return ObligationResult(task.name, UNKNOWN, stats={"worker_error": message})
    return _CallError(message)


class ObligationScheduler:
    """The process-wide scheduler: persistent pool + one FIFO queue.

    Use :func:`get_scheduler` rather than constructing one per call —
    sharing the pool across calls is the point.
    """

    def __init__(self, workers: int = 0):
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._idle: set[int] = set()
        self._inflight: dict[int, int] = {}  # wid -> tid
        self._tasks: dict[int, _Task] = {}
        self._queue: deque[int] = deque()  # tids waiting for a worker
        # A miss's answer (_Task.answer) -> the task answering it: a
        # miss with the same answer parks behind that task instead of
        # being solved twice.
        self._solving: dict[tuple, _Task] = {}
        self._next_tid = 0
        # Pipe ends of replaced workers, closed by the dispatcher thread
        # once it no longer waits on them.
        self._retired: list = []
        self.closed = False
        # Process-lifetime counters (per-run numbers live on tickets).
        self.retries = 0
        self.timeouts = 0
        self.worker_restarts = 0
        self.max_queue_depth = 0
        self._start(workers)

    # -- pool management -------------------------------------------------

    def _start(self, workers: int) -> None:
        """Fork the pool (``0``: one worker per core) and start the
        dispatcher thread."""
        self._ctx = _pool_context()
        for _ in range(workers or default_jobs()):
            self._spawn_worker()
        self._dispatcher = threading.Thread(
            target=self._loop, name="obligation-scheduler", daemon=True
        )
        self._dispatcher.start()

    def _spawn_worker(self) -> None:
        worker = _Worker(len(self._workers))
        self._workers.append(worker)
        self._fork(worker)
        self._idle.add(worker.wid)

    def _fork(self, worker: _Worker) -> None:
        """Start ``worker``'s process on two fresh one-way pipes."""
        task_reader, task_writer = self._ctx.Pipe(duplex=False)
        result_reader, result_writer = self._ctx.Pipe(duplex=False)
        worker.process = self._ctx.Process(
            target=_worker_main, args=(task_reader, result_writer), daemon=True
        )
        worker.process.start()
        # The child holds its ends now.  Without ours, its death reads
        # as EOF on the result pipe and as a broken task pipe.
        task_reader.close()
        result_writer.close()
        worker.tasks, worker.results = task_writer, result_reader

    def _respawn(self, worker: _Worker) -> None:
        self.worker_restarts += 1
        if worker.process.is_alive():
            worker.process.kill()  # a live process whose pipe broke
        worker.process.join(timeout=1.0)
        self._retired += [worker.tasks, worker.results]
        self._fork(worker)

    def grow(self, extra: int) -> None:
        """Add workers (the pool only ever grows; idle workers block on
        their task pipe and cost nothing)."""
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
                    worker.tasks.send(None)
                except OSError:
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
        return self._submit(specs, retries, job=job, on_result=on_result, trace_id=trace_id)

    def submit_calls(self, fn, items, retries: int = 0) -> _Ticket:
        """Queue generic ``fn(item)`` tasks (the JIT-sweep shape)."""
        specs = [("call", (fn, item), f"{getattr(fn, '__name__', 'call')}[{i}]") for i, item in enumerate(items)]
        return self._submit(specs, retries)

    def _submit(self, specs, retries: int, job=None, on_result=None, trace_id=None) -> _Ticket:
        if trace_id is None:
            trace_id = current_trace()[0]
        ticket = _Ticket(len(specs), job=job, on_result=on_result, trace_id=trace_id)
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
        """Hand the head of the queue to each idle worker, from the
        calling thread: an obligation is looked up first
        (:meth:`_look_up`), and only a miss goes down a worker's task
        pipe, with its key."""
        while self._idle and self._queue:
            task = self._tasks[self._queue.popleft()]
            if task.kind == "ob" and self._look_up(task) is None:
                continue
            try:
                message = ForkingPickler.dumps(
                    (task.tid, task.kind, task.args, task.ticket.trace, task.ids)
                )
            except Exception as exc:  # an unpicklable task reaches no worker
                self._finalize(task, _error_result(task, repr(exc)))
                continue
            worker = self._workers[min(self._idle)]
            try:
                worker.tasks.send_bytes(message)
            except OSError:
                # The worker is gone: the task never reached it.
                self._queue.appendleft(task.tid)
                self._worker_died(worker)
                continue
            self._idle.discard(worker.wid)
            self._inflight[worker.wid] = task.tid

    def _look_up(self, task: _Task) -> float | None:
        """The dispatch step of an obligation task (a whole, a piece or a
        retry): look it up in this machine's verdict tier, in the thread
        that hands it out.  Returns the lookup's start when it missed and
        is to run now, with its key set.  Otherwise None: a hit, or a
        lookup that raised, went through :meth:`_handle_result` as a
        result on track ``main``, or a miss whose answer
        (:attr:`_Task.answer`) another task is making was parked behind
        that task."""
        start = time.perf_counter()
        obligation, cache_dir = task.payload[:2]
        trace_id, ob_id = task.ids or (None, None)
        try:
            with trace_context(trace_id, ob_id):
                found = _lookup_obligation(obligation, cache_dir)
        except Exception as exc:  # a lookup that raises is the task's result
            found = _error_result(task, repr(exc))
        if isinstance(found, ObligationResult):
            self._handle_result(_MAIN, task, found, time.perf_counter() - start, start, None)
            return None
        task.key = found
        holder = self._solving.setdefault(task.answer, task)
        if holder is not task:
            holder.waiters.append(task)
            return None
        return start

    def _drop(self, task: _Task) -> None:
        """Forget a task.  If it was making an answer, the tasks parked
        behind it go back to the head of the queue, in order, to be
        looked up again: they hit now, or the first of them is solved."""
        del self._tasks[task.tid]
        if task.key is not None and self._solving.get(task.answer) is task:
            del self._solving[task.answer]
            if task.waiters:
                self._queue.extendleft(reversed([t.tid for t in task.waiters]))
                self._note_depth()

    def _finalize(
        self,
        task: _Task,
        result,
        wid: int | None = None,
        start: float | None = None,
        elapsed: float = 0.0,
        snap: dict | None = None,
        to_verdict: float | None = None,
    ) -> None:
        """Deliver ``task``'s result.  ``start``/``elapsed`` are its run
        on worker ``wid``; for an obligation its pieces decided,
        ``to_verdict`` is the time from that start to its verdict."""
        self._drop(task)
        ticket = task.ticket
        ob_id = f"{ticket.trace_id}.{task.index}" if ticket.trace_id else None
        if snap is not None:
            ticket.obs.append((wid, snap))
        if wid is not None and start is not None:
            wall = elapsed if to_verdict is None else to_verdict
            record = {
                "name": task.name,
                "index": task.index,
                "status": result.status if isinstance(result, ObligationResult) else None,
                "queued_t": task.queued_t,
                "start_t": start,
                "end_t": start + elapsed,
                "wid": wid,
                "attempts": task.attempts + 1,
            }
            if to_verdict is not None:
                record["verdict_s"] = to_verdict
            if task.parent is None:
                ticket.timeline[task.index] = record
            else:
                ticket.piece_timeline.append(record)
            # Latency histograms go to the process-global collector (the
            # daemon's process-lifetime session): how long every task sat
            # queued before a worker took it, and the wall time of each
            # submitted obligation (a split one's time to verdict).
            obs_observe("obligation.queue_wait_seconds", max(0.0, start - task.queued_t))
            if task.kind == "ob" and task.parent is None:
                obs_observe("obligation.wall_seconds", wall)
                status = result.status if isinstance(result, ObligationResult) else "?"
                obs_event(
                    "info",
                    "obligation.done",
                    trace_id=ticket.trace_id,
                    ob_id=ob_id,
                    name=task.name,
                    status=status,
                    wall_s=wall,
                    worker=wid,
                    job=ticket.job,
                )
        if task.parent is not None:
            self._piece_done(task, result)
            return
        ticket.results[task.index] = result
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

    # -- piece obligations -------------------------------------------------

    def _split(self, task: _Task, split: Split, ran: tuple) -> None:
        """Queue one task per piece of ``split`` at the head of the
        queue, in order; ``task`` waits, off the queue, for them."""
        task.split, task.ran = split, ran
        task.piece_results = [None] * len(split.pieces)
        _obligation, cache_dir, max_conflicts, timeout_s = task.payload
        tids = []
        for slot, piece in enumerate(split.pieces):
            tid = self._next_tid
            self._next_tid += 1
            self._tasks[tid] = _Task(
                tid,
                "ob",
                (piece, cache_dir, max_conflicts, timeout_s),
                task.ticket,
                task.index,
                task.max_attempts,
                piece.name,
                parent=task,
                slot=slot,
            )
            tids.append(tid)
        self._queue.extendleft(reversed(tids))
        self._note_depth()

    def _piece_done(self, piece: _Task, result) -> None:
        """Slot a piece's result into its obligation, and finalize the
        obligation once its pieces decide it."""
        whole = piece.parent
        if whole.tid not in self._tasks:
            return  # decided or cancelled while this piece ran
        whole.piece_results[piece.slot] = result
        verdict = whole.split.verdict(whole.piece_results)
        if verdict is None:
            return
        # Its other waiting pieces can no longer change the verdict;
        # those on a worker finish unseen.
        for task in self._unqueue(lambda t: t.parent is whole):
            self._drop(task)
        # Recorded where dispatch looks it up: the store, or this
        # process's session memo.
        if verdict.proved:
            try:
                whole.split.record(whole.payload[1])
            except Exception as exc:  # the dispatcher must survive a failed write
                obs_event("warn", "split.record.failed", name=whole.name, error=repr(exc))
        self._finalize_whole(whole, verdict)

    def _finalize_whole(self, whole: _Task, result) -> None:
        """Finalize an obligation that waited on its pieces.  Its row
        stays its own run, which only derived the pieces (its worker was
        free while they ran); its wall time in ``obligation.wall_seconds``
        and ``obligation.done`` is its time to verdict, pieces included."""
        wid, start, elapsed, snap = whole.ran
        self._finalize(whole, result, wid, start, elapsed, snap, time.perf_counter() - start)

    def _cancelled_result(self, task: _Task):
        if task.kind != "call":
            return ObligationResult(task.name, UNKNOWN, stats={"cancelled": True})
        return _CallError("cancelled")

    def _unqueue(self, selected) -> list[_Task]:
        """Take the waiting tasks ``selected(task)`` picks: those on the
        queue, and those parked behind a task with the same answer."""
        queued = [t for t in map(self._tasks.get, self._queue) if t is not None]
        self._queue = deque(t.tid for t in queued if not selected(t))
        taken = [t for t in queued if selected(t)]
        for holder in self._solving.values():
            taken += [t for t in holder.waiters if selected(t)]
            holder.waiters = [t for t in holder.waiters if not selected(t)]
        return taken

    def cancel(self, ticket: _Ticket) -> int:
        """Cancel a submission: tasks still queued or parked are
        finalized as ``unknown`` with ``stats["cancelled"]`` set, and so
        is every obligation waiting on pieces (its waiting pieces are
        dropped); tasks already on a worker run to completion (their
        per-obligation timeout still applies) but are never retried.
        Returns the number of obligations finalized as cancelled.
        Idempotent; the ticket's ``wait()`` returns once in-flight
        obligations drain.
        """
        with self._lock:
            if ticket.cancelled:
                return 0
            ticket.cancelled = True
            cancelled = 0
            for task in self._unqueue(lambda t: t.ticket is ticket):
                if task.parent is None:
                    self._finalize(task, self._cancelled_result(task))
                    cancelled += 1
                else:
                    self._drop(task)
            waiting = [t for t in self._tasks.values() if t.ticket is ticket and t.split]
            for whole in waiting:
                self._finalize_whole(whole, self._cancelled_result(whole))
                cancelled += 1
            # Tasks of other tickets parked behind a finalized one are
            # queued again.
            self._feed_idle()
            return cancelled

    def _requeue(self, wid: int, task: _Task) -> None:
        task.attempts += 1
        self.retries += 1
        task.ticket.retries += 1
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
        """Run :meth:`_step` until the scheduler closes.  An exception in
        a step fails every pending task and closes the scheduler
        (:meth:`_abandon`), so no ticket waits on a thread that is gone."""
        while True:
            try:
                if not self._step():
                    return
            except Exception as exc:
                self._abandon(exc)
                return

    def _step(self) -> bool:
        """Read every worker's result pipe, for up to 0.2 s; a pipe at
        EOF is a dead worker, and after 0.2 s with no reply each worker
        is checked for life.  Then feed the idle workers.  False once
        the scheduler is closed."""
        with self._lock:
            if self.closed:
                return False
            for conn in self._retired:
                conn.close()
            self._retired.clear()
            pipes = {worker.results: worker for worker in self._workers}
        ready = wait_pipes(list(pipes), timeout=0.2)
        with self._lock:
            if self.closed:
                return False
            for conn in ready:
                worker = pipes[conn]
                if conn is not worker.results:
                    continue  # replaced while we waited
                try:
                    tid, result, elapsed, start, snap = conn.recv()
                except (EOFError, OSError):
                    self._worker_died(worker)
                    continue
                self._inflight.pop(worker.wid, None)
                self._idle.add(worker.wid)
                task = self._tasks.get(tid)
                # None: finalized meanwhile (a piece whose obligation
                # its other pieces decided).
                if task is not None:
                    task.ticket.busy_s += elapsed
                    if task.kind == "ob":
                        # Where dispatch looks its repeats up.
                        _memoize(result, task.payload[1], *task.key)
                    self._handle_result(worker.wid, task, result, elapsed, start, snap)
            if not ready:
                self._check_workers()
            self._feed_idle()
        return True

    def _abandon(self, exc: Exception) -> None:
        """The dispatcher thread is ending on ``exc``: finalize every
        pending task with it (``unknown`` with ``worker_error``, or a
        ``_CallError``) and close the scheduler, so that
        :func:`get_scheduler` builds a fresh one."""
        obs_event("error", "scheduler.failed", error=repr(exc), traceback=traceback.format_exc())
        with self._lock:
            for task in list(self._tasks.values()):
                if task.parent is None:
                    self._finalize(task, _error_result(task, repr(exc)))
                else:
                    self._drop(task)
        self.shutdown()

    def _handle_result(
        self, wid: int, task: _Task, result, elapsed: float, start: float, snap: dict | None
    ) -> None:
        if isinstance(result, Split):
            if not task.ticket.cancelled:
                self._split(task, result, (wid, start, elapsed, snap))
                return
            result = self._cancelled_result(task)
        if task.ticket.cancelled:
            # No retry budget for a cancelled job; report what we got.
            self._finalize(task, result, wid=wid, start=start, elapsed=elapsed, snap=snap)
            return
        if task.kind != "call":
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
            if not worker.process.is_alive():
                self._worker_died(worker)

    def _worker_died(self, worker: _Worker) -> None:
        """Requeue or finalize the task a dead worker held, and replace
        the worker with a fresh process on fresh pipes."""
        obs_event("error", "worker.died", worker=worker.wid)
        task = self._tasks.get(self._inflight.pop(worker.wid, None))
        if task is not None:
            if task.ticket.cancelled:
                self._finalize(task, self._cancelled_result(task))
            elif task.attempts + 1 < task.max_attempts:
                self._requeue(worker.wid, task)
            else:
                self._finalize(task, _error_result(task, "worker died"))
        self._respawn(worker)
        self._idle.add(worker.wid)

    # -- high-level entry points ----------------------------------------

    def run(
        self,
        obligations,
        cache_dir: str | None = None,
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        jobs_hint: int | None = None,
    ) -> tuple[list[ObligationResult], RunnerStats]:
        """Submit, wait, and reduce — the ``run_obligations`` shape.

        ``jobs_hint`` is what the caller asked for; it is reported as
        ``stats.jobs`` even though the whole pool participates.
        """
        start = time.perf_counter()
        ticket = self.submit_obligations(
            obligations,
            cache_dir=cache_dir,
            max_conflicts=max_conflicts,
            timeout_s=timeout_s,
            retries=retries,
        )
        results = ticket.wait()
        wall = time.perf_counter() - start
        workers = len(self._workers)
        stats = RunnerStats(
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

    def map(self, fn, items) -> list:
        """Order-preserving parallel map over the shared pool.

        Raises ``RuntimeError`` if ``fn`` raised in a worker (after the
        worker-death retry budget), mirroring ``Pool.map``.
        """
        results = self.submit_calls(fn, list(items)).wait()
        for result in results:
            if isinstance(result, _CallError):
                raise RuntimeError(f"scheduler map task failed: {result.message}")
        return results


class InlineScheduler(ObligationScheduler):
    """The scheduler with one worker, the calling thread: ``jobs=1``.

    No processes and no dispatcher thread: a submission runs its queue
    to the end before it returns, each obligation looked up as the
    pool's dispatch does and each miss run through the executor the
    pool's workers use, so lookups, pieces, retries, crash capture,
    reduction and telemetry are the pool's.  Tasks record straight into the
    caller's tracing session, and their ``scheduler`` spans go on the
    ``main`` track.  ``KeyboardInterrupt`` and ``SystemExit`` reach the
    caller.  One is made per batch; it holds no state between runs.
    """

    def _start(self, workers: int) -> None:
        pass

    def _feed_idle(self) -> None:
        """Run the head of the queue now, until the queue is empty: an
        obligation is looked up (:meth:`_look_up`) and a miss is run
        through the executor, under one ``scheduler`` span."""
        while self._queue:
            task = self._tasks[self._queue.popleft()]
            start = time.perf_counter()
            if task.kind == "ob":
                start = self._look_up(task)
                if start is None:
                    continue
            result, elapsed, _, _ = _execute(task.kind, task.args, False, task.ids)
            task.ticket.busy_s += elapsed
            self._handle_result(_MAIN, task, result, time.perf_counter() - start, start, None)


# ---------------------------------------------------------------------------
# The process-wide instance

_GLOBAL: ObligationScheduler | None = None
_GLOBAL_LOCK = threading.Lock()


def in_worker() -> bool:
    """True inside a scheduler worker process (nested batches run
    inline there; daemonic workers cannot fork)."""
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
