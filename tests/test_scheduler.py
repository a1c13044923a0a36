"""The obligation scheduler (``repro.core.scheduler``).

The contract under test is the one CI relies on: scheduling is an
implementation detail.  However obligations are interleaved across
workers, timed out, and retried, the verdicts — and the first failing
obligation — must be exactly the sequential baseline's.
"""

import threading
import time

import pytest

from repro import obs
from repro.core.runner import Obligation, reduce_results, run_obligations
from repro.core.scheduler import ObligationScheduler, get_scheduler, in_worker, peek_scheduler
from repro.smt import bv_sort, fresh_var, mk_bv, mk_bvadd, mk_bvand, mk_bvmul, mk_bvxor, mk_eq, mk_ule


def _obligation_set():
    """A mixed batch: provable goals that reach the SAT core, plus two
    known failures (indices 3 and 6) so first-failure is exercised."""
    obligations = []
    for i in range(8):
        x = fresh_var("x", bv_sort(8))
        y = fresh_var("y", bv_sort(8))
        if i in (3, 6):
            # not valid: the negation (x != 5) is satisfiable.
            goal = mk_eq(x, mk_bv(5, 8))
        else:
            # valid, but not constant-folded at construction: the
            # masked value is bounded by the mask, and xor cancels.
            goal = mk_eq(
                mk_bvxor(mk_bvxor(x, y), y),
                mk_bvand(x, mk_bv(0xFF, 8)),
            )
            if i % 2:
                goal = mk_ule(mk_bvand(x, mk_bv(0x0F, 8)), mk_bv(0x0F, 8))
        obligations.append(Obligation.from_terms(f"ob{i}", [goal]))
    return obligations


class TestDeterminism:
    def test_verdicts_stable_across_fresh_schedulers(self):
        """Ten fresh two-worker schedulers (whose workers interleave
        differently from run to run) must all reproduce the sequential
        verdicts in order, including the same first failure."""
        obligations = _obligation_set()
        seq_results, _ = run_obligations(obligations, jobs=1)
        seq_verdicts = [r.status for r in seq_results]
        assert seq_verdicts.count("failed") == 2
        seq_first = reduce_results(seq_results)
        assert seq_first is not None and seq_first.name == "ob3"

        for run in range(10):
            sched = ObligationScheduler(workers=2)
            try:
                results, stats = sched.run(obligations, jobs_hint=2)
            finally:
                sched.shutdown()
            assert [r.status for r in results] == seq_verdicts, f"run {run}"
            assert [r.name for r in results] == [ob.name for ob in obligations]
            first = reduce_results(results)
            assert first is not None and first.name == "ob3", f"run {run}"
            assert stats.obligations == len(obligations)

    def test_run_obligations_routes_to_shared_pool(self):
        """jobs>1 uses the process-wide scheduler and reports
        scheduler telemetry in the stats."""
        obligations = _obligation_set()
        results, stats = run_obligations(obligations, jobs=2)
        assert [r.status for r in results] == [
            r.status for r in run_obligations(obligations, jobs=1)[0]
        ]
        assert stats.jobs == 2
        assert stats.as_dict()["pool_workers"] >= 2
        # The pool persists: a second call reuses it (no respawn).
        pool = get_scheduler()
        size_before = pool.pool_size
        run_obligations(obligations, jobs=2)
        assert pool.pool_size == size_before

    def test_not_in_worker_in_parent(self):
        assert not in_worker()


def _hard_obligations():
    x = fresh_var("x", bv_sort(32))
    hard = []
    for offset in (3, 5):
        goal = mk_eq(mk_bvmul(x, x), mk_bvadd(x, mk_bv(offset, 32)))
        # The negation (x*x != x+offset) needs a real SAT search.
        hard.append(Obligation.from_terms(f"hard{offset}", [goal]))
    return hard


class TestTimeouts:
    def test_timeout_retries_then_unknown(self):
        """A diverging query is interrupted mid-solve, retried once,
        and reduced as unknown — never a wrong verdict."""
        hard = _hard_obligations()
        sched = ObligationScheduler(workers=2)
        try:
            results, stats = sched.run(hard, timeout_s=0.001, retries=1, jobs_hint=2)
        finally:
            sched.shutdown()
        assert all(r.status == "unknown" for r in results)
        assert all(r.stats.get("timed_out") for r in results)
        assert stats.retries == len(hard)  # one bounded retry each
        assert stats.timeouts == 2 * len(hard)  # initial attempt + retry

    def test_inline_run_retries_a_timeout(self):
        """``jobs=1`` is the same policy with the calling thread as the
        one worker: each timed-out goal is retried once, as on the pool."""
        results, stats = run_obligations(_hard_obligations(), jobs=1, timeout_s=0.001, retries=1)
        assert [(r.status, r.stats.get("timed_out")) for r in results] == [("unknown", True)] * 2
        assert (stats.retries, stats.timeouts) == (2, 4)

    def test_no_timeout_when_budget_sufficient(self):
        x = fresh_var("x", bv_sort(8))
        goal = mk_ule(mk_bvand(x, mk_bv(0x0F, 8)), mk_bv(0x0F, 8))
        ob = Obligation.from_terms("easy", [goal])
        results, stats = run_obligations([ob, ob], jobs=2, timeout_s=30.0)
        assert all(r.status == "proved" for r in results)
        assert stats.as_dict().get("timeouts", 0) == 0


def _slow_obligation(name: str, bits: int = 12) -> Obligation:
    """The ring identity (x+1)(y+1) == xy+x+y+1: survives construction-
    time rewriting and is slow enough at 12 bits that it only ends via
    its per-obligation timeout — a reliably in-flight task."""
    x = fresh_var("sx", bv_sort(bits))
    y = fresh_var("sy", bv_sort(bits))
    one = mk_bv(1, bits)
    lhs = mk_bvmul(mk_bvadd(x, one), mk_bvadd(y, one))
    rhs = mk_bvadd(mk_bvadd(mk_bvmul(x, y), mk_bvadd(x, y)), one)
    return Obligation.from_terms(name, [mk_eq(lhs, rhs)])


class TestCancellation:
    def test_cancel_drops_queued_finishes_inflight(self):
        """With one worker, task 0 is in flight and the rest are queued:
        cancel() finalizes the queued tasks as ``cancelled`` instantly,
        and the in-flight task ends at its timeout without a retry."""
        obligations = [_slow_obligation(f"slow{i}") for i in range(6)]
        sched = ObligationScheduler(workers=1)
        try:
            ticket = sched.submit_obligations(obligations, timeout_s=1.0)
            dropped = sched.cancel(ticket)
            assert dropped == len(obligations) - 1  # all but the in-flight one
            assert ticket.cancelled

            # The queued tasks are already finalized, before wait().
            for result in ticket.results[1:]:
                assert result.status == "unknown"
                assert result.stats.get("cancelled") is True

            results = ticket.wait(timeout=30.0)
            progress = ticket.progress()
            assert progress["done"] == len(obligations)
            assert progress["pending"] == 0
            # The in-flight obligation reported its timeout, un-retried.
            assert results[0].status == "unknown"
            assert results[0].stats.get("timed_out")
            assert progress["retries"] == 0

            # Idempotent: a second cancel finds nothing left to drop.
            assert sched.cancel(ticket) == 0
        finally:
            sched.shutdown()

    def test_cancel_empty_after_completion(self):
        """Cancelling a ticket whose work already finished drops nothing
        and does not disturb the recorded results."""
        obligations = _obligation_set()
        sched = ObligationScheduler(workers=2)
        try:
            ticket = sched.submit_obligations(obligations)
            results = ticket.wait(timeout=60.0)
            statuses = [r.status for r in results]
            assert sched.cancel(ticket) == 0
            assert [r.status for r in ticket.results] == statuses
        finally:
            sched.shutdown()


class TestStreaming:
    def test_on_result_streams_every_verdict(self):
        """on_result fires exactly once per obligation, with the index
        and result that land in the ticket's reduction slot."""
        obligations = _obligation_set()
        seen = []
        lock = threading.Lock()

        def on_result(index, result):
            with lock:
                seen.append((index, result.status))

        sched = ObligationScheduler(workers=2)
        try:
            ticket = sched.submit_obligations(
                obligations, job="job-under-test", on_result=on_result
            )
            results = ticket.wait(timeout=60.0)
        finally:
            sched.shutdown()
        assert ticket.job == "job-under-test"
        assert sorted(index for index, _ in seen) == list(range(len(obligations)))
        assert dict(seen) == {i: r.status for i, r in enumerate(results)}

    def test_progress_reaches_total(self):
        obligations = _obligation_set()
        sched = ObligationScheduler(workers=2)
        try:
            ticket = sched.submit_obligations(obligations)
            deadline = time.monotonic() + 60.0
            while ticket.progress()["pending"] and time.monotonic() < deadline:
                time.sleep(0.01)
            progress = ticket.progress()
        finally:
            sched.shutdown()
        assert progress["total"] == len(obligations)
        assert progress["done"] == len(obligations)
        assert not progress["cancelled"]


class TestQueue:
    def test_one_worker_starts_tasks_in_submission_order(self):
        """One FIFO queue: a single worker starts every task of the
        first ticket, in order, before any task of the second."""
        sched = ObligationScheduler(workers=1)
        try:
            first = sched.submit_obligations(_obligation_set())
            second = sched.submit_obligations(_obligation_set())
            first.wait(timeout=60.0)
            second.wait(timeout=60.0)
        finally:
            sched.shutdown()
        starts = [entry["start_t"] for entry in first.timeline + second.timeline]
        assert len(starts) == 16
        assert starts == sorted(starts)

    def test_submission_raises_depth_of_live_ticket(self):
        """Queue depth is recorded where the queue grows, on every live
        ticket: a second submission raises the first ticket's depth
        while the first ticket's task is still in flight."""
        sched = ObligationScheduler(workers=1)
        try:
            first = sched.submit_obligations([_slow_obligation("slow")], timeout_s=1.0, retries=0)
            assert first.max_depth == 1
            second = sched.submit_obligations(_obligation_set()[:5])
            assert first.pending == 1
            assert first.max_depth == second.max_depth == 5
            first.wait(timeout=30.0)
            second.wait(timeout=30.0)
        finally:
            sched.shutdown()
        assert sched.max_queue_depth == 5


class TestTracing:
    def test_submission_under_session_folds_worker_trace(self):
        """A bare submission made while a session is open is traced:
        waiting on it leaves one scheduler span per obligation, each on
        its worker's track, and the workers' solver counters."""
        obligations = _obligation_set()
        sched = ObligationScheduler(workers=2)
        try:
            with obs.tracing() as col:
                sched.submit_obligations(obligations).wait(timeout=60.0)
        finally:
            sched.shutdown()
        spans = [e for e in col.spans if e.cat == "scheduler"]
        assert sorted(e.name for e in spans) == [ob.name for ob in obligations]
        assert all(e.tid.startswith("worker-") for e in spans)
        assert col.counters["solver.queries"] == len(obligations)


class TestOneDispatcher:
    def test_malformed_payload_reduces_alike_at_every_jobs(self):
        """A payload ``from_json`` accepts but no worker can rebuild (sort
        tag ``zz``) is an ``unknown`` verdict with ``worker_error`` at
        every ``jobs``; the batch's other verdicts are unaffected."""
        x = fresh_var("x", bv_sort(8))
        batch = [
            Obligation.from_terms("valid", [mk_eq(x, mk_bv(5, 8))]),
            Obligation.from_json(
                {
                    "name": "malformed",
                    "payload": {"nodes": [["var", "zz", [], "y"], ["not", "b", [0], None]], "roots": [1]},
                }
            ),
        ]
        reduced = {}
        for jobs in (1, 2):
            results, stats = run_obligations(batch, jobs=jobs)
            reduced[jobs] = [(r.status, "worker_error" in r.stats) for r in results]
            assert stats.retries == 1  # the crashed task's one retry
        assert reduced[1] == reduced[2] == [("failed", False), ("unknown", True)]

    def test_interrupt_reaches_the_caller_inline(self):
        """Inline, only ``Exception`` becomes a verdict: an interrupt
        raised by a task stops the run."""
        from repro.core.scheduler import InlineScheduler

        sched = InlineScheduler()
        with pytest.raises(KeyboardInterrupt):
            sched.submit_calls(_interrupt, [0])

    def test_inline_run_records_the_pool_telemetry(self):
        """At ``jobs=1`` each obligation gets the pool's ``scheduler``
        span arguments, on track ``main``, and its ``obligation.done``
        event and queue-wait observation."""
        obligations = _obligation_set()
        with obs.tracing() as col:
            results, stats = run_obligations(obligations, jobs=1)
        spans = [e for e in col.spans if e.cat == "scheduler"]
        assert [e.name for e in spans] == [ob.name for ob in obligations]
        for span, result in zip(spans, results):
            assert span.tid == "main"
            assert span.args["status"] == result.status
            assert span.args["attempts"] == 1 and span.args["worker"] == "main"
            assert span.args["queued_s"] >= 0.0
        done = [e for e in col.events if e["msg"] == "obligation.done"]
        assert [e["name"] for e in done] == [ob.name for ob in obligations]
        assert col.histograms["obligation.queue_wait_seconds"].count == len(obligations)
        assert stats.max_queue_depth == len(obligations) and stats.pool_workers == 0


def _interrupt(_item):
    raise KeyboardInterrupt


class TestTelemetry:
    def test_peek_does_not_create_and_telemetry_keys(self):
        """peek_scheduler only reveals a live shared pool; telemetry
        carries the counters /metrics publishes."""
        sched = get_scheduler()
        assert peek_scheduler() is sched
        telemetry = sched.telemetry()
        assert telemetry["pool_workers"] == sched.pool_size
        for key in ("queued", "inflight", "steals", "retries", "timeouts",
                    "worker_restarts", "max_queue_depth"):
            assert isinstance(telemetry[key], int), key
