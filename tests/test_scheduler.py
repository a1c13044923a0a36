"""The obligation scheduler (``repro.core.scheduler``).

The contract under test is the one CI relies on: scheduling is an
implementation detail.  However obligations are interleaved across
workers, timed out, and retried, the verdicts — and the first failing
obligation — must be exactly the sequential baseline's.
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro import obs
from repro.core.runner import Obligation, reduce_results, run_obligations
from repro.core.scheduler import (
    ObligationScheduler,
    _CallError,
    get_scheduler,
    in_worker,
    peek_scheduler,
    shutdown_scheduler,
)
from repro.smt import (
    bv_sort,
    fresh_var,
    mk_and,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvmul,
    mk_bvxor,
    mk_eq,
    mk_not,
    mk_ule,
    mk_ult,
    mk_zext,
)
from repro.core.store import VerdictStore
from repro.smt.solver import reset_incremental_session


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


def _distinct_obligations(count: int = 8):
    """Valid obligations with ``count`` distinct digests that reach the
    SAT core: ``x & c <= c`` for ``c = 1..count``.  With the session
    reset first, none of them is a hit, so every one reaches a worker
    (a hit is answered where the task is dispatched)."""
    obligations = []
    for c in range(1, count + 1):
        x = fresh_var("dx", bv_sort(16))
        goal = mk_ule(mk_bvand(x, mk_bv(c, 16)), mk_bv(c, 16))
        obligations.append(Obligation.from_terms(f"distinct{c}", [goal]))
    return obligations


def _distinct_mixed_set():
    """``_obligation_set``'s shape with eight distinct digests: valid
    goals ``x & c <= c``, and at indices 3 and 6 two that fail,
    ``x == c``.  With the session reset first, none is a hit, so every
    one is solved on a worker."""
    obligations = []
    for i in range(8):
        x = fresh_var("mx", bv_sort(16))
        c = mk_bv(i + 1, 16)
        goal = mk_eq(x, c) if i in (3, 6) else mk_ule(mk_bvand(x, c), c)
        obligations.append(Obligation.from_terms(f"ob{i}", [goal]))
    return obligations


class TestDeterminism:
    def test_verdicts_stable_across_fresh_schedulers(self):
        """Ten fresh two-worker schedulers (whose workers interleave
        differently from run to run) must all reproduce the sequential
        verdicts in order, including the same first failure.  Each run
        starts from an empty session memo on obligations with distinct
        digests, so every task is solved on a worker."""
        obligations = _distinct_mixed_set()
        reset_incremental_session()
        seq_results, _ = run_obligations(obligations, jobs=1)
        seq_verdicts = [r.status for r in seq_results]
        assert seq_verdicts.count("failed") == 2
        seq_first = reduce_results(seq_results)
        assert seq_first is not None and seq_first.name == "ob3"

        for run in range(10):
            reset_incremental_session()
            sched = ObligationScheduler(workers=2)
            try:
                with obs.tracing() as col:
                    results, stats = sched.run(obligations, jobs_hint=2)
            finally:
                sched.shutdown()
            assert [r.status for r in results] == seq_verdicts, f"run {run}"
            assert [r.name for r in results] == [ob.name for ob in obligations]
            first = reduce_results(results)
            assert first is not None and first.name == "ob3", f"run {run}"
            assert stats.obligations == len(obligations)
            tracks = [e.tid for e in col.spans if e.cat == "scheduler"]
            assert len(tracks) == len(obligations), f"run {run}"
            assert all(tid.startswith("worker-") for tid in tracks), f"run {run}"

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
    """Two goals whose query the SAT core cannot decide before its first
    deadline check (every 32 conflicts): 16-bit factors greater than 1
    of a 32-bit prime.  The query is UNSAT, after thousands of
    conflicts."""
    x = fresh_var("x", bv_sort(16))
    y = fresh_var("y", bv_sort(16))
    one = mk_bv(1, 16)
    hard = []
    for prime in (1_000_000_007, 1_000_000_009):
        product = mk_eq(mk_bvmul(mk_zext(x, 16), mk_zext(y, 16)), mk_bv(prime, 32))
        goal = mk_not(mk_and(product, mk_ult(one, x), mk_ult(one, y)))
        hard.append(Obligation.from_terms(f"hard{prime}", [goal]))
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_decided_verdict_is_not_a_timeout(self, jobs):
        """A query the SAT core decides before its first deadline check
        keeps its verdict, however far past ``timeout_s`` the whole check
        ran: ``x*y == c`` fails with a counterexample, untried again.
        The two goals have distinct digests and the session memo starts
        empty, so both are solved, at ``jobs=2`` on a worker."""
        products = (91, 93)
        obligations = []
        for i, c in enumerate(products):
            x = fresh_var(f"dx{i}", bv_sort(16))
            y = fresh_var(f"dy{i}", bv_sort(16))
            obligations.append(Obligation.from_terms(f"decided{i}", [mk_eq(mk_bvmul(x, y), mk_bv(c, 16))]))
        reset_incremental_session()
        with obs.tracing() as col:
            results, stats = run_obligations(obligations, jobs=jobs, timeout_s=1e-6, retries=1)
        for c, result in zip(products, results):
            assert result.status == "failed" and not result.stats.get("timed_out")
            x, y = sorted(result.model_values.items())  # dx<i> before dy<i>
            assert x[1] * y[1] % (1 << 16) != c
        assert (stats.retries, stats.timeouts) == (0, 0)
        tracks = [e.tid for e in col.spans if e.cat == "scheduler"]
        assert len(tracks) == len(obligations)
        assert all(tid == "main" if jobs == 1 else tid.startswith("worker-") for tid in tracks)

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

    def test_on_result_runs_where_the_task_is_finalized(self):
        """A worker's verdict reaches ``on_result`` on the dispatcher
        thread; a hit answered at dispatch reaches it on the submitting
        thread, before ``submit_obligations`` returns."""
        reset_incremental_session()
        threads = []

        def on_result(index, result):
            threads.append(threading.current_thread().name)

        sched = ObligationScheduler(workers=2)
        try:
            sched.submit_obligations(_distinct_obligations(2), on_result=on_result).wait(timeout=60.0)
            assert threads == ["obligation-scheduler"] * 2
            threads.clear()
            sched.submit_obligations(_distinct_obligations(2), on_result=on_result)
            assert threads == [threading.current_thread().name] * 2
        finally:
            sched.shutdown()

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
        reset_incremental_session()
        obligations = _distinct_obligations()
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


def _exit_once(marker: str) -> str:
    """Kill the worker on the first attempt (no ``marker`` yet), answer
    on the next."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return "answered"


def _replace_idle_worker(sched: ObligationScheduler, wid: int) -> None:
    """SIGKILL idle worker ``wid`` and wait until the pool replaces it."""
    before = sched.worker_restarts
    os.kill(sched._workers[wid].process.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while sched.worker_restarts == before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sched.worker_restarts == before + 1


class TestWorkerDeath:
    def test_task_that_kills_its_worker_is_retried(self, tmp_path):
        sched = ObligationScheduler(workers=1)
        try:
            results = sched.submit_calls(_exit_once, [str(tmp_path / "m")], retries=1).wait(timeout=30.0)
        finally:
            sched.shutdown()
        assert results == ["answered"]
        assert sched.worker_restarts == 1

    def test_without_retries_a_worker_death_is_reported(self, tmp_path):
        sched = ObligationScheduler(workers=1)
        try:
            (result,) = sched.submit_calls(_exit_once, [str(tmp_path / "a")], retries=0).wait(timeout=30.0)
            assert isinstance(result, _CallError) and result.message == "worker died"
            with pytest.raises(RuntimeError, match="worker died"):
                sched.map(_exit_once, [str(tmp_path / "b")])
        finally:
            sched.shutdown()
        assert sched.worker_restarts == 2

    def test_idle_worker_killed_is_replaced(self):
        """A worker killed while idle held no lock that its replacement
        needs: the next batch completes."""
        sched = ObligationScheduler(workers=2)
        try:
            assert sched.map(abs, [-1, -2]) == [1, 2]
            _replace_idle_worker(sched, 0)
            ticket = sched.submit_calls(abs, [-1, -2, -3, -4])
            assert ticket.wait(timeout=30.0) == [1, 2, 3, 4]
        finally:
            sched.shutdown()

    def test_task_that_cannot_be_pickled_is_reported(self):
        """A task no worker can receive is answered with its error at
        once; the pool stays usable."""
        sched = ObligationScheduler(workers=1)
        try:
            (result,) = sched.submit_calls(lambda item: item, [1]).wait(timeout=30.0)
            assert isinstance(result, _CallError) and "pickle" in result.message
            assert sched.map(abs, [-1]) == [1]
        finally:
            sched.shutdown()
        assert sched.worker_restarts == 0

    def test_message_larger_than_a_pipe_buffer_reaches_a_replaced_worker(self):
        big = b"x" * (256 * 1024)  # a pipe buffer holds 64 KiB
        sched = ObligationScheduler(workers=1)
        try:
            _replace_idle_worker(sched, 0)
            assert sched.submit_calls(len, [big, big]).wait(timeout=30.0) == [len(big)] * 2
        finally:
            sched.shutdown()


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


def _split_obligations(prefix: str):
    """Two obligations whose goals are conjunctions (each misses into
    pieces) under different assumptions, and one solved whole."""
    x = fresh_var(f"{prefix}x", bv_sort(8))
    y = fresh_var(f"{prefix}y", bv_sort(8))
    masked = mk_ule(mk_bvand(x, mk_bv(0x0F, 8)), mk_bv(0x0F, 8))
    cancel = mk_eq(mk_bvxor(mk_bvxor(x, y), y), mk_bvand(x, mk_bv(0xFF, 8)))
    return [
        Obligation.from_terms("pair", [masked, cancel], [mk_ult(x, mk_bv(100, 8))]),
        Obligation.from_terms("triple", [masked, cancel, mk_ule(mk_bvand(x, y), x)], [mk_ult(y, x)]),
        Obligation.from_terms("single", [mk_ule(mk_bvand(y, mk_bv(3, 8)), mk_bv(3, 8))]),
    ]


def _search_obligation(name: str) -> Obligation:
    """A valid goal the SAT core only settles by search (about 600
    conflicts): no two 10-bit factors greater than 1 multiply to the
    prime 65,521.  Each call draws fresh variables, so two calls give
    alpha-renamed copies of one query."""
    x = fresh_var("fx", bv_sort(10))
    y = fresh_var("fy", bv_sort(10))
    one = mk_bv(1, 10)
    product = mk_eq(mk_bvmul(mk_zext(x, 10), mk_zext(y, 10)), mk_bv(65521, 20))
    return Obligation.from_terms(name, [mk_not(mk_and(product, mk_ult(one, x), mk_ult(one, y)))])


class TestDispatchLookup:
    """An obligation is looked up where it is handed out: a hit never
    reaches a worker, and a worker only answers misses."""

    def test_warm_batch_reaches_no_worker(self, tmp_path):
        store = str(tmp_path / "store")
        cold, _ = run_obligations(_obligation_set(), jobs=1, cache_dir=store)
        sched = ObligationScheduler(workers=2)
        try:
            with obs.tracing() as col:
                warm, stats = sched.run(_obligation_set(), cache_dir=store, jobs_hint=2)
        finally:
            sched.shutdown()
        assert [(r.status, r.model_values is None) for r in warm] == [
            (r.status, r.model_values is None) for r in cold
        ]
        assert stats.cache_hits == stats.cache_queries == len(warm)
        assert stats.utilization == 0.0
        spans = [e for e in col.spans if e.cat == "scheduler"]
        assert [e.name for e in spans] == [r.name for r in warm]
        assert all(e.tid == "main" and e.args["worker"] == "main" for e in spans)
        assert not any(e.tid.startswith("worker-") for e in col.spans)

    def test_a_miss_is_canonicalized_once(self, tmp_path):
        """One ``canonicalize`` span per submitted obligation and per
        piece at ``jobs=2``: the worker takes the digest the lookup
        made, and never canonicalizes a whole it is sent."""
        obligations = _split_obligations("once")
        with obs.tracing() as col:
            results, _ = run_obligations(obligations, jobs=2, cache_dir=str(tmp_path / "store"))
        assert [r.status for r in results] == ["proved"] * 3
        pieces = sum(r.stats.get("pieces", 0) for r in results)
        assert pieces == 5
        tasks = [e for e in col.spans if e.cat == "scheduler"]
        assert len(tasks) == len(obligations) + pieces
        canonicalized = [e for e in col.spans if e.name == "canonicalize"]
        assert len(canonicalized) == len(tasks)
        assert not any(e.tid.startswith("worker-") for e in canonicalized)

    def test_no_store_repeat_hits_the_memo_of_the_dispatching_process(self):
        """Without a store, a worker's decided verdicts are recorded in
        the parent's session memo: an alpha-renamed repeat in the same
        ``jobs=2`` batch waits for its twin, then hits, and so does one
        in a later batch; neither reaches a worker."""
        reset_incremental_session()
        sched = ObligationScheduler(workers=2)
        try:
            with obs.tracing() as col:
                first, _ = sched.run([_search_obligation("twin"), _search_obligation("repeat")], jobs_hint=2)
                later, _ = sched.run([_search_obligation("later"), _distinct_obligations(1)[0]], jobs_hint=2)
        finally:
            sched.shutdown()
        assert [r.status for r in first + later] == ["proved"] * 4
        assert [bool(r.stats.get("memo_hit")) for r in first + later] == [False, True, True, False]
        tracks = {e.name: e.tid for e in col.spans if e.cat == "scheduler"}
        assert tracks["twin"].startswith("worker-") and tracks["distinct1"].startswith("worker-")
        assert tracks["repeat"] == tracks["later"] == "main"
        assert col.counters["solver.memo.hits"] == 2

    @pytest.mark.parametrize("fault", ["canonicalize", "store read"])
    def test_a_lookup_that_raises_is_the_tasks_result(self, tmp_path, monkeypatch, fault):
        """A lookup that raises reads ``unknown`` with ``worker_error``,
        under the retry policy, alike at ``jobs=1`` and ``jobs=2`` and
        when the dispatcher thread makes it; the pool answers the next
        batch."""
        if fault == "canonicalize":
            # JSON carries a lone surrogate, which no digest can encode.
            doc = {"nodes": [["var", "\ud800", [], "y"], ["not", "b", [0], None]], "roots": [1]}
            bad = Obligation.from_json({"name": "bad", "payload": doc})
            cache_dir = None
        else:
            x = fresh_var("rx", bv_sort(8))
            bad = Obligation.from_terms("bad", [mk_eq(mk_bvadd(x, mk_bv(7, 8)), mk_bv(9, 8))])
            cache_dir = str(tmp_path / "store")
            (unreadable,), _ = run_obligations([bad], cache_dir=str(tmp_path / "probe"))
            read_local = VerdictStore.read_local

            def failing_read(self, digest, var_map):
                if digest == unreadable.stats["digest"]:
                    raise OSError("store read failed")
                return read_local(self, digest, var_map)

            monkeypatch.setattr(VerdictStore, "read_local", failing_read)
        reset_incremental_session()
        batch = [_distinct_obligations(1)[0], bad]
        reduced = {}
        for jobs in (1, 2):
            results, stats = run_obligations(batch, jobs=jobs, cache_dir=cache_dir)
            reduced[jobs] = [(r.status, "worker_error" in r.stats) for r in results], stats.retries
        # One worker: the first task holds it, so the dispatcher thread
        # looks the second up when the first returns.
        sched = ObligationScheduler(workers=1)
        try:
            results, stats = sched.run([_search_obligation("busy"), bad], cache_dir=cache_dir)
            reduced["dispatcher"] = [(r.status, "worker_error" in r.stats) for r in results[1:]], stats.retries
            assert sched.map(abs, [-1]) == [1]
        finally:
            sched.shutdown()
        assert reduced[1] == reduced[2] == ([("proved", False), ("unknown", True)], 1)
        assert reduced["dispatcher"] == ([("unknown", True)], 1)
        assert get_scheduler(2).map(abs, [-1, -2]) == [1, 2]


class TestOneSolvePerDigest:
    def test_twins_in_flight_write_one_certificate(self, tmp_path):
        """Two alpha-renamed copies of a query that needs a search, in
        one batch with a store: at ``jobs=2`` the second waits for the
        first and hits, so one certificate is written, as at ``jobs=1``."""
        runs = {}
        for jobs in (1, 2):
            batch = [_search_obligation("twin0"), _search_obligation("twin1")]
            with obs.tracing() as col:
                results, _ = run_obligations(batch, jobs=jobs, cache_dir=str(tmp_path / f"s{jobs}"))
            runs[jobs] = [(r.status, r.stats["cache_hit"]) for r in results], col.counters["solver.certs"]
        assert runs[1] == runs[2] == ([("proved", False), ("proved", True)], 1)

    def test_concurrent_submitters_solve_each_digest_once(self, tmp_path):
        """Three threads at once submit two alpha-renamed copies of each
        of three queries to a three-worker pool (more workers than
        cores) sharing a store, with a short switch interval: every
        verdict is right, and each digest is solved and certified once."""
        primes = (239, 241, 251)

        def factoring(prime, name):
            x = fresh_var("cx", bv_sort(8))
            y = fresh_var("cy", bv_sort(8))
            one = mk_bv(1, 8)
            product = mk_eq(mk_bvmul(mk_zext(x, 8), mk_zext(y, 8)), mk_bv(prime, 16))
            return Obligation.from_terms(name, [mk_not(mk_and(product, mk_ult(one, x), mk_ult(one, y)))])

        store = str(tmp_path / "store")
        sched = ObligationScheduler(workers=3)
        tickets = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with obs.tracing() as col:

                def submit(k):
                    batch = [factoring(p, f"t{k}p{p}c{c}") for p in primes for c in range(2)]
                    tickets.append(sched.submit_obligations(batch, cache_dir=store))

                threads = [threading.Thread(target=submit, args=(k,)) for k in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                results = [ticket.wait(timeout=60.0) for ticket in tickets]
        finally:
            sys.setswitchinterval(interval)
            sched.shutdown()
        assert [[r is not None and r.status for r in batch] for batch in results] == [["proved"] * 6] * 3
        assert col.counters["solver.certs"] == len(primes)
        assert sum(r.stats["cache_hit"] for batch in results for r in batch) == 18 - len(primes)

    @pytest.mark.parametrize("differ", ["store", "budget"])
    def test_copies_for_another_store_or_budget_run_side_by_side(self, tmp_path, differ):
        """Two copies of a query submitted together, to two stores or
        under two budgets, run at once on the two workers: a miss parks
        behind a task only when that task's result is the one its own
        lookup reads, from the run it would make itself."""
        if differ == "store":
            runs = [{"cache_dir": str(tmp_path / side), "timeout_s": 0.5} for side in "ab"]
        else:
            runs = [{"timeout_s": 0.5}, {"timeout_s": 0.6}]
        sched = ObligationScheduler(workers=2)
        try:
            tickets = [
                sched.submit_obligations([_slow_obligation(f"copy{i}")], retries=0, **run)
                for i, run in enumerate(runs)
            ]
            results = [ticket.wait(timeout=30.0)[0] for ticket in tickets]
        finally:
            sched.shutdown()
        assert all(r.status == "unknown" and r.stats.get("timed_out") for r in results)
        first, second = (ticket.timeline[0] for ticket in tickets)
        assert {first["wid"], second["wid"]} == {0, 1}
        assert second["start_t"] < first["end_t"]

    def test_cancel_drops_a_parked_twin(self):
        """A twin parked behind an in-flight task is cancelled with its
        ticket; the in-flight one ends at its timeout, unretried."""
        sched = ObligationScheduler(workers=2)
        try:
            ticket = sched.submit_obligations(
                [_slow_obligation("held"), _slow_obligation("parked")], timeout_s=1.0
            )
            assert sched.cancel(ticket) == 1
            assert ticket.results[1].stats.get("cancelled") is True
            results = ticket.wait(timeout=30.0)
        finally:
            sched.shutdown()
        assert results[0].status == "unknown" and results[0].stats.get("timed_out")
        assert ticket.progress()["retries"] == 0


class TestDispatcherFailure:
    def test_a_raising_dispatcher_fails_its_tickets(self, monkeypatch):
        """An exception on the dispatcher thread finalizes every pending
        task with ``worker_error`` instead of leaving ``wait()`` to time
        out, and closes the scheduler: the next ``get_scheduler`` builds
        a fresh one that answers."""
        shutdown_scheduler()
        handle = ObligationScheduler._handle_result
        raised = []

        def raise_once(self, *args):
            if not raised:
                raised.append(True)
                raise RuntimeError("dispatcher fault")
            return handle(self, *args)

        monkeypatch.setattr(ObligationScheduler, "_handle_result", raise_once)
        reset_incremental_session()  # every task misses: only the dispatcher handles results
        sched = get_scheduler(2)
        results = sched.submit_obligations(_distinct_obligations(4)).wait(30)
        assert [(r.status, "dispatcher fault" in r.stats.get("worker_error", "")) for r in results] == [
            ("unknown", True)
        ] * 4
        assert sched.closed and peek_scheduler() is None
        fresh = get_scheduler(2)
        assert fresh is not sched
        results, _ = run_obligations(_distinct_obligations(4), jobs=2)
        assert [r.status for r in results] == ["proved"] * 4
