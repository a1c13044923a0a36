import pytest

import ledger


def span(name, cat, tid, ts, dur, **args):
    return [name, cat, tid, ts, dur, args or None]


# main:   prove_op [0, 10)
#           impl_step [1, 4)
#             engine.step [1.5, 3.5)
#           wait [5, 9)
# worker: task [5, 8)
#           canonicalize [5, 5.5)  sat.solve [6, 7.5)
SPANS = [
    span("prove_op", "verifier", "main", 0.0, 10.0),
    span("impl_step", "core.engine", "main", 1.0, 3.0),
    span("engine.step", "sym", "main", 1.5, 2.0),
    span("wait", "core.scheduler", "main", 5.0, 4.0),
    span("vc[0]", "scheduler", "worker-0", 5.0, 3.0, queued_s=0.25),
    span("canonicalize", "solver-cache", "worker-0", 5.0, 0.5),
    span("sat.solve", "sat", "worker-0", 6.0, 1.5),
]


def self_time_by_name(spans, window=None):
    rows, misnested = ledger.self_times(spans, window)
    assert misnested == 0
    return {row[0]: s for row, s in rows}


def test_self_time_subtracts_direct_children():
    assert self_time_by_name(SPANS) == pytest.approx({
        "prove_op": 10.0 - 3.0 - 4.0,
        "impl_step": 3.0 - 2.0,
        "engine.step": 2.0,
        "wait": 4.0,
        "vc[0]": 3.0 - 0.5 - 1.5,
        "canonicalize": 0.5,
        "sat.solve": 1.5,
    })


def test_self_time_clips_to_window():
    got = self_time_by_name(SPANS, window=(2.0, 6.5))
    assert got["prove_op"] == pytest.approx(4.5 - 1.5 - 2.0)
    assert got["impl_step"] == pytest.approx(2.0 - 1.5)
    assert got["sat.solve"] == pytest.approx(0.5)


def test_a_span_that_outlives_its_parent_is_misnested():
    spans = SPANS + [span("spec_step", "core.spec", "main", 8.0, 3.0)]  # ends at 11 > 10
    _, misnested = ledger.self_times(spans)
    assert misnested == 1
    assert not ledger.build(spans, (0.0, 12.0))["ok"]


def test_ledger_sums_self_time_per_layer_and_side():
    led = ledger.build(SPANS + [span("tail", "cc", "main", 11.0, 0.5)], (0.0, 12.0))
    assert led["parent_s"] == pytest.approx(
        {"verifier": 3.0, "core.engine": 3.0, "core.scheduler": 4.0, "cc": 0.5}
    )
    assert led["unattributed_s"] == pytest.approx(1.5)  # [10, 11) and [11.5, 12)
    assert sum(led["parent_s"].values()) + led["unattributed_s"] == pytest.approx(12.0)
    assert led["workers_s"] == pytest.approx(
        {"core.scheduler": 1.0, "smt.solver": 0.5, "smt.sat": 1.5}
    )
    assert led["busy_s"] == pytest.approx(3.0)
    assert led["spans_s"]["smt.solver:canonicalize"] == pytest.approx(0.5)


def test_unexplained_time_is_uncovered_plus_catch_all_self_time():
    # Parent: 1.5 s uncovered + 3.0 s of prove_op's own code, of 12 s.
    led = ledger.build(SPANS + [span("tail", "cc", "main", 11.0, 0.5)], (0.0, 12.0))
    assert led["unattributed_frac"] == pytest.approx(4.5 / 12.0)
    assert not led["ok"]
    # Worker: 1.0 s of the task outside canonicalize and sat.solve, of 3 s.
    assert led["worker_unattributed_frac"] == pytest.approx(1.0 / 3.0)


def test_ledger_passes_when_layers_explain_the_parent_path():
    spans = [
        span("prove_op", "verifier", "main", 0.0, 10.0),
        span("impl_step", "core.engine", "main", 0.1, 4.9),
        span("wait", "core.scheduler", "main", 5.0, 4.95),
    ]
    led = ledger.build(spans, (0.0, 10.0))
    assert led["unattributed_frac"] == pytest.approx(0.15 / 10.0)
    assert led["ok"]


def test_job_threads_are_parent_tracks_of_their_own():
    # Two daemon job threads overlap in time; each nests on its own track.
    spans = [
        span("prove_op", "verifier", "main/Thread-1", 0.0, 6.0),
        span("wait", "core.scheduler", "main/Thread-1", 1.0, 5.0),
        span("prove_op", "verifier", "main/Thread-2", 2.0, 6.0),
        span("wait", "core.scheduler", "main/Thread-2", 3.0, 5.0),
    ]
    led = ledger.build(spans, (0.0, 8.0))
    assert led["misnested"] == 0
    assert led["parent_s"] == pytest.approx({"verifier": 2.0, "core.scheduler": 10.0})
    assert led["unattributed_s"] == pytest.approx(0.0)
    assert led["unattributed_frac"] == pytest.approx(2.0 / 12.0)


def test_task_stats():
    tasks = ledger.task_stats(SPANS, (0.0, 10.0))
    assert tasks["tasks"] == 1 and tasks["busy_s"] == 3.0
    assert tasks["queue_wait_p50_s"] == 0.25 and tasks["obligation_wall_max_s"] == 3.0
