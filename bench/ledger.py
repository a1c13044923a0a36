"""Self-time ledger over a traced run's spans.

Spans are ``repro.obs`` snapshot rows ``[name, cat, tid, ts, dur, args]``.
Spans on one track nest by time containment, as in a Chrome trace.  A
span's self time is its duration minus the part of it that its direct
children cover, so the self times on a track add up to the time that
track was covered by any span.

Tracks: ``main`` is the parent path, the process that waits for the
verdicts (in the daemon each job thread has its own ``main/<thread>``
track, see ``layers.py``), and ``worker-N`` are the scheduler's
workers.  The ledger charges each self time to the layer (module) whose
call the span wraps, and checks that it explains the run:

* spans on every track nest: a span that starts inside another and ends
  after it would make self times meaningless;
* the parent-path time no layer explains -- covered by no span, or the
  self time of the catch-all ``verifier`` wrapper around ``prove_op`` --
  is at most ``TOLERANCE`` of the parent-path time.

Every instant of worker time is inside a scheduler task span, so the
worker side always adds up to busy time.  The ledger reports the share
of it outside every layer span under the task (``core.scheduler`` self
time: the worker loop, result packaging, and with tracing on the
per-task trace session) without a limit: on ``serve-warm``'s ~1 ms
tasks it is ~14%.

This module is pure Python so the arithmetic can be tested alone.
"""

from __future__ import annotations

from collections import defaultdict

from stats import percentile

MAIN = "main"
TOLERANCE = 0.05
SLACK_S = 1e-6  # rounding in span timestamps, not misnesting

# Self time of these layers is time the ledger does not explain: the
# verifier's own code around its calls into the layers, and on a worker
# the part of a scheduler task outside every layer span under it.
PARENT_CATCH_ALL = ("verifier",)
WORKER_CATCH_ALL = "core.scheduler"

# Spans the program records itself, by name, then by category.  The
# harness's own wrapper spans use the layer's module name as category.
SPAN_LAYERS = {
    "canonicalize": "smt.solver",
    "cache.lookup": "smt.solver",
    "cert.build": "smt.proof",
}
CATEGORY_LAYERS = {
    "bitblast": "smt.bitblast",
    "sat": "smt.sat",
    "scheduler": "core.scheduler",
    "solver-cache": "smt.solver",
}


def layer_of(name: str, cat: str) -> str:
    if cat == "sym":  # symbolic-profiler regions: engine.step, riscv.fetch, ...
        prefix = name.split(".", 1)[0]
        return "core.engine" if prefix == "engine" else prefix
    return SPAN_LAYERS.get(name) or CATEGORY_LAYERS.get(cat, cat)


def union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def is_parent(tid: str) -> bool:
    return tid == MAIN or tid.startswith(MAIN + "/")


def self_times(spans, window=None) -> tuple[list[tuple[list, float]], int]:
    """``(row, self seconds)`` for every span, clipped to ``window``, and
    the number of spans that do not nest in the span they start in."""
    tracks = defaultdict(list)
    for row in spans:
        lo, hi = row[3], row[3] + row[4]
        if window is not None:
            lo, hi = max(lo, window[0]), min(hi, window[1])
            if hi <= lo:
                continue
        tracks[row[2]].append((lo, hi, row))
    out = []
    misnested = 0
    for items in tracks.values():
        items.sort(key=lambda item: (item[0], -item[1]))
        stack: list = []
        nodes = []
        for lo, hi, row in items:
            while stack and stack[-1][1] <= lo:
                stack.pop()
            node = (lo, hi, row, [])
            if stack:
                misnested += hi > stack[-1][1] + SLACK_S
                stack[-1][3].append((lo, min(hi, stack[-1][1])))
            stack.append(node)
            nodes.append(node)
        for lo, hi, row, kids in nodes:
            out.append((row, (hi - lo) - union_length(kids)))
    return out, misnested


def build(spans, window) -> dict:
    """The ledger of one traced pass over ``window``, the timed interval
    (first request to last verdict)."""
    wall = window[1] - window[0]
    parent: dict = defaultdict(float)
    workers: dict = defaultdict(float)
    spans_s: dict = defaultdict(float)
    rows, misnested = self_times(spans, window)
    for row, self_s in rows:
        layer = layer_of(row[0], row[1])
        if is_parent(row[2]):
            parent[layer] += self_s
        elif row[2].startswith("worker"):
            workers[layer] += self_s
        else:
            continue
        name = "task" if row[1] == "scheduler" else row[0]  # task spans are named per task
        spans_s[f"{layer}:{name}"] += self_s
    covered = union_length(
        (max(r[3], window[0]), min(r[3] + r[4], window[1]))
        for r in spans
        if is_parent(r[2]) and r[3] < window[1] and r[3] + r[4] > window[0]
    )
    unattributed = wall - covered
    parent_total = sum(parent.values()) + unattributed  # wall, with one parent track
    busy = sum(workers.values())
    unexplained = unattributed + sum(parent.get(layer, 0.0) for layer in PARENT_CATCH_ALL)
    unattributed_frac = unexplained / parent_total if parent_total > 0 else 0.0
    worker_unattributed_frac = workers.get(WORKER_CATCH_ALL, 0.0) / busy if busy > 0 else 0.0
    return {
        "wall_s": wall,
        "parent_s": dict(sorted(parent.items())),
        "unattributed_s": unattributed,
        "workers_s": dict(sorted(workers.items())),
        "busy_s": busy,
        "spans_s": dict(sorted(spans_s.items())),
        "misnested": misnested,
        "unattributed_frac": unattributed_frac,
        "worker_unattributed_frac": worker_unattributed_frac,
        "ok": misnested == 0 and unattributed_frac <= TOLERANCE,
    }


def task_stats(spans, window) -> dict:
    """Queue wait and duration of the scheduler's task spans in ``window``."""
    tasks = [
        r for r in spans
        if r[1] == "scheduler" and r[2].startswith("worker") and window[0] <= r[3] < window[1]
    ]
    waits = [r[5]["queued_s"] for r in tasks if r[5] and "queued_s" in r[5]]
    return {
        "tasks": len(tasks),
        "busy_s": sum(r[4] for r in tasks),
        "queue_wait_p50_s": percentile(waits, 50) if waits else 0.0,
        "queue_wait_p90_s": percentile(waits, 90) if waits else 0.0,
        "obligation_wall_max_s": max((r[4] for r in tasks), default=0.0),
    }
