"""Named verifier runs the daemon can execute by name.

``GRIDS`` is the one table of the Figure 11 obligation sets: the
benchmark (``benchmarks/bench_fig11_verify.py``) reads its ops from it
and builds its verifiers with :func:`verifier_class`, so a daemon grid
job and the standalone CLI produce the *same verdict map keys* —
``monitor.op`` — and CI can diff them byte-for-byte.

Symbolic evaluation builds terms in the global hash-consing
``TermManager``, which is not safe under concurrent mutation from
multiple daemon threads, so ``_EVAL_LOCK`` serializes each operation.
The lock is held across the whole ``verifier.prove_op(op)`` call,
including its wait on the pool, so concurrent grid jobs take turns op
by op and never overlap.  All jobs share the one content-addressed
verdict store, and the scheduler looks each obligation up in the
thread that hands it out: a warm op's hits never leave the job thread,
and only its misses fan out across the process-wide pool — which is
why a warm daemon answers the same grid an order of magnitude faster.
"""

from __future__ import annotations

import threading
import time

__all__ = ["GRIDS", "grid_ops", "run_grid", "verifier_class"]

# Representative subsets first (the bench's defaults), full interfaces
# after — same ops, same order, same names.
_CERTIKOS_QUICK = ["get_quota", "yield"]
_CERTIKOS_FULL = _CERTIKOS_QUICK + ["spawn", "invalid"]
_KOMODO_QUICK = [
    "init_addrspace", "init_thread", "map_secure", "enter", "exit", "stop", "remove",
]
_KOMODO_FULL = _KOMODO_QUICK + [
    "init_l2ptable", "init_l3ptable", "map_insecure", "finalize", "resume", "invalid",
]

GRIDS: dict[str, list[tuple[str, str]]] = {
    "fig11-quick": [("certikos", op) for op in _CERTIKOS_QUICK],
    "fig11": [("certikos", op) for op in _CERTIKOS_QUICK]
    + [("komodo", op) for op in _KOMODO_QUICK],
    "fig11-full": [("certikos", op) for op in _CERTIKOS_FULL]
    + [("komodo", op) for op in _KOMODO_FULL],
}

_EVAL_LOCK = threading.Lock()


def grid_ops(name: str) -> list[tuple[str, str]]:
    """The ``(monitor, op)`` list for a named grid (KeyError if unknown)."""
    return list(GRIDS[name])


def verifier_class(monitor: str):
    """The verifier class of a grid's monitor name."""
    if monitor == "certikos":
        from ..certikos import CertikosVerifier

        return CertikosVerifier
    if monitor == "komodo":
        from ..komodo import KomodoVerifier

        return KomodoVerifier
    raise ValueError(f"unknown monitor {monitor!r}")


def run_grid(
    name: str,
    opt: int = 1,
    jobs: int = 2,
    cache_dir: str | None = None,
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
    on_verdict=None,
    should_stop=None,
) -> tuple[dict[str, bool], dict]:
    """Run a named grid; returns ``(verdict_map, aggregate_stats)``.

    ``verdict_map`` is ``{"monitor.op": proved}`` in grid order — the
    exact map the bench CLI writes under ``summary["verdicts"]``.
    ``on_verdict(label, result)`` fires after each op;  ``should_stop()``
    is polled between ops so a cancel lands at the next op boundary.
    """
    ops = grid_ops(name)
    verdicts: dict[str, bool] = {}
    totals = {
        "ops": 0,
        "obligations": 0,
        "cache_queries": 0,
        "cache_hits": 0,
        "eval_wall_s": 0.0,
    }
    for monitor, op in ops:
        if should_stop is not None and should_stop():
            break
        start = time.perf_counter()
        with _EVAL_LOCK:
            verifier = verifier_class(monitor)(
                opt=opt,
                max_conflicts=max_conflicts,
                timeout_s=timeout_s,
                jobs=jobs,
                cache_dir=cache_dir,
            )
            result = verifier.prove_op(op)
        label = f"{monitor}.{op}"
        verdicts[label] = bool(result.proved)
        totals["ops"] += 1
        stats = result.stats or {}
        totals["obligations"] += int(stats.get("obligations", 0) or 0)
        totals["cache_queries"] += int(stats.get("cache_queries", 0) or 0)
        totals["cache_hits"] += int(stats.get("cache_hits", 0) or 0)
        totals["eval_wall_s"] += time.perf_counter() - start
        if on_verdict is not None:
            on_verdict(label, result)
    return verdicts, totals
