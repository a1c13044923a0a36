"""Shared helpers for the benchmark harness.

Each bench regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index).  Long-running verification benches run
once per measurement (``rounds=1``); set ``REPRO_FULL=1`` to run the
complete Figure 11 grid instead of the representative subset.

The harness also fronts the proof-obligation scheduler
(``repro.core.scheduler``): ``--jobs N`` feeds obligations to the
process-wide scheduler pool, ``--cache`` memoizes solver verdicts
in the shared content-addressed verdict store (``repro.core.store``).
Runner activity is accumulated into a ``BENCH_runner.json`` artifact
(obligation count, wall time, cache hit rate, plus the scheduler's
queue-depth/utilization telemetry), and the session exits
nonzero if a sequential-vs-parallel verdict divergence was recorded —
the regression guard for the scheduler's deterministic-reduction
promise.
"""

import json
import os

import pytest

FULL = os.environ.get("REPRO_FULL") == "1"

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_REPORT_PATH = os.path.join(_REPO_ROOT, "bench_report.txt")
RUNNER_ARTIFACT = os.path.join(_REPO_ROOT, "BENCH_runner.json")
TRACE_ARTIFACT = os.path.join(_REPO_ROOT, "trace.json")
# The default store directory honors REPRO_CACHE_DIR so CI jobs and
# scripts/ci_local.sh can point every entry point at one shared store.
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or os.path.join(_REPO_ROOT, ".solvercache")

# Accumulated runner activity for the BENCH_runner.json artifact.
_RUNNER_LOG: dict = {"runs": [], "divergences": []}


def pytest_addoption(parser):
    group = parser.getgroup("repro-runner")
    group.addoption(
        "--jobs",
        action="store",
        type=int,
        default=1,
        help="worker processes for the proof-obligation runner (0 = all cores)",
    )
    group.addoption(
        "--cache",
        action="store_true",
        default=False,
        help="memoize solver verdicts in the persistent on-disk cache",
    )
    group.addoption(
        "--cache-dir",
        action="store",
        default=DEFAULT_CACHE_DIR,
        help=f"solver cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    group.addoption(
        # Not --trace: pytest's own --trace (pdb on test start) owns it.
        "--obs-trace",
        action="store_true",
        default=False,
        help="collect a repro.obs trace for the whole session and write "
        f"the Chrome trace to {TRACE_ARTIFACT}",
    )


# Session-wide tracing state, populated by pytest_configure --trace.
_TRACE: dict = {}


def pytest_configure(config):
    if not config.getoption("--obs-trace", default=False):
        return
    from repro.obs import tracing

    trace_ctx = tracing(absorb=False)
    _TRACE["collector"] = trace_ctx.__enter__()
    _TRACE["context"] = trace_ctx


def _finish_trace() -> dict | None:
    """Close the session tracing context; returns the obs summary."""
    if not _TRACE:
        return None
    from repro.obs import summarize, write_chrome_trace

    trace_ctx = _TRACE.pop("context")
    collector = _TRACE.pop("collector")
    trace_ctx.__exit__(None, None, None)
    write_chrome_trace(collector, TRACE_ARTIFACT)
    return summarize(collector)


@pytest.fixture(scope="session")
def runner_opts(request):
    """(jobs, cache_dir) tuple resolved from the command line."""
    jobs = request.config.getoption("--jobs")
    cache = request.config.getoption("--cache")
    cache_dir = request.config.getoption("--cache-dir") if cache else None
    return jobs, cache_dir


def run_once(benchmark, fn, *args, **kwargs):
    """Measure a single execution (verification runs are expensive and
    deterministic; repeated rounds only re-prove the same theorem)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(line: str) -> None:
    """Print (visible with ``pytest -s``) and append to bench_report.txt
    (always, since pytest captures stdout by default)."""
    print(line)
    with open(_REPORT_PATH, "a") as handle:
        handle.write(line + "\n")


def banner(title: str) -> None:
    emit(f"\n===== {title} =====")


# ---------------------------------------------------------------------------
# Runner accounting and the BENCH_runner.json regression guard


# Scheduler telemetry carried per-run into the artifact when present
# (SchedulerStats.as_dict() emits them; an in-process run does not).
_SCHEDULER_FIELDS = (
    "retries",
    "timeouts",
    "max_queue_depth",
    "worker_restarts",
    "pool_workers",
    "utilization",
)


def record_runner_run(label: str, stats: dict, wall_time_s: float | None = None) -> None:
    """Log one runner invocation (``stats`` from ``ProofResult.stats``
    or ``RunnerStats``/``SchedulerStats`` ``.as_dict()``) into the
    artifact, including scheduler telemetry when present."""
    entry = {
        "label": label,
        "obligations": stats.get("obligations", 0),
        "jobs": stats.get("jobs", 1),
        "wall_time_s": wall_time_s if wall_time_s is not None else stats.get("wall_time_s", 0.0),
        "cache_queries": stats.get("cache_queries", 0),
        "cache_hits": stats.get("cache_hits", 0),
    }
    for field in _SCHEDULER_FIELDS:
        if field in stats:
            entry[field] = stats[field]
    _RUNNER_LOG["runs"].append(entry)


def record_divergence(label: str, sequential, parallel) -> None:
    """Record a sequential-vs-parallel verdict mismatch (fails the session)."""
    _RUNNER_LOG["divergences"].append(
        {"label": label, "sequential": repr(sequential), "parallel": repr(parallel)}
    )


def guard_divergence(label: str, sequential, parallel) -> None:
    """Assert-and-record: verdicts must match exactly."""
    if sequential != parallel:
        record_divergence(label, sequential, parallel)


def runner_summary() -> dict:
    runs = _RUNNER_LOG["runs"]
    queries = sum(r["cache_queries"] for r in runs)
    hits = sum(r["cache_hits"] for r in runs)
    return {
        "cpu_count": os.cpu_count(),
        "obligations": sum(r["obligations"] for r in runs),
        "wall_time_s": sum(r["wall_time_s"] for r in runs),
        "cache_queries": queries,
        "cache_hits": hits,
        "cache_hit_rate": hits / queries if queries else 0.0,
        "retries": sum(r.get("retries", 0) for r in runs),
        "timeouts": sum(r.get("timeouts", 0) for r in runs),
        "max_queue_depth": max((r.get("max_queue_depth", 0) for r in runs), default=0),
        "divergences": _RUNNER_LOG["divergences"],
        "runs": runs,
    }


def write_runner_artifact(path: str = RUNNER_ARTIFACT, obs: dict | None = None) -> dict:
    summary = runner_summary()
    if obs is not None:
        summary["obs"] = obs
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2)
    return summary


def pytest_sessionfinish(session, exitstatus):
    obs = _finish_trace()
    if not _RUNNER_LOG["runs"] and not _RUNNER_LOG["divergences"] and obs is None:
        return
    summary = write_runner_artifact(obs=obs)
    if summary["divergences"] and session.exitstatus == 0:
        session.exitstatus = 1
