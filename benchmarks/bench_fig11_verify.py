"""E4 -- Figure 11 (lower half): verification times of the monitors.

Paper (seconds, Core i7-7700K + Z3):
                         CertiKOS^s   Komodo^s
  refinement proof -O0         92        275
  refinement proof -O1        138        309
  refinement proof -O2        133        289
  safety proof                 33        477

Ours substitutes a pure-Python solver, so absolute numbers differ; the
reproduced shape: (a) Komodo^s refinement costs more than CertiKOS^s
at every level, (b) -O1/-O2 are in the same ballpark as -O0 once the
full set of symbolic optimizations is on (§6.4: one extra optimization
brought them close), (c) safety proofs are solver-only (no RISC-V
verifier) and Komodo^s safety costs more than CertiKOS^s.

The default measures a representative operation subset per monitor;
REPRO_FULL=1 runs every monitor call.

Runner modes (the scaling axis this bench also exercises):

  pytest benchmarks/bench_fig11_verify.py --jobs 4 --cache
      dispatch proof obligations across 4 worker processes, memoizing
      verdicts in the persistent solver cache;

  python benchmarks/bench_fig11_verify.py --jobs 2 --cache
      standalone CLI (no pytest-benchmark needed): runs the refinement
      obligation set through the shared scheduler, reports speedup
      vs. the sequential baseline and the cache hit rate, and writes
      the BENCH_runner.json artifact (including the per-obligation
      verdict map and the scheduler's queue-depth/utilization
      telemetry).  Exits nonzero if parallel and sequential verdicts
      diverge.

The verdict store behind ``--cache`` is shareable between machines:
``python -m repro.core.store export/import`` moves it as a tar.gz
artifact, which is how CI's two-job cache-warm pipeline hands verdicts
from the cold job to the warm job.
"""

import time

from conftest import FULL, banner, emit, guard_divergence, record_runner_run, run_once
import pytest

from repro.serve.grids import grid_ops, verifier_class

# The ops come from the daemon's grid table (repro.serve.grids.GRIDS).
# The default grid covers each interface proportionally (CertiKOS^s has
# 3 calls, Komodo^s has 12 — which is exactly why the paper's Komodo^s
# rows cost more); REPRO_FULL=1 adds the heavy residual cases (spawn,
# invalid) and the rest of Komodo^s.
GRID = "fig11-full" if FULL else "fig11"
CERTIKOS_OPS = [op for monitor, op in grid_ops(GRID) if monitor == "certikos"]
KOMODO_OPS = [op for monitor, op in grid_ops(GRID) if monitor == "komodo"]

RESULTS: dict[tuple, float] = {}


def _verifier(monitor: str, opt: int, jobs: int = 1, cache_dir: str | None = None):
    return verifier_class(monitor)(opt=opt, jobs=jobs, cache_dir=cache_dir)


def _refine(monitor: str, opt: int, ops, jobs: int = 1, cache_dir: str | None = None):
    verifier = _verifier(monitor, opt, jobs=jobs, cache_dir=cache_dir)
    total = 0.0
    for op in ops:
        start = time.perf_counter()
        result = verifier.prove_op(op)
        elapsed = time.perf_counter() - start
        total += elapsed
        assert result.proved, f"{monitor}.{op} at O{opt}: {result.describe()}"
        if jobs != 1 or cache_dir is not None:
            record_runner_run(f"{monitor}.{op}.O{opt}", result.stats, wall_time_s=elapsed)
    return total


@pytest.mark.parametrize("opt", [0, 1, 2])
def test_certikos_refinement(benchmark, opt, runner_opts):
    jobs, cache_dir = runner_opts
    seconds = run_once(benchmark, _refine, "certikos", opt, CERTIKOS_OPS, jobs, cache_dir)
    RESULTS[("certikos", f"refinement -O{opt}")] = seconds


@pytest.mark.parametrize("opt", [0, 1, 2])
def test_komodo_refinement(benchmark, opt, runner_opts):
    jobs, cache_dir = runner_opts
    seconds = run_once(benchmark, _refine, "komodo", opt, KOMODO_OPS, jobs, cache_dir)
    RESULTS[("komodo", f"refinement -O{opt}")] = seconds


def test_runner_verdicts_match_sequential(benchmark, runner_opts):
    """Regression guard: the parallel/cached runner must produce the
    same verdict as the sequential in-process path.  Skipped unless a
    runner mode was requested (it re-proves one op twice)."""
    jobs, cache_dir = runner_opts
    if jobs == 1 and cache_dir is None:
        pytest.skip("runner mode not requested (--jobs/--cache)")

    def compare():
        op = CERTIKOS_OPS[0]
        seq = _verifier("certikos", 1).prove_op(op)
        par = _verifier("certikos", 1, jobs=jobs, cache_dir=cache_dir).prove_op(op)
        guard_divergence(f"certikos.{op}.O1", seq.proved, par.proved)
        return seq.proved, par.proved

    seq_ok, par_ok = run_once(benchmark, compare)
    assert seq_ok == par_ok


def _certikos_safety():
    from repro.certikos.ni import prove_small_step_properties, prove_spawn_targets_owned_child

    results = prove_small_step_properties()
    assert all(r.proved for r in results.values())
    assert prove_spawn_targets_owned_child(implicit=False).proved


def _komodo_safety():
    from repro.komodo import (
        prove_host_cannot_read_enclave,
        prove_removed_enclave_unobservable,
    )

    assert prove_host_cannot_read_enclave().proved
    assert prove_removed_enclave_unobservable().proved


def test_certikos_safety(benchmark):
    start = time.perf_counter()
    run_once(benchmark, _certikos_safety)
    RESULTS[("certikos", "safety proof")] = time.perf_counter() - start


def test_komodo_safety(benchmark):
    start = time.perf_counter()
    run_once(benchmark, _komodo_safety)
    RESULTS[("komodo", "safety proof")] = time.perf_counter() - start


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    banner("Figure 11 (verification times, seconds)")
    rows = ["refinement -O0", "refinement -O1", "refinement -O2", "safety proof"]
    emit(f"{'':<20} {'CertiKOS^s':>12} {'Komodo^s':>12}   (paper: 92/138/133/33 vs 275/309/289/477)")

    def fmt(v):
        return f"{v:.1f}" if v is not None else "-"

    for row in rows:
        c = RESULTS.get(("certikos", row))
        k = RESULTS.get(("komodo", row))
        emit(f"{row:<20} {fmt(c):>12} {fmt(k):>12}")
    ops = f"certikos ops={CERTIKOS_OPS}, komodo ops={KOMODO_OPS}"
    emit(f"(representative subset; REPRO_FULL=1 for the full grid: {ops})")


# ---------------------------------------------------------------------------
# Standalone CLI — used by the CI cache-warm job; no pytest required.


def _cli_obligation_set(quick: bool):
    return [(monitor, op) for monitor, op in grid_ops(GRID) if not quick or monitor == "certikos"]


def main(argv=None) -> int:
    import argparse
    import json
    import os

    from conftest import DEFAULT_CACHE_DIR, TRACE_ARTIFACT, runner_summary

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (0 = all cores)")
    parser.add_argument("--cache", action="store_true", help="use the persistent solver cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument("--opt", type=int, default=1, choices=[0, 1, 2])
    parser.add_argument("--quick", action="store_true", help="CertiKOS^s ops only")
    parser.add_argument(
        "--compare-sequential",
        action="store_true",
        help="also run the sequential baseline and report speedup / check verdicts",
    )
    parser.add_argument("--out", default=None, help="write the runner artifact to this path")
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect a repro.obs trace of the run (spans, counters, §3.2 regions)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help=f"write the Chrome trace JSON here (implies --trace; default {TRACE_ARTIFACT})",
    )
    args = parser.parse_args(argv)

    cache_dir = args.cache_dir if args.cache else None
    ops = _cli_obligation_set(args.quick)
    divergence = False

    tracing_on = args.trace or args.trace_out is not None
    collector = None
    if tracing_on:
        from repro.obs import tracing

        trace_ctx = tracing(absorb=False)
        collector = trace_ctx.__enter__()

    verdicts: dict[tuple, bool] = {}
    start = time.perf_counter()
    try:
        for monitor, op in ops:
            verifier = _verifier(monitor, args.opt, jobs=args.jobs, cache_dir=cache_dir)
            result = verifier.prove_op(op)
            verdicts[(monitor, op)] = result.proved
            record_runner_run(f"{monitor}.{op}.O{args.opt}", result.stats)
            print(f"  {monitor}.{op}.O{args.opt}: {'proved' if result.proved else result.describe()}")
    finally:
        if tracing_on:
            trace_ctx.__exit__(None, None, None)
    wall = time.perf_counter() - start

    summary = runner_summary()
    summary["wall_time_s"] = wall
    summary["jobs"] = args.jobs
    summary["cache"] = bool(cache_dir)

    obs_section: dict = {}
    if tracing_on:
        from repro.obs import summarize, write_chrome_trace

        obs_section = summarize(collector)
        summary["obs"] = obs_section
        trace_out = args.trace_out or TRACE_ARTIFACT
        write_chrome_trace(collector, trace_out)
        print(f"wrote {os.path.abspath(trace_out)}")
    # Per-obligation verdict map: compare_runner_runs.py asserts the
    # warm run (possibly on another machine, against an imported
    # verdict store) reproduces these verdicts exactly.
    summary["verdicts"] = {f"{monitor}.{op}": proved for (monitor, op), proved in verdicts.items()}

    if args.compare_sequential:
        seq_start = time.perf_counter()
        for monitor, op in ops:
            result = _verifier(monitor, args.opt).prove_op(op)
            if result.proved != verdicts[(monitor, op)]:
                divergence = True
                print(f"DIVERGENCE on {monitor}.{op}: sequential={result.proved} "
                      f"runner={verdicts[(monitor, op)]}")
        seq_wall = time.perf_counter() - seq_start
        summary["sequential_wall_time_s"] = seq_wall
        summary["speedup"] = seq_wall / wall if wall else 0.0
        print(f"sequential baseline: {seq_wall:.2f}s; runner: {wall:.2f}s; "
              f"speedup {summary['speedup']:.2f}x")

    print(f"obligations={summary['obligations']} wall={wall:.2f}s "
          f"cache_hit_rate={summary['cache_hit_rate']:.2%} "
          f"(cpus={os.cpu_count()}, jobs={args.jobs})")

    out = args.out or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_runner.json")
    with open(out, "w") as handle:
        json.dump(summary, handle, indent=2)
    print(f"wrote {os.path.abspath(out)}")

    # The profile-then-optimize artifact: `python -m repro.obs.report
    # BENCH_fig11.json` ranks its obligations by wall time and its
    # regions by the §3.2 score.  Always written; the obs section is
    # only populated when the run was traced.
    fig11 = {
        "wall_s": wall,
        "obligations": summary["obligations"],
        "cache_hits": summary["cache_hits"],
        "cache_hit_rate": summary["cache_hit_rate"],
        "obs": obs_section,
    }
    fig11_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_fig11.json")
    with open(fig11_path, "w") as handle:
        json.dump(fig11, handle, indent=2)
    print(f"wrote {os.path.abspath(fig11_path)}")

    if divergence:
        return 2
    if not all(verdicts.values()):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
