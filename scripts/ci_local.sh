#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml: same jobs, same commands,
# on whatever Python is installed.  Run from the repository root:
#
#     bash scripts/ci_local.sh [--skip-slow]
#
# The lint job needs ruff; when it is not installed the job is skipped
# with a warning instead of failing (CI always runs it).
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH=src

skip_slow=0
for arg in "$@"; do
    case "$arg" in
        --skip-slow) skip_slow=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

failures=0
run_job() {
    local name="$1"; shift
    echo
    echo "=== job: $name ==="
    if "$@"; then
        echo "=== job: $name OK ==="
    else
        echo "=== job: $name FAILED ==="
        failures=$((failures + 1))
    fi
}

# -- lint ------------------------------------------------------------
if command -v ruff >/dev/null 2>&1; then
    run_job lint ruff check .
else
    echo "=== job: lint SKIPPED (ruff not installed; CI runs it) ==="
fi

# -- test-fast -------------------------------------------------------
run_job test-fast python -m pytest -x -q -m "not slow"
run_job test-fast-bench python -m pytest -x -q bench/tests
# Figure 11's size rows and shape checks (needs pytest-benchmark).
run_job test-fast-sizes python -m pytest -x -q benchmarks/bench_fig11_sizes.py
# Figure 7's line counts and shape check (needs pytest-benchmark).
run_job test-fast-loc python -m pytest -x -q benchmarks/bench_fig7_loc.py

# -- test-slow -------------------------------------------------------
if [ "$skip_slow" -eq 1 ]; then
    echo "=== job: test-slow SKIPPED (--skip-slow) ==="
else
    run_job test-slow python -m pytest -x -q -m slow
fi

# -- sat-stress ------------------------------------------------------
# DIMACS corpus verdicts (arena / arena-nochrono vs `c expect`), equal
# obligation verdicts on a shared session, a per-obligation reset
# session and the scheduler, a malformed-payload and timeout batch that
# reduces alike at jobs=1 and jobs=2 (statuses, worker_error,
# timed_out, retries, timeouts), a batch of task messages over 64 KiB
# each that reduces alike at jobs=1 and jobs=2 (at jobs=2 every one
# run on a worker), lookups where a task is
# dispatched (a jobs=1 store answering the jobs=2 batch with no task on
# a worker, two copies of a searched query writing one certificate at
# jobs=2, a no-store repeat at jobs=2 answered from the parent's memo),
# a pool whose idle worker is SIGKILLed between two batches giving the
# second batch the jobs=1 verdicts, equal JIT verdicts with and without the
# session's verdict memo and in reverse order on one shared session, the
# certificate audit, a jobs=1 store that
# answers every obligation at jobs=2, and the long pole's split into
# proved piece obligations under an audited split certificate.
run_job sat-stress python scripts/sat_stress.py

# -- grid-cold / grid-warm -------------------------------------------
# Mirrors CI's two-job shared-store pipeline: the cold "machine" runs
# the Figure 11 quick grid and exports its verdict store as a tar.gz;
# the warm "machine" (a separate empty store directory) imports it and
# must hit >= 90% without re-proving anything.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
run_job grid-cold python benchmarks/bench_fig11_verify.py \
    --jobs 2 --cache --cache-dir "$tmp/store-cold" \
    --quick --compare-sequential --out "$tmp/cold.json" \
    --trace --trace-out "$tmp/trace.json"
run_job grid-perf-gate python scripts/check_bench.py \
    BENCH_fig11.json BENCH_baseline.json
run_job grid-checkproof python -m repro.smt.checkproof --store "$tmp/store-cold" --require-certs
run_job grid-cert-overhead python scripts/check_bench.py --certs BENCH_fig11.json
run_job grid-trace-smoke python scripts/check_trace.py "$tmp/trace.json"
run_job grid-profile-report python -m repro.obs.report BENCH_fig11.json
# The region table must have an engine.step row (CI's "Profile report").
has_engine_step_row() {
    python -m repro.obs.report BENCH_fig11.json --json | python -c "import json, sys; rows = json.load(sys.stdin)['regions']; sys.exit(0 if any(r['name'] == 'engine.step' and r['calls'] > 0 for r in rows) else 'no engine.step region row in BENCH_fig11.json')"
}
run_job grid-profile-regions has_engine_step_row
run_job grid-cold-export python -m repro.core.store \
    --store "$tmp/store-cold" export "$tmp/verdicts.tar.gz"
run_job grid-store-stats python -m repro.core.store --store "$tmp/store-cold" stats
run_job grid-warm-import python -m repro.core.store \
    --store "$tmp/store-warm" import "$tmp/verdicts.tar.gz"
run_job grid-warm python benchmarks/bench_fig11_verify.py \
    --jobs 2 --cache --cache-dir "$tmp/store-warm" \
    --quick --out "$tmp/warm.json" \
    --trace --trace-out "$tmp/warm_trace.json"
run_job grid-assert python scripts/compare_runner_runs.py \
    "$tmp/cold.json" "$tmp/warm.json" --allow-slower

# -- serve-load ------------------------------------------------------
# Boots the repro.serve daemon on a fresh store, drives 8 concurrent
# clients through the quick grid (cold then warm), checks verdict maps
# against the sequential run, and gates warm jobs/s + the >= 2x
# shared-cache speedup against the committed baseline.  Mid-load it
# scrapes /metrics as Prometheus text (every sample must parse) and
# finishes with an obs.top --once --json snapshot (non-zero ob/s,
# p50 <= p99) — both checks live inside load_serve.py.
run_job serve-load python scripts/load_serve.py \
    --clients 8 --out "$tmp/BENCH_serve.json" \
    --prom-out "$tmp/metrics.prom" --top-out "$tmp/top.json"
run_job serve-perf-gate python scripts/check_bench.py --serve \
    "$tmp/BENCH_serve.json" BENCH_serve_baseline.json

# -- store-remote ----------------------------------------------------
# Distributed store: fault-injection suite, then the two-process
# topology (store server + cold client daemons) gated on >= 90% cold
# hit rate and clean degradation when the server is killed.
run_job store-remote-tests python -m pytest -x -q tests/test_remote_store.py
run_job store-remote-topology python scripts/load_serve.py \
    --remote --out "$tmp/BENCH_remote.json"
run_job store-remote-gate python scripts/check_bench.py \
    --remote "$tmp/BENCH_remote.json"

echo
if [ "$failures" -gt 0 ]; then
    echo "ci_local: $failures job(s) failed"
    exit 1
fi
echo "ci_local: all jobs passed"
