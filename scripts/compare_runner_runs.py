#!/usr/bin/env python3
"""CI cache-warm assertion: compare two BENCH_runner.json artifacts.

Usage: compare_runner_runs.py COLD.json WARM.json
           [--min-hit-rate 0.9] [--allow-slower]

Asserts the shared-verdict-store contract between a cold run and a
warm run against the same (possibly exported/imported) store:

  * neither run recorded a sequential-vs-parallel verdict divergence;
  * both runs report identical per-obligation verdicts (the scheduler's
    determinism promise, across worker interleavings, machines, and the
    store);
  * the warm run's solver-cache hit rate clears the floor;
  * the warm run was faster than the cold run — skipped with
    ``--allow-slower``, which CI uses when the two runs execute on
    different machines (a hit rate comparison stays honest across
    hosts; a wall-clock comparison does not).

Exits nonzero on any violation.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cold")
    parser.add_argument("warm")
    parser.add_argument("--min-hit-rate", type=float, default=0.9)
    parser.add_argument(
        "--allow-slower",
        action="store_true",
        help="skip the warm-faster-than-cold check (runs on different machines)",
    )
    args = parser.parse_args()

    with open(args.cold) as handle:
        cold = json.load(handle)
    with open(args.warm) as handle:
        warm = json.load(handle)

    failures = []
    for name, run in (("cold", cold), ("warm", warm)):
        if run.get("divergences"):
            failures.append(f"{name} run recorded verdict divergences: {run['divergences']}")

    cold_verdicts = cold.get("verdicts")
    warm_verdicts = warm.get("verdicts")
    if cold_verdicts is not None and warm_verdicts is not None:
        if set(cold_verdicts) != set(warm_verdicts):
            failures.append(
                "verdict maps cover different obligations: "
                f"{sorted(set(cold_verdicts) ^ set(warm_verdicts))}"
            )
        else:
            mismatched = [k for k in cold_verdicts if cold_verdicts[k] != warm_verdicts[k]]
            if mismatched:
                failures.append(f"verdicts diverged between runs: {mismatched}")

    cold_wall = cold.get("wall_time_s", 0.0)
    warm_wall = warm.get("wall_time_s", 0.0)
    if not args.allow_slower and (not warm_wall or warm_wall >= cold_wall):
        failures.append(f"warm run not faster: cold={cold_wall:.2f}s warm={warm_wall:.2f}s")

    hit_rate = warm.get("cache_hit_rate", 0.0)
    if hit_rate < args.min_hit_rate:
        failures.append(f"warm hit rate {hit_rate:.2%} below floor {args.min_hit_rate:.0%}")

    def describe(name, run):
        line = (
            f"{name}: {run.get('wall_time_s', 0.0):.2f}s "
            f"({run.get('obligations', 0)} obligations, "
            f"hit rate {run.get('cache_hit_rate', 0.0):.2%}"
        )
        if "max_queue_depth" in run:
            line += f", max queue depth {run['max_queue_depth']}"
        return line + ")"

    print(describe("cold", cold))
    print(describe("warm", warm))
    if warm_wall and cold_wall:
        print(f"speedup {cold_wall / warm_wall:.2f}x")
    for name, path, run in (("cold", args.cold, cold), ("warm", args.warm, warm)):
        if not (run.get("obs") or {}).get("counters"):
            print(
                f"FAIL: {name} artifact {path} has no obs section — "
                "re-run with --trace so the counter diff can be checked",
                file=sys.stderr,
            )
            return 4
    diff_obs(cold, warm)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("cache-warm contract holds")
    return 0


def diff_obs(cold: dict, warm: dict) -> None:
    """Informational diff of the two runs' ``obs`` counter sections.

    A warm run re-solves nothing, so its SAT-layer work (conflicts,
    decisions, learned clauses) should drop to ~zero while the
    solver-cache hit counters rise — this prints the counters whose
    values moved so that regression is visible in the CI log.  Purely
    informational: timings and absolute counts legitimately differ
    between machines, so nothing here fails the comparison.
    """
    cold_counters = (cold.get("obs") or {}).get("counters") or {}
    warm_counters = (warm.get("obs") or {}).get("counters") or {}
    print("obs counter deltas (cold -> warm):")
    for name in sorted(set(cold_counters) | set(warm_counters)):
        before = cold_counters.get(name, 0)
        after = warm_counters.get(name, 0)
        if before != after:
            print(f"  {name:<40} {before:>12} -> {after:<12}")


if __name__ == "__main__":
    sys.exit(main())
