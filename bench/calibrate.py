"""Run the benchmark over a range of seeds and keep every result.

    python3 bench/calibrate.py --out bench/results/a.jsonl --seeds 1-10
    python3 bench/calibrate.py --out change.jsonl --seeds 3 --workloads fig11-cold

Seeds run in order; within a seed every chosen workload runs once, so a
slow spell on the machine spreads over the workloads instead of landing
on one.  Each run appends one line to ``--out``: the run's JSON result
with its workload, seed, exit code and run time, the format
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or FIRST-LAST")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        seconds = str(json.load(handle)["run_seconds"])

    status = 0
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", seconds, "--trace", args.trace]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            with open(args.out, "a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         "trace": int(args.trace), "exit": proc.returncode,
                                         "run_s": elapsed, "result": result}) + "\n")
            print(f"{workload} seed {seed}: exit {proc.returncode} in {elapsed:.1f}s", flush=True)
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr[-2000:])
    return status


if __name__ == "__main__":
    sys.exit(main())
