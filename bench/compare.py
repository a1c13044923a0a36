"""Compare two sets of benchmark runs, or summarise the spread of one.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py RUNS.jsonl

Run files are JSON lines as ``calibrate.py`` writes them.  Runs pair up
by seed, so run both sides on the same seeds, alternating which side
runs first.

With two sets, each workload x end-to-end metric row shows both sides'
median and quartiles, the share of pairs the change won, and a verdict
against the metric's bound in ``BENCHMARK.json``:

* improved: the change wins at least 9 of 10 pairs (ties count for
  neither), its median beats the parent's by more than the distance
  between the parent's quartiles, at least 10 pairs were run, and no
  more ops failed than on the parent;
* unresolved: the parent's own spread (quartile distance over median)
  is wider than the bound, unless every change run beats every parent
  run;
* regressed: the change's median is worse than the parent's by more
  than the bound;
* unchanged: otherwise.

With one set, each row shows the median, the quartiles and the spread
as a share of the median, against a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles, rel_spread  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict:
    """``{workload: [(seed, result), ...]}`` sorted by seed."""
    runs: dict = {}
    with open(path) as handle:
        for line in handle:
            doc = json.loads(line)
            if doc.get("result") is not None and not doc.get("trace"):
                runs.setdefault(doc["workload"], []).append((doc["seed"], doc["result"]))
    return {w: sorted(rs, key=lambda r: r[0]) for w, rs in runs.items()}


def verdict(parent, change, better: str, bound: float, more_failures: bool = False) -> str:
    """Verdict for paired samples ``parent[i]`` vs ``change[i]``."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and not more_failures
        and wins >= WIN_SHARE * len(pairs)
        and sign * (c_med - p_med) > q3 - q1
    ):
        return "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if rel_spread(parent) > bound and not all_better:
        return "unresolved"
    if sign * (p_med - c_med) / abs(p_med) > bound:
        return "regressed"
    return "unchanged"


def _values(runs, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for _, r in runs]


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}]"


def summarise(runs: dict, metrics: dict) -> int:
    print(f"{'workload':<14} {'metric':<20} {'n':>3} {'median [q1, q3]':>34} {'spread':>8}  bound/3")
    worst = 0
    for workload in sorted(runs):
        for name, spec in metrics.items():
            values = [v for v in _values(runs[workload], name) if v is not None]
            if not values:
                continue
            spread = rel_spread(values)
            ok = spread < spec["bound"] / 3
            worst |= not ok
            print(f"{workload:<14} {name:<20} {len(values):>3} {_fmt(values):>34} "
                  f"{spread:8.2%}  {spec['bound'] / 3:6.2%} {'ok' if ok else 'WIDE'}")
    return worst


def compare(parent: dict, change: dict, metrics: dict) -> int:
    print(f"{'workload':<14} {'metric':<20} {'pairs':>5} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        by_seed = dict(change[workload])
        pairs = [(s, r, by_seed[s]) for s, r in parent[workload] if s in by_seed]
        if not pairs:  # disjoint seeds (e.g. two calibration sets): pair in order
            pairs = [(s, r, c) for (s, r), (_, c) in zip(parent[workload], change[workload])]
        if len(pairs) < MIN_PAIRS:
            print(f"{workload}: only {len(pairs)} pairs (< {MIN_PAIRS}); no gain can be claimed")
        p_runs = [(s, p) for s, p, _ in pairs]
        c_runs = [(s, c) for s, _, c in pairs]
        more_failures = sum(c["failed"] for _, c in c_runs) > sum(p["failed"] for _, p in p_runs)
        for name, spec in metrics.items():
            measured = [(a, b) for a, b in zip(_values(p_runs, name), _values(c_runs, name))
                        if a is not None and b is not None]  # a failed run may measure nothing
            if not measured:
                continue
            p, c = [a for a, _ in measured], [b for _, b in measured]
            sign = 1.0 if spec["better"] == "higher" else -1.0
            won = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0) / len(p)
            v = verdict(p, c, spec["better"], spec["bound"], more_failures)
            regressions += v == "regressed"
            print(f"{workload:<14} {name:<20} {len(p):>5} {_fmt(p):>34} {_fmt(c):>34} "
                  f"{won:5.0%}  {v}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", help="PARENT.jsonl [CHANGE.jsonl]")
    args = parser.parse_args(argv)
    if len(args.runs) > 2:
        parser.error("give one or two run files")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    sets = [load_runs(path) for path in args.runs]
    if len(sets) == 1:
        return summarise(sets[0], metrics)
    return compare(sets[0], sets[1], metrics)


if __name__ == "__main__":
    sys.exit(main())
