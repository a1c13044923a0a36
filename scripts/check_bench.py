#!/usr/bin/env python3
"""CI perf-regression gate: compare a fresh grid run to the committed baseline.

Usage: check_bench.py CURRENT.json BASELINE.json [--max-prop-growth 0.10]
       check_bench.py --serve BENCH_serve.json BENCH_serve_baseline.json
           [--max-throughput-drop 0.25] [--min-speedup 2.0]
       check_bench.py --certs BENCH_fig11.json [--max-cert-overhead 0.10]
       check_bench.py --remote BENCH_remote.json [--min-hit-rate 0.9]

Default mode fails (nonzero exit) when the current quick-grid artifact's
``sat.propagations`` grows more than ``--max-prop-growth`` (default
10%) above the committed ``BENCH_baseline.json``.  Propagation counts
depend on the query set and the solver, not on the host, so the gate
is machine-independent; wall time is left to the ``bench/`` harness,
which scales it by measured host speed.

Both artifacts must carry an ``obs.counters`` section (run the
benchmark with ``--trace``); a missing section is a hard failure so a
silently untraced run can never pass the gate.

``--serve`` mode gates the daemon load artifact written by
``scripts/load_serve.py``:

  * warm-phase jobs/sec (``warm.jobs / warm.wall_s``) must not drop
    more than ``--max-throughput-drop`` (default 25%) below the
    committed ``BENCH_serve_baseline.json``.  The unit is the job, not
    the obligation: a job is one grid re-verified, so a daemon that
    packages fewer obligations per job for the same verdicts reads
    faster, not slower.  An artifact without ``warm.jobs`` or
    ``warm.wall_s`` is a hard failure (exit 3);
  * the warm/cold speedup must stay above ``--min-speedup`` (default
    2.0) — the shared-cache contract, machine-independent.

``--certs`` mode gates proof-certificate emission cost on one artifact:
a traced cold quick-grid run on an empty store
(``bench_fig11_verify.py --quick --cache --trace``).  The solver counts
the CPU seconds it spends building and storing certificates in
``solver.cert_build_s``; that counter must stay within
``--max-cert-overhead`` (default 10%) of the run's ``wall_s``.  The
ratio is read within the one run because differencing the walls of two
runs flakes: quick-grid walls vary more than the 10% being gated.  A run
that emitted no certificate fails, since the gate would be vacuous, and
an artifact without ``wall_s``, ``obs.counters`` or the emission counter
is a hard failure (exit 3), as a missing ``obs.counters`` section is in
the default mode.

``--remote`` mode gates the two-process shared-store artifact written
by ``scripts/load_serve.py --remote`` — no committed baseline, the
thresholds are absolute:

  * the cold client fleet (empty local store, warm remote) must reach
    ``--min-hit-rate`` (default 90%) combined cache hit rate, with
    ``store.remote.hits > 0`` proving the hits actually crossed the
    wire and ``rejected_certs == 0`` proving every adopted verdict
    carried a checkable certificate;
  * the degraded phase (store server killed) must still finish
    ``done`` with the same verdict map and ``store.remote.errors > 0``
    — the outage was real and it never escaped into a solve.
"""

import argparse
import json
import sys


def _load(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _warm_jobs_per_s(doc: dict) -> float | None:
    """``warm.jobs / warm.wall_s`` of a serve artifact, or None when
    either field is missing or the wall is not positive."""
    warm = doc.get("warm")
    if not isinstance(warm, dict):
        return None
    jobs, wall = warm.get("jobs"), warm.get("wall_s")
    if not isinstance(jobs, (int, float)) or not isinstance(wall, (int, float)) or wall <= 0:
        return None
    return jobs / wall


def check_serve(current: dict, baseline: dict, args) -> int:
    """Gate the daemon load artifact (see module docstring)."""
    failures = []
    rates = {}
    for name, doc in (("current", current), ("baseline", baseline)):
        rates[name] = _warm_jobs_per_s(doc)
        if rates[name] is None:
            print(
                f"FAIL: {name} artifact has no warm.jobs and positive warm.wall_s — "
                "generate it with scripts/load_serve.py",
                file=sys.stderr,
            )
            return 3

    cur_tput, base_tput = rates["current"], rates["baseline"]
    floor = base_tput * (1.0 - args.max_throughput_drop)
    print(f"warm jobs/sec: {cur_tput:.2f} vs baseline {base_tput:.2f} (floor {floor:.2f})")
    if cur_tput < floor:
        failures.append(
            f"warm jobs/sec dropped: {cur_tput:.2f} < {floor:.2f} "
            f"(baseline {base_tput:.2f} - {args.max_throughput_drop:.0%})"
        )

    speedup = current.get("speedup", 0.0)
    print(f"warm/cold speedup: {speedup:.2f}x (need >= {args.min_speedup:.2f}x)")
    if speedup < args.min_speedup:
        failures.append(
            f"warm/cold speedup {speedup:.2f}x below {args.min_speedup:.2f}x — "
            "concurrent clients are not sharing the verdict cache"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve perf gate holds")
    return 0


def check_certs(current: dict, args) -> int:
    """Gate certificate-emission overhead on one traced cold run (see
    module docstring)."""
    wall = current.get("wall_s")
    if not isinstance(wall, (int, float)) or wall <= 0:
        print(
            f"FAIL: {args.current} has no positive wall_s — generate it with "
            "bench_fig11_verify.py --quick",
            file=sys.stderr,
        )
        return 3
    counters = (current.get("obs") or {}).get("counters")
    if not counters:
        print(
            f"FAIL: {args.current} has no obs.counters section — run the "
            "benchmark with --trace so the gate can read the emission counter",
            file=sys.stderr,
        )
        return 3
    certs = counters.get("solver.certs", 0)
    if not certs:
        print(
            "FAIL: the run emitted no certificates — the overhead gate would "
            "be vacuous (was --cache missing, or the store already warm?)",
            file=sys.stderr,
        )
        return 1
    cert_s = counters.get("solver.cert_build_s")
    if not isinstance(cert_s, (int, float)):
        print(
            f"FAIL: {args.current} counts {certs} certificates but no "
            "solver.cert_build_s emission seconds",
            file=sys.stderr,
        )
        return 3
    overhead = cert_s / wall
    print(
        f"cert overhead: {cert_s * 1000:.0f}ms emitting {certs} certificates "
        f"in a {wall:.2f}s run = {overhead:.1%} of wall "
        f"(cap {args.max_cert_overhead:.0%})"
    )
    if overhead > args.max_cert_overhead:
        print(
            f"FAIL: certificate emission costs {overhead:.1%} wall, above the "
            f"{args.max_cert_overhead:.0%} cap",
            file=sys.stderr,
        )
        return 1
    print("cert overhead gate holds")
    return 0


def check_remote(current: dict, args) -> int:
    """Gate the two-process shared-store artifact (see module
    docstring).  Absolute thresholds, no baseline artifact."""
    failures = []
    for phase in ("warm", "cold", "degraded"):
        if not isinstance(current.get(phase), dict):
            print(
                f"FAIL: artifact has no {phase} phase — generate it with "
                "scripts/load_serve.py --remote",
                file=sys.stderr,
            )
            return 3

    cold = current["cold"]
    hit_rate = cold.get("hit_rate", 0.0)
    print(
        f"cold fleet hit rate: {hit_rate:.1%} "
        f"({cold.get('cache_hits', 0)}/{cold.get('cache_queries', 0)}, "
        f"need >= {args.min_hit_rate:.0%})"
    )
    if hit_rate < args.min_hit_rate:
        failures.append(
            f"cold fleet hit rate {hit_rate:.1%} below {args.min_hit_rate:.0%} — "
            "the shared store is not answering the fleet's queries"
        )
    remote_hits = cold.get("remote_hits", 0)
    print(f"cold store.remote.hits: {remote_hits} (need > 0)")
    if remote_hits <= 0:
        failures.append(
            "cold phase counted no store.remote.hits — the 'hits' never "
            "crossed the wire, so the topology gate is vacuous"
        )
    rejected = cold.get("rejected_certs", 0)
    if rejected:
        failures.append(
            f"cold phase rejected {rejected} remote certificates — the warm "
            "fleet pushed verdicts whose proofs do not check"
        )

    degraded = current["degraded"]
    print(
        f"degraded phase: state={degraded.get('state')} "
        f"verdicts_equal={degraded.get('verdicts_equal')} "
        f"remote_errors={degraded.get('remote_errors', 0)}"
    )
    if degraded.get("state") != "done":
        failures.append(
            f"degraded job finished {degraded.get('state')!r}, expected done — "
            "a dead store server must not take the fleet down"
        )
    if not degraded.get("verdicts_equal"):
        failures.append("degraded phase verdicts diverged from the warm phase")
    if degraded.get("remote_errors", 0) <= 0:
        failures.append(
            "degraded phase counted no store.remote.errors — the outage was "
            "never exercised"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("remote store gate holds")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh BENCH_fig11.json from this run")
    parser.add_argument(
        "baseline",
        nargs="?",
        help="committed BENCH_baseline.json (not used by --certs or --remote)",
    )
    parser.add_argument("--max-prop-growth", type=float, default=0.10)
    parser.add_argument(
        "--serve",
        action="store_true",
        help="gate a BENCH_serve.json load artifact instead of the grid benchmark",
    )
    parser.add_argument("--max-throughput-drop", type=float, default=0.25)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument(
        "--certs",
        action="store_true",
        help="gate certificate-emission overhead in CURRENT, a traced cold "
        "quick-grid run (no baseline argument)",
    )
    parser.add_argument("--max-cert-overhead", type=float, default=0.10)
    parser.add_argument(
        "--remote",
        action="store_true",
        help="gate a BENCH_remote.json shared-store artifact (absolute "
        "thresholds, no baseline argument)",
    )
    parser.add_argument("--min-hit-rate", type=float, default=0.90)
    args = parser.parse_args()

    current = _load(args.current)
    if args.remote:
        return check_remote(current, args)
    if args.certs:
        return check_certs(current, args)

    if args.baseline is None:
        parser.error("baseline artifact is required outside --certs and --remote modes")
    baseline = _load(args.baseline)

    if args.serve:
        return check_serve(current, baseline, args)

    for name, path, doc in (
        ("current", args.current, current),
        ("baseline", args.baseline, baseline),
    ):
        if not (doc.get("obs") or {}).get("counters"):
            print(
                f"FAIL: {name} artifact {path} has no obs.counters section — "
                "run the benchmark with --trace so the gate can compare "
                "propagation counts",
                file=sys.stderr,
            )
            return 3

    cur_props = current["obs"]["counters"].get("sat.propagations", 0)
    base_props = baseline["obs"]["counters"].get("sat.propagations", 0)
    prop_ceiling = base_props * (1.0 + args.max_prop_growth)
    print(f"sat.propagations: {cur_props} vs baseline {base_props} (ceiling {prop_ceiling:.0f})")
    if base_props and cur_props > prop_ceiling:
        print(
            f"FAIL: sat.propagations grew: {cur_props} > {prop_ceiling:.0f} "
            f"(baseline {base_props} + {args.max_prop_growth:.0%})",
            file=sys.stderr,
        )
        return 1
    print("perf gate holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
