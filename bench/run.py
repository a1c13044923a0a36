"""One-command benchmark of the Serval reproduction.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Workloads (see README.md for why each was chosen): ``fig11-cold``,
``longpole-cold``, ``serve-warm``, ``jit-sweep``.

An untraced run (``--trace 0``) boots the workload nine times in fresh
processes (``setup_s`` is the median), then runs as many passes of the
fixed input set as fit in ``--seconds`` at the calibrated pass time (at
least one), each in a fresh process against a fresh store; metrics are
medians over passes.  Times are scaled by the host's speed, which a
thread samples throughout (``refspeed.py``); the table also shows them
as measured.  Every verdict is checked against its known answer and the
first pass's store is audited with
``python -m repro.smt.checkproof --require-certs``.  It prints a table,
then one JSON line with the end-to-end metrics.

A traced run (``--trace 1``) runs one untraced pass and one traced pass,
writes a Chrome trace and a self-time ledger under ``bench/.work/out``,
and prints the per-layer metrics instead.

The exit code is 0 only when every verdict and audit matched.  Runs
read and write only inside the checkout (``bench/.work``), clear
``REPRO_*`` from the environment so the shipped defaults are measured,
and stop every process they start.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")

BOOTS = 9
SETUP_ALLOWANCE_S = 40.0  # pass-process boot, serve warm-up and teardown
BOOT_TIMEOUT_S = 60.0
AUDIT_TIMEOUT_S = 90.0


def metric_units(trace: bool) -> dict:
    """``{name: unit}`` of the metrics a run's JSON carries, from
    BENCHMARK.json: the end-to-end ones untraced; traced, the per-layer
    ones (the layer times every workload exercises, plus counts and
    ratios)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        catalogue = json.load(handle)
    return {m["name"]: m["unit"] for m in catalogue["per_layer" if trace else "end_to_end"]}


# Layer times (seconds) that some workload never exercises (0 there,
# printed as n/a): in the table and the ledger file only.
LEDGER_ONLY = (
    "cc.build_s",
    "runner.package_s",
    "terms.deserialize_s",
    "solver.canonicalize_s",
    "solver.lookup_s",
    "store.write_s",
    "bitblast.s",
    "sat.s",
    "proof.cert_build_s",
    "checkproof.audit_s",
    "bpf_jit.emit_s",
    "serve.submit_p50_s",
    "serve.job_run_p50_s",
    "serve.eval_s",
    "serve.http_overhead_p50_s",
)


def child_env(tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp
    return env


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else ""


def stop(proc: subprocess.Popen, terminate: bool) -> None:
    """Wait for a child started in its own session, asking it to stop
    first if ``terminate``; kill its whole process group if it hangs."""
    if terminate and proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def boot(workload: str, inputs: dict, tmp: str, env: dict) -> float:
    """Seconds from starting a fresh process until the workload is ready."""
    store = tempfile.mkdtemp(prefix="boot-", dir=tmp)
    if workload == "serve-warm":
        from repro.serve import ServeClient

        cmd = [sys.executable, "-m", "repro.serve", "--port", "0", "--store", store]
    else:
        spec = {"mode": "boot", "workload": workload, "trace": False, "store": store,
                "tmp": tmp, "inputs": inputs}
        spec_path = os.path.join(store, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        cmd = [sys.executable, CHILD, spec_path]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=ROOT, text=True, start_new_session=True)
    try:
        line = read_line(proc, BOOT_TIMEOUT_S)
        if workload == "serve-warm" and line.startswith("serving on "):
            ServeClient(line.split()[-1], timeout_s=BOOT_TIMEOUT_S).healthz()
        elif line.strip() != "ready":
            raise RuntimeError(f"{workload} boot failed: {line!r}")
        elapsed = time.perf_counter() - start
    finally:
        # The daemon stops on SIGTERM; a boot child exits by itself and
        # must not be interrupted while it joins its workers.
        stop(proc, terminate=workload == "serve-warm")
    shutil.rmtree(store, ignore_errors=True)
    return elapsed


def run_pass(workload: str, inputs: dict, tmp: str, env: dict, trace: bool, tag: str) -> dict:
    """One timed pass in a fresh process; returns its record plus the
    verdicts it decided before finishing or being killed."""
    import workloads as W

    store = tempfile.mkdtemp(prefix=f"{tag}-store-", dir=tmp)
    out_dir = os.path.join(WORK, "out")
    os.makedirs(out_dir, exist_ok=True)
    spec = {
        "mode": "pass", "workload": workload, "trace": trace, "store": store, "tmp": tmp,
        "inputs": inputs, "out": os.path.join(tmp, f"{tag}.json"),
        "dump": os.path.join(tmp, f"{tag}.daemon.json"),
        "trace_out": os.path.join(out_dir, f"{workload}.trace.json"),
        "ledger_out": os.path.join(out_dir, f"{workload}.ledger.json"),
    }
    spec_path = os.path.join(tmp, f"{tag}.spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    deadline = 3 * W.MEDIAN_WALL_S[workload] + SETUP_ALLOWANCE_S
    with open(os.path.join(tmp, f"{tag}.stderr"), "w+") as err:
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=deadline)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            print(f"{tag}: killed after the {deadline:.0f}s deadline", file=sys.stderr)
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # workers left behind by a crash
        except ProcessLookupError:
            pass
        if proc.returncode != 0:
            err.seek(0)
            print(f"{tag}: child exited {proc.returncode}\n{err.read()[-4000:]}", file=sys.stderr)
    verdicts = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "op":
            verdicts[parts[1]] = parts[2]
    record = None
    if proc.returncode == 0:
        with open(spec["out"]) as handle:
            record = json.load(handle)
    return {"record": record, "verdicts": verdicts, "store": store, "spec": spec}


def audit(store: str, env: dict) -> dict:
    """``checkproof --require-certs`` over a store written by a pass."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.smt.checkproof", "--store", store, "--require-certs"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=AUDIT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "audit_s": time.perf_counter() - start, "rejected": 0}
    rejected = sum(1 for line in proc.stderr.splitlines() if line.startswith("FAIL"))
    return {"ok": proc.returncode == 0, "audit_s": time.perf_counter() - start,
            "rejected": rejected}


def serve_lines(records: list[dict]) -> list[str]:
    """Job latency and throughput of serve-warm passes, as measured.

    Only serve-warm has jobs, so these are printed, not end-to-end
    metrics; its ``wall_s`` is 60 closed-loop jobs per client, which a
    slower job lengthens."""
    from stats import percentile, tail_percentile

    latencies = [x for r in records for x in r["job_latencies_s"]]
    tail = tail_percentile(len(latencies))  # p90 for 120 jobs
    per_s = statistics.median(r["obligations"] / r["raw_wall_s"] for r in records)
    return [
        f"job_latency_p50_s {percentile(latencies, 50)!r} s (as measured, {len(latencies)} jobs)",
        f"job_latency_p{tail:g}_s {percentile(latencies, tail)!r} s (as measured)",
        f"obligations_per_s {per_s!r} 1/s (as measured)",
    ]


def measure(args, inputs, expected, tmp, env) -> tuple[dict, list[str], int, int]:
    """Run the workload; returns (metrics, table lines, attempted, failed)."""
    import refspeed

    meter = refspeed.Speedometer().start()
    try:
        return (measure_traced if args.trace else measure_untraced)(
            args, inputs, expected, tmp, env, meter
        )
    finally:
        meter.stop()


class Judge:
    """Counts attempted and failed ops and notes what went wrong."""

    def __init__(self, expected, env) -> None:
        self.expected = expected
        self.env = env
        self.attempted = self.failed = 0
        self.lines: list[str] = []

    def verdicts(self, result: dict) -> None:
        import workloads as W

        missed = W.check_verdicts(self.expected, result["verdicts"])
        self.attempted += len(self.expected)
        self.failed += len(missed)
        for name in missed[:10]:
            self.lines.append(f"MISMATCH {name}: got {result['verdicts'].get(name, 'no verdict')}")

    def audit(self, result: dict, workload: str) -> dict | None:
        if workload == "jit-sweep" or result["record"] is None:  # no store to audit
            return None
        report = audit(result["store"], self.env)
        self.attempted += 1
        if not report["ok"]:
            self.failed += 1
            self.lines.append(f"AUDIT FAILED on {result['store']}: {report['rejected']} rejected")
        return report


def scaled(record: dict, meter) -> dict:
    """A pass record's times scaled by the host speed over its window."""
    scale = meter.scale(record["window"])
    return dict(record, scale=scale, wall_s=record["wall_s"] * scale,
                cpu_s=record["cpu_s"] * scale, raw_wall_s=record["wall_s"],
                raw_cpu_s=record["cpu_s"])


def measure_untraced(args, inputs, expected, tmp, env, meter):
    import workloads as W

    judge = Judge(expected, env)
    lines = judge.lines
    start = time.perf_counter()
    boots = [boot(args.workload, inputs, tmp, env) for _ in range(BOOTS)]
    boot_scale = meter.scale((start, time.perf_counter()))
    lines.append(f"boots as measured: {', '.join(f'{b:.3f}' for b in boots)} s; "
                 f"host speed scale {boot_scale:.3f}")
    # As many calibrated passes as fit in --seconds, at least one; a
    # fixed count keeps a run's length independent of the noise.
    n_passes = max(1, int(args.seconds // W.MEDIAN_WALL_S[args.workload]))
    records = []
    for i in range(n_passes):
        result = run_pass(args.workload, inputs, tmp, env, False, f"pass{i}")
        judge.verdicts(result)
        if i == 0:
            judge.audit(result, args.workload)
        if result["record"] is None:
            break
        records.append(scaled(result["record"], meter))
    for r in records:
        lines.append(f"pass: host speed scale {r['scale']:.3f}; wall_s {r['wall_s']:.3f} "
                     f"(as measured {r['raw_wall_s']:.3f}), cpu_s {r['cpu_s']:.3f} "
                     f"(as measured {r['raw_cpu_s']:.3f})")
    metrics = {"setup_s": statistics.median(boots) * boot_scale}
    if records:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in records)
        if args.workload == "serve-warm":
            lines.extend(serve_lines(records))
        else:
            lines.append("job_latency_p50_s, job_latency_p90_s, obligations_per_s: n/a "
                         "(serve-warm only)")
    return metrics, lines, judge.attempted, judge.failed


def measure_traced(args, inputs, expected, tmp, env, meter):
    import ledger

    judge = Judge(expected, env)
    lines = judge.lines
    base = run_pass(args.workload, inputs, tmp, env, False, "base")
    judge.verdicts(base)
    traced = run_pass(args.workload, inputs, tmp, env, True, "traced")
    judge.verdicts(traced)
    report = judge.audit(traced, args.workload)
    if base["record"] is None or traced["record"] is None:
        return {}, lines, judge.attempted, judge.failed
    base_r, traced_r = scaled(base["record"], meter), scaled(traced["record"], meter)
    metrics = dict(traced_r["layers"])
    metrics["checkproof.audit_s"] = report["audit_s"] if report else 0.0
    metrics["checkproof.rejected"] = report["rejected"] if report else 0
    metrics["obs.trace_overhead_frac"] = traced_r["wall_s"] / base_r["wall_s"] - 1.0
    led = traced_r["ledger"]
    lines.append(f"wall_s untraced {base_r['wall_s']:.3f}, traced {traced_r['wall_s']:.3f} "
                 f"(scaled by the host speed; as measured {base_r['raw_wall_s']:.3f} and "
                 f"{traced_r['raw_wall_s']:.3f}); layer times below are as measured")
    lines.append(f"ledger {'ok' if led['ok'] else 'FAILED'}: {led['misnested']} misnested spans; "
                 f"{led['unattributed_frac']:.2%} of the parent path unexplained (at most "
                 f"{ledger.TOLERANCE:.0%}); {led['worker_unattributed_frac']:.2%} of worker "
                 f"busy time {led['busy_s']:.3f}s outside the layers under the scheduler's tasks")
    for layer, secs in led["parent_s"].items():
        lines.append(f"  parent  {layer:<16} {secs:10.4f} s")
    lines.append(f"  parent  {'(unattributed)':<16} {led['unattributed_s']:10.4f} s")
    for layer, secs in led["workers_s"].items():
        lines.append(f"  workers {layer:<16} {secs:10.4f} s")
    lines.append(f"trace: {traced['spec']['trace_out']}")
    lines.append(f"ledger: {traced['spec']['ledger_out']}")
    judge.attempted += 1  # the ledger check
    judge.failed += not led["ok"]
    return metrics, lines, judge.attempted, judge.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure as many calibrated passes as fit in this time (at least 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to benchmark at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(W.WORKLOADS)}")
    inputs = W.make_inputs(args.workload, args.seed)
    expected = W.expected_verdicts(args.workload, inputs)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        metrics, lines, attempted, failed = measure(args, inputs, expected, tmp, child_env(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = metric_units(bool(args.trace))
    values = {name: metrics.get(name) for name in units}  # None: not measured (a failed pass)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6f} ({failed}/{attempted} ops)")
    for name, unit in units.items():
        print(f"{name:<34} {values[name]!r:>24} {unit}")
    if args.trace:
        for name in LEDGER_ONLY:
            value = metrics.get(name, 0.0)
            print(f"{name:<34} {value!r:>24} s" if value else f"{name:<34} {'n/a':>24}")
    correct = failed == 0 and attempted > 0
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
