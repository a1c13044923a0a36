"""One fresh process of the benchmark: a boot or a timed pass of a workload.

``run.py`` starts ``python3 bench/child.py SPEC.json``.  The spec names
the workload, its generated inputs, a store directory and where to
write results.  The process sets the workload up, prints ``ready``,
and in ``boot`` mode exits.  In ``pass`` mode it then runs the input set
once, printing ``op NAME VERDICT`` as each verdict lands, and writes
the pass's measurements as JSON to ``spec["out"]``.

The record holds the timed window as ``time.perf_counter`` values, so
``run.py`` can scale it by the host speed it sampled meanwhile
(``refspeed.py``).

With ``spec["trace"]`` it installs the span wrappers (``layers.py``)
before anything forks, records the whole process in one ``repro.obs``
session, and also writes a Chrome trace and the self-time ledger.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import ledger
import workloads as W

CLK_TCK = os.sysconf("SC_CLK_TCK")


def tree_usage(root: int) -> tuple[float, float]:
    """CPU seconds and the largest RSS high-water mark (MiB) of ``root``
    and its live descendants.  CPU includes reaped children (cutime and
    cstime), so a delta across an interval counts processes that ended
    inside it."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parent_of[int(entry)] = (int(fields[1]), fields)
    tree, frontier = {root}, [root]
    while frontier:
        pid = frontier.pop()
        for child, (ppid, _) in parent_of.items():
            if ppid == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    ticks = 0
    peak_kb = 0
    for pid in tree:
        if pid not in parent_of:
            continue
        fields = parent_of[pid][1]
        ticks += sum(int(f) for f in fields[11:15])  # utime stime cutime cstime
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            pass
    return ticks / CLK_TCK, peak_kb / 1024.0


def store_usage(path: str) -> tuple[int, int]:
    """Verdict entries and bytes (entries plus certificates) in a store."""
    entries = size = 0
    if not os.path.isdir(path):
        return 0, 0
    for shard in os.listdir(path):
        shard_dir = os.path.join(path, shard)
        if len(shard) != 2 or not os.path.isdir(shard_dir):
            continue
        for name in os.listdir(shard_dir):
            size += os.path.getsize(os.path.join(shard_dir, name))
            if name.endswith(".json") and not name.endswith(".cert.json"):
                entries += 1
    return entries, size


def emit(name: str, verdict: str) -> None:
    print(f"op {name} {verdict}", flush=True)


def pool_answering() -> None:
    """Start the shared scheduler pool and wait until both workers reply."""
    from repro.core.scheduler import get_scheduler

    get_scheduler(W.JOBS).map(abs, [-1, -2])


def scheduler_counts() -> dict:
    from repro.core.scheduler import peek_scheduler

    sched = peek_scheduler()
    telemetry = sched.telemetry() if sched else {}
    return {key: telemetry.get(key, 0) for key in ("steals", "retries", "timeouts")}


# ---------------------------------------------------------------------------
# fig11-cold and longpole-cold: prove_op over a cold store


def proofs_setup(spec: dict) -> dict:
    from repro.certikos import CertikosVerifier
    from repro.komodo import KomodoVerifier

    classes = {"certikos": CertikosVerifier, "komodo": KomodoVerifier}
    verifiers = {}
    for monitor, _, opt in spec["inputs"]["proofs"]:
        if (monitor, opt) not in verifiers:
            verifiers[(monitor, opt)] = classes[monitor](
                opt=opt, jobs=W.JOBS, cache_dir=spec["store"]
            )
    pool_answering()
    return {"verifiers": verifiers}


def proofs_timed(state: dict, spec: dict) -> dict:
    obligations = 0
    start = time.perf_counter()
    for monitor, op, opt in spec["inputs"]["proofs"]:
        result = state["verifiers"][(monitor, opt)].prove_op(op)
        emit(f"{monitor}.{op}.O{opt}", "proved" if result.proved else "not-proved")
        obligations += int(result.stats.get("obligations", 0))
    return {"window": [start, time.perf_counter()], "obligations": obligations}


# ---------------------------------------------------------------------------
# jit-sweep: the seeded battery on the fixed JITs, then the bug witnesses


def check_rv(insn, jit) -> str:
    """Verdict of one RISC-V JIT check.  Top level so the scheduler's
    workers can unpickle it; it looks the checker up at call time, so a
    traced run's wrapper (installed before the fork) is the one called."""
    from repro.bpf_jit import check_rv_insn

    return W.jit_verdict(check_rv_insn(insn, jit))


def check_x86(insn, jit) -> str:
    from repro.bpf_jit import check_x86_insn

    return W.jit_verdict(check_x86_insn(insn, jit))


def jit_setup(spec: dict) -> dict:
    from repro.bpf_jit import RV_BUGS, RvJit, X86_BUGS, X86Jit

    inputs = spec["inputs"]
    sweeps = [
        ("rv", check_rv, RvJit(), [W.decode_insn(r) for r in inputs["rv"]]),
        ("x86", check_x86, X86Jit(), [W.decode_insn(r) for r in inputs["x86"]]),
    ]
    witnesses = [(b, check_rv, RvJit(bugs={b.id})) for b in RV_BUGS]
    witnesses += [(b, check_x86, X86Jit(bugs={b.id})) for b in X86_BUGS]
    pool_answering()
    return {"sweeps": sweeps, "witnesses": witnesses}


def jit_timed(state: dict, spec: dict) -> dict:
    from repro.bpf_jit import checker

    checks = 0
    start = time.perf_counter()
    for tag, check, jit, battery in state["sweeps"]:
        for i, verdict in enumerate(checker.sweep(check, jit, battery, jobs=W.JOBS)):
            emit(f"{tag}[{i}]", verdict)
            checks += 1
    for bug, check, jit in state["witnesses"]:
        [verdict] = checker.sweep(check, jit, [bug.witness], jobs=W.JOBS)
        emit(f"witness.{bug.target}.{bug.id}", verdict)
        checks += 1
    return {"window": [start, time.perf_counter()], "obligations": checks}


# ---------------------------------------------------------------------------
# serve-warm: closed-loop clients against a daemon on a pre-warmed store


def serve_setup(spec: dict) -> dict:
    from repro.serve import ServeClient

    log = open(os.path.join(spec["tmp"], "daemon.log"), "w")
    if spec["trace"]:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "serve_traced.py"),
               "--store", spec["store"], "--dump", spec["dump"]]
    else:
        cmd = [sys.executable, "-m", "repro.serve", "--port", "0", "--store", spec["store"]]
    daemon = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True)
    state = {"daemon": daemon, "log": log}
    line = daemon.stdout.readline()
    if not line.startswith("serving on "):
        stop_daemon(state)
        raise RuntimeError(f"daemon did not start: {line!r}")
    url = line.split()[-1]
    state["url"] = url
    client = ServeClient(url)
    client.healthz()
    grid = spec["inputs"]["grid"]
    for opt in W.OPT_LEVELS:  # untimed warm-up: fill the store
        final = client.wait(client.submit_grid(grid, opt=opt)["id"])
        if job_verdict(final) != "proved":
            stop_daemon(state)
            raise RuntimeError(f"warm-up job at O{opt} did not prove: {final['state']}")
    return state


def stop_daemon(state: dict) -> None:
    daemon = state["daemon"]
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    daemon.stdout.close()
    state["log"].close()


def serve_timed(state: dict, spec: dict) -> dict:
    from repro.serve import ServeClient, ServeError

    grid = spec["inputs"]["grid"]
    records: list = []
    lock = threading.Lock()

    def client_loop(index: int, opts: list) -> None:
        client = ServeClient(state["url"])
        for j, opt in enumerate(opts):
            name = f"client{index}.job{j}.O{opt}"
            t0 = time.perf_counter()
            try:
                job_id = client.submit_grid(grid, opt=opt)["id"]
                t1 = time.perf_counter()
                final = client.wait(job_id)
            except (ServeError, OSError, ValueError) as exc:  # a failed job is a failed op
                print(f"{name}: {exc!r}", file=sys.stderr)
                with lock:
                    records.append({"t0": t0, "t2": time.perf_counter()})
                emit(name, "error")
                continue
            t2 = time.perf_counter()
            with lock:
                records.append({"t0": t0, "t1": t1, "t2": t2, "job": final})
            emit(name, job_verdict(final))

    threads = [
        threading.Thread(target=client_loop, args=(i, opts))
        for i, opts in enumerate(spec["inputs"]["clients"])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = [min(r["t0"] for r in records), max(r["t2"] for r in records)]
    done = [r for r in records if "job" in r]
    jobs = [r["job"] for r in done]
    serve = {
        "serve.submit_p50_s": _p50([r["t1"] - r["t0"] for r in done]),
        "serve.job_run_p50_s": _p50([j["finished_t"] - j["started_t"] for j in jobs]),
        "serve.eval_s": _p50([j["stats"].get("eval_wall_s", 0.0) for j in jobs]),
        "serve.http_overhead_p50_s": _p50(
            [(r["t2"] - r["t0"]) - (r["job"]["finished_t"] - r["job"]["created_t"]) for r in done]
        ),
    }
    obligations = sum(int(j["stats"].get("obligations", 0)) for j in jobs)
    return {"window": window, "obligations": obligations, "serve": serve,
            "job_latencies_s": [r["t2"] - r["t0"] for r in records]}


def job_verdict(final: dict) -> str:
    """``proved`` when a grid job finished with every op proved."""
    verdicts = final["stats"].get("verdict_map", {})
    if final["state"] != "done" or not verdicts:
        return final["state"]
    return "proved" if all(verdicts.values()) else "not-proved"


def _p50(values: list) -> float:
    from stats import percentile

    return percentile(values, 50) if values else 0.0


WORKLOAD_FNS = {
    "fig11-cold": (proofs_setup, proofs_timed),
    "longpole-cold": (proofs_setup, proofs_timed),
    "jit-sweep": (jit_setup, jit_timed),
    "serve-warm": (serve_setup, serve_timed),
}


# ---------------------------------------------------------------------------
# traced-pass accounting


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def layer_metrics(led: dict, tasks: dict, counters: dict, extra: dict) -> dict:
    """Per-layer metrics of one traced pass (see README.md for the map)."""

    def layer_s(*layers: str) -> float:
        return sum(
            led["parent_s"].get(layer, 0.0) + led["workers_s"].get(layer, 0.0) for layer in layers
        )

    hits = counters.get("solver.cache.hits", 0)
    lookups = hits + counters.get("solver.cache.misses", 0)
    return {
        "cc.build_s": extra["cc_build_s"],
        "engine.symeval_s": layer_s("core.engine", "riscv", "x86"),
        "sym.terms": counters.get("sym.terms", 0),
        "sym.merges": counters.get("sym.merges", 0),
        "spec.eval_s": layer_s("core.spec", "bpf"),
        "runner.package_s": layer_s("core.runner"),
        "runner.obligations": extra["obligations"],
        "terms.deserialize_s": layer_s("smt.terms"),
        "scheduler.wait_s": led["parent_s"].get("core.scheduler", 0.0),
        "scheduler.queue_wait_p50_s": tasks["queue_wait_p50_s"],
        "scheduler.queue_wait_p90_s": tasks["queue_wait_p90_s"],
        "scheduler.utilization": tasks["busy_s"] / (led["wall_s"] * W.JOBS),
        "scheduler.obligation_wall_max_s": tasks["obligation_wall_max_s"],
        "scheduler.steals": extra["scheduler"]["steals"],
        "scheduler.retries": extra["scheduler"]["retries"],
        "scheduler.timeouts": extra["scheduler"]["timeouts"],
        "solver.canonicalize_s": led["spans_s"].get("smt.solver:canonicalize", 0.0),
        "solver.lookup_s": led["spans_s"].get("smt.solver:cache.lookup", 0.0),
        "solver.queries": counters.get("solver.queries", 0),
        "solver.cache_hit_rate": hits / lookups if lookups else 0.0,
        "store.entries_written": extra["store"][0],
        "store.bytes_written": extra["store"][1],
        "store.write_s": layer_s("core.store"),
        "bitblast.s": layer_s("smt.bitblast"),
        "bitblast.vars": counters.get("bitblast.vars", 0),
        "bitblast.clauses": counters.get("bitblast.clauses", 0),
        "sat.s": layer_s("smt.sat"),
        "sat.propagations": counters.get("sat.propagations", 0),
        "sat.conflicts": counters.get("sat.conflicts", 0),
        "sat.decisions": counters.get("sat.decisions", 0),
        "sat.reused_clauses": counters.get("sat.reused_clauses", 0),
        "proof.cert_build_s": layer_s("smt.proof"),
        "proof.certs": counters.get("solver.certs", 0),
        "proof.cert_errors": counters.get("solver.cert_errors", 0),
        "bpf_jit.emit_s": layer_s("bpf_jit.emit"),
        **extra.get("serve", {}),
        "ledger.unattributed_s": led["unattributed_s"],
        "ledger.unattributed_frac": led["unattributed_frac"],
        "ledger.worker_unattributed_frac": led["worker_unattributed_frac"],
    }


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    workload = spec["workload"]
    setup, timed = WORKLOAD_FNS[workload]
    is_serve = workload == "serve-warm"
    traced = spec["trace"]
    collector = None
    if traced and not is_serve:  # serve-warm traces inside the daemon
        import layers
        from repro import obs

        layers.install()
        collector = obs.tracing().__enter__()
    state = setup(spec)
    print("ready", flush=True)
    if spec["mode"] == "boot":  # serve-warm boots are timed by run.py itself
        return 0

    before = {}
    if traced and is_serve:
        from repro.serve import ServeClient

        metrics_client = ServeClient(state["url"])
        before["metrics"] = metrics_client.metrics()
    elif traced:
        before["counters"] = dict(collector.counters)
        before["scheduler"] = scheduler_counts()
    store0 = store_usage(spec["store"])
    cpu0, _ = tree_usage(os.getpid())
    try:
        record = timed(state, spec)
        cpu1, peak_mb = tree_usage(os.getpid())
        store1 = store_usage(spec["store"])
        if traced and is_serve:
            after_metrics = metrics_client.metrics()
    finally:
        if is_serve:
            stop_daemon(state)
    record.update(
        wall_s=record["window"][1] - record["window"][0],
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=peak_mb,
    )

    if traced:
        from repro import obs

        if is_serve:
            with open(spec["dump"]) as handle:
                snap = json.load(handle)
            m0, m1 = before["metrics"], after_metrics
            counters = _delta(m1["obs"]["counters"], m0["obs"]["counters"])
            sched = _delta(
                {k: m1["scheduler"][k] for k in ("steals", "retries", "timeouts")}, m0["scheduler"]
            )
        else:
            snap = collector.snapshot()
            counters = _delta(collector.counters, before["counters"])
            sched = _delta(scheduler_counts(), before["scheduler"])
        window = record["window"]
        led = ledger.build(snap["spans"], window)
        tasks = ledger.task_stats(snap["spans"], window)
        cc_build_s = sum(row[4] for row in snap["spans"] if row[1] == "cc")
        extra = {
            "cc_build_s": cc_build_s,
            "obligations": record["obligations"],
            "scheduler": sched,
            "store": (store1[0] - store0[0], store1[1] - store0[1]),
            "serve": record.get("serve", {}),
        }
        record["layers"] = layer_metrics(led, tasks, counters, extra)
        record["ledger"] = led
        obs.write_chrome_trace(snap, spec["trace_out"])
        with open(spec["ledger_out"], "w") as handle:
            json.dump({"workload": workload, "ledger": led, "tasks": tasks,
                       "counters": counters, "layers": record["layers"]}, handle, indent=1)

    record.pop("serve", None)
    with open(spec["out"], "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
