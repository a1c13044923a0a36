#!/usr/bin/env python3
"""Load/soak driver for the verification daemon (``repro.serve``).

Boots a daemon on a fresh store (or targets ``--url``), then drives it
through two phases and writes the ``BENCH_serve.json`` artifact CI
gates on:

  * **cold** — one client submits one grid job against the empty
    store: the baseline cost of actually proving everything;
  * **warm** — ``--clients`` concurrent clients (CI uses 8) each
    submit ``--rounds`` grid jobs: every job re-verifies the same
    grid, so the shared content-addressed store should answer almost
    every solver query.

Checks, all hard failures:

  * every job (cold, warm, and the in-process sequential reference)
    reports the *identical* verdict map — the daemon's determinism
    contract;
  * every job finishes ``done``;
  * warm jobs/sec must beat cold by ``--require-speedup``
    (default 2.0; the shared-cache contract.  0 disables);
  * ``/metrics`` scraped as Prometheus text *during* the warm phase
    must parse cleanly on every sample and include the
    ``repro_obligation_wall_seconds`` histogram (the last scrape is
    kept as the ``--prom-out`` artifact);
  * ``python -m repro.obs.top --once --json`` against the loaded
    daemon must report non-zero ob/s with p50 <= p99 (saved as the
    ``--top-out`` artifact).

Artifact shape::

    {"clients": 8, "rounds": 2, "grid": "fig11-quick", "opt": 1,
     "cold": {"wall_s": ..., "obligations": ..., "obligations_per_s": ...},
     "warm": {"wall_s": ..., "obligations": ..., "obligations_per_s": ...,
              "jobs": 16, "p50_ms": ..., "p99_ms": ...,
              "cache_queries": ..., "cache_hits": ...},
     "speedup": ..., "verdicts": {"certikos.get_quota": true, ...}}

``scripts/check_bench.py --serve`` compares the artifact against the
committed ``BENCH_serve_baseline.json`` (warm jobs/sec,
``warm.jobs / warm.wall_s``, must not drop more than 25%).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class _AnnouncingProcess:
    """A child process that announces its URL on stdout."""

    ANNOUNCE = "serving on "

    @staticmethod
    def argv(store_dir: str) -> list:
        raise NotImplementedError

    def __init__(self, store_dir: str, extra_env: dict | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
        )
        if extra_env:
            env.update(extra_env)
        self.process = subprocess.Popen(
            [sys.executable, *self.argv(store_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        self.url = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith(self.ANNOUNCE):
                self.url = line.split(self.ANNOUNCE, 1)[1].strip()
                break
        if self.url is None:
            self.stop()
            raise RuntimeError(
                f"{type(self).__name__} did not announce its address within 60s"
            )
        # Drain further output so the child never blocks on a full pipe.
        threading.Thread(
            target=lambda: [None for _ in self.process.stdout], daemon=True
        ).start()

    def stop(self):
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class DaemonProcess(_AnnouncingProcess):
    """A ``python -m repro.serve`` child on an ephemeral port."""

    ANNOUNCE = "serving on "

    @staticmethod
    def argv(store_dir: str) -> list:
        return ["-m", "repro.serve", "--port", "0", "--store", store_dir]


class StoreServerProcess(_AnnouncingProcess):
    """A ``python -m repro.core.store serve`` child (the shared store
    in the two-process topology)."""

    ANNOUNCE = "store serving on "

    @staticmethod
    def argv(store_dir: str) -> list:
        return ["-m", "repro.core.store", "--store", store_dir, "serve", "--port", "0"]


def _drive_job(client, grid, opt, timeout_s):
    """Submit one grid job and wait it out; returns (latency_s, final)."""
    start = time.perf_counter()
    job = client.submit_grid(grid, opt=opt)
    final = client.wait(job["id"], timeout_s=timeout_s)
    return time.perf_counter() - start, final


def _phase_summary(wall_s, finals, latencies):
    obligations = sum(f["stats"].get("obligations", 0) for f in finals)
    return {
        "wall_s": wall_s,
        "jobs": len(finals),
        "obligations": obligations,
        "obligations_per_s": obligations / wall_s if wall_s > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "cache_queries": sum(f["stats"].get("cache_queries", 0) for f in finals),
        "cache_hits": sum(f["stats"].get("cache_hits", 0) for f in finals),
    }


def _sequential_reference(grid, opt):
    """The grid's verdict map from a plain in-process sequential run
    (jobs=1, no cache) — the baseline the daemon must reproduce."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.serve.grids import run_grid

    verdicts, _ = run_grid(grid, opt=opt, jobs=1, cache_dir=None)
    return verdicts


def run_remote(args) -> int:
    """Two-process shared-store topology (``--remote``).

    One store server process holds the fleet's verdicts; daemon
    processes (with ``REPRO_REMOTE_STORE`` pointing at it) play the
    fleet.  Three phases:

      1. **warm** — a daemon on an empty local store proves the grid
         and writes back through the spool (any backlog is pushed with
         the ``store flush`` CLI after the daemon exits);
      2. **cold** — a fresh daemon on an *empty* local store re-proves
         the grid: nearly every query should be answered by the remote
         (the ≥90% combined hit-rate gate), every adopted verdict
         carrying a certificate that passes an independent
         ``checkproof --require-certs`` audit;
      3. **degraded** — the store server is killed and another cold
         daemon runs the grid: it must finish ``done`` with identical
         verdicts, remote errors counted, never raised.

    Writes ``BENCH_remote.json`` for ``check_bench.py --remote``.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.serve.client import ServeClient

    failures = []
    tmp = tempfile.TemporaryDirectory(prefix="repro-remote-load-")
    server_store = os.path.join(tmp.name, "server-store")
    print(f"booting store server (store: {server_store}) ...")
    store_server = StoreServerProcess(server_store)
    print(f"store server: {store_server.url}")
    remote_env = {
        "REPRO_REMOTE_STORE": store_server.url,
        "REPRO_REMOTE_TIMEOUT_S": "10",
        "REPRO_REMOTE_BACKOFF_S": "0.5",
    }
    artifact = {"grid": args.grid, "opt": args.opt, "store_server": store_server.url}

    def grid_phase(label, local_store, extra_env):
        daemon = DaemonProcess(local_store, extra_env=extra_env)
        try:
            client = ServeClient(daemon.url, timeout_s=args.job_timeout)
            start = time.perf_counter()
            latency, final = _drive_job(client, args.grid, args.opt, args.job_timeout)
            wall = time.perf_counter() - start
            phase = _phase_summary(wall, [final], [latency])
            phase["state"] = final["state"]
            verdicts = client.verdict_map(final["id"])
            counters = ((client.metrics().get("obs") or {}).get("counters") or {})
            phase["remote_hits"] = counters.get("store.remote.hits", 0)
            phase["remote_errors"] = counters.get("store.remote.errors", 0)
            phase["rejected_certs"] = counters.get("store.remote.rejected_certs", 0)
            queries, hits = phase["cache_queries"], phase["cache_hits"]
            phase["hit_rate"] = hits / queries if queries else 0.0
            print(
                f"{label}: state={phase['state']} "
                f"cache {hits}/{queries} ({phase['hit_rate']:.0%}), "
                f"remote hits={phase['remote_hits']} "
                f"errors={phase['remote_errors']} "
                f"rejected={phase['rejected_certs']}"
            )
            return phase, verdicts
        finally:
            daemon.stop()

    def run_cli(label, argv):
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    p
                    for p in (os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH"))
                    if p
                ),
            },
        )
        if proc.stdout.strip():
            print(proc.stdout.strip())
        if proc.returncode != 0:
            failures.append(
                f"{label} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        return proc.returncode

    try:
        # -- phase 1: warm the shared store ------------------------------
        warm_store = os.path.join(tmp.name, "warm-store")
        warm, warm_verdicts = grid_phase("warm", warm_store, remote_env)
        if warm["state"] != "done":
            failures.append(f"warm job finished {warm['state']}, expected done")
        # Push whatever the background flusher had not drained when the
        # daemon exited, then confirm the server actually holds verdicts.
        run_cli(
            "store flush",
            ["-m", "repro.core.store", "--store", warm_store, "flush",
             "--remote", store_server.url],
        )
        import urllib.request

        with urllib.request.urlopen(
            f"{store_server.url}/store/index", timeout=10
        ) as reply:
            server_entries = json.load(reply).get("entries", 0)
        warm["server_entries"] = server_entries
        print(f"store server holds {server_entries} entries after warm+flush")
        if server_entries == 0:
            failures.append("store server is empty after the warm phase + flush")
        artifact["warm"] = warm

        # -- phase 2: cold client fleet against the warm store -----------
        cold_store = os.path.join(tmp.name, "cold-store")
        cold, cold_verdicts = grid_phase("cold", cold_store, remote_env)
        if cold["state"] != "done":
            failures.append(f"cold job finished {cold['state']}, expected done")
        if cold_verdicts != warm_verdicts:
            failures.append(
                f"verdict divergence cold vs warm: {cold_verdicts} != {warm_verdicts}"
            )
        artifact["cold"] = cold
        # Every remotely adopted verdict must carry a checkable proof.
        run_cli(
            "checkproof audit",
            ["-m", "repro.smt.checkproof", "--store", cold_store, "--require-certs"],
        )

        # -- phase 3: kill the store server mid-fleet --------------------
        store_server.stop()
        print("store server killed; degraded phase ...")
        degraded_store = os.path.join(tmp.name, "degraded-store")
        degraded, degraded_verdicts = grid_phase("degraded", degraded_store, remote_env)
        degraded["verdicts_equal"] = degraded_verdicts == warm_verdicts
        if degraded["state"] != "done":
            failures.append(f"degraded job finished {degraded['state']}, expected done")
        if not degraded["verdicts_equal"]:
            failures.append(
                f"verdict divergence degraded vs warm: "
                f"{degraded_verdicts} != {warm_verdicts}"
            )
        if degraded["remote_errors"] == 0:
            failures.append(
                "degraded phase counted no store.remote.errors — the dead "
                "remote was never consulted, so degradation went untested"
            )
        artifact["degraded"] = degraded
        artifact["verdicts"] = warm_verdicts

        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"wrote {os.path.abspath(args.out)}")
    finally:
        store_server.stop()
        tmp.cleanup()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("load_serve --remote: all checks passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8, help="concurrent clients (default 8)")
    parser.add_argument("--rounds", type=int, default=2, help="grid jobs per client in the warm phase")
    parser.add_argument("--grid", default="fig11-quick")
    parser.add_argument("--opt", type=int, default=1, choices=[0, 1, 2])
    parser.add_argument("--url", default=None, help="target a running daemon instead of booting one")
    parser.add_argument("--store", default=None, help="store dir for the booted daemon (default: fresh tmpdir)")
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--prom-out",
        default="metrics.prom",
        help="file for the last mid-load Prometheus scrape ('' disables)",
    )
    parser.add_argument(
        "--top-out",
        default="top.json",
        help="file for the obs.top --once --json snapshot ('' disables)",
    )
    parser.add_argument("--job-timeout", type=float, default=300.0)
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=2.0,
        help="fail unless warm jobs/sec >= this multiple of cold (0 disables)",
    )
    parser.add_argument(
        "--skip-sequential",
        action="store_true",
        help="skip the in-process sequential verdict reference (faster)",
    )
    parser.add_argument(
        "--remote",
        action="store_true",
        help="two-process topology: a store server plus cold client "
        "daemons reading through it (writes BENCH_remote.json shape)",
    )
    args = parser.parse_args()

    if args.remote:
        return run_remote(args)

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.serve.client import ServeClient

    daemon = None
    tmp = None
    if args.url is None:
        store = args.store
        if store is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-serve-load-")
            store = os.path.join(tmp.name, "store")
        print(f"booting daemon (store: {store}) ...")
        daemon = DaemonProcess(store)
        url = daemon.url
    else:
        url = args.url
    print(f"daemon: {url}")

    failures = []
    try:
        client = ServeClient(url, timeout_s=args.job_timeout)
        health = client.healthz()
        print(
            f"healthz: ok={health['ok']} version={health.get('version', '?')} "
            f"uptime={health.get('uptime_s', 0.0):.1f}s jobs={health['jobs']}"
        )

        # -- cold phase --------------------------------------------------
        start = time.perf_counter()
        latency, final = _drive_job(client, args.grid, args.opt, args.job_timeout)
        cold_wall = time.perf_counter() - start
        cold = _phase_summary(cold_wall, [final], [latency])
        verdict_maps = {"cold[0]": client.verdict_map(final["id"])}
        states = {"cold[0]": final["state"]}
        print(
            f"cold: {cold['obligations']} obligations in {cold_wall:.2f}s "
            f"({cold['obligations_per_s']:.1f} ob/s)"
        )

        # -- warm phase: N concurrent clients ----------------------------
        warm_finals = []
        warm_latencies = []
        lock = threading.Lock()
        errors = []

        def one_client(cid):
            worker = ServeClient(url, timeout_s=args.job_timeout)
            for round_no in range(args.rounds):
                try:
                    latency, final = _drive_job(worker, args.grid, args.opt, args.job_timeout)
                except Exception as exc:
                    with lock:
                        errors.append(f"client {cid} round {round_no}: {exc}")
                    return
                with lock:
                    warm_finals.append(final)
                    warm_latencies.append(latency)
                    verdict_maps[f"warm[{cid}.{round_no}]"] = {
                        r["name"]: r["proved"]
                        for r in sorted(
                            worker.verdicts(final["id"])["verdicts"],
                            key=lambda r: r["index"],
                        )
                    }
                    states[f"warm[{cid}.{round_no}]"] = final["state"]

        # Mid-load observability scrape: while the warm fleet hammers
        # the daemon, keep pulling /metrics as Prometheus text and
        # validating every sample with the stdlib parser — concurrent
        # scrapes must never see a torn exposition.
        from repro.obs.prom import parse_prometheus

        scrape_stop = threading.Event()
        scrapes = {"count": 0, "last": None}

        def scraper():
            reader = ServeClient(url, timeout_s=30.0)
            while not scrape_stop.is_set():
                try:
                    text = reader.metrics_text()
                    parse_prometheus(text)
                except Exception as exc:
                    with lock:
                        errors.append(f"mid-load /metrics scrape: {exc}")
                    return
                with lock:
                    scrapes["count"] += 1
                    scrapes["last"] = text
                scrape_stop.wait(0.2)

        scrape_thread = threading.Thread(target=scraper, daemon=True)
        start = time.perf_counter()
        scrape_thread.start()
        threads = [
            threading.Thread(target=one_client, args=(cid,)) for cid in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        warm_wall = time.perf_counter() - start
        scrape_stop.set()
        scrape_thread.join(timeout=30)
        failures.extend(errors)
        warm = _phase_summary(warm_wall, warm_finals, warm_latencies)
        print(
            f"warm: {warm['jobs']} jobs, {warm['obligations']} obligations in "
            f"{warm_wall:.2f}s ({warm['jobs'] / warm_wall:.2f} jobs/s, "
            f"{warm['obligations_per_s']:.1f} ob/s, "
            f"p50 {warm['p50_ms']:.0f}ms, p99 {warm['p99_ms']:.0f}ms, "
            f"cache {warm['cache_hits']}/{warm['cache_queries']})"
        )

        # -- observability artifacts -------------------------------------
        if scrapes["count"] == 0:
            failures.append("no /metrics scrape completed during the warm phase")
        else:
            parsed = parse_prometheus(scrapes["last"])
            hist = parsed["histograms"].get("repro_obligation_wall_seconds")
            if hist is None:
                failures.append(
                    "mid-load scrape lacks the repro_obligation_wall_seconds histogram"
                )
            elif sum(hist["buckets"]) != hist["count"]:
                failures.append(
                    "repro_obligation_wall_seconds bucket sum != count (torn read)"
                )
            if "repro_serve_uptime_seconds" not in parsed["gauges"]:
                failures.append("mid-load scrape lacks the repro_serve_uptime_seconds gauge")
            print(f"scraped /metrics {scrapes['count']}x mid-load; every sample parsed")
            if args.prom_out:
                with open(args.prom_out, "w") as handle:
                    handle.write(scrapes["last"])
                print(f"wrote {os.path.abspath(args.prom_out)}")

        top_env = dict(os.environ)
        top_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.top", url, "--once", "--json"],
            capture_output=True, text=True, cwd=REPO_ROOT, env=top_env,
        )
        if proc.returncode != 0:
            failures.append(
                f"obs.top --once --json exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}"
            )
        else:
            entry = json.loads(proc.stdout)["endpoints"][0]
            if not entry.get("ok"):
                failures.append(f"obs.top reports the endpoint down: {entry.get('error')}")
            elif entry.get("ob_per_s", 0) <= 0:
                failures.append("obs.top reports zero obligations/sec after the load phases")
            elif entry["p50_ms"] > entry["p99_ms"]:
                failures.append(
                    f"obs.top p50 {entry['p50_ms']:.2f}ms > p99 {entry['p99_ms']:.2f}ms"
                )
            else:
                print(
                    f"obs.top: {entry['ob_per_s']:.1f} ob/s, "
                    f"p50 {entry['p50_ms']:.1f}ms, p99 {entry['p99_ms']:.1f}ms, "
                    f"workers {entry['pool_workers']}"
                )
            if args.top_out:
                with open(args.top_out, "w") as handle:
                    handle.write(proc.stdout)
                print(f"wrote {os.path.abspath(args.top_out)}")

        # -- checks ------------------------------------------------------
        for label, state in states.items():
            if state != "done":
                failures.append(f"job {label} finished {state}, expected done")
        reference = verdict_maps["cold[0]"]
        if not args.skip_sequential:
            print("sequential reference (in-process, jobs=1, no cache) ...")
            verdict_maps["sequential"] = _sequential_reference(args.grid, args.opt)
        for label, verdicts in verdict_maps.items():
            if verdicts != reference:
                failures.append(
                    f"verdict divergence in {label}: {verdicts} != {reference}"
                )

        # Jobs/sec, the unit check_bench.py --serve gates: every job
        # re-verifies the same grid, so this is the obligations/sec
        # ratio whatever a job packages.
        speedup = (warm["jobs"] / warm_wall) / (cold["jobs"] / cold_wall)
        print(f"warm/cold throughput: {speedup:.2f}x")
        if args.require_speedup and speedup < args.require_speedup:
            failures.append(
                f"warm jobs/sec only {speedup:.2f}x cold "
                f"(need >= {args.require_speedup:.2f}x): the shared cache is not working"
            )

        artifact = {
            "clients": args.clients,
            "rounds": args.rounds,
            "grid": args.grid,
            "opt": args.opt,
            "cold": cold,
            "warm": warm,
            "speedup": speedup,
            "metrics_scrapes": scrapes["count"],
            "verdicts": reference,
        }
        try:
            artifact["metrics"] = {
                key: client.metrics().get(key) for key in ("jobs", "scheduler", "store")
            }
        except Exception as exc:
            failures.append(f"metrics endpoint failed: {exc}")
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"wrote {os.path.abspath(args.out)}")
    finally:
        if daemon is not None:
            daemon.stop()
        if tmp is not None:
            tmp.cleanup()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("load_serve: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
