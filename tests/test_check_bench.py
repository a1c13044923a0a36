"""The certificate-overhead and serve gates of ``scripts/check_bench.py``.

``--certs`` reads one traced cold quick-grid artifact and divides the
solver's ``solver.cert_build_s`` emission counter by the run's
``wall_s``.  ``--serve`` compares warm jobs/sec (``warm.jobs /
warm.wall_s``) against a baseline artifact and reads the warm/cold
speedup.  These cases pin the exit codes on small synthetic artifacts:
0 holds, 1 fails the gate, 3 is an artifact the gate cannot read a
rate from.
"""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "check_bench.py"
)


def _artifact(wall_s=1.0, **counters):
    return {"wall_s": wall_s, "obs": {"counters": counters}}


CASES = {
    "under-cap": (_artifact(**{"solver.certs": 42, "solver.cert_build_s": 0.05}), 0),
    "above-cap": (_artifact(**{"solver.certs": 42, "solver.cert_build_s": 0.15}), 1),
    # Traced, so other counters are there, but nothing was emitted.
    "no-certificates": (_artifact(**{"solver.certs": 0, "sat.propagations": 9}), 1),
    "zero-wall": (_artifact(0.0, **{"solver.certs": 42, "solver.cert_build_s": 0.05}), 3),
    "no-wall": ({"obs": {"counters": {"solver.certs": 42, "solver.cert_build_s": 0.05}}}, 3),
    "no-emission-counter": (_artifact(**{"solver.certs": 42}), 3),
    "untraced": ({"wall_s": 1.0}, 3),
}


def _run(*args):
    return subprocess.run(
        [sys.executable, SCRIPT, *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_cert_gate_exit_code(tmp_path, case):
    doc, code = CASES[case]
    path = tmp_path / "BENCH_fig11.json"
    path.write_text(json.dumps(doc))
    proc = _run("--certs", str(path))
    assert proc.returncode == code, proc.stdout + proc.stderr


def _serve(jobs=16, wall_s=3.6, obligations_per_s=300.0, speedup=5.0):
    warm = {"obligations_per_s": obligations_per_s}
    if jobs is not None:
        warm["jobs"] = jobs
    if wall_s is not None:
        warm["wall_s"] = wall_s
    return {"warm": warm, "speedup": speedup}


# The baseline: 16 jobs in 3.6 s, 4.44 jobs/s, so the floor is 3.33.
SERVE_CASES = {
    "holds": (_serve(), 0),
    # Half the obligations per job: ob/s under the baseline's, jobs/s above.
    "fewer-obligations-per-job": (_serve(jobs=16, wall_s=2.9, obligations_per_s=193.1), 0),
    # 16 jobs in 6 s is 2.67 jobs/s, whatever the obligation rate reads.
    "jobs-per-s-below-floor": (_serve(jobs=16, wall_s=6.0, obligations_per_s=2000.0), 1),
    "speedup-below-min": (_serve(speedup=1.5), 1),
    "no-jobs": (_serve(jobs=None), 3),
    "no-wall": (_serve(wall_s=None), 3),
    "zero-wall": (_serve(wall_s=0.0), 3),
}


@pytest.mark.parametrize("case", sorted(SERVE_CASES))
def test_serve_gate_exit_code(tmp_path, case):
    doc, code = SERVE_CASES[case]
    current = tmp_path / "BENCH_serve.json"
    current.write_text(json.dumps(doc))
    baseline = tmp_path / "BENCH_serve_baseline.json"
    baseline.write_text(json.dumps(_serve()))
    proc = _run("--serve", str(current), str(baseline))
    assert proc.returncode == code, proc.stdout + proc.stderr


def test_serve_gate_reads_the_baselines_jobs_per_s(tmp_path):
    """A baseline without ``warm.jobs`` is unreadable too (exit 3)."""
    current = tmp_path / "BENCH_serve.json"
    current.write_text(json.dumps(_serve()))
    baseline = tmp_path / "BENCH_serve_baseline.json"
    baseline.write_text(json.dumps(_serve(jobs=None)))
    proc = _run("--serve", str(current), str(baseline))
    assert proc.returncode == 3, proc.stdout + proc.stderr
