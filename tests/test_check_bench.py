"""The certificate-overhead gate, ``scripts/check_bench.py --certs``.

The gate reads one traced cold quick-grid artifact and divides the
solver's ``solver.cert_build_s`` emission counter by the run's
``wall_s``.  These cases pin its exit codes on small synthetic
artifacts: 0 holds, 1 fails the gate, 3 is an artifact the gate cannot
read a ratio from.
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_cert_gate_exit_code(tmp_path, case):
    doc, code = CASES[case]
    path = tmp_path / "BENCH_fig11.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--certs", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
