"""The benchmark harness's traced mode (``bench/run.py --trace 1``)
wraps program callables by attribute name (``bench/layers.py``), so a
rename in ``src/`` must fail here rather than first in a traced run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layers_install_finds_every_wrapped_callable():
    path = os.pathsep.join(os.path.join(ROOT, part) for part in ("bench", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install()"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
