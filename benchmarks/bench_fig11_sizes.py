"""E3 -- Figure 11 (upper half): sizes of the two monitors.

Paper:                     CertiKOS^s   Komodo^s
  implementation               1,988      2,310
  abs. function + rep. inv.      438        439
  functional specification       124        445
  safety properties              297        578

We report implementation size in machine instructions per optimization
level (our mini-C source is an AST, so "lines of C" has no direct
analogue) plus Python line counts for the source and the specification
artifacts.  Each monitor's source row includes the trap skeleton both
run on (``repro.riscv.trap``), except the skeleton's AF method
(``TrapMonitor.register_banks``), which the AF row counts.
The shape to match: Komodo^s has the larger implementation and a much
larger functional spec (its interface has 12 calls vs 3).
"""

import inspect
from pathlib import Path

from conftest import banner, emit, run_once

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def count(lines) -> int:
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))


def loc(path: Path) -> int:
    with open(path) as handle:
        return count(handle)


def collect():
    from repro.certikos import build_image as certikos_image
    from repro.komodo import build_image as komodo_image
    from repro.riscv.trap import TrapMonitor

    af_method = count(inspect.getsourcelines(TrapMonitor.register_banks)[0])
    rows = {}
    for monitor, image_fn in (("certikos", certikos_image), ("komodo", komodo_image)):
        base = SRC / monitor
        rows[monitor] = {
            "impl insns O0": len(image_fn(0).words),
            "impl insns O1": len(image_fn(1).words),
            "impl insns O2": len(image_fn(2).words),
            # Both monitors run on the shared trap skeleton, so each
            # implementation counts it, and each AF its AF method.
            "impl source (impl.py+layout.py+riscv/trap.py)": loc(base / "impl.py")
            + loc(base / "layout.py")
            + loc(SRC / "riscv" / "trap.py")
            - af_method,
            "AF + RI (invariants.py+TrapMonitor.register_banks)": loc(base / "invariants.py")
            + af_method,
            "functional spec (spec.py)": loc(base / "spec.py"),
            "safety/NI properties (ni.py)": loc(base / "ni.py"),
        }
    return rows


def test_fig11_sizes(benchmark):
    rows = run_once(benchmark, collect)
    banner("Figure 11 (sizes): CertiKOS^s vs Komodo^s")
    keys = list(next(iter(rows.values())).keys())
    width = max(map(len, keys))
    emit(f"{'':<{width}} {'CertiKOS^s':>12} {'Komodo^s':>12}")
    for key in keys:
        emit(f"{key:<{width}} {rows['certikos'][key]:>12} {rows['komodo'][key]:>12}")
    # Shape checks mirroring the paper's table: Komodo's implementation
    # and functional spec are the larger ones.
    assert rows["komodo"]["impl insns O1"] > rows["certikos"]["impl insns O1"]
    assert rows["komodo"]["functional spec (spec.py)"] > rows["certikos"]["functional spec (spec.py)"]
    # O0 produces more code than O1/O2 for both systems.
    for monitor in rows:
        assert rows[monitor]["impl insns O0"] > rows[monitor]["impl insns O1"]
        assert rows[monitor]["impl insns O1"] >= rows[monitor]["impl insns O2"]
