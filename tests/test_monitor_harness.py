"""The monitor verifier (``repro.riscv.monitor``), the trap skeleton
(``repro.riscv.trap``) and the grid table.

Both monitors are declared to one harness on one skeleton; these checks
need no proof of a monitor call, so they run in the fast tier.
"""

from collections import Counter
import importlib
import os
import re
import subprocess
import sys

import pytest

from repro.riscv import MonitorVerifier
from repro.riscv.monitor import A0, A1, A2, A7
from repro.riscv.trap import S_MODE_START
from repro.serve.grids import GRIDS, verifier_class
from repro.sym import bv_val, new_context, prove

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MONITORS = ["certikos", "komodo"]


@pytest.mark.parametrize("monitor", MONITORS)
def test_monitor_subclasses_the_harness(monitor):
    assert issubclass(verifier_class(monitor), MonitorVerifier)


@pytest.mark.parametrize(
    "monitor, first, second",
    [("certikos", "spawn", "get_quota"), ("komodo", "map_secure", "enter")],
)
def test_two_refinements_keep_their_own_cpu(monitor, first, second):
    """A refinement's spec step reads the call's arguments from the
    state its own ``make_impl`` built, even after another refinement
    of the same verifier has built one."""
    verifier = verifier_class(monitor)(opt=1)
    r1, r2 = verifier.refinement(first), verifier.refinement(second)
    with new_context():
        cpu1 = r1.make_impl()
        cpu2 = r2.make_impl()
        assert cpu1.reg(A0).term is not cpu2.reg(A0).term
        s = r1.abstract(cpu1)
        spec = verifier.OPERATIONS[first][1]
        expected = spec(s, cpu1.reg(A0), cpu1.reg(A1), cpu1.reg(A2))
        assert prove(r1.spec_step(s).eq(expected)).proved


def test_full_grid_holds_each_operation_once():
    """``GRIDS`` is the one op table the daemon and the Figure 11
    benchmark read, so the full grid must be each interface exactly."""
    grid = GRIDS["fig11-full"]
    assert {monitor for monitor, _ in grid} == set(MONITORS)
    for monitor in MONITORS:
        ops = Counter(op for m, op in grid if m == monitor)
        assert ops == Counter(list(verifier_class(monitor).OPERATIONS))


def _uncleared(final, keep=()) -> list[int]:
    """The registers among x1-x31, outside ``keep``, that may be nonzero."""
    return [num for num in range(1, 32) if num not in keep and not prove(final.reg(num) == 0).proved]


@pytest.mark.parametrize("monitor", MONITORS)
def test_af_register_banks(monitor):
    """On a concrete trap state, the AF's saved-register banks
    (``TrapMonitor.register_banks``) are the live registers for the
    current context and ``pcb[c]`` for every other context c."""
    verifier = verifier_class(monitor)(opt=1)
    monitor_decl = importlib.import_module(f"repro.{monitor}.impl").MONITOR
    saved = monitor_decl.saved_regs
    xlen, word = verifier.XLEN, verifier.XLEN // 8
    ncontexts = len(verifier.initial_spec_state().regs) // len(saved)
    current = 1
    with new_context():
        cpu = verifier.make_cpu()
        index = cpu.mem.region(monitor_decl.pcb_index).base
        cpu.mem.store(bv_val(index, xlen), bv_val(current, xlen))
        pcb = cpu.mem.region("pcb").base
        for j, (_, num) in enumerate(saved):
            cpu.set_reg(num, bv_val(100 + j, xlen))
            for c in range(ncontexts):
                addr = pcb + c * monitor_decl.pcb_stride + word * j
                cpu.mem.store(bv_val(addr, xlen), bv_val(1000 * (c + 1) + j, xlen))
        banks = monitor_decl.register_banks(cpu, bv_val(current, xlen))
        af_banks = verifier.abstract(cpu).regs
    expected = [
        100 + j if c == current else 1000 * (c + 1) + j
        for c in range(ncontexts)
        for j in range(len(saved))
    ]
    assert [r.as_int() for r in banks] == expected
    assert [r.as_int() for r in af_banks] == expected


@pytest.mark.parametrize("opt", [0, 1, 2])
@pytest.mark.parametrize("monitor", MONITORS)
def test_trap_exit_clears_unsaved_registers(monitor, opt):
    """One trap per call number, and one outside the interface, ends
    at ``mret`` with every register outside the saved set zero.  No
    proof checks this: the AF reads only the saved registers."""
    verifier = verifier_class(monitor)(opt=opt)
    saved = {num for _, num in importlib.import_module(f"repro.{monitor}.layout").SAVED_REGS}
    numbers = [number for number, _ in verifier.OPERATIONS.values() if number is not None]
    for a7 in numbers + [max(numbers) + 1]:
        with new_context():
            cpu = verifier.make_cpu()
            cpu.set_reg(A7, bv_val(a7, verifier.XLEN))
            final = verifier.run(cpu)
            assert final.exited
            assert _uncleared(final, saved) == [], f"a7={a7}"


@pytest.mark.parametrize("opt", [0, 1, 2])
@pytest.mark.parametrize("monitor", MONITORS)
def test_boot_clears_registers_and_enters_s_mode(monitor, opt):
    """Boot ends at ``mret`` into the S-mode start with x1-x31 zero
    (``prove_boot`` checks mtvec and the initial state)."""
    verifier = verifier_class(monitor)(opt=opt)
    with new_context():
        cpu = verifier.make_cpu()
        cpu.pc = bv_val(verifier.boot_address(), verifier.XLEN)
        final = verifier.run(cpu)
        assert final.exited
        assert prove(final.csr("mepc") == S_MODE_START).proved
        assert _uncleared(final) == []


@pytest.mark.parametrize("first", ["repro.cc", "repro.riscv", "repro.certikos", "repro.komodo"])
def test_packages_import_in_any_order(first):
    """``repro.riscv.trap`` compiles with ``repro.cc``, whose code
    generator imports ``repro.riscv.asm``: exporting the skeleton from
    ``repro.riscv`` would be an import cycle that fails in some orders."""
    code = f"import {first}; import repro.cc, repro.riscv, repro.certikos, repro.komodo"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def fingerprint() -> str:
    """What ``scripts/obligation_fingerprint.py`` prints (about 2 s)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "obligation_fingerprint.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_obligation_fingerprint_script_runs(fingerprint):
    """``scripts/obligation_fingerprint.py`` reads the verifiers, the
    grid table and the runner by name, so a rename fails here rather
    than in the script."""
    images = re.findall(r"^image \w+ O[012] sha256=[0-9a-f]{64} boot=0x[0-9a-f]+$", fingerprint, re.M)
    assert len(images) == 6
    [count] = re.findall(
        r"^obligations fig11-full O0-O2 count=(\d+) sha256=[0-9a-f]{64}$", fingerprint, re.M
    )
    assert int(count) > 0
    # One invariant-preservation obligation per spec call: CertiKOS^s
    # 4, Komodo^s 13, Keystone 5.
    [count] = re.findall(r"^spec invariants count=(\d+) sha256=[0-9a-f]{64}$", fingerprint, re.M)
    assert int(count) == 22


def test_obligation_fingerprint_matches_pinned(fingerprint):
    """Every image, obligation and spec invariant is the one pinned in
    ``tests/data/obligation_fingerprint.txt``: equal lines mean equal
    binaries and queries, hence equal digests, verdicts and store bytes.
    A change that alters one on purpose updates the file in the same
    commit and says why in CHANGES.md."""
    with open(os.path.join(ROOT, "tests", "data", "obligation_fingerprint.txt")) as handle:
        pinned = handle.read().splitlines()
    assert fingerprint.splitlines() == pinned
