"""The monitor verifier (``repro.riscv.monitor``) and the grid table.

Both monitors are declared to one harness; these checks need no proof
of a monitor call, so they run in the fast tier.
"""

from collections import Counter

import pytest

from repro.riscv import MonitorVerifier
from repro.riscv.monitor import A0, A1, A2
from repro.serve.grids import GRIDS, verifier_class
from repro.sym import new_context, prove

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
