"""The x86-32 JIT's 64-bit add/sub carry chains (§7): each check folds
while bit-blasting, and a wrong carry is still caught.

The JIT lowers a 64-bit add to ``add``+``adc`` and a sub to
``sub``+``sbb`` over register pairs.  The bit-blaster blasts the carry
flag as the carry-in of the high word's chain, so the pair shares every
gate with the BPF side's 64-bit chain and the equivalence needs no SAT
search.  These are fast-tier tests: a blaster change that loses the
fusion fails here instead of doubling the JIT sweep.
"""

import dataclasses

import pytest

from repro import obs
from repro.bpf.insn import alu
from repro.bpf_jit import X86Jit, check_x86_insn
from repro.smt.solver import reset_incremental_session

SOURCES = [("r", 2), -1, 2047, 0x7FFFFFFF, -0x80000000]


class HighWordJit(X86Jit):
    """The fixed JIT with the high word of one 64-bit op lowered by
    ``hi_op`` where the fixed JIT emits ``adc``/``sbb``."""

    def __init__(self, op: str, hi_op: str):
        super().__init__()
        self.op, self.hi_op = op, hi_op

    def _emit_alu64(self, insn):
        out = super()._emit_alu64(insn)
        if insn.op_name != self.op:
            return out
        return [
            dataclasses.replace(x, mnemonic=self.hi_op) if x.mnemonic in ("adc", "sbb") else x
            for x in out
        ]


def _source_id(src) -> str:
    return "reg" if isinstance(src, tuple) else f"imm{src}"


@pytest.mark.parametrize("src", SOURCES[:3], ids=_source_id)
@pytest.mark.parametrize(
    "op, hi_op",
    [("add", "add"), ("sub", "sub"), ("sub", "adc")],
    ids=["add-drops-carry", "sub-drops-borrow", "adc-after-sub"],
)
def test_wrong_high_word_carry_is_caught(op, hi_op, src):
    insn = alu(op, 1, src, alu64=True)
    result = check_x86_insn(insn, HighWordJit(op, hi_op))
    assert not result.ok and result.counterexample is not None
    bound = {name.split("!")[0] for name, _ in result.counterexample.items()}
    assert "chk86.r1" in bound
    if insn.src_is_reg:
        assert "chk86.r2" in bound


GUARDED = [(op, src) for op in ("add", "sub") for src in SOURCES] + [("neg", ("r", 2))]


@pytest.mark.parametrize(
    "op, src", GUARDED, ids=[f"{op}-{_source_id(src)}" for op, src in GUARDED]
)
def test_fixed_64bit_checks_need_no_search(op, src):
    """Each check in a fresh session: the miter folds to false while
    blasting, so the solver meets no conflict."""
    reset_incremental_session()
    with obs.tracing() as col:
        result = check_x86_insn(alu(op, 1, src, alu64=True), X86Jit())
    assert result.ok
    assert col.counters.get("sat.conflicts", 0) == 0
