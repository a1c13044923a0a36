"""The BPF JIT-compiler checker (§7).

"The checker verifies a simple property: starting from a BPF state
and an equivalent machine state, the result of executing a single BPF
instruction on the BPF state should be equivalent to the machine
state resulting from executing the machine instructions produced by
the JIT for that BPF instruction."

Two instantiations: RISC-V (combining the BPF and RISC-V verifiers)
and x86-32 (combining the BPF and x86-32 verifiers).  Violations come
back as counterexamples, which is how the kernel patches' regression
tests were constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bpf.insn import BpfInsn
from ..bpf.interp import BpfState, run_insn
from ..core import EngineOptions, run_interpreter
from ..core.image import Image
from ..core.memory import Memory
from ..riscv import CpuState, RiscvInterp
from ..riscv.encode import encode as rv_encode
from ..sym import new_context, prove, sym_true
from ..x86.interp import X86State, run_insns
from .rv_jit import BPF2RV, RvJit
from .x86_jit import X86Jit, slot_hi, slot_lo

__all__ = ["CheckResult", "check_rv_insn", "check_x86_insn", "BOUNDARY_IMMS"]

# Immediate values covering the boundaries where the historical bugs
# bite: shift-amount edges, sign edges, and encoding edges.  The JIT
# compilers branch on the immediate, so each concrete value exercises
# one emission path (§7's manual translation is per-instruction too).
BOUNDARY_IMMS = [0, 1, 2, 31, 32, 33, 63, -1, -2048, 2047, 0x7FFFFFFF, -0x80000000]

SHIFT_IMMS = [0, 1, 31, 32, 33, 63]


@dataclass
class CheckResult:
    ok: bool
    insn: BpfInsn | None = None
    counterexample: object = None
    detail: str = ""

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"VIOLATION ({self.detail})"
        return f"CheckResult({self.insn!r}: {status})"


def _rv_image(insns) -> Image:
    words = {0x1000 + 4 * i: rv_encode(insn, 64) for i, insn in enumerate(insns)}
    # Terminate with mret so the engine halts.
    from ..riscv.insn import Insn

    words[0x1000 + 4 * len(insns)] = rv_encode(Insn("mret"), 64)
    return Image(base=0x1000, word_size=4, words=words, symbols=[], entry=0x1000)


def check_rv_insn(insn: BpfInsn, jit: RvJit, max_conflicts: int | None = 200_000) -> CheckResult:
    """Check one BPF instruction against the RISC-V JIT's output."""
    with new_context() as ctx:
        bpf0 = BpfState.symbolic("chk")
        # Machine state equivalent to the BPF state: mapped registers
        # hold the same 64-bit values.
        image = _rv_image(jit.emit_insn(insn))
        cpu = CpuState.symbolic(64, 0x1000, Memory([], addr_width=64), prefix="chkrv")
        for bpf_reg, rv_reg in BPF2RV.items():
            cpu.regs[rv_reg] = bpf0.regs[bpf_reg]

        bpf1 = run_insn(insn, bpf0)
        cpu1 = run_interpreter(RiscvInterp(image, xlen=64), cpu, EngineOptions(fuel=500)).merged()

        if insn.klass == 0x06:  # JMP32: compare the branch decision

            decision_bpf = bpf1.pc  # off+1 if taken else 1 (from pc=0)
            decision_rv = cpu1.regs[6]  # TMP1 holds the 0/1 decision
            taken = decision_bpf == (insn.off + 1)
            prop = taken == (decision_rv == 1)
        else:
            prop = sym_true()
            for bpf_reg, rv_reg in BPF2RV.items():
                prop = prop & (bpf1.regs[bpf_reg] == cpu1.regs[rv_reg])

        result = prove(prop, max_conflicts=max_conflicts)
    if result.proved:
        return CheckResult(True, insn)
    return CheckResult(
        False, insn, result.counterexample, detail="BPF/RISC-V state divergence"
    )


def check_x86_insn(insn: BpfInsn, jit: X86Jit, max_conflicts: int | None = 200_000) -> CheckResult:
    """Check one BPF instruction against the x86-32 JIT's output."""
    with new_context() as ctx:
        bpf0 = BpfState.symbolic("chk86")
        x86 = X86State.symbolic("chk86m")
        # Equivalence: BPF reg r lives in stack slots (lo, hi).
        for r in range(11):
            x86.stack[slot_lo(r) // 4] = bpf0.regs[r].trunc(32)
            x86.stack[slot_hi(r) // 4] = bpf0.regs[r].extract(63, 32)

        bpf1 = run_insn(insn, bpf0)
        x86_1 = run_insns(jit.emit_insn(insn), x86)

        prop = sym_true()
        for r in range(11):
            lo = x86_1.stack[slot_lo(r) // 4]
            hi = x86_1.stack[slot_hi(r) // 4]
            prop = prop & (bpf1.regs[r] == hi.concat(lo))

        result = prove(prop, max_conflicts=max_conflicts)
    if result.proved:
        return CheckResult(True, insn)
    return CheckResult(
        False, insn, result.counterexample, detail="BPF/x86-32 state divergence"
    )


def rv_alu_test_insns() -> list[BpfInsn]:
    """The instruction battery the RISC-V checker sweeps."""
    from ..bpf.insn import alu, jmp

    insns = []
    for alu64 in (True, False):
        for op in ("add", "sub", "and", "or", "xor", "mov", "neg"):
            insns.append(alu(op, 1, ("r", 2), alu64=alu64))
        for op in ("lsh", "rsh", "arsh"):
            insns.append(alu(op, 1, ("r", 2), alu64=alu64))
            for imm in SHIFT_IMMS:
                if not alu64 and imm > 31:
                    continue
                insns.append(alu(op, 1, imm, alu64=alu64))
        for op in ("add", "and", "mov"):
            for imm in (-1, 2047, -2048):
                insns.append(alu(op, 1, imm, alu64=alu64))
    for op in ("jeq", "jlt", "jge"):
        insns.append(jmp(op, 1, ("r", 2), off=3, jmp32=True))
    return insns


def x86_alu_test_insns() -> list[BpfInsn]:
    from ..bpf.insn import alu

    insns = []
    for op in ("add", "sub", "and", "or", "xor", "mov", "neg"):
        insns.append(alu(op, 1, ("r", 2), alu64=True))
        if op != "neg":
            insns.append(alu(op, 1, ("r", 2), alu64=False))
    for op in ("lsh", "rsh", "arsh"):
        for imm in SHIFT_IMMS:
            insns.append(alu(op, 1, imm, alu64=True))
        for imm in (0, 1, 31):
            insns.append(alu(op, 1, imm, alu64=False))
    for imm in (-1, 0, 0x7FFFFFFF):
        insns.append(alu("mov", 1, imm, alu64=False))
    return insns


def _sweep_one(job) -> CheckResult:
    """Worker entry for parallel sweeps (top-level for pickling)."""
    checker, jit, insn = job
    return checker(insn, jit)


def sweep(checker, jit, insns, jobs: int = 1, trace: bool | str = False) -> list[CheckResult]:
    """Run the checker over an instruction battery.

    Each instruction check is an independent proof obligation — the
    whole symbolic evaluation, not just the solve — so the sweep
    parallelizes across worker processes with ``jobs > 1`` (order of
    results matches ``insns`` either way).  The items ride the shared
    scheduler queue (``repro.core.scheduler``), so a JIT sweep and
    a monitor refinement proof submitted by the same process interleave
    on the same workers instead of fighting over separate pools.
    Checks in one process share verdicts through its session verdict
    memo (``repro.smt.solver``), so an instruction whose registers were
    redrawn is answered without a solve when its query, up to variable
    names, was already checked there.

    ``trace`` opens a ``repro.obs`` tracing session around the sweep (a
    path string writes a Chrome trace there); with scheduler dispatch
    the per-instruction checks come back as ``scheduler``-layer spans
    on their worker's track.
    """
    from ..obs import maybe_tracing

    with maybe_tracing(trace):
        if jobs != 1 and len(insns) > 1:
            from ..core.runner import parallel_map

            return parallel_map(
                _sweep_one, [(checker, jit, insn) for insn in insns], jobs=jobs
            )
        return [checker(insn, jit) for insn in insns]
