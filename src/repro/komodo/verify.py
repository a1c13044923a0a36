"""Komodo^s verification driver (§6.3, §6.4)."""

from __future__ import annotations

from dataclasses import dataclass, field
import time

from ..core import EngineOptions, Refinement, run_interpreter
from ..core.image import build_memory
from ..core.memory import MemoryOptions
from ..core.symopt import SymOptConfig
from ..riscv import CpuState, RiscvInterp
from ..sym import ProofResult, bv_val
from .impl import CALL_NAMES, build_image
from .invariants import abstract, rep_invariant
from .layout import XLEN
from .spec import SPEC_CALLS

__all__ = ["KomodoVerifier", "verify_all", "prove_boot", "OPERATIONS"]

A7 = 17
A0, A1, A2 = 10, 11, 12

OPERATIONS = {name: SPEC_CALLS[name] for name in list(CALL_NAMES) + ["invalid"]}


@dataclass
class KomodoVerifier:
    opt: int = 1
    symopts: SymOptConfig = field(default_factory=SymOptConfig)
    fuel: int = 10_000
    max_conflicts: int | None = None
    timeout_s: float | None = None
    # Proof-obligation scheduling knobs: with jobs > 1 the refinement
    # VCs feed the process-wide scheduler pool, and cache_dir names
    # the shared content-addressed verdict store (repro.core.scheduler,
    # repro.core.store).
    jobs: int = 1
    cache_dir: str | None = None

    def __post_init__(self):
        self.image = build_image(self.opt)
        self.interp = RiscvInterp(self.image, xlen=XLEN)

    def make_cpu(self) -> CpuState:
        mem_opts = MemoryOptions(concretize_offsets=self.symopts.concretize_offsets)
        mem = build_memory(self.image, opts=mem_opts, addr_width=XLEN)
        return CpuState.symbolic(XLEN, self.image.base, mem, prefix="komodo")

    def refinement(self, op: str) -> Refinement:
        call_no, spec_fn = OPERATIONS[op]

        def make_impl():
            cpu = self.make_cpu()
            if call_no is not None and self.symopts.split_cases:
                cpu.set_reg(A7, bv_val(call_no, XLEN))
            self._cpu = cpu
            return cpu

        def impl_step(cpu):
            return run_interpreter(
                self.interp, cpu, EngineOptions(split_pc=self.symopts.split_pc, fuel=self.fuel)
            ).merged()

        def spec_step(s):
            cpu = self._cpu
            return spec_fn(s, cpu.reg(A0), cpu.reg(A1), cpu.reg(A2))

        def extra(cpu):
            a7 = cpu.reg(A7)
            if op == "invalid":
                cond = a7 >= len(CALL_NAMES)
            else:
                cond = a7 == call_no
            return cond

        return Refinement(
            name=f"komodo.{op}.O{self.opt}",
            make_impl=make_impl,
            impl_step=impl_step,
            spec_step=spec_step,
            abstract=abstract,
            rep_invariant=rep_invariant,
            extra_assumptions=extra,
        )

    def prove_op(self, op: str) -> ProofResult:
        """Prove refinement for one monitor call.  It records into the
        caller's tracing session, if one is open (``repro.obs``)."""
        return self.refinement(op).prove(
            max_conflicts=self.max_conflicts,
            timeout_s=self.timeout_s,
            jobs=self.jobs,
            cache_dir=self.cache_dir,
        )


def prove_boot(opt: int = 1, max_conflicts: int | None = None) -> ProofResult:
    """Verify Komodo^s boot: from reset, the host context with an empty
    page database — the initial specification state."""
    from ..core import run_interpreter as _run
    from ..sym import bv_val as _bv, new_context, verify_vcs
    from . import impl as impl_mod
    from .invariants import abstract as _abstract, rep_invariant as _ri
    from .layout import HOST, NENC, NPAGES, NSAVED
    from .spec import KomodoState

    verifier = KomodoVerifier(opt=opt)
    with new_context() as ctx:
        cpu = verifier.make_cpu()
        cpu.pc = _bv(impl_mod.boot_address(opt), XLEN)
        final = _run(verifier.interp, cpu, EngineOptions(fuel=verifier.fuel)).merged()
        init = KomodoState.__new__(KomodoState)
        init.cur = _bv(HOST, XLEN)
        init.enc_state = [_bv(0, XLEN) for _ in range(NENC)]
        init.pg_type = [_bv(0, XLEN) for _ in range(NPAGES)]
        init.pg_owner = [_bv(0, XLEN) for _ in range(NPAGES)]
        init.pg_content = [_bv(0, XLEN) for _ in range(NPAGES)]
        init.regs = [_bv(0, XLEN) for _ in range((NENC + 1) * NSAVED)]
        ctx.assert_prop(_ri(final), "boot establishes RI")
        ctx.assert_prop(_abstract(final).eq(init), "boot abstracts to the initial spec state")
        ctx.assert_prop(final.csr("mtvec") == verifier.image.base, "mtvec points at the trap entry")
        return verify_vcs(ctx, max_conflicts=max_conflicts)


def verify_all(
    opt: int = 1,
    symopts: SymOptConfig | None = None,
    ops: list[str] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
):
    """Prove refinement for the monitor interface (all calls by default).

    The calls are proved one after another.  With ``jobs > 1`` each
    call's obligations run on the process-wide scheduler's workers, but
    ``prove_op`` evaluates the call, dispatches its obligations and
    waits for their verdicts before the next call starts, so the pool
    drains between calls.
    To trace the sweep, call it inside ``with obs.tracing() as col:``.
    """
    verifier = KomodoVerifier(
        opt=opt, symopts=symopts or SymOptConfig(), jobs=jobs, cache_dir=cache_dir
    )
    results = {}
    for op in ops or OPERATIONS:
        start = time.perf_counter()
        results[op] = (verifier.prove_op(op), time.perf_counter() - start)
    return results
