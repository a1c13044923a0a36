"""CertiKOS^s verification driver (§6.2, §6.4).

Builds the monitor binary at a chosen optimization level, runs the
RISC-V verifier over each trap path, and proves lock-step refinement
against the functional specification.  Engine and memory-model
symbolic optimizations are switchable for the E5 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

from ..core import EngineOptions, Refinement, run_interpreter
from ..core.image import build_memory
from ..core.memory import MemoryOptions
from ..core.symopt import SymOptConfig
from ..riscv import CpuState, RiscvInterp
from ..sym import ProofResult, bv_val
from .impl import build_image
from .invariants import abstract, rep_invariant
from .layout import CALL_GET_QUOTA, CALL_SPAWN, CALL_YIELD, XLEN
from .spec import spec_get_quota, spec_invalid, spec_spawn, spec_yield

__all__ = ["CertikosVerifier", "verify_all", "prove_boot", "OPERATIONS"]

A7 = 17
A0 = 10
A1 = 11


@dataclass
class CertikosVerifier:
    """Verification harness for one build of the monitor."""

    opt: int = 1
    symopts: SymOptConfig = field(default_factory=SymOptConfig)
    fuel: int = 5000
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
        self.entry = self.image.base  # 'entry' is the first label

    def make_cpu(self) -> CpuState:
        mem_opts = MemoryOptions(concretize_offsets=self.symopts.concretize_offsets)
        mem = build_memory(self.image, opts=mem_opts, addr_width=XLEN)
        return CpuState.symbolic(XLEN, self.entry, mem, prefix="certikos")

    def engine_options(self) -> EngineOptions:
        return EngineOptions(split_pc=self.symopts.split_pc, fuel=self.fuel)

    def _impl_step(self, cpu: CpuState) -> CpuState:
        return run_interpreter(self.interp, cpu, self.engine_options()).merged()

    def refinement(self, op: str) -> Refinement:
        """The refinement obligation for one monitor call."""
        call_no, spec_fn = OPERATIONS[op]

        def spec_step(s):
            cpu = self._current_cpu
            if op == "get_quota":
                return spec_get_quota(s)
            if op == "spawn":
                return spec_spawn(s, cpu.reg(A0), cpu.reg(A1))
            if op == "yield":
                return spec_yield(s)
            return spec_invalid(s)

        def make_impl():
            cpu = self.make_cpu()
            if call_no is not None and self.symopts.split_cases:
                # split-cases at the harness level (§4, "Monolithic
                # dispatching"): each monitor call is verified with a
                # concrete call number, decomposing the dispatch into
                # one manageable proof per handler.
                cpu.set_reg(A7, bv_val(call_no, XLEN))
            self._current_cpu = cpu
            return cpu

        def extra(cpu):
            a7 = cpu.reg(A7)
            if op == "invalid":
                cond = (a7 != CALL_GET_QUOTA) & (a7 != CALL_SPAWN) & (a7 != CALL_YIELD)
            else:
                cond = a7 == call_no
            return cond

        return Refinement(
            name=f"certikos.{op}.O{self.opt}",
            make_impl=make_impl,
            impl_step=self._impl_step,
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


OPERATIONS = {
    "get_quota": (CALL_GET_QUOTA, spec_get_quota),
    "spawn": (CALL_SPAWN, spec_spawn),
    "yield": (CALL_YIELD, spec_yield),
    "invalid": (None, spec_invalid),
}


def prove_boot(opt: int = 1, max_conflicts: int | None = None) -> ProofResult:
    """Verify the boot code (§3.4): from the architectural reset state
    (arbitrary memory and registers, concrete reset pc), boot
    establishes the representation invariant and AF of the post-boot
    state equals the initial specification state."""
    from ..sym import bv_val as _bv, new_context, verify_vcs
    from . import impl as impl_mod
    from .impl import INIT_QUOTA
    from .layout import NPROC, NSAVED, PROC_RUN
    from .spec import CertiState

    verifier = CertikosVerifier(opt=opt)
    with new_context() as ctx:
        cpu = verifier.make_cpu()
        cpu.pc = _bv(impl_mod.boot_address(opt), XLEN)
        final = run_interpreter(verifier.interp, cpu, verifier.engine_options()).merged()
        init = CertiState.__new__(CertiState)
        init.current = _bv(0, XLEN)
        init.state = [_bv(PROC_RUN if p == 0 else 0, XLEN) for p in range(NPROC)]
        init.quota = [_bv(INIT_QUOTA if p == 0 else 0, XLEN) for p in range(NPROC)]
        init.nr_children = [_bv(0, XLEN) for _ in range(NPROC)]
        init.regs = [_bv(0, XLEN) for _ in range(NPROC * NSAVED)]
        ctx.assert_prop(rep_invariant(final), "boot establishes RI")
        ctx.assert_prop(abstract(final).eq(init), "boot state abstracts to the initial spec state")
        ctx.assert_prop(final.csr("mtvec") == verifier.entry, "mtvec points at the trap entry")
        return verify_vcs(ctx, max_conflicts=max_conflicts)


def verify_all(
    opt: int = 1,
    symopts: SymOptConfig | None = None,
    timeout_s: float | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
):
    """Prove refinement for every monitor call; returns name -> (result, seconds).

    The calls are proved one after another.  With ``jobs > 1`` each
    call's obligations run on the process-wide scheduler's workers, but
    ``prove_op`` evaluates the call, dispatches its obligations and
    waits for their verdicts before the next call starts, so the pool
    drains between calls.
    To trace the sweep, call it inside ``with obs.tracing() as col:``.
    """
    verifier = CertikosVerifier(
        opt=opt,
        symopts=symopts or SymOptConfig(),
        timeout_s=timeout_s,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    results = {}
    for op in OPERATIONS:
        start = time.perf_counter()
        result = verifier.prove_op(op)
        results[op] = (result, time.perf_counter() - start)
    return results
