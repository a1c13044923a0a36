"""The monitor verifier (§6.2–§6.4): the RISC-V verifier applied to a
security monitor's binary.

Both retrofitted monitors, CertiKOS^s and Komodo^s, are verified the
same way.  The RISC-V verifier lifts the monitor binary; each monitor
call is proved to refine one step of the monitor's state-machine
specification under its abstraction function (AF) and representation
invariant (RI); and boot is proved to establish the RI from the
architectural reset state (§3.4).  :class:`MonitorVerifier` owns that
workflow, and a monitor subclasses it to declare what is its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

from ..core.engine import EngineOptions, run_interpreter
from ..core.image import Image, build_memory
from ..core.memory import MemoryOptions
from ..core.spec import Refinement, SpecStruct
from ..core.symopt import SymOptConfig
from ..sym import ProofResult, SymBV, SymBool, bv_val, new_context, verify_vcs
from .cpu import CpuState
from .interp import RiscvInterp

__all__ = ["MonitorVerifier"]

# The ABI's argument registers and the call-number register.
A0, A1, A2, A7 = 10, 11, 12, 17


@dataclass
class MonitorVerifier:
    """Verification harness for one build of a monitor.

    A subclass declares the monitor: the class attributes below, where
    ``NAME`` prefixes the proofs and ``OPERATIONS`` maps an op name to
    ``(call number in a7, or None for the call outside the interface;
    spec(s, a0, a1, a2))``, and the four methods a monitor declares.
    """

    NAME: ClassVar[str]
    XLEN: ClassVar[int]
    OPERATIONS: ClassVar[dict[str, tuple[int | None, Callable[..., Any]]]]
    abstract: ClassVar[Callable[[CpuState], SpecStruct]]
    rep_invariant: ClassVar[Callable[[CpuState], SymBool]]

    opt: int = 1
    symopts: SymOptConfig = field(default_factory=SymOptConfig)
    fuel: int = 5000  # instructions one trap may execute, over all paths
    max_conflicts: int | None = None
    timeout_s: float | None = None
    # Proof-obligation scheduling knobs: with jobs > 1 the refinement
    # VCs feed the process-wide scheduler pool, and cache_dir names
    # the shared content-addressed verdict store (repro.core.scheduler,
    # repro.core.store).
    jobs: int = 1
    cache_dir: str | None = None

    def __post_init__(self):
        self.image = self.build_image()
        self.interp = RiscvInterp(self.image, xlen=self.XLEN)

    # -- what a monitor declares ---------------------------------------------

    def build_image(self) -> Image:
        """The monitor binary at ``self.opt``; its first instruction is
        the trap entry."""
        raise NotImplementedError

    def invalid_call(self, a7: SymBV) -> SymBool:
        """The call numbers outside the monitor's interface."""
        raise NotImplementedError

    def boot_address(self) -> int:
        """Address of the boot code in the image."""
        raise NotImplementedError

    def initial_spec_state(self) -> SpecStruct:
        """The specification state boot must reach."""
        raise NotImplementedError

    # -- the workflow --------------------------------------------------------

    def make_cpu(self) -> CpuState:
        """The trap-entry state: symbolic registers, CSRs and memory."""
        mem_opts = MemoryOptions(concretize_offsets=self.symopts.concretize_offsets)
        mem = build_memory(self.image, opts=mem_opts, addr_width=self.XLEN)
        return CpuState.symbolic(self.XLEN, self.image.base, mem, prefix=self.NAME)

    def engine_options(self) -> EngineOptions:
        return EngineOptions(split_pc=self.symopts.split_pc, fuel=self.fuel)

    def run(self, cpu: CpuState) -> CpuState:
        """Evaluate the binary from ``cpu`` over all paths, merged."""
        return run_interpreter(self.interp, cpu, self.engine_options()).merged()

    def refinement(self, op: str) -> Refinement:
        """The refinement obligation for one monitor call."""
        call_no, spec = self.OPERATIONS[op]
        pre: CpuState | None = None

        def make_impl():
            nonlocal pre
            pre = self.make_cpu()
            if call_no is not None and self.symopts.split_cases:
                # split-cases at the harness level (§4, "Monolithic
                # dispatching"): each monitor call is verified with a
                # concrete call number, decomposing the dispatch into
                # one manageable proof per handler.
                pre.set_reg(A7, bv_val(call_no, self.XLEN))
            return pre

        def spec_step(s):
            # The call's arguments are those of the state this
            # refinement's make_impl built.
            return spec(s, pre.reg(A0), pre.reg(A1), pre.reg(A2))

        def extra(cpu):
            a7 = cpu.reg(A7)
            return self.invalid_call(a7) if call_no is None else a7 == call_no

        return Refinement(
            name=f"{self.NAME}.{op}.O{self.opt}",
            make_impl=make_impl,
            impl_step=self.run,
            spec_step=spec_step,
            abstract=self.abstract,
            rep_invariant=self.rep_invariant,
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

    def prove_boot(self) -> ProofResult:
        """Verify the boot code (§3.4): from the architectural reset
        state (arbitrary memory and registers, concrete reset pc), boot
        establishes the RI, AF of the post-boot state is the initial
        specification state, and mtvec points at the trap entry."""
        with new_context() as ctx:
            cpu = self.make_cpu()
            cpu.pc = bv_val(self.boot_address(), self.XLEN)
            final = self.run(cpu)
            init = self.initial_spec_state()
            ctx.assert_prop(self.rep_invariant(final), "boot establishes RI")
            ctx.assert_prop(self.abstract(final).eq(init), "boot abstracts to the initial spec state")
            ctx.assert_prop(final.csr("mtvec") == self.image.base, "mtvec points at the trap entry")
            return verify_vcs(
                ctx,
                max_conflicts=self.max_conflicts,
                timeout_s=self.timeout_s,
                jobs=self.jobs,
                cache_dir=self.cache_dir,
            )
