"""CertiKOS^s verification driver (§6.2, §6.4).

Declares the monitor to the RISC-V monitor verifier
(:class:`repro.riscv.MonitorVerifier`): its calls and their specs, the
guard on a7 for a call outside the interface, AF and RI, and the boot
code's target state.  The binary is built at a chosen optimization
level; engine and memory-model symbolic optimizations are switchable
for the E5 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..riscv import MonitorVerifier
from ..sym import bv_val
from .impl import INIT_QUOTA, boot_address, build_image
from .invariants import abstract, rep_invariant
from .layout import CALL_GET_QUOTA, CALL_SPAWN, CALL_YIELD, NPROC, NSAVED, PROC_RUN, XLEN
from .spec import CertiState, spec_get_quota, spec_invalid, spec_spawn, spec_yield

__all__ = ["CertikosVerifier"]


@dataclass
class CertikosVerifier(MonitorVerifier):
    """Verification harness for one build of CertiKOS^s."""

    NAME = "certikos"
    XLEN = XLEN
    OPERATIONS = {
        "get_quota": (CALL_GET_QUOTA, lambda s, a0, a1, a2: spec_get_quota(s)),
        "spawn": (CALL_SPAWN, lambda s, a0, a1, a2: spec_spawn(s, a0, a1)),
        "yield": (CALL_YIELD, lambda s, a0, a1, a2: spec_yield(s)),
        "invalid": (None, lambda s, a0, a1, a2: spec_invalid(s)),
    }
    abstract = staticmethod(abstract)
    rep_invariant = staticmethod(rep_invariant)

    def build_image(self):
        return build_image(self.opt)

    def invalid_call(self, a7):
        return (a7 != CALL_GET_QUOTA) & (a7 != CALL_SPAWN) & (a7 != CALL_YIELD)

    def boot_address(self):
        return boot_address(self.opt)

    def initial_spec_state(self):
        """Process 0 runs with the whole quota; every register bank is zero."""
        return CertiState(
            current=bv_val(0, XLEN),
            state=[bv_val(PROC_RUN if p == 0 else 0, XLEN) for p in range(NPROC)],
            quota=[bv_val(INIT_QUOTA if p == 0 else 0, XLEN) for p in range(NPROC)],
            nr_children=[bv_val(0, XLEN) for _ in range(NPROC)],
            regs=[bv_val(0, XLEN) for _ in range(NPROC * NSAVED)],
        )
