"""Komodo^s verification driver (§6.3, §6.4).

Declares the monitor to the RISC-V monitor verifier
(:class:`repro.riscv.MonitorVerifier`): its calls and their specs, the
guard on a7 for a call outside the interface, AF and RI, and the boot
code's target state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..riscv import MonitorVerifier
from ..sym import bv_val
from .impl import boot_address, build_image
from .invariants import abstract, rep_invariant
from .layout import CALL_NAMES, HOST, NENC, NPAGES, NSAVED, XLEN
from .spec import KomodoState, SPEC_CALLS

__all__ = ["KomodoVerifier"]


@dataclass
class KomodoVerifier(MonitorVerifier):
    """Verification harness for one build of Komodo^s."""

    NAME = "komodo"
    XLEN = XLEN
    OPERATIONS = SPEC_CALLS
    abstract = staticmethod(abstract)
    rep_invariant = staticmethod(rep_invariant)

    fuel: int = 10_000

    def build_image(self):
        return build_image(self.opt)

    def invalid_call(self, a7):
        return a7 >= len(CALL_NAMES)

    def boot_address(self):
        return boot_address(self.opt)

    def initial_spec_state(self):
        """The host context with an empty page database."""
        return KomodoState(
            cur=bv_val(HOST, XLEN),
            enc_state=[bv_val(0, XLEN) for _ in range(NENC)],
            pg_type=[bv_val(0, XLEN) for _ in range(NPAGES)],
            pg_owner=[bv_val(0, XLEN) for _ in range(NPAGES)],
            pg_content=[bv_val(0, XLEN) for _ in range(NPAGES)],
            regs=[bv_val(0, XLEN) for _ in range((NENC + 1) * NSAVED)],
        )
