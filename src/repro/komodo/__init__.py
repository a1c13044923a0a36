"""Komodo^s: the Komodo enclave monitor retrofitted to automated
verification on RISC-V (§6.3)."""

from .impl import CALL_NAMES, build_image
from .invariants import abstract, rep_invariant
from .layout import HOST, NENC, NPAGES
from .ni import (
    enclave_equiv,
    exit_declassifies,
    prove_host_cannot_read_enclave,
    prove_removed_enclave_unobservable,
)
from .spec import KomodoState, SPEC_CALLS, state_invariant
from .verify import KomodoVerifier

__all__ = [name for name in dir() if not name.startswith("_")]
