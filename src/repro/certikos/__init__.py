"""CertiKOS^s: the CertiKOS security monitor retrofitted to automated
verification on RISC-V (§6.2)."""

from .impl import build_image
from .invariants import abstract, rep_invariant
from .layout import CALL_GET_QUOTA, CALL_SPAWN, CALL_YIELD, NCHILD, NPROC, children_of
from .spec import (
    CertiState,
    spec_get_quota,
    spec_spawn,
    spec_spawn_implicit,
    spec_yield,
    state_invariant,
)
from .verify import CertikosVerifier

__all__ = [name for name in dir() if not name.startswith("_")]
