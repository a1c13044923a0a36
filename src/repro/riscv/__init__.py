"""The RISC-V verifier (§5): RV32I/RV64I + M + Zicsr, machine mode.

Built by lifting the interpreter in ``interp.py``; the decoder is
validated against the encoder so binutils stays untrusted (§3.4).
"""

from .asm import AsmError, Assembler
from .cpu import CpuState, MACHINE_CSRS
from .decode import DecodeError, decode, decode_validated
from .encode import EncodeError, encode
from .insn import CSRS, Insn, REG_NAMES, REG_NUMBERS, reg_num
from .interp import RiscvInterp
from .monitor import MonitorVerifier
from .pmp import PmpRegion, QuirkConfig, counter_readable, napot_region, pmp_check, pmp_regions_of

__all__ = [name for name in dir() if not name.startswith("_")]
