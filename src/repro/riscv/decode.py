"""RISC-V instruction decoder, validated against the encoder (§3.4)."""

from __future__ import annotations

import functools

from .encode import encode
from .insn import (
    AUIPC,
    BRANCH,
    FUNCT12_SYS,
    Insn,
    JAL,
    JALR,
    LOAD,
    LUI,
    MISC_MEM,
    OP,
    OP_32,
    OP_IMM,
    OP_IMM_32,
    SPEC,
    STORE,
    SYSTEM,
)

__all__ = ["decode", "decode_validated", "DecodeError"]


class DecodeError(Exception):
    pass


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


_BY_KEY: dict[tuple, str] = {}
for _name, _spec in SPEC.items():
    if _spec.fmt == "R":
        _BY_KEY[("R", _spec.opcode, _spec.funct3, _spec.funct7)] = _name
    elif _spec.fmt in ("I", "S", "B", "CSR", "CSRI"):
        _BY_KEY[(_spec.fmt, _spec.opcode, _spec.funct3)] = _name
    elif _spec.fmt == "SHIFT":
        _BY_KEY[("SHIFT", _spec.opcode, _spec.funct3, _spec.funct7)] = _name


def decode(word: int, xlen: int = 64) -> Insn:
    """Decode a 32-bit instruction word."""
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F

    if opcode in (OP, OP_32):
        name = _BY_KEY.get(("R", opcode, funct3, funct7))
        if name is None:
            raise DecodeError(f"bad R-type word {word:#010x}")
        return Insn(name, rd=rd, rs1=rs1, rs2=rs2)

    if opcode in (OP_IMM, OP_IMM_32):
        if funct3 in (0b001, 0b101):
            shamt_bits = 6 if (xlen == 64 and opcode == OP_IMM) else 5
            shamt = (word >> 20) & ((1 << shamt_bits) - 1)
            f7 = funct7 & (0b1111110 if shamt_bits == 6 else 0b1111111)
            name = _BY_KEY.get(("SHIFT", opcode, funct3, f7))
            if name is None:
                raise DecodeError(f"bad shift word {word:#010x}")
            return Insn(name, rd=rd, rs1=rs1, imm=shamt)
        name = _BY_KEY.get(("I", opcode, funct3))
        if name is None:
            raise DecodeError(f"bad OP-IMM word {word:#010x}")
        return Insn(name, rd=rd, rs1=rs1, imm=_sext(word >> 20, 12))

    if opcode == LOAD or opcode == JALR:
        name = _BY_KEY.get(("I", opcode, funct3))
        if name is None:
            raise DecodeError(f"bad load/jalr word {word:#010x}")
        return Insn(name, rd=rd, rs1=rs1, imm=_sext(word >> 20, 12))

    if opcode == MISC_MEM:
        name = _BY_KEY.get(("I", opcode, funct3))
        if name is None:
            raise DecodeError(f"bad misc-mem word {word:#010x}")
        return Insn(name, rd=rd, rs1=rs1, imm=_sext(word >> 20, 12))

    if opcode == STORE:
        name = _BY_KEY.get(("S", opcode, funct3))
        if name is None:
            raise DecodeError(f"bad store word {word:#010x}")
        imm = ((word >> 25) << 5) | ((word >> 7) & 0x1F)
        return Insn(name, rs1=rs1, rs2=rs2, imm=_sext(imm, 12))

    if opcode == BRANCH:
        name = _BY_KEY.get(("B", opcode, funct3))
        if name is None:
            raise DecodeError(f"bad branch word {word:#010x}")
        imm = (
            (((word >> 31) & 1) << 12)
            | (((word >> 7) & 1) << 11)
            | (((word >> 25) & 0x3F) << 5)
            | (((word >> 8) & 0xF) << 1)
        )
        return Insn(name, rs1=rs1, rs2=rs2, imm=_sext(imm, 13))

    if opcode == LUI:
        return Insn("lui", rd=rd, imm=word & 0xFFFFF000)
    if opcode == AUIPC:
        return Insn("auipc", rd=rd, imm=word & 0xFFFFF000)

    if opcode == JAL:
        imm = (
            (((word >> 31) & 1) << 20)
            | (((word >> 12) & 0xFF) << 12)
            | (((word >> 20) & 1) << 11)
            | (((word >> 21) & 0x3FF) << 1)
        )
        return Insn("jal", rd=rd, imm=_sext(imm, 21))

    if opcode == SYSTEM:
        if funct3 == 0:
            name = FUNCT12_SYS.get(word >> 20)
            if name is None or rd != 0 or rs1 != 0:
                raise DecodeError(f"bad system word {word:#010x}")
            return Insn(name)
        csr = word >> 20
        if funct3 in (0b001, 0b010, 0b011):
            name = _BY_KEY.get(("CSR", opcode, funct3))
            return Insn(name, rd=rd, rs1=rs1, imm=csr)
        if funct3 in (0b101, 0b110, 0b111):
            name = _BY_KEY.get(("CSRI", opcode, funct3))
            return Insn(name, rd=rd, rs1=rs1, imm=csr)
        raise DecodeError(f"bad csr word {word:#010x}")

    raise DecodeError(f"unknown opcode {opcode:#04x} in word {word:#010x}")


@functools.cache
def decode_validated(word: int, xlen: int = 64) -> Insn:
    """Decode and validate via the encoder (§3.4).

    Re-encodes the decoded instruction and checks the bytes match the
    original word, removing the decoder (and any external disassembler)
    from the trusted computing base.  A pure function of ``(word,
    xlen)`` returning a frozen ``Insn``, so each word is decoded once
    per process, however many interpreters fetch it.
    """
    insn = decode(word, xlen)
    reencoded = encode(insn, xlen)
    if reencoded != word:
        raise DecodeError(
            f"decoder validation failed: {word:#010x} decodes to {insn!r} "
            f"which re-encodes to {reencoded:#010x}"
        )
    return insn
