"""Keystone verification driver: UB scanning + interface analysis (§7)."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.image import Image, Symbol, build_memory
from ..llvm.interp import run_function
from ..sym import new_context
from .impl import DATA_SYMBOLS, build_module

__all__ = ["UbFinding", "scan_for_ub", "KEYSTONE_BUG_IDS"]

KEYSTONE_BUG_IDS = ["oversized-shift", "buffer-overflow"]


@dataclass
class UbFinding:
    function: str
    message: str
    counterexample: object

    def __repr__(self) -> str:
        return f"UbFinding({self.function}: {self.message})"


def _memory():
    image = Image(
        base=0,
        word_size=4,
        words={},
        symbols=[Symbol(name, addr, size, "object", shape) for name, addr, size, shape in DATA_SYMBOLS],
    )
    return build_memory(image, addr_width=32)


def scan_for_ub(
    bugs: set[str] | frozenset[str] = frozenset(),
    jobs: int = 1,
    cache_dir: str | None = None,
) -> list[UbFinding]:
    """Run the LLVM verifier's UB checks over every monitor call.

    Returns findings (empty for the fixed monitor) — the workflow that
    surfaced the two Keystone bugs, "both on the paths of three
    monitor calls".  Every UB verification condition across every
    monitor call is an independent proof obligation, so the scan takes
    the standard ``jobs``/``cache_dir`` knobs and feeds the shared
    obligation scheduler (``repro.core.scheduler``) like the other
    verifier frontends.  One finding is reported per (function,
    message) pair, the first failing instance winning — identical to
    the sequential scan.  To trace the scan, call it inside
    ``with obs.tracing() as col:``.
    """
    from ..sym import SymBool, region
    from ..sym.solverapi import check_batch

    module = build_module(bugs)
    work: list[tuple[str, object]] = []
    for name, func in module.functions.items():
        with new_context() as ctx, region(f"keystone.{name}"):
            run_function(func, mem=_memory())
            vcs = list(ctx.vcs)
        for vc in vcs:
            work.append((name, vc))
    results = check_batch(
        [(f"{name}: {vc.message}", SymBool(vc.formula), []) for name, vc in work],
        jobs=jobs,
        cache_dir=cache_dir,
    )
    findings: list[UbFinding] = []
    reported: set[tuple[str, str]] = set()
    for (name, vc), result in zip(work, results):
        if result.proved or (name, vc.message) in reported:
            continue
        reported.add((name, vc.message))
        findings.append(UbFinding(name, vc.message, result.counterexample))
    return findings
