"""The four workloads: their seeded inputs and their known answers.

The seed only generates or permutes inputs.  Everything here returns
plain JSON so the inputs can be written to a spec file and handed to a
fresh process; the program under test never sees the seed.

Importing this module imports nothing from ``repro``; the generators
that need the program's public tables (the Figure 11 grid, the JIT
instruction batteries) import them when called.
"""

from __future__ import annotations

import dataclasses
import random

WORKLOADS = ("fig11-cold", "longpole-cold", "serve-warm", "jit-sweep")

OPT_LEVELS = (0, 1, 2)
JOBS = 2  # worker processes; the calibration machine has 2 cores

# longpole-cold: CertiKOS invalid at O1, one ~7 s obligation among 128.
# Its seed changes nothing.  (spawn's ~20 s pole, with its ~19 s
# certificate audit, would not fit the benchmark's time budget.)
LONGPOLE_OPS = (("certikos", "invalid"),)
LONGPOLE_OPT = 1

# serve-warm: closed-loop clients, each waiting for its job before the next.
SERVE_GRID = "fig11-quick"
SERVE_CLIENTS = 2
SERVE_JOBS_PER_CLIENT = 60

# jit-sweep: battery sizes per target, and the registers operands are
# drawn from: every BPF register the JITs map except the read-only
# frame pointer r10.
RV_BATTERY = 2400
X86_BATTERY = 800
BPF_REGS = tuple(range(10))
SHIFT_OPS = ("lsh", "rsh", "arsh")

# Median wall_s of one pass per workload, from the calibration runs in
# bench/results.  A run makes as many passes as fit in --seconds, and a
# pass still undecided at 3x this (plus an allowance) is killed and its
# open ops fail.
MEDIAN_WALL_S = {
    "fig11-cold": 10.0,
    "longpole-cold": 7.0,
    "serve-warm": 13.2,
    "jit-sweep": 7.1,
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def make_inputs(workload: str, seed: int) -> dict:
    """The generated input set of one workload for one seed."""
    rng = _rng(workload, seed)
    if workload == "fig11-cold":
        from repro.serve.grids import grid_ops

        proofs = [[m, op, opt] for opt in OPT_LEVELS for m, op in grid_ops("fig11")]
        rng.shuffle(proofs)
        return {"proofs": proofs}
    if workload == "longpole-cold":
        return {"proofs": [[m, op, LONGPOLE_OPT] for m, op in LONGPOLE_OPS]}
    if workload == "serve-warm":
        return {
            "grid": SERVE_GRID,
            "clients": [
                [rng.choice(OPT_LEVELS) for _ in range(SERVE_JOBS_PER_CLIENT)]
                for _ in range(SERVE_CLIENTS)
            ],
        }
    if workload == "jit-sweep":
        from repro.bpf_jit import rv_alu_test_insns, x86_alu_test_insns

        return {
            "rv": [encode_insn(i) for i in jit_battery(rng, rv_alu_test_insns(), RV_BATTERY)],
            "x86": [encode_insn(i) for i in jit_battery(rng, x86_alu_test_insns(), X86_BATTERY)],
        }
    raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")


def jit_battery(rng: random.Random, templates: list, n: int) -> list:
    """``n`` instructions, each a template from a JIT's test battery with
    its registers and immediate redrawn: registers from ``BPF_REGS``,
    immediates from ``BOUNDARY_IMMS`` (shift amounts only those below
    the operand width, the only ones BPF defines).  Every template is
    used equally often (within one), so the seed changes operands and
    order but barely the cost of the battery."""
    from repro.bpf.insn import CLASS_ALU, CLASS_ALU64
    from repro.bpf_jit import BOUNDARY_IMMS

    chosen = templates * (n // len(templates)) + rng.sample(templates, n % len(templates))
    rng.shuffle(chosen)
    out = []
    for insn in chosen:
        fields = {"dst": rng.choice(BPF_REGS)}
        if insn.src_is_reg:
            fields["src"] = rng.choice(BPF_REGS)
        elif insn.klass in (CLASS_ALU, CLASS_ALU64) and insn.op_name in SHIFT_OPS:
            width = 64 if insn.klass == CLASS_ALU64 else 32
            fields["imm"] = rng.choice([i for i in BOUNDARY_IMMS if 0 <= i < width])
        else:
            fields["imm"] = rng.choice(BOUNDARY_IMMS)
        out.append(dataclasses.replace(insn, **fields))
    return out


def encode_insn(insn) -> list:
    return [insn.klass, insn.op, insn.src_is_reg, insn.dst, insn.src, insn.off, insn.imm]


def decode_insn(row: list):
    from repro.bpf.insn import BpfInsn

    return BpfInsn(*row)


def jit_verdict(result) -> str:
    """``ok``, ``violation`` (a counterexample was found) or ``unknown``
    (neither: the solver gave up) for a ``bpf_jit`` check result."""
    if result.ok:
        return "ok"
    return "violation" if result.counterexample is not None else "unknown"


def expected_verdicts(workload: str, inputs: dict) -> list[tuple[str, str]]:
    """``(op name, expected verdict)`` for every op of one pass, in run order.

    Every proof and every job must be ``proved``; every fixed-JIT check
    must be ``ok``; each historical bug's witness must yield a
    ``violation`` with a counterexample on its buggy JIT.
    """
    if workload in ("fig11-cold", "longpole-cold"):
        return [(f"{m}.{op}.O{opt}", "proved") for m, op, opt in inputs["proofs"]]
    if workload == "serve-warm":
        return [
            (f"client{c}.job{j}.O{opt}", "proved")
            for c, opts in enumerate(inputs["clients"])
            for j, opt in enumerate(opts)
        ]
    if workload == "jit-sweep":
        from repro.bpf_jit import RV_BUGS, X86_BUGS

        return (
            [(f"rv[{i}]", "ok") for i in range(len(inputs["rv"]))]
            + [(f"x86[{i}]", "ok") for i in range(len(inputs["x86"]))]
            + [(f"witness.{b.target}.{b.id}", "violation") for b in RV_BUGS + X86_BUGS]
        )
    raise ValueError(f"unknown workload {workload!r}")


def check_verdicts(expected: list[tuple[str, str]], observed: dict[str, str]) -> list[str]:
    """Names of ops whose observed verdict is missing or differs."""
    return [name for name, want in expected if observed.get(name) != want]
