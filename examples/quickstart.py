#!/usr/bin/env python3
"""Quickstart: verify the ToyRISC sign program (paper §3.2-§3.3).

Walks the paper's running example end to end:

  1. run the interpreter concretely (it is an emulator),
  2. lift it by running on symbolic state (Figure 5),
  3. prove state-machine refinement against a functional spec,
  4. prove step-consistency noninterference over the spec,
  5. show the symbolic profile (``repro.obs`` regions) flagging fetch
     without split-pc.

Run:  python examples/quickstart.py
"""

import time

from repro import obs
from repro.core import EngineOptions, run_interpreter
from repro.core.errors import EngineFuelExhausted
from repro.sym import bv_val, new_context
from repro.toyrisc import (
    ToyCpu,
    ToyRISC,
    prove_sign_refinement,
    sign_program,
    step_consistency_holds,
)


def main() -> None:
    program = sign_program()
    interp = ToyRISC(program)

    print("== 1. concrete execution (the interpreter is an emulator)")
    for a0 in (42, 0, 2**32 - 7):
        cpu = ToyCpu(bv_val(0, 32), [bv_val(a0, 32), bv_val(0, 32)])
        with new_context():
            final = run_interpreter(interp, cpu).merged()
        print(f"   sign({a0:#x}) = {final.regs[0].as_int():#x}")

    print("== 2. symbolic execution (lifting: all behaviours at once)")
    with new_context():
        cpu = ToyCpu.symbolic(32)
        paths = run_interpreter(interp, cpu)
        print(f"   merged paths: {len(paths.finals)} final state(s), {paths.steps} steps")
        print(f"   final a0 = {paths.merged().regs[0]!r}")

    print("== 3. state-machine refinement (§3.3)")
    start = time.perf_counter()
    result = prove_sign_refinement(32)
    print(f"   refinement proved: {result.proved}  ({time.perf_counter() - start:.2f}s)")

    print("== 4. noninterference: step consistency over the spec")
    result = step_consistency_holds(32)
    print(f"   step consistency proved: {result.proved}")

    print("== 5. symbolic profiling without split-pc (§3.2)")
    with obs.tracing() as col:
        with new_context():
            cpu = ToyCpu.symbolic(32)
            try:
                run_interpreter(
                    interp, cpu, EngineOptions(split_pc=False, fuel=3, max_union=1000)
                )
            except EngineFuelExhausted:
                pass
    print(obs.render_regions(col.regions.values(), top=4))
    print("   (fetch explodes under a symbolic pc — split-pc repairs it)")


if __name__ == "__main__":
    main()
