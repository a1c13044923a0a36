"""E9 -- §3.2: symbolic profiling finds the fetch bottleneck.

Paper: "the top two functions suggested by the profiler are execute
within interpret and vector-ref within fetch ... one can conclude that
this function explodes under symbolic evaluation due to a symbolic
pc"; after split-pc, "vector-ref disappears from the profiler's
output".
"""

from conftest import banner, emit, run_once

from repro import obs
from repro.core import EngineOptions, run_interpreter
from repro.core.errors import EngineFuelExhausted
from repro.sym import new_context
from repro.toyrisc import ToyCpu, ToyRISC, sign_program

RESULTS = {}


def _profile(split_pc: bool) -> list[dict]:
    """The region rows of one ToyRISC run, ranked by §3.2 score."""
    with obs.tracing() as col:
        with new_context():
            cpu = ToyCpu.symbolic(32)
            try:
                run_interpreter(
                    ToyRISC(sign_program()), cpu,
                    EngineOptions(split_pc=split_pc, fuel=3 if not split_pc else 1000,
                                  max_union=2000),
                )
            except EngineFuelExhausted:
                pass
    return obs.summarize(col)["regions"]


def test_profile_without_split_pc(benchmark):
    ranked = run_once(benchmark, _profile, False)
    RESULTS["without split-pc"] = ranked
    regions = {row["name"]: row for row in ranked}
    # fetch/execute dominate, and fetch creates instruction unions.
    assert ranked[0]["name"] in ("toyrisc.execute", "toyrisc.fetch", "engine.step")
    assert regions["toyrisc.fetch"]["max_union"] > 0 or regions["toyrisc.execute"]["merges"] > 0


def test_profile_with_split_pc(benchmark):
    ranked = run_once(benchmark, _profile, True)
    RESULTS["with split-pc"] = ranked
    regions = {row["name"]: row for row in ranked}
    # the union blow-up disappears from fetch.
    assert regions["toyrisc.fetch"]["max_union"] == 0


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    banner("§3.2: symbolic profiler output")
    for name, ranked in RESULTS.items():
        emit(f"-- {name}")
        emit(obs.render_regions(ranked, top=4))
