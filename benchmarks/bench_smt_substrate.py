"""Substrate microbenchmark: the Z3-substitute's own performance.

Not a paper table — this characterizes the pure-Python CDCL +
bit-blasting solver that replaces Z3 (DESIGN.md substitution 1), so
the absolute times in the other benches can be interpreted.  Shapes
measured: UNSAT equivalence checks (the refinement workload), SAT
model finding (counterexample generation), and a classic pigeonhole
instance (pure search).
"""

from conftest import banner, emit, run_once

from repro.smt import (
    bv_sort,
    check_sat,
    mk_bv,
    mk_bvadd,
    mk_bvmul,
    mk_bvxor,
    mk_eq,
    mk_not,
    mk_ult,
    mk_var,
)
from repro.smt.sat import ArenaSolver

RESULTS = {}


def _equivalence_unsat(width):
    """(a+b)^b+... chained identity: the refinement-proof shape."""
    a = mk_var(f"sb_a{width}", bv_sort(width))
    b = mk_var(f"sb_b{width}", bv_sort(width))
    lhs = mk_bvadd(mk_bvxor(a, b), b)
    rhs = mk_bvadd(mk_bvxor(b, a), b)
    result = check_sat(mk_not(mk_eq(lhs, rhs)))
    assert result.is_unsat
    return result


def test_equivalence_32(benchmark):
    run_once(benchmark, _equivalence_unsat, 32)
    RESULTS["32-bit equivalence (unsat)"] = "ok"


def test_equivalence_64(benchmark):
    run_once(benchmark, _equivalence_unsat, 64)
    RESULTS["64-bit equivalence (unsat)"] = "ok"


def _factoring(width, product):
    a = mk_var(f"sb_f{width}a", bv_sort(width))
    b = mk_var(f"sb_f{width}b", bv_sort(width))
    result = check_sat(
        mk_eq(mk_bvmul(a, b), mk_bv(product, width)),
        mk_ult(mk_bv(1, width), a),
        mk_ult(mk_bv(1, width), b),
    )
    assert result.is_sat
    va, vb = result.model[f"sb_f{width}a"], result.model[f"sb_f{width}b"]
    assert (va * vb) & ((1 << width) - 1) == product
    return result


def test_factoring_16(benchmark):
    run_once(benchmark, _factoring, 16, 12709)
    RESULTS["16-bit factoring (sat)"] = "ok"


def test_factoring_32(benchmark):
    run_once(benchmark, _factoring, 32, 0x12345678)
    RESULTS["32-bit factoring (sat)"] = "ok"


def _pigeonhole(n):
    solver = ArenaSolver()
    holes = n - 1
    pigeon = {(i, j): solver.new_var() for i in range(n) for j in range(holes)}
    for i in range(n):
        solver.add_clause([pigeon[(i, j)] for j in range(holes)])
    for j in range(holes):
        for i1 in range(n):
            for i2 in range(i1 + 1, n):
                solver.add_clause([-pigeon[(i1, j)], -pigeon[(i2, j)]])
    assert solver.solve() == "unsat"
    return solver.conflicts


def test_pigeonhole_7(benchmark):
    conflicts = run_once(benchmark, _pigeonhole, 7)
    RESULTS["pigeonhole PHP(7,6) conflicts"] = conflicts


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    banner("solver substrate (Z3 substitute) microbenchmarks")
    for name, value in RESULTS.items():
        emit(f"  {name:<36} {value}")
    emit("  (see the pytest-benchmark table for times)")
