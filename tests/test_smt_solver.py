"""Tests for the solver frontend: models, budgets, SMT-LIB dump."""

import pytest

from repro import obs
from repro.smt import (
    Solver,
    bv_sort,
    check_sat,
    mk_and,
    mk_apply,
    mk_bv,
    mk_bvadd,
    mk_bvmul,
    mk_eq,
    mk_false,
    mk_not,
    mk_or,
    mk_true,
    mk_ult,
    mk_var,
)
from repro.smt.smtlib import script_for, term_to_smtlib

X = mk_var("fr_x", bv_sort(16))
Y = mk_var("fr_y", bv_sort(16))


class TestSolverFrontend:
    def test_sat_with_model(self):
        s = Solver()
        s.add(mk_eq(mk_bvadd(X, Y), mk_bv(100, 16)), mk_ult(X, mk_bv(5, 16)))
        r = s.check()
        assert r.is_sat
        assert (r.model["fr_x"] + r.model["fr_y"]) & 0xFFFF == 100
        assert r.model["fr_x"] < 5

    def test_unsat(self):
        s = Solver()
        s.add(mk_ult(X, mk_bv(5, 16)), mk_ult(mk_bv(10, 16), X))
        assert s.check().is_unsat

    def test_trivial_paths(self):
        s = Solver()
        s.add(mk_true())
        assert s.check().is_sat
        s.add(mk_false())
        assert s.check().is_unsat

    def test_non_bool_assertion_rejected(self):
        with pytest.raises(TypeError):
            Solver().add(X)

    def test_model_evaluate(self):
        s = Solver()
        s.add(mk_eq(X, mk_bv(42, 16)))
        r = s.check()
        assert r.model.evaluate(mk_bvadd(X, mk_bv(1, 16))) == 43

    def test_check_with_extra(self):
        s = Solver()
        s.add(mk_ult(X, mk_bv(5, 16)))
        assert s.check(mk_eq(X, mk_bv(3, 16))).is_sat
        assert s.check(mk_eq(X, mk_bv(9, 16))).is_unsat
        # extra does not persist
        assert s.check().is_sat

    def test_stats_populated(self):
        """An answer's stats say where it came from; what the solve cost
        is recorded in the tracing session."""
        s = Solver()
        s.add(mk_eq(mk_bvmul(X, Y), mk_bv(391, 16)), mk_ult(mk_bv(1, 16), X), mk_ult(X, Y))
        with obs.tracing() as col:
            r = s.check()
        assert r.is_sat
        assert set(r.stats) == {"digest", "time_s"}
        assert r.stats["time_s"] >= 0
        [solve] = [e for e in col.spans if e.name == "sat.solve"]
        assert solve.args["vars"] > 0 and solve.args["status"] == "sat"

    def test_unknown_on_budget(self):
        s = Solver(max_conflicts=1)
        # A hard-ish instance: 14-bit factoring.
        a = mk_var("fr_h1", bv_sort(14))
        b = mk_var("fr_h2", bv_sort(14))
        s.add(
            mk_eq(mk_bvmul(a, b), mk_bv(12007, 14)),
            mk_ult(mk_bv(2, 14), a),
            mk_ult(mk_bv(2, 14), b),
        )
        r = s.check()
        assert r.status in ("sat", "unsat", "unknown")


class TestSmtlibPrinter:
    def test_term_rendering(self):
        t = mk_and(mk_ult(X, Y), mk_eq(X, mk_bv(3, 16)))
        s = term_to_smtlib(t)
        assert "bvult" in s and "(_ bv3 16)" in s

    def test_script_roundtrip_syntax(self):
        f = mk_or(mk_eq(mk_bvadd(X, Y), mk_bv(1, 16)), mk_not(mk_eq(X, Y)))
        script = script_for([f])
        assert script.startswith("(set-logic")
        assert "(declare-const fr_x (_ BitVec 16))" in script
        assert script.rstrip().endswith("(check-sat)")
        assert script.count("(") == script.count(")")

    def test_script_with_uf(self):
        f = mk_eq(mk_apply("fr_f", bv_sort(16), [X]), Y)
        script = script_for([f])
        assert "(declare-fun fr_f ((_ BitVec 16)) (_ BitVec 16))" in script

    def test_shared_subterms_named(self):
        shared = mk_bvadd(X, Y)
        f = mk_and(mk_ult(shared, mk_bv(10, 16)), mk_not(mk_eq(shared, mk_bv(3, 16))))
        script = script_for([f])
        assert "define-fun aux!0" in script


def test_check_sat_helper():
    assert check_sat(mk_eq(X, Y)).is_sat
    assert check_sat(mk_eq(X, Y), mk_not(mk_eq(Y, X))).is_unsat
