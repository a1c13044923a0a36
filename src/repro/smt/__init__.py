"""SMT substrate: terms, bit-blasting, and a CDCL SAT core.

This package replaces Z3 in the paper's verification stack (Figure 1).
It decides the QF_BV + UF fragment by bit-blasting to CNF and running
a from-scratch CDCL solver.  See DESIGN.md, substitution (1).

Imports are lazy (PEP 562): ``import repro.smt.checkproof`` — the
standalone certificate checker — must not drag the solver stack into
the process, or "independent checker" would be a fiction.  Attribute
access on the package resolves through the table below on first use,
so ``from repro.smt import mk_and, Solver`` works exactly as before.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "evaluator": ("EvalError", "eval_term"),
    "model": ("Model",),
    "solver": (
        "CheckResult",
        "SAT",
        "Solver",
        "SolverCache",
        "SolverTimeout",
        "UNKNOWN",
        "UNSAT",
        "check_sat",
    ),
    "sorts": ("BOOL", "BitVecSort", "Sort", "bv_sort", "is_bool", "is_bv"),
    "terms": (
        "Term",
        "TermManager",
        "canonicalize_nodes",
        "canonicalize_query",
        "deserialize_terms",
        "fresh_var",
        "manager",
        "mk_and",
        "mk_apply",
        "mk_bool",
        "mk_bv",
        "mk_bvadd",
        "mk_bvand",
        "mk_bvashr",
        "mk_bvlshr",
        "mk_bvmul",
        "mk_bvneg",
        "mk_bvnot",
        "mk_bvor",
        "mk_bvsdiv",
        "mk_bvshl",
        "mk_bvsrem",
        "mk_bvsub",
        "mk_bvudiv",
        "mk_bvurem",
        "mk_bvxor",
        "mk_concat",
        "mk_distinct",
        "mk_eq",
        "mk_extract",
        "mk_false",
        "mk_implies",
        "mk_ite",
        "mk_not",
        "mk_or",
        "mk_sext",
        "mk_sle",
        "mk_slt",
        "mk_true",
        "mk_ule",
        "mk_ult",
        "mk_var",
        "mk_xor",
        "mk_zext",
        "query_digest",
        "serialize_terms",
        "serialize_with_prefix",
        "to_signed",
        "to_unsigned",
    ),
}

_NAME_TO_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_NAME_TO_MODULE)


def __getattr__(name: str):
    mod = _NAME_TO_MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value  # cache: next access skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
