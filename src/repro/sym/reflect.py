"""Symbolic reflection: inspecting the structure of symbolic values.

Rosette's symbolic reflection (§2.3 of the Rosette paper; used in §4
of Serval) lets symbolic optimizations examine and rewrite the term
DAGs behind symbolic values.  ``split_pc`` builds on
:func:`split_concrete`, and the memory-offset concretization on
:func:`destruct_linear`.
"""

from __future__ import annotations

from ..smt import Term
from .value import SymBV

__all__ = ["NotConcretizable", "destruct_linear", "split_concrete"]


class NotConcretizable(Exception):
    """Raised when a term cannot be split into concrete leaves."""


def split_concrete(value: SymBV | Term, limit: int = 4096) -> list[tuple[list[Term], int]]:
    """Split a term into (guards, concrete value) leaves — ``split-pc``.

    Beyond plain ite trees, this distributes operators over an ite
    child (e.g. ``ite(c, 4, 2) + 1`` becomes leaves 5 and 3): the
    constructors' partial evaluation collapses each branch.  Raises
    :class:`NotConcretizable` for opaque symbolic values — for a pc,
    that is the "jump to unchecked untrusted address" case of §4.
    """
    from ..smt import mk_not
    from ..smt.terms import rebuild_with_args

    term = value.term if isinstance(value, SymBV) else value
    out: list[tuple[list[Term], int]] = []

    def go(t: Term, guards: list[Term]) -> None:
        if len(out) > limit:
            raise NotConcretizable(f"more than {limit} pc leaves")
        if t.op == "bvconst":
            out.append((guards, t.payload))
            return
        if t.op == "ite":
            cond, then, els = t.args
            go(then, guards + [cond])
            go(els, guards + [mk_not(cond)])
            return
        # Distribute over a unique ite child (pc arithmetic like
        # ``ite(...) + 1`` or ``ite(...) & ~1``).
        ite_children = [i for i, a in enumerate(t.args) if a.op == "ite"]
        symbolic_children = [i for i, a in enumerate(t.args) if not a.is_const()]
        if len(ite_children) == 1 and symbolic_children == ite_children:
            i = ite_children[0]
            cond, then, els = t.args[i].args
            then_args = t.args[:i] + (then,) + t.args[i + 1 :]
            els_args = t.args[:i] + (els,) + t.args[i + 1 :]
            go(rebuild_with_args(t, then_args), guards + [cond])
            go(rebuild_with_args(t, els_args), guards + [mk_not(cond)])
            return
        raise NotConcretizable(f"opaque symbolic value: {t!r}")

    go(term, [])
    return out


def destruct_linear(term: Term, width: int) -> tuple[Term | None, int, int]:
    """Destructure ``a*scale + offset`` with concrete scale/offset.

    Returns (index_term, scale, offset); index_term is None when the
    whole term is constant.  Recognizes the shapes produced by array
    indexing in lowered code: ``bvadd(bvmul/bvshl(idx, c), c2)``.
    This is the matcher behind the symbolic-memory-address
    optimization: ``(C0 * pid + C1) mod C0  ->  C1`` (§4).
    """
    offset = 0
    if term.op == "bvadd" and term.args[1].op == "bvconst":
        offset = term.args[1].payload
        term = term.args[0]
    if term.op == "bvconst":
        return None, 0, (term.payload + offset) & ((1 << width) - 1)
    scale = 1
    if term.op == "bvmul" and term.args[1].op == "bvconst":
        scale = term.args[1].payload
        term = term.args[0]
    elif term.op == "bvmul" and term.args[0].op == "bvconst":
        scale = term.args[0].payload
        term = term.args[1]
    elif term.op == "bvshl" and term.args[1].op == "bvconst":
        scale = 1 << term.args[1].payload
        term = term.args[0]
    return term, scale, offset

