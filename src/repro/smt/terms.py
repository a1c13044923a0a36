"""Hash-consed term DAG with constant folding.

Every symbolic value in the stack bottoms out in one of these terms.
Terms are immutable and interned, so structural equality is pointer
equality and DAG sharing is maximal — this is what makes Rosette-style
state merging produce compact encodings (§3.2), and what lets the
symbolic profile (``repro.obs`` regions) count distinct terms cheaply.

Constructor functions (``mk_and``, ``mk_bvadd``, ...) perform constant
folding and local identity rewrites.  These rewrites play the role of
Rosette's partial evaluation: after a symbolic optimization such as
``split-pc`` concretizes a value, folding collapses the downstream
expressions to constants.
"""

from __future__ import annotations

from collections import OrderedDict
import hashlib
import marshal
import os
import threading
from typing import Callable, Iterable

from .sorts import BOOL, BitVecSort, Sort, bv_sort, is_bv

__all__ = [
    "Term",
    "TermManager",
    "manager",
    "serialize_terms",
    "serialize_with_prefix",
    "deserialize_terms",
    "canonicalize_query",
    "query_digest",
    "mk_true",
    "mk_false",
    "mk_bool",
    "mk_bv",
    "mk_var",
    "mk_not",
    "mk_and",
    "mk_or",
    "mk_xor",
    "mk_implies",
    "mk_ite",
    "mk_eq",
    "mk_distinct",
    "mk_ult",
    "mk_ule",
    "mk_slt",
    "mk_sle",
    "mk_bvadd",
    "mk_bvsub",
    "mk_bvmul",
    "mk_bvudiv",
    "mk_bvurem",
    "mk_bvsdiv",
    "mk_bvsrem",
    "mk_bvand",
    "mk_bvor",
    "mk_bvxor",
    "mk_bvnot",
    "mk_bvneg",
    "mk_bvshl",
    "mk_bvlshr",
    "mk_bvashr",
    "mk_concat",
    "mk_extract",
    "mk_zext",
    "mk_sext",
    "mk_apply",
    "to_signed",
    "to_unsigned",
]


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-bit value as two's complement."""
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def to_unsigned(value: int, width: int) -> int:
    """Truncate a Python int to an unsigned ``width``-bit value."""
    return value & ((1 << width) - 1)


class Term:
    """A node in the interned term DAG.

    Fields:
      op      -- operator tag ('bvconst', 'var', 'and', 'bvadd', ...)
      sort    -- the term's sort
      args    -- tuple of child terms
      payload -- op-specific data: constant value, variable name,
                 (hi, lo) for extract, function name for apply
    """

    __slots__ = ("op", "sort", "args", "payload", "_hash", "tid")

    def __init__(self, op: str, sort: Sort, args: tuple["Term", ...], payload, tid: int):
        self.op = op
        self.sort = sort
        self.args = args
        self.payload = payload
        self.tid = tid
        self._hash = hash((op, id(sort), tuple(a.tid for a in args), payload))

    def __hash__(self) -> int:
        return self._hash

    # Interning guarantees structural equality == identity.
    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    @property
    def width(self) -> int:
        sort = self.sort
        if not isinstance(sort, BitVecSort):
            raise TypeError(f"term {self!r} is not a bitvector")
        return sort.width

    def is_const(self) -> bool:
        return self.op in ("bvconst", "boolconst")

    def __repr__(self) -> str:
        if self.op == "bvconst":
            return f"bv{self.width}({self.payload:#x})"
        if self.op == "boolconst":
            return "true" if self.payload else "false"
        if self.op == "var":
            return str(self.payload)
        if self.op == "extract":
            hi, lo = self.payload
            return f"(extract {hi} {lo} {self.args[0]!r})"
        if self.op == "apply":
            inner = " ".join(repr(a) for a in self.args)
            return f"({self.payload} {inner})"
        inner = " ".join(repr(a) for a in self.args)
        return f"({self.op} {inner})"


class TermManager:
    """Interning table plus fresh-variable supply.

    A single global manager (``manager``) is used by the whole stack;
    tests may instantiate private managers for isolation.
    """

    def __init__(self) -> None:
        self._table: dict[tuple, Term] = {}
        self._next_tid = 0
        self._fresh_counter = 0
        # Called with each newly interned term while a ``repro.obs``
        # tracing session is open (the ``sym.terms`` counter); else None.
        self.on_new_term: Callable[[Term], None] | None = None

    def intern(self, op: str, sort: Sort, args: tuple[Term, ...], payload=None) -> Term:
        key = (op, id(sort), tuple(a.tid for a in args), payload)
        term = self._table.get(key)
        if term is None:
            term = Term(op, sort, args, payload, self._next_tid)
            self._next_tid += 1
            self._table[key] = term
            if self.on_new_term is not None:
                self.on_new_term(term)
        return term

    def fresh_name(self, prefix: str) -> str:
        self._fresh_counter += 1
        return f"{prefix}!{self._fresh_counter}"


manager = TermManager()

# ---------------------------------------------------------------------------
# Leaf constructors

# The two boolean constants, interned once at import: nothing replaces
# ``manager``, so they stay its terms.
_TRUE = manager.intern("boolconst", BOOL, (), True)
_FALSE = manager.intern("boolconst", BOOL, (), False)


def mk_bool(value: bool) -> Term:
    """The boolean constant ``value``."""
    return _TRUE if value else _FALSE


def mk_true() -> Term:
    """The constant ``true``."""
    return _TRUE


def mk_false() -> Term:
    """The constant ``false``."""
    return _FALSE


def mk_bv(value: int, width: int) -> Term:
    """The bitvector constant ``value`` (masked) of the given width."""
    return manager.intern("bvconst", bv_sort(width), (), to_unsigned(value, width))


def mk_var(name: str, sort: Sort) -> Term:
    """A symbolic constant of the given sort (interned by name)."""
    return manager.intern("var", sort, (), name)


def fresh_var(prefix: str, sort: Sort) -> Term:
    """A symbolic constant with a globally uniquified name."""
    return mk_var(manager.fresh_name(prefix), sort)


# ---------------------------------------------------------------------------
# Boolean connectives


def _is_true(t: Term) -> bool:
    return t.op == "boolconst" and t.payload is True


def _is_false(t: Term) -> bool:
    return t.op == "boolconst" and t.payload is False


def mk_not(a: Term) -> Term:
    """Boolean negation (double negation folds)."""
    if a.op == "boolconst":
        return mk_bool(not a.payload)
    if a.op == "not":
        return a.args[0]
    return manager.intern("not", BOOL, (a,))


def mk_and(*args: Term) -> Term:
    """N-ary conjunction (flattens, dedups, folds constants)."""
    flat: list[Term] = []
    seen: set[int] = set()
    for a in args:
        if _is_false(a):
            return mk_false()
        if _is_true(a):
            continue
        # Flatten nested conjunctions for sharing and smaller CNF.
        children = a.args if a.op == "and" else (a,)
        for c in children:
            if _is_false(c):
                return mk_false()
            if _is_true(c) or c.tid in seen:
                continue
            seen.add(c.tid)
            flat.append(c)
    for c in flat:
        if c.op == "not" and c.args[0].tid in seen:
            return mk_false()
    # Self-subsuming resolution: inside a conjunction, a disjunct whose
    # negation is already asserted can be dropped from an 'or' child:
    # and(a, or(not a, x), ...) == and(a, x, ...).
    changed = False
    for i, c in enumerate(flat):
        if c.op != "or":
            continue
        kept = [
            d
            for d in c.args
            if not (d.op == "not" and d.args[0].tid in seen)
            and not (d.op != "not" and mk_not(d).tid in seen)
        ]
        if len(kept) != len(c.args):
            flat[i] = mk_or(*kept)
            changed = True
    if changed:
        return mk_and(*flat)
    if not flat:
        return mk_true()
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda t: t.tid)
    return manager.intern("and", BOOL, tuple(flat))


def mk_or(*args: Term) -> Term:
    """N-ary disjunction (flattens, dedups, folds constants)."""
    flat: list[Term] = []
    seen: set[int] = set()
    for a in args:
        if _is_true(a):
            return mk_true()
        if _is_false(a):
            continue
        children = a.args if a.op == "or" else (a,)
        for c in children:
            if _is_true(c):
                return mk_true()
            if _is_false(c) or c.tid in seen:
                continue
            seen.add(c.tid)
            flat.append(c)
    for c in flat:
        if c.op == "not" and c.args[0].tid in seen:
            return mk_true()
    # Self-subsuming resolution: or(not a, and(a, x), ...) drops 'a'
    # from the conjunction.
    changed = False
    for i, c in enumerate(flat):
        if c.op != "and":
            continue
        kept = [
            d
            for d in c.args
            if not (d.op == "not" and d.args[0].tid in seen)
            and not (d.op != "not" and mk_not(d).tid in seen)
        ]
        if len(kept) != len(c.args):
            flat[i] = mk_and(*kept)
            changed = True
    if changed:
        return mk_or(*flat)
    if not flat:
        return mk_false()
    if len(flat) == 1:
        return flat[0]
    # De Morgan canonicalization (one direction only, so it cannot
    # ping-pong with mk_and): a disjunction of negations is stored as
    # the negated conjunction.  Together with the ite condition flip,
    # branch-merged updates then intern identically to functional
    # specs' positively-guarded updates.
    if all(c.op == "not" for c in flat):
        return mk_not(mk_and(*(c.args[0] for c in flat)))
    flat.sort(key=lambda t: t.tid)
    return manager.intern("or", BOOL, tuple(flat))


def mk_xor(a: Term, b: Term) -> Term:
    """Boolean exclusive-or."""
    if a.op == "boolconst":
        return mk_not(b) if a.payload else b
    if b.op == "boolconst":
        return mk_not(a) if b.payload else a
    if a is b:
        return mk_false()
    if a.tid > b.tid:
        a, b = b, a
    return manager.intern("xor", BOOL, (a, b))


def mk_implies(a: Term, b: Term) -> Term:
    """Implication ``a -> b``, built as ``not a or b``."""
    return mk_or(mk_not(a), b)


def mk_ite(cond: Term, then: Term, els: Term) -> Term:
    """If-then-else over booleans or same-width bitvectors."""
    if then.sort is not els.sort:
        raise TypeError(f"ite branch sorts differ: {then.sort!r} vs {els.sort!r}")
    if cond.op == "boolconst":
        return then if cond.payload else els
    if then is els:
        return then
    if then.sort is BOOL:
        if _is_true(then) and _is_false(els):
            return cond
        if _is_false(then) and _is_true(els):
            return mk_not(cond)
        if _is_true(then):
            return mk_or(cond, els)
        if _is_false(then):
            return mk_and(mk_not(cond), els)
        if _is_true(els):
            return mk_or(mk_not(cond), then)
        if _is_false(els):
            return mk_and(cond, then)
    if cond.op == "not":
        return mk_ite(cond.args[0], els, then)
    # Collapse ite(c, ite(c, a, _), b) and ite(c, a, ite(c, _, b)).
    if then.op == "ite" and then.args[0] is cond:
        then = then.args[1]
    if els.op == "ite" and els.args[0] is cond:
        els = els.args[2]
    if then is els:
        return then
    # Absorption: ite(c, ite(d, v, e), e) == ite(c & d, v, e) and
    # ite(c, t, ite(d, t, e)) == ite(c | d, t, e).  Normalizes guarded
    # updates produced by branch merging to the shape functional specs
    # write directly.
    if then.op == "ite" and then.args[2] is els:
        return mk_ite(mk_and(cond, then.args[0]), then.args[1], els)
    if els.op == "ite" and els.args[1] is then:
        return mk_ite(mk_or(cond, els.args[0]), then, els.args[2])
    return manager.intern("ite", then.sort, (cond, then, els))


def mk_eq(a: Term, b: Term) -> Term:
    """Equality over bitvectors or booleans (same sort required)."""
    if a.sort is not b.sort:
        raise TypeError(f"eq sorts differ: {a.sort!r} vs {b.sort!r}")
    if a is b:
        return mk_true()
    if a.is_const() and b.is_const():
        return mk_bool(a.payload == b.payload)
    if a.sort is BOOL:
        if a.op == "boolconst":
            return b if a.payload else mk_not(b)
        if b.op == "boolconst":
            return a if b.payload else mk_not(a)
    # eq distributes over ite with a constant on the other side; this
    # is the folding that makes split-cases effective (§4).
    if a.op == "ite" and b.is_const():
        return mk_ite(a.args[0], mk_eq(a.args[1], b), mk_eq(a.args[2], b))
    if b.op == "ite" and a.is_const():
        return mk_ite(b.args[0], mk_eq(b.args[1], a), mk_eq(b.args[2], a))
    # Two ites guarded by the *same* (interned) condition compare
    # branch-wise.  Refinement VCs are equalities between abstraction
    # trees and spec trees built from identical guards (e.g.
    # current == p), so this decomposition collapses most of the VC
    # at construction time.
    if a.op == "ite" and b.op == "ite" and a.args[0] is b.args[0]:
        return mk_ite(a.args[0], mk_eq(a.args[1], b.args[1]), mk_eq(a.args[2], b.args[2]))
    # ite equal to one of its own branches: only the guard (or the
    # other branch's equality) remains.
    if a.op == "ite":
        if a.args[1] is b:
            return mk_or(a.args[0], mk_eq(a.args[2], b))
        if a.args[2] is b:
            return mk_or(mk_not(a.args[0]), mk_eq(a.args[1], b))
    if b.op == "ite":
        if b.args[1] is a:
            return mk_or(b.args[0], mk_eq(b.args[2], a))
        if b.args[2] is a:
            return mk_or(mk_not(b.args[0]), mk_eq(b.args[1], a))
    if a.tid > b.tid:
        a, b = b, a
    return manager.intern("eq", BOOL, (a, b))


def mk_distinct(a: Term, b: Term) -> Term:
    """Disequality, built as ``not (a = b)``."""
    return mk_not(mk_eq(a, b))


# ---------------------------------------------------------------------------
# Bitvector comparisons


def _bv_binpred(op: str, a: Term, b: Term, concrete) -> Term:
    if a.sort is not b.sort or not is_bv(a.sort):
        raise TypeError(f"{op}: bad operand sorts {a.sort!r}, {b.sort!r}")
    if a.is_const() and b.is_const():
        return mk_bool(concrete(a.payload, b.payload, a.width))
    if a is b:
        return mk_bool(concrete(0, 0, a.width))
    return manager.intern(op, BOOL, (a, b))


def mk_ult(a: Term, b: Term) -> Term:
    """Unsigned less-than over bitvectors."""
    if b.is_const() and b.payload == 0:
        return mk_false()
    if a.is_const() and a.payload == 0:
        return mk_not(mk_eq(a, b))
    if b.is_const() and b.payload == 1:
        # x < 1 unsigned iff x == 0 (folds the seqz idiom to a boolean).
        return mk_eq(a, mk_bv(0, a.width))
    return _bv_binpred("ult", a, b, lambda x, y, w: x < y)


def mk_ule(a: Term, b: Term) -> Term:
    """Unsigned less-or-equal over bitvectors."""
    if a.is_const() and a.payload == 0:
        return mk_true()
    # Canonicalize to not(b < a) so <= and < intern to the same
    # underlying predicate (maximizing DAG sharing between the
    # specification's and the lowered implementation's conditions).
    return mk_not(mk_ult(b, a))


def mk_slt(a: Term, b: Term) -> Term:
    """Signed less-than over bitvectors."""
    return _bv_binpred("slt", a, b, lambda x, y, w: to_signed(x, w) < to_signed(y, w))


def mk_sle(a: Term, b: Term) -> Term:
    """Signed less-or-equal over bitvectors."""
    return mk_not(mk_slt(b, a))


# ---------------------------------------------------------------------------
# Bitvector arithmetic / logic


def _check_same_bv(op: str, a: Term, b: Term) -> int:
    if a.sort is not b.sort or not is_bv(a.sort):
        raise TypeError(f"{op}: bad operand sorts {a.sort!r}, {b.sort!r}")
    return a.width


def mk_bvadd(a: Term, b: Term) -> Term:
    """Bitvector addition (modular)."""
    w = _check_same_bv("bvadd", a, b)
    if a.is_const() and b.is_const():
        return mk_bv(a.payload + b.payload, w)
    if a.is_const() and a.payload == 0:
        return b
    if b.is_const() and b.payload == 0:
        return a
    # Re-associate (x + c1) + c2 -> x + (c1+c2); crucial for address
    # arithmetic produced by the memory model.
    if b.is_const() and a.op == "bvadd" and a.args[1].is_const():
        return mk_bvadd(a.args[0], mk_bv(a.args[1].payload + b.payload, w))
    if a.is_const() and b.op == "bvadd" and b.args[1].is_const():
        return mk_bvadd(b.args[0], mk_bv(b.args[1].payload + a.payload, w))
    if a.is_const():
        a, b = b, a  # canonical: constant on the right
    return manager.intern("bvadd", a.sort, (a, b))


def mk_bvsub(a: Term, b: Term) -> Term:
    """Bitvector subtraction (modular)."""
    w = _check_same_bv("bvsub", a, b)
    if b.is_const():
        return mk_bvadd(a, mk_bv(-b.payload, w))
    if a.is_const() and b.op == "bvadd" and b.args[1].is_const():
        # c - (x + c2) == (c - c2) - x
        return mk_bvsub(mk_bv(a.payload - b.args[1].payload, w), b.args[0])
    if a is b:
        return mk_bv(0, w)
    return manager.intern("bvsub", a.sort, (a, b))


def mk_bvmul(a: Term, b: Term) -> Term:
    """Bitvector multiplication (modular)."""
    w = _check_same_bv("bvmul", a, b)
    if a.is_const() and b.is_const():
        return mk_bv(a.payload * b.payload, w)
    for x, y in ((a, b), (b, a)):
        if x.is_const():
            if x.payload == 0:
                return mk_bv(0, w)
            if x.payload == 1:
                return y
            if x.payload & (x.payload - 1) == 0:
                # Strength-reduce multiplication by a power of two.
                return mk_bvshl(y, mk_bv(x.payload.bit_length() - 1, w))
    if a.tid > b.tid:
        a, b = b, a
    return manager.intern("bvmul", a.sort, (a, b))


def mk_bvudiv(a: Term, b: Term) -> Term:
    """Unsigned division; division by zero yields all-ones (SMT-LIB)."""
    w = _check_same_bv("bvudiv", a, b)
    if b.is_const():
        if b.payload == 0:
            # SMT-LIB: division by zero yields all-ones.
            return mk_bv((1 << w) - 1, w) if a.is_const() else manager.intern("bvudiv", a.sort, (a, b))
        if a.is_const():
            return mk_bv(a.payload // b.payload, w)
        if b.payload == 1:
            return a
        if b.payload & (b.payload - 1) == 0:
            return mk_bvlshr(a, mk_bv(b.payload.bit_length() - 1, w))
    return manager.intern("bvudiv", a.sort, (a, b))


def mk_bvurem(a: Term, b: Term) -> Term:
    """Unsigned remainder; remainder by zero yields ``a`` (SMT-LIB)."""
    w = _check_same_bv("bvurem", a, b)
    if b.is_const():
        if b.payload == 0:
            return a if a.is_const() else manager.intern("bvurem", a.sort, (a, b))
        if a.is_const():
            return mk_bv(a.payload % b.payload, w)
        if b.payload == 1:
            return mk_bv(0, w)
        if b.payload & (b.payload - 1) == 0:
            return mk_bvand(a, mk_bv(b.payload - 1, w))
    return manager.intern("bvurem", a.sort, (a, b))


def _sdiv_concrete(x: int, y: int, w: int) -> int:
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return (1 << w) - 1 if sx >= 0 else 1
    q = abs(sx) // abs(sy)
    if (sx < 0) != (sy < 0):
        q = -q
    return to_unsigned(q, w)


def _srem_concrete(x: int, y: int, w: int) -> int:
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return x
    r = abs(sx) % abs(sy)
    if sx < 0:
        r = -r
    return to_unsigned(r, w)


def mk_bvsdiv(a: Term, b: Term) -> Term:
    """Signed division, truncating (SMT-LIB semantics)."""
    w = _check_same_bv("bvsdiv", a, b)
    if a.is_const() and b.is_const():
        return mk_bv(_sdiv_concrete(a.payload, b.payload, w), w)
    return manager.intern("bvsdiv", a.sort, (a, b))


def mk_bvsrem(a: Term, b: Term) -> Term:
    """Signed remainder, sign follows the dividend (SMT-LIB)."""
    w = _check_same_bv("bvsrem", a, b)
    if a.is_const() and b.is_const():
        return mk_bv(_srem_concrete(a.payload, b.payload, w), w)
    return manager.intern("bvsrem", a.sort, (a, b))




def _bool_shaped(t: Term, depth: int = 3) -> bool:
    """An ite tree with constant leaves (a 0/1 flag or small select).

    Bounded depth keeps the distribution from exploding on data ites.
    """
    if t.is_const():
        return depth < 3  # a bare constant only counts as a sub-tree
    if t.op != "ite" or depth == 0:
        return False
    return _bool_shaped(t.args[1], depth - 1) and _bool_shaped(t.args[2], depth - 1)


def _distribute_flags(fn, a: Term, b: Term) -> Term | None:
    """Distribute a bitwise op over boolean-shaped ites.

    Lowered code computes flags as ``ite(c, 1, 0)`` values and combines
    them with bvand/bvor/bvxor; distributing re-exposes the underlying
    boolean structure so that e.g. the spec's ``c1 and c2`` and the
    implementation's ``(c1 ? 1 : 0) & (c2 ? 1 : 0) != 0`` intern to the
    same term.  Bounded: at most 4 constant leaves.
    """
    a_flag = not a.is_const() and _bool_shaped(a)
    b_flag = not b.is_const() and _bool_shaped(b)
    if a_flag and (b.is_const() or b_flag):
        return mk_ite(a.args[0], fn(a.args[1], b), fn(a.args[2], b))
    if b_flag and a.is_const():
        return mk_ite(b.args[0], fn(a, b.args[1]), fn(a, b.args[2]))
    return None


def mk_bvand(a: Term, b: Term) -> Term:
    """Bitwise and."""
    w = _check_same_bv("bvand", a, b)
    if a.is_const() and b.is_const():
        return mk_bv(a.payload & b.payload, w)
    ones = (1 << w) - 1
    for x, y in ((a, b), (b, a)):
        if x.is_const():
            if x.payload == 0:
                return mk_bv(0, w)
            if x.payload == ones:
                return y
    if a is b:
        return a
    dist = _distribute_flags(mk_bvand, a, b)
    if dist is not None:
        return dist
    if a.tid > b.tid:
        a, b = b, a
    return manager.intern("bvand", a.sort, (a, b))


def mk_bvor(a: Term, b: Term) -> Term:
    """Bitwise or."""
    w = _check_same_bv("bvor", a, b)
    if a.is_const() and b.is_const():
        return mk_bv(a.payload | b.payload, w)
    ones = (1 << w) - 1
    for x, y in ((a, b), (b, a)):
        if x.is_const():
            if x.payload == 0:
                return y
            if x.payload == ones:
                return mk_bv(ones, w)
    if a is b:
        return a
    dist = _distribute_flags(mk_bvor, a, b)
    if dist is not None:
        return dist
    if a.tid > b.tid:
        a, b = b, a
    return manager.intern("bvor", a.sort, (a, b))


def mk_bvxor(a: Term, b: Term) -> Term:
    """Bitwise exclusive-or."""
    w = _check_same_bv("bvxor", a, b)
    if a.is_const() and b.is_const():
        return mk_bv(a.payload ^ b.payload, w)
    for x, y in ((a, b), (b, a)):
        if x.is_const() and x.payload == 0:
            return y
    if a is b:
        return mk_bv(0, w)
    dist = _distribute_flags(mk_bvxor, a, b)
    if dist is not None:
        return dist
    if a.tid > b.tid:
        a, b = b, a
    return manager.intern("bvxor", a.sort, (a, b))


def mk_bvnot(a: Term) -> Term:
    """Bitwise complement."""
    if a.is_const():
        return mk_bv(~a.payload, a.width)
    if a.op == "bvnot":
        return a.args[0]
    return manager.intern("bvnot", a.sort, (a,))


def mk_bvneg(a: Term) -> Term:
    """Two's-complement negation."""
    if a.is_const():
        return mk_bv(-a.payload, a.width)
    return manager.intern("bvneg", a.sort, (a,))


def _shift_amount(b: Term, w: int) -> int | None:
    """Concrete shift amount, clamped to the SMT-LIB >=width semantics."""
    if b.is_const():
        return min(b.payload, w)
    return None


def mk_bvshl(a: Term, b: Term) -> Term:
    """Shift left; shifts >= width yield zero (SMT-LIB)."""
    w = _check_same_bv("bvshl", a, b)
    amt = _shift_amount(b, w)
    if amt is not None:
        if amt == 0:
            return a
        if amt >= w:
            return mk_bv(0, w)
        if a.is_const():
            return mk_bv(a.payload << amt, w)
    return manager.intern("bvshl", a.sort, (a, b))


def mk_bvlshr(a: Term, b: Term) -> Term:
    """Logical shift right; shifts >= width yield zero (SMT-LIB)."""
    w = _check_same_bv("bvlshr", a, b)
    amt = _shift_amount(b, w)
    if amt is not None:
        if amt == 0:
            return a
        if amt >= w:
            return mk_bv(0, w)
        if a.is_const():
            return mk_bv(a.payload >> amt, w)
    return manager.intern("bvlshr", a.sort, (a, b))


def mk_bvashr(a: Term, b: Term) -> Term:
    """Arithmetic shift right (sign-filling)."""
    w = _check_same_bv("bvashr", a, b)
    amt = _shift_amount(b, w)
    if amt is not None:
        if amt == 0:
            return a
        if a.is_const():
            return mk_bv(to_signed(a.payload, w) >> min(amt, w - 1), w)
        if amt >= w:
            amt = w - 1
            b = mk_bv(amt, w)
    return manager.intern("bvashr", a.sort, (a, b))


# ---------------------------------------------------------------------------
# Structural bitvector ops


def mk_concat(hi: Term, lo: Term) -> Term:
    """Concatenation: ``hi`` becomes the high-order bits."""
    if not (is_bv(hi.sort) and is_bv(lo.sort)):
        raise TypeError("concat expects bitvectors")
    w = hi.width + lo.width
    if hi.is_const() and lo.is_const():
        return mk_bv((hi.payload << lo.width) | lo.payload, w)
    return manager.intern("concat", bv_sort(w), (hi, lo))


def mk_extract(hi: int, lo: int, a: Term) -> Term:
    """Bit slice ``a[hi:lo]`` inclusive, yielding ``hi-lo+1`` bits."""
    if not is_bv(a.sort):
        raise TypeError("extract expects a bitvector")
    if not (0 <= lo <= hi < a.width):
        raise ValueError(f"bad extract range [{hi}:{lo}] on width {a.width}")
    w = hi - lo + 1
    if w == a.width:
        return a
    if a.is_const():
        return mk_bv(a.payload >> lo, w)
    if a.op == "extract":
        ihi, ilo = a.payload
        return mk_extract(ilo + hi, ilo + lo, a.args[0])
    if a.op == "concat":
        hterm, lterm = a.args
        if hi < lterm.width:
            return mk_extract(hi, lo, lterm)
        if lo >= lterm.width:
            return mk_extract(hi - lterm.width, lo - lterm.width, hterm)
    if a.op in ("zext", "sext"):
        inner = a.args[0]
        if hi < inner.width:
            return mk_extract(hi, lo, inner)
        if a.op == "zext" and lo >= inner.width:
            return mk_bv(0, w)
    if a.op == "ite":
        cond, t, e = a.args
        if t.is_const() or e.is_const():
            return mk_ite(cond, mk_extract(hi, lo, t), mk_extract(hi, lo, e))
    return manager.intern("extract", bv_sort(w), (a,), (hi, lo))


def mk_zext(a: Term, extra: int) -> Term:
    """Zero-extend by ``extra`` bits."""
    if extra < 0:
        raise ValueError("zext amount must be non-negative")
    if extra == 0:
        return a
    if a.is_const():
        return mk_bv(a.payload, a.width + extra)
    if a.op == "zext":
        return mk_zext(a.args[0], extra + a.width - a.args[0].width)
    return manager.intern("zext", bv_sort(a.width + extra), (a,))


def mk_sext(a: Term, extra: int) -> Term:
    """Sign-extend by ``extra`` bits."""
    if extra < 0:
        raise ValueError("sext amount must be non-negative")
    if extra == 0:
        return a
    if a.is_const():
        return mk_bv(to_signed(a.payload, a.width), a.width + extra)
    return manager.intern("sext", bv_sort(a.width + extra), (a,))


# ---------------------------------------------------------------------------
# Uninterpreted functions


def mk_apply(name: str, result_sort: Sort, args: Iterable[Term]) -> Term:
    """Application of an uninterpreted function (Ackermannized later)."""
    return manager.intern("apply", result_sort, tuple(args), name)


# ---------------------------------------------------------------------------
# Generic reconstruction (used by symbolic reflection)

_BINARY_CONSTRUCTORS = {}
_UNARY_CONSTRUCTORS = {}


def _register_constructors() -> None:
    _BINARY_CONSTRUCTORS.update(
        {
            "eq": mk_eq,
            "ult": mk_ult,
            "ule": mk_ule,
            "slt": mk_slt,
            "sle": mk_sle,
            "bvadd": mk_bvadd,
            "bvsub": mk_bvsub,
            "bvmul": mk_bvmul,
            "bvudiv": mk_bvudiv,
            "bvurem": mk_bvurem,
            "bvsdiv": mk_bvsdiv,
            "bvsrem": mk_bvsrem,
            "bvand": mk_bvand,
            "bvor": mk_bvor,
            "bvxor": mk_bvxor,
            "bvshl": mk_bvshl,
            "bvlshr": mk_bvlshr,
            "bvashr": mk_bvashr,
            "concat": mk_concat,
            "xor": mk_xor,
        }
    )
    _UNARY_CONSTRUCTORS.update({"bvnot": mk_bvnot, "bvneg": mk_bvneg, "not": mk_not})


_register_constructors()


def rebuild_with_args(term: Term, new_args: tuple[Term, ...]) -> Term:
    """Re-apply ``term``'s operator to replacement arguments.

    Goes through the folding constructors, so substituting a constant
    child triggers partial evaluation.  Used by symbolic reflection to
    distribute operators over ite branches (e.g. pc arithmetic)."""
    op = term.op
    if op in _BINARY_CONSTRUCTORS:
        return _BINARY_CONSTRUCTORS[op](new_args[0], new_args[1])
    if op in _UNARY_CONSTRUCTORS:
        return _UNARY_CONSTRUCTORS[op](new_args[0])
    if op == "ite":
        return mk_ite(new_args[0], new_args[1], new_args[2])
    if op == "and":
        return mk_and(*new_args)
    if op == "or":
        return mk_or(*new_args)
    if op == "extract":
        hi, lo = term.payload
        return mk_extract(hi, lo, new_args[0])
    if op == "zext":
        return mk_zext(new_args[0], term.width - new_args[0].width)
    if op == "sext":
        return mk_sext(new_args[0], term.width - new_args[0].width)
    if op == "apply":
        return mk_apply(term.payload, term.sort, new_args)
    raise ValueError(f"cannot rebuild op {op!r}")


# ---------------------------------------------------------------------------
# Serialization and canonical query digests
#
# The proof-obligation runner (repro.core.runner) ships queries to
# worker processes and memoizes solver verdicts on disk.  Both need a
# portable view of the interned DAG:
#
#   * ``serialize_terms``/``deserialize_terms`` give a JSON-able
#     post-order node list that round-trips through ``intern`` (so a
#     worker process rebuilds pointer-identical structure in its own
#     manager without re-running the folding constructors);
#   * ``canonicalize_query`` alpha-renames variables by first
#     occurrence and hashes the DAG, so two runs (or two harnesses)
#     that build the same query with different fresh-name counters
#     produce the same cache key.


def _sort_tag(sort: Sort):
    return "b" if sort is BOOL else sort.width


def _sort_from_tag(tag) -> Sort:
    return BOOL if tag == "b" else bv_sort(int(tag))


def _walk(root: Term, nodes: list[list], index: dict[int, int]) -> int:
    """Append the terms ``root`` reaches that ``index`` (tid -> node
    index) does not hold yet to ``nodes``, in post-order; returns
    ``root``'s node index."""
    # Iterative post-order: VC DAGs can be deeper than the interpreter
    # recursion limit.
    stack: list[tuple[Term, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if t.tid in index:
            continue
        if expanded:
            args = [index[a.tid] for a in t.args]
            payload = list(t.payload) if isinstance(t.payload, tuple) else t.payload
            nodes.append([t.op, _sort_tag(t.sort), args, payload])
            index[t.tid] = len(nodes) - 1
        else:
            stack.append((t, True))
            for a in t.args:
                stack.append((a, False))
    return index[root.tid]


def serialize_terms(roots: Iterable[Term]) -> dict:
    """Flatten a set of root terms into a portable node list.

    The result is JSON/pickle friendly: ``nodes`` is a post-order list
    of ``[op, sort_tag, arg_indices, payload]`` entries and ``roots``
    indexes into it.  Payloads are restricted to what terms carry:
    ints, bools, strings, and (hi, lo) pairs for extract.
    """
    nodes: list[list] = []
    index: dict[int, int] = {}
    return {"nodes": nodes, "roots": [_walk(r, nodes, index) for r in roots]}


def serialize_with_prefix(prefix: Iterable[Term], lasts: Iterable[Term]) -> list[dict]:
    """``serialize_terms([*prefix, last])`` for each of ``lasts``, with
    the prefix walked once.

    The walk is deterministic, so each result is exactly that call's:
    the prefix's nodes, then the nodes only ``last`` reaches.  The
    results share the prefix's node entries; treat them as read-only.
    """
    nodes: list[list] = []
    index: dict[int, int] = {}
    roots = [_walk(r, nodes, index) for r in prefix]
    out = []
    for last in lasts:
        ext_nodes, ext_index = list(nodes), dict(index)
        root = _walk(last, ext_nodes, ext_index)
        out.append({"nodes": ext_nodes, "roots": [*roots, root]})
    return out


def deserialize_terms(data: dict, mgr: TermManager | None = None) -> list[Term]:
    """Rebuild serialized terms in ``mgr`` (the global manager by default).

    Nodes are re-interned directly rather than re-run through the
    folding constructors: the source terms were already folded, and a
    byte-identical rebuild keeps obligation results reproducible across
    worker processes.
    """
    mgr = mgr or manager
    built: list[Term] = []
    for op, sort_tag, arg_idxs, payload in data["nodes"]:
        if isinstance(payload, list):
            payload = tuple(payload)
        args = tuple(built[i] for i in arg_idxs)
        built.append(mgr.intern(op, _sort_from_tag(sort_tag), args, payload))
    return [built[i] for i in data["roots"]]


# Operators whose argument order carries no meaning.  The folding
# constructors order their operands by interning id (tid), which is an
# artifact of construction order — two alpha-equivalent queries built
# at different times can disagree on it, so canonicalization re-sorts
# these children by a variable-blind structural key.
_COMMUTATIVE = frozenset(
    {"and", "or", "xor", "eq", "distinct", "bvadd", "bvmul", "bvand", "bvor", "bvxor"}
)


def canonicalize_query(roots: Iterable[Term]) -> tuple[str, dict[str, str]]:
    """Canonical digest of a query, plus the variable renaming used.

    Variables are alpha-renamed ``v0, v1, ...`` in canonical traversal
    order, so queries that differ only in fresh-name counters — e.g.
    the same verification condition rebuilt in a new process, where
    ``state.x!17`` became ``state.x!3`` — hash to the same key.
    Children of commutative operators are ordered by a variable-blind
    shape key first, making the digest independent of the tid ordering
    the constructors bake in.  Returns ``(hex_digest,
    {original_name: canonical_name})`` so cached models can be stored
    and replayed under canonical names.
    """
    return canonicalize_nodes(serialize_terms(roots))


def canonicalize_nodes(data: dict) -> tuple[str, dict[str, str]]:
    """:func:`canonicalize_query` over an already-serialized node list.

    Split out so anything holding a portable query payload — proof
    certificates bind their digest to one — can recompute the canonical
    digest without rebuilding terms.  The standalone certificate
    checker (``repro.smt.checkproof``) reimplements exactly this
    function over the same ``[op, sort_tag, arg_idxs, payload]`` node
    schema; the two must stay in lockstep.

    Every obligation of a proof shares its assumptions, the query's
    other roots, as a prefix of its node list.  Each process memoizes
    the canonicalization of such a prefix (:func:`_canonical_prefix`),
    so a proof's assumptions are hashed once, not once per obligation
    and per piece.  The memo changes how the digest is computed, never
    what it is: ``checkproof``'s mirror computes it whole and agrees.
    """
    nodes, roots = data["nodes"], data["roots"]
    size, shape, var_map, visited, enc, unvisited = _canonical_prefix(nodes, roots[:-1])
    rest = roots[-1:] if size else roots
    shape = list(shape)
    _shape_keys(nodes, shape, len(nodes))
    var_map = dict(var_map)
    visited = set(visited)
    _number_vars(nodes, rest, shape, var_map, visited)
    enc = [*enc, *[None] * (len(nodes) - size)]
    _encode(nodes, [*unvisited, *range(size, len(nodes))], shape, var_map, enc)

    hasher = hashlib.sha256()
    for r in roots:
        hasher.update(enc[r].encode())
        hasher.update(b"\n")
    return hasher.hexdigest(), var_map


# Canonicalized query prefixes, by exact content, most recent last.
_PREFIXES: OrderedDict[bytes, tuple] = OrderedDict()
_PREFIXES_MAX = 32
_PREFIXES_LOCK = threading.Lock()
# The state of an empty prefix: the whole query is canonicalized per call.
_NO_PREFIX = (0, (), {}, frozenset(), (), ())


def _fresh_prefix_lock() -> None:
    """Give a forked child a lock of its own: another thread of the
    parent may have held the parent's when it forked."""
    global _PREFIXES_LOCK
    _PREFIXES_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_prefix_lock)


def _canonical_prefix(nodes: list, others: list) -> tuple:
    """The canonicalization state of a query's prefix: ``nodes[:P]``,
    ``P = 1 + max(others)``, under its roots ``others`` (every root but
    the last).

    Every argument is an earlier node, so the prefix's shape keys, the
    variable numbering after the walk from ``others``, the nodes that
    walk visits and their final digests depend on ``(nodes[:P], others)``
    alone, whatever the last root adds.  A prefix node that ``others``
    does not reach (a hand-built payload may hold one) is left to each
    query: a variable under it may be numbered by the last root's walk.
    Returns ``(P, shape, var_map, visited, enc, unvisited)``, with the
    digest of each unvisited node None in ``enc``; callers copy before
    extending.

    Keyed by the prefix's exact content, never by a hash of it: its
    ``marshal`` encoding, format version 0, which has no back-references
    and no interning flags, so it is a function of the value alone and
    tells a list from a tuple, a bool from an int and every string's
    text.  Bounded, least recently used out first.  No prefix (the empty
    state) for a query of one root, a root that is not a node, or a
    prefix ``marshal`` cannot encode exactly (a subclass of a builtin
    type).
    """
    if not others or min(others) < 0 or max(others) >= len(nodes):
        return _NO_PREFIX
    size = 1 + max(others)
    try:
        key = marshal.dumps((nodes[:size], others), 0)
    except ValueError:
        return _NO_PREFIX
    with _PREFIXES_LOCK:
        state = _PREFIXES.get(key)
        if state is not None:
            _PREFIXES.move_to_end(key)
            return state
    shape: list[str] = []
    _shape_keys(nodes, shape, size)
    var_map: dict[str, str] = {}
    visited: set[int] = set()
    _number_vars(nodes, others, shape, var_map, visited)
    enc: list = [None] * size
    _encode(nodes, sorted(visited), shape, var_map, enc)
    unvisited = tuple(i for i in range(size) if i not in visited)
    state = (size, tuple(shape), var_map, frozenset(visited), tuple(enc), unvisited)
    with _PREFIXES_LOCK:
        _PREFIXES[key] = state
        if len(_PREFIXES) > _PREFIXES_MAX:
            _PREFIXES.popitem(last=False)
    return state


def _shape_keys(nodes: list, shape: list[str], stop: int) -> None:
    """Pass 1 (bottom-up): extend ``shape`` with the variable-blind shape
    key of each node up to ``stop``.  Children of commutative ops are
    sorted by shape so the key is stable across construction orders;
    ties fall back to stored order."""
    for i in range(len(shape), stop):
        op, sort_tag, arg_idxs, payload = nodes[i]
        child = [shape[j] for j in arg_idxs]
        if op in _COMMUTATIVE:
            child = sorted(child)
        tag = "VAR" if op == "var" else repr(payload)
        shape.append(hashlib.sha256(f"{op}|{sort_tag}|{tag}|{child}".encode()).hexdigest())


def _child_order(op: str, arg_idxs: list[int], shape: list[str]) -> list[int]:
    if op in _COMMUTATIVE:
        return sorted(arg_idxs, key=lambda j: shape[j])
    return list(arg_idxs)


def _number_vars(nodes: list, roots, shape: list[str], var_map: dict, visited: set) -> None:
    """Pass 2: number variables by first occurrence along a DFS from
    ``roots`` that visits children in canonical order, extending
    ``var_map`` and ``visited``."""
    for r in roots:
        stack = [r]
        while stack:
            i = stack.pop()
            if i in visited:
                continue
            visited.add(i)
            op, _sort_tag, arg_idxs, payload = nodes[i]
            if op == "var":
                name = str(payload)
                if name not in var_map:
                    var_map[name] = f"v{len(var_map)}"
            # Reversed so the canonical-first child is visited first.
            for j in reversed(_child_order(op, arg_idxs, shape)):
                stack.append(j)


def _encode(nodes: list, indices, shape: list[str], var_map: dict, enc: list) -> None:
    """Pass 3 (bottom-up, ``indices`` ascending): the final digest of
    each node, variables replaced by their canonical numbers."""
    for i in indices:
        op, sort_tag, arg_idxs, payload = nodes[i]
        tag = var_map[str(payload)] if op == "var" else repr(payload)
        child = [enc[j] for j in _child_order(op, arg_idxs, shape)]
        enc[i] = hashlib.sha256(f"{op}|{sort_tag}|{tag}|{child}".encode()).hexdigest()


def query_digest(roots: Iterable[Term]) -> str:
    """Just the canonical hash of ``canonicalize_query``."""
    return canonicalize_query(roots)[0]
