"""Symbolic values: the Rosette-substitute surface API.

``SymBV`` and ``SymBool`` wrap SMT terms with Python operator
overloading, so interpreters read like ordinary emulators (Figure 4)
and are "lifted" simply by being run on symbolic inputs.  Attempting
to branch on a symbolic boolean raises :class:`SymbolicBranchError`
instead of silently concretizing — interpreters must use ``ite``/
``merge`` or the engine's path splitting, mirroring how Rosette
intercepts control flow.
"""

from __future__ import annotations

from ..smt import (
    BOOL,
    Term,
    bv_sort,
    manager,
    mk_and,
    mk_bool,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvashr,
    mk_bvlshr,
    mk_bvmul,
    mk_bvneg,
    mk_bvnot,
    mk_bvor,
    mk_bvsdiv,
    mk_bvshl,
    mk_bvsrem,
    mk_bvsub,
    mk_bvudiv,
    mk_bvurem,
    mk_bvxor,
    mk_concat,
    mk_eq,
    mk_extract,
    mk_ite,
    mk_not,
    mk_or,
    mk_sext,
    mk_sle,
    mk_slt,
    mk_ule,
    mk_ult,
    mk_var,
    mk_xor,
    mk_zext,
)

__all__ = [
    "SymBool",
    "SymBV",
    "SymbolicBranchError",
    "bv",
    "bv_val",
    "fresh_bv",
    "fresh_bool",
    "sym_true",
    "sym_false",
    "ite",
    "sym_and",
    "sym_or",
    "sym_not",
    "sym_implies",
    "sym_eq",
]


class SymbolicBranchError(Exception):
    """Raised when Python control flow branches on a symbolic value.

    This is the same failure mode the paper's §3.2 profiling example
    warns about: an interpreter accidentally forcing a symbolic value
    through host-language control flow.  Use ``ite``, ``merge``, or a
    symbolic optimization like ``split_pc``/``split_cases``.
    """


class SymBool:
    """A symbolic boolean value."""

    __slots__ = ("term",)

    def __init__(self, term: Term):
        if term.sort is not BOOL:
            raise TypeError(f"SymBool needs a boolean term, got {term.sort!r}")
        self.term = term

    # -- concreteness ---------------------------------------------------------

    @property
    def is_concrete(self) -> bool:
        return self.term.op == "boolconst"

    def as_bool(self) -> bool:
        if not self.is_concrete:
            raise SymbolicBranchError(f"symbolic boolean has no concrete value: {self.term!r}")
        return self.term.payload

    def __bool__(self) -> bool:
        if self.is_concrete:
            return self.term.payload
        raise SymbolicBranchError(
            "cannot branch on a symbolic boolean; use ite()/merge() or a "
            f"symbolic optimization (term: {self.term!r})"
        )

    # -- connectives ---------------------------------------------------------

    def __and__(self, other) -> "SymBool":
        return SymBool(mk_and(self.term, _coerce_bool(other).term))

    __rand__ = __and__

    def __or__(self, other) -> "SymBool":
        return SymBool(mk_or(self.term, _coerce_bool(other).term))

    __ror__ = __or__

    def __xor__(self, other) -> "SymBool":
        return SymBool(mk_xor(self.term, _coerce_bool(other).term))

    __rxor__ = __xor__

    def __invert__(self) -> "SymBool":
        return SymBool(mk_not(self.term))

    def implies(self, other) -> "SymBool":
        return ~self | _coerce_bool(other)

    def __eq__(self, other) -> "SymBool":  # type: ignore[override]
        return SymBool(mk_eq(self.term, _coerce_bool(other).term))

    def __ne__(self, other) -> "SymBool":  # type: ignore[override]
        return ~(self == other)

    def __hash__(self):
        return hash(self.term)

    def __repr__(self) -> str:
        return f"SymBool({self.term!r})"

    def __sym_merge__(self, guard: "SymBool", other) -> "SymBool":
        return SymBool(mk_ite(guard.term, self.term, _coerce_bool(other).term))


def _coerce_bool(value) -> SymBool:
    if isinstance(value, SymBool):
        return value
    if isinstance(value, bool):
        return SymBool(mk_bool(value))
    if isinstance(value, Term) and value.sort is BOOL:
        return SymBool(value)
    raise TypeError(f"cannot coerce {value!r} to SymBool")


class SymBV:
    """A symbolic fixed-width bitvector.

    Arithmetic follows machine semantics (wraparound); comparison
    operators are unsigned by default with ``scmp`` variants for
    signed comparisons, matching the instruction sets we interpret.
    """

    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term

    @property
    def width(self) -> int:
        return self.term.width

    # -- concreteness ---------------------------------------------------------

    @property
    def is_concrete(self) -> bool:
        return self.term.op == "bvconst"

    def as_int(self) -> int:
        if not self.is_concrete:
            raise SymbolicBranchError(f"symbolic bitvector has no concrete value: {self.term!r}")
        return self.term.payload

    def __bool__(self) -> bool:
        raise SymbolicBranchError(
            "cannot use a bitvector as a branch condition; compare explicitly "
            f"(term: {self.term!r})"
        )

    def __index__(self) -> int:
        return self.as_int()

    # -- arithmetic -------------------------------------------------------------

    def _bin(self, other, mk) -> "SymBV":
        return SymBV(mk(self.term, self._coerce(other).term))

    def _rbin(self, other, mk) -> "SymBV":
        return SymBV(mk(self._coerce(other).term, self.term))

    def _coerce(self, other) -> "SymBV":
        return bv(other, self.width)

    def __add__(self, other):
        return self._bin(other, mk_bvadd)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, mk_bvsub)

    def __rsub__(self, other):
        return self._rbin(other, mk_bvsub)

    def __mul__(self, other):
        return self._bin(other, mk_bvmul)

    __rmul__ = __mul__

    def __and__(self, other):
        return self._bin(other, mk_bvand)

    __rand__ = __and__

    def __or__(self, other):
        return self._bin(other, mk_bvor)

    __ror__ = __or__

    def __xor__(self, other):
        return self._bin(other, mk_bvxor)

    __rxor__ = __xor__

    def __lshift__(self, other):
        return self._bin(other, mk_bvshl)

    def __rshift__(self, other):
        """Logical right shift (use :meth:`ashr` for arithmetic)."""
        return self._bin(other, mk_bvlshr)

    def __invert__(self):
        return SymBV(mk_bvnot(self.term))

    def __neg__(self):
        return SymBV(mk_bvneg(self.term))

    def ashr(self, other):
        return self._bin(other, mk_bvashr)

    def udiv(self, other):
        return self._bin(other, mk_bvudiv)

    def urem(self, other):
        return self._bin(other, mk_bvurem)

    def sdiv(self, other):
        return self._bin(other, mk_bvsdiv)

    def srem(self, other):
        return self._bin(other, mk_bvsrem)

    # -- comparisons (unsigned by default) ----------------------------------------

    def __eq__(self, other) -> SymBool:  # type: ignore[override]
        return SymBool(mk_eq(self.term, self._coerce(other).term))

    def __ne__(self, other) -> SymBool:  # type: ignore[override]
        return SymBool(mk_not(mk_eq(self.term, self._coerce(other).term)))

    def __lt__(self, other) -> SymBool:
        return SymBool(mk_ult(self.term, self._coerce(other).term))

    def __le__(self, other) -> SymBool:
        return SymBool(mk_ule(self.term, self._coerce(other).term))

    def __gt__(self, other) -> SymBool:
        return SymBool(mk_ult(self._coerce(other).term, self.term))

    def __ge__(self, other) -> SymBool:
        return SymBool(mk_ule(self._coerce(other).term, self.term))

    def slt(self, other) -> SymBool:
        return SymBool(mk_slt(self.term, self._coerce(other).term))

    def sle(self, other) -> SymBool:
        return SymBool(mk_sle(self.term, self._coerce(other).term))

    def sgt(self, other) -> SymBool:
        return SymBool(mk_slt(self._coerce(other).term, self.term))

    def sge(self, other) -> SymBool:
        return SymBool(mk_sle(self._coerce(other).term, self.term))

    def __hash__(self):
        return hash(self.term)

    # -- width changes -----------------------------------------------------------

    def zext(self, new_width: int) -> "SymBV":
        return SymBV(mk_zext(self.term, new_width - self.width))

    def sext(self, new_width: int) -> "SymBV":
        return SymBV(mk_sext(self.term, new_width - self.width))

    def trunc(self, new_width: int) -> "SymBV":
        return SymBV(mk_extract(new_width - 1, 0, self.term))

    def extract(self, hi: int, lo: int) -> "SymBV":
        return SymBV(mk_extract(hi, lo, self.term))

    def concat(self, low: "SymBV") -> "SymBV":
        return SymBV(mk_concat(self.term, low.term))

    def resize(self, new_width: int, signed: bool = False) -> "SymBV":
        if new_width == self.width:
            return self
        if new_width < self.width:
            return self.trunc(new_width)
        return self.sext(new_width) if signed else self.zext(new_width)

    def __repr__(self) -> str:
        if self.is_concrete:
            return f"bv{self.width}({self.as_int():#x})"
        return f"SymBV({self.term!r})"

    def __sym_merge__(self, guard: SymBool, other) -> "SymBV":
        other = self._coerce(other)
        return SymBV(mk_ite(guard.term, self.term, other.term))


# ---------------------------------------------------------------------------
# Constructors


def bv(value, width: int) -> SymBV:
    """Coerce an int/Term/SymBV to a SymBV of the given width."""
    if isinstance(value, SymBV):
        if value.width != width:
            raise TypeError(f"width mismatch: have {value.width}, want {width}")
        return value
    if isinstance(value, int):
        return SymBV(mk_bv(value, width))
    if isinstance(value, Term):
        if value.width != width:
            raise TypeError(f"width mismatch: have {value.width}, want {width}")
        return SymBV(value)
    raise TypeError(f"cannot coerce {value!r} to SymBV")


def bv_val(value: int, width: int) -> SymBV:
    """A concrete bitvector value of the given width."""
    return SymBV(mk_bv(value, width))


def fresh_bv(name: str, width: int) -> SymBV:
    """A fresh symbolic bitvector (Rosette's ``define-symbolic``)."""
    return SymBV(mk_var(manager.fresh_name(name), bv_sort(width)))


def named_bv(name: str, width: int) -> SymBV:
    """A named symbolic bitvector; same name yields the same variable."""
    return SymBV(mk_var(name, bv_sort(width)))


def fresh_bool(name: str) -> SymBool:
    """A fresh symbolic boolean (the name is uniquified)."""
    return SymBool(mk_var(manager.fresh_name(name), BOOL))


def named_bool(name: str) -> SymBool:
    """A named symbolic boolean; same name yields the same variable."""
    return SymBool(mk_var(name, BOOL))


def sym_true() -> SymBool:
    """The concrete true boolean."""
    return SymBool(mk_bool(True))


def sym_false() -> SymBool:
    """The concrete false boolean."""
    return SymBool(mk_bool(False))


def ite(cond, then, els):
    """Symbolic if-then-else over SymBV/SymBool/int leaves."""
    cond = _coerce_bool(cond)
    if cond.is_concrete:
        return then if cond.as_bool() else els
    from .merge import merge

    return merge(cond, then, els)


def sym_and(*conds) -> SymBool:
    """Symbolic conjunction over booleans (coercing ints/bools)."""
    return SymBool(mk_and(*(_coerce_bool(c).term for c in conds)))


def sym_or(*conds) -> SymBool:
    """Symbolic disjunction over booleans (coercing ints/bools)."""
    return SymBool(mk_or(*(_coerce_bool(c).term for c in conds)))


def sym_not(cond) -> SymBool:
    """Symbolic negation of a boolean."""
    return ~_coerce_bool(cond)


def sym_implies(a, b) -> SymBool:
    """Symbolic implication ``a -> b``."""
    return _coerce_bool(a).implies(b)


def sym_eq(a, b) -> SymBool:
    """Structural symbolic equality over values, tuples, and lists."""
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        if len(a) != len(b):
            return sym_false()
        out = sym_true()
        for x, y in zip(a, b):
            out = out & sym_eq(x, y)
        return out
    if isinstance(a, SymBool) or isinstance(b, SymBool) or isinstance(a, bool) or isinstance(b, bool):
        ab, bb = _coerce_bool(a), _coerce_bool(b)
        return SymBool(mk_eq(ab.term, bb.term))
    if isinstance(a, SymBV):
        return a == b
    if isinstance(b, SymBV):
        return b == a
    if isinstance(a, int) and isinstance(b, int):
        return sym_true() if a == b else sym_false()
    raise TypeError(f"cannot compare {a!r} and {b!r} symbolically")
