"""State merging (Rosette's hybrid symbolic evaluation strategy, §3.2).

``merge(guard, a, b)`` combines two values into one guarded value:
bitvectors and booleans become ``ite`` terms; structures merge
field-wise; values that cannot merge symbolically become guarded
:class:`Union` values.  Merging at control-flow joins is what keeps
encodings polynomial in program size — and over-merging (e.g. of the
program counter) is exactly the bottleneck ``split_pc`` repairs.
"""

from __future__ import annotations

import copy
from typing import Any

from .value import SymBV, SymBool, sym_false

# Installed by ``repro.obs`` while a tracing session is open: called
# once per merge with the size of the largest union being merged (0
# when neither side is a union).
_merge_hook = None


def set_merge_hook(hook) -> None:
    global _merge_hook
    _merge_hook = hook


def merge(guard: SymBool, a: Any, b: Any) -> Any:
    """Merge two values under ``guard`` (guard true selects ``a``)."""
    if _merge_hook is not None:
        _merge_hook(
            max(len(a) if isinstance(a, Union) else 0, len(b) if isinstance(b, Union) else 0)
        )
    if guard.is_concrete:
        return a if guard.as_bool() else b
    if a is b:
        return a
    if isinstance(a, SymBV):
        return a.__sym_merge__(guard, b)
    if isinstance(b, SymBV):
        return b.__sym_merge__(~guard, a)
    if isinstance(a, SymBool) or isinstance(a, bool):
        if isinstance(b, (SymBool, bool)):
            av = a if isinstance(a, SymBool) else (sym_false() if not a else ~sym_false())
            return av.__sym_merge__(guard, b)
    if isinstance(a, int) and isinstance(b, int):
        if a == b:
            return a
        raise TypeError(
            f"cannot merge distinct concrete ints {a} and {b}; wrap them in SymBV "
            "with an explicit width"
        )
    if hasattr(a, "__sym_merge__"):
        return a.__sym_merge__(guard, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
        merged = [merge(guard, x, y) for x, y in zip(a, b)]
        return type(a)(merged) if isinstance(a, tuple) else merged
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return {k: merge(guard, a[k], b[k]) for k in a}
    if a == b:
        return a
    return Union.of(guard, a, b)


class Union:
    """A guarded union: a list of (guard, value) alternatives.

    This is Rosette's symbolic union, used when values cannot merge
    into a single term (e.g. two different decoded instructions under
    a symbolic pc — the Figure 5 bottleneck).
    """

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: list[tuple[SymBool, Any]]):
        self.alternatives = alternatives

    @classmethod
    def of(cls, guard: SymBool, a: Any, b: Any) -> "Union":
        alts: list[tuple[SymBool, Any]] = []
        for g, v in cls._explode(guard, a):
            alts.append((g, v))
        for g, v in cls._explode(~guard, b):
            alts.append((g, v))
        return cls(alts)

    @staticmethod
    def _explode(guard: SymBool, value: Any):
        if isinstance(value, Union):
            for g, v in value.alternatives:
                yield guard & g, v
        else:
            yield guard, value

    def __len__(self) -> int:
        return len(self.alternatives)

    def map(self, fn) -> Any:
        """Apply ``fn`` to each alternative and re-merge the results."""
        result = None
        first = True
        for g, v in reversed(self.alternatives):
            out = fn(v)
            if first:
                result = out
                first = False
            else:
                result = merge(g, out, result)
        return result

    def __repr__(self) -> str:
        inner = ", ".join(f"[{g.term!r} -> {v!r}]" for g, v in self.alternatives)
        return f"Union({inner})"


def merge_states(guard: SymBool, a: Any, b: Any) -> Any:
    """Field-wise merge of two machine-state objects of the same type.

    States must expose ``__dict__``-style or dataclass-style fields or
    implement ``__sym_merge__``; a deep copy of ``a`` receives merged
    fields (states are treated as mutable records, like the ``cpu``
    struct in Figure 4).
    """
    if hasattr(a, "__sym_merge__"):
        return a.__sym_merge__(guard, b)
    if type(a) is not type(b):
        raise TypeError(f"cannot merge states of types {type(a)} and {type(b)}")
    out = copy.copy(a)
    if hasattr(a, "__slots__"):
        names = a.__slots__
    else:
        names = list(vars(a).keys())
    for name in names:
        setattr(out, name, merge(guard, getattr(a, name), getattr(b, name)))
    return out
