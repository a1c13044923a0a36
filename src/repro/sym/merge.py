"""State merging (Rosette's hybrid symbolic evaluation strategy, §3.2).

``merge(guard, a, b)`` combines two values into one guarded value:
bitvectors and booleans become ``ite`` terms; a :class:`MachineState`
merges field by field; values that cannot merge symbolically become guarded
:class:`Union` values.  Merging at control-flow joins is what keeps
encodings polynomial in program size — and over-merging (e.g. of the
program counter) is exactly the bottleneck ``split_pc`` repairs.
"""

from __future__ import annotations

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


class MachineState:
    """A machine state as a record of fields (Figure 4's ``struct cpu``),
    which the engine copies and merges field by field, as Rosette merges
    a struct.  Fields are the subclass's ``__slots__``, merged in order.
    """

    __slots__ = ()

    def copy(self):
        """An independent copy.  A field value with a ``copy`` method (a
        list, a dict, a ``Memory``) is copied with it; any other (a term,
        a flag) is shared.  Lists and dicts are copied shallowly, so this
        is right only while they hold immutable values such as terms."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            value = getattr(self, name)
            copy = getattr(value, "copy", None)
            setattr(out, name, value if copy is None else copy())
        return out

    def __sym_merge__(self, guard: SymBool, other):
        """Merge field by field (guard true selects ``self``): a list
        element by element, a dict key by key in ``self``'s order, a plain
        value (``None``, bool, int, str) only if equal on both sides, and
        any other field with :func:`merge`."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            a, b = getattr(self, name), getattr(other, name)
            if isinstance(a, list):
                value = [merge(guard, x, y) for x, y in zip(a, b)]
            elif isinstance(a, dict):
                value = {k: merge(guard, v, b[k]) for k, v in a.items()}
            elif a is None or isinstance(a, (bool, int, str)):
                if a != b:
                    raise ValueError(f"cannot merge {type(self).__name__}s: {name} {a!r} != {b!r}")
                value = a
            else:
                value = merge(guard, a, b)
            setattr(out, name, value)
        return out


def merge_states(guard: SymBool, a: Any, b: Any) -> Any:
    """A new state merging machine states ``a`` and ``b`` (guard true
    selects ``a``): ``a.__sym_merge__(guard, b)``."""
    return a.__sym_merge__(guard, b)
