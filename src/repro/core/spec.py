r"""Specification library: spec states, theorems, and refinement (§3.3).

Serval asks system developers for four specification inputs:

  1. a definition of specification state   -> :func:`spec_struct`
  2. a functional specification            -> a Python function
  3. an abstraction function AF             -> a Python function
  4. a representation invariant RI          -> a Python function

and proves lock-step state-machine refinement:

  RI(c)              =>  RI(f_impl(c))
  RI(c) /\ AF(c) = s  =>  AF(f_impl(c)) = f_spec(s)

plus the absence of undefined behaviour (every ``bug_on`` collected
while evaluating ``f_impl`` must be false).

A spec state's vectors are concrete lists indexed by symbolic values:
:func:`select` reads one element, :func:`update` writes one, and
:func:`set_bank` writes one register of one context's bank in a flat
vector of saved-register banks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..sym import (
    ProofResult,
    SymBool,
    fresh_bool,
    fresh_bv,
    ite,
    merge,
    new_context,
    sym_eq,
    sym_true,
    verify_vcs,
)

__all__ = ["spec_struct", "SpecStruct", "theorem", "Refinement", "select", "update", "set_bank"]


class SpecStruct:
    """A record of symbolic fields, with structural equality and merge.

    The Python analogue of the paper's ``(struct state (a0 a1))``:
    field specs map names to a bit width, ``(width, count)`` for a
    vector of bitvectors, or ``bool``.
    """

    _fields: dict[str, Any] = {}
    _name = "state"

    def __init__(self, **values):
        for fname, shape in self._fields.items():
            if fname in values:
                setattr(self, fname, values.pop(fname))
            else:
                setattr(self, fname, _fresh_field(f"{self._name}.{fname}", shape))
        if values:
            raise TypeError(f"unknown fields: {sorted(values)}")

    @classmethod
    def fresh(cls, prefix: str | None = None) -> "SpecStruct":
        obj = cls.__new__(cls)
        base = prefix or cls._name
        for fname, shape in cls._fields.items():
            setattr(obj, fname, _fresh_field(f"{base}.{fname}", shape))
        return obj

    def copy(self) -> "SpecStruct":
        obj = self.__class__.__new__(self.__class__)
        for fname in self._fields:
            value = getattr(self, fname)
            setattr(obj, fname, list(value) if isinstance(value, list) else value)
        return obj

    def eq(self, other: "SpecStruct") -> SymBool:
        out = sym_true()
        for fname in self._fields:
            out = out & sym_eq(getattr(self, fname), getattr(other, fname))
        return out

    def __sym_merge__(self, guard: SymBool, other: "SpecStruct") -> "SpecStruct":
        obj = self.__class__.__new__(self.__class__)
        for fname in self._fields:
            setattr(obj, fname, merge(guard, getattr(self, fname), getattr(other, fname)))
        return obj

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self._name}({inner})"


def _fresh_field(name: str, shape):
    if shape is bool:
        return fresh_bool(name)
    if isinstance(shape, int):
        return fresh_bv(name, shape)
    if isinstance(shape, tuple) and len(shape) == 2:
        width, count = shape
        return [fresh_bv(f"{name}[{i}]", width) for i in range(count)]
    raise TypeError(f"bad field shape for {name}: {shape!r}")


def select(vec: list, idx):
    """``vec[idx]`` for a symbolic ``idx``: an ``ite`` chain over the
    concrete list, in which an index past the end reads the last
    element."""
    out = vec[-1]
    for i in range(len(vec) - 2, -1, -1):
        out = ite(idx == i, vec[i], out)
    return out


def update(vec: list, idx, value, guard: SymBool | None = None) -> list:
    """Functional ``vec[idx] := value`` for a symbolic ``idx``, where
    ``guard`` holds (everywhere when it is None); an index past the end
    writes nothing."""
    out = []
    for i, old in enumerate(vec):
        cond = idx == i if guard is None else (idx == i) & guard
        out.append(ite(cond, value, old))
    return out


def set_bank(regs: list, ctx, j: int, value, nsaved: int, guard: SymBool | None = None) -> list:
    """Write register ``j`` of context ``ctx``'s bank, where ``guard``
    holds, in a flat vector of ``nsaved``-register banks (context c's
    register j at ``c * nsaved + j``)."""
    out = list(regs)
    out[j::nsaved] = update(regs[j::nsaved], ctx, value, guard)
    return out


def spec_struct(name: str, **fields) -> type[SpecStruct]:
    """Create a spec-state record type.

    Example::

        State = spec_struct("state", a0=64, a1=64)
        s = State.fresh()
        s2 = State(a0=s.a0, a1=bv_val(0, 64))
    """
    return type(name, (SpecStruct,), {"_fields": dict(fields), "_name": name})


def theorem(
    name: str,
    prop: Callable[..., SymBool],
    *state_types: type[SpecStruct],
    assumptions: Callable[..., SymBool] | None = None,
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ProofResult:
    """Prove a universally quantified property over spec states.

    The paper's ``(theorem (forall ([s1 struct:state] ...) ...))``:
    quantifiers over finite structures are finitized by instantiating
    fresh symbolic states.
    """
    states = [t.fresh(f"{name}.s{i}") for i, t in enumerate(state_types)]
    with new_context() as ctx:
        claim = prop(*states)
        ctx.assert_prop(claim, name)
        assume = [assumptions(*states)] if assumptions is not None else []
        return verify_vcs(
            ctx,
            assumptions=assume,
            max_conflicts=max_conflicts,
            timeout_s=timeout_s,
            jobs=jobs,
            cache_dir=cache_dir,
        )


@dataclass
class Refinement:
    """A state-machine refinement proof obligation for one operation.

    ``impl_step`` evaluates the implementation from a fresh
    implementation state (typically by running an interpreter under
    the engine) and returns the final implementation state.
    ``spec_step`` is the functional specification.
    """

    name: str
    make_impl: Callable[[], Any]  # fresh symbolic implementation state
    impl_step: Callable[[Any], Any]
    spec_step: Callable[[Any], Any]
    abstract: Callable[[Any], Any]  # AF: impl state -> spec state
    rep_invariant: Callable[[Any], SymBool]  # RI over impl state
    extra_assumptions: Callable[[Any], SymBool] | None = None

    def prove(
        self,
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
        jobs: int = 1,
        cache_dir: str | None = None,
    ) -> ProofResult:
        with new_context() as ctx:
            impl0 = self.make_impl()
            ri0 = self.rep_invariant(impl0)
            spec0 = self.abstract(impl0)

            impl1 = self.impl_step(impl0)
            spec1 = self.spec_step(spec0)

            ctx.assert_prop(
                self.rep_invariant(impl1), f"{self.name}: RI preserved"
            )
            ctx.assert_prop(
                self.abstract(impl1).eq(spec1), f"{self.name}: AF lock-step refinement"
            )
            assumptions = [ri0]
            if self.extra_assumptions is not None:
                assumptions.append(self.extra_assumptions(impl0))
            return verify_vcs(
                ctx,
                assumptions=assumptions,
                max_conflicts=max_conflicts,
                timeout_s=timeout_s,
                jobs=jobs,
                cache_dir=cache_dir,
            )
