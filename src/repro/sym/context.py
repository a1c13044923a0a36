"""Evaluation context: path conditions and the assertion store.

Rosette keeps a global assertion store populated during symbolic
evaluation; verification then asks whether any store entry can be
falsified.  Our context records verification conditions (VCs) of two
flavors:

  * assertions  -- properties that must hold on every path,
  * bug_on      -- undefined-behaviour conditions that must be *false*
                   under the current path condition (§3.3).

Contexts nest: ``with ctx.under(guard)`` scopes a path-condition
conjunct, which is how branch exploration communicates feasibility to
the VCs below it.

A VC is recorded once per kind, message and formula.  Terms are
hash-consed, so a side condition that evaluation records again under
the same path (the memory model's bounds checks, at every access) is
the same formula, with the same verdict, and is not recorded again.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from ..smt import Term, mk_and, mk_bool, mk_implies, mk_not
from .value import _coerce_bool

__all__ = ["VC", "Context", "current", "new_context", "assert_prop", "bug_on", "path_condition"]


@dataclass
class VC:
    """A verification condition collected during evaluation."""

    formula: Term  # must be valid (i.e. its negation unsat)
    message: str
    kind: str = "assert"  # "assert" | "bug-on"

    def __repr__(self) -> str:
        return f"VC({self.kind}: {self.message})"


class Context:
    """Collects path condition and verification conditions, each
    ``(kind, message, formula)`` once, in first-recorded order."""

    def __init__(self) -> None:
        self._path: list[Term] = []
        self.vcs: list[VC] = []
        self._recorded: set[tuple[str, str, Term]] = set()

    # -- path condition ----------------------------------------------------

    @property
    def path(self) -> Term:
        return mk_and(*self._path) if self._path else mk_bool(True)

    @contextmanager
    def under(self, guard):
        """Scope a path-condition conjunct."""
        guard = _coerce_bool(guard)
        self._path.append(guard.term)
        try:
            yield
        finally:
            self._path.pop()

    # -- verification conditions ----------------------------------------------

    def _record(self, formula: Term, message: str, kind: str) -> None:
        key = (kind, message, formula)
        if formula is mk_bool(True) or key in self._recorded:
            return
        self._recorded.add(key)
        self.vcs.append(VC(formula, message, kind))

    def assert_prop(self, cond, message: str = "assertion") -> None:
        """Record that ``cond`` must hold under the current path."""
        cond = _coerce_bool(cond)
        self._record(mk_implies(self.path, cond.term), message, "assert")

    def bug_on(self, cond, message: str = "undefined behavior") -> None:
        """Record that ``cond`` must be false under the current path (§3.3).

        This is Serval's ``bug-on``: interpreters call it for UB such
        as out-of-bounds program counters (Figure 4, lines 27-28).
        """
        cond = _coerce_bool(cond)
        self._record(mk_implies(self.path, mk_not(cond.term)), message, "bug-on")


# ---------------------------------------------------------------------------
# Context stack

_stack: list[Context] = [Context()]


def current() -> Context:
    """The innermost active evaluation context."""
    return _stack[-1]


@contextmanager
def new_context():
    """Run evaluation in a fresh context; yields it for VC inspection."""
    ctx = Context()
    _stack.append(ctx)
    try:
        yield ctx
    finally:
        _stack.pop()


def assert_prop(cond, message: str = "assertion") -> None:
    """Record ``cond`` as a VC in the current context (Rosette's ``assert``)."""
    current().assert_prop(cond, message)


def bug_on(cond, message: str = "undefined behavior") -> None:
    """Record ``not cond`` as a VC: a bug reachable when ``cond`` holds (§4)."""
    current().bug_on(cond, message)


def path_condition() -> Term:
    """The current path condition (conjunction of branch guards taken)."""
    return current().path
