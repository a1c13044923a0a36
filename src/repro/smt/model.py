"""Models (satisfying assignments) returned by the solver frontend."""

from __future__ import annotations

from .evaluator import eval_term
from .terms import Term


class Model:
    """A satisfying assignment: variable name -> Python int/bool.

    Unassigned variables evaluate to 0/False (any completion of a
    partial model of a satisfiable formula is still a model of it only
    when the variable is unconstrained, which is exactly when the
    blaster never saw it).
    """

    def __init__(self, values: dict[str, int | bool]):
        self._values = dict(values)

    def __getitem__(self, name: str) -> int | bool:
        return self._values.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def get(self, name: str, default=0):
        return self._values.get(name, default)

    def items(self):
        return self._values.items()

    def evaluate(self, term: Term) -> int | bool:
        """Evaluate a term under this model (bitvectors as unsigned)."""
        return eval_term(term, self._values)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:#x}" if isinstance(v, int) and not isinstance(v, bool) else f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Model({parts})"
