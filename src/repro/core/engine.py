"""The lifting engine: all-paths symbolic evaluation of interpreters.

Serval turns an interpreter into a verifier by running it on symbolic
state (§3.2).  The engine below drives that evaluation:

  * With ``split_pc`` enabled (the symbolic optimization of §4), the
    engine maintains a worklist keyed by *concrete* program counter.
    After each step, a merged symbolic pc (an ``ite`` tree) is split
    into its concrete leaves; states that land on the same pc are
    merged (Rosette's hybrid strategy), so diamonds stay polynomial
    while fetch/decode always see a concrete pc.

  * With ``split_pc`` disabled (the paper's ablation: refinement
    proofs time out, §6.4), the pc stays symbolic.  ``fetch`` must
    then consider every instruction, producing guarded unions whose
    evaluation blows up exactly as Figure 5 illustrates.

Interpreters implement the small :class:`Interpreter` protocol; the
ISA verifiers in ``repro.riscv``/``x86``/``llvm``/``bpf`` are all
instances.

The guarded final states this engine produces are where parallel
verification starts: every ``assert_prop``/``bug_on`` recorded under a
path guard becomes one independent proof obligation
(``repro.core.runner.Obligation``), which the process-wide
obligation scheduler (``repro.core.scheduler``) discharges and the
content-addressed verdict store (``repro.core.store``) memoizes.  See
``docs/ARCHITECTURE.md`` for the worked dataflow from a ``split-pc``
leaf to a stored verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq
from typing import Any

from .. import obs
from ..smt import Term, mk_and, mk_bool, mk_or
from ..sym import SymBV, SymBool, Union, current, merge_states, region
from ..sym.reflect import NotConcretizable, split_concrete
from .errors import EngineFuelExhausted, UnconstrainedPc

__all__ = ["Interpreter", "EngineOptions", "Paths", "run_interpreter"]


class Interpreter:
    """Protocol for interpreters liftable by the engine.

    Subclasses provide the fetch-decode-execute pieces; the engine
    owns control flow, path splitting, and state merging.
    """

    def pc_of(self, state) -> SymBV:
        raise NotImplementedError

    def set_pc(self, state, pc_val: int) -> None:
        """Overwrite the state's pc with a concrete value.

        Called by ``split_pc`` after cloning the state for one leaf:
        the concrete pc is what enables partial evaluation downstream.
        """
        raise NotImplementedError

    def is_halted(self, state) -> bool:
        """Whether the state finished execution.  Must be concrete:
        halting is control flow, and control flow is concretized by
        the pc split."""
        raise NotImplementedError

    def copy_state(self, state):
        raise NotImplementedError

    def fetch(self, state):
        """Return the instruction at the state's pc.

        When the pc is symbolic (split_pc off), implementations must
        return a guarded :class:`Union` of instructions, which is the
        path-explosion behaviour the optimization repairs.
        """
        raise NotImplementedError

    def execute(self, state, insn) -> None:
        """Execute one instruction, mutating ``state`` (including pc)."""
        raise NotImplementedError

    def merge_key(self, state):
        """Extra control state to split on besides the pc (e.g. a
        'halted' flag or privilege mode).  Must be hashable and
        concrete."""
        return None


@dataclass
class EngineOptions:
    split_pc: bool = True
    merge_states: bool = True  # ablation: False = pure path enumeration
    fuel: int = 200_000  # maximum executed instructions across all paths
    max_union: int = 4096  # bail-out for runaway pc unions


@dataclass
class Paths:
    """The result of all-paths evaluation: guarded final states."""

    finals: list[tuple[Term, Any]] = field(default_factory=list)
    steps: int = 0

    def merged(self):
        """Merge all final states into one (guards become ite trees)."""
        if not self.finals:
            raise ValueError("no final states")
        guard, state = self.finals[0]
        for g, s in self.finals[1:]:
            state = merge_states(SymBool(g), s, state)
            guard = mk_or(guard, g)
        return state

    def coverage(self) -> Term:
        """Disjunction of final guards (should be valid for total runs)."""
        return mk_or(*(g for g, _ in self.finals)) if self.finals else mk_bool(False)


def run_interpreter(interp: Interpreter, state, options: EngineOptions | None = None) -> Paths:
    """Evaluate ``interp`` from ``state`` over all feasible paths."""
    options = options or EngineOptions()
    if options.split_pc and options.merge_states:
        return _run_split_merged(interp, state, options)
    if options.split_pc:
        return _run_split_paths(interp, state, options)
    return _run_merged_pc(interp, state, options)


def _pc_leaves(interp: Interpreter, state, options: EngineOptions):
    """Split a (possibly symbolic) pc into (guard, concrete pc) pairs.

    This is the ``split-pc`` symbolic optimization (§4): recursively
    break the ite value and evaluate each branch with a concrete pc,
    maximizing opportunities for partial evaluation.
    """
    pc = interp.pc_of(state)
    try:
        raw = split_concrete(pc, limit=options.max_union)
    except NotConcretizable as exc:
        raise UnconstrainedPc(
            f"program counter is not determined by path conditions ({exc}); "
            "this usually indicates a jump to an unchecked untrusted address (§4)"
        ) from exc
    leaves = [
        (mk_and(*guards) if guards else mk_bool(True), value) for guards, value in raw
    ]
    if len(leaves) > 1:
        obs.count("sym.splits", len(leaves) - 1)
    return leaves


def _run_split_merged(interp: Interpreter, state, options: EngineOptions) -> Paths:
    """split-pc + state merging: the production configuration."""
    ctx = current()
    result = Paths()
    # Worklist keyed by (pc, merge_key); entries merge on collision.
    pending: dict[tuple, tuple[Term, Any]] = {}
    order: list[tuple] = []  # min-heap of keys for deterministic processing

    def enqueue(guard: Term, st) -> None:
        if interp.is_halted(st):
            result.finals.append((guard, st))
            return
        leaves = _pc_leaves(interp, st, options)
        for leaf_guard, pc_val in leaves:
            g = mk_and(guard, leaf_guard)
            if g is mk_bool(False):
                continue
            # Clone the state for this concrete pc value ("doing so
            # effectively clones the program state for each concrete
            # value, maximizing opportunities for partial evaluation",
            # §4).
            clone = interp.copy_state(st)
            interp.set_pc(clone, pc_val)
            key = (pc_val, interp.merge_key(clone))
            if key in pending:
                old_guard, old_state = pending[key]
                merged = merge_states(SymBool(g), clone, old_state)
                pending[key] = (mk_or(old_guard, g), merged)
            else:
                pending[key] = (g, clone)
                heapq.heappush(order, key)

    enqueue(mk_bool(True), state)
    while order:
        key = heapq.heappop(order)
        guard, st = pending.pop(key)
        if interp.is_halted(st):
            result.finals.append((guard, st))
            continue
        if result.steps >= options.fuel:
            raise EngineFuelExhausted(f"exceeded {options.fuel} steps; unbounded loop?")
        result.steps += 1
        with ctx.under(SymBool(guard)):
            with region("engine.step"):
                insn = interp.fetch(st)
                interp.execute(st, insn)
        enqueue(guard, st)
    return result


def _run_split_paths(interp: Interpreter, state, options: EngineOptions) -> Paths:
    """split-pc without merging: pure path enumeration (ablation).

    Exponential in the number of control-flow diamonds; used to
    demonstrate why Rosette's hybrid strategy matters (§3.2).
    """
    ctx = current()
    result = Paths()
    stack: list[tuple[Term, Any]] = [(mk_bool(True), state)]
    while stack:
        guard, st = stack.pop()
        if interp.is_halted(st):
            result.finals.append((guard, st))
            continue
        if result.steps >= options.fuel:
            raise EngineFuelExhausted(f"exceeded {options.fuel} steps (path enumeration)")
        result.steps += 1
        with ctx.under(SymBool(guard)):
            insn = interp.fetch(st)
            interp.execute(st, insn)
        if interp.is_halted(st):
            result.finals.append((guard, st))
            continue
        for leaf_guard, pc_val in _pc_leaves(interp, st, options):
            g = mk_and(guard, leaf_guard)
            if g is mk_bool(False):
                continue
            clone = interp.copy_state(st)
            interp.set_pc(clone, pc_val)
            stack.append((g, clone))
    return result


def _run_merged_pc(interp: Interpreter, state, options: EngineOptions) -> Paths:
    """No split-pc: the pc stays a merged symbolic value.

    ``fetch`` returns guarded unions over every feasible instruction;
    each step multiplies work by the program size.  Provided for the
    §6.4 ablation; real verification always enables split-pc.
    """
    result = Paths()
    st = state
    for _ in range(options.fuel):
        halted = interp.is_halted(st)
        if halted:
            break
        result.steps += 1
        insn = interp.fetch(st)
        if isinstance(insn, Union):
            if len(insn) > options.max_union:
                raise EngineFuelExhausted(
                    f"instruction union exceeded {options.max_union} alternatives"
                )
            obs.count("sym.splits", len(insn))

            def execute_alt(single, st=st):
                fresh = interp.copy_state(st)
                interp.execute(fresh, single)
                return fresh

            states = [(g, execute_alt(v)) for g, v in insn.alternatives]
            guard0, merged = states[0]
            for g, s in states[1:]:
                merged = merge_states(SymBool(g.term if isinstance(g, SymBool) else g), s, merged)
            st = merged
        else:
            interp.execute(st, insn)
    else:
        raise EngineFuelExhausted(f"exceeded {options.fuel} steps without split-pc")
    result.finals.append((mk_bool(True), st))
    return result
