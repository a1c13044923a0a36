"""The LLVM verifier: block-level interpretation under the engine (§5).

The "pc" is the index of a basic block; one engine step executes a
whole block and sets the pc to the successor (an ite for condbr).
State merging therefore happens at block heads — exactly LLVM's
control-flow joins.  Undefined behaviour raises ``bug_on`` conditions
under the block's path condition.
"""

from __future__ import annotations

from ..core.engine import Interpreter
from ..core.memory import Memory
from ..sym import MachineState, SymBV, SymBool, bug_on, bv_val, fresh_bv, ite, merge
from .ir import (
    Bin,
    Br,
    Cast,
    CondBr,
    Const,
    Function,
    Gep,
    GlobalRef,
    Icmp,
    Load,
    Local,
    Module,
    Param,
    Ret,
    Select,
    Store,
)

__all__ = ["LlvmState", "LlvmInterp", "run_function"]

PTR_WIDTH = 32


class LlvmState(MachineState):
    """Block pc + mutable locals + arguments + memory + return slot."""

    __slots__ = ("pc", "locals", "params", "mem", "returned", "retval")

    def __init__(self, pc: SymBV, locals_: dict, params: list[SymBV], mem: Memory):
        self.pc = pc
        self.locals = locals_
        self.params = params
        self.mem = mem
        self.returned = False
        self.retval: SymBV | None = None

    def __sym_merge__(self, guard: SymBool, other: "LlvmState") -> "LlvmState":
        if self.returned != other.returned:
            raise ValueError("cannot merge returned with running state")
        # Locals defined on only one side stay one-sided (dead values).
        merged_locals = {}
        for key in self.locals.keys() | other.locals.keys():
            a, b = self.locals.get(key), other.locals.get(key)
            if a is not None and b is not None:
                merged_locals[key] = merge(guard, a, b)
            else:
                merged_locals[key] = a if a is not None else b
        out = LlvmState(
            merge(guard, self.pc, other.pc),
            merged_locals,
            [merge(guard, a, b) for a, b in zip(self.params, other.params)],
            merge(guard, self.mem, other.mem),
        )
        out.returned = self.returned
        if self.retval is not None and other.retval is not None:
            out.retval = merge(guard, self.retval, other.retval)
        else:
            out.retval = self.retval if self.retval is not None else other.retval
        return out


class LlvmInterp(Interpreter):
    """Interpreter for one function; liftable by the engine."""

    def __init__(self, func: Function, module: Module | None = None):
        self.func = func
        self.module = module
        self.block_labels = func.block_order()
        self.block_index = {label: i for i, label in enumerate(self.block_labels)}

    # -- engine protocol ----------------------------------------------------------

    def is_halted(self, state: LlvmState) -> bool:
        return state.returned

    def fetch(self, state: LlvmState):
        return self.func.blocks[self.block_labels[state.pc.as_int()]]

    # -- evaluation ----------------------------------------------------------------

    def _val(self, state: LlvmState, v, width: int = 32) -> SymBV:
        if isinstance(v, Const):
            return bv_val(v.value, v.width)
        if isinstance(v, Local):
            out = state.locals.get(v.name)
            if out is None:
                raise KeyError(f"use of undefined local %{v.name}")
            return out
        if isinstance(v, Param):
            return state.params[v.index]
        if isinstance(v, GlobalRef):
            return bv_val(state.mem.region(v.name).base, PTR_WIDTH)
        raise TypeError(f"bad operand {v!r}")

    def execute(self, state: LlvmState, block) -> None:
        for insn in block.insns:
            self._exec_insn(state, insn)
        self._exec_terminator(state, block.terminator)

    def _exec_insn(self, state: LlvmState, insn) -> None:
        if isinstance(insn, Bin):
            state.locals[insn.dst] = self._bin(state, insn)
        elif isinstance(insn, Icmp):
            a, b = self._val(state, insn.a), self._val(state, insn.b)
            preds = {
                "eq": a == b, "ne": a != b,
                "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
                "slt": a.slt(b), "sle": a.sle(b), "sgt": a.sgt(b), "sge": a.sge(b),
            }
            state.locals[insn.dst] = ite(preds[insn.pred], bv_val(1, 1), bv_val(0, 1))
        elif isinstance(insn, Cast):
            a = self._val(state, insn.a)
            if insn.kind == "zext":
                state.locals[insn.dst] = a.zext(insn.width)
            elif insn.kind == "sext":
                state.locals[insn.dst] = a.sext(insn.width)
            elif insn.kind == "trunc":
                state.locals[insn.dst] = a.trunc(insn.width)
            else:
                raise ValueError(f"bad cast {insn.kind!r}")
        elif isinstance(insn, Select):
            c = self._val(state, insn.cond)
            state.locals[insn.dst] = ite(c != 0, self._val(state, insn.a), self._val(state, insn.b))
        elif isinstance(insn, Gep):
            base = self._val(state, insn.base)
            index = self._val(state, insn.index)
            if index.width != PTR_WIDTH:
                index = index.resize(PTR_WIDTH)
            state.locals[insn.dst] = base + index * insn.stride + insn.offset
        elif isinstance(insn, Load):
            addr = self._val(state, insn.addr)
            value = state.mem.load(addr, insn.nbytes)
            target = insn.width
            state.locals[insn.dst] = value.sext(target) if insn.signed else value.zext(target)
        elif isinstance(insn, Store):
            addr = self._val(state, insn.addr)
            value = self._val(state, insn.value)
            state.mem.store(addr, value.trunc(insn.nbytes * 8))
        else:
            raise TypeError(f"bad instruction {insn!r}")

    def _bin(self, state: LlvmState, insn: Bin) -> SymBV:
        a = self._val(state, insn.a)
        b = self._val(state, insn.b)
        w = a.width
        op = insn.op
        if op in ("shl", "lshr", "ashr"):
            # Oversized shifting is UB in LLVM — one of the two
            # Keystone bugs the paper found (§7).
            bug_on(b >= w, f"oversized {op}: shift amount >= width {w}")
        if op in ("udiv", "sdiv", "urem", "srem"):
            bug_on(b == 0, f"{op} by zero")
        if "nsw" in insn.flags and op in ("add", "sub", "mul"):
            wide_a, wide_b = a.sext(2 * w), b.sext(2 * w)
            wide = {"add": wide_a + wide_b, "sub": wide_a - wide_b, "mul": wide_a * wide_b}[op]
            narrow = {"add": a + b, "sub": a - b, "mul": a * b}[op]
            bug_on(wide != narrow.sext(2 * w), f"signed overflow in {op} nsw")
        ops = {
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "mul": lambda: a * b,
            "udiv": lambda: a.udiv(b),
            "sdiv": lambda: a.sdiv(b),
            "urem": lambda: a.urem(b),
            "srem": lambda: a.srem(b),
            "and": lambda: a & b,
            "or": lambda: a | b,
            "xor": lambda: a ^ b,
            "shl": lambda: a << b,
            "lshr": lambda: a >> b,
            "ashr": lambda: a.ashr(b),
        }
        return ops[op]()

    def _exec_terminator(self, state: LlvmState, term) -> None:
        if isinstance(term, Ret):
            state.returned = True
            if term.value is not None:
                state.retval = self._val(state, term.value)
            return
        if isinstance(term, Br):
            state.pc = bv_val(self.block_index[term.target], PTR_WIDTH)
            return
        if isinstance(term, CondBr):
            c = self._val(state, term.cond)
            state.pc = ite(
                c != 0,
                bv_val(self.block_index[term.then], PTR_WIDTH),
                bv_val(self.block_index[term.els], PTR_WIDTH),
            )
            return
        raise TypeError(f"bad terminator {term!r}")


def run_function(
    func: Function,
    params: list[SymBV] | None = None,
    mem: Memory | None = None,
    fuel: int = 10_000,
) -> LlvmState:
    """Symbolically evaluate a function over all paths; returns the
    merged final state (retval + memory)."""
    from ..core import EngineOptions, run_interpreter

    interp = LlvmInterp(func)
    params = params or [fresh_bv(f"{func.name}.arg{i}", 32) for i in range(func.num_params)]
    mem = mem or Memory([], addr_width=PTR_WIDTH)
    state = LlvmState(bv_val(interp.block_index[func.entry], PTR_WIDTH), {}, params, mem)
    return run_interpreter(interp, state, EngineOptions(fuel=fuel)).merged()
