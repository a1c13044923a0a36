"""Bit-blasting QF_BV terms to CNF (Tseitin encoding).

The solver frontend reduces every verification condition to a boolean
circuit: each boolean term becomes a literal, each bitvector term a
list of literals (LSB first).  Gates are encoded with the standard
Tseitin clauses and cached per term node, so the DAG sharing of the
term layer carries through to CNF sharing.

Uninterpreted functions are eliminated by Ackermann expansion at the
blasting boundary: each application gets fresh output bits, plus
pairwise functional-consistency constraints between applications of
the same symbol.

A 0/1 operand of an addition or subtraction -- ``ite(c, 1, 0)``,
``ite(c, 0, 1)`` or a zext of a 1-bit term -- is blasted as the
carry-in of the ripple chain beneath it, not as a second adder:
``(a + b) + k`` is one chain over ``a, b``, ``(a - b) - k`` one chain
over ``a, ~b``, and any other ``(a + K) - k`` (``K`` a constant, 0 if
absent) one chain over ``a`` and ``K - 1``.  A two-word add-with-carry
(x86 ``add``/``adc``, ``sub``/``sbb``) then shares every gate with the
double-width chain it implements, so their equality folds while
blasting.  The rule keys on term shape alone; every other sum blasts
as two's-complement ripple addition.
"""

from __future__ import annotations

from ..obs import enabled as _obs_enabled
from .sat import ArenaSolver
from .sorts import BOOL
from .terms import Term


class CnfBuilder:
    """Tseitin gate encodings over a SAT solver.

    Literal 'TRUE' is a dedicated variable asserted at level 0, so
    constants flow through gate constructors without special cases.
    """

    def __init__(self, sat):
        self.sat = sat
        self.TRUE = sat.new_var()
        sat.add_clause([self.TRUE])
        self.FALSE = -self.TRUE
        self._and_cache: dict[tuple[int, int], int] = {}
        self._xor_cache: dict[tuple[int, int], int] = {}

    def new_lit(self) -> int:
        return self.sat.new_var()

    def mk_and(self, a: int, b: int) -> int:
        if a == self.FALSE or b == self.FALSE or a == -b:
            return self.FALSE
        if a == self.TRUE or a == b:
            return b
        if b == self.TRUE:
            return a
        key = (a, b) if a < b else (b, a)
        out = self._and_cache.get(key)
        if out is None:
            out = self.new_lit()
            add = self.sat.add_clause
            add([-out, a])
            add([-out, b])
            add([out, -a, -b])
            self._and_cache[key] = out
        return out

    def mk_or(self, a: int, b: int) -> int:
        return -self.mk_and(-a, -b)

    def mk_xor(self, a: int, b: int) -> int:
        if a == self.TRUE:
            return -b
        if a == self.FALSE:
            return b
        if b == self.TRUE:
            return -a
        if b == self.FALSE:
            return a
        if a == b:
            return self.FALSE
        if a == -b:
            return self.TRUE
        key = (a, b) if abs(a) < abs(b) else (b, a)
        out = self._xor_cache.get(key)
        if out is None:
            out = self.new_lit()
            add = self.sat.add_clause
            add([-out, a, b])
            add([-out, -a, -b])
            add([out, -a, b])
            add([out, a, -b])
            self._xor_cache[key] = out
        return out

    def mk_iff(self, a: int, b: int) -> int:
        return -self.mk_xor(a, b)

    def mk_ite(self, c: int, t: int, e: int) -> int:
        if c == self.TRUE:
            return t
        if c == self.FALSE:
            return e
        if t == e:
            return t
        if t == self.TRUE:
            return self.mk_or(c, e)
        if t == self.FALSE:
            return self.mk_and(-c, e)
        if e == self.TRUE:
            return self.mk_or(-c, t)
        if e == self.FALSE:
            return self.mk_and(c, t)
        out = self.new_lit()
        add = self.sat.add_clause
        add([-out, -c, t])
        add([-out, c, e])
        add([out, -c, -t])
        add([out, c, -e])
        return out

    def mk_and_many(self, lits: list[int]) -> int:
        out = self.TRUE
        for lit in lits:
            out = self.mk_and(out, lit)
        return out

    def mk_or_many(self, lits: list[int]) -> int:
        out = self.FALSE
        for lit in lits:
            out = self.mk_or(out, lit)
        return out

    # Full adder: returns (sum, carry_out).
    def full_adder(self, a: int, b: int, c: int) -> tuple[int, int]:
        axb = self.mk_xor(a, b)
        s = self.mk_xor(axb, c)
        cout = self.mk_or(self.mk_and(a, b), self.mk_and(c, axb))
        return s, cout


class BitBlaster:
    """Lowers term DAGs to CNF over a shared SAT solver.

    Besides the CNF itself, the blaster keeps an always-on record of
    which solver variables and how many clauses each term node's blast
    emitted (exclusive of children).  The incremental session in
    ``repro.smt.solver`` unions those per-tid variable ranges over a
    query's DAG to obtain the query's *cone* — the set of variables a
    relevancy-restricted solve is allowed to decide — and uses the
    clause counts to report how much CNF a query reused from earlier
    blasts.
    """

    def __init__(self, sat=None):
        self.sat = sat if sat is not None else ArenaSolver()
        self.cnf = CnfBuilder(self.sat)
        self._bool_cache: dict[int, int] = {}
        self._bv_cache: dict[int, list[int]] = {}
        # variable name -> bit literals, for model extraction
        self.var_bits: dict[str, list[int] | int] = {}
        # UF name -> list of (arg bit lists, result bits)
        self._uf_apps: dict[str, list[tuple[list[list[int]], list[int] | int]]] = {}
        # Per-sort emission profile, populated only while repro.obs
        # tracing is enabled: sort label -> [aux vars, clauses] emitted
        # while blasting nodes of that sort (exclusive of children, so
        # the per-sort numbers sum to the totals).
        self.emitted: dict[str, list[int]] = {}
        # term tid -> flat [lo, hi, ...] pairs: solver vars lo+1..hi
        # were allocated exclusively while blasting that node.
        self._tid_segs: dict[int, list[int]] = {}
        # term tid -> clauses emitted exclusively by that node's blast.
        self._tid_clauses: dict[int, int] = {}
        self._frames: list[list] = []

    # -- public API ----------------------------------------------------------

    def bool_lit(self, term: Term) -> int:
        lit = self._bool_cache.get(term.tid)
        if lit is None:
            lit = self._tracked(term.tid, "bool", self._blast_bool, term)
            self._bool_cache[term.tid] = lit
        return lit

    def bv_bits(self, term: Term) -> list[int]:
        bits = self._bv_cache.get(term.tid)
        if bits is None:
            bits = self._tracked(term.tid, f"bv{term.width}", self._blast_bv, term)
            assert len(bits) == term.width, f"{term.op}: {len(bits)} != {term.width}"
            self._bv_cache[term.tid] = bits
        return bits

    def cone_vars(self, tids) -> set[int]:
        """Union of the solver variables blasted for ``tids``."""
        segs_by_tid = self._tid_segs
        cone: set[int] = set()
        for tid in tids:
            segs = segs_by_tid.get(tid)
            if segs:
                for i in range(0, len(segs), 2):
                    cone.update(range(segs[i] + 1, segs[i + 1] + 1))
        return cone

    def clauses_for(self, tids) -> int:
        """Total clauses emitted (exclusively) by the blasts of ``tids``."""
        counts = self._tid_clauses
        return sum(counts.get(tid, 0) for tid in tids)

    def _charge(self, label: str, aux_vars: int, clauses: int) -> None:
        cell = self.emitted.get(label)
        if cell is None:
            cell = self.emitted[label] = [0, 0]
        cell[0] += aux_vars
        cell[1] += clauses

    def _record(self, frame, num_vars: int, added_clauses: int) -> None:
        """Close the open emission segment of ``frame`` and advance its
        marks to the current solver state."""
        tid, label, v0, c0 = frame
        if num_vars > v0:
            segs = self._tid_segs.get(tid)
            if segs is None:
                segs = self._tid_segs[tid] = []
            segs.append(v0)
            segs.append(num_vars)
        if (num_vars > v0 or added_clauses > c0) and _obs_enabled():
            self._charge(label, num_vars - v0, added_clauses - c0)
        if added_clauses > c0:
            self._tid_clauses[tid] = self._tid_clauses.get(tid, 0) + (added_clauses - c0)
        frame[2] = num_vars
        frame[3] = added_clauses

    def _tracked(self, tid: int, label: str, blast, term: Term):
        """Run one node's blast, recording its *exclusive* variable
        ranges and clause emission (nested child blasts record their
        own: the parent's marks resume where the child stopped)."""
        sat = self.sat
        stack = self._frames
        if stack:
            self._record(stack[-1], sat.num_vars, sat.added_clauses)
        frame = [tid, label, sat.num_vars, sat.added_clauses]
        stack.append(frame)
        try:
            out = blast(term)
        finally:
            stack.pop()
            self._record(frame, sat.num_vars, sat.added_clauses)
            if stack:
                parent = stack[-1]
                parent[2] = sat.num_vars
                parent[3] = sat.added_clauses
        return out

    # -- boolean terms ---------------------------------------------------------

    def _blast_bool(self, t: Term) -> int:
        cnf = self.cnf
        op = t.op
        if op == "boolconst":
            return cnf.TRUE if t.payload else cnf.FALSE
        if op == "var":
            lit = cnf.new_lit()
            self.var_bits[t.payload] = lit
            return lit
        if op == "not":
            return -self.bool_lit(t.args[0])
        if op == "and":
            return cnf.mk_and_many([self.bool_lit(a) for a in t.args])
        if op == "or":
            return cnf.mk_or_many([self.bool_lit(a) for a in t.args])
        if op == "xor":
            return cnf.mk_xor(self.bool_lit(t.args[0]), self.bool_lit(t.args[1]))
        if op == "ite":
            return cnf.mk_ite(*(self.bool_lit(a) for a in t.args))
        if op == "eq":
            a, b = t.args
            if a.sort is BOOL:
                return cnf.mk_iff(self.bool_lit(a), self.bool_lit(b))
            abits, bbits = self.bv_bits(a), self.bv_bits(b)
            return cnf.mk_and_many([cnf.mk_iff(x, y) for x, y in zip(abits, bbits)])
        if op in ("ult", "ule", "slt", "sle"):
            return self._blast_compare(t)
        if op == "apply":
            return self._blast_apply(t)
        raise ValueError(f"cannot blast boolean op {op!r}")

    def _blast_compare(self, t: Term) -> int:
        cnf = self.cnf
        a, b = t.args
        abits = list(self.bv_bits(a))
        bbits = list(self.bv_bits(b))
        signed = t.op in ("slt", "sle")
        if signed:
            abits[-1] = -abits[-1]
            bbits[-1] = -bbits[-1]
        # LSB-to-MSB scan: lt := ite(a_i == b_i, lt, ~a_i & b_i)
        lt = cnf.FALSE
        eq = cnf.TRUE
        for x, y in zip(abits, bbits):
            bit_lt = cnf.mk_and(-x, y)
            bit_eq = cnf.mk_iff(x, y)
            lt = cnf.mk_ite(bit_eq, lt, bit_lt)
            if t.op in ("ule", "sle"):
                eq = cnf.mk_and(eq, bit_eq)
        if t.op in ("ule", "sle"):
            return cnf.mk_or(lt, eq)
        return lt

    # -- bitvector terms ----------------------------------------------------------

    def _blast_bv(self, t: Term) -> list[int]:
        cnf = self.cnf
        op = t.op
        w = t.width
        if op == "bvconst":
            return self._const_bits(t.payload, w)
        if op == "var":
            bits = [cnf.new_lit() for _ in range(w)]
            self.var_bits[t.payload] = bits
            return bits
        if op == "ite":
            c = self.bool_lit(t.args[0])
            tb = self.bv_bits(t.args[1])
            eb = self.bv_bits(t.args[2])
            return [cnf.mk_ite(c, x, y) for x, y in zip(tb, eb)]
        if op == "bvnot":
            return [-x for x in self.bv_bits(t.args[0])]
        if op in ("bvand", "bvor", "bvxor"):
            ab = self.bv_bits(t.args[0])
            bb = self.bv_bits(t.args[1])
            gate = {"bvand": cnf.mk_and, "bvor": cnf.mk_or, "bvxor": cnf.mk_xor}[op]
            return [gate(x, y) for x, y in zip(ab, bb)]
        if op == "bvadd":
            fused = self._carry_sum(t)
            if fused is not None:
                return fused
            return self._adder(self.bv_bits(t.args[0]), self.bv_bits(t.args[1]), cnf.FALSE)
        if op == "bvsub":
            fused = self._borrow_difference(t)
            if fused is not None:
                return fused
            bb = [-x for x in self.bv_bits(t.args[1])]
            return self._adder(self.bv_bits(t.args[0]), bb, cnf.TRUE)
        if op == "bvneg":
            ab = [-x for x in self.bv_bits(t.args[0])]
            zero = [cnf.FALSE] * w
            return self._adder(zero, ab, cnf.TRUE)
        if op == "bvmul":
            return self._multiplier(self.bv_bits(t.args[0]), self.bv_bits(t.args[1]))
        if op in ("bvudiv", "bvurem"):
            q, r = self._divider(self.bv_bits(t.args[0]), self.bv_bits(t.args[1]))
            return q if op == "bvudiv" else r
        if op in ("bvsdiv", "bvsrem"):
            return self._signed_div(t)
        if op in ("bvshl", "bvlshr", "bvashr"):
            return self._shifter(t)
        if op == "concat":
            hi = self.bv_bits(t.args[0])
            lo = self.bv_bits(t.args[1])
            return lo + hi
        if op == "extract":
            hi, lo = t.payload
            return self.bv_bits(t.args[0])[lo : hi + 1]
        if op == "zext":
            inner = self.bv_bits(t.args[0])
            return inner + [cnf.FALSE] * (w - len(inner))
        if op == "sext":
            inner = self.bv_bits(t.args[0])
            return inner + [inner[-1]] * (w - len(inner))
        if op == "apply":
            return self._blast_apply(t)
        raise ValueError(f"cannot blast bitvector op {op!r}")

    # -- carry-in fusion ----------------------------------------------------------

    @staticmethod
    def _carry_of(k: Term) -> tuple[Term, bool] | None:
        """``(bit, negated)`` if ``k`` is a 0/1 operand: ``ite(c, 1, 0)``
        carries ``c``, ``ite(c, 0, 1)`` carries ``not c`` and a zext of a
        1-bit term carries that bit.  Reads the term only."""
        if k.op == "ite":
            then, els = k.args[1], k.args[2]
            if then.op == "bvconst" and els.op == "bvconst":
                if then.payload == 1 and els.payload == 0:
                    return k.args[0], False
                if then.payload == 0 and els.payload == 1:
                    return k.args[0], True
        elif k.op == "zext" and k.args[0].width == 1:
            return k.args[0], False
        return None

    def _carry_lit(self, bit: Term, negated: bool) -> int:
        lit = self.bool_lit(bit) if bit.sort is BOOL else self.bv_bits(bit)[0]
        return -lit if negated else lit

    def _carry_sum(self, t: Term) -> list[int] | None:
        """``(a + b) + k``, ``k`` on either side: one chain over ``a, b``
        with carry-in ``k``.  None for any other ``bvadd``."""
        for total, k in (t.args, t.args[::-1]):
            if total.op != "bvadd":
                continue
            carry = self._carry_of(k)
            if carry is not None:
                a, b = total.args
                abits, bbits = self.bv_bits(a), self.bv_bits(b)
                return self._adder(abits, bbits, self._carry_lit(*carry))
        return None

    def _borrow_difference(self, t: Term) -> list[int] | None:
        """``x - k`` as one chain with carry-in ``not k``: over ``a, ~b``
        for ``x = a - b`` (``a + ~b + (1 - k)``), else over ``a`` and
        ``K - 1`` for ``x = a + K`` (``a + (K - 1) + (1 - k)``; ``K`` a
        constant, and ``a = x``, ``K = 0`` otherwise).  None if ``k`` is
        not a 0/1 operand."""
        x, k = t.args
        carry = self._carry_of(k)
        if carry is None:
            return None
        bit, negated = carry
        if x.op == "bvsub":
            abits = self.bv_bits(x.args[0])
            bbits = [-lit for lit in self.bv_bits(x.args[1])]
        else:
            a, const = x, 0
            if x.op == "bvadd" and x.args[1].op == "bvconst":
                a, const = x.args[0], x.args[1].payload
            abits = self.bv_bits(a)
            bbits = self._const_bits((const - 1) % (1 << t.width), t.width)
        return self._adder(abits, bbits, self._carry_lit(bit, not negated))

    # -- circuits -------------------------------------------------------------

    def _const_bits(self, value: int, width: int) -> list[int]:
        cnf = self.cnf
        return [cnf.TRUE if (value >> i) & 1 else cnf.FALSE for i in range(width)]

    def _adder(self, a: list[int], b: list[int], carry: int) -> list[int]:
        out = []
        for x, y in zip(a, b):
            s, carry = self.cnf.full_adder(x, y, carry)
            out.append(s)
        return out

    def _multiplier(self, a: list[int], b: list[int]) -> list[int]:
        cnf = self.cnf
        w = len(a)
        acc = [cnf.FALSE] * w
        for i in range(w):
            addend = [cnf.FALSE] * i + [cnf.mk_and(a[i], y) for y in b[: w - i]]
            acc = self._adder(acc, addend, cnf.FALSE)
        return acc

    def _divider(self, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        """Restoring division; returns (quotient, remainder).

        SMT-LIB semantics on zero divisor: quotient all-ones, remainder
        = dividend.
        """
        cnf = self.cnf
        w = len(a)
        # Remainder register, one bit wider to hold the compare.
        r = [cnf.FALSE] * (w + 1)
        bext = b + [cnf.FALSE]
        q = [cnf.FALSE] * w
        for i in range(w - 1, -1, -1):
            r = [a[i]] + r[:-1]
            # ge = r >= bext  (unsigned, w+1 bits)
            lt = cnf.FALSE
            for x, y in zip(r, bext):
                lt = cnf.mk_ite(cnf.mk_iff(x, y), lt, cnf.mk_and(-x, y))
            ge = -lt
            diff = self._adder(r, [-x for x in bext], cnf.TRUE)
            r = [cnf.mk_ite(ge, d, x) for d, x in zip(diff, r)]
            q[i] = ge
        bzero = cnf.mk_and_many([-x for x in b])
        quot = [cnf.mk_ite(bzero, cnf.TRUE, x) for x in q]
        rem = [cnf.mk_ite(bzero, x, y) for x, y in zip(a, r[:w])]
        return quot, rem

    def _signed_div(self, t: Term) -> list[int]:
        cnf = self.cnf
        a = self.bv_bits(t.args[0])
        b = self.bv_bits(t.args[1])
        w = len(a)
        sa, sb = a[-1], b[-1]

        def negate(bits: list[int]) -> list[int]:
            return self._adder([cnf.FALSE] * w, [-x for x in bits], cnf.TRUE)

        abs_a = [cnf.mk_ite(sa, n, x) for n, x in zip(negate(a), a)]
        abs_b = [cnf.mk_ite(sb, n, x) for n, x in zip(negate(b), b)]
        q, r = self._divider(abs_a, abs_b)
        if t.op == "bvsdiv":
            neg_result = cnf.mk_xor(sa, sb)
            nq = negate(q)
            out = [cnf.mk_ite(neg_result, n, x) for n, x in zip(nq, q)]
            # Division by zero: all-ones if dividend >= 0 else 1.
            bzero = cnf.mk_and_many([-x for x in b])
            one = [cnf.TRUE] + [cnf.FALSE] * (w - 1)
            ones = [cnf.TRUE] * w
            dz = [cnf.mk_ite(sa, o, al) for o, al in zip(one, ones)]
            return [cnf.mk_ite(bzero, d, x) for d, x in zip(dz, out)]
        # bvsrem: sign follows the dividend.
        nr = negate(r)
        out = [cnf.mk_ite(sa, n, x) for n, x in zip(nr, r)]
        bzero = cnf.mk_and_many([-x for x in b])
        return [cnf.mk_ite(bzero, x, y) for x, y in zip(a, out)]

    def _shifter(self, t: Term) -> list[int]:
        cnf = self.cnf
        a = list(self.bv_bits(t.args[0]))
        b = self.bv_bits(t.args[1])
        w = len(a)
        left = t.op == "bvshl"
        fill_overshift = a[-1] if t.op == "bvashr" else cnf.FALSE
        stages = max(1, (w - 1).bit_length())
        # Overshift if any amount bit at position >= stages is set, or
        # the in-range amount >= w (only when w is not a power of two).
        over = cnf.mk_or_many(b[stages:])
        if w & (w - 1) != 0:
            amt_ge_w = self._compare_const_ge(b[:stages], w)
            over = cnf.mk_or(over, amt_ge_w)
        bits = a
        for s in range(stages):
            k = 1 << s
            sel = b[s]
            if left:
                shifted = [cnf.FALSE] * min(k, w) + bits[: max(w - k, 0)]
            else:
                shifted = bits[k:] + [fill_overshift] * min(k, w)
            bits = [cnf.mk_ite(sel, sh, x) for sh, x in zip(shifted, bits)]
        fill = fill_overshift
        return [cnf.mk_ite(over, fill, x) for x in bits]

    def _compare_const_ge(self, bits: list[int], const: int) -> int:
        """Literal for (unsigned value of bits) >= const."""
        cnf = self.cnf
        ge = cnf.TRUE
        for i, x in enumerate(bits):
            c = (const >> i) & 1
            if c:
                ge = cnf.mk_and(x, ge)
            else:
                ge = cnf.mk_or(x, ge)
        return ge

    # -- uninterpreted functions ------------------------------------------------

    def _blast_apply(self, t: Term) -> int | list[int]:
        cnf = self.cnf
        arg_bits: list[list[int]] = []
        for a in t.args:
            if a.sort is BOOL:
                arg_bits.append([self.bool_lit(a)])
            else:
                arg_bits.append(list(self.bv_bits(a)))
        if t.sort is BOOL:
            result: int | list[int] = cnf.new_lit()
        else:
            result = [cnf.new_lit() for _ in range(t.width)]
        prior = self._uf_apps.setdefault(t.payload, [])
        for other_args, other_result in prior:
            same = cnf.TRUE
            for mine, theirs in zip(arg_bits, other_args):
                for x, y in zip(mine, theirs):
                    same = cnf.mk_and(same, cnf.mk_iff(x, y))
            if isinstance(result, int):
                eq_out = cnf.mk_iff(result, other_result)  # type: ignore[arg-type]
            else:
                eq_out = cnf.mk_and_many(
                    [cnf.mk_iff(x, y) for x, y in zip(result, other_result)]  # type: ignore[arg-type]
                )
            self.sat.add_clause([-same, eq_out])
        prior.append((arg_bits, result))
        return result

    # -- model extraction ----------------------------------------------------------

    def extract_model(self, names) -> dict[str, int | bool]:
        """Read variable values out of a satisfying assignment.

        ``names`` restricts the model to those variables: the blaster is
        shared by every query of the incremental session, and the model
        must not leak bindings from unrelated queries (whose bits are
        unconstrained — possibly unassigned — here).
        """
        model: dict[str, int | bool] = {}
        for name, bits in self.var_bits.items():
            if name not in names:
                continue
            if isinstance(bits, int):
                model[name] = bool(self.sat.value(bits))
            else:
                value = 0
                for i, lit in enumerate(bits):
                    if self.sat.value(lit):
                        value |= 1 << i
                model[name] = value
        return model
