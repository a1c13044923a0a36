"""Unit tests for term construction, interning, constant folding and
the canonical digest."""

import copy
import multiprocessing
import random
import sys
import threading

import pytest

from repro.smt import (
    BOOL,
    bv_sort,
    canonicalize_nodes,
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
    mk_bvshl,
    mk_bvsub,
    mk_bvudiv,
    mk_bvurem,
    mk_bvxor,
    mk_concat,
    mk_eq,
    mk_extract,
    mk_false,
    mk_implies,
    mk_ite,
    mk_not,
    mk_or,
    mk_sext,
    mk_slt,
    mk_true,
    mk_ule,
    mk_ult,
    mk_var,
    mk_xor,
    mk_zext,
    serialize_terms,
    serialize_with_prefix,
    terms,
    to_signed,
)
from repro.smt.checkproof import canonical_digest


def bv8(v):
    return mk_bv(v, 8)


A = mk_var("term_a", bv_sort(8))
B = mk_var("term_b", bv_sort(8))
P = mk_var("term_p", BOOL)
Q = mk_var("term_q", BOOL)


class TestInterning:
    def test_same_construction_same_object(self):
        assert mk_bvadd(A, B) is mk_bvadd(A, B)

    def test_commutative_canonicalization(self):
        assert mk_bvand(A, B) is mk_bvand(B, A)
        assert mk_bvor(A, B) is mk_bvor(B, A)
        assert mk_bvxor(A, B) is mk_bvxor(B, A)
        assert mk_bvmul(A, B) is mk_bvmul(B, A)
        assert mk_eq(A, B) is mk_eq(B, A)

    def test_constants_interned(self):
        assert bv8(5) is bv8(5)
        assert mk_true() is mk_bool(True)


class TestBoolFolding:
    def test_not_not(self):
        assert mk_not(mk_not(P)) is P

    def test_and_identity(self):
        assert mk_and(P, mk_true()) is P
        assert mk_and(P, mk_false()) is mk_false()
        assert mk_and() is mk_true()
        assert mk_and(P, P) is P

    def test_and_complement(self):
        assert mk_and(P, mk_not(P)) is mk_false()

    def test_or_identity(self):
        assert mk_or(P, mk_false()) is P
        assert mk_or(P, mk_true()) is mk_true()
        assert mk_or(P, mk_not(P)) is mk_true()

    def test_and_flattening(self):
        inner = mk_and(P, Q)
        outer = mk_and(inner, mk_not(Q))
        assert outer is mk_false()

    def test_xor(self):
        assert mk_xor(P, P) is mk_false()
        assert mk_xor(P, mk_false()) is P
        assert mk_xor(P, mk_true()) is mk_not(P)

    def test_implies(self):
        assert mk_implies(mk_false(), P) is mk_true()
        assert mk_implies(mk_true(), P) is P

    def test_ite_folding(self):
        assert mk_ite(mk_true(), A, B) is A
        assert mk_ite(mk_false(), A, B) is B
        assert mk_ite(P, A, A) is A
        assert mk_ite(P, mk_true(), mk_false()) is P
        assert mk_ite(P, mk_false(), mk_true()) is mk_not(P)

    def test_ite_negated_condition(self):
        assert mk_ite(mk_not(P), A, B) is mk_ite(P, B, A)

    def test_nested_ite_same_condition(self):
        inner = mk_ite(P, A, B)
        assert mk_ite(P, inner, B) is inner
        # ite(p, a, ite(p, _, b)) == ite(p, a, b)
        assert mk_ite(P, A, mk_ite(P, B, bv8(3))) is mk_ite(P, A, bv8(3))


class TestEqFolding:
    def test_reflexive(self):
        assert mk_eq(A, A) is mk_true()

    def test_constants(self):
        assert mk_eq(bv8(3), bv8(3)) is mk_true()
        assert mk_eq(bv8(3), bv8(4)) is mk_false()

    def test_eq_over_ite_with_const(self):
        t = mk_ite(P, bv8(1), bv8(2))
        assert mk_eq(t, bv8(1)) is P
        assert mk_eq(t, bv8(2)) is mk_not(P)
        assert mk_eq(t, bv8(3)) is mk_false()

    def test_sort_mismatch_raises(self):
        with pytest.raises(TypeError):
            mk_eq(A, mk_bv(0, 16))


class TestArithFolding:
    def test_add(self):
        assert mk_bvadd(bv8(200), bv8(100)) is bv8(44)
        assert mk_bvadd(A, bv8(0)) is A

    def test_add_reassociation(self):
        t = mk_bvadd(mk_bvadd(A, bv8(3)), bv8(5))
        assert t is mk_bvadd(A, bv8(8))

    def test_sub(self):
        assert mk_bvsub(A, A) is bv8(0)
        assert mk_bvsub(A, bv8(0)) is A
        assert mk_bvsub(bv8(3), bv8(5)) is bv8(254)

    def test_sub_becomes_add_of_negated_const(self):
        assert mk_bvsub(A, bv8(1)) is mk_bvadd(A, bv8(255))

    def test_mul(self):
        assert mk_bvmul(A, bv8(0)) is bv8(0)
        assert mk_bvmul(A, bv8(1)) is A
        assert mk_bvmul(bv8(20), bv8(20)) is bv8(144)

    def test_mul_power_of_two_strength_reduction(self):
        assert mk_bvmul(A, bv8(8)) is mk_bvshl(A, bv8(3))

    def test_udiv_urem_by_constants(self):
        assert mk_bvudiv(bv8(10), bv8(3)) is bv8(3)
        assert mk_bvurem(bv8(10), bv8(3)) is bv8(1)
        assert mk_bvudiv(A, bv8(1)) is A
        assert mk_bvurem(A, bv8(1)) is bv8(0)
        assert mk_bvudiv(A, bv8(4)) is mk_bvlshr(A, bv8(2))
        assert mk_bvurem(A, bv8(4)) is mk_bvand(A, bv8(3))

    def test_div_by_zero_smtlib(self):
        assert mk_bvudiv(bv8(7), bv8(0)) is bv8(255)
        assert mk_bvurem(bv8(7), bv8(0)) is bv8(7)

    def test_neg_and_not(self):
        assert mk_bvneg(bv8(1)) is bv8(255)
        assert mk_bvnot(bv8(0)) is bv8(255)
        assert mk_bvnot(mk_bvnot(A)) is A


class TestShiftFolding:
    def test_shl(self):
        assert mk_bvshl(bv8(1), bv8(4)) is bv8(16)
        assert mk_bvshl(A, bv8(0)) is A
        assert mk_bvshl(A, bv8(8)) is bv8(0)
        assert mk_bvshl(A, bv8(255)) is bv8(0)

    def test_lshr(self):
        assert mk_bvlshr(bv8(0x80), bv8(7)) is bv8(1)
        assert mk_bvlshr(A, bv8(9)) is bv8(0)

    def test_ashr(self):
        assert mk_bvashr(bv8(0x80), bv8(7)) is bv8(0xFF)
        assert mk_bvashr(bv8(0x40), bv8(7)) is bv8(0)
        assert mk_bvashr(bv8(0x80), bv8(100)) is bv8(0xFF)


class TestSerializeWithPrefix:
    def test_each_result_is_serialize_terms_of_prefix_and_last(self):
        x = mk_bvadd(A, B)
        prefix = [mk_ult(x, bv8(9)), mk_or(P, Q)]
        lasts = [
            mk_not(mk_eq(x, A)),  # shares the prefix's bvadd
            mk_and(P, mk_ult(A, B)),  # shares a prefix variable
            mk_ult(x, bv8(9)),  # entirely inside the prefix
            mk_xor(P, mk_eq(mk_bvmul(A, B), bv8(3))),
        ]
        got = serialize_with_prefix(prefix, lasts)
        assert got == [serialize_terms([*prefix, last]) for last in lasts]
        assert serialize_with_prefix([], lasts) == [serialize_terms([last]) for last in lasts]
        assert serialize_with_prefix(prefix, []) == []


class TestStructural:
    def test_concat_extract(self):
        assert mk_concat(bv8(0xAB), bv8(0xCD)) is mk_bv(0xABCD, 16)
        assert mk_extract(7, 0, mk_bv(0xABCD, 16)) is bv8(0xCD)
        assert mk_extract(15, 8, mk_bv(0xABCD, 16)) is bv8(0xAB)

    def test_extract_full_width_is_identity(self):
        assert mk_extract(7, 0, A) is A

    def test_extract_of_extract(self):
        w16 = mk_var("term_w16", bv_sort(16))
        inner = mk_extract(11, 4, w16)
        assert mk_extract(3, 0, inner) is mk_extract(7, 4, w16)

    def test_extract_of_concat(self):
        both = mk_concat(A, B)
        assert mk_extract(7, 0, both) is B
        assert mk_extract(15, 8, both) is A

    def test_extract_of_zext(self):
        z = mk_zext(A, 8)
        assert mk_extract(7, 0, z) is A
        assert mk_extract(15, 8, z) is bv8(0)

    def test_zext_sext(self):
        assert mk_zext(bv8(0xFF), 8) is mk_bv(0xFF, 16)
        assert mk_sext(bv8(0xFF), 8) is mk_bv(0xFFFF, 16)
        assert mk_zext(A, 0) is A
        assert mk_zext(mk_zext(A, 4), 4) is mk_zext(A, 8)

    def test_extract_range_checks(self):
        with pytest.raises(ValueError):
            mk_extract(8, 0, A)
        with pytest.raises(ValueError):
            mk_extract(3, 5, A)


class TestComparisons:
    def test_ult_constants(self):
        assert mk_ult(bv8(3), bv8(4)) is mk_true()
        assert mk_ult(bv8(4), bv8(3)) is mk_false()
        assert mk_ult(A, bv8(0)) is mk_false()

    def test_ule_zero(self):
        assert mk_ule(bv8(0), A) is mk_true()

    def test_slt_signed(self):
        assert mk_slt(bv8(0xFF), bv8(0)) is mk_true()  # -1 < 0
        assert mk_slt(bv8(0), bv8(0xFF)) is mk_false()

    def test_reflexive(self):
        assert mk_ult(A, A) is mk_false()
        assert mk_ule(A, A) is mk_true()
        assert mk_slt(A, A) is mk_false()


class TestSignedHelpers:
    def test_to_signed(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x7F, 8) == 127
        assert to_signed(0x80, 8) == -128


def _random_node(rng, below: int) -> list:
    """A node of the serialized schema over the ``below`` nodes before
    it: a variable (names repeat), a constant, or an operator."""
    op = rng.choice(["var", "bv", "bvadd", "bvsub", "and", "not", "ite"] if below else ["var", "bv"])
    if op == "var":
        return ["var", "bv8", [], rng.choice("abcdef")]
    if op == "bv":
        return ["bv", "bv8", [], rng.randrange(4)]
    arity = {"not": 1, "bvsub": 2, "ite": 3}.get(op, rng.randint(2, 3))
    return [op, "bv8", [rng.randrange(below) for _ in range(arity)], None]


def _random_queries(rng, count: int) -> list[dict]:
    """``count`` hand-built queries that share one random prefix, under
    one of two sets of its roots (the prefix's last node among them).
    The prefix may hold nodes, variables too, that only the last root
    reaches; the last root reaches every node no other root does."""
    prefix = []
    for i in range(rng.randint(1, 12)):
        prefix.append(_random_node(rng, i))
    root_sets = []
    for _ in range(2):
        picked = rng.sample(range(len(prefix)), rng.randint(1, min(3, len(prefix))))
        others = sorted(set(picked) | {len(prefix) - 1})
        rng.shuffle(others)
        root_sets.append(others)
    queries = []
    for _ in range(count):
        others = rng.choice(root_sets)
        nodes = copy.deepcopy(prefix)
        for _ in range(rng.randint(0, 6)):
            nodes.append(_random_node(rng, len(nodes)))
        reached = set()
        stack = list(others)
        while stack:
            i = stack.pop()
            if i not in reached:
                reached.add(i)
                stack.extend(nodes[i][2])
        rest = [i for i in range(len(nodes)) if i not in reached] or [0]
        nodes.append(["and", "b", rest + rng.sample(range(len(nodes)), 1), None])
        queries.append({"nodes": nodes, "roots": [*others, len(nodes) - 1]})
    return queries


def _split_prefix_query(last: str) -> dict:
    """A query whose prefix (nodes 0-4, root 4) holds a variable ``b``
    and a node over it that only the last root reaches: its number comes
    from the last root's walk.  ``last`` picks the walk: ``"b"`` reaches
    ``b`` first (b is v1), ``"cb"`` a new variable ``c`` first (b is v2)."""
    nodes = [
        ["var", "bv8", [], "a"],
        ["var", "bv8", [], "b"],
        ["bv", "bv8", [], 3],
        ["bvadd", "bv8", [1, 2], None],
        ["bvult", "b", [0, 2], None],
    ]
    if last == "b":
        nodes += [["eq", "b", [3, 0], None]]
    else:
        nodes += [["var", "bv8", [], "c"], ["bvsub", "bv8", [5, 3], None], ["eq", "b", [6, 0], None]]
    nodes.append(["not", "b", [len(nodes) - 1], None])
    return {"nodes": nodes, "roots": [4, len(nodes) - 1]}


class TestCanonicalPrefix:
    """``canonicalize_nodes`` canonicalizes a query's prefix (every root
    but the last) once per process; the digest must stay the one
    ``checkproof.canonical_digest`` computes over the whole query."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        terms._PREFIXES.clear()
        yield
        terms._PREFIXES.clear()

    def test_seeded_random_dags_sharing_prefixes(self):
        rng = random.Random(28)
        for _ in range(60):
            for query in _random_queries(rng, 4):
                expected = canonical_digest(query)
                assert canonicalize_nodes(query)[0] == expected
                assert canonicalize_nodes(copy.deepcopy(query))[0] == expected
        assert terms._PREFIXES

    def test_prefix_node_reached_only_from_the_last_root(self):
        for order in (["b", "cb"], ["cb", "b"]):
            terms._PREFIXES.clear()
            got = {last: canonicalize_nodes(_split_prefix_query(last)) for last in order}
            assert len(terms._PREFIXES) == 1  # one prefix, canonicalized once
            for last, (digest, var_map) in got.items():
                assert digest == canonical_digest(_split_prefix_query(last))
            assert got["b"][1] == {"a": "v0", "b": "v1"}
            assert got["cb"][1] == {"a": "v0", "c": "v1", "b": "v2"}

    @pytest.mark.parametrize("old, new", [(3, 4), (1, True), ((7, 0), [7, 0])])
    def test_prefixes_differing_in_one_payload_value_differ(self, old, new):
        """The memo is keyed by the prefix's exact content: a changed
        value, a bool for an int, a list for a tuple."""
        digests = []
        for value in (old, new):
            query = _split_prefix_query("b")
            query["nodes"][2][3] = value
            digest, _ = canonicalize_nodes(query)
            assert digest == canonical_digest(query)
            digests.append(digest)
        assert digests[0] != digests[1]
        assert len(terms._PREFIXES) == 2

    def test_child_forked_while_the_memo_is_locked_canonicalizes(self):
        """A pool worker forked while another thread of its parent held
        the memo's lock must not wait on it forever."""
        query = _split_prefix_query("b")
        ctx = multiprocessing.get_context("fork")
        with terms._PREFIXES_LOCK:
            child = ctx.Process(target=canonicalize_nodes, args=(query,))
            child.start()
        child.join(timeout=30.0)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    def test_threads_canonicalizing_at_once_agree(self, monkeypatch):
        """More threads than cores, switching often, over a memo small
        enough to evict while they run: every digest is the checker's."""
        monkeypatch.setattr(terms, "_PREFIXES_MAX", 3)
        rng = random.Random(7)
        queries = [q for _ in range(6) for q in _random_queries(rng, 5)]
        expected = [canonical_digest(q) for q in queries]
        start = threading.Barrier(4)
        got = {}

        def run(name, order):
            start.wait()
            got[name] = [(i, canonicalize_nodes(queries[i])[0]) for _ in range(10) for i in order]

        orders = [list(range(len(queries))) for _ in range(4)]
        for order in orders[1:]:
            rng.shuffle(order)
        threads = [threading.Thread(target=run, args=(n, order)) for n, order in enumerate(orders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(got) == [0, 1, 2, 3]
        for results in got.values():
            assert len(results) == 10 * len(queries)
            assert all(digest == expected[i] for i, digest in results)
