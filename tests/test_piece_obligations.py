"""Piece obligations and the ``split`` certificate.

An obligation is the query its verdict is keyed by: ``R ∧ ¬(∧ goals)``,
packaged once where its terms were built.  One whose lookup misses and
whose goal is ``not(and(c1..cn))`` runs as one obligation ``R ∧ ¬ci``
per distinct conjunct (``repro.core.runner``).  The contracts under
test: an obligation has one digest at every ``jobs``, the verdict and
the first failure are the same at every ``jobs``, a piece is keyed
exactly as the independent checker derives it, a proved whole is stored
under a ``split`` certificate that ``checkproof`` checks against its
pieces, and callers (the scheduler's tickets, the daemon, the latency
histogram) see one result per obligation they submitted, never a piece.

Splitting must never change an answer, only how it is reached: seeded
4-bit queries are compared with brute-force enumeration (and the tables
of a boolean uninterpreted function at the points the query applies it
to), a failed obligation's model is replayed against the whole query,
and every store a run leaves behind, ``split`` certificates included,
must pass the independent checker.
"""

import copy
import itertools
import json
import os
import random
import time

import pytest

from repro import obs
from repro.core.runner import Obligation, piece_nodes, reduce_results, run_obligations
from repro.core.scheduler import ObligationScheduler, get_scheduler
from repro.serve import ServeClient, VerificationServer
from repro.smt import (
    BOOL,
    Solver,
    bv_sort,
    eval_term,
    fresh_var,
    mk_and,
    mk_apply,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvmul,
    mk_bvor,
    mk_bvsub,
    mk_bvxor,
    mk_eq,
    mk_not,
    mk_or,
    mk_true,
    mk_ule,
    mk_ult,
    mk_var,
    serialize_terms,
)
from repro.smt.checkproof import (
    CheckFailure,
    audit_store,
    canonical_digest,
    check_certificate,
    piece_nodes as checker_piece_nodes,
)
from repro.smt.solver import SolverCache, reset_incremental_session

BV8 = bv_sort(8)
BV4 = bv_sort(4)


@pytest.fixture(autouse=True)
def _fresh_session():
    reset_incremental_session()
    yield
    reset_incremental_session()


def _valid(x, y, k):
    """A conjunct valid for every x, y; ``k`` varies its shape."""
    return [
        lambda: mk_eq(mk_bvxor(mk_bvxor(x, y), y), mk_bvand(x, mk_bv(0xFF, 8))),
        lambda: mk_ule(mk_bvand(x, y), x),
        lambda: mk_ule(x, mk_bvor(x, y)),
        lambda: mk_eq(mk_bvxor(x, y), mk_bvsub(mk_bvor(x, y), mk_bvand(x, y))),
    ][k % 4]()


def _vc(name, conjuncts=4, failing=None):
    """An obligation over fresh variables whose goal has ``conjuncts``
    valid conjuncts, except that conjunct number ``failing`` (if any)
    does not hold when ``x < 100``, the one assumption."""
    x, y = fresh_var("px", BV8), fresh_var("py", BV8)
    goals = [_valid(x, y, k) for k in range(conjuncts)]
    if failing is not None:
        goals[failing] = mk_not(mk_eq(mk_bvor(x, y), mk_bv(7, 8)))
    return Obligation.from_terms(name, goals, [mk_ult(x, mk_bv(100, 8))]), goals, x


def _store_certs(store, kind):
    cache = SolverCache(str(store))
    out = []
    for shard in sorted(os.listdir(store)):
        if len(shard) != 2:
            continue
        for name in sorted(os.listdir(os.path.join(store, shard))):
            if name.endswith(".cert.json") or name.endswith(".cert.json.gz"):
                cert = cache.load_certificate(name.split(".")[0])
                if cert["kind"] == kind:
                    out.append(cert)
    return out


def _run(obligations, store, jobs, **knobs):
    return run_obligations(obligations, jobs=jobs, cache_dir=str(store), **knobs)[0]


class TestVerdictsAcrossJobs:
    def test_every_piece_proved(self, tmp_path):
        obligations = [_vc(f"vc{i}", conjuncts=2 + i)[0] for i in range(3)]
        for jobs in (1, 2):
            results = _run(obligations, tmp_path / f"j{jobs}", jobs)
            assert [r.status for r in results] == ["proved"] * 3
            assert [r.stats["split"] for r in results] == [2, 3, 4]
            assert audit_store(str(tmp_path / f"j{jobs}"), require_certs=True)["split"] == 3

    def test_one_failing_conjunct_reports_a_model_of_the_whole(self, tmp_path):
        ok, _, _ = _vc("ok")
        bad, goals, x = _vc("bad", conjuncts=5, failing=2)
        later, _, _ = _vc("later", failing=0)
        verdicts = {}
        for jobs in (1, 2):
            results = _run([ok, bad, later], tmp_path / f"j{jobs}", jobs)
            verdicts[jobs] = [r.status for r in results]
            first = reduce_results(results)
            assert first.name == "bad"
            model = first.model_values
            # The deciding piece's model, completed over the whole VC's
            # variables: it meets the assumption and falsifies the goal.
            assert eval_term(mk_ult(x, mk_bv(100, 8)), model)
            assert not eval_term(mk_and(*goals), model)
        assert verdicts[1] == verdicts[2] == ["proved", "failed", "failed"]

    def test_piece_out_of_budget_makes_the_whole_unknown(self, tmp_path):
        a, b = fresh_var("ha", BV8), fresh_var("hb", BV8)
        goals = [
            mk_eq(mk_bvmul(a, mk_bvadd(b, mk_bv(k, 8))), mk_bvadd(mk_bvmul(a, b), mk_bvmul(a, mk_bv(k, 8))))
            for k in range(3, 7)
        ]
        hard = Obligation.from_terms("hard", goals, [mk_not(mk_eq(a, mk_bv(1, 8)))])
        # Masked bits: refuted by propagation alone, within any budget.
        x = fresh_var("ex", BV8)
        easy = Obligation.from_terms(
            "easy", [mk_ule(mk_bvand(x, mk_bv(m, 8)), mk_bv(m, 8)) for m in (0x0F, 0x07)]
        )
        for jobs in (1, 2):
            results = _run([easy, hard], tmp_path / f"j{jobs}", jobs, max_conflicts=1, retries=0)
            assert [r.status for r in results] == ["proved", "unknown"]
            assert results[1].name == "hard"
            assert results[1].stats["piece"].startswith("hard / piece ")


class TestPieces:
    def test_not_conjunct_splits_and_is_keyed_as_the_checker_derives(self, tmp_path):
        """``¬(x < x & y)`` is itself a ``not``: its piece negates it
        again without folding, and the digest the piece was solved and
        stored under is the one the checker derives."""
        x, y = fresh_var("nx", BV8), fresh_var("ny", BV8)
        negated = mk_not(mk_ult(x, mk_bvand(x, y)))
        assert negated.op == "not"
        ob = Obligation.from_terms("neg", [negated, _valid(x, y, 2)], [mk_ult(y, mk_bv(9, 8))])
        [result] = _run([ob], tmp_path / "store", jobs=1)
        assert result.proved and result.stats["split"] == 2
        [cert] = _store_certs(tmp_path / "store", "split")
        check_certificate(cert)
        query = cert["query"]
        and_node = query["nodes"][query["nodes"][query["roots"][-1]][2][0]]
        negated_at = [i for i, c in enumerate(and_node[2]) if query["nodes"][c][0] == "not"]
        assert negated_at
        for position in negated_at:
            piece = checker_piece_nodes(query, and_node[2][position])
            # Not folded: the piece's last root is not(not(...)).
            last = piece["nodes"][piece["roots"][-1]]
            assert last[0] == "not" and piece["nodes"][last[2][0]][0] == "not"
            assert piece == piece_nodes(query, and_node[2][position])
            digest = canonical_digest(piece)
            assert cert["pieces"][position] == digest
            assert SolverCache(str(tmp_path / "store"))._read_entry(digest) == {"status": "unsat"}

    def test_alpha_equivalent_conjuncts_make_one_piece_task(self, tmp_path):
        a, b, c, d = (fresh_var(n, BV8) for n in ("aa", "ab", "ac", "ad"))
        ob = Obligation.from_terms("alpha", [_valid(a, b, 1), _valid(c, d, 1)])
        filler, _, _ = _vc("filler")
        with obs.tracing() as col:
            results = _run([ob, filler], tmp_path / "store", jobs=2)
        assert [r.status for r in results] == ["proved", "proved"]
        assert results[0].stats["split"] == 2 and results[0].stats["pieces"] == 1
        pieces = [s.name for s in col.spans if s.cat == "scheduler" and s.name.startswith("alpha /")]
        assert pieces == ["alpha / piece 0"]
        [cert] = [c for c in _store_certs(tmp_path / "store", "split") if c["digest"] == results[0].stats["digest"]]
        assert len(cert["pieces"]) == 2 and cert["pieces"][0] == cert["pieces"][1]
        assert audit_store(str(tmp_path / "store"), require_certs=True)["failures"] == []

    def test_warm_rerun_hits_every_whole_digest(self, tmp_path):
        obligations = [_vc(f"warm{i}", conjuncts=3 + i)[0] for i in range(3)]
        obligations.append(_vc("single", conjuncts=1)[0])
        _run(obligations, tmp_path / "store", jobs=2)
        with obs.tracing() as col:
            results = _run(obligations, tmp_path / "store", jobs=2)
        assert all(r.proved and r.stats["cache_hit"] for r in results)
        assert col.counters["solver.queries"] == len(obligations)
        assert col.counters["solver.cache.hits"] == len(obligations)
        assert not [s for s in col.spans if " / piece " in s.name]


    def test_nested_conjunction_is_solved_whole(self, tmp_path):
        """A hand-built goal ``not(and(a, and(b, c)))`` is not flat, so
        it does not split (its piece ``not(and(b, c))`` would split
        again): it is solved whole, under a ``drat`` certificate."""
        x, y = fresh_var("wx", BV8), fresh_var("wy", BV8)
        a, b, c = (_valid(x, y, k) for k in range(1, 4))
        inner = mk_and(b, c)
        assert inner.op == "and"
        data = serialize_terms([a, inner])
        nodes = data["nodes"] + [["and", "b", data["roots"], None]]
        nodes.append(["not", "b", [len(nodes) - 1], None])
        doc = {"name": "nested", "payload": {"nodes": nodes, "roots": [len(nodes) - 1]}}
        [result] = _run([Obligation.from_json(doc)], tmp_path / "store", jobs=1)
        assert result.proved and "split" not in result.stats
        summary = audit_store(str(tmp_path / "store"), require_certs=True)
        assert summary["failures"] == []
        assert (summary["drat"], summary["split"]) == (1, 0)


def _mirrored_vc(name):
    """A VC over fresh 8-bit variables assuming ``x1 = y1`` and
    ``x2 = y2``, with goal ``and(x1 = y1, x2 = y2)``: the two conjuncts
    have one shape, so only their stored order tells them apart."""
    x1, y1, x2, y2 = (fresh_var(n, BV8) for n in ("mx1", "my1", "mx2", "my2"))
    both = [mk_eq(x1, y1), mk_eq(x2, y2)]
    return Obligation.from_terms(name, [mk_and(*both)], both)


class TestOneDigest:
    def test_quick_grid_digests_are_the_checkers(self, monkeypatch):
        """Every quick-grid obligation and piece, pickled as a worker
        receives it, keys to the digest the independent checker
        computes: the per-process prefix memo hits across them."""
        import pickle

        from repro.core import runner
        from repro.core.runner import ObligationResult, RunnerStats, _conjuncts
        from repro.serve.grids import grid_ops, verifier_class
        from repro.smt import canonicalize_nodes

        captured = []

        def proved(obligations, **_kwargs):
            captured.extend(obligations)
            return [ObligationResult(ob.name, "proved") for ob in obligations], RunnerStats()

        monkeypatch.setattr(runner, "run_obligations", proved)
        for monitor, op in grid_ops("fig11-quick"):
            assert verifier_class(monitor)(opt=1).prove_op(op).proved
        queries = [ob.payload for ob in captured]
        queries += [piece_nodes(query, c) for query in queries for c in _conjuncts(query)]
        assert len(captured) == 35 and len(queries) == 80
        for query in queries:
            received = pickle.loads(pickle.dumps(query))
            assert canonicalize_nodes(received)[0] == canonical_digest(query)

    @pytest.mark.parametrize("first, then", [(1, 2), (2, 1)])
    def test_store_filled_at_one_jobs_answers_the_other(self, tmp_path, first, then):
        """A worker forked before the VC was built interns its terms in
        another order than the parent did; it still keys the obligation
        as the parent packaged it, so a store filled at either ``jobs``
        answers the whole at the other, with no split."""
        get_scheduler(2).map(abs, [-1, -2])  # fork the pool first
        # Two obligations: run_obligations runs a batch of one in-process.
        batch = [_mirrored_vc("mirrored"), _vc("filler")[0]]
        cold = _run(batch, tmp_path / "store", first)
        assert [r.status for r in cold] == ["proved", "proved"]
        assert cold[0].stats["split"] == 2
        warm = _run(batch, tmp_path / "store", then)
        for result in warm:
            assert result.proved and result.stats["cache_hit"] and "split" not in result.stats
        assert warm[0].stats["digest"] == cold[0].stats["digest"]


class TestTimeline:
    def test_split_whole_reports_its_time_to_verdict(self, tmp_path):
        ob, _, _ = _vc("timed", conjuncts=4)
        sched = ObligationScheduler(workers=2)
        try:
            with obs.tracing() as col:
                ticket = sched.submit_obligations([ob], cache_dir=str(tmp_path / "store"))
                [result] = ticket.wait(timeout=120.0)
        finally:
            sched.shutdown()
        assert result.proved and result.stats["split"] == 4
        [row] = ticket.timeline
        pieces = ticket.piece_timeline
        assert pieces
        # The row is the whole's own run, which only derived the pieces:
        # its worker was free while they ran.
        assert row["end_t"] <= min(piece["start_t"] for piece in pieces)
        # Its time to verdict spans the pieces it needed.
        last = max(piece["end_t"] for piece in pieces)
        assert row["start_t"] + row["verdict_s"] >= last
        [done] = [e for e in col.events if e["msg"] == "obligation.done"]
        assert done["name"] == "timed" and done["wall_s"] == row["verdict_s"]
        [span] = [s for s in col.spans if s.cat == "scheduler" and s.name == "timed"]
        assert span.args["verdict_s"] == row["verdict_s"]


    def test_wall_histogram_counts_submitted_obligations(self, tmp_path):
        """``obligation.wall_seconds`` gets one observation per submitted
        obligation at every ``jobs``; a piece is not one."""
        batch = [_vc("hist-split")[0], _vc("hist-whole", conjuncts=1)[0]]
        counts = {}
        for jobs in (1, 2):
            with obs.tracing() as col:
                results = _run(batch, tmp_path / f"j{jobs}", jobs)
            assert results[0].stats["split"] == 4 and "split" not in results[1].stats
            counts[jobs] = col.histograms["obligation.wall_seconds"].count
        assert counts == {1: 2, 2: 2}


def _slow_goal(bits):
    """The ring identity (x+1)(y+1) == xy+x+y+1 over fresh variables:
    from 12 bits on, a piece of it only ends at its timeout."""
    x, y = fresh_var("sx", bv_sort(bits)), fresh_var("sy", bv_sort(bits))
    one = mk_bv(1, bits)
    lhs = mk_bvmul(mk_bvadd(x, one), mk_bvadd(y, one))
    return mk_eq(lhs, mk_bvadd(mk_bvadd(mk_bvmul(x, y), mk_bvadd(x, y)), one))


class TestCancel:
    def test_cancel_with_pieces_queued_finalizes_the_whole(self):
        # Three widths: alpha-equivalent conjuncts would make one piece.
        ob = Obligation.from_terms("slow", [_slow_goal(bits) for bits in (12, 13, 14)])
        sched = ObligationScheduler(workers=1)
        try:
            ticket = sched.submit_obligations([ob], timeout_s=1.0)
            deadline = time.monotonic() + 60.0
            while sched.telemetry()["queued"] == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sched.telemetry()["queued"] == 2  # one piece runs, two wait
            assert sched.cancel(ticket) == 1
            assert sched.telemetry()["queued"] == 0
            [result] = ticket.wait(timeout=30.0)
            assert result.name == "slow" and result.status == "unknown"
            assert result.stats.get("cancelled") is True
            assert ticket.progress()["pending"] == 0
        finally:
            sched.shutdown()


class TestDaemon:
    def test_obligations_job_streams_one_verdict_per_obligation(self, tmp_path):
        server = VerificationServer(store_dir=str(tmp_path / "store"), trace=False).start()
        try:
            client = ServeClient(server.url, timeout_s=120.0)
            obligations = [_vc("split")[0], _vc("whole", conjuncts=1)[0], _vc("bad", failing=1)[0]]
            job_id = client.submit_obligations(obligations, jobs=2)["id"]
            records = list(client.stream(job_id))
            assert client.wait(job_id, timeout_s=120)["state"] == "done"
        finally:
            server.close()
        assert sorted(r["index"] for r in records) == [0, 1, 2]
        by_index = {r["index"]: r for r in records}
        assert [by_index[i]["name"] for i in range(3)] == ["split", "whole", "bad"]
        assert [by_index[i]["status"] for i in range(3)] == ["proved", "proved", "failed"]


class TestSplitCertificate:
    @pytest.fixture
    def proved(self, tmp_path):
        """A store holding one proved split (three distinct pieces) and
        its split certificate."""
        ob, _, _ = _vc("cert", conjuncts=3)
        [result] = _run([ob], tmp_path / "store", jobs=1)
        assert result.proved and result.stats["pieces"] == 3
        [cert] = _store_certs(tmp_path / "store", "split")
        return str(tmp_path / "store"), cert

    @pytest.mark.parametrize("tamper", ["missing", "added", "swapped", "elsewhere"])
    def test_tampered_piece_list_is_rejected(self, proved, tamper):
        store, cert = proved
        check_certificate(cert)
        bad = copy.deepcopy(cert)
        pieces = bad["pieces"]
        if tamper == "missing":
            pieces.pop()
        elif tamper == "added":
            pieces.append(pieces[0])
        elif tamper == "swapped":
            assert pieces[0] != pieces[1]
            pieces[0], pieces[1] = pieces[1], pieces[0]
        else:
            pieces[1] = cert["digest"]
        with pytest.raises(CheckFailure):
            check_certificate(bad)

    def test_query_that_is_not_a_conjunctive_goal_is_rejected(self, proved):
        _store, cert = proved
        drat = _store_certs(_store, "drat")[0]
        bad = dict(cert, query=drat["query"], digest=drat["digest"])
        with pytest.raises(CheckFailure, match="not\\(and"):
            check_certificate(bad)

    @pytest.mark.parametrize("damage", ["missing", "sat"])
    def test_store_audit_needs_every_piece_unsat(self, proved, damage):
        store, cert = proved
        piece = cert["pieces"][1]
        entry = os.path.join(store, piece[:2], f"{piece}.json")
        if damage == "missing":
            os.unlink(entry)
        else:
            with open(entry, "w") as handle:
                json.dump({"status": "sat", "model": {}}, handle)
        failures = dict(audit_store(store)["failures"])
        assert cert["digest"] in failures
        assert piece in failures[cert["digest"]]


# ---------------------------------------------------------------------------
# Seeded 4-bit queries against brute force

X = mk_var("cl_x", BV4)
Y = mk_var("cl_y", BV4)


def P(t):
    """A boolean uninterpreted predicate over 4-bit values."""
    return mk_apply("cl_p", BOOL, [t])


# Conjuncts valid for every a, b (some fold away at construction).
IDENTITIES = [
    lambda a, b: mk_eq(mk_bvxor(mk_bvxor(a, b), b), mk_bvand(a, mk_bv(15, 4))),
    lambda a, b: mk_ule(mk_bvand(a, b), a),
    lambda a, b: mk_eq(mk_bvmul(a, mk_bvadd(b, mk_bv(1, 4))), mk_bvadd(mk_bvmul(a, b), a)),
    lambda a, b: mk_ule(a, mk_bvor(a, b)),
    lambda a, b: mk_eq(mk_bvxor(a, b), mk_bvsub(mk_bvor(a, b), mk_bvand(a, b))),
]


# ---------------------------------------------------------------------------
# Brute force


def _nodes(terms):
    seen, out, stack = set(), [], list(terms)
    while stack:
        t = stack.pop()
        if t.tid not in seen:
            seen.add(t.tid)
            out.append(t)
            stack.extend(t.args)
    return out


def _satisfiable(terms, fixed=None):
    """Whether some assignment (``fixed``, or every one) plus some table
    for the predicates satisfies all of ``terms``."""
    nodes = _nodes(terms)
    names = sorted({t.payload for t in nodes if t.op == "var"})
    apps = [t for t in nodes if t.op == "apply"]
    if fixed is not None:
        envs = [dict(fixed)]
    else:
        envs = (dict(zip(names, vals)) for vals in itertools.product(range(16), repeat=len(names)))
    for env in envs:
        points = sorted({(a.payload, tuple(eval_term(x, env) for x in a.args)) for a in apps})
        for values in itertools.product((False, True), repeat=len(points)):
            full = dict(env)
            for (fun, argv), value in zip(points, values):
                full.setdefault(fun, {})[argv] = value
            if all(eval_term(t, full) for t in terms):
                return True
    return False


# ---------------------------------------------------------------------------
# Random queries


def _operand(rng):
    return rng.choice([X, Y, mk_bv(rng.randrange(16), 4)])


def _expr(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return _operand(rng)
    op = rng.choice([mk_bvadd, mk_bvmul, mk_bvxor, mk_bvand, mk_bvor, mk_bvsub])
    return op(_expr(rng, depth - 1), _expr(rng, depth - 1))


def _conjunct(rng, allow_uf):
    a, b = _expr(rng, 1), _expr(rng, 1)
    if allow_uf and rng.random() < 0.3:
        if rng.random() < 0.7:
            # Functional consistency: valid.
            return mk_or(mk_not(mk_eq(a, b)), mk_eq(P(a), P(b)))
        return mk_eq(P(a), P(b))
    if rng.random() < 0.75:
        return rng.choice(IDENTITIES)(a, b)
    return rng.choice([mk_eq, mk_ule])(_expr(rng), _expr(rng))


def _roots(rng):
    pool = [
        lambda: mk_ult(X, mk_bv(rng.randrange(2, 16), 4)),
        lambda: mk_not(mk_eq(Y, mk_bv(rng.randrange(16), 4))),
        lambda: mk_ule(Y, X),
    ]
    return [rng.choice(pool)() for _ in range(rng.randrange(3))]


def _random_queries(seed, count):
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        conjuncts = [_conjunct(rng, allow_uf=i % 5 == 0) for _ in range(rng.randrange(2, 7))]
        queries.append(_roots(rng) + [mk_not(mk_and(*conjuncts))])
    return queries


def _obligation(name, query):
    """The obligation whose query is ``query``: its last root is the
    negated goal, the others are assumptions."""
    goal = query[-1]
    conjuncts = goal.args[0].args if goal.op == "not" and goal.args[0].op == "and" else None
    if conjuncts is None:
        conjuncts = [mk_not(goal)]
    return Obligation.from_terms(name, list(conjuncts), query[:-1])


def _run_queries(queries, store, jobs=1, **knobs):
    obligations = [_obligation(f"q{n}", query) for n, query in enumerate(queries)]
    results, _ = run_obligations(obligations, jobs=jobs, cache_dir=str(store), **knobs)
    return results


def _audit(store):
    summary = audit_store(str(store), require_certs=True)
    assert summary["failures"] == []
    return summary


class TestRandomQueries:
    def test_verdicts_models_and_certificates(self, tmp_path):
        store = tmp_path / "store"
        queries = _random_queries(1313, 60)
        results = _run_queries(queries, store)
        seen = {"proved": 0, "failed": 0}
        for n, (query, result) in enumerate(zip(queries, results)):
            assert result.status in seen, n
            assert (result.status == "failed") == _satisfiable(query), n
            seen[result.status] += 1
            if result.status == "failed":
                # The deciding piece's model, completed over the whole
                # query's variables, satisfies the whole query.
                assert _satisfiable(query, fixed=result.model_values.items()), n
        assert seen["proved"] and seen["failed"]
        assert sum(1 for r in results if r.stats.get("split")) >= 40
        assert _audit(store)["split"] >= 5

    def test_shared_session_matches_reset_session(self):
        queries = _random_queries(2727, 25)
        shared = [Solver().check(*q).status for q in queries]
        fresh = []
        for q in queries:
            reset_incremental_session()
            fresh.append(Solver().check(*q).status)
        assert shared == fresh


class TestShapes:
    def test_uninterpreted_predicate(self, tmp_path):
        store = tmp_path / "store"
        goal = mk_not(mk_and(mk_eq(P(X), P(Y)), mk_eq(mk_bvxor(X, Y), mk_bv(0, 4))))
        same = [mk_ule(X, Y), mk_ule(Y, X)]
        [result] = _run_queries([same + [goal]], store)
        assert result.proved and result.stats["split"] == 2
        assert _audit(store)["split"] == 1
        [result] = _run_queries([same[:1] + [goal]], store)
        assert result.status == "failed"
        assert _satisfiable(same[:1] + [goal], fixed=result.model_values.items())
        _audit(store)

    def test_single_conjunct_is_solved_whole(self, tmp_path):
        """One conjunct is no conjunction: the obligation is solved
        whole, with no piece."""
        goal = mk_not(mk_and(IDENTITIES[2](X, Y)))
        assert goal.args[0].op != "and"
        with obs.tracing() as col:
            [result] = _run_queries([[goal]], tmp_path / "store")
        assert result.proved and "split" not in result.stats
        assert col.counters["solver.queries"] == 1

    def test_conjuncts_folding_to_constants(self, tmp_path):
        store = tmp_path / "store"
        valid = IDENTITIES[2](X, Y)
        # Folds away while the term is built.
        assert len(mk_and(valid, mk_true(), IDENTITIES[3](X, Y)).args) == 2
        # Survive the term layer, fold to a constant literal when blasted.
        blast_true = mk_ule(X, mk_bv(15, 4))
        blast_false = mk_ult(mk_bv(15, 4), X)
        assert blast_true.op != "boolconst" and blast_false.op != "boolconst"

        [result] = _run_queries([[mk_not(mk_and(valid, blast_true, IDENTITIES[3](X, Y)))]], store)
        assert result.proved and result.stats["split"] == 3

        query = [mk_ult(Y, X), mk_not(mk_and(valid, blast_false))]
        [result] = _run_queries([query], store)
        assert result.status == "failed" and result.stats["split"] == 2
        assert _satisfiable(query, fixed=result.model_values.items())
        _audit(store)


# ---------------------------------------------------------------------------
# Budgets


def _hard_query():
    """Eight distributivity identities over a 4-bit multiplier: every
    piece needs search, not just unit propagation."""
    a = mk_var("cl_a", BV4)
    b = mk_var("cl_b", BV4)
    conjuncts = [
        mk_eq(mk_bvmul(a, mk_bvadd(b, mk_bv(k, 4))), mk_bvadd(mk_bvmul(a, b), mk_bvmul(a, mk_bv(k, 4))))
        for k in range(3, 11)
    ]
    return [mk_not(mk_eq(a, mk_bv(1, 4))), mk_not(mk_and(*conjuncts))]


class TestBudgets:
    def test_pieces_exhausting_conflicts_yield_unknown(self, tmp_path):
        """``max_conflicts`` is per piece: a piece that runs out of it
        makes the whole obligation unknown, under its own name."""
        [result] = _run_queries([_hard_query()], tmp_path / "ample")
        assert result.proved and result.stats["split"] == 8
        reset_incremental_session()
        [result] = _run_queries([_hard_query()], tmp_path / "tight", max_conflicts=1)
        assert result.status == "unknown" and result.name == "q0"
        assert result.stats["piece"].startswith("q0 / piece ")
