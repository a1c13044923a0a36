"""Proof certificates: emission through the solver stack, storage next
to verdicts, and verification by the standalone checker.

The property under test is the trust chain of docs/CERTIFICATES.md:
every cache-backed verdict ships a certificate that an *independent*
checker (``repro.smt.checkproof``, importing nothing from the solver
package) accepts, and any tampering — with the certificate or with the
digest binding it to its query — makes that checker fail loudly.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.core.store import VerdictStore
from repro.smt import (
    Solver,
    SolverCache,
    bv_sort,
    mk_and,
    mk_apply,
    mk_bv,
    mk_bvadd,
    mk_bvmul,
    mk_bvxor,
    mk_eq,
    mk_not,
    mk_ult,
    mk_var,
)
from repro.smt.checkproof import (
    CheckFailure,
    audit_store,
    check_certificate,
    main as checkproof_main,
)
from repro.smt.proof import RawJSON, encode_certificate
from repro.smt.solver import get_incremental_session


def _unsat_query(prefix: str = "cq"):
    x = mk_var(f"{prefix}_x", bv_sort(8))
    return [mk_ult(x, mk_bv(5, 8)), mk_ult(mk_bv(10, 8), x)]


def _hard_unsat_query(prefix: str = "cq"):
    """UNSAT only after real search (x*y = 97 with y = -x needs an odd
    square ≡ 7 mod 8), so the refutation learns clauses — tampering
    tests need a non-empty proof to empty."""
    x = mk_var(f"{prefix}_x", bv_sort(8))
    y = mk_var(f"{prefix}_y", bv_sort(8))
    return [
        mk_eq(mk_bvmul(x, y), mk_bv(97, 8)),
        mk_eq(mk_bvadd(x, y), mk_bv(0, 8)),
    ]


def _sat_query(prefix: str = "cq"):
    x = mk_var(f"{prefix}_x", bv_sort(8))
    y = mk_var(f"{prefix}_y", bv_sort(8))
    return [
        mk_eq(mk_bvadd(x, y), mk_bv(100, 8)),
        mk_ult(x, mk_bv(5, 8)),
        mk_not(mk_eq(mk_bvmul(x, y), mk_bv(0, 8))),
    ]


def _check(solver, terms):
    result = solver.check(*terms)
    digest = result.stats.get("digest")
    assert digest, "cache-backed check must record its digest"
    return result, digest


@pytest.fixture
def cached_solver(tmp_path):
    return Solver(cache=SolverCache(str(tmp_path / "cache")))


class TestEmission:
    def test_unsat_emits_drat_certificate(self, cached_solver):
        result, digest = _check(cached_solver, _unsat_query("em_u"))
        assert result.is_unsat
        cert = cached_solver.cache.load_certificate(digest)
        assert cert is not None
        assert cert["kind"] == "drat"
        assert cert["digest"] == digest
        assert cert["cnf"] and isinstance(cert["proof"], list)

    def test_sat_emits_model_certificate(self, cached_solver):
        result, digest = _check(cached_solver, _sat_query("em_s"))
        assert result.is_sat
        cert = cached_solver.cache.load_certificate(digest)
        assert cert is not None
        assert cert["kind"] == "model"
        assert cert["digest"] == digest
        assert cert["model"]

    def test_encoding_is_compact_json_with_raw_fields_verbatim(self):
        plain = {"format": "repro-cert", "kind": "model", "model": {"v0": 3, "v1": True}, "funs": {}}
        assert encode_certificate(plain) == json.dumps(plain, separators=(",", ":")).encode()
        cert = {"kind": "drat", "cnf": RawJSON("[[1,-2],[3]]"), "proof": [[1]]}
        decoded = json.loads(encode_certificate(cert))
        assert decoded == {"kind": "drat", "cnf": [[1, -2], [3]], "proof": [[1]]}

    def test_session_keeps_manifest_text_across_certificates(self, cached_solver):
        first = _hard_unsat_query("kept")
        _, digest_a = _check(cached_solver, first)
        texts = get_incremental_session().sat.proof.clause_json
        kept = dict(texts)
        y = mk_var("kept_z", bv_sort(8))
        result, digest_b = _check(cached_solver, first + [mk_ult(y, mk_bv(3, 8))])
        assert result.is_unsat and digest_b != digest_a
        # The second refutation rests on the first one's clauses: their
        # text was kept, not written again, and both certificates check.
        assert texts == kept
        for digest in (digest_a, digest_b):
            check_certificate(cached_solver.cache.load_certificate(digest))

    def test_uncached_solver_emits_nothing(self, tmp_path):
        result = Solver().check(*_unsat_query("em_plain"))
        assert result.is_unsat
        assert "cert" not in result.stats


class TestCheckerAccepts:
    def test_unsat_certificate_checks(self, cached_solver):
        _, digest = _check(cached_solver, _unsat_query("ok_u"))
        info = check_certificate(cached_solver.cache.load_certificate(digest))
        assert info["proof_lines"] >= 0 and info["cnf_clauses"] > 0

    def test_sat_certificate_checks(self, cached_solver):
        _, digest = _check(cached_solver, _sat_query("ok_s"))
        info = check_certificate(cached_solver.cache.load_certificate(digest))
        assert info["roots"] == 3

    def test_uf_model_certificate_checks(self, cached_solver):
        x = mk_var("ok_uf_x", bv_sort(8))
        f_x = mk_apply("ok_f", bv_sort(8), [x])
        f_fx = mk_apply("ok_f", bv_sort(8), [f_x])
        _, digest = _check(
            cached_solver, [mk_ult(f_x, mk_bv(10, 8)), mk_eq(f_fx, mk_bvxor(x, x))]
        )
        cert = cached_solver.cache.load_certificate(digest)
        assert cert["kind"] == "model" and cert["funs"]
        check_certificate(cert)

    def test_alpha_equivalent_queries_share_one_certificate(self, cached_solver):
        """The cached copy of an alpha-equivalent query re-checks: the
        certificate is bound to the canonical digest, not the variable
        spelling of whichever run stored it."""
        _, digest_a = _check(cached_solver, _sat_query("alpha_one"))
        second, digest_b = _check(cached_solver, _sat_query("alpha_two"))
        assert digest_a == digest_b
        assert second.stats.get("cache_hit")
        check_certificate(cached_solver.cache.load_certificate(digest_b))

    def test_incremental_and_fresh_certificates_both_check(self, tmp_path):
        """Certificates check both on a session's first query right after
        a reset (what a fresh solver would see) and on a warm session
        that has already absorbed other queries."""
        from repro.smt.solver import get_incremental_session, reset_incremental_session

        def emit(label, kind, make) -> dict:
            # One store per query: the rounds' queries are alpha-equivalent
            # and would otherwise replay the first round's certificates.
            solver = Solver(cache=SolverCache(str(tmp_path / f"{label}_{kind}")))
            result, digest = _check(solver, make(f"ifc_{label}_{kind}"))
            assert not result.stats.get("cache_hit")
            cert = solver.cache.load_certificate(digest)
            assert cert is not None, f"{label}: no {kind} certificate emitted"
            assert cert["kind"] == kind and cert["mode"] == "incremental"
            return cert

        queries = (("drat", _hard_unsat_query), ("model", _sat_query))
        for kind, make in queries:
            reset_incremental_session()
            with obs.tracing() as col:
                check_certificate(emit("fresh", kind, make))
            assert col.counters["sat.incremental_hits"] == 1
        session = get_incremental_session()
        with obs.tracing() as col:
            # Other queries warm the session before the second round.
            Solver().check(*_unsat_query("ifc_filler_u"))
            Solver().check(*_sat_query("ifc_filler_s"))
            for kind, make in queries:
                check_certificate(emit("warm", kind, make))
        # Five solves in one session: the last fresh one, then four.
        assert get_incremental_session() is session
        assert col.counters["sat.incremental_hits"] == 4


class TestTampering:
    def _certs(self, solver):
        _, u_digest = _check(solver, _hard_unsat_query("tmp_u"))
        _, s_digest = _check(solver, _sat_query("tmp_s"))
        return (
            solver.cache.load_certificate(u_digest),
            solver.cache.load_certificate(s_digest),
        )

    def test_flipped_digest_rejected(self, cached_solver):
        for cert in self._certs(cached_solver):
            bad = copy.deepcopy(cert)
            first = bad["digest"][0]
            bad["digest"] = ("0" if first != "0" else "1") + bad["digest"][1:]
            with pytest.raises(CheckFailure, match="digest binding"):
                check_certificate(bad)

    def test_tampered_query_rejected(self, cached_solver):
        """Swapping the query under a certificate breaks the digest
        binding — a store can't relabel a proof for query A as covering
        query B."""
        drat, model = self._certs(cached_solver)
        bad = copy.deepcopy(drat)
        bad["query"] = model["query"]
        with pytest.raises(CheckFailure, match="digest binding"):
            check_certificate(bad)

    def test_emptied_proof_rejected(self, cached_solver):
        drat, _ = self._certs(cached_solver)
        assert drat["proof"], "query too easy: refutation learned nothing"
        bad = copy.deepcopy(drat)
        bad["proof"] = []
        with pytest.raises(CheckFailure, match="final check"):
            check_certificate(bad)

    def test_corrupted_model_rejected(self, cached_solver):
        _, model = self._certs(cached_solver)
        bad = copy.deepcopy(model)
        name, value = next(iter(bad["model"].items()))
        bad["model"][name] = (int(value) + 1) & 0xFF
        with pytest.raises(CheckFailure):
            check_certificate(bad)

    def test_wrong_kind_for_verdict_rejected_in_store_audit(self, tmp_path):
        store_dir = tmp_path / "swap"
        solver = Solver(cache=SolverCache(str(store_dir)))
        _, u_digest = _check(solver, _unsat_query("swap_u"))
        _, s_digest = _check(solver, _sat_query("swap_s"))
        # Overwrite the unsat entry's certificate with the sat one.
        sat_cert = solver.cache.load_certificate(s_digest)
        with open(solver.cache._cert_path(u_digest), "w") as handle:
            json.dump(sat_cert, handle)
        summary = audit_store(str(store_dir))
        assert any(d == u_digest for d, _ in summary["failures"])


class TestStoreIntegration:
    def _populated_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        solver = Solver(cache=VerdictStore(store_dir))
        _check(solver, _unsat_query("st_u"))
        _check(solver, _sat_query("st_s"))
        return VerdictStore(store_dir)

    def test_verdict_store_shards_certificates(self, tmp_path):
        store = self._populated_store(tmp_path)
        for digest in store.digests():
            cert_file = store._cert_file(digest)
            assert cert_file is not None
            assert os.path.basename(os.path.dirname(cert_file)) == digest[:2]
            assert store.load_certificate(digest)["digest"] == digest

    def test_certless_legacy_entries_still_readable(self, tmp_path):
        """Entries written before certificates existed coexist with
        certified ones: lookups, summary, and the audit all tolerate
        the mix."""
        store = self._populated_store(tmp_path)
        legacy = f"{99:016x}"
        from repro.smt import UNSAT, CheckResult

        store.store(legacy, {}, CheckResult(UNSAT))
        assert store.lookup(legacy, {}) is not None
        assert store.load_certificate(legacy) is None
        summary = store.summary()
        assert summary["entries"] == 3
        assert summary["certificates"] == 2
        audit = audit_store(store.path)
        assert audit["missing"] == 1 and not audit["failures"]
        # ...unless the caller demands full coverage.
        strict = audit_store(store.path, require_certs=True)
        assert any(d == legacy for d, _ in strict["failures"])

    def test_export_import_round_trips_certificates(self, tmp_path):
        store = self._populated_store(tmp_path)
        archive = str(tmp_path / "verdicts.tar.gz")
        store.export_archive(archive)
        dest = VerdictStore(str(tmp_path / "dest"))
        imported = dest.import_archive(archive)
        assert imported == len(store.digests())
        for digest in store.digests():
            assert dest.load_certificate(digest) == store.load_certificate(digest)
        audit = audit_store(dest.path, require_certs=True)
        assert audit["checked"] == 2 and not audit["failures"]

    def test_gc_collects_certificates_with_entries(self, tmp_path):
        store = self._populated_store(tmp_path)
        removed = store.gc(keep=0)
        assert removed == 2
        for digest in [d for d in store.digests()]:
            pytest.fail(f"entry {digest} survived gc(keep=0)")
        audit = audit_store(store.path)
        assert audit["checked"] == 0 and audit["missing"] == 0

    def test_solver_cache_writes_the_sharded_layout(self, tmp_path):
        """A plain ``SolverCache`` writes the one layout the fleet reads:
        the store walks it and the audit checks it."""
        store_dir = str(tmp_path / "plain")
        _, digest = _check(Solver(cache=SolverCache(store_dir)), _unsat_query("lay_u"))
        shard = os.path.join(store_dir, digest[:2])
        assert sorted(os.listdir(shard)) == [f"{digest}.cert.json", f"{digest}.json"]
        assert VerdictStore(store_dir).digests() == [digest]
        audit = audit_store(store_dir, require_certs=True)
        assert audit["checked"] == 1 and not audit["failures"]

    def test_index_flags_certificates(self, tmp_path):
        store = self._populated_store(tmp_path)
        index = store.write_index()
        assert all(row["cert"] for row in index["rows"].values())


class TestCheckerCli:
    def test_store_mode_exit_codes(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cli")
        solver = Solver(cache=SolverCache(store_dir))
        _, digest = _check(solver, _unsat_query("cli_u"))
        assert checkproof_main(["--store", store_dir]) == 0
        # Single-bit tamper on disk -> nonzero exit.
        path = solver.cache._cert_path(digest)
        cert = json.load(open(path))
        cert["digest"] = ("0" if cert["digest"][0] != "0" else "1") + cert["digest"][1:]
        json.dump(cert, open(path, "w"))
        assert checkproof_main(["--store", store_dir]) == 1
        capsys.readouterr()

    def test_store_mode_fails_entries_that_are_not_verdicts(self, tmp_path, capsys):
        """An entry the solver would read as a miss fails the audit, with
        or without a certificate and with or without --require-certs."""
        store_dir = str(tmp_path / "junk")
        solver = Solver(cache=SolverCache(store_dir))
        _, digest = _check(solver, _unsat_query("junk_u"))
        # The certified entry flipped to a non-verdict, and two
        # certificate-less ones beside it.
        junk = {digest: {"status": "unknown"}, f"{1:016x}": ["unsat"], f"{2:016x}": {"status": "sat"}}
        for name, entry in junk.items():
            os.makedirs(os.path.join(store_dir, name[:2]), exist_ok=True)
            with open(os.path.join(store_dir, name[:2], f"{name}.json"), "w") as handle:
                json.dump(entry, handle)
        for strict in (False, True):
            summary = audit_store(store_dir, require_certs=strict)
            assert sorted(d for d, _ in summary["failures"]) == sorted(junk)
            assert all("not a verdict" in reason for _, reason in summary["failures"])
        assert checkproof_main(["--store", store_dir]) == 1
        capsys.readouterr()

    def test_file_mode_and_usage_errors(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cli2")
        solver = Solver(cache=SolverCache(store_dir))
        _, digest = _check(solver, _sat_query("cli_s"))
        path = solver.cache._cert_path(digest)
        assert checkproof_main([path]) == 0
        assert checkproof_main([str(tmp_path / "missing.cert.json")]) == 2
        with pytest.raises(SystemExit):
            checkproof_main([])
        capsys.readouterr()

    def test_checker_is_independent_of_the_solver_stack(self):
        """``import repro.smt.checkproof`` must not load any module of
        the solver package — the acceptance criterion that makes the
        checker a second implementation rather than a re-export."""
        code = (
            "import sys; import repro.smt.checkproof; "
            "bad = sorted(m for m in sys.modules "
            "     if m.startswith('repro.') and m not in "
            "     ('repro', 'repro.smt', 'repro.smt.checkproof')); "
            "sys.exit(1 if bad else 0)"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"checker dragged in solver modules: {proc.stderr}"


class TestReportTolerance:
    def test_report_renders_mixed_and_junk_schemas(self):
        from repro.obs.report import render_report

        # Certificates mentioned only partially, counters with a junk
        # value: the report must render, not crash.
        doc = {
            "wall_s": 1.25,
            "obligations": 3,
            "obs": {
                "counters": {"solver.certs": 2, "solver.cert_errors": 1, "weird": {"a": 1}},
                "obligations": [],
                "regions": [],
            },
            "store": {"entries": 3},  # no 'certificates' key: pre-cert store
        }
        text = render_report(doc)
        assert "certificates: 2 certificates emitted, 1 emission errors" in text
        assert "weird" in text

    def test_report_without_certs_has_no_cert_line(self):
        from repro.obs.report import render_report

        text = render_report({"obs": {"counters": {"sat.propagations": 5}}})
        assert "certificates:" not in text
