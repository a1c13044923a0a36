"""The content-addressed verdict store (``repro.core.store``).

Covers the properties CI's two-job pipeline leans on: entries survive
an export/import round-trip byte-for-byte, and concurrent writers of
the same digest never produce a torn entry (atomic rename).
"""

import io
import json
import multiprocessing
import os
import tarfile

import pytest

from repro.core.runner import Obligation, run_obligations
from repro.core.store import StoreLockedError, VerdictStore, main as store_main
from repro.smt import (
    SAT,
    UNSAT,
    CheckResult,
    Model,
    Solver,
    bv_sort,
    mk_bv,
    mk_bvand,
    mk_bvor,
    mk_eq,
    mk_ule,
    mk_ult,
    mk_var,
)
from repro.smt.checkproof import audit_store
from repro.sym import fresh_bv


def _digest(i: int) -> str:
    return f"{i:016x}"


def _populate(store: VerdictStore, count: int = 8) -> dict[str, dict]:
    """Store a mix of unsat and sat (with model) verdicts; return the
    expected raw entries keyed by digest."""
    expected = {}
    for i in range(count):
        digest = _digest(i)
        if i % 3 == 0:
            var_map = {f"x{i}": "c0"}
            result = CheckResult(SAT, Model({f"x{i}": i}))
            expected[digest] = {"status": "sat", "model": {"c0": i}}
        else:
            var_map = {}
            result = CheckResult(UNSAT)
            expected[digest] = {"status": "unsat"}
        store.store(digest, var_map, result)
    return expected


class TestExportImport:
    def test_round_trip(self, tmp_path):
        src = VerdictStore(str(tmp_path / "a"))
        expected = _populate(src)
        archive = str(tmp_path / "verdicts.tar.gz")
        assert src.export_archive(archive) == len(expected)

        dst = VerdictStore(str(tmp_path / "b"))
        assert dst.import_archive(archive) == len(expected)
        assert sorted(dst.digests()) == sorted(expected)
        for digest, entry in expected.items():
            assert dst._read_entry(digest) == entry
            # Sharded layout: <digest[:2]>/<digest>.json
            assert os.path.exists(
                os.path.join(dst.path, digest[:2], f"{digest}.json")
            )

    def test_import_skips_existing_entries(self, tmp_path):
        src = VerdictStore(str(tmp_path / "a"))
        expected = _populate(src)
        archive = str(tmp_path / "verdicts.tar.gz")
        src.export_archive(archive)

        dst = VerdictStore(str(tmp_path / "b"))
        first = list(expected)[0]
        local = {"status": "unsat", "local": True}
        os.makedirs(os.path.join(dst.path, first[:2]), exist_ok=True)
        with open(os.path.join(dst.path, first[:2], f"{first}.json"), "w") as handle:
            json.dump(local, handle)

        imported = dst.import_archive(archive)
        assert imported == len(expected) - 1
        assert dst._read_entry(first) == local  # not clobbered

    def test_summary_counts_by_status(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        expected = _populate(store)
        summary = store.summary()
        assert summary["entries"] == len(expected)
        sat = sum(1 for e in expected.values() if e["status"] == "sat")
        assert summary["by_status"] == {"sat": sat, "unsat": len(expected) - sat}


def _archive_of(path: str, entries: dict[str, bytes]) -> str:
    """An export-shaped archive holding ``entries`` (digest -> bytes)."""
    with tarfile.open(path, "w:gz") as tar:
        for digest, raw in entries.items():
            member = tarfile.TarInfo(f"{digest[:2]}/{digest}.json")
            member.size = len(raw)
            tar.addfile(member, io.BytesIO(raw))
    return path


class TestNotAVerdict:
    """A stored entry that is not a verdict is a miss, never a proof:
    import refuses it, and one planted on disk reads as a miss."""

    def test_imported_unknown_entry_never_proves_a_false_obligation(self, tmp_path):
        x = fresh_bv("nav.x", 8)
        obligation = Obligation.from_terms("x is 7", [(x == 7).term])
        # The obligation's digest, from a solve into a scratch store.
        scratch = str(tmp_path / "scratch")
        [result], _ = run_obligations([obligation], jobs=1, cache_dir=scratch)
        assert result.status == "failed"
        digest = result.stats["digest"]

        archive = _archive_of(
            str(tmp_path / "junk.tar.gz"), {digest: json.dumps({"status": "unknown"}).encode()}
        )
        store = VerdictStore(str(tmp_path / "store"))
        imported = store.import_archive(archive)
        [result], stats = run_obligations([obligation], jobs=1, cache_dir=store.path)
        assert result.status == "failed"
        assert stats.cache_hits == 0
        assert imported == 0

    def test_model_less_sat_entry_is_re_solved(self, tmp_path):
        x = mk_var("nav_sat_x", bv_sort(8))
        query = mk_eq(x, mk_bv(7, 8))
        digest = Solver(cache=VerdictStore(str(tmp_path / "scratch"))).check(query).stats["digest"]
        junk = json.dumps({"status": "sat"}).encode()

        store = VerdictStore(str(tmp_path / "store"))
        imported = store.import_archive(_archive_of(str(tmp_path / "junk.tar.gz"), {digest: junk}))
        result = Solver(cache=store).check(query)
        assert result.is_sat and result.model["nav_sat_x"] == 7
        assert imported == 0
        # Planted past the import, the entry still reads as a miss, and
        # the re-solve overwrites it with the real verdict.
        with open(os.path.join(store.path, digest[:2], f"{digest}.json"), "wb") as handle:
            handle.write(junk)
        solver = Solver(cache=store)
        result = solver.check(query)
        assert result.is_sat and result.model["nav_sat_x"] == 7
        assert not solver.last_stats.get("cache_hit")
        assert store._read_entry(digest) == {"status": "sat", "model": {"v0": 7}}


DIGEST = "ab" + "0" * 14


def _hammer(path: str, worker: int, rounds: int) -> None:
    """Write the same digest over and over with a worker-specific model."""
    store = VerdictStore(path)
    for i in range(rounds):
        result = CheckResult(SAT, Model({"x": worker * 10_000 + i}))
        store.store(DIGEST, {"x": "c0"}, result)


class TestConcurrentWriters:
    def test_two_processes_same_digest_never_torn(self, tmp_path):
        """Two processes repeatedly storing the same digest while the
        parent reads: every observed entry is complete, valid JSON from
        one writer or the other (atomic rename, no locking)."""
        path = str(tmp_path / "shared")
        reader = VerdictStore(path)
        ctx = multiprocessing.get_context("fork")
        rounds = 200
        procs = [
            ctx.Process(target=_hammer, args=(path, worker, rounds))
            for worker in (1, 2)
        ]
        for p in procs:
            p.start()
        observed = 0
        try:
            while any(p.is_alive() for p in procs):
                entry = reader._read_entry(DIGEST)
                if entry is not None:
                    # A torn write would fail json parsing inside
                    # _read_entry (returning None is only legal before
                    # the first write completes) or produce a value no
                    # writer stored.
                    assert entry["status"] == "sat"
                    value = entry["model"]["c0"]
                    assert value in range(10_000, 10_000 + rounds) or value in range(
                        20_000, 20_000 + rounds
                    )
                    observed += 1
        finally:
            for p in procs:
                p.join(timeout=30)
        assert all(p.exitcode == 0 for p in procs)
        assert observed > 0
        final = reader._read_entry(DIGEST)
        assert final["status"] == "sat"
        # Exactly one file, in the sharded location, no leftover temps.
        shard = os.path.join(path, DIGEST[:2])
        assert os.listdir(shard) == [f"{DIGEST}.json"]
        assert not [f for f in os.listdir(path) if f.endswith(".tmp")]


class TestImportLock:
    """Bulk imports are mutually exclusive via an advisory flock, so two
    concurrent ``store import`` processes cannot interleave their shard
    scans (flock conflicts across file descriptors, so a second handle
    in this process stands in for a second process)."""

    @pytest.fixture(autouse=True)
    def _needs_flock(self):
        pytest.importorskip("fcntl")

    def _archive(self, tmp_path):
        src = VerdictStore(str(tmp_path / "src"))
        expected = _populate(src)
        archive = str(tmp_path / "verdicts.tar.gz")
        src.export_archive(archive)
        return archive, expected

    def test_concurrent_import_refused_without_wait(self, tmp_path):
        archive, expected = self._archive(tmp_path)
        dst = VerdictStore(str(tmp_path / "dst"))
        holder = VerdictStore(dst.path)
        with holder.import_lock():
            with pytest.raises(StoreLockedError, match="retry or pass --wait"):
                dst.import_archive(archive)
        # Lock released: the retry goes through, nothing was half-merged.
        assert dst.import_archive(archive) == len(expected)
        assert sorted(dst.digests()) == sorted(expected)

    def test_wait_blocks_until_released(self, tmp_path):
        archive, expected = self._archive(tmp_path)
        dst = VerdictStore(str(tmp_path / "dst"))
        # No competing holder: wait=True acquires immediately.
        assert dst.import_archive(archive, wait=True) == len(expected)

    def test_cli_import_exits_3_when_locked(self, tmp_path, capsys):
        archive, expected = self._archive(tmp_path)
        dst = VerdictStore(str(tmp_path / "dst"))
        holder = VerdictStore(dst.path)
        with holder.import_lock():
            assert store_main(["--store", dst.path, "import", archive]) == 3
        assert "retry or pass --wait" in capsys.readouterr().err
        assert store_main(["--store", dst.path, "import", archive]) == 0
        assert sorted(dst.digests()) == sorted(expected)


class TestSpoolReporting:
    """Remote write-back markers (``.remote-spool/``) are surfaced by
    every maintenance walk, never silently skipped."""

    def _store_with_spool(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        expected = _populate(store)
        os.makedirs(store.spool_dir, exist_ok=True)
        spooled = list(expected)[:2]
        for digest in spooled:
            with open(os.path.join(store.spool_dir, f"{digest}.json"), "w") as handle:
                json.dump({"digest": digest}, handle)
        # Junk in the spool directory is not a pending flush.
        with open(os.path.join(store.spool_dir, "noise.tmp"), "w") as handle:
            handle.write("x")
        return store, expected, spooled

    def test_summary_and_index_count_pending(self, tmp_path):
        store, expected, spooled = self._store_with_spool(tmp_path)
        assert store.spool_pending() == sorted(spooled)
        assert store.summary()["spool_pending"] == len(spooled)
        assert store.write_index()["spool_pending"] == len(spooled)
        assert store.summary()["entries"] == len(expected)  # markers not entries

    def test_gc_drops_markers_with_their_entries(self, tmp_path):
        store, expected, spooled = self._store_with_spool(tmp_path)
        assert store.gc(keep=0) == len(expected)
        # A collected entry can never be flushed: its marker went too.
        assert store.spool_pending() == []

    def test_export_leaves_spool_out_of_the_archive(self, tmp_path):
        store, expected, spooled = self._store_with_spool(tmp_path)
        archive = str(tmp_path / "out.tar.gz")
        assert store.export_archive(archive) == len(expected)
        dst = VerdictStore(str(tmp_path / "dst"))
        assert dst.import_archive(archive) == len(expected)
        # Pending flushes are a per-machine obligation, not payload.
        assert dst.spool_pending() == []

    def test_cli_reports_backlog(self, tmp_path, capsys):
        store, expected, spooled = self._store_with_spool(tmp_path)
        archive = str(tmp_path / "out.tar.gz")
        assert store_main(["--store", store.path, "export", archive]) == 0
        assert "2 entries still spooled for remote write-back" in capsys.readouterr().out
        stats = store_main(["--store", store.path, "stats"])
        assert stats == 0
        assert json.loads(capsys.readouterr().out)["spool_pending"] == 2


class TestSplitGc:
    """A ``split`` entry holds only through its pieces, which are written
    before it: gc never keeps the split and drops a piece."""

    @pytest.fixture
    def split_store(self, tmp_path):
        x, y = mk_var("gc_x", bv_sort(8)), mk_var("gc_y", bv_sort(8))
        goals = [mk_ule(mk_bvand(x, y), x), mk_ule(x, mk_bvor(x, y)), mk_ule(mk_bvand(y, x), y)]
        ob = Obligation.from_terms("gc", goals, [mk_ult(x, mk_bv(9, 8))])
        path = str(tmp_path / "store")
        [result], _ = run_obligations([ob], jobs=1, cache_dir=path)
        assert result.proved and result.stats["pieces"] == 3
        store = VerdictStore(path)
        whole = result.stats["digest"]
        pieces = [d for d in store.digests() if d != whole]
        # Pieces first, the whole last, a second apart: gc's newest-first
        # ranking must not depend on timestamp resolution.
        for age, digest in enumerate(reversed(pieces + [whole])):
            stamp = 1_000_000 - age
            os.utime(store._entry_path(digest), (stamp, stamp))
        return store, whole, pieces

    def test_keep_one_collects_the_split_with_its_pieces(self, split_store):
        store, whole, pieces = split_store
        assert store.gc(keep=1) == 4
        assert store.digests() == []
        assert audit_store(store.path, require_certs=True)["failures"] == []

    def test_keep_as_many_as_pieces_strands_nothing(self, split_store):
        store, whole, pieces = split_store
        assert store.gc(keep=len(pieces)) == 2
        assert whole not in store.digests() and len(store.digests()) == 2
        assert audit_store(store.path, require_certs=True)["failures"] == []

    def test_gc_reads_whole_only_split_certificates(self, split_store, monkeypatch):
        store, whole, pieces = split_store
        read = []
        cert_bytes = store.cert_bytes
        monkeypatch.setattr(store, "cert_bytes", lambda digest: read.append(digest) or cert_bytes(digest))
        assert store.gc(keep=len(pieces)) == 2
        assert read == [whole]

    def test_certificate_head_unzips(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        digest = "ab" * 32
        cert = {"format": "repro-cert", "kind": "drat", "pad": "y" * store.CERT_GZIP_THRESHOLD}
        assert store.store_certificate(digest, cert)
        assert store._cert_file(digest).endswith(".gz")
        assert store.cert_head(digest, 40) == store.cert_bytes(digest)[:40]
        assert store.cert_head(digest, 40).startswith(b'{"format":"repro-cert","kind":"drat"')


class TestVanishTolerance:
    """Maintenance walks must tolerate entries vanishing mid-scan (a
    concurrent gc or importer): skip, never raise."""

    def _store_with_ghost(self, tmp_path, monkeypatch):
        store = VerdictStore(str(tmp_path / "s"))
        expected = _populate(store)
        ghost = "ff" * 8
        real_digests = list(expected)
        monkeypatch.setattr(store, "digests", lambda: real_digests + [ghost])
        return store, expected

    def test_summary_skips_vanished_entries(self, tmp_path, monkeypatch):
        store, expected = self._store_with_ghost(tmp_path, monkeypatch)
        summary = store.summary()
        assert summary["entries"] == len(expected)

    def test_write_index_skips_vanished_entries(self, tmp_path, monkeypatch):
        store, expected = self._store_with_ghost(tmp_path, monkeypatch)
        index = store.write_index()
        assert index["entries"] == len(expected)
        assert sorted(index["rows"]) == sorted(expected)

    def test_export_and_gc_skip_vanished_entries(self, tmp_path, monkeypatch):
        store, expected = self._store_with_ghost(tmp_path, monkeypatch)
        archive = str(tmp_path / "out.tar.gz")
        assert store.export_archive(archive) == len(expected)
        assert store.gc(keep=len(expected)) == 0
