"""Content-addressed verdict store shared across runs and machines.

The store's on-disk format belongs to ``repro.smt.SolverCache``: the
sharded ``<digest[:2]>/<digest>.json`` layout with each certificate
beside its entry, the one atomic write, and the one check that an entry
is a verdict.  This module adds the fleet operations over such a
directory (enumeration, an index file, a summary, garbage collection,
and portable export/import archives), making it the "remote/shared
solver cache" the ROADMAP calls for, in the shape *Divide, Conquer and
Verify* uses to memoize verified slices.

Because entries are keyed by the alpha-blind canonical digest of the
query DAG (``repro.smt.terms.canonicalize_query``), two machines that
verify the same monitor — or the same monitor under differently numbered
fresh constants — produce byte-compatible entries.  CI jobs therefore
hand verdicts to each other by exporting the store as an artifact and
importing it on the next job (see ``.github/workflows/ci.yml``).

Every write is atomic (tempfile + rename in the target directory), so
any number of worker processes and concurrent CI jobs can share a store
without locking; the worst race is two writers storing identical
entries.

Command-line interface::

    python -m repro.core.store stats  [--store DIR]
    python -m repro.core.store index  [--store DIR]
    python -m repro.core.store gc     [--store DIR] [--max-age-h H] [--keep N]
    python -m repro.core.store export ARCHIVE [--store DIR]
    python -m repro.core.store import ARCHIVE [--store DIR] [--wait]
    python -m repro.core.store serve  [--store DIR] [--host H] [--port P]
    python -m repro.core.store flush  [--store DIR] [--remote URL]

Bulk imports take an flock (``.import.lock``) so two concurrent
imports into one store cannot interleave their shard scans; a second
importer refuses with exit code 3 unless ``--wait`` is passed.

``serve`` exposes the store over HTTP (the object-store protocol in
``repro.core.remote``); ``flush`` synchronously pushes any write-back
spool left behind by an interrupted remote flush.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import tarfile
import time

try:
    import fcntl
except ImportError:  # non-POSIX: imports proceed unguarded
    fcntl = None

from ..smt.solver import SolverCache

__all__ = [
    "StoreLockedError",
    "VerdictStore",
    "DEFAULT_STORE_DIR",
    "open_store",
    "main",
]

DEFAULT_STORE_DIR = os.environ.get("REPRO_CACHE_DIR", ".solvercache")

# Entry files are named by hex digest; anything else in the tree is not
# a verdict (index, tempfiles) and is never exported or collected.
_DIGEST_RE = re.compile(r"^[0-9a-f]{16,64}$")
# The first "kind" field of a certificate's JSON.
_CERT_KIND_RE = re.compile(rb'"kind"\s*:\s*"(\w+)"')

INDEX_NAME = "index.json"
IMPORT_LOCK_NAME = ".import.lock"
# Write-back markers for the remote tier (repro.core.remote) live in
# their own subdirectory so store walks never mistake them for entries.
SPOOL_DIR_NAME = ".remote-spool"


class StoreLockedError(RuntimeError):
    """Another process holds the store's import lock."""


def _stat_or_none(fname: str):
    """``os.stat`` that treats a vanished file as absent.

    Store scans (index, summary, gc, export) run concurrently with
    writers and with gc in other processes, so any file listed a moment
    ago may already be gone; that is a skip, never an error.
    """
    try:
        return os.stat(fname)
    except OSError:
        return None


class VerdictStore(SolverCache):
    """The fleet operations over a :class:`~repro.smt.solver.SolverCache`
    directory.

    ``Solver`` talks to a store through the ``read_local``/
    ``read_through``/``store`` interface it already uses for
    ``SolverCache``, so every layer above
    the solver gains sharing for free.  Every entry and certificate
    path, and what counts as a verdict, is the base class's.
    """

    # -- enumeration ----------------------------------------------------

    def digests(self) -> list[str]:
        """Every digest with an entry file, sorted."""
        found: list[str] = []
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        for name in names:
            full = os.path.join(self.path, name)
            if len(name) != 2 or not os.path.isdir(full):
                continue
            try:
                shard = os.listdir(full)
            except OSError:
                continue  # shard removed mid-scan
            for fname in shard:
                stem, ext = os.path.splitext(fname)
                if ext == ".json" and _DIGEST_RE.match(stem):
                    found.append(stem)
        return sorted(found)

    # -- remote write-back spool -----------------------------------------

    @property
    def spool_dir(self) -> str:
        return os.path.join(self.path, SPOOL_DIR_NAME)

    def _spool_marker(self, digest: str) -> str:
        return os.path.join(self.spool_dir, f"{digest}.json")

    def spool_pending(self) -> list[str]:
        """Digests whose remote write-back has not completed, sorted.

        Each pending digest is a ``<digest>.json`` marker dropped by
        the remote tier at store time and removed after a successful
        flush — so anything here survived an interrupted flush (or a
        down remote) and still owes the fleet an upload.
        """
        try:
            names = os.listdir(self.spool_dir)
        except OSError:
            return []
        pending = []
        for name in names:
            stem, ext = os.path.splitext(name)
            if ext == ".json" and _DIGEST_RE.match(stem):
                pending.append(stem)
        return sorted(pending)

    # -- index ----------------------------------------------------------

    @property
    def index_path(self) -> str:
        return os.path.join(self.path, INDEX_NAME)

    def write_index(self) -> dict:
        """Rebuild ``index.json``: one row per entry (status, size, age).

        The index is advisory — lookups never consult it — but it makes
        a store self-describing for humans and for ``stats`` on stores
        too large to walk cheaply.  Written atomically like any entry;
        raises OSError when it cannot be written.
        """
        rows = {}
        for digest in self.digests():
            entry = self._read_entry(digest)
            st = _stat_or_none(self._entry_path(digest))
            if entry is None or st is None:
                continue
            rows[digest] = {
                "status": entry["status"],
                "bytes": st.st_size,
                "mtime": st.st_mtime,
                "cert": self._cert_file(digest) is not None,
            }
        index = {
            "version": 1,
            "entries": len(rows),
            "spool_pending": len(self.spool_pending()),
            "rows": rows,
        }
        if not self._atomic_write(self.index_path, json.dumps(index, indent=2).encode()):
            raise OSError(f"cannot write {self.index_path}")
        return index

    # -- stats / gc ------------------------------------------------------

    def summary(self) -> dict:
        """Counts by verdict, total bytes, entry and certificate counts.

        Mixed stores are the norm (entries written before certificates
        existed sit next to certified ones), so every per-entry field
        here is optional: a missing or unreadable certificate only
        decrements a count, it never aborts the walk.
        """
        by_status: dict[str, int] = {}
        total_bytes = 0
        count = 0
        certs = 0
        cert_bytes = 0
        for digest in self.digests():
            entry = self._read_entry(digest)
            if entry is None:
                continue
            count += 1
            by_status[entry["status"]] = by_status.get(entry["status"], 0) + 1
            st = _stat_or_none(self._entry_path(digest))
            if st is not None:
                total_bytes += st.st_size
            cert_file = self._cert_file(digest)
            cst = _stat_or_none(cert_file) if cert_file else None
            if cst is not None:
                certs += 1
                cert_bytes += cst.st_size
        return {
            "path": self.path,
            "entries": count,
            "bytes": total_bytes,
            "by_status": by_status,
            "certificates": certs,
            "cert_bytes": cert_bytes,
            # Interrupted remote flushes leave their write-back markers
            # behind; surfacing the backlog here (instead of silently
            # skipping the spool directory) is what lets operators see
            # verdicts that never reached the shared store.
            "spool_pending": len(self.spool_pending()),
        }

    def gc(self, max_age_s: float | None = None, keep: int | None = None) -> int:
        """Collect entries older than ``max_age_s`` and/or trim to the
        ``keep`` most recently touched.  Returns the number removed.

        Verdicts never go stale semantically (the digest pins the exact
        query), so GC is purely a size policy for long-lived shared
        stores.  An entry certified by a ``split`` certificate holds
        only through the pieces it names, and pieces are written before
        their whole, so collecting any of them collects the split entry
        too: a store gc leaves behind still passes the audit.
        """
        now = time.time()
        aged: list[tuple[float, str]] = []
        for digest in self.digests():
            st = _stat_or_none(self._entry_path(digest))
            if st is not None:
                aged.append((st.st_mtime, digest))
        aged.sort(reverse=True)  # newest first
        doomed: list[str] = []
        kept: list[str] = []
        for rank, (mtime, digest) in enumerate(aged):
            too_old = max_age_s is not None and (now - mtime) > max_age_s
            overflow = keep is not None and rank >= keep
            (doomed if too_old or overflow else kept).append(digest)
        if doomed:
            gone = set(doomed)
            doomed += [d for d in kept if gone.intersection(self._split_pieces(d))]
        for digest in doomed:
            # An orphan certificate has nothing to certify; drop it with
            # its entry (uncounted: the return value is entries).
            cert_file = self._cert_file(digest)
            if cert_file is not None:
                self._remove(cert_file)
            # Likewise its write-back marker: a collected entry can never
            # be flushed, so the marker would sit in the spool forever as
            # phantom backlog.
            self._remove(self._spool_marker(digest))
        return sum(self._remove(self._entry_path(digest)) for digest in doomed)

    def _split_pieces(self, digest: str) -> list:
        """The piece digests ``digest``'s ``split`` certificate names, or
        empty when its certificate is of another kind (or absent)."""
        # Most certificates are large clause proofs, and the store's own
        # name their kind in their first bytes: read whole only one
        # whose head says split, or names no kind.
        head = self.cert_head(digest)
        kind = None if head is None else _CERT_KIND_RE.search(head)
        if head is None or (kind is not None and kind.group(1) != b"split"):
            return []
        raw = self.cert_bytes(digest)
        if raw is None or b'"split"' not in raw:
            return []
        try:
            cert = json.loads(raw)
        except ValueError:
            return []
        if not isinstance(cert, dict) or cert.get("kind") != "split":
            return []
        pieces = cert.get("pieces")
        return [p for p in pieces if isinstance(p, str)] if isinstance(pieces, list) else []

    # -- export / import -------------------------------------------------

    def export_archive(self, archive_path: str) -> int:
        """Write every entry into a ``.tar.gz``; returns the entry count.

        The archive stores the sharded relative names
        (``ab/ab12....json``).  Certificates travel with their entries
        (``ab/ab12....cert.json[.gz]``) — an imported verdict stays
        independently checkable.
        """
        self.write_index()
        count = 0
        with tarfile.open(archive_path, "w:gz") as tar:
            for digest in self.digests():
                fname = self._entry_path(digest)
                try:
                    tar.add(fname, arcname=os.path.relpath(fname, self.path))
                except OSError:
                    continue  # entry gc'd mid-export
                count += 1
                cert_file = self._cert_file(digest)
                if cert_file is not None:
                    try:
                        tar.add(cert_file, arcname=os.path.relpath(cert_file, self.path))
                    except OSError:
                        pass  # cert gc'd mid-export; entry still valid
            tar.add(self.index_path, arcname=INDEX_NAME)
        return count

    @property
    def import_lock_path(self) -> str:
        return os.path.join(self.path, IMPORT_LOCK_NAME)

    @contextlib.contextmanager
    def import_lock(self, wait: bool = False):
        """Exclusive flock over bulk imports into this store.

        Entry writes are individually atomic, but a bulk import is a
        long sequence of shard writes: two concurrent imports interleave
        their existence probes and both report
        entries as "new", and a reader walking shards mid-import sees a
        half-merged store with a stale index.  The flock makes bulk
        imports mutually exclusive; with ``wait=False`` a held lock
        raises :class:`StoreLockedError` instead of blocking.  On
        platforms without ``fcntl`` the guard degrades to unlocked
        (single-user platforms; the CI fleet is POSIX).
        """
        if fcntl is None:
            yield
            return
        handle = open(self.import_lock_path, "a+")
        try:
            flags = fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB)
            try:
                fcntl.flock(handle, flags)
            except OSError:
                raise StoreLockedError(
                    f"another process is importing into {self.path} "
                    f"(lock: {self.import_lock_path}); retry or pass --wait"
                ) from None
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        finally:
            handle.close()

    def import_archive(self, archive_path: str, wait: bool = False) -> int:
        """Merge entries from an exported archive; returns how many were
        new.  Existing digests win (they are identical by construction);
        member names are validated so a hostile archive cannot escape
        the store directory.

        Holds the store's :meth:`import_lock` for the duration — a
        second importer either blocks (``wait=True``) or gets
        :class:`StoreLockedError` — so concurrent bulk imports cannot
        interleave their shard scans.
        """
        with self.import_lock(wait=wait):
            return self._import_archive_locked(archive_path)

    # (digest, suffix) parsers for archive member names.  Only these
    # shapes are ever extracted; anything else in a tarball is ignored.
    _MEMBER_SUFFIXES = (".cert.json.gz", ".cert.json", ".json")

    @classmethod
    def _parse_member(cls, name: str) -> tuple[str, str] | None:
        parts = name.split("/")
        if len(parts) != 2:
            return None
        for suffix in cls._MEMBER_SUFFIXES:
            if parts[1].endswith(suffix):
                digest = parts[1][: -len(suffix)]
                if _DIGEST_RE.match(digest) and parts[0] == digest[:2]:
                    return digest, suffix
                return None
        return None

    def _import_archive_locked(self, archive_path: str) -> int:
        imported = 0
        with tarfile.open(archive_path, "r:gz") as tar:
            for member in tar.getmembers():
                if not member.isfile():
                    continue
                parsed = self._parse_member(member.name)
                if parsed is None:
                    continue
                handle = tar.extractfile(member)
                if handle is None:
                    continue
                digest, suffix = parsed
                payload = handle.read()
                if suffix == ".json":
                    # put_entry adopts verdicts only.
                    imported += self.put_entry(digest, payload)
                    continue
                raw = self._cert_json(payload)
                if raw is None:
                    continue
                try:
                    json.loads(raw)
                except ValueError:
                    continue
                self.put_cert(digest, raw)
        return imported


# ---------------------------------------------------------------------------
# Factory


def open_store(path: str, remote_url: str | None = None) -> VerdictStore:
    """Open ``path`` as a verdict store, remote-tiered when configured.

    With ``remote_url`` (or ``REPRO_REMOTE_STORE`` in the environment)
    set, returns a :class:`~repro.core.remote.RemoteVerdictStore` whose
    lookups read through to the shared HTTP store and whose writes
    spool back to it; otherwise a plain local :class:`VerdictStore`.
    This is the one switch point the runner and serve daemon use, so
    every caller gains the remote tier from the environment alone.
    """
    from .remote import RemoteVerdictStore, remote_store_url

    url = remote_url if remote_url is not None else remote_store_url()
    if url:
        return RemoteVerdictStore(path, url)
    return VerdictStore(path)


# ---------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    """Entry point for ``python -m repro.core.store``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.store",
        description="Inspect and share a content-addressed verdict store.",
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE_DIR,
        help=f"store directory (default: $REPRO_CACHE_DIR or {DEFAULT_STORE_DIR})",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("stats", help="entry counts, bytes, verdict breakdown")
    sub.add_parser("index", help="rebuild index.json")
    gc_p = sub.add_parser("gc", help="collect old/overflow entries")
    gc_p.add_argument("--max-age-h", type=float, default=None, help="drop entries older than H hours")
    gc_p.add_argument("--keep", type=int, default=None, help="keep only the N newest entries")
    exp = sub.add_parser("export", help="write all entries to a .tar.gz archive")
    exp.add_argument("archive")
    imp = sub.add_parser("import", help="merge entries from an exported archive")
    imp.add_argument("archive")
    imp.add_argument(
        "--wait",
        action="store_true",
        help="block until a concurrent import releases the store lock "
        "(default: refuse with exit code 3)",
    )
    srv = sub.add_parser("serve", help="expose the store over HTTP")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0, help="0 picks a free port")
    srv.add_argument("--verbose", action="store_true", help="log every request")
    flush = sub.add_parser(
        "flush", help="synchronously push the remote write-back spool"
    )
    flush.add_argument(
        "--remote",
        default=None,
        help="store server URL (default: $REPRO_REMOTE_STORE)",
    )
    args = parser.parse_args(argv)

    store = VerdictStore(args.store)
    if args.cmd == "stats":
        print(json.dumps(store.summary(), indent=2))
    elif args.cmd == "index":
        index = store.write_index()
        print(f"indexed {index['entries']} entries -> {store.index_path}")
    elif args.cmd == "gc":
        if args.max_age_h is None and args.keep is None:
            print("gc: nothing to do (pass --max-age-h and/or --keep)")
            return 2
        max_age_s = args.max_age_h * 3600.0 if args.max_age_h is not None else None
        removed = store.gc(max_age_s=max_age_s, keep=args.keep)
        print(f"collected {removed} entries; {store.summary()['entries']} remain")
        _report_spool(store, "gc")
    elif args.cmd == "export":
        try:
            count = store.export_archive(args.archive)
        except OSError as exc:
            print(f"export: cannot write {args.archive}: {exc}", file=sys.stderr)
            return 1
        print(f"exported {count} entries -> {args.archive}")
        _report_spool(store, "export")
    elif args.cmd == "import":
        try:
            count = store.import_archive(args.archive, wait=args.wait)
        except StoreLockedError as exc:
            print(f"import: {exc}", file=sys.stderr)
            return 3
        except (OSError, tarfile.TarError) as exc:
            print(f"import: cannot read {args.archive}: {exc}", file=sys.stderr)
            return 1
        print(f"imported {count} new entries into {store.path}")
        _report_spool(store, "import")
    elif args.cmd == "serve":
        from .remote import StoreServer

        server = StoreServer(args.store, host=args.host, port=args.port, verbose=args.verbose)
        print(f"store serving on {server.url}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
    elif args.cmd == "flush":
        from .remote import RemoteVerdictStore, remote_store_url

        url = args.remote if args.remote is not None else remote_store_url()
        if not url:
            print(
                "flush: no remote configured (pass --remote or set "
                "REPRO_REMOTE_STORE)",
                file=sys.stderr,
            )
            return 2
        remote_store = RemoteVerdictStore(args.store, url, async_flush=False)
        outcome = remote_store.flush_spool()
        print(
            f"flushed {outcome['flushed']} spooled entries to {url}; "
            f"{outcome['pending']} pending, {outcome['errors']} errors"
        )
        if outcome["pending"]:
            return 1
    return 0


def _report_spool(store: VerdictStore, verb: str) -> None:
    """Surface any write-back backlog after a store-mutating walk, so an
    interrupted remote flush is visible instead of silently skipped."""
    pending = store.spool_pending()
    if pending:
        print(
            f"{verb}: {len(pending)} entries still spooled for remote "
            f"write-back (run `python -m repro.core.store flush` to push them)"
        )


if __name__ == "__main__":
    raise SystemExit(main())
