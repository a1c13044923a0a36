"""Solver frontend: assertions, check-sat, models.

This is the stack's substitute for Z3 (Figure 1, bottom box):
"constraint solving, counterexample generation".  Each ``check`` call
simplification-folds the assertion set (the term constructors already
did most of the work), bit-blasts it, and runs the CDCL core.

``SolverCache`` adds a persistent memo over the check-sat boundary:
queries are keyed by the canonical (alpha-renamed) digest of their
term DAG, so re-running a verification — or running an equivalent
obligation produced by a different harness — replays the verdict and
counterexample from disk instead of re-solving.

Checks are incremental: one long-lived arena solver plus
bit-blaster pair per process (the :class:`IncrementalSession`) absorbs
every query.  Tseitin definitions and Ackermann constraints blast once
per term node and stay loaded; each obligation is discharged under
assumptions (the query's root literals) with decisions restricted to
the query's variable *cone*, so learned clauses survive from one
obligation to the next.  A verdict does not depend on what the session
solved before, and every model satisfies its query
(``test_incremental_matches_fresh_on_random_queries`` in
``tests/test_incremental.py`` checks both).  Which model is found, and
how much search it takes, can: the learned clauses a session keeps and
the variable numbering of the gates it already blasted steer the next
search.  Why the verdicts are sound:

* permanent clauses are only Tseitin gate definitions, Ackermann
  consistency constraints, and learned clauses (pure resolution
  consequences of the former two — assumption literals are never
  resolved away, they surface as literals of the learned clause), so
  the clause database is satisfiable and semantically equivalent to
  "definitions + Ackermann" no matter how many queries it absorbed;
* every variable blasted for a node of the query's DAG is in the cone
  (the blaster records per-tid variable ranges), so when the cone is
  fully assigned and propagation is at fixpoint every definition
  clause of the query is checked — the cone assignment restricted to
  the query's own variables is a genuine model;
* any model of the query alone extends to a model of the whole
  database (other queries' inputs are free; pick uninterpreted
  function values consistently), so no resolution proof can refute a
  satisfiable query: UNSAT answers are never an artifact of sharing;
* a verdict-memo hit (see below) replays the verdict of a query with
  the same canonical digest, i.e. the same DAG up to variable names,
  solved earlier in the same session — exactly the trust a store hit
  already places in the digest — and its model is renamed to the
  hitting query's variables, so it satisfies that query; like every
  answer of a tier that is not durable, it carries no certificate.

A check is three public steps over one serialized node list:
:meth:`Solver.lookup` (the trivial-root check, canonicalize, then the
local entries of this solver's verdict tier), :meth:`Solver.read_through`
(after a local miss, what stands behind the tier, if anything) and
:meth:`Solver.solve` (blast, SAT, certificate, record).
:meth:`Solver.check` serializes its terms once and calls them in turn.
The runner (``repro.core.runner``) calls them directly on an
obligation's payload, so a hit builds no terms: the scheduler looks the
node list up as given where it hands the obligation out, and only a
miss reaches the executor, which reads through and then either answers
a goal ``not(and(c1..cn))`` with one piece obligation per distinct
conjunct or builds the terms and solves.  Each solve is one search.

Each step returns its answer, and the answer is all a check reports:
its ``stats`` say where it came from (``trivial``, ``memo_hit`` or
``cache_hit``, the ``digest`` of every non-trivial query, ``timed_out``,
``cert`` or ``cert_error``) and how long it took (``time_s``).  A spent
deadline is an answer too, ``unknown`` with ``timed_out``, as a spent
conflict budget is ``unknown``.  What a solve cost (the search
counters, CNF sizes, reused clauses, cone size) is recorded only inside
an ``obs.tracing()`` session, as the ``sat.*`` and ``bitblast.*``
counters and the args of the ``bitblast`` and ``sat.solve`` spans; a
:class:`Solver` keeps no state from one call to the next.

A solver's verdict tier (``Solver.cache``) is the store it was given
(a :class:`SolverCache`), or else the session's *verdict memo*
(``IncrementalSession.memo``, a :class:`VerdictMemo`), keyed by the
canonical digest the store uses and holding entries in the store's
format.  Both record SAT and UNSAT only: verdicts do not depend on the
budget, so a hit answers whatever the caller's ``max_conflicts`` or
``timeout_s``, while UNKNOWN and timeouts are never recorded.  What
differs between the two is declared once, as ``durable``: only a
durable tier (a store) gets certificates.  A cache-backed check never
consults the memo: the store stays its only verdict tier, so every
entry and certificate is still written.

This is the only solve path.  A check that must not see any earlier
query (a reference run, say) calls :func:`reset_incremental_session`
first: a session recycled after one query — memo included — behaves
exactly like a fresh solver.  Crash recovery uses the same call:
callers that catch a worker-level failure reset the session so a
possibly-inconsistent one is rebuilt rather than reused.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import time
import zlib

from ..obs import (
    count as obs_count,
    enabled as _obs_enabled,
    observe as obs_observe,
    span as obs_span,
)
from .bitblast import BitBlaster
from .model import Model
from .proof import (
    CertificateError,
    ProofLog,
    build_model_certificate,
    build_unsat_certificate,
    encode_certificate,
)
from .sat import SAT, UNKNOWN, UNSAT, ArenaSolver
from .sorts import BOOL
from .terms import Term, canonicalize_nodes, mk_true, serialize_terms

__all__ = [
    "Solver",
    "CheckResult",
    "SolverCache",
    "VerdictMemo",
    "IncrementalSession",
    "get_incremental_session",
    "reset_incremental_session",
    "SAT",
    "UNSAT",
    "UNKNOWN",
]


class IncrementalSession:
    """A long-lived solver + blaster pair shared by all checks in a
    process (one per scheduler worker, since workers are processes),
    plus the verdict memo of its cache-less checks."""

    def __init__(self) -> None:
        self.sat = ArenaSolver()
        # Attached before the first clause so input units are never
        # missed; must be present from session birth because any later
        # query's refutation may lean on clauses blasted now.
        self.sat.proof = ProofLog()
        self.blaster = BitBlaster(self.sat)
        self.memo = VerdictMemo()


_session: IncrementalSession | None = None

# Recycle the session once its solver holds this many variables, so a
# long-lived worker's clause database stays bounded.
_SESSION_MAX_VARS = 500_000


def get_incremental_session() -> IncrementalSession:
    """The process-wide session, created on first use and recycled when
    it outgrows ``_SESSION_MAX_VARS`` solver variables."""
    global _session
    if _session is not None and _session.sat.num_vars > _SESSION_MAX_VARS:
        _session = None
    if _session is None:
        _session = IncrementalSession()
    return _session


def reset_incremental_session() -> None:
    """Drop the process-wide session.

    Call after a crash mid-check (worker resilience handlers do): a
    half-blasted or interrupted session might hold inconsistent solver
    state, and rebuilding it only costs re-blasting on the next query.
    """
    global _session
    _session = None


def _walk_query(terms: list[Term]) -> tuple[set[int], set[str]]:
    """Collect every term id in the query DAG plus its variable names."""
    seen: set[int] = set()
    names: set[str] = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t.tid in seen:
            continue
        seen.add(t.tid)
        if t.op == "var":
            names.add(t.payload)
        stack.extend(t.args)
    return seen, names


# Per-solve search counters, recorded as ``sat.*`` counters.
_SEARCH_COUNTERS = (
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "learned_clauses",
    "conflict_literals",
)


class CheckResult:
    """Outcome of a satisfiability check."""

    def __init__(self, status: str, model: Model | None = None, stats: dict | None = None):
        self.status = status
        self.model = model
        self.stats = stats or {}

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    def __repr__(self) -> str:
        return f"CheckResult({self.status})"


class SolverCache:
    """The verdict store's on-disk format: a persistent memo of solver
    verdicts keyed by canonical digest.

    Layout: ``<path>/<digest[:2]>/<digest>.json`` holds the entry,
    ``{"status": "unsat"}`` or ``{"status": "sat", "model": {...}}``, and
    ``<digest>.cert.json`` beside it holds its certificate, gzipped as
    ``.cert.json.gz`` from ``CERT_GZIP_THRESHOLD`` bytes on.  Two-level
    sharding keeps directories small at fleet scale.  This class is the
    only code that builds those paths, gzips or un-gzips a certificate,
    or decides whether an entry is a verdict (:meth:`is_verdict`);
    :class:`repro.core.store.VerdictStore` adds the fleet operations.

    Every write goes through :meth:`_atomic_write` (tempfile + rename),
    so concurrent worker processes share a directory without locking:
    the worst race is two workers solving the same query and storing
    identical entries.  The solver's own writes (:meth:`store`,
    :meth:`store_certificate`) overwrite, so a re-solve repairs a bad
    entry; the byte writes that other machines' objects arrive through
    (:meth:`put_entry`, :meth:`put_cert`) are first-writer-wins, since
    the digest is the content address.

    Models are stored under canonical variable names (the alpha
    renaming from ``canonicalize_query``) and remapped to the hitting
    query's own variable names on load — this is what makes
    alpha-equivalent queries share counterexamples, not just verdicts.
    ``unknown`` verdicts are budget-dependent and are never cached, and
    a stored entry that is not a verdict reads as a miss, never a proof.

    As a verdict tier it is ``durable``: its answers outlive the process
    and travel between machines, so it gets a certificate for every
    verdict, and a pool worker's solve writes it directly.
    """

    # The tier's counters are ``solver.cache.*``.
    name = "cache"
    durable = True

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)

    # Certificates from this size on are gzipped (to about a third).
    # Compressing costs about as much CPU as encoding, on the solve
    # path, so the typical certificate (tens of KiB) stays plain and
    # only outsized ones pay for their disk.
    CERT_GZIP_THRESHOLD = 131072

    # -- layout ----------------------------------------------------------

    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.path, digest[:2], f"{digest}.json")

    def _cert_path(self, digest: str) -> str:
        """Base certificate path (without the optional ``.gz``)."""
        return os.path.join(self.path, digest[:2], f"{digest}.cert.json")

    def _cert_file(self, digest: str) -> str | None:
        """The certificate file on disk (plain or gzipped), or None."""
        base = self._cert_path(digest)
        for candidate in (base, base + ".gz"):
            if os.path.exists(candidate):
                return candidate
        return None

    @staticmethod
    def _atomic_write(target: str, data: bytes) -> bool:
        """Write ``data`` to ``target`` through a tempfile in the same
        directory and a rename, so readers see the old file or the new
        one, never a torn one.  False when the write failed; no tempfile
        is left behind."""
        directory = os.path.dirname(target)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except OSError:
            return False
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, target)
        except OSError:
            SolverCache._remove(tmp)
            return False
        return True

    @staticmethod
    def _remove(path: str) -> bool:
        """Unlink ``path``; False when it was already gone or stays."""
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    # -- the entry check -------------------------------------------------

    @staticmethod
    def is_verdict(entry) -> bool:
        """The one entry check: ``unsat``, or ``sat`` with a ``model``
        object of integer values.  Anything else (``unknown``, a
        model-less ``sat``, a non-object) is no verdict."""
        if not isinstance(entry, dict):
            return False
        if entry.get("status") == UNSAT:
            return True
        model = entry.get("model")
        return (
            entry.get("status") == SAT
            and isinstance(model, dict)
            and all(isinstance(value, int) for value in model.values())
        )

    @classmethod
    def _decode_entry(cls, raw: bytes) -> dict | None:
        """The verdict in an entry's bytes, or None for a torn write or
        an entry that is not a verdict (either is a miss)."""
        try:
            entry = json.loads(raw)
        except ValueError:
            return None
        return entry if cls.is_verdict(entry) else None

    # -- byte-level reads and first-writer-wins writes -------------------

    def entry_bytes(self, digest: str) -> bytes | None:
        """The stored entry's bytes, or None when there is none."""
        try:
            with open(self._entry_path(digest), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    @staticmethod
    def _cert_json(data: bytes) -> bytes | None:
        """A certificate's JSON from its stored bytes: a gzipped file or
        archive member starts with the gzip magic, which JSON text never
        does.  None when the compressed stream is corrupt."""
        if data[:2] != b"\x1f\x8b":
            return data
        try:
            return gzip.decompress(data)
        except (OSError, EOFError, zlib.error):
            return None

    def cert_bytes(self, digest: str) -> bytes | None:
        """The stored certificate's JSON bytes (un-gzipped), or None."""
        fname = self._cert_file(digest)
        if fname is None:
            return None
        try:
            with open(fname, "rb") as handle:
                return self._cert_json(handle.read())
        except OSError:
            return None  # removed since the probe (a concurrent gc)

    def cert_head(self, digest: str, size: int = 256) -> bytes | None:
        """The first ``size`` bytes of the stored certificate's JSON
        (un-gzipped), or None; reads no more of the file than that."""
        fname = self._cert_file(digest)
        if fname is None:
            return None
        try:
            with open(fname, "rb") as handle:
                if handle.read(2) != b"\x1f\x8b":
                    handle.seek(0)
                    return handle.read(size)
                handle.seek(0)
                with gzip.GzipFile(fileobj=handle) as unzipped:
                    return unzipped.read(size)
        except (OSError, EOFError, zlib.error):
            return None

    def put_entry(self, digest: str, raw: bytes) -> bool:
        """Write an entry from its JSON bytes unless one exists (first
        writer wins: the digest is the content address).  True when the
        entry was created; False when one existed, ``raw`` is not a
        verdict, or the write failed."""
        target = self._entry_path(digest)
        if os.path.exists(target) or self._decode_entry(raw) is None:
            return False
        return self._atomic_write(target, raw)

    def put_cert(self, digest: str, raw: bytes) -> bool:
        """Write a certificate from its JSON bytes unless one exists,
        like :meth:`put_entry`."""
        if self._cert_file(digest) is not None:
            return False
        return self._write_cert(digest, raw)

    def _write_cert(self, digest: str, raw: bytes) -> bool:
        base = self._cert_path(digest)
        target, stale = base, base + ".gz"
        if len(raw) >= self.CERT_GZIP_THRESHOLD:
            # Level 1: these documents are short-lived cache siblings,
            # and emission sits on the solve path — speed over ratio.
            raw = gzip.compress(raw, 1)
            target, stale = stale, target
        if not self._atomic_write(target, raw):
            return False
        # Two runs of the same digest may disagree on compression (the
        # certificate depends on the session's history); never leave
        # both variants.
        self._remove(stale)
        return True

    # -- the solver's interface ------------------------------------------

    def store_certificate(self, digest: str, cert: dict) -> bool:
        """Persist a certificate next to its verdict entry, replacing
        any earlier one."""
        return self._write_cert(digest, encode_certificate(cert))

    def load_certificate(self, digest: str) -> dict | None:
        """The stored certificate for ``digest``, or None (absent or
        corrupt — cert-less entries are a supported legacy state)."""
        raw = self.cert_bytes(digest)
        if raw is None:
            return None
        try:
            cert = json.loads(raw)
        except ValueError:
            return None
        return cert if isinstance(cert, dict) else None

    def _read_entry(self, digest: str) -> dict | None:
        """The stored verdict for ``digest``, or None when it is absent,
        torn, or not a verdict (a bad entry loses one memo, never
        decides one)."""
        raw = self.entry_bytes(digest)
        return None if raw is None else self._decode_entry(raw)

    def lookup(self, digest: str, var_map: dict[str, str]) -> "CheckResult | None":
        """Return the cached result for ``digest``, or None on a miss:
        this store's own entry, else what a tier behind it holds."""
        hit = self.read_local(digest, var_map)
        return hit if hit is not None else self.read_through(digest, var_map)

    def read_local(self, digest: str, var_map: dict[str, str]) -> "CheckResult | None":
        """This store's own entry for ``digest`` as a result, or None:
        a file read on this machine, never a network request."""
        with obs_span("cache.lookup", cat="solver-cache") as largs:
            entry = self._read_entry(digest)
        if largs is not None:
            largs["hit"] = entry is not None
        return None if entry is None else self._entry_to_result(entry, var_map)

    def read_through(self, digest: str, var_map: dict[str, str]) -> "CheckResult | None":
        """What a tier behind this store holds for a local miss, adopted
        here, or None.  A plain store has none; a
        :class:`repro.core.remote.RemoteVerdictStore` fetches from its
        remote and checks the certificate first."""
        return None

    @staticmethod
    def _entry_to_result(
        entry: dict, var_map: dict[str, str], hit: str = "cache_hit"
    ) -> "CheckResult":
        """Materialize a verdict entry as a :class:`CheckResult` for the
        hitting query: models come back from canonical variable names to
        the query's own names via ``var_map``.  Shared with the remote
        read-through tier, which adopts entries from other machines and
        must replay them identically, and with :class:`VerdictMemo`
        (``hit="memo_hit"``)."""
        stats = {hit: True, "time_s": 0.0}
        if entry["status"] == SAT:
            canon_to_name = {canon: name for name, canon in var_map.items()}
            values = {
                canon_to_name[canon]: value
                for canon, value in entry["model"].items()
                if canon in canon_to_name
            }
            return CheckResult(SAT, Model(values), stats=stats)
        return CheckResult(UNSAT, stats=stats)

    @staticmethod
    def _result_to_entry(result: "CheckResult", var_map: dict[str, str]) -> dict:
        """The entry :meth:`_entry_to_result` replays: the verdict, and
        for SAT the model under canonical variable names.  Callers
        record SAT and UNSAT results only."""
        entry: dict = {"status": result.status}
        if result.status == SAT:
            entry["model"] = {
                var_map[name]: value
                for name, value in result.model.items()
                if name in var_map
            }
        return entry

    def store(self, digest: str, var_map: dict[str, str], result: "CheckResult") -> bool:
        """Record a SAT or UNSAT verdict, replacing any earlier entry.
        True when an entry was written."""
        if result.status not in (SAT, UNSAT):
            return False
        entry = self._result_to_entry(result, var_map)
        return self._atomic_write(self._entry_path(digest), json.dumps(entry).encode())


class VerdictMemo(dict):
    """The session's verdict tier: canonical digest -> store-form entry
    (:meth:`SolverCache._result_to_entry`), in this process's memory.

    It answers the :class:`SolverCache` interface (``read_local``,
    ``read_through``, ``store``) and lives and dies with its
    :class:`IncrementalSession`.  It is not ``durable``: its answers
    carry no certificate, and without a store the dispatching process
    records the verdicts its pool workers return in its own memo.
    """

    # The tier's counters are ``solver.memo.*``.
    name = "memo"
    durable = False

    def read_local(self, digest: str, var_map: dict[str, str]) -> "CheckResult | None":
        """The memo's entry for ``digest`` as a ``memo_hit``, or None."""
        entry = self.get(digest)
        if entry is None:
            return None
        return SolverCache._entry_to_result(entry, var_map, hit="memo_hit")

    def read_through(self, digest: str, var_map: dict[str, str]) -> None:
        """Nothing stands behind the memo."""
        return None

    def store(self, digest: str, var_map: dict[str, str], result: "CheckResult") -> bool:
        """Record a SAT or UNSAT verdict; True when one was recorded."""
        if result.status not in (SAT, UNSAT):
            return False
        self[digest] = SolverCache._result_to_entry(result, var_map)
        return True


class Solver:
    """Assertion list plus check-sat.

    Each ``check`` discharges into the process-wide incremental session
    (see module docstring): the query's roots become assumption
    literals over a shared clause arena, so CNF for shared structure is
    emitted once and learned clauses survive across checks.  ``cache``
    is the verdict tier: a store memoizes verdicts across checks,
    processes and runs; without one, the session's verdict memo answers
    repeats of an alpha-equivalent query for as long as the session
    lives.

    A check is :meth:`lookup` then, on a miss, :meth:`read_through` and
    :meth:`solve`, over one serialized node list; a caller holding the
    list calls them itself.  Each returns its answer; the solver keeps
    nothing of one check for the next.
    """

    def __init__(
        self,
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
        cache: SolverCache | VerdictMemo | None = None,
    ):
        self._assertions: list[Term] = []
        self.max_conflicts = max_conflicts
        self.timeout_s = timeout_s
        self.cache = get_incremental_session().memo if cache is None else cache

    def add(self, *terms: Term) -> None:
        for t in terms:
            if t.sort is not BOOL:
                raise TypeError(f"assertion must be boolean, got {t.sort!r}")
            self._assertions.append(t)

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(self._assertions)

    def check(self, *extra: Term) -> CheckResult:
        """Check satisfiability of the asserted formulas plus ``extra``."""
        # A ``true`` assertion asserts nothing, and keys nothing.
        terms = [t for t in (*self._assertions, *extra) if t is not mk_true()]
        query = serialize_terms(terms)
        digest, var_map, hit = self.lookup(query)
        if hit is None:
            hit = self.read_through(digest, var_map)
        return hit if hit is not None else self.solve(query, digest, var_map, terms)

    def lookup(self, query: dict) -> tuple[str | None, dict[str, str], CheckResult | None]:
        """Look a serialized query up as given in the local entries of
        this solver's verdict tier: ``(digest, var_map, hit)``, ``hit``
        None on a miss.  A ``false`` root answers UNSAT and only
        ``true`` roots SAT (empty model), with no digest; any other
        query is canonicalized and read from the tier.  A miss is not
        final: :meth:`read_through` reads what stands behind the tier
        and counts the miss."""
        obs_count("solver.queries")
        # The roots' constant values, None for a root that is no constant.
        nodes = query["nodes"]
        consts = [nodes[r][3] if nodes[r][0] == "boolconst" else None for r in query["roots"]]
        if False in consts or all(consts):
            obs_count("solver.trivial")
            status, model = (UNSAT, None) if False in consts else (SAT, Model({}))
            return None, {}, CheckResult(status, model, stats={"trivial": True, "time_s": 0.0})

        with obs_span("canonicalize", cat="solver-cache") as cargs:
            digest, var_map = canonicalize_nodes(query)
        if cargs is not None:
            cargs["vars"] = len(var_map)
        hit = self.cache.read_local(digest, var_map)
        return digest, var_map, None if hit is None else self._hit(hit, digest)

    def read_through(self, digest: str, var_map: dict[str, str]) -> CheckResult | None:
        """Finish a lookup that missed the tier's local entries: read
        what stands behind the tier (a remote behind a store, whose
        entry is fetched and certificate-checked before it is adopted;
        nothing behind the memo), and count the hit or the miss.  None
        on a miss: the query is then solved."""
        hit = self.cache.read_through(digest, var_map)
        if hit is None:
            obs_count(f"solver.{self.cache.name}.misses")
            return None
        return self._hit(hit, digest)

    def _hit(self, hit: CheckResult, digest: str) -> CheckResult:
        obs_count(f"solver.{self.cache.name}.hits")
        hit.stats["digest"] = digest
        return hit

    def solve(
        self, query: dict, digest: str, var_map: dict[str, str], terms: list[Term]
    ) -> CheckResult:
        """Answer a query its lookup missed, given its roots as
        ``terms``: blast them into the shared session, solve under them
        as assumptions within their cone, certify the answer from
        ``query`` and record it in the tier.  The budget clock starts
        here; a spent deadline answers ``unknown`` with ``timed_out``."""
        start = time.perf_counter()
        try:
            return self._solve(query, digest, var_map, terms, start)
        except BaseException:
            # It may have interrupted the session mid mutation; rebuild
            # it on the next query.
            reset_incremental_session()
            raise

    def _emit_certificate(
        self, sat, blaster, terms, query, digest, var_map, status, model_values, assumptions
    ) -> str | None:
        """Assemble and store this query's certificate in a durable
        tier: ``"cert"`` when one was stored, ``"cert_error"`` when it
        could not be built, else None.  Must run while the solver still
        holds the answer's assignment — before any maintain()/backtrack."""
        if not self.cache.durable or status not in (SAT, UNSAT):
            return None
        # CPU time, not wall: with more workers than cores, wall inside
        # this window counts the *other* workers' preemption as cert cost.
        emit_start = time.process_time()
        try:
            with obs_span("cert.build", cat="solver-cache"):
                if status == UNSAT:
                    cert = build_unsat_certificate(sat, query, digest, var_map, assumptions)
                else:
                    cert = build_model_certificate(
                        sat, blaster, terms, query, digest, var_map, model_values
                    )
            self.cache.store_certificate(digest, cert)
            obs_count("solver.certs")
            # Emission seconds, accumulated as a float counter: the CI
            # overhead gate divides this by the same run's wall clock,
            # so it needs no second run and no wall differencing.
            obs_count("solver.cert_build_s", time.process_time() - emit_start)
            return "cert"
        except CertificateError:
            # A cert we cannot assemble must never turn a sound verdict
            # into a failure; the store audit surfaces the gap instead.
            obs_count("solver.cert_errors")
            return "cert_error"

    def _solve(self, query, digest, var_map, terms, start) -> CheckResult:
        """The body of :meth:`solve`."""
        session = get_incremental_session()
        sat, blaster = session.sat, session.blaster
        obs_count("sat.incremental_hits")

        tids, names = _walk_query(terms)
        traced = _obs_enabled()
        if traced:
            prior_tids = [
                tid for tid in tids if tid in blaster._bool_cache or tid in blaster._bv_cache
            ]
            emit_before = {label: tuple(cell) for label, cell in blaster.emitted.items()}
            vars_before = sat.num_vars
            clauses_before = sat.added_clauses
        with obs_span("bitblast", cat="bitblast") as bargs:
            # Roots become assumptions, not unit clauses: nothing this
            # query asserts outlives it in the shared clause database.
            roots = [blaster.bool_lit(t) for t in terms]
        blast_time = time.perf_counter() - start
        if traced:
            new_vars = sat.num_vars - vars_before
            new_clauses = sat.added_clauses - clauses_before
            reused_clauses = blaster.clauses_for(prior_tids)
            obs_count("sat.reused_clauses", reused_clauses)
            if bargs is not None:
                bargs.update(vars=new_vars, clauses=new_clauses, reused_clauses=reused_clauses)
            obs_count("bitblast.queries")
            obs_count("bitblast.vars", new_vars)
            obs_count("bitblast.clauses", new_clauses)
            for label, (aux_vars, clauses) in sorted(blaster.emitted.items()):
                prev = emit_before.get(label, (0, 0))
                d_vars, d_clauses = aux_vars - prev[0], clauses - prev[1]
                if d_vars or d_clauses:
                    obs_count(f"bitblast.aux_vars.{label}", d_vars)
                    obs_count(f"bitblast.clauses.{label}", d_clauses)

        cone = blaster.cone_vars(tids)
        sat_budget_s = None
        if self.timeout_s is not None:
            sat_budget_s = max(self.timeout_s - blast_time, 0.0)
        with obs_span("sat.solve", cat="sat") as sargs:
            status = sat.solve(
                roots,
                max_conflicts=self.max_conflicts,
                timeout_s=sat_budget_s,
                relevant=cone,
            )
        elapsed = time.perf_counter() - start
        obs_observe("bitblast.seconds", blast_time)
        obs_observe("sat.solve_seconds", max(0.0, elapsed - blast_time))
        if traced:
            sat_stats = sat.stats()
            if sargs is not None:
                sargs["status"] = status
                sargs.update(sat_stats)
                sargs["cone_vars"] = len(cone)
            for key in _SEARCH_COUNTERS:
                obs_count(f"sat.{key}", sat_stats[key])
        stats: dict = {"digest": digest, "time_s": elapsed}
        # Only an answer the core gave up on is a timeout: a verdict it
        # reached within its own clock stands, however long blasting took.
        if status == UNKNOWN and sat.timed_out:
            stats["timed_out"] = True
        model_values = blaster.extract_model(names) if status == SAT else None
        # Certificates read the live assignment (model bits) and the
        # root-level trail (unit justifications), so they must be built
        # before maintain() backtracks the session.
        cert = self._emit_certificate(
            sat, blaster, terms, query, digest, var_map, status, model_values, roots
        )
        if cert is not None:
            stats[cert] = True
        model = Model(model_values) if status == SAT else None
        result = CheckResult(status, model, stats=stats)
        # Between-query housekeeping, outside the solve: trim the
        # learned DB.  The clauses it keeps steer later searches (their
        # models and counters), never their verdicts.
        sat.maintain()
        self.cache.store(digest, var_map, result)
        return result


def check_sat(*terms: Term, max_conflicts: int | None = None) -> CheckResult:
    """One-shot satisfiability check of a conjunction of terms."""
    solver = Solver(max_conflicts=max_conflicts)
    solver.add(*terms)
    return solver.check()
