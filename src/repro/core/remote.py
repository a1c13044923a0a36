"""Distributed verdict store: HTTP object store + remote cache tier.

This module turns the content-addressed :class:`~repro.core.store.
VerdictStore` into a *networked* object store, so CI fleets and
developer machines converge on one global store instead of handing
tar.gz archives around:

  * :class:`StoreAPI` / :class:`StoreServer` — a stdlib-only HTTP
    server speaking the store's own sharded ``<digest[:2]>/<digest>.
    json`` (+ ``.cert.json[.gz]``) layout: ``GET/PUT/HEAD`` per digest,
    a batch ``POST /store/manifest`` endpoint, and ``ETag``-on-digest
    so writes are idempotent (the digest *is* the content address —
    a PUT of an existing digest is a no-op success, first writer wins,
    exactly like a local bulk import).  Served standalone via
    ``python -m repro.core.store serve`` or mounted into the
    verification daemon (``repro.serve``) under ``/store/``.
  * :class:`RemoteStoreClient` — a urllib wrapper that converts every
    network failure (refused, timeout, truncated body, 5xx) into one
    exception type, :class:`RemoteUnavailable`.
  * :class:`RemoteVerdictStore` — the read-through/write-back tier the
    solver cache actually talks to.  A local hit stays untouched; a
    local miss consults the remote, verifies the fetched certificate
    with the independent ``repro.smt.checkproof`` checker *before*
    adoption, and adopts the entry into the local store so the next
    process hits locally.
    Writes land locally first, then spool (``.remote-spool/`` marker
    files) and flush asynchronously with bounded retry/backoff.

Trust model: certificates are why a store populated by machines we do
not control can be adopted at all — a remotely fetched UNSAT verdict
must come with a RUP-checkable clause proof, or with a ``split``
certificate whose every piece is fetched and adopted under its own
clause proof, and a SAT verdict with a replayable model, all
digest-bound to the query (docs/CERTIFICATES.md).
A fetch whose certificate is missing, malformed, mismatched, or simply
wrong is *rejected* (counted as ``store.remote.rejected_certs``) and
the query is solved locally as if the remote had missed.

Failure model: the remote tier degrades, never breaks.  Every remote
operation is wrapped so :class:`RemoteUnavailable` is counted
(``store.remote.errors``) and absorbed — no network failure ever
surfaces inside a solve.  After a failure a per-process circuit
breaker skips the remote for ``REPRO_REMOTE_BACKOFF_S`` seconds so a
dead server costs one timeout, not one per query.

Knobs (read per call so tests can flip them):

  * ``REPRO_REMOTE_STORE``     — base URL; empty disables the tier.
  * ``REPRO_REMOTE_TIMEOUT_S`` — per-request timeout (default 5).
  * ``REPRO_REMOTE_BACKOFF_S`` — circuit-breaker cool-down after a
    network failure (default 30).
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import re
import socket
import threading
import time
import traceback
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs import count as obs_count, event as obs_event, observe as obs_observe
from ..obs.events import TRACE_HEADER, current_trace, format_trace_header, parse_trace_header
from .store import _DIGEST_RE, VerdictStore

__all__ = [
    "RemoteUnavailable",
    "RemoteStoreClient",
    "RemoteVerdictStore",
    "HTTPService",
    "RequestError",
    "RequestHandler",
    "StoreAPI",
    "StoreServer",
    "breaker_open",
    "json_reply",
    "read_body",
    "remote_store_url",
    "remote_timeout_s",
    "remote_backoff_s",
]


# ---------------------------------------------------------------------------
# Knobs


def remote_store_url() -> str:
    """Base URL of the remote store (``REPRO_REMOTE_STORE``), or ''."""
    return os.environ.get("REPRO_REMOTE_STORE", "").strip().rstrip("/")


def remote_timeout_s() -> float:
    """Per-request network timeout (``REPRO_REMOTE_TIMEOUT_S``, default 5)."""
    try:
        return float(os.environ.get("REPRO_REMOTE_TIMEOUT_S", "5"))
    except ValueError:
        return 5.0


def remote_backoff_s() -> float:
    """Circuit-breaker cool-down after a network failure
    (``REPRO_REMOTE_BACKOFF_S``, default 30)."""
    try:
        return float(os.environ.get("REPRO_REMOTE_BACKOFF_S", "30"))
    except ValueError:
        return 30.0


# ---------------------------------------------------------------------------
# Circuit breaker (per process, per URL)

_BREAKER_LOCK = threading.Lock()
_DOWN_UNTIL: dict[str, float] = {}


def _remote_down(url: str) -> bool:
    with _BREAKER_LOCK:
        return time.monotonic() < _DOWN_UNTIL.get(url, 0.0)


def _mark_remote_down(url: str) -> None:
    with _BREAKER_LOCK:
        _DOWN_UNTIL[url] = time.monotonic() + remote_backoff_s()


def _mark_remote_up(url: str) -> None:
    with _BREAKER_LOCK:
        _DOWN_UNTIL.pop(url, None)


def _reset_breakers() -> None:
    """Forget every open breaker (test isolation helper)."""
    with _BREAKER_LOCK:
        _DOWN_UNTIL.clear()


def breaker_open(url: str | None = None) -> bool:
    """Whether the circuit breaker is open for ``url`` (default: the
    configured remote).  The ``/metrics`` gauge for remote health."""
    target = url if url is not None else remote_store_url()
    if not target:
        return False
    return _remote_down(target.rstrip("/"))


# ---------------------------------------------------------------------------
# Client


class RemoteUnavailable(RuntimeError):
    """The remote store could not serve a request: connection refused,
    timeout, truncated reply, or a server-side error.  Callers on the
    solve path count it and degrade to local-only — it is never raised
    into a solve."""


# Everything urllib can throw for a dead/misbehaving peer.  OSError
# covers ConnectionError and socket-level failures; HTTPException
# covers truncated bodies (IncompleteRead) and protocol garbage.
_NETWORK_ERRORS = (
    urllib.error.URLError,
    http.client.HTTPException,
    socket.timeout,
    TimeoutError,
    OSError,
)


class RemoteStoreClient:
    """Stdlib HTTP client for the store protocol.

    One connection per call (like :class:`~repro.serve.client.
    ServeClient`), so instances are trivially thread- and fork-safe.
    All failures surface as :class:`RemoteUnavailable`; a 404 is a
    *miss*, returned as None — the one outcome that is not an error.
    """

    def __init__(self, base_url: str, timeout_s: float | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _timeout(self) -> float:
        return self.timeout_s if self.timeout_s is not None else remote_timeout_s()

    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        # Propagate the ambient correlation ids so the server's request
        # log can tie this fetch/flush back to the submitting job.
        trace_value = format_trace_header(*current_trace())
        if trace_value is not None:
            headers[TRACE_HEADER] = trace_value
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout()) as reply:
                return reply.status, reply.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return 404, b""
            raise RemoteUnavailable(f"{method} {path}: HTTP {exc.code}") from None
        except _NETWORK_ERRORS as exc:
            raise RemoteUnavailable(f"{method} {path}: {exc}") from None

    # -- entries ---------------------------------------------------------

    def head_entry(self, digest: str) -> bool:
        """Whether the remote holds an entry for ``digest``."""
        status, _ = self._request("HEAD", f"/store/{digest}")
        return status == 200

    def get_entry(self, digest: str) -> bytes | None:
        """Raw entry bytes for ``digest``, or None on a remote miss."""
        status, payload = self._request("GET", f"/store/{digest}")
        return payload if status == 200 else None

    def put_entry(self, digest: str, raw: bytes) -> bool:
        """Idempotent upload; True when the remote created the entry
        (False: it already held one — first writer wins)."""
        status, _ = self._request("PUT", f"/store/{digest}", raw)
        return status == 201

    # -- certificates ----------------------------------------------------

    def get_cert(self, digest: str) -> bytes | None:
        """Raw certificate JSON for ``digest``, or None if the remote
        has none (a legal legacy state)."""
        status, payload = self._request("GET", f"/store/{digest}/cert")
        return payload if status == 200 else None

    def put_cert(self, digest: str, raw: bytes) -> bool:
        """Idempotent certificate upload (same semantics as entries)."""
        status, _ = self._request("PUT", f"/store/{digest}/cert", raw)
        return status == 201

    # -- batch / monitoring ----------------------------------------------

    def manifest(self, digests: list[str]) -> dict:
        """Presence map for a batch of digests:
        ``{"entries": {digest: bool}, "certs": {digest: bool}}``."""
        body = json.dumps({"digests": list(digests)}).encode()
        status, payload = self._request("POST", "/store/manifest", body)
        if status != 200:
            raise RemoteUnavailable(f"manifest: HTTP {status}")
        try:
            return json.loads(payload)
        except ValueError as exc:
            raise RemoteUnavailable(f"manifest: corrupt reply: {exc}") from None

    def index(self) -> dict:
        """The remote's summary document (entry counts, bytes, spool)."""
        status, payload = self._request("GET", "/store/index")
        if status != 200:
            raise RemoteUnavailable(f"index: HTTP {status}")
        try:
            return json.loads(payload)
        except ValueError as exc:
            raise RemoteUnavailable(f"index: corrupt reply: {exc}") from None

    def healthz(self) -> dict:
        """Liveness document; raises :class:`RemoteUnavailable` when down."""
        status, payload = self._request("GET", "/store/healthz")
        if status != 200:
            raise RemoteUnavailable(f"healthz: HTTP {status}")
        try:
            return json.loads(payload)
        except ValueError as exc:
            raise RemoteUnavailable(f"healthz: corrupt reply: {exc}") from None


# ---------------------------------------------------------------------------
# Server-side protocol handler (shared by StoreServer and repro.serve)

_STORE_PATH = re.compile(r"^/([0-9a-f]{16,64})(/cert)?$")


def json_reply(status: int, doc, headers: dict | None = None):
    """A JSON reply in the ``(status, payload, content_type, headers)``
    shape every route of both HTTP servers returns."""
    return status, json.dumps(doc).encode(), "application/json", headers or {}


class StoreAPI:
    """Pure request handler over a :class:`VerdictStore`.

    Maps ``(method, path, body)`` to ``(status, payload, content_type,
    headers)`` with no HTTP plumbing of its own, so the standalone
    :class:`StoreServer` and the ``/store/`` mount inside the
    verification daemon serve byte-identical replies.

    Protocol (paths are absolute, ``/store``-prefixed)::

        GET  /store/healthz      liveness + entry/request counts
        GET  /store/index        summary (entries, bytes, spool backlog)
        POST /store/manifest     {"digests": [...]} -> presence map
        HEAD /store/<digest>     200/404, ETag: "<digest>"
        GET  /store/<digest>     raw entry JSON, ETag: "<digest>"
        PUT  /store/<digest>     idempotent write; 201 created / 200 held
        GET  /store/<digest>/cert   certificate JSON (gzip transparent)
        PUT  /store/<digest>/cert   idempotent certificate write

    Writes validate shape (entries must pass the store's verdict check,
    certificates be JSON objects) but do *not* re-check proofs —
    verification is the adopting client's job, which is what lets an
    untrusted server be useful at all.
    """

    MAX_BODY = 64 * 1024 * 1024

    def __init__(self, store: VerdictStore):
        self.store = store
        self.started_t = time.time()
        self._lock = threading.Lock()
        self.requests = 0
        self.gets = 0
        self.puts = 0
        self.put_conflicts = 0

    # -- plumbing --------------------------------------------------------

    def _error(self, status: int, message: str):
        return json_reply(status, {"error": message})

    def counters(self) -> dict:
        """Request counters for /metrics and healthz documents."""
        with self._lock:
            return {
                "requests": self.requests,
                "gets": self.gets,
                "puts": self.puts,
                "put_conflicts": self.put_conflicts,
            }

    # -- dispatch --------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: bytes | None,
        accept: str = "",
        trace: str | None = None,
    ):
        """Serve one request; returns ``(status, payload, content_type,
        headers)``.  Never raises — protocol errors become 4xx JSON.

        ``accept`` content-negotiates ``/metrics`` (Prometheus text vs
        JSON); ``trace`` is the raw ``X-Repro-Trace`` header, logged as
        a ``store.request`` event into the open tracing session (the
        daemon's, when the store is mounted there) so a store request
        can be correlated with the job that caused it.
        """
        with self._lock:
            self.requests += 1
        trace_id, ob_id = parse_trace_header(trace)
        obs_event(
            "debug",
            "store.request",
            trace_id=trace_id,
            ob_id=ob_id,
            method=method,
            path=path,
        )
        sub = path[len("/store"):] if path.startswith("/store") else path
        if method == "GET" and sub == "/metrics":
            return self._metrics(accept)
        if method == "GET" and sub in ("", "/", "/healthz"):
            return json_reply(
                200,
                {
                    "ok": True,
                    "uptime_s": time.time() - self.started_t,
                    "entries": len(self.store.digests()),
                    "spool_pending": len(self.store.spool_pending()),
                    **self.counters(),
                },
            )
        if method == "GET" and sub == "/index":
            doc = self.store.summary()
            doc["spool_pending"] = len(self.store.spool_pending())
            return json_reply(200, doc)
        if method == "POST" and sub == "/manifest":
            return self._manifest(body)
        match = _STORE_PATH.match(sub)
        if match is None:
            return self._error(404, f"no store route for {method} {path}")
        digest, is_cert = match.group(1), match.group(2) is not None
        if not _DIGEST_RE.match(digest):
            return self._error(404, f"malformed digest {digest!r}")
        if method in ("GET", "HEAD"):
            with self._lock:
                self.gets += 1
            payload = self.store.cert_bytes(digest) if is_cert else self.store.entry_bytes(digest)
            if payload is None:
                kind = "certificate" if is_cert else "entry"
                return self._error(404, f"no {kind} for {digest}")
            return 200, payload, "application/json", {"ETag": f'"{digest}"'}
        if method == "PUT":
            return self._put(digest, is_cert, body)
        return self._error(405, f"method {method} not supported on {path}")

    def _metrics(self, accept: str = ""):
        """Store-side metrics, JSON by default, Prometheus on request."""
        counters = {f"store.{name}": value for name, value in self.counters().items()}
        gauges = {
            "store.uptime_seconds": time.time() - self.started_t,
            "store.entries": len(self.store.digests()),
            "store.spool_pending": len(self.store.spool_pending()),
        }
        if "text/plain" in (accept or ""):
            from ..obs.prom import CONTENT_TYPE, render_prometheus

            text = render_prometheus(counters=counters, gauges=gauges)
            return 200, text.encode(), CONTENT_TYPE, {}
        return json_reply(200, {"counters": counters, "gauges": gauges})

    def _manifest(self, body: bytes | None):
        try:
            doc = json.loads(body or b"")
        except ValueError as exc:
            return self._error(400, f"invalid JSON body: {exc}")
        digests = doc.get("digests") if isinstance(doc, dict) else None
        if not isinstance(digests, list) or not all(
            isinstance(d, str) for d in digests
        ):
            return self._error(400, "body must be {'digests': [<hex>, ...]}")
        entries, certs = {}, {}
        for digest in digests:
            if not _DIGEST_RE.match(digest):
                entries[digest] = certs[digest] = False
                continue
            entries[digest] = os.path.exists(self.store._entry_path(digest))
            certs[digest] = self.store._cert_file(digest) is not None
        return json_reply(200, {"entries": entries, "certs": certs})

    def _put(self, digest: str, is_cert: bool, body: bytes | None):
        if body is None or not body:
            return self._error(400, "request body required")
        if len(body) > self.MAX_BODY:
            return self._error(413, "request body too large")
        try:
            doc = json.loads(body)
        except ValueError as exc:
            return self._error(400, f"invalid JSON body: {exc}")
        if not isinstance(doc, dict):
            return self._error(400, "payload must be a JSON object")
        if not is_cert and not self.store.is_verdict(doc):
            return self._error(400, "entry must be 'unsat', or 'sat' with an integer model")
        with self._lock:
            self.puts += 1
        if is_cert:
            created = self.store.put_cert(digest, body)
        else:
            created = self.store.put_entry(digest, body)
        if not created:
            # The digest is the content address: an existing object wins,
            # exactly like import_archive.  Idempotent success.
            with self._lock:
                self.put_conflicts += 1
        return json_reply(
            201 if created else 200,
            {"digest": digest, "stored": created},
            {"ETag": f'"{digest}"'},
        )


class RequestError(Exception):
    """A request a server rejects; ``code`` is the HTTP status to answer
    with."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def read_body(handler: BaseHTTPRequestHandler) -> bytes | None:
    """The body of ``handler``'s request, or None when it has none:
    :class:`RequestHandler` reads it before routing.  A
    ``Content-Length`` that is not a decimal count raises
    :class:`RequestError` 400, and one past :attr:`StoreAPI.MAX_BODY`
    413; either closes the connection, whose unread body would be read
    as the next request."""
    header = (handler.headers.get("Content-Length") or "0").strip()
    if not (header.isascii() and header.isdigit()):
        handler.close_connection = True
        raise RequestError(400, f"invalid Content-Length {header!r}")
    length = int(header)
    if length > StoreAPI.MAX_BODY:
        handler.close_connection = True
        raise RequestError(413, "request body too large")
    return handler.rfile.read(length) if length else None


class RequestHandler(BaseHTTPRequestHandler):
    """The request plumbing of both HTTP servers, the store server and
    the daemon.  Every request, whatever its method and route, goes the
    same way: the body is read first (:func:`read_body`), so none is
    left on a keep-alive connection; :meth:`route` maps it to a
    ``(status, payload, content_type, headers)`` reply; a
    :class:`RequestError` becomes its JSON error and any other
    exception a 500 JSON; and a HEAD reply carries the headers only."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.app.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def route(self, method: str, path: str, body: bytes | None):
        """The reply to one request, or None when the route has written
        its own (a test's fault hook).  ``path`` has no query string."""
        raise NotImplementedError

    def _respond(self, status, payload, ctype, headers, send_body=True):
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        if send_body and payload:
            try:
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-reply

    def _handle(self, method: str) -> None:
        try:
            body = read_body(self)
            reply = self.route(method, self.path.split("?", 1)[0], body)
        except RequestError as exc:
            reply = json_reply(exc.code, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - handler isolation boundary
            self.log_error("%s %s failed:\n%s", method, self.path, traceback.format_exc())
            reply = json_reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        if reply is not None:
            self._respond(*reply, send_body=(method != "HEAD"))

    def __getattr__(self, name: str):
        # The stdlib calls ``do_<METHOD>``; every method goes to
        # _handle, so an unrouted one gets a JSON error, not a 501 page.
        if name.startswith("do_"):
            return functools.partial(self._handle, name[3:])
        raise AttributeError(name)


class HTTPService:
    """One threaded HTTP listener whose requests ``handler`` (a
    :class:`RequestHandler`) serves, with ``self`` as its
    ``server.app``: the lifecycle of the store server and the daemon."""

    def __init__(self, handler: type, host: str, port: int, verbose: bool):
        self.verbose = verbose
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self
        self._serve_thread: threading.Thread | None = None
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        """Serve in a background thread (tests, embedded use)."""
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name=type(self).__name__, daemon=True
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entrypoints)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop listening (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)


class _StoreHandler(RequestHandler):
    server_version = "repro-store/1.0"

    def route(self, method, path, body):
        # Test harnesses (the fault-injection fixture) hang a hook off
        # the server to inject 500s, stalls, and truncated replies
        # without forking the protocol implementation.
        hook = self.server.fault_hook
        if hook is not None and hook(self, method, path, body):
            return None
        return self.server.app.api.handle(
            method,
            path,
            body,
            accept=self.headers.get("Accept", ""),
            trace=self.headers.get(TRACE_HEADER),
        )


class StoreServer(HTTPService):
    """Standalone HTTP object-store daemon over one local store
    directory (``python -m repro.core.store serve``).  It opens no
    tracing session: request events reach a session only if the
    embedding process has one open."""

    def __init__(
        self,
        store_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ):
        self.store = VerdictStore(store_dir)
        self.api = StoreAPI(self.store)
        super().__init__(_StoreHandler, host, port, verbose)
        self._httpd.fault_hook = None


# ---------------------------------------------------------------------------
# Write-back flusher (one daemon thread per (store, url) per process)


class _SpoolFlusher(threading.Thread):
    """Drains a store's write-back spool to the remote in the
    background.  Event-kicked after every local store(), with a slow
    poll as the safety net; respects the circuit breaker so a dead
    remote is probed once per cool-down, not once per verdict."""

    POLL_S = 2.0

    def __init__(self, path: str, url: str):
        super().__init__(name=f"remote-flush:{os.path.basename(path)}", daemon=True)
        self.path = path
        self.url = url
        self.wake = threading.Event()

    def run(self) -> None:
        store = RemoteVerdictStore(self.path, self.url, async_flush=False, _register=False)
        while True:
            self.wake.wait(self.POLL_S)
            self.wake.clear()
            if _remote_down(self.url):
                continue
            if store.spool_pending():
                store.flush_spool(max_attempts=3)


_FLUSHERS: dict[tuple[str, str], _SpoolFlusher] = {}
_FLUSHERS_LOCK = threading.Lock()
_FLUSHERS_PID = os.getpid()


def _kick_flusher(path: str, url: str) -> None:
    global _FLUSHERS_PID
    key = (os.path.abspath(path), url)
    with _FLUSHERS_LOCK:
        if os.getpid() != _FLUSHERS_PID:
            # Forked child: the parent's flusher threads did not survive
            # the fork, only the registry dict did.  Start over.
            _FLUSHERS.clear()
            _FLUSHERS_PID = os.getpid()
        flusher = _FLUSHERS.get(key)
        if flusher is None or not flusher.is_alive():
            flusher = _SpoolFlusher(key[0], url)
            _FLUSHERS[key] = flusher
            flusher.start()
    flusher.wake.set()


# ---------------------------------------------------------------------------
# The remote tier


_CERT_KINDS = {"unsat": ("drat", "split"), "sat": ("model",)}


def _cert_matches(digest: str, entry: dict, cert: dict) -> bool:
    """Whether ``cert`` is a valid certificate *for this digest and
    verdict*: digest-bound, of a kind the entry's status allows, and
    independently checkable (RUP replay, model replay, or for a
    ``split`` the derivation of every piece digest)."""
    from ..smt.checkproof import CheckFailure, check_certificate

    try:
        if cert.get("digest") != digest:
            return False
        if cert.get("kind") not in _CERT_KINDS.get(entry.get("status"), ()):
            return False
        check_certificate(cert)
    except CheckFailure:
        return False
    except Exception:  # noqa: BLE001 - hostile payloads crash arbitrarily
        return False
    return True


class RemoteVerdictStore(VerdictStore):
    """A :class:`VerdictStore` with a remote read-through/write-back
    tier.

    Lookups: local hit -> done (the remote is never consulted); local
    miss -> remote fetch, certificate verification, local adoption.
    Stores: local write first (the source of truth for this machine),
    then a spool marker that a background flusher pushes to the remote
    with bounded retry.  Every remote failure is counted and absorbed.

    Observability counters (all under ``store.remote.``): ``hits``,
    ``misses``, ``fetch_s``, ``flush_s``, ``rejected_certs``,
    ``errors``.
    """

    def __init__(
        self,
        path: str,
        url: str | None = None,
        timeout_s: float | None = None,
        client: RemoteStoreClient | None = None,
        async_flush: bool = True,
        _register: bool = True,
    ):
        super().__init__(path)
        self.remote_url = (url if url is not None else remote_store_url()).rstrip("/")
        self.async_flush = async_flush
        self._register = _register
        if client is not None:
            self.client = client
        elif self.remote_url:
            self.client = RemoteStoreClient(self.remote_url, timeout_s)
        else:
            self.client = None

    # -- read-through ----------------------------------------------------

    def lookup(self, digest: str, var_map: dict[str, str]):
        """Local entry, else remote fetch-verify-adopt, else miss."""
        entry = self._read_entry(digest)
        if entry is None and self.client is not None:
            entry = self._fetch_remote(digest)
        return None if entry is None else self._entry_to_result(entry, var_map)

    def _fetch(self, digest: str):
        """``(raw entry, entry, raw certificate, certificate)`` for
        ``digest`` from the remote, or None on a miss or a network
        failure (which opens the circuit breaker).  The certificate is
        None when absent or not a JSON object."""
        start = time.perf_counter()
        try:
            raw = self.client.get_entry(digest)
            if raw is None:
                obs_count("store.remote.misses")
                return None
            entry = self._decode_entry(raw)
            if entry is None:
                # A 200 with garbage is a server bug, not a miss.
                obs_count("store.remote.errors")
                return None
            cert_raw = self.client.get_cert(digest)
        except RemoteUnavailable as exc:
            obs_count("store.remote.errors")
            obs_event("warn", "store.fetch.failed", digest=digest, error=str(exc))
            _mark_remote_down(self.remote_url)
            return None
        finally:
            fetch_s = time.perf_counter() - start
            obs_count("store.remote.fetch_s", fetch_s)
            obs_observe("store.remote.fetch_seconds", fetch_s)
        cert = None
        if cert_raw is not None:
            try:
                cert = json.loads(cert_raw)
            except ValueError:
                cert = None
            if not isinstance(cert, dict):
                cert = None
        return raw, entry, cert_raw, cert

    def _fetch_remote(self, digest: str) -> dict | None:
        """Fetch ``digest`` from the remote and adopt it locally.

        Returns the entry dict on success, None on miss/rejection/
        failure.  Never raises: network trouble opens the circuit
        breaker and counts ``store.remote.errors``.  Only an entry whose
        certificate checks (:func:`_cert_matches`) is adopted.  An entry
        with a ``split`` certificate is adopted only together with every
        piece it names that this store lacks, each fetched and checked
        as an ``unsat`` entry with a ``drat`` certificate of its own;
        short of that nothing is adopted, which is a miss (a rejected
        one when a certificate failed its check)."""
        if _remote_down(self.remote_url):
            return None
        fetched = self._fetch(digest)
        if fetched is None:
            return None
        _raw, entry, _cert_raw, cert = fetched
        if cert is None or not _cert_matches(digest, entry, cert):
            # Unverifiable evidence: treat as a miss, solve locally.
            obs_count("store.remote.rejected_certs")
            return None
        adopt = [(digest, fetched)]
        # A checked split's pieces are the digests it derived.
        pieces = cert["pieces"] if cert["kind"] == "split" else []
        for piece in dict.fromkeys(pieces):
            local = self._read_entry(piece)
            if local is not None:
                if local["status"] != "unsat":
                    return None  # this store holds a model of the piece
                continue
            fetched = self._fetch(piece)
            if fetched is None:
                return None
            _raw, piece_entry, _cert_raw, piece_cert = fetched
            if (
                piece_cert is None
                or piece_entry["status"] != "unsat"
                or piece_cert.get("kind") != "drat"
                or not _cert_matches(piece, piece_entry, piece_cert)
            ):
                obs_count("store.remote.rejected_certs")
                return None
            adopt.append((piece, fetched))
        _mark_remote_up(self.remote_url)
        # Pieces first: a local reader never sees a split without them.
        for key, (raw, _entry, cert_raw, _cert) in reversed(adopt):
            self.put_entry(key, raw)
            self.put_cert(key, cert_raw)
        obs_count("store.remote.hits")
        return entry

    # -- write-back ------------------------------------------------------

    def store(self, digest: str, var_map: dict[str, str], result) -> bool:
        """Local write, then spool for asynchronous remote write-back."""
        written = super().store(digest, var_map, result)
        if written and self.client is not None:
            marker = json.dumps({"digest": digest}).encode()
            self._atomic_write(self._spool_marker(digest), marker)
            if self.async_flush:
                if self._register:
                    _kick_flusher(self.path, self.remote_url)
            elif not _remote_down(self.remote_url):
                self.flush_spool(max_attempts=1)
        return written

    def _flush_one(self, digest: str) -> None:
        """Push one spooled digest (entry, then certificate) and clear
        its marker.  Raises :class:`RemoteUnavailable` on network
        failure so the caller can back off."""
        raw = self.entry_bytes(digest)
        if raw is not None:
            self.client.put_entry(digest, raw)
            cert_raw = self.cert_bytes(digest)
            if cert_raw is not None:
                self.client.put_cert(digest, cert_raw)
        # With no entry (gc'd before the flush caught up) there is
        # nothing to push; either way the marker is done.
        self._remove(self._spool_marker(digest))

    def flush_spool(self, max_attempts: int = 3, backoff_s: float = 0.25) -> dict:
        """Synchronously push every pending spool marker.

        Retries the whole backlog up to ``max_attempts`` times with
        exponential backoff between rounds; returns ``{"flushed": n,
        "pending": m, "errors": k}``.  Used by the background flusher,
        the ``store flush`` CLI, and tests that need determinism.
        """
        flushed = errors = 0
        start = time.perf_counter()
        for attempt in range(max_attempts):
            pending = self.spool_pending()
            if not pending:
                break
            failed = False
            for digest in pending:
                try:
                    self._flush_one(digest)
                    flushed += 1
                except RemoteUnavailable:
                    errors += 1
                    obs_count("store.remote.errors")
                    _mark_remote_down(self.remote_url)
                    failed = True
                    break
            if not failed:
                break
            if attempt + 1 < max_attempts:
                time.sleep(backoff_s * (2**attempt))
        flush_s = time.perf_counter() - start
        obs_count("store.remote.flush_s", flush_s)
        obs_observe("store.remote.flush_seconds", flush_s)
        return {
            "flushed": flushed,
            "pending": len(self.spool_pending()),
            "errors": errors,
        }
