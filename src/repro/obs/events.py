"""Correlation IDs and the structured event log.

Every job submitted to the fleet gets a ``trace_id`` (16 hex chars)
and every obligation within it an ``ob_id`` (``<trace_id>.<index>``).
The pair travels with the work: ``serve.client`` sends it as an
``X-Repro-Trace`` header, the daemon binds it around the job thread,
the scheduler ships it inside worker envelopes, and the remote-store
client re-emits it on every HTTP request — so one obligation can be
followed from submit to solve to fetch across process boundaries.

The binding is a thread-local stack (:func:`trace_context`): code deep
in the solver never sees an explicit id, it just records spans and
events, and the collector stamps the ambient ids onto them.  Events
are leveled structured records (``ts``/``level``/``msg``/``trace_id``/
``ob_id`` plus free-form fields) ring-buffered by the collector and
served by the daemon at ``GET /events?since=<seq>``.
"""

from __future__ import annotations

import secrets
import threading

__all__ = [
    "EVENT_LEVELS",
    "TRACE_HEADER",
    "current_trace",
    "format_trace_header",
    "new_trace_id",
    "parse_trace_header",
    "trace_context",
]

# The HTTP header correlation ids travel in, end to end:
# client -> daemon -> (scheduler envelope) -> remote store.
TRACE_HEADER = "X-Repro-Trace"

# Severity order for ``GET /events?level=``-style filtering.
EVENT_LEVELS = ("debug", "info", "warn", "error")

_local = threading.local()


def new_trace_id() -> str:
    """A fresh 16-hex-char correlation id (64 bits of entropy)."""
    return secrets.token_hex(8)


def current_trace() -> tuple[str | None, str | None]:
    """The ``(trace_id, ob_id)`` bound to this thread, or ``(None, None)``."""
    stack = getattr(_local, "stack", None)
    if not stack:
        return (None, None)
    return stack[-1]


class _TraceContext:
    """Context manager binding ``(trace_id, ob_id)`` to the thread."""

    __slots__ = ("_ids",)

    def __init__(self, trace_id: str | None, ob_id: str | None):
        self._ids = (trace_id, ob_id)

    def __enter__(self) -> tuple[str | None, str | None]:
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        if self._ids[0] is None and stack:
            # Inherit the enclosing trace_id when only an ob_id is set.
            self._ids = (stack[-1][0], self._ids[1])
        stack.append(self._ids)
        return self._ids

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.stack.pop()
        return False


def trace_context(trace_id: str | None, ob_id: str | None = None) -> _TraceContext:
    """Bind a correlation id pair to the current thread::

        with trace_context(trace_id, ob_id):
            ...  # spans/events recorded here are stamped with the ids
    """
    return _TraceContext(trace_id, ob_id)


def format_trace_header(trace_id: str | None, ob_id: str | None = None) -> str | None:
    """Header value for the ids: ``<trace_id>`` or ``<trace_id>;<ob_id>``."""
    if trace_id is None:
        return None
    return trace_id if ob_id is None else f"{trace_id};{ob_id}"


def parse_trace_header(value: str | None) -> tuple[str | None, str | None]:
    """Inverse of :func:`format_trace_header`; tolerant of junk."""
    if not value:
        return (None, None)
    parts = value.strip().split(";", 1)
    trace_id = parts[0] or None
    ob_id = parts[1].strip() or None if len(parts) == 2 else None
    return (trace_id, ob_id)
