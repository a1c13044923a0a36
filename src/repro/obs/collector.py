"""Span/counter collection: the heart of ``repro.obs``.

One :class:`Collector` holds everything a tracing session records:

  * **spans** — named intervals with a category (the Figure-1 layer
    that emitted them: ``sym``, ``bitblast``, ``sat``, ``solver-cache``,
    ``scheduler``), a track id (``main`` or ``worker-N``), and a
    mutable ``args`` dict filled in as the span closes;
  * **counters** — monotonically accumulated integers
    (``sat.conflicts``, ``sym.terms``, ...).  Counters never include
    wall-clock quantities, so two runs of the same workload with the
    same seeds produce bit-identical counter maps — the property the
    CI determinism guard checks;
  * **regions** — the §3.2 symbolic profile: per :func:`region` name,
    its calls, the terms/merges/splits created inside it (deltas of
    the session's ``sym.*`` counters), the largest guarded union it
    merged, and its inclusive and exclusive time.

The module-level API (:func:`span`, :func:`region`, :func:`count`) is
the one the rest of the stack calls.  Its disabled fast path is a
single global load plus an ``is None`` test, returning a shared no-op
context manager — no allocation, no clock read — so instrumentation
can stay in hot paths permanently.

Timestamps are ``time.perf_counter()`` values.  On Linux that clock is
``CLOCK_MONOTONIC``, which is machine-wide, so spans recorded in
forked worker processes land on the same timeline as the parent's when
their snapshots are absorbed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
import os
import threading
import time

from .events import current_trace

__all__ = [
    "Collector",
    "HIST_BUCKETS",
    "Histogram",
    "SpanEvent",
    "count",
    "enabled",
    "event",
    "get_collector",
    "observe",
    "region",
    "span",
    "tracing",
]

# Spans beyond this are dropped (and counted) so a pathological run —
# e.g. a span per engine step over a huge binary — cannot exhaust
# memory; counters are unaffected by the cap.
MAX_SPANS = 200_000

# Events beyond this roll off the front of the ring; the record seq
# keeps increasing so ``GET /events?since=`` readers can detect loss.
MAX_EVENTS = 4096

# The shared latency bucket scheme: log-spaced upper bounds from 100 µs
# doubling up to ~839 s, plus an implicit +Inf overflow bucket.  Every
# process uses the *same* bounds, which is what makes histograms
# mergeable across workers and daemons by element-wise addition —
# the histogram analogue of the counter-merge contract.
HIST_BUCKETS: tuple[float, ...] = tuple(1e-4 * (2.0**i) for i in range(24))


class Histogram:
    """Fixed-bucket latency histogram, mergeable across processes.

    Observations land in log-spaced buckets (:data:`HIST_BUCKETS` by
    default); two histograms with the same bounds merge by adding
    bucket counts, so worker snapshots fold into the parent exactly
    like counters do.  ``sum``/``min``/``max`` ride along for exact
    aggregates; percentiles are estimated by linear interpolation
    within the winning bucket (the same estimate Prometheus's
    ``histogram_quantile`` makes from ``_bucket`` series).
    """

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = HIST_BUCKETS):
        self.bounds = tuple(bounds)
        # One slot per bound plus the +Inf overflow bucket.
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation (seconds)."""
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram | dict") -> None:
        """Fold another histogram (or its ``to_json`` dict) into this one."""
        if isinstance(other, dict):
            other = Histogram.from_json(other)
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bucket bounds")
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (``q`` in [0, 1]) from the buckets."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cum + n >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else (self.max or lo)
                hi = min(hi, self.max) if self.max is not None else hi
                lo = max(lo, self.min) if self.min is not None else lo
                if hi <= lo:
                    return hi
                frac = (target - cum) / n
                return lo + (hi - lo) * frac
            cum += n
        return self.max or 0.0

    def summary(self) -> dict:
        """Count/sum/min/max plus p50/p90/p99 estimates."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def to_json(self) -> dict:
        """Portable dict for result envelopes and ``/metrics`` JSON."""
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_json` output."""
        hist = cls(tuple(doc["bounds"]))
        hist.buckets = list(doc["buckets"])
        hist.count = doc["count"]
        hist.sum = doc["sum"]
        hist.min = doc.get("min")
        hist.max = doc.get("max")
        return hist

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.sum:.6f})"


class SpanEvent:
    """One closed span: ``[ts, ts + dur)`` on track ``tid``."""

    __slots__ = ("name", "cat", "tid", "ts", "dur", "args")

    def __init__(self, name: str, cat: str, tid: str, ts: float, dur: float, args: dict | None):
        self.name = name
        self.cat = cat
        self.tid = tid
        self.ts = ts
        self.dur = dur
        self.args = args

    def as_row(self) -> list:
        """Portable serialization (the worker->parent envelope format)."""
        return [self.name, self.cat, self.tid, self.ts, self.dur, self.args or None]

    def __repr__(self) -> str:
        return f"SpanEvent({self.cat}/{self.name} @{self.ts:.6f} +{self.dur * 1e3:.3f}ms)"


class _Span:
    """Live span handle; ``with`` yields the mutable args dict."""

    __slots__ = ("_col", "_name", "_cat", "_tid", "_args", "_start")

    def __init__(self, col: "Collector", name: str, cat: str, tid: str, args: dict):
        self._col = col
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args

    def __enter__(self) -> dict:
        self._start = time.perf_counter()
        return self._args

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        # Stamp the ambient correlation ids here (not in add_span) so
        # absorbed child rows keep the ids of the thread that recorded
        # them rather than being re-stamped with the parent's context.
        trace_id, ob_id = current_trace()
        if trace_id is not None:
            self._args.setdefault("trace_id", trace_id)
            if ob_id is not None:
                self._args.setdefault("ob_id", ob_id)
        self._col.add_span(
            self._name, self._cat, self._tid, self._start, end - self._start, self._args
        )
        return False


class _NullSpan:
    """Shared no-op context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Frames(threading.local):
    """Each thread's stack of open regions (the daemon's job threads
    share one collector, so a process-wide stack would interleave)."""

    def __init__(self):
        self.stack: list[_Region] = []


_frames = _Frames()


class _Region:
    """Live region handle: a ``sym`` span plus the region-table row.

    Term, merge and split counts are deltas of the session's ``sym.*``
    counters over the region's lifetime; nested regions are credited
    to every open ancestor, and a parent's exclusive time leaves out
    its children's inclusive time.
    """

    __slots__ = ("_col", "_name", "_span", "_args", "_start", "_base", "child_s", "max_union")

    def __init__(self, col: "Collector", name: str):
        self._col = col
        self._name = name

    def __enter__(self) -> None:
        counters = self._col.counters
        self._base = (
            counters.get("sym.terms", 0),
            counters.get("sym.merges", 0),
            counters.get("sym.splits", 0),
        )
        self.child_s = 0.0
        self.max_union = 0
        self._span = self._col.span(self._name, cat="sym")
        self._args = self._span.__enter__()
        _frames.stack.append(self)
        self._start = time.perf_counter()
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        incl = time.perf_counter() - self._start
        stack = _frames.stack
        stack.pop()
        if stack:
            stack[-1].child_s += incl
        col = self._col
        counters = col.counters
        terms0, merges0, splits0 = self._base
        terms = counters.get("sym.terms", 0) - terms0
        merges = counters.get("sym.merges", 0) - merges0
        splits = counters.get("sym.splits", 0) - splits0
        self._args.update(terms=terms, merges=merges, splits=splits)
        self._span.__exit__(exc_type, exc, tb)
        col.add_region(
            {
                "name": self._name,
                "calls": 1,
                "terms": terms,
                "merges": merges,
                "splits": splits,
                "max_union": self.max_union,
                "time_s": incl,
                "excl_s": incl - self.child_s,
            }
        )
        return False


class Collector:
    """Accumulates spans, counters, and region stats for one session."""

    def __init__(self, max_spans: int = MAX_SPANS, max_events: int = MAX_EVENTS):
        self.spans: list[SpanEvent] = []
        self.counters: dict[str, int] = {}
        self.regions: dict[str, dict] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events: deque[dict] = deque(maxlen=max_events)
        self.event_seq = 0
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.t0 = time.perf_counter()
        # absorb() may be driven from another thread than the one
        # recording spans; counter read-modify-writes need the lock.
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def span(self, name: str, cat: str = "app", tid: str = "main", **args) -> _Span:
        return _Span(self, name, cat, tid, args)

    def add_span(
        self, name: str, cat: str, tid: str, ts: float, dur: float, args: dict | None
    ) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        # Keep the args dict itself (even when still empty): callers
        # fill it in after the ``with`` block closes, and ``as_row``
        # drops it at serialization time if it stayed empty.
        self.spans.append(SpanEvent(name, cat, tid, ts, dur, args))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def add_region(self, row: dict) -> None:
        """Fold a region row into the row of the same name: counts and
        times add, ``max_union`` keeps the maximum."""
        with self._lock:
            mine = self.regions.get(row["name"])
            if mine is None:
                self.regions[row["name"]] = dict(row)
                return
            for key in ("calls", "terms", "merges", "splits", "time_s", "excl_s"):
                mine[key] += row[key]
            mine["max_union"] = max(mine["max_union"], row["max_union"])

    def observe(self, name: str, value: float) -> None:
        """Record a latency observation (seconds) into a named histogram."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def event(
        self,
        level: str,
        msg: str,
        trace_id: str | None = None,
        ob_id: str | None = None,
        **fields,
    ) -> dict:
        """Append a structured event record to the ring buffer.

        Records carry a monotonically increasing ``seq`` even as old
        entries roll off, so ``GET /events?since=`` readers can page
        and detect loss.  ``ts`` is wall-clock (``time.time()``): the
        log is for humans and cross-machine correlation, not for the
        perf_counter span timeline.
        """
        with self._lock:
            self.event_seq += 1
            record = {
                "seq": self.event_seq,
                "ts": time.time(),
                "level": level,
                "msg": msg,
                "trace_id": trace_id,
                "ob_id": ob_id,
            }
            if fields:
                record.update(fields)
            self.events.append(record)
            return record

    def events_since(self, since: int = 0, level: str | None = None) -> list[dict]:
        """Events with ``seq > since``, optionally at/above ``level``."""
        from .events import EVENT_LEVELS

        with self._lock:
            records = [e for e in self.events if e["seq"] > since]
        if level is not None and level in EVENT_LEVELS:
            floor = EVENT_LEVELS.index(level)
            records = [
                e
                for e in records
                if (EVENT_LEVELS.index(e["level"]) if e.get("level") in EVENT_LEVELS else 1)
                >= floor
            ]
        return records

    # -- merging ---------------------------------------------------------

    def absorb(self, snapshot: dict, tid: str | None = None) -> None:
        """Merge a serialized child snapshot (worker envelope or nested
        tracing block) into this collector.

        ``tid`` relabels the child's spans onto one track — the parent
        uses ``worker-N`` so a reassembled trace shows each worker as
        its own row.
        """
        for row in snapshot.get("spans", ()):
            name, cat, child_tid, ts, dur, args = row
            self.add_span(name, cat, tid or child_tid, ts, dur, args)
        self.dropped_spans += snapshot.get("dropped_spans", 0)
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self.counters[key] = self.counters.get(key, 0) + value
            for key, doc in snapshot.get("histograms", {}).items():
                hist = self.histograms.get(key)
                if hist is None:
                    self.histograms[key] = Histogram.from_json(doc)
                else:
                    hist.merge(doc)
        for row in snapshot.get("regions", {}).values():
            self.add_region(row)
        # Re-sequence child events onto this collector's ring so seq
        # stays monotonic for ``/events?since=`` readers.
        for child in snapshot.get("events", ()):
            with self._lock:
                self.event_seq += 1
                record = dict(child)
                record["seq"] = self.event_seq
                self.events.append(record)

    # -- serialization ---------------------------------------------------

    def snapshot(self) -> dict:
        """Portable dict of everything recorded (the result envelope)."""
        with self._lock:
            return {
                "t0": self.t0,
                "spans": [event.as_row() for event in self.spans],
                "dropped_spans": self.dropped_spans,
                "counters": dict(self.counters),
                "histograms": {name: h.to_json() for name, h in self.histograms.items()},
                "regions": {name: dict(stats) for name, stats in self.regions.items()},
                "events": [dict(e) for e in self.events],
            }

    def metrics(self) -> dict:
        """Counters, span and dropped-span counts, and histograms (as
        ``to_json`` dicts) in one locked read: what ``/metrics`` renders,
        without copying the span rows or the event ring."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "spans": len(self.spans),
                "dropped_spans": self.dropped_spans,
                "histograms": {name: h.to_json() for name, h in self.histograms.items()},
            }


# ---------------------------------------------------------------------------
# The process-global tracing stack

_stack: list[Collector] = []
_active: Collector | None = None


def enabled() -> bool:
    """True when a tracing session is active in this process."""
    return _active is not None


def get_collector() -> Collector | None:
    """The innermost active collector, or None."""
    return _active


def span(name: str, cat: str = "app", tid: str = "main", **args):
    """Record a span into the active collector; no-op when disabled.

    Yields the span's mutable ``args`` dict (or None when disabled), so
    instrumentation can attach results as the span closes::

        with obs.span("sat.solve", cat="sat") as sargs:
            status = sat.solve()
        if sargs is not None:
            sargs["status"] = status
    """
    col = _active
    if col is None:
        return _NULL_SPAN
    return col.span(name, cat=cat, tid=tid, **args)


def region(name: str):
    """Attribute the enclosed symbolic evaluation to the §3.2 region
    ``name``; no-op when disabled.

    Enabled, the region records a ``sym`` span (with its term, merge
    and split deltas as args) and folds its statistics into the
    collector's region table on exit.  Yields None either way.
    """
    col = _active
    if col is None:
        return _NULL_SPAN
    return _Region(col, name)


def count(name: str, n: int = 1) -> None:
    """Bump a counter in the active collector; no-op when disabled."""
    col = _active
    if col is not None:
        col.count(name, n)


def observe(name: str, value: float) -> None:
    """Record a latency observation into the active collector's
    histogram; no-op when disabled (same fast path as :func:`count`)."""
    col = _active
    if col is not None:
        col.observe(name, value)


def event(level: str, msg: str, **fields) -> None:
    """Emit a structured event into the active collector's ring.

    The ambient correlation ids (:func:`~repro.obs.events.current_trace`)
    are filled in unless the caller passes explicit ``trace_id``/``ob_id``
    keyword fields.  No-op when tracing is disabled.
    """
    col = _active
    if col is None:
        return
    if "trace_id" not in fields or "ob_id" not in fields:
        trace_id, ob_id = current_trace()
        fields.setdefault("trace_id", trace_id)
        fields.setdefault("ob_id", ob_id)
    col.event(level, msg, **fields)


class _Tracing:
    """Context manager entering/leaving a tracing session.

    Nesting is allowed: an inner session shadows the outer one (events
    go to the innermost collector only) and, with ``absorb=True`` (the
    default), folds its events into the outer collector on exit so the
    outer trace stays coherent.  Worker-side sessions use
    ``absorb=False`` and ship their snapshot through the result
    envelope instead.
    """

    def __init__(self, absorb: bool = True, collector: Collector | None = None):
        self._absorb = absorb
        self.collector = collector or Collector()

    def __enter__(self) -> Collector:
        global _active
        if not _stack:
            _set_sym_hooks(_count_term, _count_merge)
        _stack.append(self.collector)
        _active = self.collector
        return self.collector

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Remove this session, which need not be the innermost: the
        # daemon's may close inside a session opened after it.
        global _active
        at = len(_stack) - 1 - _stack[::-1].index(self.collector)
        del _stack[at]
        _active = _stack[-1] if _stack else None
        if not _stack:
            _set_sym_hooks(None, None)
        if self._absorb and at > 0:
            _stack[at - 1].absorb(self.collector.snapshot())
        return False


def tracing(absorb: bool = True, collector: Collector | None = None) -> _Tracing:
    """Start a tracing session: ``with tracing() as col: ...``."""
    return _Tracing(absorb=absorb, collector=collector)


# ---------------------------------------------------------------------------
# The sym.terms / sym.merges hooks: installed while any session is open,
# they count into the innermost one only (an inner session's counts reach
# the outer one once, when it is absorbed).


def _count_term(term) -> None:
    col = _active
    if col is not None:
        col.count("sym.terms")


def _count_merge(union_size: int) -> None:
    col = _active
    if col is not None:
        col.count("sym.merges")
        if union_size:
            for frame in _frames.stack:
                frame.max_union = max(frame.max_union, union_size)


def _set_sym_hooks(term_hook, merge_hook) -> None:
    """Imported lazily so ``repro.obs`` itself has no import-time
    dependency on the smt/sym layers (they import us)."""
    from ..smt.terms import manager
    from ..sym.merge import set_merge_hook

    manager.on_new_term = term_hook
    set_merge_hook(merge_hook)


def _reset_after_fork() -> None:
    """A forked child starts untraced: the parent's sessions, open
    regions and hooks would otherwise keep recording into a dead copy
    of the parent's collector."""
    global _active
    if _stack:
        _stack.clear()
        _active = None
        _set_sym_hooks(None, None)
    _frames.stack = []


os.register_at_fork(after_in_child=_reset_after_fork)
