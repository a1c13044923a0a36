"""``repro.obs`` — unified tracing and metrics for the whole stack.

Every layer of the Figure-1 stack reports here: symbolic evaluation
(``sym`` regions), bit-blasting (``bitblast``), the CDCL core
(``sat``), the verdict cache (``solver-cache``), and the
obligation scheduler (``scheduler``, one span per proof-obligation
timeline).  The paper's workflow is profile-then-optimize (§3.2); this
package is its only instrumentation model.  The symbolic profile is
the session's region table: every ``region(name)`` block charges its
calls, terms, merges, path splits, largest guarded union and time to
a row, whether it ran in this process or in a scheduler worker —
workers serialize their spans, counter deltas and region rows into
the result envelope, and the parent reassembles one coherent trace
per ``run_obligations`` call.

Usage::

    from repro import obs

    with obs.tracing() as col:
        verifier.prove_op("get_quota")          # any stack entry point
    obs.write_chrome_trace(col, "trace.json")   # chrome://tracing / Perfetto
    print(obs.render_regions(col.regions.values()))  # the §3.2 table
    print(obs.render_report({"obs": obs.summarize(col)}))

Disabled-by-default: ``obs.span(...)``/``obs.region(...)``/``obs.count(...)``
outside a ``tracing()`` block cost one global load and a None test.  Counters
never include wall-clock values, so they are bit-identical across two
runs with the same seed — the determinism contract CI checks.
"""

from .collector import (
    HIST_BUCKETS,
    Collector,
    Histogram,
    SpanEvent,
    count,
    enabled,
    event,
    get_collector,
    observe,
    region,
    span,
    tracing,
)
from .events import current_trace, new_trace_id, trace_context
from .export import (
    LAYER_CATEGORIES,
    chrome_trace,
    jsonl_lines,
    merge_chrome_traces,
    parse_prometheus,
    render_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .report import render_regions, render_report, summarize

__all__ = [
    "Collector",
    "HIST_BUCKETS",
    "Histogram",
    "LAYER_CATEGORIES",
    "SpanEvent",
    "chrome_trace",
    "count",
    "current_trace",
    "enabled",
    "event",
    "get_collector",
    "jsonl_lines",
    "merge_chrome_traces",
    "new_trace_id",
    "observe",
    "parse_prometheus",
    "region",
    "render_prometheus",
    "render_regions",
    "render_report",
    "span",
    "summarize",
    "trace_context",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
