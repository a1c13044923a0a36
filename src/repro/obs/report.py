"""Terminal profile report: ``python -m repro.obs.report BENCH_fig11.json``.

Ranks proof obligations by wall time and ``sym`` regions by the §3.2
bottleneck score — the profile-then-optimize loop the paper runs with
SymPro, over the artifact a traced benchmark run persisted.

Accepts any JSON document that either *is* an obs summary (has
``obligations``/``regions``/``counters`` keys) or carries one under an
``obs`` key (``BENCH_fig11.json``, ``BENCH_runner.json``).
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["summarize", "render_regions", "render_report", "main"]


def summarize(collector) -> dict:
    """Condense a Collector into the ``obs`` section persisted in
    benchmark artifacts.

    Obligation rows come from the scheduler-category spans (one per
    obligation or piece, whichever process solved it); region rows are the
    collector's region table (its own regions plus every absorbed
    worker's), ranked by the §3.2 score.
    """
    obligations = []
    for event in collector.spans:
        if event.cat != "scheduler":
            continue
        row = {"name": event.name, "wall_s": event.dur, "worker": event.tid}
        if event.args:
            row.update(event.args)
        obligations.append(row)
    obligations.sort(key=lambda r: r["wall_s"], reverse=True)

    return {
        "counters": dict(sorted(collector.counters.items())),
        "spans": len(collector.spans),
        "dropped_spans": collector.dropped_spans,
        "obligations": obligations,
        "regions": _rank_regions(dict(row) for row in collector.regions.values()),
        "histograms": {
            name: hist.summary() for name, hist in sorted(collector.histograms.items())
        },
    }


def _region_score(region: dict) -> float:
    """§3.2 bottleneck score of a region row: splits and merges dominate
    term churn, and a large guarded union is the costliest sign."""
    return (
        region.get("terms", 0)
        + 20.0 * region.get("merges", 0)
        + 100.0 * region.get("splits", 0)
        + 50.0 * region.get("max_union", 0)
    )


def _rank_regions(regions) -> list[dict]:
    """Region rows by descending score, ties by name (so the order does
    not depend on which process recorded a row first)."""
    return sorted(regions, key=lambda r: (-_region_score(r), str(r.get("name", ""))))


def render_regions(regions, top: int = 15) -> str:
    """The §3.2 region table: the ``top`` rows of ``regions`` (an
    iterable of region rows, e.g. ``collector.regions.values()``)
    ranked by bottleneck score, one line each."""
    lines = [
        f"{'region':<28} {'calls':>7} {'terms':>9} {'merges':>8} {'splits':>7} "
        f"{'maxU':>5} {'incl(s)':>8} {'excl(s)':>8} {'score':>10}"
    ]
    for region in _rank_regions(regions)[:top]:
        lines.append(
            f"{region.get('name', '?')[:28]:<28} {region.get('calls', 0):>7} "
            f"{region.get('terms', 0):>9} {region.get('merges', 0):>8} "
            f"{region.get('splits', 0):>7} {region.get('max_union', 0):>5} "
            f"{region.get('time_s', 0.0):>8.3f} {region.get('excl_s', 0.0):>8.3f} "
            f"{_region_score(region):>10.0f}"
        )
    return "\n".join(lines)


def _extract_obs(doc: dict) -> dict:
    if isinstance(doc, dict) and isinstance(doc.get("obs"), dict):
        return doc["obs"]
    return doc if isinstance(doc, dict) else {}


def render_report(doc: dict, top: int = 15) -> str:
    """The human-readable profile for one artifact document."""
    obs = _extract_obs(doc)
    lines: list[str] = []

    if isinstance(doc.get("wall_s"), (int, float)):
        lines.append(
            f"run: wall {doc['wall_s']:.2f}s, {doc.get('obligations', '?')} obligations, "
            f"{doc.get('cache_hits', 0)} cache hits"
        )

    obligations = obs.get("obligations") or []
    lines.append(f"\n== obligations by wall time (top {min(top, len(obligations))}) ==")
    if obligations:
        lines.append(
            f"{'obligation':<44} {'wall(s)':>8} {'worker':>9} "
            f"{'attempts':>8} {'queued(s)':>9}"
        )
        for row in obligations[:top]:
            lines.append(
                f"{row.get('name', '?')[:44]:<44} {row.get('wall_s', 0.0):>8.3f} "
                f"{str(row.get('worker', '-')):>9} "
                f"{str(row.get('attempts', '-')):>8} {row.get('queued_s', 0.0):>9.3f}"
            )
    else:
        lines.append("  (none recorded — run with tracing enabled)")

    regions = obs.get("regions") or []
    lines.append(f"\n== regions by §3.2 bottleneck score (top {min(top, len(regions))}) ==")
    lines.append(render_regions(regions, top) if regions else "  (none recorded)")

    histograms = obs.get("histograms") or {}
    if histograms:
        lines.append(f"\n== latency histograms ({len(histograms)}) ==")
        lines.append(
            f"{'histogram':<36} {'count':>7} {'p50(ms)':>9} {'p90(ms)':>9} "
            f"{'p99(ms)':>9} {'max(ms)':>9}"
        )
        for name, summary in sorted(histograms.items()):
            if not isinstance(summary, dict):
                continue
            lines.append(
                f"{name[:36]:<36} {summary.get('count', 0):>7} "
                f"{summary.get('p50', 0.0) * 1e3:>9.2f} "
                f"{summary.get('p90', 0.0) * 1e3:>9.2f} "
                f"{summary.get('p99', 0.0) * 1e3:>9.2f} "
                f"{(summary.get('max') or 0.0) * 1e3:>9.2f}"
            )

    counters = obs.get("counters") or {}
    lines.append(f"\n== counters ({len(counters)}) ==")
    for name, value in sorted(counters.items()):
        # Tolerant of schema drift: a counter that is not a plain number
        # (older or newer artifact versions) renders as-is instead of
        # killing the whole report.
        shown = value if isinstance(value, (int, float)) else str(value)
        lines.append(f"  {name:<40} {shown:>14}")

    cert_line = _cert_summary(doc, counters)
    if cert_line:
        lines.append(f"\n{cert_line}")
    memo_line = _memo_summary(counters)
    if memo_line:
        lines.append(f"\n{memo_line}")
    if obs.get("dropped_spans"):
        lines.append(f"\n({obs['dropped_spans']} spans dropped past the buffer cap)")
    return "\n".join(lines)


def _cert_summary(doc: dict, counters: dict) -> str | None:
    """One line on proof-certificate coverage, when anything in the
    artifact mentions certificates.

    Stores and artifacts are routinely mixed — entries written before
    certificates existed next to certified ones, counters present in
    one run and absent in the next — so every field here is optional
    and type-checked; absence or junk means "no line", never a crash.
    """
    emitted = counters.get("solver.certs")
    errors = counters.get("solver.cert_errors")
    store = doc.get("store") if isinstance(doc.get("store"), dict) else {}
    stored = store.get("certificates")
    entries = store.get("entries")
    parts = []
    if isinstance(emitted, (int, float)):
        parts.append(f"{int(emitted)} certificates emitted")
    if isinstance(errors, (int, float)) and errors:
        parts.append(f"{int(errors)} emission errors")
    if isinstance(stored, (int, float)) and isinstance(entries, (int, float)):
        parts.append(f"store holds {int(stored)}/{int(entries)} certified entries")
    if not parts:
        return None
    return "certificates: " + ", ".join(parts) + " (audit: python -m repro.smt.checkproof --store)"


def _memo_summary(counters: dict) -> str | None:
    """One line on the session verdict memo of cache-less checks, when
    its counters are present (tolerant of junk like the cert line)."""
    hits = counters.get("solver.memo.hits", 0)
    misses = counters.get("solver.memo.misses", 0)
    if not isinstance(hits, (int, float)) or not isinstance(misses, (int, float)):
        return None
    if not hits and not misses:
        return None
    return (
        f"verdict memo: {int(hits)}/{int(hits + misses)} cache-less checks "
        "answered from the session memo"
    )


def _report_json(doc: dict, top: int) -> dict:
    """The ranked-bottleneck report as a machine-readable document
    (the ``--json`` twin of :func:`render_report`)."""
    obs = _extract_obs(doc)
    obligations = obs.get("obligations") or []
    regions = obs.get("regions") or []
    out = {
        "obligations": obligations[:top],
        "regions": regions[:top],
        "counters": dict(sorted((obs.get("counters") or {}).items())),
        "histograms": obs.get("histograms") or {},
        "dropped_spans": obs.get("dropped_spans", 0),
    }
    if isinstance(doc.get("wall_s"), (int, float)):
        out["wall_s"] = doc["wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts",
        nargs="+",
        metavar="artifact",
        help="BENCH_fig11.json / BENCH_runner.json / obs summary / Chrome trace JSON",
    )
    parser.add_argument("--top", type=int, default=15, help="rows per ranking table")
    parser.add_argument(
        "--json", action="store_true", help="emit the ranked report as JSON instead of text"
    )
    parser.add_argument(
        "--merge",
        action="store_true",
        help="reassemble the artifacts (Chrome traces or obs snapshots) "
        "into one fleet-wide Chrome trace, one pid per input",
    )
    parser.add_argument(
        "--out",
        default="trace_merged.json",
        help="output path for --merge (default: trace_merged.json)",
    )
    args = parser.parse_args(argv)

    docs = []
    for artifact in args.artifacts:
        try:
            with open(artifact) as handle:
                docs.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"cannot read {artifact}: {exc}", file=sys.stderr)
            return 2

    if args.merge:
        from .export import _ensure_parent, merge_chrome_traces, validate_chrome_trace

        merged = merge_chrome_traces(docs)
        problems = validate_chrome_trace(merged)
        if problems:
            for problem in problems:
                print(f"merge: {problem}", file=sys.stderr)
            return 4
        _ensure_parent(args.out)
        with open(args.out, "w") as handle:
            json.dump(merged, handle)
        print(
            f"merged {len(docs)} trace(s), {len(merged['traceEvents'])} events "
            f"-> {args.out}"
        )
        return 0

    if len(docs) > 1:
        print("multiple artifacts need --merge", file=sys.stderr)
        return 2
    doc = docs[0]

    obs = _extract_obs(doc)
    has_content = isinstance(obs.get("counters"), dict) and obs["counters"]
    has_content = has_content or isinstance(obs.get("obligations"), list) and obs["obligations"]
    has_content = has_content or isinstance(obs.get("regions"), list) and obs["regions"]
    if not has_content:
        print(
            f"{args.artifacts[0]}: no obs section to report on — re-run the "
            "benchmark with tracing enabled (e.g. bench_fig11_verify.py "
            "--trace) to collect counters, spans, and regions.",
            file=sys.stderr,
        )
        return 3

    if args.json:
        json.dump(_report_json(doc, args.top), sys.stdout, indent=2)
        print()
    else:
        print(render_report(doc, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
