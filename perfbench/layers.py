"""Per-layer metrics from a traced run.

Span times are self times (a span's duration minus what its child spans
cover), summed per layer and divided by the number of traced jobs, so a
value is "per job" whatever the run length.  A layer that runs only in
set-up (``pcap`` and ``netflow`` build the seed graph of the generation
workloads) is reported per set-up instead.  Program counters (the
engine's ``TransportProfile`` and task counts, the stream's stage and
queue statistics) are averaged over the traced jobs.
"""

from __future__ import annotations

import statistics

from tracing import self_times, union_seconds

__all__ = ["PER_LAYER", "per_layer"]

# metric -> (unit, span names, how): "self" sums self time, "busy" sums
# span durations, "calls" counts spans, "items" sums the span item counts.
SPAN_METRICS = {
    "core.grow_s": ("s", ("core.grow",), "self"),
    "core.decorate_s": ("s", ("core.decorate",), "self"),
    "core.decorate_calls": ("count", ("core.decorate",), "calls"),
    "stats.conditional_sample_s": ("s", ("stats.conditional_sample",),
                                   "self"),
    "stats.empirical_sample_s": ("s", ("stats.empirical_sample",), "self"),
    "kronecker.descend_s": ("s", ("kronecker.descend",), "self"),
    "engine.collect_s": ("s", ("engine.collect",), "self"),
    "pcap.read_s": ("s", ("pcap.read",), "self"),
    "netflow.assemble_s": ("s", ("netflow.assemble", "netflow.flush"),
                           "self"),
    "netflow.packets": ("count", ("netflow.assemble",), "calls"),
    "netflow.flows": ("count", ("netflow.assemble", "netflow.flush"),
                      "items"),
    "stream.source.busy_s": ("s", ("stream.source",), "busy"),
    "stream.windows_before_drain": ("count", ("stream.assembly",), "items"),
    "stream.graph.fold_s": ("s", ("stream.graph.fold",), "self"),
    "serve.swap_s": ("s", ("serve.swap",), "self"),
    "serve.swaps": ("count", ("serve.swap",), "calls"),
    "detect.process_s": ("s", ("detect.process", "detect.flush"), "self"),
    "detect.records": ("count", ("detect.process",), "calls"),
    "detect.alarms": ("count", ("detect.process", "detect.flush"), "items"),
}

_QUEUES = ("source-assembly", "assembly-graph", "graph-sink")
COUNTER_METRICS = {
    "engine.tasks_emitted": "count",
    "engine.tasks_dispatched": "count",
    "engine.submit_s": "s",
    "engine.serialize_s": "s",
    "engine.ipc_wait_s": "s",
    "engine.compute_s": "s",
    "engine.payload_bytes": "bytes",
    "engine.network_bytes": "bytes",
    "engine.network_raw_bytes": "bytes",
    "engine.round_trips": "count",
    "engine.overlap_s": "s",
    "engine.peak_persisted_bytes": "bytes",
    "engine.tasks_failed": "count",
    "engine.tasks_retried": "count",
    # The pipeline times the source stage only while it creates the batch
    # generator; stream.source.busy_s comes from the spans instead.
    "stream.assembly.busy_s": "s",
    "stream.graph.busy_s": "s",
    "stream.sink.busy_s": "s",
    **{f"stream.{q}.stall_s": "s" for q in _QUEUES},
    **{f"stream.{q}.depth_high_water": "count" for q in _QUEUES},
    "stream.windows": "count",
}

TRACE_METRICS = {"trace.overhead_s": "s", "trace.span_coverage": "ratio"}

PER_LAYER = {
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    **COUNTER_METRICS,
    **TRACE_METRICS,
}


def _aggregate(spans, names, how, selfs) -> float:
    chosen = [s for s in spans if s.name in names]
    if how == "self":
        return sum(selfs[(s.pid, s.id)] for s in chosen)
    if how == "busy":
        return sum(s.seconds for s in chosen)
    if how == "calls":
        return float(sum(1 for s in chosen if s.name == names[0]))
    return float(sum(s.items for s in chosen))


def per_layer(*, setup_spans, job_spans, traced, untraced) -> dict:
    """``traced`` / ``untraced``: ``[((start, end), JobOutput), ...]``."""
    n = len(traced)
    setup_selfs = self_times(setup_spans)
    job_selfs = self_times(job_spans)
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    unused = []
    for name, (unit, names, how) in SPAN_METRICS.items():
        in_jobs = [s for s in job_spans if s.name in names]
        in_setup = [s for s in setup_spans if s.name in names]
        if in_jobs:
            value = _aggregate(in_jobs, names, how, job_selfs) / n
        elif in_setup:
            value = _aggregate(in_setup, names, how, setup_selfs)
            notes[name] = "per set-up"
        else:
            value = 0.0
            unused.append(name)
        metrics[name] = (value, unit)
    for name, unit in COUNTER_METRICS.items():
        values = [job.counters.get(name, 0) for _, job in traced]
        metrics[name] = (float(statistics.fmean(values)), unit)

    traced_walls = [job.wall for _, job in traced]
    untraced_walls = [job.wall for _, job in untraced]
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls),
        "s",
    )
    covered = 0.0
    for (start, end), _ in traced:
        covered += union_seconds(
            (max(s.start, start), min(s.end, end))
            for s in job_spans
            if s.end > start and s.start < end
        )
    metrics["trace.span_coverage"] = (covered / sum(traced_walls), "ratio")
    notes["trace.span_coverage"] = (
        f"of {sum(traced_walls):.3f} s in {n} traced jobs "
        f"(median job {statistics.median(traced_walls):.3f} s)"
    )
    notes["trace.overhead_s"] = (
        f"median of {len(traced_walls)} traced minus median of "
        f"{len(untraced_walls)} untraced jobs"
    )
    if unused:
        notes["layers with no calls on this workload"] = ", ".join(unused)
    return {"metrics": metrics, "notes": notes}
