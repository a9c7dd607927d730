"""From one workload's :class:`Outcome` to named metrics.

End-to-end metrics (untraced run) carry the same names on every
workload, because each run must report all of them; :data:`E2E` says
which named metric each one is on each workload.  Their times are
reference time (:mod:`perfbench.hostspeed`): wall time rescaled, moment
by moment, by how fast the host ran a fixed probe; each line also gives
the wall-time value.  Per-layer metrics stay in wall time.  Per-layer
metrics (traced run) come from the spans, and cover every layer on
every workload: a layer the workload does not reach reads 0.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict

import numpy as np

from perfbench import stats
from perfbench.trace import Span, self_times, union_length

#: slot -> workload -> (reported name, unit, sample, statistic).
#: The statistic is a percentile, ``"mean"``, ``"rate"`` (work per
#: measured second), or ``"offered"``: the rate an open loop delivered,
#: which its schedule fixes, so it stays in wall time.  ``fresh`` rounds
#: and ``hot`` requests fall in two clusters (cold SQL builds of one
#: table that take ~190 or ~500 ms; a request queued behind a PAR frame
#: or not), so their median jumps between clusters from run to run;
#: their typical latency is the mean.
E2E = {
    "rate_per_s": {
        "ingest": ("ingest_readings_per_s", "readings/s", None, "rate"),
        "fresh": ("fresh_readings_per_s", "readings/s", None, "rate"),
        "hot": ("hot_answers_per_s", "answers/s", None, "offered"),
    },
    "latency_ms": {
        "ingest": ("tick_p50_ms", "ms", "tick", 50.0),
        "fresh": ("fresh_mean_ms", "ms", "fresh", "mean"),
        "hot": ("hot_mean_ms", "ms", "hot", "mean"),
    },
    # The highest percentile with ten samples beyond it.  On ingest the
    # window-closing ticks are left out (they are ``heavy_ms``): with
    # them, p99 falls in the gap between fold and close times.
    "latency_tail_ms": {
        "ingest": ("fold_tick_p99_ms", "ms", "fold_tick", 99.0),
        "fresh": ("fresh_p75_ms", "ms", "fresh", 75.0),
        "hot": ("hot_p95_ms", "ms", "hot", 95.0),
    },
    "heavy_ms": {
        "ingest": ("window_commit_p50_ms", "ms", "commit", 50.0),
        "fresh": ("cold_sql_mean_ms", "ms", "cold_sql", "mean"),
        "hot": ("hot_par_p50_ms", "ms", "hot.par", 50.0),
    },
}
#: Printed by name on one workload, not gated: the first-specified
#: medians and tails that the slots above replace or leave out.
E2E_EXTRA = {
    "ingest": (("tick_p99_ms", "ms", "tick", 99.0),),
    "fresh": (
        ("fresh_p50_ms", "ms", "fresh", 50.0),
        ("cold_sql_p50_ms", "ms", "cold_sql", 50.0),
        ("cold_sql_ttfr_p50_ms", "ms", "cold_sql_ttfr", 50.0),
        ("cold_tasks_p50_ms", "ms", "cold_tasks", 50.0),
    ),
    "hot": (("hot_p50_ms", "ms", "hot", 50.0),),
}
#: End-to-end slots every workload reports, with their units.
E2E_UNITS = {
    "rate_per_s": "1/s", "latency_ms": "ms", "latency_tail_ms": "ms",
    "heavy_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}

#: The layers spans are grouped by (module names of the program).
LAYERS = (
    "streaming.durability", "streaming.window", "streaming.sink",
    "columnar.partstore", "core.benchmark", "relational", "sql",
    "serve.service", "serve.executor", "serve.protocol",
)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _statistic(values: list[float], how) -> tuple[float, str]:
    """The value and a label saying which statistic, of how many samples,
    and whether the sample supports that percentile."""
    if how == "mean":
        return statistics.fmean(values), f"mean, n={len(values)}"
    n = len(values)
    label = f"p{how:g}, n={n}"
    if how != 50.0:
        if not stats.supports(n, how):
            label += f"; INVALID: {stats.samples_beyond(n, how):g} beyond"
        top = stats.tail_percentile(n)
        label += f"; highest supported {f'p{top:g}' if top else 'none'}"
    return stats.percentile(values, how), label


def wall(start, end):
    """The clock :func:`end_to_end` reports wall time with."""
    return np.asarray(end, dtype=float) - np.asarray(start, dtype=float)


def lengths(samples: list[tuple], clock) -> list[float]:
    """Each sample's summed interval length under ``clock``, in seconds."""
    flat = [(i, a, b) for i, sample in enumerate(samples) for a, b in sample]
    if not flat:
        return [0.0] * len(samples)
    index, start, end = (np.array(c) for c in zip(*flat))
    return np.bincount(index, weights=clock(start, end),
                       minlength=len(samples)).tolist()


def end_to_end(workload: str, out, speed) -> tuple[dict, list[str]]:
    """``({slot: (value, unit)}, human lines)`` for an untraced run;
    times in reference time from ``speed``, a :class:`HostSpeed`."""
    metrics: dict[str, tuple[float, str]] = {}
    lines: list[str] = [
        f"host speed = {speed.speed():.4g} of reference "
        f"(median of {len(speed.samples)} probes)"
    ]

    def value(sample, how, clock):
        if how == "offered":
            return out.work / out.measured_s, f"n={out.work:g}"
        if how == "rate":
            seconds = sum(lengths([tuple(out.measured)], clock))
            return out.work / seconds, f"n={out.work:g}"
        values = [1e3 * v for v in lengths(out.samples.get(sample, []), clock)]
        if not values:
            raise RuntimeError(f"{workload}: no {sample} samples")
        return _statistic(values, how)

    def line(name, unit, sample, how):
        scaled, label = value(sample, how, speed.scaled)
        walled, _ = value(sample, how, wall)
        lines.append(f"{name} = {scaled:.6g} {unit} ({label}; "
                     f"wall {walled:.6g})")
        return scaled

    for slot, per_workload in E2E.items():
        metrics[slot] = (line(*per_workload[workload]), E2E_UNITS[slot])
    for spec in E2E_EXTRA.get(workload, ()):
        line(*spec)
    setups = [(interval,) for interval in out.setup]
    setup = statistics.median(lengths(setups, speed.scaled))
    metrics["setup_s"] = (setup, "s")
    lines.append(f"setup_s = {setup:.6g} s (median, n={len(setups)}; wall "
                 f"{statistics.median(lengths(setups, wall)):.6g})")
    rss = peak_rss_mb()
    metrics["peak_rss_mb"] = (rss, "MB")
    lines.append(f"peak_rss_mb = {rss:.6g} MB (n=1)")
    return metrics, lines


# -- per layer ----------------------------------------------------------------

def _mean_ms(spans: list[Span]) -> float:
    return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0


def _p50(values: list[float]) -> float:
    return stats.percentile(values, 50.0) if values else 0.0


def _outermost(spans: list[Span]) -> list[Span]:
    """Spans not nested in another span of the same layer."""
    by_id = {s.id: s for s in spans}
    keep = []
    for s in spans:
        parent = by_id.get(s.parent)
        while parent is not None and parent.layer != s.layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            keep.append(s)
    return keep


def _hit_ratio(extra: dict) -> float:
    lookups = extra.get("cache.hits", 0.0) + extra.get("cache.misses", 0.0)
    return extra.get("cache.hits", 0.0) / lookups if lookups else 0.0


def coverage(spans: list[Span], traced_s: float) -> float:
    """Share of traced wall time under at least one top-level span."""
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return union_length(top) / traced_s if traced_s > 0 else 0.0


def overhead(out) -> float:
    """Traced over untraced median of the primary latency, minus one.

    Taken per kind of operation and the median ratio reported, so a
    different mix on the two sides does not read as overhead.
    """
    kinds = {kind for _, kind in out.traced}
    ratios = [
        statistics.median(out.traced[True, k]) / statistics.median(out.traced[False, k])
        for k in kinds
        if out.traced.get((True, k)) and out.traced.get((False, k))
    ]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def per_layer(out, tracer) -> tuple[dict, list[str]]:
    """``({name: (value, unit)}, human lines)`` for a traced run."""
    spans = tracer.spans
    counters = tracer.counters
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def mean(name):
        return _mean_ms(by_name[name])

    def calls(name):
        return float(len(by_name[name]))

    def p50(name):
        return _p50(out.durations.get(name, []))

    readings = counters.get("wal.readings", 0)
    late = out.durations.get("gen.late", [])
    m: dict[str, tuple[float, str]] = {
        "streaming.fold_ms": (mean("streaming.fold"), "ms"),
        "streaming.fold_calls": (calls("streaming.fold"), "count"),
        "streaming.close_ms": (mean("streaming.close"), "ms"),
        "streaming.windows_closed": (
            counters.get("streaming.windows_closed", 0), "count"),
        "wal.append_ms": (mean("wal.append"), "ms"),
        "wal.sync_ms": (mean("wal.sync"), "ms"),
        "wal.syncs": (calls("wal.sync"), "count"),
        "wal.bytes_per_reading": (
            counters.get("wal.bytes", 0) / readings if readings else 0.0,
            "B/reading"),
        "checkpoint.foreground_ms": (mean("checkpoint"), "ms"),
        "checkpoints": (calls("checkpoint"), "count"),
        "sink.write_ms": (mean("sink.write"), "ms"),
        "store.append_ms": (mean("store.append"), "ms"),
        "store.bytes_per_user_byte": (
            out.extra.get("store.bytes_per_user_byte", 0.0), "ratio"),
        "store.read_ms": (mean("store.read"), "ms"),
        "store.read_calls": (calls("store.read"), "count"),
        "kernel.histogram_ms": (mean("kernel.histogram"), "ms"),
        "kernel.threeline_ms": (mean("kernel.threeline"), "ms"),
        "kernel.par_ms": (mean("kernel.par"), "ms"),
        "kernel.similarity_ms": (mean("kernel.similarity"), "ms"),
        "relational.heap_build_ms": (mean("relational.heap_build"), "ms"),
        "relational.tuples_loaded": (
            counters.get("relational.tuples_loaded", 0), "count"),
        "relational.exec_ms": (mean("relational.exec"), "ms"),
        "sql.parse_ms": (mean("sql.parse"), "ms"),
        "serve.serialize_ms": (mean("serve.serialize"), "ms"),
        "protocol.encode_ms": (mean("protocol.encode"), "ms"),
        "protocol.decode_ms": (mean("protocol.decode"), "ms"),
        "protocol.frames": (counters.get("protocol.frames", 0), "count"),
        "protocol.bytes_out": (counters.get("protocol.bytes_out", 0), "B"),
        "serve.queue_ms": (p50("serve.queue"), "ms"),
        "serve.exec_ms": (p50("serve.exec"), "ms"),
        "admission.rejections": (
            out.extra.get("admission.rejections", 0.0), "count"),
        "cache.hit_ratio": (_hit_ratio(out.extra), "ratio"),
        "wire.overhead_ms": (p50("wire.overhead"), "ms"),
        "gen.late_p50_ms": (_p50(late), "ms"),
        "gen.late_max_ms": (max(late) if late else 0.0, "ms"),
        "trace.coverage": (coverage(spans, out.traced_s), "ratio"),
        "trace.overhead": (overhead(out), "ratio"),
    }
    outer = _outermost(spans)
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        busy_by_thread: dict[int, list] = defaultdict(list)
        for s in mine:
            busy_by_thread[s.thread].append((s.start, s.end))
        busy = sum(union_length(v) for v in busy_by_thread.values())
        own = sum(selfs[s.id] for s in mine)
        m[f"layer.{layer}.busy_ms"] = (busy * 1e3, "ms")
        m[f"layer.{layer}.self_ms"] = (own * 1e3, "ms")
        m[f"layer.{layer}.calls"] = (
            float(sum(1 for s in outer if s.layer == layer)), "count")
        m[f"layer.{layer}.share"] = (
            own / out.traced_s if out.traced_s > 0 else 0.0, "ratio")
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in m.items()]
    lines.append(f"traced wall time = {out.traced_s:.3f} s, "
                 f"spans = {len(spans)}")
    return m, lines
