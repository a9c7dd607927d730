"""The three workloads, run through the program's public APIs.

Each ``run_*`` builds its inputs from the seed and computes the
expected answers before timing.  ``ingest`` and ``fresh`` then measure
``seconds`` of wall time in whole *epochs*: an epoch sets the program up
from nothing (timed as set-up), runs a fixed amount of work, tears down
and checks the answers (untimed).  Fixed epochs keep the store size,
and so the cost of an operation, the same however fast the program is.
``hot`` sets up several times, then runs one open loop of ``seconds``.

Timings are kept as wall intervals on the ``time.perf_counter`` clock,
so the report can give each one both as wall time and as reference
time (:mod:`perfbench.hostspeed`).

With a tracer, segments alternate between traced and untraced (a tick,
an epoch's round, or a one-second slice), so one run gives both the
per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.columnar.partstore import PartitionedStore
from repro.serve import QueryService, ServeClient, ServeConfig
from repro.streaming import DurablePlane, StoreSink, StreamConfig
from repro.timeseries.calendar import HOURS_PER_DAY

from perfbench import checks, inputs
from perfbench.server import ServiceThread
from perfbench.trace import Tracer

WINDOW_HOURS = inputs.WINDOW_DAYS * HOURS_PER_DAY

#: hot: the load generator, the length of one traced or untraced
#: slice, and how many times set-up runs (the median is reported).
LOADGEN = Path(__file__).resolve().parent / "loadgen.py"
LOADGEN_TIMEOUT_S = 120.0
HOT_SLICE_S = 1.0
HOT_SETUPS = 5


def stream_config() -> StreamConfig:
    return StreamConfig(
        window_days=inputs.WINDOW_DAYS, allowed_lateness_hours=0,
        on_late="repair",
    )


def now() -> float:
    return time.perf_counter()


@dataclass
class Outcome:
    """What one workload run measured, and what went wrong."""

    #: Name of the per-operation latency the tracing overhead compares.
    primary: str
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    #: Operations whose answer was wrong (each also counts as failed).
    wrong: int = 0
    errors: list[str] = field(default_factory=list)
    #: Set-up and measured regions, as (start, end) intervals.
    setup: list[tuple[float, float]] = field(default_factory=list)
    measured: list[tuple[float, float]] = field(default_factory=list)
    #: Latency samples by name, each a tuple of the (start, end)
    #: intervals whose lengths add up to it.
    samples: dict[str, list[tuple]] = field(default_factory=dict)
    #: Durations in ms that only the per-layer report uses.
    durations: dict[str, list[float]] = field(default_factory=dict)
    #: Primary samples in wall ms by (traced, kind): the overhead
    #: compares like with like (on ``hot``, one query type with itself).
    traced: dict[tuple, list[float]] = field(default_factory=dict)
    #: Wall time of the measured region that was traced.
    traced_s: float = 0.0
    #: Units of work completed in the measured region (readings/answers).
    work: float = 0.0
    #: Per-layer figures read from the program rather than from spans.
    extra: dict[str, float] = field(default_factory=dict)
    _on_since: float | None = None

    def fail(self, message: str, wrong: bool = False) -> None:
        """Count one failed operation; ``wrong`` when its answer was."""
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 20:
            self.errors.append(("WRONG " if wrong else "FAILED ") + message)

    @property
    def measured_s(self) -> float:
        return sum(end - start for start, end in self.measured)

    def sample(self, name: str, *intervals: tuple[float, float],
               traced: bool = False, kind=None) -> None:
        """One sample: the summed length of ``intervals``."""
        self.samples.setdefault(name, []).append(intervals)
        if name == self.primary:
            ms = 1e3 * sum(end - start for start, end in intervals)
            self.traced.setdefault((traced, kind), []).append(ms)

    def duration(self, name: str, ms: float) -> None:
        self.durations.setdefault(name, []).append(ms)

    def trace(self, on: bool) -> bool:
        """Switch tracing for the next segment; returns whether it is on."""
        on = on and self.tracer is not None
        t = now()
        if self._on_since is not None:
            self.traced_s += t - self._on_since
        self._on_since = t if on else None
        if self.tracer is not None:
            self.tracer.active = on
        return on


def _server_timings(out: Outcome, timings: dict | None,
                    client_ms: float) -> None:
    if timings is None:
        return
    out.duration("serve.queue", timings["queue_ms"])
    out.duration("serve.exec", timings["exec_ms"])
    out.duration("wire.overhead", client_ms - timings["total_ms"])


def _service_counts(stats: dict) -> dict[str, float]:
    return {
        "cache.hits": stats["cache"]["hits"],
        "cache.misses": stats["cache"]["misses"],
        "admission.rejections": sum(stats["admission"]["rejections"].values()),
    }


def _cache_deltas(out: Outcome, before: dict, after: dict) -> None:
    """Add the cache and admission counters' growth between two ``stats``."""
    then, now_ = _service_counts(before), _service_counts(after)
    for key, value in now_.items():
        out.extra[key] = out.extra.get(key, 0.0) + value - then[key]


def _store_ratio(out: Outcome, table) -> None:
    out.extra["store.bytes_per_user_byte"] = (
        table.compressed_bytes() / table.raw_bytes()
    )


# -- ingest --------------------------------------------------------------------

def run_ingest(seed: int, seconds: float, tracer: Tracer | None,
               work: Path) -> Outcome:
    """Closed-loop replay of hourly ticks through the durable pipeline."""
    feed = inputs.ingest_feed(seed)
    data, tpw = feed.dataset, feed.ticks_per_window
    expected = [
        checks.reference_results(
            checks.hours_slice(data, w * WINDOW_HOURS, (w + 1) * WINDOW_HOURS)
        )
        for w in range(inputs.INGEST_WINDOWS)
    ]
    out = Outcome(primary="tick", tracer=tracer)
    epoch = 0
    while out.measured_s < seconds:
        run_dir = work / f"ingest-{epoch}"
        t0 = now()
        store = PartitionedStore(run_dir / "store")
        plane = DurablePlane(
            data.consumer_ids, stream_config(), run_dir=run_dir / "plane",
            sink=StoreSink(store, "stream"), sync=True,
        )
        out.setup.append((t0, now()))
        start = now()
        for seq, tick in enumerate(feed.ticks):
            # Every other tick is traced, the phase flipping each epoch
            # so window-closing ticks (all odd) are traced in half.
            traced = out.trace((seq + epoch) % 2 == 0)
            t0 = now()
            emitted = plane.ingest(tick, seq=seq)
            t1 = now()
            out.attempted += 1
            out.sample("tick", (t0, t1), traced=traced)
            out.sample("commit" if emitted else "fold_tick", (t0, t1))
        out.measured.append((start, now()))
        out.work += sum(len(tick) for tick in feed.ticks)
        out.trace(False)
        plane.close()
        for result in plane.emitted:
            error = checks.check_window(result, expected[result.index])
            if error:
                out.fail(error, wrong=True)
        if plane.emitted:
            table = store.open("stream")
            error = checks.check_store(
                table, data, len(plane.emitted) * WINDOW_HOURS
            )
            if error:
                out.fail(error, wrong=True)
            _store_ratio(out, table)
        shutil.rmtree(run_dir)
        epoch += 1
    return out


# -- fresh ---------------------------------------------------------------------

def run_fresh(seed: int, seconds: float, tracer: Tracer | None,
              work: Path) -> Outcome:
    """Each epoch's round streams one window, then asks the five queries
    cold on the version that holds it."""
    feed = inputs.fresh_feed(seed)
    expected = checks.served_answers(feed.dataset)
    out = Outcome(primary="fresh", tracer=tracer)
    server = ServiceThread()
    try:
        asyncio.run(_fresh(feed, expected, seconds, out, server, work))
    finally:
        server.close()
    return out


async def _fresh(feed, expected, seconds, out, server, work) -> None:
    data, tpw = feed.dataset, feed.ticks_per_window
    epoch = 0
    while out.measured_s < seconds:
        run_dir = work / f"fresh-{epoch}"
        t0 = now()
        store = PartitionedStore(run_dir / "store")
        plane = DurablePlane(
            data.consumer_ids, stream_config(), run_dir=run_dir / "plane",
            sink=StoreSink(store, "readings"), sync=True,
        )
        for seq in range(tpw):
            plane.ingest(feed.ticks[seq], seq=seq)
        service = QueryService(store, "readings", ServeConfig())
        client = await ServeClient.connect("127.0.0.1", server.start(service))
        out.setup.append((t0, now()))
        try:
            before = (await client.request("stats")).result
            # The measured round: stream window 1, then ask the mix.
            traced = out.trace(epoch % 2 == 0)
            start = now()
            for seq in range(tpw, 2 * tpw - 1):
                plane.ingest(feed.ticks[seq], seq=seq)
            t_close = now()
            emitted = plane.ingest(feed.ticks[-1], seq=len(feed.ticks) - 1)
            responses, sent = [], []
            for q in inputs.QUERY_MIX:
                sent.append(now())
                responses.append(await client.request(
                    q.op, q.params, tenant=q.tenant, allow_stale=q.allow_stale,
                ))
            t_done = now()
            out.measured.append((start, t_done))
            out.trace(False)
            out.attempted += tpw + len(responses)
            out.work += sum(len(t) for t in feed.ticks[tpw:])
            out.sample("fresh", (t_close, t_done), traced=traced)
            if [r.index for r in emitted] != [1]:
                out.fail("window 1 did not close on its last tick")
            _check_fresh(out, responses, sent, expected)
            _cache_deltas(out, before, (await client.request("stats")).result)
        finally:
            await client.close()
            server.stop(service)
            plane.close()
        _store_ratio(out, store.open("readings"))
        shutil.rmtree(run_dir)
        epoch += 1


def _check_fresh(out: Outcome, responses, sent, expected: dict) -> None:
    """Check the round's answers; each latency runs from when its request
    was sent."""
    tasks = []
    for q, r, t0 in zip(inputs.QUERY_MIX, responses, sent):
        _server_timings(out, r.final.get("timings"), r.total_s * 1e3)
        if not r.ok:
            out.fail(f"{q.label}: {r.status} {r.reason}")
            continue
        if r.final.get("cached"):
            out.fail(f"{q.label}: a measured query hit the cache")
            continue
        if q.op == "sql":
            out.sample("cold_sql", (t0, t0 + r.total_s))
            out.sample("cold_sql_ttfr", (t0, t0 + r.ttfr_s))
            error = checks.check_sql_rows(r.rows, expected["sql"])
        else:
            tasks.append((t0, t0 + r.total_s))
            error = checks.check_task_answer(q.label, r.result, expected)
        if error:
            out.fail(error, wrong=True)
    out.sample("cold_tasks", *tasks)


# -- hot -----------------------------------------------------------------------

def run_hot(seed: int, seconds: float, tracer: Tracer | None,
            work: Path) -> Outcome:
    """An open loop of cached reads at a fixed rate."""
    data = inputs.hot_dataset(seed)
    expected = checks.served_answers(data)
    out = Outcome(primary="hot", tracer=tracer)
    server = ServiceThread()
    try:
        asyncio.run(_hot(data, seed, expected, seconds, out, server, work))
    finally:
        server.close()
    return out


async def _hot(data, seed, expected, seconds, out, server, work) -> None:
    for k in range(HOT_SETUPS):
        t0 = now()
        service = QueryService.from_dataset(
            data, work / f"hot-{k}", ServeConfig()
        )
        client = await ServeClient.connect("127.0.0.1", server.start(service))
        pilot = [
            await client.request(
                q.op, q.params, tenant=q.tenant, allow_stale=q.allow_stale
            )
            for q in inputs.QUERY_MIX
        ]
        out.setup.append((t0, now()))
        if k < HOT_SETUPS - 1:
            await client.close()
            server.stop(service)
    try:
        answers = work / "hot-answers.json"
        answers.write_text(json.dumps(_check_pilot(out, pilot, expected)))
        before = (await client.request("stats")).result
        start, result = await _open_loop(out, seed, seconds, service.port,
                                         answers, work / "hot-records.json")
        _cache_deltas(out, before, (await client.request("stats")).result)
    finally:
        await client.close()
        server.stop(service)
    _hot_records(out, start, result)


async def _open_loop(out, seed, seconds, port, answers,
                     records) -> tuple[float, dict]:
    """Run the load generator; switch tracing each slice meanwhile.
    Returns the start instant and the generator's records."""
    proc = subprocess.Popen(
        [sys.executable, str(LOADGEN), "--port", str(port),
         "--seed", str(seed), "--seconds", str(seconds),
         "--answers", str(answers), "--out", str(records)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("load generator did not start")
        start = now() + 0.1
        proc.stdin.write(f"{start!r}\n")
        proc.stdin.close()
        for k in range(math.ceil(seconds / HOT_SLICE_S)):
            await asyncio.sleep(max(0.0, start + k * HOT_SLICE_S - now()))
            out.trace(k % 2 == 0)
        status = await asyncio.to_thread(proc.wait, LOADGEN_TIMEOUT_S)
        out.trace(False)
        if status != 0:
            raise RuntimeError(f"load generator exited with status {status}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return start, json.loads(records.read_text())


def _check_pilot(out: Outcome, pilot, expected: dict) -> dict:
    """The pilot's answers must be right; they are what hot must repeat."""
    answers = {}
    for q, r in zip(inputs.QUERY_MIX, pilot):
        if not r.ok:
            out.fail(f"pilot {q.label}: {r.status} {r.reason}")
            continue
        if q.op == "sql":
            error = checks.check_sql_rows(r.rows, expected["sql"])
            answers[q.label] = r.rows
        else:
            error = checks.check_task_answer(q.label, r.result, expected)
            answers[q.label] = r.result
        if error:
            out.fail(f"pilot {error}", wrong=True)
    return answers


def _hot_records(out: Outcome, start: float, result: dict) -> None:
    """Fold the load generator's per-request records into ``out``; its
    times count from ``start``, an instant on this process's clock."""
    out.measured.append((start, start + result["measured_s"]))
    out.durations["gen.late"] = result["late_ms"]
    for rec in result["records"]:
        label = rec["label"]
        out.attempted += 1
        if rec["status"] != "ok":
            out.fail(f"{label}: {rec['status']} {rec['reason']}")
            continue
        out.work += 1
        traced = (out.tracer is not None
                  and int(rec["due_s"] // HOT_SLICE_S) % 2 == 0)
        due = start + rec["due_s"]
        interval = (due, due + rec["latency_ms"] / 1e3)
        out.sample("hot", interval, traced=traced, kind=label)
        out.sample(f"hot.{label}", interval)
        _server_timings(out, rec["timings"], rec["total_ms"])
        if not rec["fresh_hit"]:
            out.fail(f"{label}: not a fresh cache hit")
        elif not rec["same"]:
            out.fail(f"{label}: answer differs from the pilot's", wrong=True)


WORKLOADS = {"ingest": run_ingest, "fresh": run_fresh, "hot": run_hot}
