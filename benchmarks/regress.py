"""Benchmark-regression harness for the batched kernels and the v2 store.

Measures loop vs batched vs batched+parallel wall times for the three
per-consumer tasks at several consumer counts and writes the numbers to
``BENCH_kernels.json`` (committed at the repo root so regressions show
up in review).  Runs standalone — no pytest required::

    python benchmarks/regress.py            # full sweep, repo-root JSON
    python benchmarks/regress.py --quick    # one small scale (CI smoke)
    python benchmarks/regress.py --out path/to.json
    python benchmarks/regress.py --storage  # storage-v2 gates -> BENCH_storage.json
    python benchmarks/regress.py --streaming  # plane gates -> BENCH_streaming.json
    python benchmarks/regress.py --durability # chaos gates -> BENCH_durability.json
    python benchmarks/regress.py --serve [--chaos] # SLO gates -> BENCH_serve.json

``--storage`` switches to the columnar-storage-v2 suite: full vs pruned
scan speed, compressed size vs raw, the out-of-core memory budget, and
bit-identity of all four tasks between the v1 memmap and v2 partitioned
stores.  Results land in ``BENCH_storage.json`` and the same gates are
enforced via the exit status (quick mode waives the scan-speed floor,
which needs n=1000 to be meaningful).

``--streaming`` switches to the streaming-plane suite
(:mod:`benchmarks.bench_streaming`): sustained fold throughput with
per-tick latency percentiles scaled to a simulated 1M-meter fleet,
the incremental-vs-naive-recompute speedup gate at n=1000, and
shuffled-arrival window-close convergence of all four tasks.  Results
land in ``BENCH_streaming.json``; quick mode shrinks the cohort and
waives the speedup floor (it needs n=1000 to be meaningful) but still
enforces convergence.

``--durability`` switches to the durable-streaming chaos suite
(:mod:`benchmarks.bench_durability`): the WAL-on vs WAL-off throughput
ratio at n=1000 (floor ``MIN_WAL_RATIO``), kill-point recovery —
crashed mid-WAL-append / mid-checkpoint / mid-sink-append, recovered
from checkpoint + WAL-tail replay, convergence and a duplicate-free
store asserted for every point — and a fleet run that murders a worker
process for real and must still land bit-identical store bytes.
Results land in ``BENCH_durability.json``; quick mode shrinks the
cohorts and waives the WAL-ratio floor but still enforces every
convergence and zero-duplicate gate.

``--serve`` switches to the query-service SLO suite
(:mod:`benchmarks.bench_serve`): a low-pressure scenario whose served
answers must be bit-identical to the golden engine results and whose
SQL P95 (the cold query on a new version) must stay under 50 ms, and a
multi-tenant stress run whose P99 must stay under the ceiling while
overload is shed explicitly — zero silent drops, audited on both the
client and the server ledgers.  ``--chaos`` adds the fault-injection
variant: a breaker must trip on injected worker failures, degraded
answers must be stale-marked, a wave of hopeless deadlines must die
with deadline reasons, and the breaker must recover once the faults
stop.  Results land in ``BENCH_serve.json``; quick mode shrinks the
cohort and waives both latency ceilings but still enforces every
structural gate.

Exit status is non-zero if, at the largest measured scale with at least
1000 consumers, any task falls below the 5x batched speedup floor, or
(on machines with at least ``PARALLEL_JOBS`` cores) batched+parallel
fails to beat plain batched at the largest scale — the same claims
``bench_kernels.py`` asserts under pytest.

On boxes with fewer cores than ``PARALLEL_JOBS`` the parallel column is
not measured at all: two workers time-slicing one core produce numbers
that are pure scheduling noise.  Those rows carry
``"parallel_skipped": true`` in the JSON instead of misleading timings,
and the parallel gate is waived.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.benchmark import BenchmarkSpec, Task, run_task_reference  # noqa: E402
from repro.datagen.seed import SeedConfig, make_seed_dataset  # noqa: E402

#: A month of hourly readings per consumer.
N_HOURS = 24 * 30
#: Consumer counts for the full sweep / the --quick CI smoke run.
FULL_SCALES = (250, 1000, 2000)
QUICK_SCALES = (100,)
#: Worker count for the batched+parallel column.
PARALLEL_JOBS = 2
#: Speedup floor enforced at the largest n >= 1000 (full sweep only).
MIN_SPEEDUP = 5.0

TASKS = (Task.HISTOGRAM, Task.THREELINE, Task.PAR)


def parallel_measurable() -> bool:
    """True when this machine can produce meaningful parallel timings."""
    return (os.cpu_count() or 1) >= PARALLEL_JOBS


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(scales, repeats):
    """Wall times for every (task, n, kernel strategy) combination."""
    # Warm up every code path on a tiny dataset first so lazy imports and
    # one-time setup are not billed to the first measured combination.
    tiny = make_seed_dataset(SeedConfig(n_consumers=10, n_hours=N_HOURS, seed=1))
    measure_parallel = parallel_measurable()
    specs = [
        ("loop", BenchmarkSpec(kernel="loop")),
        ("batched", BenchmarkSpec(kernel="batched")),
    ]
    if measure_parallel:
        specs.append(
            (
                "batched_parallel",
                BenchmarkSpec(kernel="batched", n_jobs=PARALLEL_JOBS),
            )
        )
    for task in TASKS:
        for _, spec in specs:
            run_task_reference(tiny, task, spec)
    rows = []
    for n in scales:
        dataset = make_seed_dataset(
            SeedConfig(n_consumers=n, n_hours=N_HOURS, seed=1234)
        )
        for task in TASKS:
            timings = {}
            for label, spec in specs:
                timings[label] = _best_of(
                    lambda spec=spec: run_task_reference(dataset, task, spec),
                    repeats,
                )
            row = {
                "task": task.value,
                "n_consumers": n,
                "hours": N_HOURS,
                "loop_s": round(timings["loop"], 6),
                "batched_s": round(timings["batched"], 6),
                "speedup_batched": round(
                    timings["loop"] / timings["batched"], 3
                ),
            }
            if measure_parallel:
                row["batched_parallel_s"] = round(
                    timings["batched_parallel"], 6
                )
                row["speedup_batched_parallel"] = round(
                    timings["loop"] / timings["batched_parallel"], 3
                )
                parallel_note = (
                    f"  (+{PARALLEL_JOBS} jobs"
                    f" {timings['batched_parallel'] * 1e3:8.1f} ms)"
                )
            else:
                row["parallel_skipped"] = True
                parallel_note = f"  (+{PARALLEL_JOBS} jobs   skipped)"
            rows.append(row)
            print(
                f"n={n:>5} {task.value:<10} loop {timings['loop'] * 1e3:8.1f} ms"
                f"  batched {timings['batched'] * 1e3:8.1f} ms"
                f"{parallel_note}"
                f"  speedup {timings['loop'] / timings['batched']:5.2f}x"
            )
    return rows


def check_floor(rows):
    """True when every gate holds at the largest n >= 1000.

    Two gates, matching the pytest benchmarks:

    * every task (histogram, 3-line, PAR) holds the 5x batched speedup
      floor at the smallest eligible scale (n=1000 when measured, else
      the largest n >= 1000);
    * at the largest measured scale, batched+parallel beats plain
      batched for every task — enforced only when the parallel column
      was actually measured (``parallel_measurable()``).
    """
    eligible = sorted({r["n_consumers"] for r in rows if r["n_consumers"] >= 1000})
    if not eligible:
        return True  # quick mode: too small to enforce the floors
    floor_n = eligible[0]
    largest_n = eligible[-1]
    ok = True
    for task in ("histogram", "threeline", "par"):
        row = next(
            r for r in rows if r["task"] == task and r["n_consumers"] == floor_n
        )
        if row["speedup_batched"] < MIN_SPEEDUP:
            print(
                f"FLOOR MISS: {task} at n={floor_n} is "
                f"{row['speedup_batched']}x < {MIN_SPEEDUP}x",
                file=sys.stderr,
            )
            ok = False
        parallel_row = next(
            r
            for r in rows
            if r["task"] == task and r["n_consumers"] == largest_n
        )
        if parallel_row.get("parallel_skipped"):
            continue
        if (
            parallel_row["speedup_batched_parallel"]
            <= parallel_row["speedup_batched"]
        ):
            print(
                f"PARALLEL MISS: {task} at n={largest_n} batched+parallel "
                f"{parallel_row['speedup_batched_parallel']}x does not beat "
                f"batched {parallel_row['speedup_batched']}x",
                file=sys.stderr,
            )
            ok = False
    return ok


# Storage v2 suite -----------------------------------------------------------

#: Scan-gate scale: 1000 consumers x 90 days -> a 4 x 3 partition grid
#: at the default 256-consumer x 30-day tile, so the selective scan
#: (one group x one month) decodes 1 of 12 partitions.
STORAGE_SCAN_N = 1000
STORAGE_HOURS = 24 * 90
QUICK_STORAGE_SCAN_N = 100
#: Bit-identity scale (all four tasks run twice, so kept moderate).
STORAGE_IDENTITY_N = 300
QUICK_STORAGE_IDENTITY_N = 40
#: The configured out-of-core budget for the large-scale run.
STORAGE_BUDGET_BYTES = 64 * 1024 * 1024
#: Gates.
STORAGE_MIN_SCAN_SPEEDUP = 5.0
STORAGE_MAX_COMPRESSION_RATIO = 0.5

ALL_TASKS = (Task.HISTOGRAM, Task.THREELINE, Task.PAR, Task.SIMILARITY)


def _drain_scan(table, **scan_kwargs) -> float:
    total = 0.0
    for batch in table.scan(**scan_kwargs):
        total += float(batch.columns["consumption"].sum())
    return total


def measure_storage(quick: bool, repeats: int):
    """The storage-v2 measurement suite; returns the JSON payload body."""
    import tempfile

    from repro.columnar.colstore import ColumnStore
    from repro.columnar.outofcore import iter_consumer_blocks
    from repro.columnar.partstore import PartitionedStore
    from repro.core.validation import (
        ValidationFailure,
        assert_identical_task_results,
    )
    from repro.datagen.seed import quantize_readings
    from repro.engines.base import create_engine

    workdir = Path(tempfile.mkdtemp(prefix="regress_storage_"))
    n_scan = QUICK_STORAGE_SCAN_N if quick else STORAGE_SCAN_N
    dataset = quantize_readings(
        make_seed_dataset(
            SeedConfig(n_consumers=n_scan, n_hours=STORAGE_HOURS, seed=1234)
        )
    )

    store = PartitionedStore(workdir / "v2")
    table = store.ingest_dataset(dataset)
    v1_table = ColumnStore(workdir / "v1").ingest_dataset(dataset, "readings")
    v1_bytes = sum(
        f.stat().st_size for f in v1_table.directory.iterdir() if f.is_file()
    )

    # Scan gate: full vs one-group-one-month selective scan.
    full_s = _best_of(lambda: _drain_scan(table), repeats)
    full_parts = table.last_scan_stats.partitions_scanned
    c_hi = min(table.consumers_per_part, n_scan)
    h_hi = min(table.days_per_part * 24, table.n_hours)
    pruned_s = _best_of(
        lambda: _drain_scan(
            table, consumer_range=(0, c_hi), hour_range=(0, h_hi)
        ),
        repeats,
    )
    pruned_parts = table.last_scan_stats.partitions_scanned
    scan = {
        "n_consumers": n_scan,
        "hours": STORAGE_HOURS,
        "full_s": round(full_s, 6),
        "pruned_s": round(pruned_s, 6),
        "speedup": round(full_s / pruned_s, 3) if pruned_s > 0 else None,
        "partitions_total": table.last_scan_stats.partitions_total,
        "partitions_full": full_parts,
        "partitions_pruned_scan": pruned_parts,
        "min_speedup_floor": STORAGE_MIN_SCAN_SPEEDUP,
    }
    print(
        f"scan      n={n_scan:>5} full {full_s * 1e3:8.1f} ms "
        f"({full_parts} parts)  pruned {pruned_s * 1e3:8.1f} ms "
        f"({pruned_parts} parts)  speedup {full_s / pruned_s:5.2f}x"
    )

    # Compression gate.
    raw = table.raw_bytes()
    compressed = table.compressed_bytes()
    compression = {
        "raw_bytes": raw,
        "compressed_bytes": compressed,
        "ratio": round(compressed / raw, 4),
        "v1_store_bytes": v1_bytes,
        "max_ratio": STORAGE_MAX_COMPRESSION_RATIO,
    }
    print(
        f"compress  {compressed}/{raw} bytes = {compressed / raw:5.3f}x raw "
        f"(v1 store {v1_bytes / raw:5.3f}x)"
    )

    # Out-of-core gate: a full per-consumer sweep under the configured
    # budget.  The block chooser budgets the assembled block matrices at
    # half the budget (the other half covers decode scratch); the scan
    # itself raises if any single partition cannot fit.
    table.scan_peak_bytes = 0
    peak_block = 0
    blocks = 0
    for _c0, _ids, matrices in iter_consumer_blocks(
        table, memory_budget_bytes=STORAGE_BUDGET_BYTES
    ):
        peak_block = max(
            peak_block, sum(m.nbytes for m in matrices.values())
        )
        blocks += 1
    out_of_core = {
        "n_consumers": n_scan,
        "hours": STORAGE_HOURS,
        "budget_bytes": STORAGE_BUDGET_BYTES,
        "blocks": blocks,
        "peak_block_bytes": peak_block,
        "peak_batch_bytes": table.scan_peak_bytes,
        "completed": True,
    }
    print(
        f"ooc       {blocks} blocks, peak block "
        f"{peak_block / 1e6:.1f} MB / budget "
        f"{STORAGE_BUDGET_BYTES / 1e6:.1f} MB"
    )

    # Bit-identity gate: all four tasks, v1 vs v2 engines.
    n_id = QUICK_STORAGE_IDENTITY_N if quick else STORAGE_IDENTITY_N
    id_dataset = quantize_readings(
        make_seed_dataset(
            SeedConfig(n_consumers=n_id, n_hours=24 * 60, seed=77)
        )
    )
    eng_v1 = create_engine("systemc")
    eng_v1.load_dataset(id_dataset, workdir / "id_v1")
    eng_v2 = create_engine(
        "systemc", store="v2", memory_budget_bytes=STORAGE_BUDGET_BYTES
    )
    eng_v2.load_dataset(id_dataset, workdir / "id_v2")
    identity_tasks = {}
    for task in ALL_TASKS:
        a = eng_v1.run_task(task)
        b = eng_v2.run_task(task)
        try:
            assert_identical_task_results(task, a, b)
            identity_tasks[task.value] = "identical"
        except ValidationFailure as exc:
            identity_tasks[task.value] = f"MISMATCH: {exc}"
    bit_identity = {"n_consumers": n_id, "hours": 24 * 60,
                    "tasks": identity_tasks}
    print(f"identity  n={n_id}: " + ", ".join(
        f"{t}={'ok' if v == 'identical' else 'MISMATCH'}"
        for t, v in identity_tasks.items()
    ))

    return {
        "scan": scan,
        "compression": compression,
        "out_of_core": out_of_core,
        "bit_identity": bit_identity,
    }


def check_storage(body, quick: bool) -> bool:
    """Enforce the storage gates; quick mode waives the scan-speed floor."""
    ok = True
    scan = body["scan"]
    if not quick and (
        scan["speedup"] is None
        or scan["speedup"] < STORAGE_MIN_SCAN_SPEEDUP
    ):
        print(
            f"STORAGE MISS: pruned scan speedup {scan['speedup']}x < "
            f"{STORAGE_MIN_SCAN_SPEEDUP}x at n={scan['n_consumers']}",
            file=sys.stderr,
        )
        ok = False
    comp = body["compression"]
    if comp["ratio"] > STORAGE_MAX_COMPRESSION_RATIO:
        print(
            f"STORAGE MISS: compression ratio {comp['ratio']}x > "
            f"{STORAGE_MAX_COMPRESSION_RATIO}x raw",
            file=sys.stderr,
        )
        ok = False
    ooc = body["out_of_core"]
    if not ooc["completed"] or ooc["peak_block_bytes"] * 2 > ooc["budget_bytes"]:
        print(
            f"STORAGE MISS: out-of-core peak block "
            f"{ooc['peak_block_bytes']} bytes (x2 working-set model) "
            f"exceeds budget {ooc['budget_bytes']}",
            file=sys.stderr,
        )
        ok = False
    for task, verdict in body["bit_identity"]["tasks"].items():
        if verdict != "identical":
            print(f"STORAGE MISS: {task} not bit-identical: {verdict}",
                  file=sys.stderr)
            ok = False
    return ok


# Streaming suite ------------------------------------------------------------

#: Gate scale (full) and quick-mode cohort for the streaming suite.
STREAMING_GATE_N = 1000
QUICK_STREAMING_N = 100
STREAMING_CONVERGENCE_N = 200
QUICK_STREAMING_CONVERGENCE_N = 40


def measure_streaming(quick: bool):
    """The streaming-plane measurement suite; returns the JSON body."""
    from bench_streaming import (
        measure_convergence,
        measure_speedup,
        measure_throughput,
    )

    n_gate = QUICK_STREAMING_N if quick else STREAMING_GATE_N
    n_conv = (
        QUICK_STREAMING_CONVERGENCE_N if quick else STREAMING_CONVERGENCE_N
    )

    throughput = measure_throughput(n_consumers=n_gate, n_windows=2)
    print(
        f"throughput n={n_gate:>5}: "
        f"{throughput['readings_per_s']:>12,.0f} readings/s  "
        f"tick P50 {throughput['tick_p50_ms']:.1f} / "
        f"P95 {throughput['tick_p95_ms']:.1f} / "
        f"P99 {throughput['tick_p99_ms']:.1f} ms  "
        f"(fleet day = {throughput['simulated_fleet_day_core_s']} core-s "
        f"at {throughput['simulated_meters']:,} meters)"
    )
    speedup = measure_speedup(n_consumers=n_gate)
    print(
        f"speedup   n={n_gate:>5}: incremental {speedup['incremental_s']:.3f}s"
        f"  naive {speedup['naive_recompute_s']:.3f}s"
        f"  -> {speedup['speedup']:5.2f}x (floor {speedup['min_speedup_floor']}x)"
    )
    convergence = measure_convergence(n_consumers=n_conv)
    print(f"converge  n={n_conv:>5}: " + ", ".join(
        f"{t}={'ok' if not v.startswith('MISMATCH') else 'MISMATCH'}"
        for t, v in convergence["tasks"].items()
    ))
    return {
        "throughput": throughput,
        "speedup": speedup,
        "convergence": convergence,
    }


def check_streaming(body, quick: bool) -> bool:
    """Enforce the streaming gates; quick mode waives the speedup floor."""
    ok = True
    speed = body["speedup"]
    if not quick and speed["speedup"] < speed["min_speedup_floor"]:
        print(
            f"STREAMING MISS: incremental speedup {speed['speedup']}x < "
            f"{speed['min_speedup_floor']}x at n={speed['n_consumers']}",
            file=sys.stderr,
        )
        ok = False
    for task, verdict in body["convergence"]["tasks"].items():
        if verdict.startswith("MISMATCH"):
            print(
                f"STREAMING MISS: {task} did not converge: {verdict}",
                file=sys.stderr,
            )
            ok = False
    return ok


# Durability suite -----------------------------------------------------------

#: Quick-mode scales of the durability suite (the WAL-overhead ratio
#: needs n=1000 of real fold work to be meaningful and is waived).
QUICK_DURABILITY_OVERHEAD_N = 100
QUICK_DURABILITY_RECOVERY_N = 32


def measure_durability(quick: bool):
    """The durable-streaming chaos suite; returns the JSON body."""
    from bench_durability import (
        GATE_N,
        measure_fleet_chaos,
        measure_recovery,
        measure_wal_overhead,
    )

    n_overhead = QUICK_DURABILITY_OVERHEAD_N if quick else GATE_N
    n_recovery = QUICK_DURABILITY_RECOVERY_N if quick else 80

    overhead = measure_wal_overhead(n_consumers=n_overhead)
    print(
        f"wal-tax   n={n_overhead:>5}: "
        f"off {overhead['wal_off_readings_per_s']:>12,.0f} r/s  "
        f"on {overhead['wal_on_readings_per_s']:>12,.0f} r/s  "
        f"-> ratio {overhead['throughput_ratio']:.3f} "
        f"(floor {overhead['min_ratio_floor']})"
    )
    recovery = measure_recovery(n_consumers=n_recovery)
    for row in recovery:
        bad = [v for v in row["tasks"].values() if v.startswith("MISMATCH")]
        print(
            f"kill {row['point']:>11}@{row['at']}: "
            f"replayed {row['replayed_batches']:>2} batches in "
            f"{row['recovery_s']:.3f}s  "
            f"{'converged' if not bad else 'DIVERGED'}"
            f"{'' if row['duplicate_rows'] == 'none' else '  DUPLICATES'}"
        )
    chaos = measure_fleet_chaos()
    print(
        f"fleet     shards={chaos['n_shards']}: "
        f"{chaos['total_restarts']} restart(s), "
        f"{'converged' if chaos['store_bit_identical'] else 'DIVERGED'} "
        f"in {chaos['wall_s']:.2f}s"
    )
    return {
        "wal_overhead": overhead,
        "recovery": recovery,
        "fleet_chaos": chaos,
    }


def check_durability(body, quick: bool) -> bool:
    """Enforce the durability gates; quick waives the WAL-ratio floor."""
    ok = True
    overhead = body["wal_overhead"]
    if not quick and overhead["throughput_ratio"] < overhead["min_ratio_floor"]:
        print(
            f"DURABILITY MISS: WAL-on throughput ratio "
            f"{overhead['throughput_ratio']} < {overhead['min_ratio_floor']} "
            f"at n={overhead['n_consumers']}",
            file=sys.stderr,
        )
        ok = False
    for row in body["recovery"]:
        label = f"{row['point']}@{row['at']}"
        if not row["crash_fired"]:
            print(
                f"DURABILITY MISS: kill point {label} never fired",
                file=sys.stderr,
            )
            ok = False
        for task, verdict in row["tasks"].items():
            if verdict.startswith("MISMATCH"):
                print(
                    f"DURABILITY MISS: {label}: {task} diverged: {verdict}",
                    file=sys.stderr,
                )
                ok = False
        if not row["store_bit_identical"] or row["duplicate_rows"] != "none":
            print(
                f"DURABILITY MISS: {label}: store diverged "
                f"(duplicates: {row['duplicate_rows']})",
                file=sys.stderr,
            )
            ok = False
    chaos = body["fleet_chaos"]
    if not chaos["crash_fired"]:
        print("DURABILITY MISS: fleet kill plan never fired", file=sys.stderr)
        ok = False
    if not chaos["store_bit_identical"] or chaos["duplicate_rows"] != "none":
        print(
            f"DURABILITY MISS: fleet store diverged after "
            f"{chaos['total_restarts']} restart(s) "
            f"(duplicates: {chaos['duplicate_rows']})",
            file=sys.stderr,
        )
        ok = False
    return ok


def measure_serve(quick: bool, chaos: bool):
    """The query-service SLO suite; returns the JSON body."""
    from bench_serve import measure_chaos, measure_scenario, measure_stress

    scenario = measure_scenario(quick)
    checks = scenario["golden_spot_checks"]
    print(
        f"scenario  n={scenario['n_consumers']:>4}: "
        f"{sum(1 for v in checks.values() if v == 'identical')}/"
        f"{len(checks)} golden spot checks identical, "
        f"sql ttfr p50 {scenario['sql_ttfr']['p50_ms']}ms"
    )
    stress = measure_stress(quick)
    print(
        f"stress    {stress['tenants']}x{stress['requests_per_tenant']}: "
        f"{stress['completed']} completed "
        f"(p99 {stress['latency']['p99_ms']}ms), "
        f"{sum(stress['rejections'].values())} rejected, "
        f"ledger {'balanced' if stress['ledger']['balanced'] else 'LEAKED'}"
    )
    body = {"scenario": scenario, "stress": stress}
    if chaos:
        result = measure_chaos(quick)
        print(
            f"chaos     breaker {'tripped' if result['breaker_tripped'] else 'NEVER TRIPPED'}"
            f" -> {result['breaker_final_state']}, "
            f"{result['stale_degraded_answers']} stale-degraded, "
            f"{result['deadline_kills']}/8 deadline kills"
        )
        body["chaos"] = result
    return body


def check_serve(body, quick: bool) -> bool:
    """Enforce the serving SLOs; quick waives the latency ceilings."""
    ok = True
    scenario = body["scenario"]
    for task, verdict in scenario["golden_spot_checks"].items():
        if verdict != "identical":
            print(
                f"SERVE MISS: served {task} diverged from golden: {verdict}",
                file=sys.stderr,
            )
            ok = False
    stress = body["stress"]
    for section in (scenario, stress):
        if not section["ledger"]["balanced"]:
            print(
                f"SERVE MISS: silent drop — ledger {section['ledger']}",
                file=sys.stderr,
            )
            ok = False
    if stress["errors"]:
        print(
            f"SERVE MISS: stress run produced errors: {stress['errors']}",
            file=sys.stderr,
        )
        ok = False
    if sum(stress["rejections"].values()) == 0:
        print(
            "SERVE MISS: stress never shed load — admission control "
            "did not engage",
            file=sys.stderr,
        )
        ok = False
    if not quick and (
        stress["latency"]["p99_ms"] is None
        or stress["latency"]["p99_ms"] > stress["p99_ceiling_ms"]
    ):
        print(
            f"SERVE MISS: stress P99 {stress['latency']['p99_ms']}ms "
            f"over ceiling {stress['p99_ceiling_ms']}ms",
            file=sys.stderr,
        )
        ok = False
    sql_p95 = scenario["latency"]["sql"]["p95_ms"]
    if not quick and (
        sql_p95 is None or sql_p95 > scenario["sql_p95_ceiling_ms"]
    ):
        print(
            f"SERVE MISS: scenario SQL P95 {sql_p95}ms over ceiling "
            f"{scenario['sql_p95_ceiling_ms']}ms",
            file=sys.stderr,
        )
        ok = False
    chaos = body.get("chaos")
    if chaos is not None:
        if not chaos["breaker_tripped"]:
            print(
                "SERVE MISS: injected failures never tripped the breaker",
                file=sys.stderr,
            )
            ok = False
        if chaos["stale_degraded_answers"] == 0:
            print(
                "SERVE MISS: open breaker never served a stale-marked "
                "degraded answer",
                file=sys.stderr,
            )
            ok = False
        if chaos["deadline_kills"] != chaos["faults"]["deadline_kill_wave"]:
            print(
                f"SERVE MISS: only {chaos['deadline_kills']} of "
                f"{chaos['faults']['deadline_kill_wave']} hopeless-deadline "
                f"queries died with a deadline reason",
                file=sys.stderr,
            )
            ok = False
        if not chaos["recovered_ok"]:
            print(
                "SERVE MISS: breaker did not recover after faults stopped",
                file=sys.stderr,
            )
            ok = False
        if not chaos["ledger"]["balanced"]:
            print(
                f"SERVE MISS: silent drop under chaos — "
                f"ledger {chaos['ledger']}",
                file=sys.stderr,
            )
            ok = False
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small scale, single repeat (CI smoke run)",
    )
    parser.add_argument(
        "--storage",
        action="store_true",
        help=(
            "run the storage-v2 suite (scan pruning, compression, "
            "out-of-core budget, v1/v2 bit-identity) instead of the "
            "kernel sweep"
        ),
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help=(
            "run the streaming-plane suite (sustained throughput, "
            "incremental-vs-recompute speedup, window-close convergence) "
            "instead of the kernel sweep"
        ),
    )
    parser.add_argument(
        "--durability",
        action="store_true",
        help=(
            "run the durable-streaming chaos suite (WAL overhead ratio, "
            "kill-point recovery convergence, fleet worker murder) "
            "instead of the kernel sweep"
        ),
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help=(
            "run the query-service SLO suite (golden bit-identity of "
            "served answers, bounded stress P99, explicit shedding, "
            "zero silent drops) instead of the kernel sweep"
        ),
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "with --serve: add the fault-injection variant (breaker trip "
            "+ stale-marked degradation + deadline kill wave + recovery)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=(
            "output JSON path (default: repo-root BENCH_kernels.json, "
            "BENCH_storage.json with --storage, BENCH_streaming.json "
            "with --streaming, BENCH_durability.json with --durability, "
            "or BENCH_serve.json with --serve)"
        ),
    )
    args = parser.parse_args(argv)
    repo_root = Path(__file__).resolve().parents[1]

    if sum((args.storage, args.streaming, args.durability, args.serve)) > 1:
        parser.error(
            "--storage, --streaming, --durability and --serve are "
            "mutually exclusive"
        )
    if args.chaos and not args.serve:
        parser.error("--chaos only applies to the --serve suite")

    if args.serve:
        out = args.out or repo_root / "BENCH_serve.json"
        body = measure_serve(args.quick, args.chaos)
        payload = {
            "generated": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
            **body,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
        return 0 if check_serve(body, args.quick) else 1

    if args.durability:
        out = args.out or repo_root / "BENCH_durability.json"
        body = measure_durability(args.quick)
        payload = {
            "generated": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
            **body,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
        return 0 if check_durability(body, args.quick) else 1

    if args.streaming:
        out = args.out or repo_root / "BENCH_streaming.json"
        body = measure_streaming(args.quick)
        payload = {
            "generated": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
            **body,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
        return 0 if check_streaming(body, args.quick) else 1

    if args.storage:
        out = args.out or repo_root / "BENCH_storage.json"
        repeats = 1 if args.quick else 3
        body = measure_storage(args.quick, repeats)
        payload = {
            "generated": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
            **body,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
        return 0 if check_storage(body, args.quick) else 1

    out = args.out or repo_root / "BENCH_kernels.json"
    scales = QUICK_SCALES if args.quick else FULL_SCALES
    repeats = 1 if args.quick else 3
    rows = measure(scales, repeats)
    payload = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "hours": N_HOURS,
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "parallel_jobs": PARALLEL_JOBS,
        "parallel_measured": parallel_measurable(),
        "min_speedup_floor": MIN_SPEEDUP,
        "results": rows,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if check_floor(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
