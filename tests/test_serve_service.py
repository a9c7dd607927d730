"""End-to-end tests of the query service over real sockets.

Each test boots a :class:`QueryService` on an ephemeral port, talks to
it with :class:`ServeClient` through the actual wire protocol, and
asserts the failure-first contracts: golden bit-identity of served
results, explicit rejections under overload, deadline fail-fast in the
queue, breaker trip -> stale-marked degradation -> probe recovery, and
cache invalidation on ingest.
"""

from __future__ import annotations

import asyncio
import gc
import json
import weakref

import pytest

from repro.core.benchmark import BenchmarkSpec, Task, run_task_reference
from repro.datagen.seed import SeedConfig, make_seed_dataset
from repro.serve import QueryService, ServeConfig
from repro.serve.admission import AdmissionConfig
from repro.serve.breaker import BreakerConfig
from repro.serve.client import ServeClient
from repro.serve.executor import serialize_task_results
from repro.serve.protocol import read_frame, write_frame


def _dataset(n=12, days=21, seed=5):
    return make_seed_dataset(
        SeedConfig(n_consumers=n, n_hours=days * 24, seed=seed)
    )


def run(coro):
    return asyncio.run(coro)


async def _boot(tmp_path, data, config=None):
    service = QueryService.from_dataset(data, tmp_path / "store", config)
    await service.start()
    client = await ServeClient.connect("127.0.0.1", service.port)
    return service, client


async def _shutdown(service, client):
    await client.close()
    await service.stop()


async def _raw_roundtrip(service, payload):
    """Send one raw frame, collect frames until the final one."""
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    try:
        await write_frame(writer, payload)
        frames = []
        while True:
            frame = await asyncio.wait_for(read_frame(reader), timeout=30.0)
            assert frame is not None, "connection closed without a final frame"
            frames.append(frame)
            if frame.get("kind") == "final":
                return frames
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestBasicOps:
    def test_ping_stats_and_bad_requests(self, tmp_path):
        async def body():
            service, client = await _boot(tmp_path, _dataset())
            try:
                pong = await client.request("ping")
                assert pong.ok and pong.result["pong"] is True

                stats = await client.request("stats")
                assert stats.result["n_households"] == 12
                assert stats.result["dataset_version"] == 0

                bad = await client.request("task", {"task": "nope"})
                assert bad.status == "error" and bad.reason == "bad_request"

                bad_sql = await client.request(
                    "sql", {"sql": "SELECT nothing FROM nowhere"}
                )
                assert bad_sql.status == "error"
                assert bad_sql.reason == "execution_error"
            finally:
                await _shutdown(service, client)

        run(body())

    def test_served_results_are_golden_bit_identical(self, tmp_path):
        """The SLO spot check: wire answers == golden engine answers."""
        async def body():
            data = _dataset()
            service, client = await _boot(tmp_path, data)
            try:
                for task in (Task.HISTOGRAM, Task.THREELINE,
                             Task.PAR, Task.SIMILARITY):
                    response = await client.request(
                        "task", {"task": task.value}, deadline_ms=60_000
                    )
                    assert response.ok, response.final
                    golden = serialize_task_results(
                        task,
                        run_task_reference(
                            data, task, BenchmarkSpec(kernel="batched")
                        ),
                    )
                    # Through JSON both ways: floats must survive exactly.
                    assert response.result["results"] == json.loads(
                        json.dumps(golden)
                    )
            finally:
                await _shutdown(service, client)

        run(body())

    def test_sql_rows_stream_before_the_final_frame(self, tmp_path):
        async def body():
            service, client = await _boot(tmp_path, _dataset())
            try:
                response = await client.request(
                    "sql",
                    {"sql": "SELECT household_id, AVG(consumption) AS a "
                            "FROM readings GROUP BY household_id"},
                    deadline_ms=60_000,
                )
                assert response.ok
                assert len(response.rows) == response.result["row_count"] == 12
                assert response.result["rows"] is None
                assert response.ttfr_s <= response.total_s
            finally:
                await _shutdown(service, client)

        run(body())

    def test_explicit_null_deadline_uses_the_default(self, tmp_path):
        """`"deadline_ms": null` passes validation; it must mean "use
        the default", not a TypeError that kills the connection with the
        request unanswered (a silent drop)."""
        async def body():
            service, client = await _boot(tmp_path, _dataset())
            try:
                frames = await _raw_roundtrip(service, {
                    "id": "nul", "op": "task", "tenant": "default",
                    "params": {"task": "histogram"}, "deadline_ms": None,
                })
                assert frames[-1]["status"] == "ok"
                assert service.requests_received == service.responses_sent
            finally:
                await _shutdown(service, client)

        run(body())

    def test_append_days_bad_seed_is_bad_request(self, tmp_path):
        """A non-int seed must be an error frame, not an exception that
        tears down the connection without a response."""
        async def body():
            service, client = await _boot(tmp_path, _dataset())
            try:
                bad = await client.request(
                    "append_days", {"days": 1, "seed": "x"},
                    deadline_ms=60_000,
                )
                assert bad.status == "error"
                assert bad.reason == "bad_request"
                assert "seed" in bad.final["message"]
                assert service.requests_received == service.responses_sent
            finally:
                await _shutdown(service, client)

        run(body())


class TestCacheAndInvalidation:
    def test_second_identical_query_is_a_fresh_cache_hit(self, tmp_path):
        async def body():
            service, client = await _boot(tmp_path, _dataset())
            try:
                first = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000
                )
                second = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000
                )
                assert first.final["cached"] is False
                assert second.final["cached"] is True
                assert second.stale is False
                assert second.result == first.result
                assert service.cache.stats()["hits"] == 1
            finally:
                await _shutdown(service, client)

        run(body())

    def test_sql_cache_hit_restreams_the_rows(self, tmp_path):
        """A cached SQL answer must deliver the same row frames as the
        live execution — caching the rowless wire payload would answer
        repeats with row_count=N and zero rows."""
        async def body():
            service, client = await _boot(tmp_path, _dataset())
            try:
                sql = ("SELECT household_id, AVG(consumption) AS a "
                       "FROM readings GROUP BY household_id")
                first = await client.request(
                    "sql", {"sql": sql}, deadline_ms=60_000
                )
                second = await client.request(
                    "sql", {"sql": sql}, deadline_ms=60_000
                )
                assert first.final["cached"] is False
                assert second.final["cached"] is True
                assert second.result["rows"] is None  # streamed, as live
                assert second.result["row_count"] == 12
                assert second.rows == first.rows
                assert len(second.rows) == 12
            finally:
                await _shutdown(service, client)

        run(body())

    def test_sql_degraded_stale_hit_restreams_the_rows(self, tmp_path):
        """The breaker-open stale tier must also re-stream SQL rows."""
        async def body():
            config = ServeConfig(
                breaker=BreakerConfig(window=4, min_samples=2,
                                      trip_ratio=0.5, cooldown_s=60.0),
            )
            service, client = await _boot(tmp_path, _dataset(), config)
            try:
                sql = "SELECT COUNT(*) AS n FROM readings"
                primed = await client.request(
                    "sql", {"sql": sql}, deadline_ms=60_000
                )
                assert primed.ok and len(primed.rows) == 1
                # Make the cached entry stale, then trip the sql breaker.
                await client.request(
                    "append_days", {"days": 1}, deadline_ms=60_000
                )
                service.inject_failures("sql", 2)
                for _ in range(2):
                    await client.request(
                        "sql", {"sql": "SELECT household_id FROM readings"},
                        deadline_ms=60_000, allow_stale=False,
                    )
                assert service.breakers["sql"].state == "open"

                degraded = await client.request(
                    "sql", {"sql": sql}, deadline_ms=60_000
                )
                assert degraded.ok
                assert degraded.stale is True
                assert degraded.final["degraded"] == "circuit_open"
                assert degraded.rows == primed.rows
                assert degraded.result["rows"] is None
            finally:
                await _shutdown(service, client)

        run(body())

    def test_append_days_bumps_version_and_invalidates(self, tmp_path):
        async def body():
            service, client = await _boot(tmp_path, _dataset())
            try:
                before = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000
                )
                appended = await client.request(
                    "append_days", {"days": 2, "seed": 77},
                    deadline_ms=60_000,
                )
                assert appended.ok
                assert appended.result["dataset_version"] == 1
                assert appended.result["entries_invalidated"] == 1

                after = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000
                )
                # Recomputed (not served from the stale entry) and
                # different: two extra days moved the histograms.
                assert after.final["cached"] is False
                assert after.result != before.result
            finally:
                await _shutdown(service, client)

        run(body())


class TestAdmissionOverWire:
    def test_rate_limited_rejection_is_explicit(self, tmp_path):
        async def body():
            config = ServeConfig(
                admission=AdmissionConfig(rate_per_s=1.0, burst=2.0)
            )
            service, client = await _boot(tmp_path, _dataset(), config)
            try:
                responses = [
                    await client.request("task", {"task": "histogram"},
                                         deadline_ms=60_000,
                                         allow_stale=False)
                    for _ in range(4)
                ]
                statuses = [r.status for r in responses]
                assert statuses.count("rejected") == 2
                rejected = [r for r in responses if r.status == "rejected"]
                assert all(r.reason == "rate_limited" for r in rejected)
                assert all(
                    r.final["retry_after_s"] > 0 for r in rejected
                )
                # Zero silent drops: every request got a final frame.
                stats = await client.request("stats")
                assert (
                    stats.result["requests_received"]
                    == stats.result["responses_sent"] + 1  # stats itself
                )
            finally:
                await _shutdown(service, client)

        run(body())

    def test_queue_wait_past_deadline_fails_fast(self, tmp_path):
        async def body():
            config = ServeConfig(n_workers=1)
            service, client = await _boot(tmp_path, _dataset(), config)
            try:
                # Hold the only worker slot so the query can never start.
                await service._slots.acquire()
                task = asyncio.create_task(client.request(
                    "task", {"task": "histogram"}, deadline_ms=300,
                    allow_stale=False,
                ))
                await asyncio.sleep(0.6)  # deadline passes while queued
                service._slots.release()
                response = await task
                assert response.status == "error"
                assert response.reason == "deadline_exceeded_in_queue"
                # It never consumed worker time.
                assert service.executor.blocks_executed == 0
            finally:
                await _shutdown(service, client)

        run(body())


class TestBreakerDegradation:
    def test_trip_serves_stale_then_probes_recover(self, tmp_path):
        async def body():
            config = ServeConfig(
                breaker=BreakerConfig(
                    window=4, min_samples=2, trip_ratio=0.5,
                    cooldown_s=0.3, probe_successes=1,
                ),
            )
            service, client = await _boot(tmp_path, _dataset(), config)
            try:
                # Prime the cache, then make it stale via ingest.
                primed = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000
                )
                assert primed.ok
                await client.request(
                    "append_days", {"days": 1}, deadline_ms=60_000
                )
                # One injected failure trips the breaker: the window
                # already holds the primed success, so [ok, fail] hits
                # min_samples=2 at exactly the 0.5 trip ratio.
                service.inject_failures("task:histogram", 1)
                failed = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000,
                    allow_stale=False,
                )
                assert failed.status == "error"
                assert failed.reason == "execution_error"
                breaker = service.breakers["task:histogram"]
                assert breaker.state == "open"

                # Open breaker + allow_stale: the stale tier answers,
                # explicitly marked.
                degraded = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000
                )
                assert degraded.ok
                assert degraded.stale is True
                assert degraded.final["degraded"] == "circuit_open"
                assert degraded.result == primed.result

                # Open breaker + allow_stale=False: fail fast.
                fast = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000,
                    allow_stale=False,
                )
                assert fast.status == "error"
                assert fast.reason == "circuit_open"

                # After the cooldown a probe runs for real and closes it.
                await asyncio.sleep(0.35)
                probe = await client.request(
                    "task", {"task": "histogram"}, deadline_ms=60_000,
                    allow_stale=False,
                )
                assert probe.ok and probe.final["cached"] is False
                assert breaker.state == "closed"
            finally:
                await _shutdown(service, client)

        run(body())

    def test_other_query_classes_unaffected_by_open_breaker(self, tmp_path):
        async def body():
            config = ServeConfig(
                breaker=BreakerConfig(window=4, min_samples=2,
                                      trip_ratio=0.5, cooldown_s=60.0),
            )
            service, client = await _boot(tmp_path, _dataset(), config)
            try:
                service.inject_failures("task:histogram", 2)
                for _ in range(2):
                    await client.request(
                        "task", {"task": "histogram"}, deadline_ms=60_000,
                        allow_stale=False,
                    )
                assert service.breakers["task:histogram"].state == "open"
                fine = await client.request(
                    "task", {"task": "threeline"}, deadline_ms=60_000
                )
                assert fine.ok
            finally:
                await _shutdown(service, client)

        run(body())


class TestDisconnect:
    def test_disconnected_client_cancels_inflight_work(self, tmp_path):
        async def body():
            # One consumer per block -> many cancellation points.
            config = ServeConfig(block_consumers=1)
            data = _dataset(n=24, days=28)
            service, client = await _boot(tmp_path, data, config)
            try:
                payload = {
                    "id": "dying", "op": "task", "tenant": "default",
                    "params": {"task": "par"}, "deadline_ms": 60_000,
                }
                from repro.serve.protocol import write_frame

                await write_frame(client._writer, payload)
                # Give the service time to admit and start executing,
                # then vanish without reading the response.
                await asyncio.sleep(0.05)
                await client.close()
                deadline = asyncio.get_event_loop().time() + 10.0
                while (
                    service.executor.blocks_cancelled == 0
                    and service.responses_sent < 1
                    and asyncio.get_event_loop().time() < deadline
                ):
                    await asyncio.sleep(0.02)
                # Either the cancel landed between blocks (counted), or
                # the task finished first — but the response ledger must
                # still balance: exactly one final frame was produced.
                assert service.responses_sent >= 1 or (
                    service.executor.blocks_cancelled > 0
                )
            finally:
                await service.stop()

        run(body())


class TestLifecycle:
    def test_stop_releases_the_executor(self, tmp_path):
        async def body():
            service, client = await _boot(tmp_path, _dataset())
            sql = await client.request(
                "sql", {"sql": "SELECT household_id, AVG(consumption) "
                               "FROM readings GROUP BY household_id"},
            )
            sim = await client.request("task", {"task": "similarity"})
            assert sql.ok and sim.ok
            await _shutdown(service, client)
            return service

        service = run(body())
        assert service.executor.store._commit_listeners == []
        executor = weakref.ref(service.executor)
        # Without cycles a stopped service (and its executor's cached
        # views) is freed by reference counting alone.
        gc.disable()
        try:
            del service
            assert executor() is None
        finally:
            gc.enable()

    def test_restarts_on_one_store_leave_one_listener(self, tmp_path):
        service = QueryService.from_dataset(_dataset(), tmp_path / "store")
        store = service.executor.store

        async def body():
            nonlocal service
            await service.start()
            for _ in range(5):
                await service.stop()
                service = QueryService(store, "readings")
                await service.start()
            assert store._commit_listeners == [
                service.executor._on_store_commit
            ]
            await service.stop()

        run(body())
        assert store._commit_listeners == []
