"""Unit tests of the serve building blocks: admission, breaker, cache,
protocol, and the block-wise cancellable executor.

The load-bearing invariant is **golden bit-identity**: the executor's
block-wise task results (what the service caches and serves) must equal
the whole-matrix reference run exactly — float for float — including
after a JSON round trip, because the SLO harness spot-checks served
answers against golden engine output by equality.
"""

from __future__ import annotations

import asyncio
import json
import tempfile

import pytest

from repro.columnar.partstore import PartitionedStore
from repro.core.benchmark import BenchmarkSpec, Task, run_task_reference
from repro.datagen.seed import SeedConfig, make_seed_dataset
from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    ProtocolError,
    QueryCancelledError,
)
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    CacheConfig,
    CancelToken,
    CircuitBreaker,
    QueryExecutor,
    ResultCache,
    TokenBucket,
    encode_frame,
    query_fingerprint,
    read_frame,
)
from repro.serve.executor import serialize_task_results
from repro.serve.protocol import validate_request


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# --------------------------------------------------------------------------
# Token bucket
# --------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(3)] == [None] * 3
        retry = bucket.try_take()
        assert retry is not None and retry > 0

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0, clock=clock)
        bucket.try_take()
        bucket.try_take()
        assert bucket.try_take() == pytest.approx(0.1)
        clock.advance(0.1)
        assert bucket.try_take() is None

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=5.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(5.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1.0)


# --------------------------------------------------------------------------
# Admission control + WFQ
# --------------------------------------------------------------------------

def _controller(**kwargs) -> tuple[AdmissionController, FakeClock]:
    clock = FakeClock()
    defaults = dict(rate_per_s=1000.0, burst=1000.0, queue_depth=100,
                    shed_threshold=1000)
    defaults.update(kwargs)
    return AdmissionController(AdmissionConfig(**defaults), clock=clock), clock


class TestAdmission:
    def test_fifo_within_one_tenant(self):
        controller, _ = _controller()
        for i in range(5):
            controller.offer("a", i)
        assert [controller.take() for _ in range(5)] == list(range(5))
        assert controller.take() is None

    def test_weighted_fair_interleaving(self):
        """Weight 2 gets two queries served for each of weight 1's."""
        controller, _ = _controller(weights={"heavy": 2.0, "light": 1.0})
        for i in range(6):
            controller.offer("heavy", ("heavy", i))
        for i in range(6):
            controller.offer("light", ("light", i))
        first_six = [controller.take()[0] for _ in range(6)]
        assert first_six.count("heavy") == 4
        assert first_six.count("light") == 2

    def test_flooding_tenant_cannot_starve_other(self):
        controller, _ = _controller()
        for i in range(50):
            controller.offer("flood", ("flood", i))
        controller.offer("meek", ("meek", 0))
        served = [controller.take()[0] for _ in range(4)]
        # Equal weights: the meek tenant's first query is served long
        # before the flooder's backlog drains.
        assert "meek" in served

    def test_idle_tenant_share_is_redistributed(self):
        controller, _ = _controller()
        for i in range(3):
            controller.offer("only", i)
        assert [controller.take() for _ in range(3)] == [0, 1, 2]

    def test_queue_depth_rejection(self):
        controller, _ = _controller(queue_depth=2)
        controller.offer("a", 0)
        controller.offer("a", 1)
        with pytest.raises(AdmissionError) as exc_info:
            controller.offer("a", 2)
        assert exc_info.value.reason == "queue_full"
        assert controller.rejections["queue_full"] == 1
        # Another tenant still has room.
        controller.offer("b", 0)

    def test_shed_threshold_rejection(self):
        controller, _ = _controller(shed_threshold=3)
        for i in range(3):
            controller.offer("a", i)
        with pytest.raises(AdmissionError) as exc_info:
            controller.offer("b", 0)
        assert exc_info.value.reason == "overloaded"

    def test_rate_limit_rejection_carries_retry_after(self):
        controller, _ = _controller(rate_per_s=10.0, burst=1.0)
        controller.offer("a", 0)
        with pytest.raises(AdmissionError) as exc_info:
            controller.offer("a", 1)
        assert exc_info.value.reason == "rate_limited"
        assert exc_info.value.retry_after_s == pytest.approx(0.1)

    def test_stats_shape(self):
        controller, _ = _controller()
        controller.offer("a", 0)
        stats = controller.stats()
        assert stats["backlog"] == 1
        assert stats["admitted"] == 1
        assert stats["tenants"]["a"]["queued"] == 1


# --------------------------------------------------------------------------
# Circuit breaker
# --------------------------------------------------------------------------

def _breaker(**kwargs) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    defaults = dict(window=8, min_samples=4, trip_ratio=0.5,
                    cooldown_s=2.0, probe_successes=2)
    defaults.update(kwargs)
    return CircuitBreaker(BreakerConfig(**defaults), clock=clock), clock


class TestCircuitBreaker:
    def test_trips_at_failure_ratio(self):
        breaker, _ = _breaker()
        for _ in range(2):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()  # 2 failures / 4 samples = 0.5 -> trip
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_needs_min_samples_before_tripping(self):
        breaker, _ = _breaker(min_samples=4)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_opens_after_cooldown_and_limits_probes(self):
        breaker, clock = _breaker(probe_limit=1)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(2.1)
        assert breaker.allow()  # the probe slot
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time

    def test_probe_successes_close_the_breaker(self):
        breaker, clock = _breaker()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(2.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "half_open"  # needs 2 wins
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        # The window was cleared: old failures cannot re-trip it.
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = _breaker()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(2.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()
        clock.advance(2.1)
        assert breaker.allow()  # half-open again

    def test_abandoned_calls_record_no_outcome(self):
        """Client disconnects are health-neutral: they must neither
        trip a closed breaker nor leak a half-open probe slot."""
        breaker, clock = _breaker()
        for _ in range(3):
            breaker.record_abandoned()  # e.g. clients vanishing
        breaker.record_failure()
        assert breaker.state == "closed"  # 1 failure / 1 sample, not 4
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(2.1)
        assert breaker.allow()  # claims the probe slot
        breaker.record_abandoned()  # probe's client vanished
        assert breaker.state == "half_open"  # not re-opened
        assert breaker.allow()  # the slot was released, not leaked
        breaker.record_success()
        breaker.record_success()
        assert breaker.state == "closed"


# --------------------------------------------------------------------------
# Result cache
# --------------------------------------------------------------------------

class TestResultCache:
    def test_fingerprint_is_order_insensitive(self):
        a = query_fingerprint("task", {"task": "par", "x": 1})
        b = query_fingerprint("task", {"x": 1, "task": "par"})
        assert a == b
        assert a != query_fingerprint("task", {"task": "histogram"})

    def test_fresh_hit_and_miss(self):
        cache = ResultCache(CacheConfig(), clock=FakeClock())
        cache.put("f", 0, {"answer": 42})
        assert cache.get("f", 0) == ({"answer": 42}, False)
        assert cache.get("g", 0) is None

    def test_version_bump_makes_entries_stale_not_gone(self):
        cache = ResultCache(CacheConfig(), clock=FakeClock())
        cache.put("f", 0, "old")
        assert cache.note_version_bump(1) == 1
        assert cache.get("f", 1) is None  # not fresh any more
        assert cache.get("f", 1, allow_stale=True) == ("old", True)
        assert cache.stats()["stale_hits"] == 1

    def test_ttl_expiry_downgrades_to_stale(self):
        clock = FakeClock()
        cache = ResultCache(CacheConfig(ttl_s=10.0, max_stale_s=100.0),
                            clock=clock)
        cache.put("f", 0, "v")
        clock.advance(11.0)
        assert cache.get("f", 0) is None
        assert cache.get("f", 0, allow_stale=True) == ("v", True)

    def test_max_stale_evicts(self):
        clock = FakeClock()
        cache = ResultCache(CacheConfig(ttl_s=1.0, max_stale_s=5.0),
                            clock=clock)
        cache.put("f", 0, "v")
        clock.advance(6.0)
        assert cache.get("f", 0, allow_stale=True) is None
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = ResultCache(CacheConfig(max_entries=2), clock=FakeClock())
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) is not None  # refresh a
        cache.put("c", 0, 3)
        assert cache.get("b", 0) is None  # b was least recently used
        assert cache.get("a", 0) is not None
        assert cache.get("c", 0) is not None


# --------------------------------------------------------------------------
# Wire protocol
# --------------------------------------------------------------------------

def _read(data: bytes):
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return asyncio.get_event_loop_policy().new_event_loop().run_until_complete(
        read_frame(reader)
    )


class TestProtocol:
    def test_roundtrip(self):
        payload = {"id": "q1", "op": "ping", "params": {"x": [1.5, 2.5]}}
        assert _read(encode_frame(payload)) == payload

    def test_clean_eof_returns_none(self):
        assert _read(b"") is None

    def test_truncated_frame_is_protocol_error(self):
        frame = encode_frame({"id": "q1", "op": "ping"})
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read(frame[:-3])

    def test_oversize_frame_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            _read(b"\xff\xff\xff\xff")

    def test_float64_survives_the_wire_exactly(self):
        values = [0.1, 1 / 3, 2**-52, 1e300, -7.234567890123456e-12]
        frame = encode_frame({"id": "q", "op": "ping",
                              "params": {"v": values}})
        assert _read(frame)["params"]["v"] == values

    @pytest.mark.parametrize("bad, match", [
        ({"op": "ping"}, "id"),
        ({"id": "q", "op": "nope"}, "op"),
        ({"id": "q", "op": "ping", "tenant": 7}, "tenant"),
        ({"id": "q", "op": "ping", "deadline_ms": -5}, "deadline_ms"),
        ({"id": "q", "op": "ping", "params": []}, "params"),
    ])
    def test_validate_rejects(self, bad, match):
        with pytest.raises(ProtocolError, match=match):
            validate_request(bad)


# --------------------------------------------------------------------------
# Cancel token + block-wise executor
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    """A small ingested table + executor with multi-block execution."""
    data = make_seed_dataset(
        SeedConfig(n_consumers=10, n_hours=24 * 28, seed=11)
    )
    store = PartitionedStore(tmp_path_factory.mktemp("serve-store"))
    store.ingest_dataset(data, name="readings")
    executor = QueryExecutor(
        store, "readings", block_consumers=4, kernel="batched"
    )
    return data, executor


class TestCancelToken:
    def test_check_passes_without_deadline(self):
        CancelToken().check()

    def test_expired_deadline_raises(self):
        token = CancelToken(deadline=-1.0)
        with pytest.raises(DeadlineExceededError):
            token.check()
        assert token.cancelled and token.reason == "deadline"

    def test_cancel_reason_raises_cancelled(self):
        token = CancelToken()
        token.cancel("client_disconnected")
        with pytest.raises(QueryCancelledError, match="client_disconnected"):
            token.check()


class TestBlockIdentity:
    """Block-wise serving == whole-matrix reference, bit for bit."""

    @pytest.mark.parametrize(
        "task", [Task.HISTOGRAM, Task.THREELINE, Task.PAR, Task.SIMILARITY]
    )
    def test_task_results_match_reference_exactly(self, served_store, task):
        data, executor = served_store
        served, audit = executor.run_task(task, CancelToken())
        golden = serialize_task_results(
            task, run_task_reference(data, task, BenchmarkSpec(kernel="batched"))
        )
        assert served == golden
        # ... and exactly through a JSON round trip (the wire format).
        assert json.loads(json.dumps(served)) == golden
        if task is not Task.SIMILARITY:
            assert audit["blocks_total"] == 3  # 10 consumers / blocks of 4
            assert audit["blocks_done"] == audit["blocks_total"]

    def test_cancellation_stops_between_blocks(self, served_store,
                                               monkeypatch):
        from repro.serve import executor as executor_module

        data, _ = served_store
        executor = QueryExecutor(
            _rebuild_store(data), "readings",
            block_consumers=4, kernel="batched",
        )
        token = CancelToken()
        real = executor_module.iter_consumer_blocks

        def cancelling_blocks(*args, **kwargs):
            for i, block in enumerate(real(*args, **kwargs)):
                yield block
                token.cancel("client_disconnected")  # after the 1st block

        monkeypatch.setattr(
            executor_module, "iter_consumer_blocks", cancelling_blocks
        )
        with pytest.raises(QueryCancelledError):
            executor.run_task(Task.HISTOGRAM, token)
        assert executor.blocks_executed == 1
        assert executor.blocks_cancelled == 2  # 3 planned - 1 done

    def test_sql_pages_preserve_order_and_content(self, served_store):
        data, executor = served_store
        pages: list[list] = []
        out = executor.run_sql(
            "SELECT household_id, AVG(consumption) AS avg_load "
            "FROM readings GROUP BY household_id",
            CancelToken(),
            on_rows=pages.append,
        )
        assert out["rows"] is None  # streamed, not duplicated
        rows = [row for page in pages for row in page]
        assert out["row_count"] == len(rows) == len(data.consumer_ids)
        flat = executor.run_sql(
            "SELECT household_id, AVG(consumption) AS avg_load "
            "FROM readings GROUP BY household_id",
            CancelToken(),
        )
        assert rows == flat["rows"]

    def test_version_bump_invalidates_cached_views(self, served_store):
        data, executor = served_store
        v0 = executor.dataset_version
        before = executor.run_task(Task.HISTOGRAM, CancelToken())[0]
        batch = make_seed_dataset(
            SeedConfig(n_consumers=10, n_hours=24, seed=99)
        )
        batch = type(data)(
            consumer_ids=list(data.consumer_ids),
            consumption=batch.consumption,
            temperature=batch.temperature,
        )
        executor.store.append_days("readings", batch)
        # The store's commit listener already refreshed the executor —
        # no explicit refresh() needed to see the new version.
        assert executor.dataset_version == v0 + 1
        after = executor.run_task(Task.HISTOGRAM, CancelToken())[0]
        assert after != before  # the new day moved the histograms

    def test_store_commit_listener_fires_per_commit(self, tmp_path):
        store = PartitionedStore(tmp_path / "hooked")
        commits = []
        store.on_commit(lambda name, commit: commits.append((name, commit)))
        data = make_seed_dataset(
            SeedConfig(n_consumers=4, n_hours=48, seed=3)
        )
        store.ingest_dataset(data, name="readings")
        batch = make_seed_dataset(
            SeedConfig(n_consumers=4, n_hours=24, seed=4)
        )
        batch = type(data)(
            consumer_ids=list(data.consumer_ids),
            consumption=batch.consumption,
            temperature=batch.temperature,
        )
        store.append_days("readings", batch, epoch=1)
        # An epoch redelivery commits nothing and must not fire.
        store.append_days("readings", batch, epoch=1)
        assert commits == [("readings", 0), ("readings", 1)]

    def test_store_commit_listener_unsubscribes(self, tmp_path):
        store = PartitionedStore(tmp_path / "hooked")
        commits = []
        unsubscribe = store.on_commit(
            lambda name, commit: commits.append(commit)
        )
        data = make_seed_dataset(
            SeedConfig(n_consumers=4, n_hours=48, seed=3)
        )
        store.ingest_dataset(data, name="readings")
        unsubscribe()
        unsubscribe()  # idempotent
        store.append_days("readings", _next_day(data, seed=4))
        assert commits == [0]
        assert store._commit_listeners == []

    def test_close_releases_the_store_listener_and_views(self, tmp_path):
        data = make_seed_dataset(
            SeedConfig(n_consumers=4, n_hours=48, seed=3)
        )
        store = PartitionedStore(tmp_path / "closing")
        store.ingest_dataset(data, name="readings")
        executor = QueryExecutor(store, "readings")
        executor.run_sql("SELECT count(*) FROM readings", CancelToken())
        assert store._commit_listeners == [executor._on_store_commit]
        executor.close()
        executor.close()  # idempotent
        assert store._commit_listeners == []
        assert executor._dataset is None and executor._sql_views is None

    def test_sql_leaves_no_temp_directories(self, tmp_path, monkeypatch):
        # The heap engine's Database puts its pages in a repro_db_* temp
        # directory; served SQL must read the version's columns instead.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        data = make_seed_dataset(
            SeedConfig(n_consumers=5, n_hours=72, seed=8)
        )
        store = PartitionedStore(tmp_path / "store")
        store.ingest_dataset(data, name="readings")
        executor = QueryExecutor(store, "readings")
        sql = (
            "SELECT household_id, AVG(consumption) AS avg_load "
            "FROM readings GROUP BY household_id"
        )
        first = executor.run_sql(sql, CancelToken())["rows"]
        store.append_days("readings", _next_day(data, seed=9))
        second = executor.run_sql(sql, CancelToken())["rows"]
        assert executor.dataset_version == 1
        assert first != second
        assert not list(tmp_path.glob("repro_db_*"))


def _next_day(data, seed):
    """One more day of readings for the households of ``data``."""
    day = make_seed_dataset(
        SeedConfig(n_consumers=data.n_consumers, n_hours=24, seed=seed)
    )
    return type(data)(
        consumer_ids=list(data.consumer_ids),
        consumption=day.consumption,
        temperature=day.temperature,
    )


def _rebuild_store(data):
    import tempfile

    root = tempfile.mkdtemp(prefix="serve-cancel-")
    store = PartitionedStore(root)
    store.ingest_dataset(data, name="readings")
    return store
