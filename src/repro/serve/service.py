"""The asyncio query service: admission → breaker → cache → kernel.

One :class:`QueryService` owns one v2 store table and serves the SQL
subset plus the four benchmark tasks over the length-prefixed JSON
protocol (:mod:`repro.serve.protocol`).  The request path is designed
around failure first:

1. **admission** (connection handler) — per-tenant token bucket,
   bounded tenant queue, global shed threshold.  Rejections are
   explicit final frames with ``status="rejected"`` and a reason; a
   shed query may instead be answered from *stale* cache (marked);
2. **dispatch** (WFQ loop) — queries leave their tenant queues in
   weighted-fair order and wait for one of ``n_workers`` worker slots.
   A deadline that expires in the queue fails fast without ever
   touching a worker;
3. **breaker** — each query class has a circuit breaker fed by
   execution outcomes.  Open breaker: answer from cache as
   ``stale=true``, else fail fast with ``reason="circuit_open"``;
4. **cache** — fresh hits (same dataset version, within TTL) short-
   circuit execution entirely;
5. **execution** — worker threads run the block-wise cancellable
   kernels of :mod:`repro.serve.executor`; an expired deadline cancels
   the query at the next consumer-block boundary.

The no-silent-drop invariant: every request frame read off a connection
is answered by exactly one final frame (ok / rejected / error), and the
service counts both sides so the benchmark can audit it.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.columnar.partstore import PartitionedStore
from repro.core.benchmark import Task
from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    InjectedCrash,
    ProtocolError,
    QueryCancelledError,
    ReproError,
)
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.breaker import BreakerConfig, CircuitBreaker
from repro.serve.cache import CacheConfig, ResultCache, query_fingerprint
from repro.serve.executor import SQL_PAGE_ROWS, CancelToken, QueryExecutor
from repro.serve.protocol import read_frame, validate_request, write_frame
from repro.timeseries.series import Dataset

_TASKS = {t.value: t for t in Task}


@dataclass
class ServeConfig:
    """All service knobs in one bag (defaults fit the CI smoke scale)."""

    #: Worker threads running kernels (the concurrency of execution).
    n_workers: int = 2
    #: Consumer-block size of cancellable task execution.
    block_consumers: int = 64
    #: Kernel strategy of the per-consumer tasks.
    kernel: str = "batched"
    #: Default deadline applied when a request carries none.
    default_deadline_ms: float = 10_000.0
    #: May degraded paths serve stale cache unless the request opts out?
    allow_stale_default: bool = True
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)


class _Query:
    """One admitted query traveling from queue to worker to response."""

    __slots__ = (
        "request", "conn", "token", "t_recv", "t_dispatch", "qclass",
        "fingerprint",
    )

    def __init__(self, request: dict, conn: "_Connection",
                 token: CancelToken, qclass: str, fingerprint: str) -> None:
        self.request = request
        self.conn = conn
        self.token = token
        self.qclass = qclass
        self.fingerprint = fingerprint
        self.t_recv = time.monotonic()
        self.t_dispatch = self.t_recv


class _Connection:
    """Per-connection write lock + liveness for one client socket."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.open = True
        self.tokens: set[CancelToken] = set()

    async def send(self, payload: dict) -> bool:
        """Write one frame; False when the client is gone (audited,
        never raises into the query path)."""
        if not self.open:
            return False
        async with self.lock:
            try:
                await write_frame(self.writer, payload)
                return True
            except (ConnectionError, RuntimeError, OSError):
                self.open = False
                return False


class QueryService:
    """Serve one v2 store table to concurrent tenants with SLOs."""

    def __init__(
        self,
        store: PartitionedStore,
        table_name: str,
        config: ServeConfig | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.executor = QueryExecutor(
            store,
            table_name,
            block_consumers=self.config.block_consumers,
            kernel=self.config.kernel,
        )
        self.admission = AdmissionController(self.config.admission)
        self.cache = ResultCache(self.config.cache)
        self.breakers: dict[str, CircuitBreaker] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.n_workers,
            thread_name_prefix="serve-worker",
        )
        self._slots = asyncio.Semaphore(self.config.n_workers)
        self._wakeup = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        self._ingest_lock = asyncio.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inject: dict[str, int] = {}
        # The no-silent-drop ledger.
        self.requests_received = 0
        self.responses_sent = 0
        self.responses_by_status: dict[str, int] = {}
        self.client_gone = 0
        self._id = itertools.count()

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        root: str | Path,
        config: ServeConfig | None = None,
        table_name: str = "readings",
    ) -> "QueryService":
        """Bootstrap a service by ingesting ``dataset`` into a fresh store."""
        store = PartitionedStore(root)
        store.ingest_dataset(dataset, name=table_name)
        return cls(store, table_name, config)

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind, start accepting, start the WFQ dispatcher."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    @property
    def port(self) -> int:
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "service not started"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener and the dispatcher, then release the executor.

        The server and dispatcher references are dropped too: both hold
        bound methods of this service, and the cycles would keep a
        stopped service (and its executor's cached views) alive until
        the cyclic garbage collector ran.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.cancel()
            try:
                await dispatcher
            except asyncio.CancelledError:
                pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        self.executor.close()

    def breaker(self, qclass: str) -> CircuitBreaker:
        b = self.breakers.get(qclass)
        if b is None:
            b = self.breakers[qclass] = CircuitBreaker(self.config.breaker)
        return b

    def inject_failures(self, qclass: str, count: int) -> None:
        """Chaos hook: fail the next ``count`` executions of a class."""
        self._inject[qclass] = self._inject.get(qclass, 0) + count

    # -- ingest (the cache-invalidation path) ----------------------------

    async def ingest_batch(
        self, batch: Dataset, *, start_day: int | None = None,
        on_conflict: str = "error",
    ) -> dict[str, Any]:
        """Append whole days to the served table; bumps the dataset version.

        The store's commit listener (registered by the constructor's
        :class:`QueryExecutor`) is what ties ingest to invalidation:
        every entry cached against the old version is stale from here on.
        """
        async with self._ingest_lock:
            old_version = self.executor.dataset_version
            await asyncio.get_running_loop().run_in_executor(
                self._pool,
                lambda: self.executor.store.append_days(
                    self.executor.table_name, batch,
                    start_day=start_day, on_conflict=on_conflict,
                ),
            )
            # The store's commit listener (registered by the executor)
            # already re-opened the table on the ingesting thread.
            version = self.executor.dataset_version
            newly_stale = self.cache.note_version_bump(version)
        return {
            "dataset_version": version,
            "previous_version": old_version,
            "entries_invalidated": newly_stale,
            "n_days": self.executor.table.n_days,
        }

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    # Malformed framing: answer once, then hang up (the
                    # stream position is unrecoverable).
                    self.requests_received += 1
                    await self._respond(conn, {
                        "id": None, "kind": "final", "status": "error",
                        "reason": "protocol_error", "message": str(exc),
                    })
                    return
                if request is None:
                    return
                self.requests_received += 1
                try:
                    await self._accept(conn, request)
                except Exception as exc:  # noqa: BLE001 - ledger backstop
                    # No silent drops: whatever escapes admission still
                    # owes the client exactly one final frame.
                    await self._respond(conn, {
                        "id": request.get("id"), "kind": "final",
                        "status": "error", "reason": "internal_error",
                        "message": f"{type(exc).__name__}: {exc}",
                    })
        finally:
            conn.open = False
            # A vanished client must not keep burning cores.
            for token in conn.tokens:
                token.cancel("client_disconnected")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, conn: _Connection, payload: dict) -> None:
        status = payload.get("status", "ok")
        self.responses_sent += 1
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )
        if not await conn.send(payload):
            self.client_gone += 1

    async def _accept(self, conn: _Connection, request: dict) -> None:
        """Validate + admit one request frame; enqueue or answer now."""
        t0 = time.monotonic()
        try:
            validate_request(request)
        except ProtocolError as exc:
            await self._respond(conn, {
                "id": request.get("id"), "kind": "final",
                "status": "error", "reason": "bad_request",
                "message": str(exc),
            })
            return
        op = request["op"]
        params = request.get("params", {})
        if op == "ping":
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "ok",
                "result": {"pong": True,
                           "dataset_version": self.executor.dataset_version},
            })
            return
        if op == "stats":
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "ok",
                "result": self.stats(),
            })
            return
        if op == "append_days":
            await self._handle_append(conn, request)
            return
        if op == "task" and params.get("task") not in _TASKS:
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "error",
                "reason": "bad_request",
                "message": f"unknown task {params.get('task')!r}; "
                           f"expected one of {sorted(_TASKS)}",
            })
            return

        # An explicit ``"deadline_ms": null`` passes validation (None is
        # allowed) but must mean "use the default", not a TypeError.
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        token = CancelToken(deadline=t0 + deadline_ms / 1000.0)
        qclass = f"task:{params['task']}" if op == "task" else "sql"
        fingerprint = query_fingerprint(op, params)
        query = _Query(request, conn, token, qclass, fingerprint)
        tenant = request.get("tenant", "default")
        try:
            self.admission.offer(tenant, query)
        except AdmissionError as exc:
            allow_stale = request.get(
                "allow_stale", self.config.allow_stale_default
            )
            if exc.reason in ("overloaded", "queue_full") and allow_stale:
                # Degradation ladder: shed load onto yesterday's answer.
                hit = self.cache.get(
                    fingerprint, self.executor.dataset_version,
                    allow_stale=True,
                )
                if hit is not None:
                    await self._send_cached(
                        conn, request, hit[0],
                        stale=hit[1], degraded=exc.reason,
                    )
                    return
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "rejected",
                "reason": exc.reason, "message": str(exc),
                "retry_after_s": exc.retry_after_s,
            })
            return
        conn.tokens.add(token)
        self._wakeup.set()

    async def _handle_append(self, conn: _Connection, request: dict) -> None:
        """The wire ingest op (synthetic demo batch, see docs).

        Real ingest calls :meth:`ingest_batch` in-process; the wire op
        generates ``params["days"]`` seeded days for the table's cohort
        so remote clients can exercise invalidation end to end.
        """
        from repro.datagen.seed import SeedConfig, make_seed_dataset

        params = request.get("params", {})
        days = params.get("days", 1)
        if (isinstance(days, bool) or not isinstance(days, int)
                or not 1 <= days <= 366):
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "error",
                "reason": "bad_request",
                "message": f"'days' must be an int in [1, 366], got {days!r}",
            })
            return
        seed = params.get("seed", 997)
        if isinstance(seed, bool) or not isinstance(seed, int):
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "error",
                "reason": "bad_request",
                "message": f"'seed' must be an int, got {seed!r}",
            })
            return
        table = self.executor.table
        seeded = make_seed_dataset(SeedConfig(
            n_consumers=table.n_households,
            n_hours=days * 24,
            seed=seed,
        ))
        batch = Dataset(
            consumer_ids=list(table.dictionary),
            consumption=seeded.consumption,
            temperature=seeded.temperature,
            name="append",
        )
        try:
            result = await self.ingest_batch(batch)
        except ReproError as exc:
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "error",
                "reason": "ingest_error", "message": str(exc),
            })
            return
        await self._respond(conn, {
            "id": request["id"], "kind": "final", "status": "ok",
            "result": result,
        })

    # -- dispatch + execution --------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Move queries from tenant queues to worker slots, WFQ order."""
        while True:
            query = self.admission.take()
            if query is None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._slots.acquire()
            query.t_dispatch = time.monotonic()
            task = asyncio.create_task(self._process(query))
            task.add_done_callback(lambda _t: self._slots.release())

    def _timings(self, query: _Query, t_done: float) -> dict[str, float]:
        return {
            "queue_ms": round(
                (query.t_dispatch - query.t_recv) * 1e3, 3
            ),
            "exec_ms": round((t_done - query.t_dispatch) * 1e3, 3),
            "total_ms": round((t_done - query.t_recv) * 1e3, 3),
        }

    async def _process(self, query: _Query) -> None:
        """Breaker → cache → kernel for one dequeued query."""
        request, conn, token = query.request, query.conn, query.token
        version = self.executor.dataset_version
        allow_stale = request.get(
            "allow_stale", self.config.allow_stale_default
        )
        try:
            # Queue wait may have consumed the whole budget.
            remaining = token.remaining_s()
            if token.cancelled or (remaining is not None and remaining <= 0):
                await self._respond(conn, {
                    "id": request["id"], "kind": "final", "status": "error",
                    "reason": "deadline_exceeded_in_queue",
                    "message": "deadline expired before a worker was free",
                    "timings": self._timings(query, time.monotonic()),
                })
                return
            # Fresh cache hit costs no worker time and no breaker state.
            hit = self.cache.get(query.fingerprint, version)
            if hit is not None:
                await self._send_cached(
                    conn, request, hit[0], stale=False,
                    timings=self._timings(query, time.monotonic()),
                )
                return
            breaker = self.breaker(query.qclass)
            if not breaker.allow():
                stale_hit = self.cache.get(
                    query.fingerprint, version, allow_stale=True
                ) if allow_stale else None
                if stale_hit is not None:
                    await self._send_cached(
                        conn, request, stale_hit[0],
                        stale=stale_hit[1], degraded="circuit_open",
                        timings=self._timings(query, time.monotonic()),
                    )
                    return
                await self._respond(conn, {
                    "id": request["id"], "kind": "final", "status": "error",
                    "reason": "circuit_open",
                    "message": f"breaker for {query.qclass} is "
                               f"{breaker.state}; no cached result",
                    "timings": self._timings(query, time.monotonic()),
                })
                return
            await self._execute(query, breaker, version)
        finally:
            conn.tokens.discard(token)

    async def _execute(
        self, query: _Query, breaker: CircuitBreaker, version: int
    ) -> None:
        request, conn, token = query.request, query.conn, query.token
        loop = asyncio.get_running_loop()
        # The deadline timer: fires in the loop, cancels the token, and
        # the worker thread exits at its next block boundary.
        timer: asyncio.TimerHandle | None = None
        remaining = token.remaining_s()
        if remaining is not None:
            timer = loop.call_later(
                remaining, token.cancel, "deadline"
            )
        audit: dict[str, int] = {}
        streamed_rows: list[list] | None = None
        try:
            if self._inject.get(query.qclass, 0) > 0:
                self._inject[query.qclass] -= 1
                raise InjectedCrash(
                    f"injected failure for {query.qclass}"
                )
            if query.request["op"] == "sql":
                streamed_rows = []
                result = await loop.run_in_executor(
                    self._pool,
                    lambda: self.executor.run_sql(
                        request.get("params", {}).get("sql"),
                        token,
                        on_rows=self._row_streamer(
                            conn, request["id"], loop, streamed_rows
                        ),
                    ),
                )
            else:
                task = _TASKS[request["params"]["task"]]
                result, audit = await loop.run_in_executor(
                    self._pool,
                    lambda: self.executor.run_task(task, token),
                )
                result = {"task": task.value, "results": result, **audit}
        except (DeadlineExceededError, QueryCancelledError) as exc:
            if token.reason == "client_disconnected":
                # A vanished client says nothing about the class's
                # health; release any probe slot but record no outcome.
                breaker.record_abandoned()
            else:
                breaker.record_failure()
            reason = (
                "deadline_exceeded"
                if isinstance(exc, DeadlineExceededError)
                else "cancelled"
            )
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "error",
                "reason": reason, "message": str(exc),
                "timings": self._timings(query, time.monotonic()),
            })
            return
        except Exception as exc:  # noqa: BLE001 - every failure feeds the breaker
            breaker.record_failure()
            await self._respond(conn, {
                "id": request["id"], "kind": "final", "status": "error",
                "reason": "execution_error",
                "message": f"{type(exc).__name__}: {exc}",
                "timings": self._timings(query, time.monotonic()),
            })
            return
        finally:
            if timer is not None:
                timer.cancel()
        breaker.record_success()
        if streamed_rows is not None:
            # The final frame carries rows=None (the rows already went
            # out as partial frames), but the cache must hold the full
            # rows so a later hit can re-stream them (_send_cached) —
            # caching the rowless wire payload would answer repeat SQL
            # queries with row_count=N and no row data.
            self.cache.put(query.fingerprint, version,
                           {**result, "rows": streamed_rows})
        else:
            self.cache.put(query.fingerprint, version, result)
        await self._respond(conn, {
            "id": request["id"], "kind": "final", "status": "ok",
            "result": result, "cached": False, "stale": False,
            "timings": self._timings(query, time.monotonic()),
        })

    async def _send_cached(
        self,
        conn: _Connection,
        request: dict,
        value: Any,
        *,
        stale: bool,
        degraded: str | None = None,
        timings: dict[str, float] | None = None,
    ) -> None:
        """Answer one query from cache, wire-identical to live execution.

        Cached SQL results hold their full rows; those are re-streamed
        as ``kind="rows"`` partial frames and the final frame reverts to
        ``rows=None``, exactly like a live run.  Task results pass
        through untouched.
        """
        result = value
        if (
            request.get("op") == "sql"
            and isinstance(value, dict)
            and value.get("rows") is not None
        ):
            rows = value["rows"]
            for seq, lo in enumerate(range(0, len(rows), SQL_PAGE_ROWS)):
                if not await conn.send({
                    "id": request["id"], "kind": "rows", "seq": seq,
                    "rows": rows[lo : lo + SQL_PAGE_ROWS],
                }):
                    break  # client gone; the final frame audits it
            result = {**value, "rows": None}
        payload: dict[str, Any] = {
            "id": request["id"], "kind": "final", "status": "ok",
            "result": result, "cached": True, "stale": stale,
        }
        if degraded is not None:
            payload["degraded"] = degraded
        if timings is not None:
            payload["timings"] = timings
        await self._respond(conn, payload)

    def _row_streamer(
        self, conn: _Connection, request_id: str, loop,
        collected: list[list],
    ):
        """A worker-thread callback streaming SQL row pages as frames.

        Pages are also accumulated into ``collected`` so the service can
        cache the full row set alongside the columns/row_count summary.
        """
        seq = itertools.count()

        def on_rows(page: list) -> None:
            collected.extend(page)
            fut = asyncio.run_coroutine_threadsafe(
                conn.send({
                    "id": request_id, "kind": "rows",
                    "seq": next(seq), "rows": page,
                }),
                loop,
            )
            fut.result()  # backpressure: the kernel waits for the socket

        return on_rows

    # -- stats ------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Every ledger the SLO audit needs, in one JSON-able object."""
        return {
            "dataset_version": self.executor.dataset_version,
            "n_households": self.executor.table.n_households,
            "n_days": self.executor.table.n_days,
            "requests_received": self.requests_received,
            "responses_sent": self.responses_sent,
            "responses_by_status": dict(self.responses_by_status),
            "client_gone": self.client_gone,
            "admission": self.admission.stats(),
            "breakers": {
                qclass: b.snapshot() for qclass, b in self.breakers.items()
            },
            "cache": self.cache.stats(),
            "execution": {
                "blocks_executed": self.executor.blocks_executed,
                "blocks_cancelled": self.executor.blocks_cancelled,
            },
        }
