"""Deadline-aware query execution over the v2 store, block by block.

The execution unit of every task is one *consumer block* (the same
blocking :mod:`repro.columnar.outofcore` uses): per-consumer tasks run
the batched kernels on one block's sub-dataset at a time, similarity
runs one :data:`~repro.core.similarity.SIMILARITY_BLOCK_ROWS` row block
of the score matrix at a time.  Between blocks the worker thread checks
its :class:`CancelToken` — the cooperative-cancellation contract: when a
deadline expires or the client vanishes, the query raises out of the
worker *at the next block boundary* instead of burning cores to the
end.  Results are bit-identical to the whole-matrix run because every
block computes exactly the per-consumer (or per-row) arithmetic of the
reference kernels (see ``tests/test_serve.py::TestBlockIdentity``).

Serialization: results cross the wire as JSON.  Python's ``json`` emits
``repr``-shortest floats, which round-trip float64 exactly, so the
served payloads can be compared to golden engine output by equality.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import numpy as np

from repro.columnar.outofcore import iter_consumer_blocks
from repro.columnar.partstore import PartitionedStore
from repro.core.benchmark import BenchmarkSpec, Task, run_task_reference
from repro.core.histogram import HistogramResult
from repro.core.par import ParModel
from repro.core.similarity import (
    SIMILARITY_BLOCK_ROWS,
    cosine_similarity_block,
    normalize_rows,
    rank_row,
)
from repro.core.threeline import PiecewiseLines, ThreeLineModel
from repro.exceptions import (
    DeadlineExceededError,
    ProtocolError,
    QueryCancelledError,
)
from repro.relational.madlib import madlib_aggregates
from repro.relational.view import ReadingsView, ViewCatalog
from repro.sql.parser import parse_select
from repro.timeseries.series import Dataset

# Serve SQL never builds a heap.  The name stays importable here because
# the end-to-end benchmark's tracer (perfbench/trace.py) patches
# ``repro.serve.executor.load_dataset`` to time heap builds, which now
# read zero.
from repro.relational.layouts import load_dataset  # noqa: F401

#: Query classes a circuit breaker is keyed by.
QUERY_CLASSES = (
    "sql",
    "task:histogram",
    "task:threeline",
    "task:par",
    "task:similarity",
)


class CancelToken:
    """A cross-thread cancellation flag checked between consumer blocks.

    ``deadline`` is an absolute ``time.monotonic()`` instant (None =
    no deadline).  ``cancel(reason)`` flips the flag from any thread;
    ``check()`` — called by the worker between blocks — raises
    :class:`DeadlineExceededError` or :class:`QueryCancelledError`.
    """

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline
        self._cancelled = threading.Event()
        self.reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> None:
        if not self._cancelled.is_set():
            self.reason = reason
            self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def remaining_s(self) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def check(self) -> None:
        """Raise if the query should stop; the between-blocks hook."""
        if self._cancelled.is_set():
            if self.reason == "deadline":
                raise DeadlineExceededError(
                    "deadline expired mid-execution"
                )
            raise QueryCancelledError(self.reason or "cancelled")
        remaining = self.remaining_s()
        if remaining is not None and remaining <= 0:
            self.cancel("deadline")
            raise DeadlineExceededError("deadline expired mid-execution")


# -- result serialization (exact float64 round-trip through JSON) -----------

def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _serialize_band(band: PiecewiseLines) -> dict[str, Any]:
    return {
        "lines": [[line.slope, line.intercept] for line in band.lines],
        "breakpoints": list(band.breakpoints),
        "sse": band.sse,
        "adjusted": band.adjusted,
    }


def serialize_result(task: Task, result: Any) -> Any:
    """One consumer's task result as a JSON-able structure."""
    if task is Task.HISTOGRAM:
        assert isinstance(result, HistogramResult)
        return {
            "edges": _floats(result.edges),
            "counts": [int(c) for c in result.counts],
        }
    if task is Task.THREELINE:
        assert isinstance(result, ThreeLineModel)
        return {
            "band_upper": _serialize_band(result.band_upper),
            "band_lower": _serialize_band(result.band_lower),
            "heating_gradient": result.heating_gradient,
            "cooling_gradient": result.cooling_gradient,
            "base_load": result.base_load,
            "temperature_range": list(result.temperature_range),
        }
    if task is Task.PAR:
        assert isinstance(result, ParModel)
        return {
            "profile": _floats(result.profile),
            "p": result.p,
            "temperature_mode": result.temperature_mode,
            "hours": [
                {
                    "hour": m.hour,
                    "coefficients": _floats(m.coefficients),
                    "sse": m.sse,
                    "n_observations": m.n_observations,
                }
                for m in result.hour_models
            ],
        }
    if task is Task.SIMILARITY:
        return [[cid, score] for cid, score in result]
    raise ValueError(f"unknown task: {task!r}")


def serialize_task_results(task: Task, results: dict[str, Any]) -> dict:
    """A whole task answer: ``{consumer_id: serialized_result}``."""
    return {cid: serialize_result(task, r) for cid, r in results.items()}


# -- the executor -----------------------------------------------------------

class QueryExecutor:
    """Executes queries over one v2 store table, block by block.

    Owns the dataset-version bookkeeping: the version *is* the table's
    commit counter, re-read whenever the store reports a commit.  The
    in-memory dataset view and the SQL view over it are rebuilt lazily
    per version, so an ``append_days`` ingest invalidates both without
    stalling in-flight queries on the old view.  :meth:`close` stops
    following the store and drops both.
    """

    def __init__(
        self,
        store: PartitionedStore,
        table_name: str,
        *,
        block_consumers: int = 64,
        kernel: str = "batched",
    ) -> None:
        self.store = store
        self.table_name = table_name
        self.block_consumers = int(block_consumers)
        self.spec = BenchmarkSpec(kernel=kernel)
        self.table = store.open(table_name)
        self._unsubscribe = store.on_commit(self._on_store_commit)
        self._view_lock = threading.Lock()
        self._dataset: tuple[int, Dataset] | None = None
        self._sql_views: tuple[int, ViewCatalog] | None = None
        #: Cancellation audit: blocks actually executed vs planned, per
        #: cancelled query — the "stops burning cores" evidence.  The
        #: counters are shared by all worker threads, so every increment
        #: holds ``_audit_lock`` (a bare ``+=`` loses updates under
        #: n_workers > 1 and the stats op would undercount).
        self._audit_lock = threading.Lock()
        self.blocks_executed = 0
        self.blocks_cancelled = 0

    @property
    def dataset_version(self) -> int:
        """The current dataset version (the table's commit counter)."""
        return self.table.commit

    def refresh(self) -> int:
        """Re-open the table after an ingest; returns the new version."""
        self.table = self.store.open(self.table_name)
        return self.dataset_version

    def close(self) -> None:
        """Unregister the commit listener and drop the cached views, so
        a stopped service holds no store reference to this executor."""
        unsubscribe, self._unsubscribe = self._unsubscribe, None
        if unsubscribe is not None:
            unsubscribe()
        with self._view_lock:
            self._dataset = self._sql_views = None

    def _on_store_commit(self, name: str, commit: int) -> None:
        """The store's commit listener: every landed ingest of this
        table re-opens it, so the next query sees the new version."""
        if name == self.table_name:
            self.refresh()

    def _current_dataset(self) -> Dataset:
        """The whole table as an in-memory Dataset, cached per version."""
        version = self.dataset_version
        with self._view_lock:
            if self._dataset is not None and self._dataset[0] == version:
                return self._dataset[1]
        ids, matrices = self.table.read_matrices()
        dataset = Dataset(
            consumer_ids=list(ids),
            consumption=matrices["consumption"],
            temperature=matrices["temperature"],
            name=self.table_name,
        )
        with self._view_lock:
            self._dataset = (version, dataset)
        return dataset

    def _sql_catalog(self) -> ViewCatalog:
        """The SQL view of the current version, cached per version.

        The READINGS layout (one row per reading) read in place from the
        version's matrices, so scalar aggregates and GROUP BY work over
        plain columns, as in the paper's SQL track, with no heap build.
        """
        version = self.dataset_version
        with self._view_lock:
            if self._sql_views is not None and self._sql_views[0] == version:
                return self._sql_views[1]
        catalog = ViewCatalog(
            ReadingsView(self.table_name, self._current_dataset())
        )
        with self._view_lock:
            self._sql_views = (version, catalog)
        return catalog

    # -- query entry points (run on worker threads) ---------------------

    def run_task(
        self, task: Task, token: CancelToken
    ) -> tuple[dict, dict[str, int]]:
        """One benchmark task over the whole table; blockwise + cancellable.

        Returns ``(serialized_results, block_audit)`` where the audit
        reports ``blocks_done``/``blocks_total`` — a cancelled query
        shows ``blocks_done < blocks_total``.
        """
        token.check()
        if task is Task.SIMILARITY:
            return self._run_similarity(token)
        n = self.table.n_households
        total = -(-n // self.block_consumers)
        done = 0
        out: dict = {}
        try:
            for _c0, ids, matrices in iter_consumer_blocks(
                self.table, block_consumers=self.block_consumers
            ):
                token.check()
                block = Dataset(
                    consumer_ids=list(ids),
                    consumption=matrices["consumption"],
                    temperature=matrices["temperature"],
                )
                results = run_task_reference(block, task, self.spec)
                out.update(serialize_task_results(task, results))
                done += 1
                with self._audit_lock:
                    self.blocks_executed += 1
        except (DeadlineExceededError, QueryCancelledError):
            with self._audit_lock:
                self.blocks_cancelled += total - done
            raise
        return out, {"blocks_done": done, "blocks_total": total}

    def _run_similarity(
        self, token: CancelToken
    ) -> tuple[dict, dict[str, int]]:
        """Top-k similarity, row-block by row-block (bit-identical to
        :func:`repro.core.similarity.top_k_similar`)."""
        dataset = self._current_dataset()
        ids = dataset.consumer_ids
        normalized = normalize_rows(dataset.consumption)
        n = len(ids)
        total = -(-n // SIMILARITY_BLOCK_ROWS) if n else 0
        done = 0
        out: dict = {}
        k = self.spec.top_k
        try:
            for lo in range(0, n, SIMILARITY_BLOCK_ROWS):
                token.check()
                hi = min(n, lo + SIMILARITY_BLOCK_ROWS)
                sims = cosine_similarity_block(normalized, lo, hi)
                for row in range(lo, hi):
                    out[ids[row]] = [
                        [ids[i], score]
                        for i, score in rank_row(sims[row - lo], row, k)
                    ]
                done += 1
                with self._audit_lock:
                    self.blocks_executed += 1
        except (DeadlineExceededError, QueryCancelledError):
            with self._audit_lock:
                self.blocks_cancelled += total - done
            raise
        return out, {"blocks_done": done, "blocks_total": total}

    def run_sql(
        self, sql: str, token: CancelToken, on_rows: Callable | None = None
    ) -> dict[str, Any]:
        """Execute one SELECT of the SQL subset against the current version.

        ``on_rows(page)`` — when given — receives the result in pages of
        :data:`SQL_PAGE_ROWS` JSON-able rows as they are cut, which is
        what the service streams as partial frames (time-to-first-row).
        """
        from repro.relational.executor import execute_select

        token.check()
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("'sql' param must be a non-empty SELECT")
        catalog = self._sql_catalog()
        token.check()
        result = execute_select(
            catalog, parse_select(sql), aggregates=madlib_aggregates()
        )
        token.check()
        rows = [[_jsonable(v) for v in row] for row in result.rows]
        if on_rows is not None:
            for lo in range(0, len(rows), SQL_PAGE_ROWS):
                token.check()
                on_rows(rows[lo : lo + SQL_PAGE_ROWS])
        return {"columns": list(result.columns), "row_count": len(rows),
                "rows": None if on_rows is not None else rows}


#: Rows per streamed SQL partial frame.
SQL_PAGE_ROWS = 256


def _jsonable(value: Any) -> Any:
    """One SQL cell as a JSON-able value (numpy scalars/arrays unwrapped)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
