"""Heap tables: buffered inserts, page flushes, index maintenance."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import StorageError
from repro.relational.btree import BTreeIndex, RowId
from repro.relational.storage import PAGE_ROWS, Page, PageStore
from repro.relational.types import ColumnType, Schema


class Table:
    """A heap table of column-chunked pages with optional B-tree indexes.

    Inserts accumulate in a row buffer and become an immutable page when
    ``PAGE_ROWS`` rows are buffered (or on :meth:`flush`).  Indexes are
    maintained at flush time, when row locators become known.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        store: PageStore,
    ) -> None:
        self.name = name
        self.schema = schema
        self.store = store
        self.indexes: dict[str, BTreeIndex] = {}
        self._buffer: list[tuple] = []
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        """Total rows (flushed + buffered)."""
        return self._n_rows

    @property
    def n_pages(self) -> int:
        """Number of flushed pages."""
        return self.store.n_pages

    # Writes ------------------------------------------------------------

    def insert(self, values: Sequence) -> None:
        """Insert one row (values in schema order)."""
        if len(values) != len(self.schema):
            raise StorageError(
                f"{self.name}: expected {len(self.schema)} values, got {len(values)}"
            )
        coerced = tuple(
            col.type.coerce(v) for col, v in zip(self.schema, values)
        )
        self._buffer.append(coerced)
        self._n_rows += 1
        if len(self._buffer) >= PAGE_ROWS:
            self.flush()

    def bulk_load(self, rows: Iterable[Sequence]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        self.flush()
        return count

    def flush(self) -> None:
        """Materialize buffered rows as a page and update indexes."""
        if not self._buffer:
            return
        columns: dict[str, np.ndarray] = {}
        for i, col in enumerate(self.schema):
            values = [row[i] for row in self._buffer]
            if col.type in (ColumnType.INT, ColumnType.FLOAT):
                columns[col.name] = np.array(values, dtype=col.type.numpy_dtype)
            else:
                chunk = np.empty(len(values), dtype=object)
                chunk[:] = values
                columns[col.name] = chunk
        page = Page(columns=columns, n_rows=len(self._buffer))
        page_id = self.store.append_page(page)
        for col_name, index in self.indexes.items():
            chunk = page.columns[col_name]
            for offset in range(page.n_rows):
                index.insert(chunk[offset], (page_id, offset))
        self._buffer.clear()

    # Reads ---------------------------------------------------------------

    def scan_pages(self) -> Iterator[tuple[int, Page]]:
        """Yield ``(page_id, page)`` over all data (flushes the buffer)."""
        self.flush()
        for page_id in range(self.store.n_pages):
            yield page_id, self.store.read_page(page_id)

    def scan_column_chunks(self, names: Sequence[str]) -> Iterator[dict[str, np.ndarray]]:
        """Yield per-page dicts of the requested column chunks."""
        for name in names:
            self.schema.index_of(name)  # validate early
        for _, page in self.scan_pages():
            yield {name: page.columns[name] for name in names}

    def fetch_rows(self, row_ids: Sequence[RowId]) -> list[tuple]:
        """Materialize specific rows, batching reads per page."""
        self.flush()
        by_page: dict[int, list[int]] = {}
        for page_id, offset in row_ids:
            by_page.setdefault(page_id, []).append(offset)
        out: dict[RowId, tuple] = {}
        for page_id, offsets in by_page.items():
            page = self.store.read_page(page_id)
            for offset in offsets:
                out[(page_id, offset)] = page.row(offset)
        return [out[rid] for rid in row_ids]

    # Indexes -------------------------------------------------------------

    def create_index(self, column: str) -> BTreeIndex:
        """Build a B-tree index on ``column`` over existing and future rows."""
        self.schema.index_of(column)
        if column in self.indexes:
            raise StorageError(f"{self.name} already has an index on {column!r}")
        self.flush()
        index = BTreeIndex(name=f"{self.name}_{column}_idx")
        for page_id, page in self.scan_pages():
            chunk = page.columns[column]
            for offset in range(page.n_rows):
                index.insert(chunk[offset], (page_id, offset))
        self.indexes[column] = index
        return index

    def index_on(self, column: str) -> BTreeIndex | None:
        """The index on ``column`` if one exists."""
        return self.indexes.get(column)

    def lookup(self, column: str, key) -> Iterator[dict[str, np.ndarray]] | None:
        """The index access path for ``column = key``; None without an index.

        Matching rows come back as one chunk (no chunk when none match).
        """
        index = self.index_on(column)
        if index is None:
            return None
        return self._index_chunks(index, key)

    def _index_chunks(
        self, index: BTreeIndex, key
    ) -> Iterator[dict[str, np.ndarray]]:
        row_ids = index.search(key)
        if not row_ids:
            return
        rows = self.fetch_rows(row_ids)
        chunk: dict[str, np.ndarray] = {}
        for i, col in enumerate(self.schema):
            values = [row[i] for row in rows]
            if col.type.numpy_dtype == object:
                arr = np.empty(len(values), dtype=object)
                arr[:] = values
            else:
                arr = np.array(values, dtype=col.type.numpy_dtype)
            chunk[col.name] = arr
        yield chunk

    # Lifecycle -------------------------------------------------------------

    def destroy(self) -> None:
        """Delete all data and indexes."""
        self._buffer.clear()
        self._n_rows = 0
        self.indexes.clear()
        self.store.destroy()
