"""A read-only READINGS table over a dataset's column matrices.

The heap engine (:mod:`repro.relational.table`) pays the row store's load
cost before its first query: a tuple-at-a-time bulk load into pickled pages
plus a B-tree on ``household_id``.  A :class:`ReadingsView` serves the same
relation (:data:`~repro.relational.layouts.READINGS_SCHEMA`) straight from
the ``(n, n_hours)`` matrices of a :class:`~repro.timeseries.series.Dataset`,
with no load at all.

Its results are bit-identical to the heap's by construction: the view hands
:func:`~repro.relational.executor.execute_select` exactly the chunks the
heap table would, so every aggregate folds the same segments in the same
order.

* **Scan** — rows in the heap's load order (consumer-major, then hour), cut
  at the heap's :data:`~repro.relational.storage.PAGE_ROWS` page
  boundaries; ``household_id`` as ``str`` objects, ``hour`` as int64, the
  readings as float64 slices of the matrices.
* **Lookup** — ``household_id = <literal>`` yields that household's rows as
  one chunk, as the heap's B-tree index path does.  The key is matched by
  the B-tree's ordered comparison, so a literal that does not compare with
  the ids (an integer, say) raises the same ``TypeError`` there as here.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import TableNotFoundError
from repro.relational.layouts import READINGS_SCHEMA
from repro.relational.storage import PAGE_ROWS
from repro.timeseries.series import Dataset


class ReadingsView:
    """The READINGS layout of one dataset, read in place."""

    schema = READINGS_SCHEMA

    def __init__(self, name: str, dataset: Dataset) -> None:
        self.name = name
        n, self._hours = dataset.consumption.shape
        ids = np.empty(n, dtype=object)
        ids[:] = [str(cid) for cid in dataset.consumer_ids]
        self._columns = {
            "household_id": np.repeat(ids, self._hours),
            "hour": np.tile(np.arange(self._hours, dtype=np.int64), n),
            "consumption": dataset.consumption.reshape(-1),
            "temperature": dataset.temperature.reshape(-1),
        }
        for column in self._columns.values():
            # Chunks are views of the version's matrices, which other
            # readers share: no query may write through them.
            column.flags.writeable = False
        self._row_of = {cid: i for i, cid in enumerate(ids)}
        self._sorted_ids = sorted(self._row_of)

    def scan_column_chunks(
        self, names: Sequence[str]
    ) -> Iterator[dict[str, np.ndarray]]:
        """Yield per-page dicts of the requested column chunks."""
        for name in names:
            self.schema.index_of(name)  # validate early
        n_rows = self._columns["hour"].shape[0]
        for lo in range(0, n_rows, PAGE_ROWS):
            yield {name: self._columns[name][lo : lo + PAGE_ROWS] for name in names}

    def lookup(self, column: str, key) -> Iterator[dict[str, np.ndarray]] | None:
        """The ``household_id = key`` access path; None for other columns."""
        if column != "household_id":
            return None
        return self._household_chunks(key)

    def _household_chunks(self, key) -> Iterator[dict[str, np.ndarray]]:
        pos = bisect.bisect_left(self._sorted_ids, key)
        if pos == len(self._sorted_ids) or self._sorted_ids[pos] != key:
            return
        lo = self._row_of[key] * self._hours
        yield {
            name: column[lo : lo + self._hours]
            for name, column in self._columns.items()
        }


class ViewCatalog:
    """A one-table read-only catalog: the part of a :class:`Database`
    that :func:`~repro.relational.executor.execute_select` uses."""

    def __init__(self, view: ReadingsView) -> None:
        self.view = view

    def table(self, name: str) -> ReadingsView:
        """Look up a table; raises TableNotFoundError if absent."""
        if name != self.view.name:
            raise TableNotFoundError(
                f"no table {name!r}; available: {[self.view.name]}"
            )
        return self.view
