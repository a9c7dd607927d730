"""Differential tests: the READINGS heap against the in-place column view.

Served SQL reads a :class:`~repro.relational.view.ReadingsView` over the
dataset's matrices instead of bulk-loading a heap table.  The contract is
**repr-identical** rows and columns for every READINGS query of the SQL
corpus (the queries of ``test_relational_engine.py``,
``test_sql_extensions.py`` and ``test_joins.py`` recast onto the READINGS
layout), and the same exception — type and message — where the heap
raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.seed import SeedConfig, make_seed_dataset
from repro.relational.catalog import Database
from repro.relational.executor import execute_select
from repro.relational.layouts import TableLayout, load_dataset
from repro.relational.madlib import madlib_aggregates
from repro.relational.storage import PAGE_ROWS
from repro.relational.view import ReadingsView, ViewCatalog
from repro.sql.parser import parse_select
from repro.timeseries.series import Dataset


def _seed(n: int, hours: int, seed: int = 5) -> Dataset:
    return make_seed_dataset(
        SeedConfig(n_consumers=n, n_hours=hours, seed=seed)
    )


def _adversarial() -> Dataset:
    """NaN and signed-zero readings, in both value columns."""
    data = _seed(5, 240, seed=9)
    consumption = data.consumption.copy()
    temperature = data.temperature.copy()
    consumption[0, :7] = np.nan
    consumption[1, ::3] = -0.0
    consumption[1, 1::3] = 0.0
    consumption[2, 100:] = np.nan
    temperature[3, :50] = -0.0
    temperature[4, 10:20] = np.nan
    return Dataset(
        consumer_ids=list(data.consumer_ids),
        consumption=consumption,
        temperature=temperature,
    )


#: name -> dataset; the row counts (1,512 / 72 / 1,200 / 3,432) are not
#: multiples of PAGE_ROWS, so scans end on a partial page and pages cut
#: households in the middle.
DATASETS = {
    "seed": lambda: _seed(7, 216),
    "single": lambda: _seed(1, 72),
    "adversarial": _adversarial,
    "multipage": lambda: _seed(13, 264, seed=3),
}


@pytest.fixture(params=sorted(DATASETS))
def sources(request, tmp_path):
    """``(dataset, heap database, column-view catalog)`` for one dataset."""
    data = DATASETS[request.param]()
    with Database(tmp_path / "heap") as db:
        load_dataset(db, data, TableLayout.READINGS, table_name="readings")
        yield data, db, ViewCatalog(ReadingsView("readings", data))


def _outcome(source, sql: str):
    """A comparable summary of one query: rows and columns, or the error."""
    try:
        result = execute_select(
            source, parse_select(sql), aggregates=madlib_aggregates()
        )
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc).__name__, str(exc))
    return ("ok", result.columns, repr(result.rows))


def _assert_same(sources, sql: str):
    _, heap, view = sources
    expected = _outcome(heap, sql)
    assert _outcome(view, sql) == expected
    return expected


#: The SQL corpus on the READINGS layout.
CORPUS = [
    # test_relational_engine.py: projections, filters, expressions.
    "SELECT household_id, consumption FROM readings",
    "SELECT * FROM readings",
    "SELECT consumption FROM readings WHERE consumption > 1.0",
    "SELECT consumption FROM readings WHERE consumption > 0.5 AND hour < 12",
    "SELECT consumption * 2 + temperature AS adjusted FROM readings",
    "SELECT greatest(consumption, 1.5) FROM readings WHERE hour = 3",
    # Aggregates, whole-table and grouped.
    "SELECT sum(consumption) FROM readings",
    "SELECT count(*) FROM readings",
    "SELECT household_id, sum(consumption) AS total FROM readings "
    "GROUP BY household_id",
    "SELECT household_id, sum(consumption) / count(*) AS mean "
    "FROM readings GROUP BY household_id",
    "SELECT avg(consumption), min(consumption), max(consumption), "
    "stddev(consumption) FROM readings",
    "SELECT avg(temperature), stddev(temperature) FROM readings",
    "SELECT household_id, AVG(consumption) AS avg_load FROM readings "
    "GROUP BY household_id",
    "SELECT max(consumption) FROM readings WHERE temperature > 0",
    "SELECT count(*) FROM readings WHERE consumption > 1000",
    # GROUP BY hour, ORDER BY / LIMIT.
    "SELECT hour, avg(consumption), max(temperature) FROM readings "
    "GROUP BY hour ORDER BY hour",
    "SELECT household_id, consumption FROM readings "
    "ORDER BY consumption DESC LIMIT 5",
    "SELECT household_id, hour FROM readings ORDER BY hour, household_id "
    "LIMIT 40",
    "SELECT household_id FROM readings GROUP BY household_id "
    "ORDER BY household_id",
    # MADlib aggregates.
    "SELECT madlib_quantile(consumption, 50) FROM readings",
    "SELECT household_id, madlib_hist(consumption, 4) FROM readings "
    "GROUP BY household_id",
    "SELECT madlib_linregr(consumption, temperature) FROM readings",
    # test_sql_extensions.py: DISTINCT, HAVING, BETWEEN, IN.
    "SELECT DISTINCT household_id FROM readings",
    "SELECT DISTINCT hour FROM readings ORDER BY hour",
    "SELECT DISTINCT household_id, hour FROM readings WHERE hour < 3",
    "SELECT household_id, count(*) FROM readings GROUP BY household_id "
    "HAVING count(*) > 2",
    "SELECT household_id FROM readings GROUP BY household_id "
    "HAVING sum(consumption) > 40",
    "SELECT consumption FROM readings WHERE hour BETWEEN 6 AND 9 "
    "ORDER BY consumption",
    "SELECT hour FROM readings WHERE hour NOT BETWEEN 2 AND 20",
    "SELECT DISTINCT hour FROM readings WHERE hour IN (1, 5, 7)",
    # test_joins.py: a self-join of READINGS.
    "SELECT a.household_id, a.hour, b.consumption FROM readings a "
    "JOIN readings b ON a.household_id = b.household_id "
    "AND a.hour = b.hour WHERE a.hour < 3",
    "SELECT a.hour, sum(b.consumption) FROM readings a JOIN readings b "
    "ON a.household_id = b.household_id AND a.hour = b.hour "
    "GROUP BY a.hour ORDER BY a.hour",
    # Errors.
    "SELECT nope FROM readings",
    "SELECT hour, sum(consumption) FROM readings GROUP BY household_id",
    "SELECT frobnicate(consumption) FROM readings",
    "SELECT * FROM nope",
    "SELECT a.hour FROM readings a JOIN nope b ON TRUE",
]


class TestCorpus:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_repr_identical(self, sources, sql):
        _assert_same(sources, sql)

    def test_unknown_table_raises_table_not_found(self, sources):
        outcome = _assert_same(sources, "SELECT * FROM nope")
        assert outcome[:2] == ("error", "TableNotFoundError")

    def test_zero_matching_rows(self, sources):
        assert _assert_same(
            sources, "SELECT count(*) FROM readings WHERE hour > 100000"
        ) == ("ok", ["col1"], "[(0,)]")
        assert _assert_same(
            sources, "SELECT avg(consumption) FROM readings WHERE hour < 0"
        ) == ("error", "SqlAnalysisError", "avg over zero rows")
        assert _assert_same(
            sources, "SELECT hour FROM readings WHERE consumption > 1e300"
        ) == ("ok", ["hour"], "[]")


class TestHouseholdLookup:
    """``household_id = <literal>``: the heap's B-tree index path."""

    def test_present_key(self, sources):
        data, _, _ = sources
        for cid in (data.consumer_ids[0], data.consumer_ids[-1]):
            outcome = _assert_same(
                sources,
                f"SELECT hour, consumption, temperature FROM readings "
                f"WHERE household_id = '{cid}'",
            )
            assert outcome[0] == "ok"
            _assert_same(
                sources,
                f"SELECT avg(consumption), stddev(temperature), count(*) "
                f"FROM readings WHERE '{cid}' = household_id",
            )

    def test_missing_key(self, sources):
        assert _assert_same(
            sources,
            "SELECT count(*) FROM readings WHERE household_id = 'absent'",
        ) == ("ok", ["col1"], "[(0,)]")
        assert _assert_same(
            sources,
            "SELECT avg(consumption) FROM readings "
            "WHERE household_id = 'absent'",
        ) == ("error", "SqlAnalysisError", "avg over zero rows")
        _assert_same(
            sources, "SELECT * FROM readings WHERE household_id = 'absent'"
        )

    def test_integer_literal_follows_btree_semantics(self, sources):
        # The B-tree compares the key with the text ids, which raises;
        # the view must not quietly look up str(key) instead.
        _, heap, view = sources
        sql = "SELECT count(*) FROM readings WHERE household_id = 5"
        assert _outcome(heap, sql)[:2] == ("error", "TypeError")
        assert _outcome(view, sql)[:2] == ("error", "TypeError")

    def test_equality_plus_residual(self, sources):
        data, _, _ = sources
        cid = data.consumer_ids[0]
        for sql in (
            f"SELECT hour, consumption FROM readings "
            f"WHERE household_id = '{cid}' AND hour > 5",
            f"SELECT sum(consumption) FROM readings "
            f"WHERE hour < 30 AND household_id = '{cid}' "
            f"AND consumption > 0.2",
            f"SELECT hour, max(temperature) FROM readings "
            f"WHERE household_id = '{cid}' AND household_id = 'absent' "
            f"GROUP BY hour",
        ):
            _assert_same(sources, sql)


class TestChunks:
    """The view yields the heap's chunks: same cuts, dtypes and bits."""

    def test_scan_chunks_match_heap_pages(self, sources):
        _, heap, view = sources
        names = ["temperature", "household_id", "hour", "consumption"]
        heap_chunks = list(heap.table("readings").scan_column_chunks(names))
        view_chunks = list(view.table("readings").scan_column_chunks(names))
        assert len(view_chunks) == len(heap_chunks)
        for expected, got in zip(heap_chunks, view_chunks):
            assert list(got) == list(expected)
            assert len(got["hour"]) <= PAGE_ROWS
            for name in names:
                assert got[name].dtype == expected[name].dtype
                if got[name].dtype == object:
                    assert list(got[name]) == list(expected[name])
                    assert all(type(v) is str for v in got[name])
                else:
                    assert got[name].tobytes() == expected[name].tobytes()

    def test_lookup_only_on_household_id(self, sources):
        data, _, view = sources
        table = view.table("readings")
        assert table.lookup("hour", 3) is None
        (chunk,) = table.lookup("household_id", data.consumer_ids[-1])
        assert chunk["hour"].tolist() == list(range(data.n_hours))
        assert list(table.lookup("household_id", "absent")) == []
