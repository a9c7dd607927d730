"""Every workload input, built from the seed argument before timing.

The program under test receives only what these functions return:
datasets, shuffled tick batches and the query mix.  The same seed gives
the same inputs, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.seed import SeedConfig, make_seed_dataset
from repro.streaming import ReadingBatch, batch_from_dataset
from repro.timeseries.calendar import HOURS_PER_DAY
from repro.timeseries.series import Dataset

#: Tumbling window length: the smallest the PAR task allows.
WINDOW_DAYS = 8

#: ingest: meters, and windows replayed per epoch (one fresh plane+store).
INGEST_N = 1000
INGEST_WINDOWS = 3
#: fresh: meters, and windows per epoch: the first is set-up, the
#: second the measured round.
FRESH_N = 120
FRESH_WINDOWS = 2
#: hot: meters and days of history served.
HOT_N = 120
HOT_DAYS = 30

TASKS = ("histogram", "threeline", "par", "similarity")
SQL = (
    "SELECT household_id, AVG(consumption) AS avg_load "
    "FROM readings GROUP BY household_id"
)


@dataclass(frozen=True)
class Query:
    """One request of the query mix."""

    op: str
    params: dict
    tenant: str
    allow_stale: bool | None = None

    @property
    def label(self) -> str:
        return self.params.get("task", self.op)


#: The five-query mix: the four tasks (tenant ``analyst``), then SQL
#: (tenant ``ops``) that must not be answered from stale cache.
QUERY_MIX = tuple(
    Query("task", {"task": t}, "analyst") for t in TASKS
) + (Query("sql", {"sql": SQL}, "ops", allow_stale=False),)


@dataclass(frozen=True)
class Feed:
    """A dataset and the tick batches that replay it, in arrival order."""

    dataset: Dataset
    ticks: tuple[ReadingBatch, ...]
    #: Ticks per window.
    ticks_per_window: int


def _dataset(n: int, days: int, seed: int) -> Dataset:
    return make_seed_dataset(SeedConfig(
        n_consumers=n, n_hours=days * HOURS_PER_DAY, seed=seed,
    ))


def _feed(dataset: Dataset, tick_hours: int, seed: int) -> Feed:
    """Ticks of ``tick_hours`` each, shuffled within each tick."""
    rng = np.random.default_rng(seed)
    ticks = tuple(
        batch.take(rng.permutation(len(batch)))
        for batch in (
            batch_from_dataset(dataset, h, h + tick_hours)
            for h in range(0, dataset.n_hours, tick_hours)
        )
    )
    return Feed(dataset, ticks, WINDOW_DAYS * HOURS_PER_DAY // tick_hours)


def ingest_feed(seed: int) -> Feed:
    """n=1000 meters, hourly ticks of 1,000 readings."""
    data = _dataset(INGEST_N, INGEST_WINDOWS * WINDOW_DAYS, seed)
    return _feed(data, 1, seed)


def fresh_feed(seed: int) -> Feed:
    """n=120 meters, daily ticks."""
    data = _dataset(FRESH_N, FRESH_WINDOWS * WINDOW_DAYS, seed)
    return _feed(data, HOURS_PER_DAY, seed)


def hot_dataset(seed: int) -> Dataset:
    return _dataset(HOT_N, HOT_DAYS, seed)


def hot_sequence(seed: int, n: int) -> tuple[Query, ...]:
    """The open loop's first ``n`` requests: the five queries in turn,
    each round of five in its own seeded order, so no query always
    follows the same one."""
    rng = np.random.default_rng(seed)
    rounds = -(-n // len(QUERY_MIX))
    order = [i for _ in range(rounds) for i in rng.permutation(len(QUERY_MIX))]
    return tuple(QUERY_MIX[i] for i in order[:n])
