"""Expected answers, computed before timing, and the checks against them.

Every check here runs outside the timed region.  A check returns a
message on mismatch and ``None`` when the answer is right, so the
workload can count the failed operation and carry on.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.benchmark import BenchmarkSpec, Task, run_task_reference
from repro.core.validation import (
    ValidationFailure,
    assert_identical_task_results,
    compare_par,
    compare_similarity,
)
from repro.exceptions import StreamingError
from repro.serve.executor import serialize_task_results
from repro.streaming.durability import verify_no_duplicate_rows
from repro.timeseries.series import Dataset

#: Relative tolerance of a served ``AVG(consumption)`` against numpy's
#: per-household mean (the two sum in different orders).
SQL_RTOL = 1e-9

_BATCHED = BenchmarkSpec(kernel="batched")
_TASKS = (Task.HISTOGRAM, Task.THREELINE, Task.PAR, Task.SIMILARITY)


def hours_slice(data: Dataset, h0: int, h1: int) -> Dataset:
    return Dataset(
        consumer_ids=list(data.consumer_ids),
        consumption=data.consumption[:, h0:h1],
        temperature=data.temperature[:, h0:h1],
        name=data.name,
    )


def reference_results(data: Dataset) -> dict[Task, dict]:
    """The batched reference answer of every task over ``data``."""
    return {task: run_task_reference(data, task, _BATCHED) for task in _TASKS}


def served_answers(data: Dataset) -> dict[str, object]:
    """What the service must answer over ``data``, as decoded off the wire:
    each task's serialized reference, and the SQL per-household means."""
    expected: dict[str, object] = {
        task.value: json.loads(json.dumps(serialize_task_results(task, r)))
        for task, r in reference_results(data).items()
    }
    expected["sql"] = dict(zip(
        data.consumer_ids, data.consumption.mean(axis=1).tolist()
    ))
    return expected


def check_window(result, expected: dict[Task, dict]) -> str | None:
    """An emitted window against the batch kernels on that window:
    histogram and 3-line bit-identical, PAR and similarity within the
    documented tolerances."""
    try:
        for task in (Task.HISTOGRAM, Task.THREELINE):
            assert_identical_task_results(
                task, result.results[task], expected[task]
            )
        compare_par(result.results[Task.PAR], expected[Task.PAR])
        compare_similarity(
            result.results[Task.SIMILARITY], expected[Task.SIMILARITY]
        )
    except ValidationFailure as exc:
        return f"window {result.index}: {exc}"
    return None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64),
    )


def check_store(table, data: Dataset, hours: int) -> str | None:
    """The sink table holds exactly the first ``hours`` of ``data``."""
    try:
        verify_no_duplicate_rows(table, hours)
    except StreamingError as exc:
        return str(exc)
    ids, matrices = table.read_matrices()
    if list(ids) != list(data.consumer_ids):
        return "store consumer ids differ from the generated cohort"
    for column in ("consumption", "temperature"):
        if not _same_bits(matrices[column], getattr(data, column)[:, :hours]):
            return f"store {column} is not bit-identical to the generated data"
    return None


def check_task_answer(label: str, result: dict, expected: dict) -> str | None:
    if result.get("results") != expected[label]:
        return f"{label} answer differs from the batched reference"
    return None


def check_sql_rows(rows: list, expected: dict) -> str | None:
    """n rows, one per household, each average within :data:`SQL_RTOL`."""
    if len(rows) != len(expected):
        return f"SQL returned {len(rows)} rows, expected {len(expected)}"
    for household, avg in rows:
        want = expected.get(household)
        if want is None or not np.isclose(avg, want, rtol=SQL_RTOL, atol=0):
            return f"SQL average of {household!r} is {avg}, expected {want}"
    return None
