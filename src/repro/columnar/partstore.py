"""Columnar storage v2: a partitioned, compressed, appendable column store.

The v1 store (:mod:`repro.columnar.colstore`) memory-maps one whole-matrix
file per column with a single flat zone map, so every query pays for every
consumer-day even when it needs one tariff group for one month.  This
module rebuilds the storage layer in the shape the scalable systems
converge on — one compressed file per (consumer-range, date-range)
partition plus an incremental-ingestion state store:

* **Partitioning** — the (consumer x hour) matrix is tiled into
  ``consumers_per_part`` x ``days_per_part``-day blocks; each tile is one
  ``.npz`` file.  Scans that touch one consumer range for one month read
  one file, not the year.
* **Compression** — measurement columns go through
  :class:`~repro.columnar.compression.FloatColumnCodec` (decimal-scaled
  integers for fixed-precision meter data, RLE / zlib / raw fallbacks —
  always lossless to the bit); consumer ids are dictionary-encoded with
  :class:`~repro.columnar.compression.StringDictCodec`.  The row-position
  columns (``household_code``, ``hour``) of the v1 schema are implicit in
  the partition grid — the ultimate delta/RLE encoding — and are
  regenerated on demand by :meth:`PartitionBatch.rows`.
* **Zone maps & pruning** — every partition records per-column
  NaN-ignoring min/max plus a NaN flag; :meth:`PartitionedTable.scan`
  prunes partitions by consumer range, hour range, and value range before
  a byte is decoded.  The pruning contract: the scan yields a *superset*
  of the matching rows — exact on the consumer/hour rectangle (batches
  are sliced to it), approximate on value predicates (zone-map granularity
  = one partition; NaN-bearing partitions are never value-pruned).
* **Append & ingest state** — :meth:`PartitionedStore.append_days` adds
  new hour-blocks without rewriting existing partitions, and every
  ingest/append writes through the operational :class:`StateTable`
  (last-ingested day per meter), which incremental streaming and cache
  invalidation key off.
* **Out-of-core scans** — :meth:`PartitionedTable.scan` streams
  partition-at-a-time under an explicit ``memory_budget_bytes``; the
  :mod:`repro.columnar.outofcore` runner builds whole-task execution on
  top so the benchmark runs laptop-RAM-sized at 1M-consumer scale.

Query results are bit-identical between the v1 and v2 stores: the float
codecs are lossless and assembly reproduces the exact matrices the v1
memmap would have produced (``benchmarks/regress.py --storage`` gates it).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.columnar.compression import FloatColumnCodec, StringDictCodec
from repro.exceptions import StorageError
from repro.resilience.crashpoints import crash_here
from repro.timeseries.calendar import HOURS_PER_DAY
from repro.timeseries.series import Dataset

#: Default partition tile: consumers per partition x days per partition.
DEFAULT_CONSUMERS_PER_PART = 256
DEFAULT_DAYS_PER_PART = 30

#: The measurement columns every readings table stores.
FLOAT_COLUMNS = ("consumption", "temperature")

_META_FILE = "table_v2.json"
_STATE_FILE = "state.npz"


def day_of_hour(hour: int) -> int:
    """Day index containing an hour index."""
    return hour // HOURS_PER_DAY


@dataclass(frozen=True)
class PartitionInfo:
    """One on-disk partition: its grid cell, file, zone map and sizes."""

    consumer_block: int
    hour_block: int
    consumer0: int
    n_consumers: int
    hour0: int
    n_hours: int
    file_name: str
    #: column -> (min, max, has_nan) over the partition's values.
    zones: dict[str, tuple[float, float, bool]]
    raw_bytes: int
    compressed_bytes: int

    @property
    def n_rows(self) -> int:
        """Rows (readings) stored in this partition."""
        return self.n_consumers * self.n_hours

    def overlaps(
        self, consumer_lo: int, consumer_hi: int, hour_lo: int, hour_hi: int
    ) -> bool:
        """Does this partition intersect the half-open query rectangle?"""
        return (
            self.consumer0 < consumer_hi
            and consumer_lo < self.consumer0 + self.n_consumers
            and self.hour0 < hour_hi
            and hour_lo < self.hour0 + self.n_hours
        )

    def survives_value_ranges(
        self, value_ranges: dict[str, tuple[float, float]]
    ) -> bool:
        """Zone-map check: can this partition contain a matching value?

        NaN-bearing partitions are never pruned (the NaN rule of
        :meth:`repro.columnar.colstore.ZoneMap.blocks_overlapping`); NaN
        query bounds are rejected.
        """
        for col, (lo, hi) in value_ranges.items():
            if np.isnan(lo) or np.isnan(hi):
                raise StorageError(
                    f"value range for {col!r} must not contain NaN"
                )
            zone = self.zones.get(col)
            if zone is None:
                continue  # no zone map: cannot prune
            zmin, zmax, has_nan = zone
            if has_nan:
                continue  # NaN values defeat value pruning
            if zmax < lo or zmin > hi:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "consumer_block": self.consumer_block,
            "hour_block": self.hour_block,
            "consumer0": self.consumer0,
            "n_consumers": self.n_consumers,
            "hour0": self.hour0,
            "n_hours": self.n_hours,
            "file_name": self.file_name,
            "zones": {
                col: [zmin, zmax, bool(has_nan)]
                for col, (zmin, zmax, has_nan) in self.zones.items()
            },
            "raw_bytes": self.raw_bytes,
            "compressed_bytes": self.compressed_bytes,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PartitionInfo":
        return cls(
            consumer_block=int(payload["consumer_block"]),
            hour_block=int(payload["hour_block"]),
            consumer0=int(payload["consumer0"]),
            n_consumers=int(payload["n_consumers"]),
            hour0=int(payload["hour0"]),
            n_hours=int(payload["n_hours"]),
            file_name=str(payload["file_name"]),
            zones={
                col: (float(z[0]), float(z[1]), bool(z[2]))
                for col, z in payload["zones"].items()
            },
            raw_bytes=int(payload["raw_bytes"]),
            compressed_bytes=int(payload["compressed_bytes"]),
        )


@dataclass(frozen=True)
class PartitionBatch:
    """One decoded partition, sliced to the scan's consumer/hour rectangle.

    Float columns are ``(n_consumers, n_hours)`` matrices in clustered
    (consumer-major) order; ``consumer0``/``hour0`` give the batch's global
    origin and ``consumer_ids`` the decoded household ids.
    """

    consumer0: int
    hour0: int
    consumer_ids: list[str]
    columns: dict[str, np.ndarray]

    @property
    def n_consumers(self) -> int:
        return len(self.consumer_ids)

    @property
    def n_hours(self) -> int:
        first = next(iter(self.columns.values()))
        return int(first.shape[1])

    def nbytes(self) -> int:
        """Decoded in-memory size of this batch."""
        return sum(a.nbytes for a in self.columns.values())

    def rows(self) -> dict[str, np.ndarray]:
        """The batch as flat v1-schema columns (regenerating the implicit
        ``household_code`` and ``hour`` position columns)."""
        nc, nh = self.n_consumers, self.n_hours
        out = {
            "household_code": np.repeat(
                np.arange(self.consumer0, self.consumer0 + nc, dtype=np.int32),
                nh,
            ),
            "hour": np.tile(
                np.arange(self.hour0, self.hour0 + nh, dtype=np.int32), nc
            ),
        }
        for col, matrix in self.columns.items():
            out[col] = matrix.reshape(-1)
        return out


@dataclass
class ScanStats:
    """What the last scan cost: pruning effectiveness and peak memory."""

    partitions_total: int = 0
    partitions_scanned: int = 0
    rows_scanned: int = 0
    peak_batch_bytes: int = 0
    memory_budget_bytes: int | None = None

    @property
    def partitions_pruned(self) -> int:
        return self.partitions_total - self.partitions_scanned


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry so a rename inside it survives a crash."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-temp + fsync + rename + dir-fsync: all-or-nothing on disk."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


class StateTable:
    """Operational ingest state: last-ingested day + epoch per meter.

    Stored columnar (one int64 per dictionary slot per column, -1 =
    never ingested) so a million-meter state table is a few MB, not a
    JSON blob.  Every ingest/append writes through it; the streaming and
    caching layers read it to know where each meter's data ends, and the
    exactly-once streaming sink reads ``epoch`` — the highest window
    epoch applied per meter — to decide whether a redelivered window is
    a replay (skip) or a genuine revision (overwrite).

    ``commit`` mirrors the table meta's commit counter; on open, a state
    file whose commit disagrees with the meta (a crash landed between
    the meta commit and the state write) is discarded and rebuilt from
    the meta — the meta is the authoritative commit point.
    """

    def __init__(
        self,
        last_day: np.ndarray,
        dictionary: list[str],
        epoch: np.ndarray | None = None,
        commit: int = 0,
    ) -> None:
        if last_day.shape != (len(dictionary),):
            raise StorageError(
                f"state table shape {last_day.shape} does not match "
                f"{len(dictionary)} meters"
            )
        self.last_day = last_day
        self.epoch = (
            epoch if epoch is not None
            else np.full(len(dictionary), -1, dtype=np.int64)
        )
        if self.epoch.shape != (len(dictionary),):
            raise StorageError(
                f"state epoch shape {self.epoch.shape} does not match "
                f"{len(dictionary)} meters"
            )
        self.commit = int(commit)
        self._dictionary = dictionary
        self._index: dict[str, int] | None = None

    def last_ingested_day(self, consumer_id: str) -> int:
        """Last day index ingested for a meter (-1 = never)."""
        return int(self.last_day[self._code(consumer_id)])

    def last_epoch(self, consumer_id: str) -> int:
        """Highest window epoch applied for a meter (-1 = none)."""
        return int(self.epoch[self._code(consumer_id)])

    def _code(self, consumer_id: str) -> int:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._dictionary)}
        try:
            return self._index[consumer_id]
        except KeyError:
            raise StorageError(f"unknown household id {consumer_id!r}") from None

    def as_dict(self) -> dict[str, int]:
        """The full state as {consumer_id: last_day}."""
        return {
            cid: int(day) for cid, day in zip(self._dictionary, self.last_day)
        }

    def save(self, path: Path) -> None:
        """Persist atomically (temp + fsync + rename)."""
        import io

        buf = io.BytesIO()
        np.savez(
            buf,
            last_day=self.last_day,
            epoch=self.epoch,
            commit=np.int64(self.commit),
        )
        _atomic_write_bytes(path, buf.getvalue())

    @classmethod
    def load(cls, path: Path, dictionary: list[str]) -> "StateTable":
        """Load, tolerating pre-epoch files (epoch -1, commit 0)."""
        with np.load(path) as payload:
            last_day = payload["last_day"].copy()
            epoch = (
                payload["epoch"].copy() if "epoch" in payload.files else None
            )
            commit = (
                int(payload["commit"]) if "commit" in payload.files else 0
            )
        return cls(last_day, dictionary, epoch=epoch, commit=commit)


def _payload_to_npz(prefix: str, payload: dict, out: dict) -> None:
    """Flatten a codec payload into npz-compatible ``prefix__key`` arrays."""
    for key, value in payload.items():
        out[f"{prefix}__{key}"] = (
            value if isinstance(value, np.ndarray) else np.asarray(value)
        )


def _payload_from_npz(prefix: str, npz) -> dict:
    """Inverse of :func:`_payload_to_npz` for one column prefix."""
    payload = {}
    head = f"{prefix}__"
    for key in npz.files:
        if not key.startswith(head):
            continue
        value = npz[key]
        name = key[len(head):]
        if name in ("mode",):
            payload[name] = str(value)
        elif value.ndim == 0:
            payload[name] = value.item()
        else:
            payload[name] = value
    if not payload:
        raise StorageError(f"partition file has no column {prefix!r}")
    return payload


def _zone_of(values: np.ndarray) -> tuple[float, float, bool]:
    """(min, max, has_nan) over a partition's values, NaN-ignoring."""
    nan_mask = np.isnan(values)
    if nan_mask.all():
        return float("inf"), float("-inf"), True
    if nan_mask.any():
        return (
            float(np.nanmin(values)),
            float(np.nanmax(values)),
            True,
        )
    return float(values.min()), float(values.max()), False


class PartitionedTable:
    """An open v2 table: partition index + dictionary + ingest state."""

    def __init__(self, directory: Path, meta: dict) -> None:
        self.directory = directory
        self.name = meta["name"]
        self.dictionary: list[str] = list(meta["dictionary"])
        self.consumer_blocks: list[tuple[int, int]] = [
            (int(c0), int(nc)) for c0, nc in meta["consumer_blocks"]
        ]
        self.hour_blocks: list[tuple[int, int]] = [
            (int(h0), int(nh)) for h0, nh in meta["hour_blocks"]
        ]
        self.partitions: dict[tuple[int, int], PartitionInfo] = {
            tuple(int(x) for x in key.split(",")): PartitionInfo.from_json(p)
            for key, p in meta["partitions"].items()
        }
        self.columns: list[str] = list(meta["columns"])
        self._meta = meta
        self._dict_index: dict[str, int] | None = None
        self._state: StateTable | None = None
        #: Populated by every :meth:`scan`.
        self.last_scan_stats = ScanStats()
        #: Running max of decoded batch bytes across *all* scans on this
        #: handle (``last_scan_stats`` resets per scan); reset by callers
        #: that meter a whole multi-scan run.
        self.scan_peak_bytes = 0

    # Shape ----------------------------------------------------------------

    @property
    def n_households(self) -> int:
        return len(self.dictionary)

    @property
    def consumers_per_part(self) -> int:
        """Partition width on the consumer axis."""
        return int(self._meta["consumers_per_part"])

    @property
    def days_per_part(self) -> int:
        """Partition height in days on the time axis."""
        return int(self._meta["days_per_part"])

    @property
    def n_hours(self) -> int:
        if not self.hour_blocks:
            return 0
        h0, nh = self.hour_blocks[-1]
        return h0 + nh

    @property
    def n_days(self) -> int:
        """Whole or partial days covered (day of the last hour + 1)."""
        return 0 if self.n_hours == 0 else day_of_hour(self.n_hours - 1) + 1

    @property
    def n_rows(self) -> int:
        return self.n_households * self.n_hours

    @property
    def last_epoch(self) -> int:
        """Highest window epoch committed to this table (-1 = none).

        The exactly-once contract of the streaming sink: an append or
        overwrite carrying an epoch at or below this value has already
        been applied and is a crash-replay redelivery.
        """
        return int(self._meta.get("last_epoch", -1))

    @property
    def commit(self) -> int:
        """Commit counter of the table meta (0 for pre-epoch tables)."""
        return int(self._meta.get("commit", 0))

    def raw_bytes(self) -> int:
        """Uncompressed float64 measurement bytes the table represents."""
        return self.n_rows * 8 * len(self.columns)

    def compressed_bytes(self) -> int:
        """Actual on-disk bytes of all partition files."""
        return sum(
            (self.directory / p.file_name).stat().st_size
            for p in self.partitions.values()
        )

    # Dictionary -----------------------------------------------------------

    def decode(self, code: int) -> str:
        """Dictionary-decode a household code."""
        try:
            return self.dictionary[code]
        except IndexError:
            raise StorageError(f"code {code} outside dictionary") from None

    def encode(self, value: str) -> int:
        """Dictionary-encode a household id."""
        if self._dict_index is None:
            self._dict_index = {v: i for i, v in enumerate(self.dictionary)}
        try:
            return self._dict_index[value]
        except KeyError:
            raise StorageError(f"unknown household id {value!r}") from None

    # State ----------------------------------------------------------------

    def state(self) -> StateTable:
        """The operational ingest-state table (cached, self-healing).

        A state file that is missing, torn, or from a different commit
        than the meta (a crash landed between the meta commit and the
        state write) is rebuilt from the meta: the meta is the commit
        point, the state table a derived convenience view.
        """
        if self._state is None:
            path = self.directory / _STATE_FILE
            try:
                state = StateTable.load(path, self.dictionary)
            except (OSError, KeyError, ValueError, StorageError):
                state = None
            if state is None or state.commit != self.commit:
                state = self._rebuild_state()
                state.save(path)
            self._state = state
        return self._state

    def _rebuild_state(self) -> StateTable:
        """Derive the per-meter state from the (authoritative) meta."""
        n = self.n_households
        last_day = np.full(
            n, self.n_days - 1 if self.n_hours else -1, dtype=np.int64
        )
        epoch = np.full(n, self.last_epoch, dtype=np.int64)
        return StateTable(
            last_day, self.dictionary, epoch=epoch, commit=self.commit
        )

    # Reading --------------------------------------------------------------

    def read_partition(
        self, info: PartitionInfo, columns: list[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Decode one partition's float columns into (nc, nh) matrices."""
        cols = list(columns) if columns is not None else list(self.columns)
        out = {}
        with np.load(self.directory / info.file_name) as npz:
            for col in cols:
                flat = FloatColumnCodec.decode(_payload_from_npz(col, npz))
                out[col] = flat.reshape(info.n_consumers, info.n_hours)
        return out

    def scan(
        self,
        columns: list[str] | None = None,
        consumer_range: tuple[int, int] | None = None,
        hour_range: tuple[int, int] | None = None,
        value_ranges: dict[str, tuple[float, float]] | None = None,
        memory_budget_bytes: int | None = None,
    ) -> Iterator[PartitionBatch]:
        """Stream partitions surviving pruning, one decoded batch at a time.

        ``consumer_range``/``hour_range`` are half-open global index ranges
        (predicate pushdown: batches are sliced exactly to the rectangle);
        ``value_ranges`` maps column -> inclusive (lo, hi) and prunes via
        per-partition zone maps only (callers still apply the exact
        predicate to the rows they receive).  With ``memory_budget_bytes``
        set, a partition whose decoded batch would exceed the budget
        raises :class:`StorageError` instead of silently blowing the
        memory envelope.  Pruning/peak statistics for the scan land in
        :attr:`last_scan_stats`.
        """
        cols = list(columns) if columns is not None else list(self.columns)
        unknown = [c for c in cols if c not in self.columns]
        if unknown:
            raise StorageError(
                f"table {self.name!r} has no columns {unknown}; "
                f"available: {self.columns}"
            )
        c_lo, c_hi = consumer_range or (0, self.n_households)
        h_lo, h_hi = hour_range or (0, self.n_hours)
        ranges = value_ranges or {}
        stats = ScanStats(
            partitions_total=len(self.partitions),
            memory_budget_bytes=memory_budget_bytes,
        )
        self.last_scan_stats = stats
        for key in sorted(self.partitions):
            info = self.partitions[key]
            if not info.overlaps(c_lo, c_hi, h_lo, h_hi):
                continue
            if not info.survives_value_ranges(ranges):
                continue
            batch_bytes = info.n_rows * 8 * len(cols)
            if (
                memory_budget_bytes is not None
                and batch_bytes > memory_budget_bytes
            ):
                raise StorageError(
                    f"partition {info.file_name} needs {batch_bytes} bytes "
                    f"decoded, over the {memory_budget_bytes}-byte budget; "
                    f"re-ingest with smaller partitions"
                )
            matrices = self.read_partition(info, cols)
            # Predicate pushdown: slice exactly to the query rectangle.
            r0 = max(c_lo, info.consumer0) - info.consumer0
            r1 = min(c_hi, info.consumer0 + info.n_consumers) - info.consumer0
            k0 = max(h_lo, info.hour0) - info.hour0
            k1 = min(h_hi, info.hour0 + info.n_hours) - info.hour0
            if (r0, r1, k0, k1) != (0, info.n_consumers, 0, info.n_hours):
                matrices = {c: m[r0:r1, k0:k1] for c, m in matrices.items()}
            consumer0 = info.consumer0 + r0
            batch = PartitionBatch(
                consumer0=consumer0,
                hour0=info.hour0 + k0,
                consumer_ids=self.dictionary[consumer0 : consumer0 + (r1 - r0)],
                columns=matrices,
            )
            stats.partitions_scanned += 1
            stats.rows_scanned += batch.n_consumers * batch.n_hours
            stats.peak_batch_bytes = max(stats.peak_batch_bytes, batch.nbytes())
            self.scan_peak_bytes = max(self.scan_peak_bytes, batch.nbytes())
            yield batch

    def read_matrices(
        self,
        consumer_range: tuple[int, int] | None = None,
        columns: list[str] | None = None,
        memory_budget_bytes: int | None = None,
    ) -> tuple[list[str], dict[str, np.ndarray]]:
        """Assemble full-width matrices for a consumer range.

        Concatenates the range's hour-blocks back into contiguous
        ``(nc, n_hours)`` matrices — bit-identical to what the v1 memmap
        store would serve for the same consumers.
        """
        cols = list(columns) if columns is not None else list(self.columns)
        c_lo, c_hi = consumer_range or (0, self.n_households)
        nc = c_hi - c_lo
        out = {
            col: np.empty((nc, self.n_hours), dtype=np.float64) for col in cols
        }
        for batch in self.scan(
            columns=cols,
            consumer_range=(c_lo, c_hi),
            memory_budget_bytes=memory_budget_bytes,
        ):
            r0 = batch.consumer0 - c_lo
            h0 = batch.hour0
            for col in cols:
                m = batch.columns[col]
                out[col][r0 : r0 + m.shape[0], h0 : h0 + m.shape[1]] = m
        return self.dictionary[c_lo:c_hi], out


class PartitionedStore:
    """A directory of partitioned v2 column tables."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._commit_listeners: list = []

    def on_commit(self, callback) -> Callable[[], None]:
        """Register ``callback(name, commit)`` to run after every commit.

        Fired once per successful commit point — initial ingest, append,
        overwrite — *after* the meta and state writes land, with the
        table name and its new commit counter.  This is the dataset-
        version hook the serving plane uses to invalidate cached views
        and results the moment an ingest lands.  Idempotent replays that
        touch nothing (epoch redeliveries, fully-overlapping skips) do
        not fire.  Listeners must not raise: they run inline on the
        ingesting thread.

        Returns an idempotent ``unsubscribe()`` that removes the
        listener, so the store stops holding its owner alive.
        """
        self._commit_listeners.append(callback)

        def unsubscribe() -> None:
            if callback in self._commit_listeners:
                self._commit_listeners.remove(callback)

        return unsubscribe

    def _notify_commit(self, name: str, commit: int) -> None:
        for callback in tuple(self._commit_listeners):
            callback(name, commit)

    def _table_dir(self, name: str) -> Path:
        return self.root / name

    def list_tables(self) -> list[str]:
        """Names of v2 tables present in the store."""
        return sorted(
            p.name for p in self.root.iterdir() if (p / _META_FILE).exists()
        )

    # Ingest ----------------------------------------------------------------

    def ingest_dataset(
        self,
        dataset: Dataset,
        name: str = "readings",
        consumers_per_part: int = DEFAULT_CONSUMERS_PER_PART,
        days_per_part: int = DEFAULT_DAYS_PER_PART,
        epoch: int | None = None,
    ) -> PartitionedTable:
        """Write a dataset as a partitioned table and open it.

        The ingest is the write-through point for the operational state
        table: after it, every meter's last-ingested day equals the last
        day of ``dataset``.  Callers running under an ingest policy
        (:mod:`repro.ingest`) pass the already-cleaned dataset here, so
        quarantined meters simply never enter the dictionary or state.

        ``epoch`` (streaming sink) stamps the table's initial window
        epoch; the meta write is the commit point — a crash before it
        leaves no visible table, so a replayed ingest simply rewrites.
        """
        if consumers_per_part <= 0 or days_per_part <= 0:
            raise StorageError(
                f"partition tile must be positive, got "
                f"{consumers_per_part} consumers x {days_per_part} days"
            )
        directory = self._table_dir(name)
        if (directory / _META_FILE).exists():
            raise StorageError(f"table {name!r} already exists in {self.root}")
        directory.mkdir(parents=True, exist_ok=True)

        n, n_hours = dataset.consumption.shape
        codes, dictionary = StringDictCodec.encode(list(dataset.consumer_ids))
        if not np.array_equal(codes, np.arange(n)):
            raise StorageError("consumer ids must be unique")  # pragma: no cover

        consumer_blocks = _blocks(n, consumers_per_part)
        hour_blocks = _blocks(n_hours, days_per_part * HOURS_PER_DAY)
        matrices = {
            "consumption": dataset.consumption,
            "temperature": dataset.temperature,
        }
        partitions = _write_partitions(
            directory, matrices, consumer_blocks, hour_blocks, hour_block0=0
        )

        last_day = 0 if n_hours == 0 else day_of_hour(n_hours - 1)
        state = StateTable(
            np.full(n, last_day if n_hours else -1, dtype=np.int64),
            dictionary,
            epoch=np.full(
                n, epoch if epoch is not None else -1, dtype=np.int64
            ),
            commit=0,
        )
        state.save(directory / _STATE_FILE)

        meta = {
            "name": name,
            "version": 2,
            "dictionary": dictionary,
            "columns": list(FLOAT_COLUMNS),
            "consumers_per_part": int(consumers_per_part),
            "days_per_part": int(days_per_part),
            "consumer_blocks": [list(b) for b in consumer_blocks],
            "hour_blocks": [list(b) for b in hour_blocks],
            "partitions": {
                f"{ci},{hi}": info.to_json()
                for (ci, hi), info in partitions.items()
            },
            "commit": 0,
            "last_epoch": epoch if epoch is not None else -1,
        }
        crash_here("sink-append")
        _atomic_write_bytes(
            directory / _META_FILE, json.dumps(meta).encode()
        )
        self._notify_commit(name, 0)
        return self.open(name)

    def append_days(
        self,
        name: str,
        batch: Dataset,
        *,
        start_day: int | None = None,
        on_conflict: str = "error",
        epoch: int | None = None,
    ) -> PartitionedTable:
        """Append whole new days of readings for every meter (append-only).

        ``batch`` must cover exactly the table's consumer set, in
        dictionary order, with a whole number of days.  New hour-blocks
        are written as fresh partition files — existing partitions are
        immutable — and the state table advances to the new last day.

        ``start_day`` declares the global day index the batch starts at
        (``None`` = straight append at the current end).  Declaring it
        makes redelivery explicit instead of silently double-appending:
        a batch that starts below the table's next day *overlaps* days
        the state table already recorded, and ``on_conflict`` decides —
        ``"error"`` (default) raises naming the overlap, ``"skip"``
        drops the already-ingested days and appends only the genuinely
        new tail (an idempotent re-send).  A ``start_day`` beyond the
        next day would leave a hole and always raises.

        ``epoch`` is the exactly-once key of the streaming sink: when
        given, an append whose epoch is at or below the table's
        committed ``last_epoch`` is a crash-replay redelivery and
        returns without touching the table — *before* the overlap check,
        so a replayed ``on_conflict="error"`` append cannot spuriously
        raise.  The meta write is the atomic commit point; the state
        table is rewritten after it and self-heals if a crash lands in
        between.
        """
        if on_conflict not in ("error", "skip"):
            raise StorageError(
                f"on_conflict must be 'error' or 'skip', got {on_conflict!r}"
            )
        table = self.open(name)
        if list(batch.consumer_ids) != table.dictionary:
            raise StorageError(
                "append batch must cover exactly the table's consumer set "
                "in dictionary order"
            )
        n_new = batch.consumption.shape[1]
        if n_new == 0 or n_new % HOURS_PER_DAY != 0:
            raise StorageError(
                f"append batch must be a whole number of days, "
                f"got {n_new} hours"
            )
        if epoch is not None and epoch <= table.last_epoch:
            return table  # already committed: idempotent replay
        next_day = table.n_hours // HOURS_PER_DAY
        if start_day is not None and start_day != next_day:
            if start_day > next_day:
                raise StorageError(
                    f"append at day {start_day} would leave a gap: table "
                    f"{name!r} ends at day {next_day - 1} "
                    f"(next appendable day is {next_day})"
                )
            overlap_days = next_day - start_day
            batch_days = n_new // HOURS_PER_DAY
            if on_conflict == "error":
                raise StorageError(
                    f"append batch for days {start_day}..."
                    f"{start_day + batch_days - 1} overlaps "
                    f"{min(overlap_days, batch_days)} already-ingested "
                    f"days of table {name!r} (ingested through day "
                    f"{next_day - 1}); re-send with on_conflict='skip' "
                    f"to drop the duplicate days"
                )
            if overlap_days >= batch_days:
                return table  # whole batch already ingested: no-op
            skip_hours = overlap_days * HOURS_PER_DAY
            batch = Dataset(
                consumer_ids=list(batch.consumer_ids),
                consumption=batch.consumption[:, skip_hours:],
                temperature=batch.temperature[:, skip_hours:],
                name=batch.name,
            )
            n_new -= skip_hours
        directory = table.directory
        meta = dict(table._meta)  # noqa: SLF001 - store owns its tables
        hour0 = table.n_hours
        consumer_blocks = table.consumer_blocks
        days_per_part = int(meta["days_per_part"])
        new_hour_blocks = [
            (hour0 + h0, nh)
            for h0, nh in _blocks(n_new, days_per_part * HOURS_PER_DAY)
        ]
        matrices = {
            "consumption": batch.consumption,
            "temperature": batch.temperature,
        }
        partitions = _write_partitions(
            directory,
            matrices,
            consumer_blocks,
            new_hour_blocks,
            hour_block0=len(table.hour_blocks),
            matrix_hour0=hour0,
        )
        meta["hour_blocks"] = [
            list(b) for b in (*table.hour_blocks, *new_hour_blocks)
        ]
        all_partitions = dict(table.partitions)
        all_partitions.update(partitions)
        meta["partitions"] = {
            f"{ci},{hi}": info.to_json()
            for (ci, hi), info in all_partitions.items()
        }
        commit = table.commit + 1
        meta["commit"] = commit
        if epoch is not None:
            meta["last_epoch"] = epoch

        crash_here("sink-append")
        _atomic_write_bytes(
            directory / _META_FILE, json.dumps(meta).encode()
        )
        state = table.state()
        state.last_day[:] = day_of_hour(hour0 + n_new - 1)
        if epoch is not None:
            state.epoch[:] = epoch
        state.commit = commit
        state.save(directory / _STATE_FILE)
        self._notify_commit(name, commit)
        return self.open(name)

    def overwrite_days(
        self,
        name: str,
        batch: Dataset,
        *,
        start_day: int,
        epoch: int | None = None,
    ) -> PartitionedTable:
        """Replace already-ingested whole days for every meter in place.

        The explicit revision path of the streaming sink (an applied-late
        window re-emission): ``batch`` must cover exactly the table's
        consumer set and a whole-day range that is *entirely* ingested
        already — overwrite never extends a table; that is what
        :meth:`append_days` is for.

        Affected partitions are spliced and rewritten under *versioned*
        file names (``part_cXXXXX_hYYYYY_rCCCCCC.npz`` where ``C`` is the
        new commit number); the atomic meta write then flips the table to
        the new files in one step and the old files are unlinked last.  A
        crash before the meta commit leaves the table reading the old
        files (a replay rewrites the same versioned names); ``epoch``
        redeliveries at or below the committed ``last_epoch`` are
        skipped, exactly like :meth:`append_days`.
        """
        table = self.open(name)
        if list(batch.consumer_ids) != table.dictionary:
            raise StorageError(
                "overwrite batch must cover exactly the table's consumer "
                "set in dictionary order"
            )
        n_new = batch.consumption.shape[1]
        if n_new == 0 or n_new % HOURS_PER_DAY != 0:
            raise StorageError(
                f"overwrite batch must be a whole number of days, "
                f"got {n_new} hours"
            )
        end_day = start_day + n_new // HOURS_PER_DAY
        if start_day < 0 or end_day * HOURS_PER_DAY > table.n_hours:
            raise StorageError(
                f"overwrite range days {start_day}...{end_day - 1} is not "
                f"fully ingested in table {name!r} "
                f"(table covers days 0...{table.n_days - 1}); "
                "use append_days to extend a table"
            )
        if epoch is not None and epoch <= table.last_epoch:
            return table  # already committed: idempotent replay
        h_lo, h_hi = start_day * HOURS_PER_DAY, end_day * HOURS_PER_DAY
        commit = table.commit + 1
        matrices = {
            "consumption": batch.consumption,
            "temperature": batch.temperature,
        }

        updated: dict[tuple[int, int], PartitionInfo] = {}
        stale: list[str] = []
        for key in sorted(table.partitions):
            info = table.partitions[key]
            if not (info.hour0 < h_hi and h_lo < info.hour0 + info.n_hours):
                continue
            tiles = table.read_partition(info)
            a = max(h_lo, info.hour0)
            b = min(h_hi, info.hour0 + info.n_hours)
            for col in table.columns:
                tiles[col][:, a - info.hour0 : b - info.hour0] = matrices[col][
                    info.consumer0 : info.consumer0 + info.n_consumers,
                    a - h_lo : b - h_lo,
                ]
            file_name = (
                f"part_c{info.consumer_block:05d}"
                f"_h{info.hour_block:05d}_r{commit:06d}.npz"
            )
            zones, raw, compressed = _encode_partition_file(
                table.directory, file_name, tiles
            )
            updated[key] = replace(
                info,
                file_name=file_name,
                zones=zones,
                raw_bytes=raw,
                compressed_bytes=compressed,
            )
            stale.append(info.file_name)

        crash_here("sink-append")
        meta = dict(table._meta)  # noqa: SLF001 - store owns its tables
        all_partitions = dict(table.partitions)
        all_partitions.update(updated)
        meta["partitions"] = {
            f"{ci},{hi}": info.to_json()
            for (ci, hi), info in all_partitions.items()
        }
        meta["commit"] = commit
        if epoch is not None:
            meta["last_epoch"] = epoch
        _atomic_write_bytes(
            table.directory / _META_FILE, json.dumps(meta).encode()
        )
        state = table.state()
        if epoch is not None:
            state.epoch[:] = epoch
        state.commit = commit
        state.save(table.directory / _STATE_FILE)
        for file_name in stale:
            try:
                (table.directory / file_name).unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._notify_commit(name, commit)
        return self.open(name)

    # Open / drop ------------------------------------------------------------

    def open(self, name: str) -> PartitionedTable:
        """Open a table by reading its partition index (no data I/O)."""
        directory = self._table_dir(name)
        meta_path = directory / _META_FILE
        if not meta_path.exists():
            raise StorageError(f"no table {name!r} in {self.root}")
        return PartitionedTable(directory, json.loads(meta_path.read_text()))

    def drop(self, name: str) -> None:
        """Delete a table: partitions, state table, meta — all sidecars.

        Idempotent like the v1 store's drop: missing table dir is a no-op.
        """
        directory = self._table_dir(name)
        if not directory.exists():
            return
        shutil.rmtree(directory)


def _blocks(total: int, size: int) -> list[tuple[int, int]]:
    """Tile ``total`` items into (start, length) blocks of ``size``."""
    if total == 0:
        return []
    return [
        (start, min(size, total - start)) for start in range(0, total, size)
    ]


def _write_partitions(
    directory: Path,
    matrices: dict[str, np.ndarray],
    consumer_blocks: list[tuple[int, int]],
    hour_blocks: list[tuple[int, int]],
    hour_block0: int,
    matrix_hour0: int = 0,
) -> dict[tuple[int, int], PartitionInfo]:
    """Encode and write one partition file per grid tile.

    ``hour_blocks`` carry *global* hour origins; ``matrix_hour0`` maps them
    back to column indices of the in-memory ``matrices`` (non-zero when
    appending).  ``hour_block0`` is the global index of the first new hour
    block (appends continue the existing numbering).
    """
    partitions: dict[tuple[int, int], PartitionInfo] = {}
    for ci, (c0, nc) in enumerate(consumer_blocks):
        for hj, (h0, nh) in enumerate(hour_blocks):
            hi = hour_block0 + hj
            file_name = f"part_c{ci:05d}_h{hi:05d}.npz"
            local_h0 = h0 - matrix_hour0
            tiles = {
                col: matrix[c0 : c0 + nc, local_h0 : local_h0 + nh]
                for col, matrix in matrices.items()
            }
            zones, raw, compressed = _encode_partition_file(
                directory, file_name, tiles
            )
            partitions[(ci, hi)] = PartitionInfo(
                consumer_block=ci,
                hour_block=hi,
                consumer0=c0,
                n_consumers=nc,
                hour0=h0,
                n_hours=nh,
                file_name=file_name,
                zones=zones,
                raw_bytes=raw,
                compressed_bytes=compressed,
            )
    return partitions


def _encode_partition_file(
    directory: Path, file_name: str, tiles: dict[str, np.ndarray]
) -> tuple[dict[str, tuple[float, float, bool]], int, int]:
    """Encode one partition's column tiles into an ``.npz`` file.

    Returns ``(zones, raw_bytes, compressed_bytes)``.
    """
    arrays: dict[str, np.ndarray] = {}
    zones: dict[str, tuple[float, float, bool]] = {}
    raw = 0
    for col, tile in tiles.items():
        flat = np.ascontiguousarray(tile).reshape(-1)
        zones[col] = _zone_of(flat)
        raw += flat.nbytes
        _payload_to_npz(col, FloatColumnCodec.encode(flat), arrays)
    path = directory / file_name
    np.savez(path, **arrays)
    return zones, raw, path.stat().st_size
