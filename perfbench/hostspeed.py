"""Host speed, sampled through a run, and wall time rescaled by it.

The benchmark runs on a share of a machine whose neighbours change its
speed.  On a 2-core KVM guest (Xeon, Sapphire Rapids, 105 MB shared
L3) the streaming fold runs at one speed for seconds to minutes, then
up to twice as slow, and back: neighbours contend for the shared cache
and memory.  A run of tens of seconds catches a different mix of fast
and slow phases each time, so its wall times differ from run to run by
more than any bound worth gating on (up to 50% between quartiles).

:class:`HostSpeed` runs one sidecar process pinned to each core the run
may use (the cores' speeds also move on their own; the program's
threads and processes land on either).  Every :data:`PERIOD_S` a
sidecar runs a fixed probe twice and records the thread CPU time of
the second run.  The probe gathers at random from a 32 MB array, reads
every cache line of a 4 MB one, and does a little interpreter, numpy
and JSON work; it runs none of the program's code.  Over a slow-to-fast
switch its cost halved as the fold's did (correlation 0.95 over 5-s
bins).  :meth:`HostSpeed.scaled` turns a wall interval into *reference
time*: each instant of it counts ``REFERENCE_S / c``, where ``c`` is the
median probe cost, over all cores, around that instant.  An operation
that ran while the host was twice as slow counts half its wall time; in
the host's fast phase, reference time is close to wall time.

    python3 perfbench/hostspeed.py OUT CORE   # one sidecar: samples until
                                              # stdin closes
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

#: Seconds between probes, and the probe's cost at reference speed: its
#: cost in a tight loop on the machine above in a fast phase.
PERIOD_S = 0.1
REFERENCE_S = 550e-6
#: Probes on each side whose median gives the cost around an instant.
NEIGHBOURS = 4
#: At most this many sidecars, one per core.
MAX_SIDECARS = 4
SIDECAR_TIMEOUT_S = 30.0

def make_probe() -> Callable[[], float]:
    """The probe, with its data (about 40 MB: built only in the sidecar)."""
    rng = np.random.default_rng(0)
    small = [rng.random(1000) for _ in range(3)]
    codes = (rng.random(1000) * 64).astype(np.int64)
    huge = rng.random(1 << 22)
    pick = rng.integers(0, 1 << 22, 8192)
    stream = rng.random(1 << 19)
    floats = [float(x) for x in rng.random(100)]

    def probe() -> float:
        """One fixed unit of work; returns a value so none is skipped."""
        total = 0.0
        for a in small:
            total += float(np.sort(a)[7] + np.dot(a, a))
        total += float(np.bincount(codes, minlength=64).max())
        total += float(huge[pick].sum() + stream[::8].sum())
        counts: dict[int, int] = {}
        for i in range(400):
            counts[i % 31] = counts.get(i % 31, 0) + i
        return total + len(json.dumps(floats)) + counts[5]

    return probe


class HostSpeed:
    """The sidecars' samples between :meth:`start` and :meth:`stop`, and
    wall intervals inside that span mapped to reference time."""

    def __init__(self, out: Path) -> None:
        #: Sidecar output files are ``out`` with the core appended.
        self.out = out
        #: (midpoint on the ``time.perf_counter`` clock, CPU seconds), in
        #: time order, from all cores.
        self.samples: list[tuple[float, float]] = []
        self._procs: list[tuple[subprocess.Popen, Path]] = []
        self._clock: tuple[np.ndarray, np.ndarray, float] | None = None

    def start(self) -> None:
        cores = sorted(os.sched_getaffinity(0))[:MAX_SIDECARS]
        try:
            for core in cores:
                out = self.out.with_name(f"{self.out.stem}-{core}.json")
                proc = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()),
                     str(out), str(core)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                self._procs.append((proc, out))
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("host speed sidecar did not start")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """End the sidecars and read their samples; safe to call twice."""
        procs, self._procs = self._procs, []
        for proc, _ in procs:
            proc.stdin.close()
        for proc, _ in procs:
            try:
                proc.wait(SIDECAR_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        failed = [p.returncode for p, _ in procs if p.returncode != 0]
        if failed:
            raise RuntimeError(f"host speed sidecar exited {failed[0]}")
        if procs:
            self.samples = sorted(
                tuple(s) for _, out in procs
                for s in json.loads(out.read_text())
            )
            self._clock = None

    def _cumulative(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probe instants, reference time elapsed at each since the first,
        and reference seconds per wall second at each."""
        if self._clock is None:
            if len(self.samples) < 2:
                raise RuntimeError("too few host speed samples")
            at = np.array([t for t, _ in self.samples])
            rate = REFERENCE_S / smoothed([c for _, c in self.samples],
                                          NEIGHBOURS)
            steps = np.diff(at) * (rate[:-1] + rate[1:]) / 2
            self._clock = at, np.concatenate(([0.0], np.cumsum(steps))), rate
        return self._clock

    def scaled(self, start, end):
        """Reference time of the wall interval(s) ``[start, end]``.

        Takes floats or arrays of ``time.perf_counter`` instants.  An
        instant outside the sampled span counts at the nearest probe's
        speed.
        """
        at, ref, rate = self._cumulative()

        def clock(t):
            t = np.asarray(t, dtype=float)
            return (np.interp(t, at, ref)
                    + np.maximum(t - at[-1], 0.0) * rate[-1]
                    + np.minimum(t - at[0], 0.0) * rate[0])

        return clock(end) - clock(start)

    def speed(self) -> float:
        """Reference over median probe cost: 1.0 at reference speed."""
        return REFERENCE_S / float(np.median([c for _, c in self.samples]))


def smoothed(costs, k: int) -> np.ndarray:
    """Running median over each cost and up to ``k`` neighbours a side."""
    values = np.asarray(costs, dtype=float)
    return np.array([
        np.median(values[max(0, i - k):i + k + 1]) for i in range(len(values))
    ])


def _sidecar(out: Path, core: int) -> int:
    """On ``core``, probe every :data:`PERIOD_S` until stdin closes; write
    the samples to ``out``."""
    os.sched_setaffinity(0, {core})
    stop = threading.Event()
    threading.Thread(
        target=lambda: (sys.stdin.read(), stop.set()), daemon=True
    ).start()
    probe = make_probe()
    samples = []
    print("ready", flush=True)
    while not stop.is_set():
        probe()
        t0 = time.perf_counter()
        c0 = time.thread_time()
        probe()
        cost = time.thread_time() - c0
        samples.append(((t0 + time.perf_counter()) / 2, cost))
        stop.wait(PERIOD_S)
    out.write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(_sidecar(Path(sys.argv[1]), int(sys.argv[2])))
