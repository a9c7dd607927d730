"""End-to-end benchmark of the smart-meter pipeline: one workload per run.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``ingest``, ``fresh`` and ``hot`` are described in ``perfbench/README.md``.
``--trace 0`` prints every end-to-end metric, in reference time
(``perfbench/hostspeed.py``: wall time rescaled by the host's speed,
sampled by sidecar processes through the run), ``--trace 1`` every
per-layer metric (from spans recorded around the program's entry
points).  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``: ``failed`` counts
operations that were rejected, errored, missed or hit the cache against
the workload's design, or answered wrongly; ``correct`` is false when
any answer was wrong.  The exit status is non-zero when an answer is
wrong or the program cannot be imported.  ``--workload all`` runs each
workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ingest", "fresh", "hot")
#: Scratch space and span dumps, inside the checkout.
OUT_DIR = ROOT / ".perfbench"


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, so warm state and peak RSS
    belong to that workload alone."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import report
    from perfbench.hostspeed import HostSpeed
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS as RUNNERS

    work = OUT_DIR / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = speed = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        speed = HostSpeed(OUT_DIR / f"speed-{args.workload}-{args.seed}.json")
        speed.start()
    try:
        out = RUNNERS[args.workload](args.seed, args.seconds, tracer, work)
    finally:
        try:
            if tracer is not None:
                tracer.uninstall()
            if speed is not None:
                speed.stop()
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        metrics, lines = report.per_layer(out, tracer)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics, lines = report.end_to_end(args.workload, out, speed)
    for line in lines:
        print(f"{args.workload}: {line}")
    for error in out.errors:
        print(f"{args.workload}: {error}")
    correct = out.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
