"""The ``hot`` workload's load generator, in a process of its own.

    python3 perfbench/loadgen.py --port P --seed S --seconds T \\
        --answers ANSWERS.json --out RECORDS.json

Opens two connections to the service, prints ``ready``, then reads the
start instant from stdin: a ``time.perf_counter`` value, which on Linux
is the system-wide monotonic clock and so the same in the parent.  From
that instant it sends requests at a fixed rate without waiting for
replies, in the order of :func:`perfbench.inputs.hot_sequence`, request
``i`` on connection ``i % 2`` as tenant ``TENANTS[i % 2]``.  Each
request is timed from its due time and its answer compared with the
pilot's (``ANSWERS.json``).  One record per request is written to
``RECORDS.json``.

A separate process keeps the client's JSON decoding off the service's
interpreter lock, as a remote client would.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

RATE_PER_S = 25.0
TENANTS = ("analyst", "ops")


async def _request(clients, q, answers, i, due, start) -> dict:
    conn = i % len(clients)
    r = await clients[conn].request(
        q.op, q.params, tenant=TENANTS[conn], allow_stale=q.allow_stale
    )
    record = {
        "label": q.label,
        "due_s": due - start,
        "latency_ms": (time.perf_counter() - due) * 1e3,
        "status": r.status,
        "reason": r.reason,
    }
    if r.ok:
        record["fresh_hit"] = bool(r.final.get("cached")) and not r.stale
        got = r.rows if q.op == "sql" else r.result
        record["same"] = got == answers.get(q.label)
        record["timings"] = r.final.get("timings")
        record["total_ms"] = r.total_s * 1e3
    return record


async def _run(args) -> dict:
    answers = json.loads(Path(args.answers).read_text())
    n = max(1, int(args.seconds * RATE_PER_S))
    sequence = inputs.hot_sequence(args.seed, n)
    clients = [
        await ServeClient.connect("127.0.0.1", args.port) for _ in TENANTS
    ]
    try:
        print("ready", flush=True)
        start = float(sys.stdin.readline())
        late_ms = []
        pending = []
        for i, q in enumerate(sequence):
            due = start + i / RATE_PER_S
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late_ms.append((time.perf_counter() - due) * 1e3)
            pending.append(asyncio.create_task(
                _request(clients, q, answers, i, due, start)
            ))
        records = await asyncio.gather(*pending)
        return {
            "records": records,
            "late_ms": late_ms,
            "measured_s": time.perf_counter() - start,
        }
    finally:
        for client in clients:
            await client.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--answers", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = asyncio.run(_run(args))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
