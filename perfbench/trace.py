"""Spans around the calls into each layer, recorded from outside ``src/``.

:class:`Tracer` wraps public entry points of the program's modules in
place (``install``) and restores them (``uninstall``).  Each wrapped call
records one :class:`Span`: name, layer, start, end, parent span, thread
and request id.  Spans stay in memory; :meth:`Tracer.dump` writes them
out once, when the run ends.

Names are patched where the caller looks them up: a function imported
with ``from x import f`` into module ``m`` is patched as ``m.f``, a
method on its class.  ``active`` gates recording, so a traced run can
interleave traced and untraced segments and measure the tracer's own
overhead from the difference.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    request: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: A span name: a fixed string, or a function of (args, kwargs, result).
Namer = str | Callable[[tuple, dict, Any], str]


class Tracer:
    """Records spans around patched callables; see the module docs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Serve requests by cancel token, so worker-thread spans carry
        #: the id of the request they execute.
        self._token_requests: dict[int, str] = {}

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (only while the tracer is active)."""
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable, name: Namer, layer: str,
             request: Callable | None = None) -> Callable:
        """``fn`` recording one span per call while the tracer is active.

        ``request(args)``, when given, names the request the call serves;
        spans started on this thread during the call carry that id.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            if request is not None:
                self._local.request = request(args)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(
                    args, kwargs, result
                )
                self.spans.append(Span(
                    span_id, label, layer, start, end, parent,
                    threading.get_ident(),
                    getattr(self._local, "request", None),
                ))
                if request is not None:
                    self._local.request = None

        return traced

    def patch(self, target: str, name: Namer, layer: str,
              hook: Callable | None = None,
              request: Callable | None = None) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` in place.

        ``hook(args, kwargs, result)`` runs after each call while the
        tracer is active; counters are taken there.
        """
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        wrapped = self.wrap(original, name, layer, request)
        if hook is not None:
            inner = wrapped

            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                result = inner(*args, **kwargs)
                if self.active:
                    hook(args, kwargs, result)
                return result

        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [asdict(s) for s in self.spans],
            "counters": self.counters,
        }))

    # -- the program's entry points -----------------------------------------

    def install(self) -> None:
        """Patch the entry points of every layer the workloads cross."""
        P = self.patch
        # streaming.durability: one tick end to end, and its WAL steps.
        P("repro.streaming.durability.DurablePlane.ingest",
          "durable.ingest", "streaming.durability")
        P("repro.streaming.durability.WriteAheadLog.append_batch",
          "wal.append", "streaming.durability",
          hook=lambda a, k, r: self.count("wal.readings", len(a[1])))
        P("repro.streaming.durability.WriteAheadLog.append_note",
          "wal.append", "streaming.durability")
        P("repro.streaming.durability.WriteAheadLog.sync",
          "wal.sync", "streaming.durability")
        P("repro.streaming.durability.encode_record",
          "wal.encode", "streaming.durability",
          hook=lambda a, k, r: self.count("wal.bytes", len(r)))
        P("repro.streaming.durability.DurablePlane.checkpoint",
          "checkpoint", "streaming.durability")
        # streaming.window: a call that emits nothing is a fold.
        P("repro.streaming.window.StreamingPlane.ingest",
          lambda a, k, r: "streaming.close" if r else "streaming.fold",
          "streaming.window",
          hook=lambda a, k, r: self.count("streaming.windows_closed",
                                          len(r)))
        # streaming.sink + columnar.partstore write and read paths.
        P("repro.streaming.sink.StoreSink.write",
          "sink.write", "streaming.sink")
        for method in ("append_days", "ingest_dataset", "overwrite_days"):
            P(f"repro.columnar.partstore.PartitionedStore.{method}",
              "store.append", "columnar.partstore")
        P("repro.columnar.partstore.PartitionedTable.read_matrices",
          "store.read", "columnar.partstore")
        # serve.executor entry points; the token maps a worker thread's
        # spans back to the request it runs.
        P("repro.serve.admission.AdmissionController.offer",
          "admission.offer", "serve.service", hook=self._note_request)
        # Both take the query's cancel token as their second argument.
        token_request = lambda a: self._token_requests.pop(id(a[2]), None)
        P("repro.serve.executor.QueryExecutor.run_task",
          "serve.run_task", "serve.executor", request=token_request)
        P("repro.serve.executor.QueryExecutor.run_sql",
          "serve.run_sql", "serve.executor", request=token_request)
        P("repro.serve.executor.serialize_task_results",
          "serve.serialize", "serve.executor")
        # core.benchmark / batched kernels, as serve calls them.
        P("repro.serve.executor.run_task_reference",
          lambda a, k, r: f"kernel.{a[1].value}", "core.benchmark")
        P("repro.serve.executor.cosine_similarity_block",
          "kernel.similarity", "core.benchmark")
        # relational + sql.  execute_select is imported at call time.
        P("repro.serve.executor.load_dataset",
          "relational.heap_build", "relational",
          hook=lambda a, k, r: self.count("relational.tuples_loaded",
                                          a[1].consumption.size))
        P("repro.relational.executor.execute_select",
          "relational.exec", "relational")
        P("repro.serve.executor.parse_select", "sql.parse", "sql")
        # serve.protocol: frames the service sends carry a "kind".
        P("repro.serve.protocol.encode_frame", "protocol.encode",
          "serve.protocol", hook=self._note_frame)
        P("repro.serve.protocol.decode_payload", "protocol.decode",
          "serve.protocol")

    def _note_request(self, args, kwargs, result) -> None:
        query = args[2]
        self._token_requests[id(query.token)] = query.request.get("id")

    def _note_frame(self, args, kwargs, result) -> None:
        if "kind" in args[0]:
            self.count("protocol.frames")
            self.count("protocol.bytes_out", len(result))


def _resolve(target: str) -> tuple[Any, str]:
    """``"a.b.C.m"`` -> (``a.b.C``, ``"m"``), importing the module part."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {target!r}")


# -- arithmetic over recorded spans -------------------------------------------

def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its same-thread children cover.

    A child recorded on another thread (a serve worker running on behalf
    of a request) overlaps its parent in wall time without using the
    parent's thread, so it is not subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.thread == s.thread:
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children.setdefault(parent.id, []).append((lo, hi))
    return {
        s.id: s.duration - union_length(children.get(s.id, []))
        for s in spans
    }
