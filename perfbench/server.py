"""Run a :class:`QueryService` on its own thread and event loop.

The benchmark's client lives on the main thread's loop, as a remote
client would, so the service's loop carries only the service's work.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serve import QueryService


class ServiceThread:
    """One event loop on a daemon-free thread; services start and stop on it."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="serve-loop"
        )
        self._thread.start()

    def call(self, coro, timeout: float = 120.0):
        """Run a coroutine on the service loop; return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def start(self, service: QueryService) -> int:
        """Start ``service`` on this loop; returns its port."""
        self.call(service.start())
        return service.port

    def stop(self, service: QueryService) -> None:
        self.call(service.stop())

    def close(self) -> None:
        """Stop the loop and wait for the thread to end."""
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("service loop did not stop")
        self.loop.close()
