"""In-process server and cluster harnesses for tests and benchmarks.

:class:`_ServerThread` runs a :class:`~repro.service.server.SimulationServer`
on its own event-loop thread; :class:`ClusterThread` does the same for a
:class:`~repro.service.cluster.ClusterRouter` and its spawned engine
worker processes.  Both bind ephemeral ports, expose them as ``.port`` /
``.metrics_port`` and drain the service on ``__exit__``.  Rates for the
served path come from ``perfbench/`` (workload ``served-stream``).
"""

from __future__ import annotations

import asyncio
import threading

from repro.errors import ServiceError
from repro.service.server import SimulationServer
from repro.service.session import SessionManager


class _ServerThread:
    """An in-process server on its own event-loop thread (port 0)."""

    def __init__(self, manager: SessionManager,
                 metrics_port: "int | None" = None) -> None:
        self.server = SimulationServer(manager, port=0,
                                       metrics_port=metrics_port)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-server",
                                        daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise ServiceError("in-process server failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(checkpoint=False), self._loop)
        try:
            future.result(timeout=30)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def metrics_port(self) -> "int | None":
        return self.server.metrics_port


class ClusterThread:
    """An in-process cluster router on its own event-loop thread.

    The router's engine workers are real spawned processes; only the
    router's asyncio front-end runs on this thread.  Mirrors
    :class:`_ServerThread`.
    """

    def __init__(self, workers: int, max_inflight_chunks: int = 2,
                 worker_threads: int = 4,
                 checkpoint_dir: "str | None" = None,
                 tracing: bool = False,
                 metrics_port: "int | None" = None) -> None:
        from repro.service.cluster import ClusterRouter

        self.router = ClusterRouter(
            workers=workers, port=0, metrics_port=metrics_port,
            checkpoint_dir=checkpoint_dir,
            max_inflight_chunks=max_inflight_chunks,
            worker_threads=worker_threads, tracing=tracing)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-cluster-router",
                                        daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.router.start())
        except BaseException as exc:
            self._startup_error = exc
        finally:
            self._started.set()
        if self._startup_error is None:
            self._loop.run_forever()

    def __enter__(self) -> "ClusterThread":
        self._thread.start()
        # Generous deadline: each engine worker is a spawned process
        # that imports the full package before it can listen.
        if not self._started.wait(timeout=180):
            raise ServiceError("cluster router failed to start")
        if self._startup_error is not None:
            raise ServiceError(
                f"cluster startup failed: {self._startup_error}"
            ) from self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.router.drain(), self._loop)
        try:
            future.result(timeout=180)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop.close()
            self.router.cleanup()

    @property
    def port(self) -> int:
        return self.router.port

    @property
    def metrics_port(self) -> "int | None":
        return self.router.metrics_port
