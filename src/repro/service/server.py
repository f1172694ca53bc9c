"""Asyncio TCP front-end for the session manager.

One connection may multiplex requests for any number of sessions; frames
on a connection are processed strictly in order.  Blocking manager calls
(feed under backpressure, quiescing snapshots) run on the event loop's
default thread-pool executor, so a saturated session stalls only its own
connection — the stalled coroutine simply stops reading, and TCP flow
control pushes the backpressure all the way to the client.

Shutdown is graceful: :meth:`SimulationServer.drain` (wired to SIGTERM /
SIGINT by :func:`run_server`) stops accepting connections, lets in-flight
requests finish, checkpoints every open session, and only then returns.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
from typing import Dict, Optional, Set

from repro.config_io import from_dict as config_from_dict
from repro.config import SimConfig
from repro.errors import ReproError, ServiceError
from repro.obs.health import HealthConfig
from repro.obs.trace_spans import (SPAN_DECODE, SPAN_ENCODE, new_id, now_us)
from repro.service import protocol
from repro.service.logging import configure_service_logging
from repro.service.session import SessionManager

logger = logging.getLogger("repro.service")

#: Ops whose handler may block on simulation work (run in the executor).
_DRAIN_GRACE_SECONDS = 30.0


class SimulationServer:
    """The streaming-simulation TCP server (one per process)."""

    def __init__(self, manager: SessionManager, host: str = "127.0.0.1",
                 port: int = 0,
                 metrics_port: Optional[int] = None,
                 uds_path: Optional[str] = None) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        #: When set, listen on this unix-domain socket path instead of
        #: TCP — how sharded engine workers expose themselves to the
        #: router (same framing, no port allocation).
        self.uds_path = uds_path
        #: When set, a plain-HTTP listener on this port answers ``GET
        #: /metrics`` with the Prometheus text exposition (0 = ephemeral).
        self.metrics_port = metrics_port
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        self._drain_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self.uds_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.uds_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port)
            self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_request, self.host, self.metrics_port)
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1])
            logger.info("metrics on http://%s:%d/metrics",
                        self.host, self.metrics_port)
        if self.uds_path is not None:
            logger.info("serving on unix socket %s", self.uds_path)
        else:
            logger.info("serving on %s:%d", self.host, self.port)

    @property
    def address(self) -> tuple:
        if self._server is None:
            raise ServiceError("server not started")
        if self.uds_path is not None:
            return (self.uds_path,)
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, checkpoint: bool = True,
                    grace_seconds: float = _DRAIN_GRACE_SECONDS) -> None:
        """Stop accepting, finish in-flight requests, checkpoint, stop.

        Idempotent: concurrent callers (the ``shutdown`` op, the signal
        handler, a test fixture) all await the same underlying drain.
        """
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(
                self._drain_impl(checkpoint, grace_seconds))
        await asyncio.shield(self._drain_task)

    async def _drain_impl(self, checkpoint: bool,
                          grace_seconds: float) -> None:
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            done, pending = await asyncio.wait(
                self._connections, timeout=grace_seconds)
            for task in pending:
                task.cancel()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.manager.drain, checkpoint)
        logger.info("drained: %s", self.manager.stats())

    async def _handle_metrics_request(self, reader: asyncio.StreamReader,
                                      writer: asyncio.StreamWriter) -> None:
        """Minimal HTTP/1.0 responder for Prometheus scrapes + health.

        ``GET /metrics`` (one request per connection) gets the text
        exposition, ``GET /healthz`` the health engine's JSON report
        (200 when ok, 503 when degraded — probe-friendly); other paths
        get 404.  No keep-alive, no chunking — scrapers and probes speak
        exactly this much HTTP.
        """
        try:
            request_line = await asyncio.wait_for(reader.readline(),
                                                  timeout=10.0)
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else ""
            # Drain the remaining request headers.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            loop = asyncio.get_running_loop()
            if path.split("?")[0] == "/metrics":
                text = await loop.run_in_executor(
                    None, self.manager.metrics_text)
                body = text.encode("utf-8")
                status = "200 OK"
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path.split("?")[0] == "/healthz":
                report = await loop.run_in_executor(
                    None, self.manager.health_report)
                body = (json.dumps(protocol.health_to_dict(report),
                                   separators=(",", ":")) + "\n"
                        ).encode("utf-8")
                status = "200 OK" if report.ok else "503 Service Unavailable"
                content_type = "application/json; charset=utf-8"
                if not report.ok:
                    logger.warning(
                        "health degraded", extra={
                            "status": report.status,
                            "detectors": [verdict.detector
                                          for verdict in report.verdicts
                                          if not verdict.ok]})
            else:
                body = b"not found\n"
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
            writer.write(
                (f"HTTP/1.0 {status}\r\n"
                 f"Content-Type: {content_type}\r\n"
                 f"Content-Length: {len(body)}\r\n"
                 f"Connection: close\r\n\r\n").encode("latin-1") + body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------
    # Frame loop
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        spans = self.manager.spans
        try:
            while True:
                try:
                    prefix = await reader.readexactly(protocol.FRAME_PREFIX.size)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                frame_start = now_us() if spans.enabled else 0
                try:
                    header_len, payload_len = protocol.parse_prefix(prefix)
                    header = protocol.decode_header(
                        await reader.readexactly(header_len))
                    payload = (await reader.readexactly(payload_len)
                               if payload_len else b"")
                except asyncio.IncompleteReadError:
                    break
                except ServiceError as exc:
                    # Framing is broken — answer once, then hang up.
                    writer.write(protocol.encode_frame(
                        protocol.error_response(str(exc), "protocol")))
                    await writer.drain()
                    break
                op = header.get("op")
                response = None
                trace_id = client_span = request_span_id = None
                if spans.enabled:
                    try:
                        context = protocol.trace_context(header)
                    except ServiceError as exc:
                        response = protocol.error_response(str(exc),
                                                           "protocol")
                        context = None
                    if response is None:
                        # The request span's ids are minted up front so the
                        # decode/encode stage spans (and the manager's
                        # fifo-wait / feed-chunk spans, via the header's
                        # internal trace context) can parent to it before
                        # the request span itself is recorded.
                        client_span = context["span_id"] if context else None
                        trace_id = (context["trace_id"] if context
                                    else new_id())
                        request_span_id = new_id()
                        header["_trace"] = {"trace_id": trace_id,
                                            "span_id": request_span_id}
                        spans.record(
                            SPAN_DECODE, frame_start,
                            now_us() - frame_start, trace_id=trace_id,
                            parent_id=request_span_id, op=op)
                if response is None:
                    response = await self._dispatch(header, payload)
                encode_start = now_us() if spans.enabled else 0
                writer.write(protocol.encode_frame(response))
                await writer.drain()
                if request_span_id is not None:
                    finish = now_us()
                    spans.record(SPAN_ENCODE, encode_start,
                                 finish - encode_start, trace_id=trace_id,
                                 parent_id=request_span_id, op=op)
                    spans.record(
                        f"request.{op}", frame_start, finish - frame_start,
                        trace_id=trace_id, parent_id=client_span,
                        span_id=request_span_id, op=op,
                        session=header.get("session"),
                        ok=bool(response.get("ok", False)))
                if op == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Drain timed out and cancelled this handler; exit quietly so
            # the streams connection_made callback doesn't log the
            # cancellation as an unhandled exception.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, header: dict, payload: bytes) -> dict:
        op = header.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "open":
                return await self._op_open(header)
            if op == "feed":
                return await self._op_feed(header, payload)
            if op == "snapshot":
                return await self._op_snapshot(header)
            if op == "checkpoint":
                return await self._op_checkpoint(header)
            if op == "close":
                return await self._op_close(header)
            if op == "evict":
                return await self._op_evict(header)
            if op == "timeline":
                return await self._op_timeline(header)
            if op == "lineage":
                return await self._op_lineage(header)
            if op == "metrics":
                loop = asyncio.get_running_loop()
                text = await loop.run_in_executor(
                    None, self.manager.metrics_text)
                return {"ok": True, "text": text}
            if op == "stats":
                return {"ok": True, "stats": self.manager.stats(),
                        "sessions": self.manager.session_names()}
            if op == "spans":
                return self._op_spans(header)
            if op == "health":
                loop = asyncio.get_running_loop()
                report = await loop.run_in_executor(
                    None, self.manager.health_report)
                if not report.ok:
                    logger.warning(
                        "health degraded", extra={
                            "status": report.status,
                            "detectors": [verdict.detector
                                          for verdict in report.verdicts
                                          if not verdict.ok]})
                return {"ok": True,
                        "health": protocol.health_to_dict(report)}
            if op == "shutdown":
                asyncio.get_running_loop().call_soon(
                    asyncio.ensure_future, self.drain())
                return {"ok": True, "draining": True}
            return protocol.error_response(f"unknown op {op!r}", "protocol")
        except ReproError as exc:
            return protocol.error_response(str(exc), type(exc).__name__)
        except Exception as exc:  # never let one request kill the server
            logger.exception("unhandled error in op %r", op)
            return protocol.error_response(
                f"internal error: {type(exc).__name__}: {exc}", "internal")

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    @staticmethod
    def _session_name(header: dict) -> str:
        name = header.get("session")
        if not isinstance(name, str) or not name:
            raise ServiceError("request is missing a session name")
        return name

    async def _op_open(self, header: dict) -> dict:
        name = self._session_name(header)
        prefetcher = header.get("prefetcher")
        if not isinstance(prefetcher, str):
            raise ServiceError("open requires a prefetcher name")
        config = None
        if header.get("config") is not None:
            config = config_from_dict(SimConfig, header["config"])
        loop = asyncio.get_running_loop()
        epoch_records = header.get("epoch_records")
        if epoch_records is not None and (not isinstance(epoch_records, int)
                                          or epoch_records < 1):
            raise ServiceError("epoch_records must be a positive integer")
        snapshot = await loop.run_in_executor(
            None, lambda: self.manager.open(
                name, prefetcher,
                workload=header.get("workload", "stream"),
                config=config,
                warmup_records=header.get("warmup_records"),
                resume=bool(header.get("resume", False)),
                epoch_records=epoch_records,
                lineage=bool(header.get("lineage", False))))
        logger.info("session opened", extra={
            "session": name, "prefetcher": prefetcher,
            "trace_id": (header.get("_trace") or {}).get("trace_id")})
        return {"ok": True, "snapshot": protocol.snapshot_to_dict(snapshot)}

    def _op_spans(self, header: dict) -> dict:
        spans = self.manager.spans
        if not spans.enabled:
            raise ServiceError(
                "server started without tracing; no spans are recorded "
                "(start with --trace)")
        records = spans.spans(clear=bool(header.get("clear", False)))
        return {"ok": True,
                "spans": protocol.spans_to_list(records),
                "summary": spans.summary()}

    async def _op_feed(self, header: dict, payload: bytes) -> dict:
        name = self._session_name(header)
        count = header.get("count")
        if not isinstance(count, int):
            raise ServiceError("feed requires an integer record count")
        buffer = protocol.decode_buffer(count, payload)
        # The internal context (set by the frame loop when tracing is on)
        # parents the manager's fifo-wait/feed-chunk spans to this request.
        trace = header.get("_trace")
        loop = asyncio.get_running_loop()
        # feed() blocks while the session is saturated — run it off-loop so
        # only this connection stalls; the ack covers *acceptance*, chunk
        # application is pipelined (snapshot/close synchronise).
        await loop.run_in_executor(
            None, lambda: self.manager.feed(name, buffer, trace=trace))
        return {"ok": True, "accepted": count}

    async def _op_snapshot(self, header: dict) -> dict:
        name = self._session_name(header)
        wait = bool(header.get("wait", True))
        loop = asyncio.get_running_loop()
        snapshot = await loop.run_in_executor(
            None, lambda: self.manager.snapshot(name, wait=wait))
        return {"ok": True, "snapshot": protocol.snapshot_to_dict(snapshot)}

    async def _op_timeline(self, header: dict) -> dict:
        name = self._session_name(header)
        include_partial = bool(header.get("include_partial", True))
        events = bool(header.get("events", False))
        wait = bool(header.get("wait", True))
        loop = asyncio.get_running_loop()
        epochs, retained = await loop.run_in_executor(
            None, lambda: self.manager.timeline(
                name, include_partial=include_partial, events=events,
                wait=wait))
        response = {"ok": True,
                    "epochs": protocol.epochs_to_list(epochs)}
        if retained is not None:
            response["events"] = protocol.events_to_list(retained)
        return response

    async def _op_lineage(self, header: dict) -> dict:
        name = self._session_name(header)
        events = bool(header.get("events", False))
        wait = bool(header.get("wait", True))
        loop = asyncio.get_running_loop()
        summary = await loop.run_in_executor(
            None, lambda: self.manager.lineage(
                name, events=events, wait=wait))
        return {"ok": True, "lineage": summary}

    async def _op_checkpoint(self, header: dict) -> dict:
        name = self._session_name(header)
        loop = asyncio.get_running_loop()
        path = await loop.run_in_executor(None, self.manager.checkpoint, name)
        return {"ok": True, "path": str(path)}

    async def _op_close(self, header: dict) -> dict:
        name = self._session_name(header)
        delete = bool(header.get("delete_checkpoint", True))
        loop = asyncio.get_running_loop()
        snapshot = await loop.run_in_executor(
            None, lambda: self.manager.close(name, delete_checkpoint=delete))
        logger.info("session closed", extra={
            "session": name, "records_fed": snapshot.records_fed,
            "trace_id": (header.get("_trace") or {}).get("trace_id")})
        return {"ok": True, "snapshot": protocol.snapshot_to_dict(snapshot)}

    async def _op_evict(self, header: dict) -> dict:
        max_idle = float(header.get("max_idle_seconds", 0.0))
        loop = asyncio.get_running_loop()
        evicted = await loop.run_in_executor(
            None, self.manager.evict_idle, max_idle)
        return {"ok": True, "evicted": evicted}


async def _serve(server: SimulationServer,
                 ready: Optional["asyncio.Event"] = None) -> None:
    """Run until SIGTERM/SIGINT, then drain gracefully."""
    await server.start()
    if ready is not None:
        ready.set()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or unsupported platform
    try:
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        await asyncio.wait({serve_task, stop_task},
                           return_when=asyncio.FIRST_COMPLETED)
        serve_task.cancel()
        try:
            await serve_task
        except (asyncio.CancelledError, Exception):
            pass
        await server.drain()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


def run_server(host: str = "127.0.0.1", port: int = 8642,
               checkpoint_dir: Optional[str] = None,
               max_inflight_chunks: int = 4, workers: int = 4,
               checkpoint_interval: int = 0,
               metrics_port: Optional[int] = None,
               tracing: bool = False,
               log_json: bool = False,
               health_config: Optional[HealthConfig] = None,
               uds_path: Optional[str] = None,
               worker_id: Optional[int] = None) -> Dict[str, int]:
    """Blocking entry point for ``python -m repro serve`` (one process).

    ``tracing`` enables the span recorder (the ``spans`` op and Chrome
    trace export); ``log_json`` switches the service logger to
    rate-limited one-JSON-object-per-line output.  ``uds_path`` listens
    on a unix-domain socket instead of TCP, and ``worker_id`` stamps
    every structured log line — both set when this process is one engine
    worker of a sharded cluster (:mod:`repro.service.cluster`).  Returns
    the manager's final stats once the server has drained
    (SIGTERM/SIGINT initiate the drain; KeyboardInterrupt propagates to
    the CLI, which exits 130).
    """
    if log_json:
        static = ({"worker_id": worker_id}
                  if worker_id is not None else None)
        configure_service_logging(json_lines=True, static_fields=static)
    manager = SessionManager(
        checkpoint_dir=checkpoint_dir,
        max_inflight_chunks=max_inflight_chunks,
        workers=workers,
        checkpoint_interval=checkpoint_interval,
        tracing=tracing,
        health_config=health_config,
    )
    server = SimulationServer(manager, host=host, port=port,
                              metrics_port=metrics_port,
                              uds_path=uds_path)
    try:
        asyncio.run(_serve(server))
    finally:
        manager.shutdown(checkpoint=checkpoint_dir is not None)
    return manager.stats()
