"""Multi-process sharded service: asyncio router + engine worker fleet.

The single-process server multiplexes every session over one GIL; this
module removes that wall.  ``repro serve --workers N`` becomes:

* **N engine workers** — each a spawned process running the unmodified
  :class:`~repro.service.server.SimulationServer` +
  :class:`~repro.service.session.SessionManager` stack on a unix-domain
  socket (same length-prefixed framing as TCP, no port allocation).
* **One router** — a lightweight asyncio front-end that terminates
  client TCP connections, places sessions onto workers by **consistent
  hash** over session names (:class:`HashRing`), and proxies every
  session op to the owning worker.  Each client connection gets its own
  upstream connection per worker, so a session blocked on backpressure
  stalls only its own client — exactly the single-process semantics.

Sessions **migrate between workers through the existing versioned
checkpoints**: the router closes the session on the source worker with
``delete_checkpoint=False`` (quiesce → final atomic snapshot on the
*shared* checkpoint directory), reopens it on the target with
``resume=True`` (fingerprint-validated restore), and atomically flips
the routing entry — feeds arriving mid-migration wait on the session's
route lock and land on the new owner.  The same mechanism powers live
rebalancing on worker join/leave (``scale`` op) and lets a crashed
worker's sessions resume from their last checkpoint on the ring
successor.

Observability spans the fleet: ``/metrics`` merges every worker's
Prometheus exposition under single ``# HELP``/``# TYPE`` headers with a
``worker`` label per sample, ``/healthz`` composes per-worker health
verdicts (worst status wins), and with ``--trace`` each proxied request
records a ``router.forward`` span whose context propagates to the
worker — one causal chain per chunk across the process boundary.

Because every engine runs the unmodified simulator and migration rides
the checkpoint path whose bit-identity ``tests/test_service_state.py``
already pins, a served session — migrations included — stays
bit-identical to offline ``simulate()`` (``tests/test_service_cluster.py``).
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError, ServiceError, SessionNotFoundError
from repro.obs.health import HealthConfig, HealthReport
from repro.obs.trace_spans import (NULL_SPANS, SPAN_ROUTER_FORWARD,
                                   SPAN_ROUTER_MIGRATE, SpanRecorder, new_id)
from repro.service import protocol
from repro.service.logging import configure_service_logging

logger = logging.getLogger("repro.service.cluster")

#: Session-scoped ops the router proxies to the owning worker.
SESSION_OPS = frozenset(
    {"open", "feed", "snapshot", "checkpoint", "close", "timeline",
     "lineage"})
#: Default virtual nodes per worker on the hash ring.
RING_REPLICAS = 64
_DRAIN_GRACE_SECONDS = 30.0
_WORKER_START_TIMEOUT = 120.0
_WORKER_JOIN_TIMEOUT = 60.0

_CONNECTION_ERRORS = (ConnectionError, BrokenPipeError, EOFError,
                      asyncio.IncompleteReadError, OSError)


# ----------------------------------------------------------------------
# Consistent-hash placement
# ----------------------------------------------------------------------
def _ring_hash(key: str) -> int:
    """A stable 64-bit point on the ring (never Python's salted hash)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8],
                          "big")


class HashRing:
    """Consistent hashing of session names onto worker ids.

    Each worker contributes ``replicas`` virtual points; a key is owned
    by the first point clockwise from its own hash.  The property the
    migration layer relies on (pinned by a hypothesis suite): removing a
    worker only moves the keys it owned, and adding a worker only moves
    keys *to* the new worker — placement of everything else is stable.
    """

    def __init__(self, replicas: int = RING_REPLICAS) -> None:
        if replicas < 1:
            raise ServiceError(f"ring replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[Tuple[int, int]] = []  # sorted (point, worker_id)
        self._workers: Set[int] = set()

    def add(self, worker_id: int) -> None:
        if worker_id in self._workers:
            return
        self._workers.add(worker_id)
        for replica in range(self.replicas):
            point = _ring_hash(f"worker-{worker_id}:{replica}")
            bisect.insort(self._points, (point, worker_id))

    def remove(self, worker_id: int) -> None:
        if worker_id not in self._workers:
            return
        self._workers.discard(worker_id)
        self._points = [entry for entry in self._points
                        if entry[1] != worker_id]

    def owner(self, key: str) -> int:
        if not self._points:
            raise ServiceError("hash ring is empty — no workers")
        point = _ring_hash(key)
        index = bisect.bisect_left(self._points, (point, -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def workers(self) -> Set[int]:
        return set(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._workers


# ----------------------------------------------------------------------
# Worker processes and connections
# ----------------------------------------------------------------------
def _worker_entry(spec: dict) -> None:
    """Engine worker main — one full service stack on a unix socket.

    Runs in a spawned process; ``spec`` is a plain picklable dict.  The
    worker drains (quiesce + checkpoint every open session to the shared
    directory) on SIGTERM or a ``shutdown`` op, then exits 0.
    """
    from repro.service.server import run_server

    run_server(
        checkpoint_dir=spec["checkpoint_dir"],
        max_inflight_chunks=spec["max_inflight_chunks"],
        workers=spec["worker_threads"],
        checkpoint_interval=spec["checkpoint_interval"],
        tracing=spec["tracing"],
        log_json=spec["log_json"],
        health_config=spec["health_config"],
        uds_path=spec["uds_path"],
        worker_id=spec["worker_id"],
    )


class WorkerConnection:
    """One framed request/response pipe to an engine worker.

    Requests are serialised under a lock (the protocol is strictly
    ordered per connection); concurrency comes from holding many
    connections, not from interleaving frames on one.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def open(cls, uds_path: str) -> "WorkerConnection":
        reader, writer = await asyncio.open_unix_connection(uds_path)
        return cls(reader, writer)

    async def request(self, header: dict, payload: bytes = b"") -> dict:
        async with self._lock:
            self._writer.write(protocol.encode_frame(header, payload))
            await self._writer.drain()
            prefix = await self._reader.readexactly(protocol.FRAME_PREFIX.size)
            header_len, payload_len = protocol.parse_prefix(prefix)
            response = protocol.decode_header(
                await self._reader.readexactly(header_len))
            if payload_len:
                await self._reader.readexactly(payload_len)
            return response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except _CONNECTION_ERRORS:
            pass


@dataclass
class WorkerHandle:
    """The router's view of one engine worker process."""

    worker_id: int
    uds_path: str
    process: "multiprocessing.process.BaseProcess"
    #: Router control connection — migrations, scale, drain.
    ops: Optional[WorkerConnection] = None
    #: Observability fan-out connection — metrics/health/spans/stats;
    #: separate from ``ops`` so a long quiesce during migration never
    #: blocks a ``/healthz`` probe.
    obs: Optional[WorkerConnection] = None
    alive: bool = True


@dataclass
class _Route:
    """Routing entry for one session: owner + migration serialisation."""

    worker_id: int
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    migrations: int = 0


# ----------------------------------------------------------------------
# Fleet-wide observability merges
# ----------------------------------------------------------------------
def _inject_label(sample_line: str, label: str) -> str:
    """Add ``label`` (e.g. ``worker="2"``) to one exposition sample."""
    brace = sample_line.find("{")
    if brace != -1:
        close = sample_line.rfind("}")
        return f"{sample_line[:close]},{label}{sample_line[close:]}"
    space = sample_line.find(" ")
    return f"{sample_line[:space]}{{{label}}}{sample_line[space:]}"


def merge_worker_metrics(texts: Dict[int, str],
                         router_text: str = "") -> str:
    """Merge per-worker Prometheus expositions into one valid page.

    Every sample gains a ``worker="<id>"`` label; ``# HELP``/``# TYPE``
    headers are emitted once per metric (first-seen wins — all workers
    run the same build, so the headers are identical).  ``router_text``
    contributes router-level samples (``cluster_*``) without a worker
    label.
    """
    groups: Dict[str, dict] = {}

    def absorb(text: str, label: str) -> None:
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                metric = line.split(" ", 3)[2]
                entry = groups.setdefault(
                    metric, {"help": None, "type": None, "samples": []})
                kind = "help" if line.startswith("# HELP ") else "type"
                if entry[kind] is None:
                    entry[kind] = line
            else:
                metric = line.split("{", 1)[0].split(" ", 1)[0]
                entry = groups.setdefault(
                    metric, {"help": None, "type": None, "samples": []})
                entry["samples"].append(
                    _inject_label(line, label) if label else line)

    for worker_id in sorted(texts):
        absorb(texts[worker_id], f'worker="{worker_id}"')
    if router_text:
        absorb(router_text, "")
    lines: List[str] = []
    for entry in groups.values():
        if entry["help"] is not None:
            lines.append(entry["help"])
        if entry["type"] is not None:
            lines.append(entry["type"])
        lines.extend(entry["samples"])
    return "\n".join(lines) + "\n"


def merge_span_summaries(
        summaries: List[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Combine per-process span summaries into one per-name table.

    Counts sum and means combine count-weighted (exact); the p50/p95/p99
    columns take the worst (max) across processes — an upper bound, the
    conservative direction for latency monitoring — since the underlying
    histograms live in separate processes.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            slot = merged.get(name)
            if slot is None:
                merged[name] = dict(entry)
                continue
            total = slot["count"] + entry["count"]
            if total:
                slot["mean_us"] = (slot["mean_us"] * slot["count"]
                                   + entry["mean_us"] * entry["count"]) / total
            slot["count"] = total
            for key in ("max_us", "p50_us", "p95_us", "p99_us"):
                slot[key] = max(slot[key], entry[key])
    return merged


def compose_health(reports: Dict[int, HealthReport],
                   unreachable: List[int]) -> HealthReport:
    """One fleet verdict from per-worker reports: worst status wins.

    Verdict details are prefixed with the worker they came from, so a
    degraded ``/healthz`` names the offending process; unreachable
    workers degrade the fleet outright.
    """
    status_ok = not unreachable
    verdicts = []
    sessions: Dict[str, str] = {}
    for worker_id in sorted(reports):
        report = reports[worker_id]
        if not report.ok:
            status_ok = False
        for verdict in report.verdicts:
            detail = (f"worker {worker_id}: {verdict.detail}"
                      if verdict.detail else f"worker {worker_id}")
            verdicts.append(dataclasses.replace(verdict, detail=detail))
        sessions.update(report.sessions)
    return HealthReport(status="ok" if status_ok else "degraded",
                        verdicts=verdicts, sessions=sessions)


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class ClusterRouter:
    """Asyncio front-end placing sessions onto engine worker processes.

    Speaks the existing client protocol on TCP; every session op is
    proxied to the session's owning worker over a unix socket using the
    same framing.  See the module docstring for the architecture and
    :meth:`migrate` for the checkpoint-based migration state machine.
    """

    def __init__(self, workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0,
                 metrics_port: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 max_inflight_chunks: int = 4,
                 worker_threads: int = 4,
                 checkpoint_interval: int = 0,
                 tracing: bool = False,
                 log_json: bool = False,
                 health_config: Optional[HealthConfig] = None,
                 ring_replicas: int = RING_REPLICAS) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.requested_workers = workers
        self.host = host
        self.port = port
        self.metrics_port = metrics_port
        self.checkpoint_dir = checkpoint_dir
        self.max_inflight_chunks = max_inflight_chunks
        self.worker_threads = worker_threads
        self.checkpoint_interval = checkpoint_interval
        self.tracing = tracing
        self.log_json = log_json
        self.health_config = health_config
        self.spans = SpanRecorder() if tracing else NULL_SPANS
        self.ring = HashRing(ring_replicas)
        self.migrations = 0
        self.workers_spawned = 0
        self._workers: Dict[int, WorkerHandle] = {}
        self._routes: Dict[str, _Route] = {}
        self._next_worker_id = 0
        self._runtime_dir: Optional[str] = None
        self._owns_runtime_dir = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        self._drain_task: Optional[asyncio.Task] = None
        # Spawn (not fork): the router thread already runs an event loop
        # and the workers start their own; forking across either is UB.
        self._mp = multiprocessing.get_context("spawn")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._runtime_dir is None:
            self._runtime_dir = tempfile.mkdtemp(prefix="repro-cluster-")
            self._owns_runtime_dir = True
        if self.checkpoint_dir is None:
            # Migration requires a directory every worker can reach.
            self.checkpoint_dir = os.path.join(self._runtime_dir,
                                               "checkpoints")
        Path(self.checkpoint_dir).mkdir(parents=True, exist_ok=True)
        for _ in range(self.requested_workers):
            await self._spawn_worker()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_request, self.host, self.metrics_port)
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1])
            logger.info("cluster metrics on http://%s:%d/metrics",
                        self.host, self.metrics_port)
        logger.info("router serving on %s:%d", self.host, self.port,
                    extra={"workers": sorted(self._workers)})

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, checkpoint: bool = True,
                    grace_seconds: float = _DRAIN_GRACE_SECONDS) -> None:
        """Stop accepting, drain every worker (checkpointing), stop.

        Idempotent like the single-process server's drain; ``checkpoint``
        is accepted for interface parity (workers always checkpoint on
        drain — the cluster runs them with a shared checkpoint dir).
        """
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(
                self._drain_impl(grace_seconds))
        await asyncio.shield(self._drain_task)

    async def _drain_impl(self, grace_seconds: float) -> None:
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
        for worker_id in sorted(list(self._workers)):
            handle = self._workers.pop(worker_id, None)
            if handle is None:
                continue
            self.ring.remove(worker_id)
            try:
                await handle.ops.request({"op": "shutdown"})
            except _CONNECTION_ERRORS:
                pass
            for conn in (handle.ops, handle.obs):
                if conn is not None:
                    await conn.close()
            await loop.run_in_executor(None, handle.process.join,
                                       _WORKER_JOIN_TIMEOUT)
            if handle.process.is_alive():
                handle.process.terminate()
                await loop.run_in_executor(None, handle.process.join, 5)
            handle.alive = False
            logger.info("worker drained", extra={
                "worker_id": worker_id,
                "exitcode": handle.process.exitcode})
        logger.info("cluster drained", extra={
            "migrations": self.migrations,
            "sessions_routed": len(self._routes)})

    def cleanup(self) -> None:
        """Remove the runtime dir (sockets; checkpoints if we made it)."""
        for handle in self._workers.values():
            if handle.process.is_alive():
                handle.process.terminate()
        if self._owns_runtime_dir and self._runtime_dir is not None:
            shutil.rmtree(self._runtime_dir, ignore_errors=True)
            self._runtime_dir = None

    def summary(self) -> dict:
        """Router-level counters (returned by ``run_cluster``)."""
        return {
            "workers_spawned": self.workers_spawned,
            "workers_live": len(self._workers),
            "sessions_routed": len(self._routes),
            "migrations": self.migrations,
            "tracing": self.spans.enabled,
        }

    # ------------------------------------------------------------------
    # Worker fleet
    # ------------------------------------------------------------------
    async def _spawn_worker(self) -> WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        uds_path = os.path.join(self._runtime_dir, f"worker-{worker_id}.sock")
        spec = {
            "worker_id": worker_id,
            "uds_path": uds_path,
            "checkpoint_dir": self.checkpoint_dir,
            "max_inflight_chunks": self.max_inflight_chunks,
            "worker_threads": self.worker_threads,
            "checkpoint_interval": self.checkpoint_interval,
            "tracing": self.tracing,
            "log_json": self.log_json,
            "health_config": self.health_config,
        }
        process = self._mp.Process(target=_worker_entry, args=(spec,),
                                   name=f"repro-worker-{worker_id}")
        process.start()
        handle = WorkerHandle(worker_id, uds_path, process)
        try:
            await self._wait_ready(handle)
            handle.ops = await WorkerConnection.open(uds_path)
            handle.obs = await WorkerConnection.open(uds_path)
        except BaseException:
            if process.is_alive():
                process.terminate()
            raise
        self._workers[worker_id] = handle
        self.ring.add(worker_id)
        self.workers_spawned += 1
        logger.info("worker joined", extra={"worker_id": worker_id,
                                            "pid": process.pid})
        return handle

    async def _wait_ready(self, handle: WorkerHandle,
                          timeout: float = _WORKER_START_TIMEOUT) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            if handle.process.exitcode is not None:
                raise ServiceError(
                    f"worker {handle.worker_id} exited during startup "
                    f"(exit {handle.process.exitcode})")
            try:
                probe = await WorkerConnection.open(handle.uds_path)
                await probe.close()
                return
            except _CONNECTION_ERRORS:
                if loop.time() > deadline:
                    raise ServiceError(
                        f"worker {handle.worker_id} did not become ready "
                        f"within {timeout}s")
                await asyncio.sleep(0.05)

    def _mark_dead(self, handle: WorkerHandle, reason: str) -> None:
        """Remove a crashed worker; its sessions re-place lazily.

        The next request for an affected session lands on the ring
        successor, whose manager transparently restores the last
        checkpoint from the shared directory — the crash loses at most
        the chunks fed since that checkpoint (``--checkpoint-interval``
        bounds the window).
        """
        if not handle.alive:
            return
        handle.alive = False
        self.ring.remove(handle.worker_id)
        self._workers.pop(handle.worker_id, None)
        logger.warning("worker lost", extra={
            "worker_id": handle.worker_id, "reason": reason})

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, name: str) -> _Route:
        # No lock: routes are only touched on the event loop and there
        # is no await between the miss check and the insert.
        route = self._routes.get(name)
        if route is None:
            route = self._routes[name] = _Route(self.ring.owner(name))
        return route

    async def _forward(self, conn: WorkerConnection, handle: WorkerHandle,
                       header: dict, payload: bytes = b"") -> dict:
        """Proxy one request, recording the router→worker hop span."""
        span = None
        if self.spans.enabled:
            context = header.get("trace") or {}
            span = self.spans.begin(
                SPAN_ROUTER_FORWARD,
                trace_id=context.get("trace_id") or new_id(),
                parent_id=context.get("span_id"), detached=True,
                op=header.get("op"), session=header.get("session"),
                worker=handle.worker_id)
            header = {**header, "trace": {"trace_id": span.trace_id,
                                          "span_id": span.span_id}}
        try:
            response = await conn.request(header, payload)
        except _CONNECTION_ERRORS as exc:
            self._mark_dead(handle, f"{type(exc).__name__}: {exc}")
            response = protocol.error_response(
                f"worker {handle.worker_id} connection failed: {exc}",
                "worker")
        if span is not None:
            self.spans.end(span, ok=bool(response.get("ok", False)))
        return response

    async def _upstream(self, upstreams: Dict[int, WorkerConnection],
                        handle: WorkerHandle) -> WorkerConnection:
        conn = upstreams.get(handle.worker_id)
        if conn is None:
            conn = await WorkerConnection.open(handle.uds_path)
            upstreams[handle.worker_id] = conn
        return conn

    async def _proxy_session_op(self, header: dict, payload: bytes,
                                upstreams: Dict[int, WorkerConnection]
                                ) -> dict:
        name = header.get("session")
        if not isinstance(name, str) or not name:
            raise ServiceError("request is missing a session name")
        route = self._route(name)
        async with route.lock:
            handle = self._workers.get(route.worker_id)
            if handle is None or not handle.alive:
                # Owner is gone (crash or scale-down race): re-place on
                # the ring; the new worker transparently restores the
                # session's last checkpoint from the shared directory.
                route.worker_id = self.ring.owner(name)
                handle = self._workers.get(route.worker_id)
                if handle is None:
                    raise ServiceError("no live workers")
            conn = await self._upstream(upstreams, handle)
            response = await self._forward(conn, handle, header, payload)
        if header.get("op") == "close" and response.get("ok"):
            self._routes.pop(name, None)
        return response

    # ------------------------------------------------------------------
    # Migration and rebalancing
    # ------------------------------------------------------------------
    async def migrate(self, name: str,
                      target_id: Optional[int] = None) -> dict:
        """Move one session to another worker via its checkpoint.

        State machine (all under the session's route lock, so feeds
        arriving mid-migration queue and land on the new owner):

        1. ``close(delete_checkpoint=False)`` on the source — quiesces
           the chunk FIFO, writes a final atomic checkpoint to the
           shared directory, forgets the session.
        2. ``open(resume=True)`` on the target — fingerprint-validated
           restore (:func:`~repro.service.checkpoint.validate_restore`).
        3. Flip the routing entry.

        If step 2 fails the route is dropped instead: the session's
        checkpoint survives, and the next request transparently restores
        it on the ring owner.
        """
        route = self._routes.get(name)
        if route is None:
            raise SessionNotFoundError(name)
        async with route.lock:
            source = self._workers.get(route.worker_id)
            if source is None:
                raise ServiceError(
                    f"session {name!r} has no live owner to migrate from")
            if target_id is None:
                others = [wid for wid in sorted(self._workers)
                          if wid != source.worker_id]
                if not others:
                    raise ServiceError(
                        "no other live worker to migrate to")
                target_id = others[self.migrations % len(others)]
            if target_id == source.worker_id:
                return {"ok": True, "session": name, "worker": target_id,
                        "migrated": False}
            target = self._workers.get(target_id)
            if target is None:
                raise ServiceError(f"no live worker {target_id}")
            span = (self.spans.begin(SPAN_ROUTER_MIGRATE, detached=True,
                                     session=name,
                                     source=source.worker_id,
                                     target=target_id)
                    if self.spans.enabled else None)
            closed = await self._forward(
                source.ops, source,
                {"op": "close", "session": name,
                 "delete_checkpoint": False})
            if not closed.get("ok"):
                if span is not None:
                    self.spans.end(span, ok=False, stage="close")
                return closed
            prefetcher = closed["snapshot"]["prefetcher"]
            opened = await self._forward(
                target.ops, target,
                {"op": "open", "session": name, "prefetcher": prefetcher,
                 "resume": True})
            if not opened.get("ok"):
                # The checkpoint survives; let the next request restore
                # it wherever the ring points.
                self._routes.pop(name, None)
                if span is not None:
                    self.spans.end(span, ok=False, stage="open")
                logger.warning("migration failed", extra={
                    "session": name, "from_worker": source.worker_id,
                    "to_worker": target_id,
                    "error": opened.get("error")})
                return opened
            route.worker_id = target_id
            route.migrations += 1
            self.migrations += 1
            if span is not None:
                self.spans.end(span, ok=True)
            logger.info("session migrated", extra={
                "session": name, "from_worker": source.worker_id,
                "to_worker": target_id,
                "records_fed": opened["snapshot"].get("records_fed")})
            return {"ok": True, "session": name, "worker": target_id,
                    "migrated": True, "snapshot": opened["snapshot"]}

    async def scale(self, target: int) -> dict:
        """Grow or shrink the fleet; rebalance sessions by consistent hash.

        Join: new workers take only the ring segments the hash assigns
        them — sessions whose owner changed migrate over, everything
        else stays put.  Leave: the highest-id workers retire, draining
        each routed session to its post-removal ring owner before the
        process is shut down.
        """
        if target < 1:
            raise ServiceError(f"workers must be >= 1, got {target}")
        added: List[int] = []
        removed: List[int] = []
        migrated: List[str] = []
        while len(self._workers) < target:
            handle = await self._spawn_worker()
            added.append(handle.worker_id)
        if added:
            new_ids = set(added)
            for name in list(self._routes):
                route = self._routes.get(name)
                if route is None:
                    continue
                owner = self.ring.owner(name)
                if owner in new_ids and owner != route.worker_id:
                    result = await self.migrate(name, owner)
                    if result.get("ok") and result.get("migrated"):
                        migrated.append(name)
        while len(self._workers) > target:
            worker_id = max(self._workers)
            migrated.extend(await self._retire_worker(worker_id))
            removed.append(worker_id)
        return {"ok": True, "workers": sorted(self._workers),
                "added": added, "removed": removed, "migrated": migrated}

    async def _retire_worker(self, worker_id: int) -> List[str]:
        handle = self._workers[worker_id]
        self.ring.remove(worker_id)
        moved: List[str] = []
        for name in list(self._routes):
            route = self._routes.get(name)
            if route is None or route.worker_id != worker_id:
                continue
            result = await self.migrate(name, self.ring.owner(name))
            if result.get("ok") and result.get("migrated"):
                moved.append(name)
        self._workers.pop(worker_id, None)
        try:
            await handle.ops.request({"op": "shutdown"})
        except _CONNECTION_ERRORS:
            pass
        for conn in (handle.ops, handle.obs):
            if conn is not None:
                await conn.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, handle.process.join,
                                   _WORKER_JOIN_TIMEOUT)
        if handle.process.is_alive():
            handle.process.terminate()
        handle.alive = False
        logger.info("worker retired", extra={"worker_id": worker_id,
                                             "migrated": moved})
        return moved

    # ------------------------------------------------------------------
    # Fleet observability
    # ------------------------------------------------------------------
    async def _fanout(self, header: dict) -> Dict[int, dict]:
        """One request to every live worker over its obs connection."""
        results: Dict[int, dict] = {}
        for worker_id in sorted(list(self._workers)):
            handle = self._workers.get(worker_id)
            if handle is None:
                continue
            try:
                results[worker_id] = await handle.obs.request(dict(header))
            except _CONNECTION_ERRORS as exc:
                self._mark_dead(handle, f"{type(exc).__name__}: {exc}")
        return results

    def _router_metrics_text(self) -> str:
        from repro.obs.export import prometheus_text

        return prometheus_text([
            ("cluster_workers", {}, len(self._workers), "gauge"),
            ("cluster_sessions_routed", {}, len(self._routes), "gauge"),
            ("cluster_migrations", {}, self.migrations, "counter"),
        ])

    async def metrics_text(self) -> str:
        responses = await self._fanout({"op": "metrics"})
        texts = {worker_id: response["text"]
                 for worker_id, response in responses.items()
                 if response.get("ok")}
        return merge_worker_metrics(texts,
                                    router_text=self._router_metrics_text())

    async def cluster_health(self) -> Tuple[HealthReport,
                                            Dict[int, HealthReport],
                                            List[int]]:
        """Fleet-composed health: (merged, per-worker, unreachable ids)."""
        responses = await self._fanout({"op": "health"})
        reports: Dict[int, HealthReport] = {}
        unreachable = [worker_id for worker_id in sorted(self._workers)
                       if worker_id not in responses]
        for worker_id, response in responses.items():
            if response.get("ok"):
                reports[worker_id] = HealthReport.from_dict(
                    response["health"])
            else:
                unreachable.append(worker_id)
        return compose_health(reports, sorted(unreachable)), reports, \
            sorted(unreachable)

    # ------------------------------------------------------------------
    # Protocol front-end
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        #: Per-client upstream connections, one per worker touched — a
        #: feed blocked on backpressure stalls only this client.
        upstreams: Dict[int, WorkerConnection] = {}
        try:
            while True:
                try:
                    prefix = await reader.readexactly(
                        protocol.FRAME_PREFIX.size)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                try:
                    header_len, payload_len = protocol.parse_prefix(prefix)
                    header = protocol.decode_header(
                        await reader.readexactly(header_len))
                    payload = (await reader.readexactly(payload_len)
                               if payload_len else b"")
                except asyncio.IncompleteReadError:
                    break
                except ServiceError as exc:
                    writer.write(protocol.encode_frame(
                        protocol.error_response(str(exc), "protocol")))
                    await writer.drain()
                    break
                op = header.get("op")
                response = None
                if self.spans.enabled:
                    try:
                        protocol.trace_context(header)
                    except ServiceError as exc:
                        response = protocol.error_response(str(exc),
                                                           "protocol")
                if response is None:
                    response = await self._dispatch(header, payload,
                                                    upstreams)
                writer.write(protocol.encode_frame(response))
                await writer.drain()
                if op == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Drain cancelled this handler after the grace period; exit
            # quietly instead of letting the streams callback log it.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            for conn in upstreams.values():
                await conn.close()
            writer.close()
            try:
                await writer.wait_closed()
            except _CONNECTION_ERRORS:
                pass

    async def _dispatch(self, header: dict, payload: bytes,
                        upstreams: Dict[int, WorkerConnection]) -> dict:
        op = header.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op in SESSION_OPS:
                return await self._proxy_session_op(header, payload,
                                                    upstreams)
            if op == "migrate":
                return await self._op_migrate(header)
            if op == "cluster":
                return self._op_cluster()
            if op == "scale":
                return await self.scale(header.get("workers", 0))
            if op == "stats":
                return await self._op_stats()
            if op == "metrics":
                return {"ok": True, "text": await self.metrics_text()}
            if op == "health":
                merged, _, _ = await self.cluster_health()
                if not merged.ok:
                    logger.warning("cluster health degraded", extra={
                        "status": merged.status,
                        "detectors": [verdict.detector
                                      for verdict in merged.verdicts
                                      if not verdict.ok]})
                return {"ok": True,
                        "health": protocol.health_to_dict(merged)}
            if op == "spans":
                return await self._op_spans(header)
            if op == "evict":
                return await self._op_evict(header)
            if op == "shutdown":
                asyncio.get_running_loop().call_soon(
                    asyncio.ensure_future, self.drain())
                return {"ok": True, "draining": True}
            return protocol.error_response(f"unknown op {op!r}", "protocol")
        except ReproError as exc:
            return protocol.error_response(str(exc), type(exc).__name__)
        except Exception as exc:  # never let one request kill the router
            logger.exception("unhandled router error in op %r", op)
            return protocol.error_response(
                f"internal error: {type(exc).__name__}: {exc}", "internal")

    async def _op_migrate(self, header: dict) -> dict:
        name = header.get("session")
        if not isinstance(name, str) or not name:
            raise ServiceError("migrate requires a session name")
        target = header.get("worker")
        if target is not None and not isinstance(target, int):
            raise ServiceError("migrate 'worker' must be an integer id")
        return await self.migrate(name, target)

    def _op_cluster(self) -> dict:
        workers = []
        for worker_id in sorted(self._workers):
            handle = self._workers[worker_id]
            sessions = sorted(name for name, route in self._routes.items()
                              if route.worker_id == worker_id)
            workers.append({
                "worker": worker_id,
                "pid": handle.process.pid,
                "alive": handle.process.is_alive(),
                "sessions": sessions,
            })
        return {"ok": True, "workers": workers, "router": {
            "worker_count": len(self._workers),
            "sessions_routed": len(self._routes),
            "migrations": self.migrations,
            "tracing": self.spans.enabled,
            "checkpoint_dir": str(self.checkpoint_dir),
        }}

    async def _op_stats(self) -> dict:
        responses = await self._fanout({"op": "stats"})
        summed_keys = ("live_sessions", "sessions_opened",
                       "sessions_resumed", "chunks_executed",
                       "records_executed", "backpressure_waits",
                       "spans_recorded")
        aggregate = {key: 0 for key in summed_keys}
        per_worker: Dict[str, dict] = {}
        sessions: List[str] = []
        for worker_id, response in sorted(responses.items()):
            if not response.get("ok"):
                continue
            stats = response["stats"]
            per_worker[str(worker_id)] = stats
            sessions.extend(response.get("sessions", []))
            for key in summed_keys:
                aggregate[key] += int(stats.get(key, 0))
        aggregate["max_inflight_chunks"] = self.max_inflight_chunks
        aggregate["tracing"] = self.spans.enabled
        aggregate["workers"] = len(self._workers)
        aggregate["migrations"] = self.migrations
        return {"ok": True, "stats": aggregate, "sessions": sorted(sessions),
                "workers": per_worker}

    async def _op_spans(self, header: dict) -> dict:
        if not self.spans.enabled:
            raise ServiceError(
                "router started without tracing; no spans are recorded "
                "(start with --trace)")
        clear = bool(header.get("clear", False))
        responses = await self._fanout({"op": "spans", "clear": clear})
        spans = protocol.spans_to_list(self.spans.spans(clear=clear))
        summaries = [self.spans.summary()]
        for worker_id, response in sorted(responses.items()):
            if response.get("ok"):
                spans.extend(response["spans"])
                summaries.append(response["summary"])
        return {"ok": True, "spans": spans,
                "summary": merge_span_summaries(summaries)}

    async def _op_evict(self, header: dict) -> dict:
        responses = await self._fanout({
            "op": "evict",
            "max_idle_seconds": float(header.get("max_idle_seconds", 0.0))})
        evicted: List[str] = []
        for response in responses.values():
            if response.get("ok"):
                evicted.extend(response.get("evicted", []))
        return {"ok": True, "evicted": sorted(evicted)}

    # ------------------------------------------------------------------
    # Metrics / health HTTP listener
    # ------------------------------------------------------------------
    async def _handle_metrics_request(self, reader: asyncio.StreamReader,
                                      writer: asyncio.StreamWriter) -> None:
        """Fleet-composed ``GET /metrics`` and ``GET /healthz``."""
        try:
            request_line = await asyncio.wait_for(reader.readline(),
                                                  timeout=10.0)
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else ""
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            if path.split("?")[0] == "/metrics":
                body = (await self.metrics_text()).encode("utf-8")
                status = "200 OK"
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path.split("?")[0] == "/healthz":
                merged, reports, unreachable = await self.cluster_health()
                payload = {
                    "status": merged.status,
                    "verdicts": [verdict.to_dict()
                                 for verdict in merged.verdicts],
                    "sessions": dict(merged.sessions),
                    "workers": {str(worker_id): report.to_dict()
                                for worker_id, report in
                                sorted(reports.items())},
                    "unreachable_workers": unreachable,
                }
                body = (json.dumps(payload, separators=(",", ":")) + "\n"
                        ).encode("utf-8")
                status = ("200 OK" if merged.ok
                          else "503 Service Unavailable")
                content_type = "application/json; charset=utf-8"
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
            except _CONNECTION_ERRORS:
                pass


def run_cluster(workers: int = 2, host: str = "127.0.0.1", port: int = 8642,
                checkpoint_dir: Optional[str] = None,
                max_inflight_chunks: int = 4,
                worker_threads: int = 4,
                checkpoint_interval: int = 0,
                metrics_port: Optional[int] = None,
                tracing: bool = False,
                log_json: bool = False,
                health_config: Optional[HealthConfig] = None) -> dict:
    """Blocking entry point for ``python -m repro serve --workers N``.

    Spawns the worker fleet, serves until SIGTERM/SIGINT, then drains:
    in-flight requests finish, every worker checkpoints its open
    sessions to the shared directory and exits, and the router returns
    its final counters.
    """
    from repro.service.server import _serve

    if log_json:
        configure_service_logging(json_lines=True,
                                  static_fields={"worker_id": "router"})
    router = ClusterRouter(
        workers=workers, host=host, port=port, metrics_port=metrics_port,
        checkpoint_dir=checkpoint_dir,
        max_inflight_chunks=max_inflight_chunks,
        worker_threads=worker_threads,
        checkpoint_interval=checkpoint_interval, tracing=tracing,
        log_json=log_json, health_config=health_config)
    try:
        asyncio.run(_serve(router))
    finally:
        router.cleanup()
    return router.summary()
