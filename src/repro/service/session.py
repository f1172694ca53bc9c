"""Session manager: many named simulations multiplexed over a worker pool.

One :class:`Session` owns one live :class:`~repro.sim.engine.SystemSimulator`
plus its stream position; the :class:`SessionManager` multiplexes sessions
over a shared thread pool, one in-order chunk pipeline per session:

* **Backpressure** — each session admits at most ``max_inflight_chunks``
  queued-or-running chunks; :meth:`SessionManager.feed` blocks past that,
  which an asyncio server surfaces as natural TCP backpressure (the
  connection's frames stop being consumed).  Engagements are counted in
  :attr:`SessionManager.backpressure_waits` so tests and benchmarks can
  assert the limit actually bit.
* **Ordering** — chunks apply in submission order: a session has exactly
  one drainer task at a time, which pops its FIFO until empty.  Distinct
  sessions run concurrently; each feed runs its channels serially on the
  drainer thread.
* **Eviction / resume** — :meth:`evict_idle` checkpoints cold sessions to
  disk and drops them from memory; the next request transparently
  restores them.  Checkpoints are atomic (see
  :mod:`repro.service.checkpoint`), so a crash between checkpoints loses
  at most the chunks fed since the last one — :attr:`Session.records_fed`
  tells the client where to resume the stream.

All public methods are thread-safe; :meth:`feed` returns a
:class:`concurrent.futures.Future` so callers may pipeline chunks.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SimConfig
from repro.errors import (ServiceError, SessionExistsError,
                          SessionNotFoundError)
from repro.obs import ObsConfig, SystemLineage, SystemObservability
from repro.obs.events import TraceEvent
from repro.obs.health import HealthConfig, HealthEngine, HealthReport
from repro.obs.timeline import EpochRecord
from repro.obs.trace_spans import (NULL_SPANS, SPAN_FEED_CHUNK,
                                   SPAN_FIFO_WAIT, SpanRecorder, now_us)
from repro.service.checkpoint import (Checkpoint, build_simulator,
                                      load_checkpoint, restore_simulator,
                                      save_checkpoint, validate_restore)
from repro.sim.engine import SystemSimulator
from repro.sim.metrics import RunMetrics
from repro.sim.runner import collect_metrics
from repro.trace.buffer import TraceBuffer

PathLike = Union[str, Path]


@dataclass(frozen=True)
class SessionSnapshot:
    """A point-in-time view of one session: identity, position, metrics."""

    name: str
    prefetcher: str
    workload: str
    records_fed: int
    chunks_fed: int
    metrics: RunMetrics


class Session:
    """One live streaming simulation (internal to the manager)."""

    def __init__(self, name: str, prefetcher: str, workload: str,
                 config: SimConfig,
                 warmup_records: Optional[Sequence[int]] = None,
                 epoch_records: Optional[int] = None,
                 lineage: bool = False,
                 simulator: Optional[SystemSimulator] = None) -> None:
        """``simulator`` is a restored one that already carries these
        hooks (see :meth:`from_checkpoint`); by default a fresh one is
        built with them."""
        self.name = name
        self.prefetcher = prefetcher
        self.workload = workload
        self.config = config
        #: The hooks this session carries, in ``Checkpoint.extra`` terms.
        self.extra: dict = {}
        if epoch_records:
            self.extra["epoch_records"] = int(epoch_records)
        if lineage:
            self.extra["lineage"] = True
        if simulator is None:
            simulator = build_simulator(prefetcher, config, self.extra)
            if warmup_records is not None:
                simulator.set_stream_warmup(warmup_records)
        self.simulator = simulator
        self.obs: Optional[SystemObservability] = None
        if epoch_records:
            self.obs = SystemObservability(
                simulator, ObsConfig(epoch_records=int(epoch_records)))
        self.lineage: Optional[SystemLineage] = (
            SystemLineage(simulator) if lineage else None)
        self.records_fed = 0
        self.chunks_fed = 0
        self.last_active = time.monotonic()
        #: Last time a chunk *completed* (vs ``last_active`` = accepted) —
        #: the starvation detector's progress signal.
        self.last_progress = time.monotonic()
        # Chunk pipeline state, all guarded by `cond`.  Each pending entry
        # is (buffer, future, trace-context-or-None).
        self.cond = threading.Condition()
        self.pending: Deque[Tuple[TraceBuffer, Future,
                                  Optional[dict]]] = deque()
        self.inflight = 0
        self.drainer_scheduled = False
        self.closed = False
        self.error: Optional[str] = None

    @classmethod
    def from_checkpoint(cls, name: str, checkpoint: Checkpoint) -> "Session":
        """Resume a session from :func:`restore_simulator`'s simulator,
        which carries every hook the checkpoint names."""
        session = cls(name, checkpoint.prefetcher, checkpoint.workload,
                      checkpoint.config,
                      epoch_records=checkpoint.extra.get("epoch_records"),
                      lineage=bool(checkpoint.extra.get("lineage")),
                      simulator=restore_simulator(checkpoint))
        session.records_fed = checkpoint.records_fed
        session.chunks_fed = checkpoint.chunks_fed
        if session.obs is not None:
            session.obs.system_tracer.emit(
                "checkpoint_restored", session._now(),
                records_fed=checkpoint.records_fed)
        return session

    def _now(self) -> int:
        """Latest simulated cycle across channels — event timestamps."""
        return max((channel_sim._last_time
                    for channel_sim in self.simulator.channels), default=0)

    def to_checkpoint(self) -> Checkpoint:
        checkpoint = Checkpoint(
            prefetcher=self.prefetcher,
            workload=self.workload,
            config=self.config,
            records_fed=self.records_fed,
            chunks_fed=self.chunks_fed,
            state=self.simulator.state_dict(),
            extra=dict(self.extra),
        )
        # Stamped after state_dict: the event records the save in the live
        # session, not inside the checkpoint being written.
        if self.obs is not None:
            self.obs.system_tracer.emit("checkpoint_saved", self._now(),
                                        records_fed=self.records_fed)
        return checkpoint

    def snapshot(self) -> SessionSnapshot:
        return SessionSnapshot(
            name=self.name,
            prefetcher=self.prefetcher,
            workload=self.workload,
            records_fed=self.records_fed,
            chunks_fed=self.chunks_fed,
            metrics=collect_metrics(self.simulator, self.workload,
                                    self.prefetcher),
        )


class SessionManager:
    """Multiplexes named streaming simulations over a bounded worker pool.

    Args:
        checkpoint_dir: where session checkpoints live; ``None`` disables
            eviction, auto-checkpointing and resume.
        max_inflight_chunks: per-session cap on queued-or-running chunks —
            the backpressure bound.
        workers: thread-pool size shared by all sessions' drainers.
        checkpoint_interval: auto-checkpoint a session every N chunks
            (0 disables; requires ``checkpoint_dir``).
        default_config: config for sessions opened without one.
        tracing: enable request tracing — one shared
            :class:`~repro.obs.trace_spans.SpanRecorder` covers every
            session (backpressure waits, per-chunk feeds, engine runs);
            off by default, in which case every trace point costs one
            attribute load + branch per chunk.
        health_config: detector thresholds for :meth:`health_report`
            (defaults apply when ``None``).
    """

    def __init__(self, checkpoint_dir: Optional[PathLike] = None,
                 max_inflight_chunks: int = 4, workers: int = 4,
                 checkpoint_interval: int = 0,
                 default_config: Optional[SimConfig] = None,
                 tracing: bool = False,
                 health_config: Optional[HealthConfig] = None) -> None:
        if max_inflight_chunks < 1:
            raise ServiceError(
                f"max_inflight_chunks must be >= 1, got {max_inflight_chunks}")
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.max_inflight_chunks = max_inflight_chunks
        self.checkpoint_interval = checkpoint_interval
        self.default_config = default_config
        self._sessions: Dict[str, Session] = {}
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="repro-session")
        self._shutdown = False
        #: Shared span recorder (the no-op singleton when tracing is off).
        self.spans = SpanRecorder() if tracing else NULL_SPANS
        self.health = HealthEngine(health_config)
        # Service-level counters (read by the `stats` op).
        self.backpressure_waits = 0
        self.chunks_executed = 0
        self.records_executed = 0
        self.sessions_opened = 0
        self.sessions_resumed = 0

    # ------------------------------------------------------------------
    # Session lookup / lifecycle
    # ------------------------------------------------------------------
    def _checkpoint_path(self, name: str) -> Optional[Path]:
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / f"{name}.ckpt"

    def _get(self, name: str) -> Session:
        """A live session, transparently restoring an evicted one."""
        with self._lock:
            session = self._sessions.get(name)
            if session is not None:
                return session
            path = self._checkpoint_path(name)
            if path is None or not path.exists():
                raise SessionNotFoundError(name)
            session = Session.from_checkpoint(name, load_checkpoint(path))
            self.sessions_resumed += 1
            return self._admit(session)

    def _admit(self, session: Session) -> Session:
        """Make ``session`` live (caller holds ``_lock``), tracing it with
        the manager's span recorder."""
        if self.spans.enabled:
            session.simulator.spans = self.spans
        self._sessions[session.name] = session
        return session

    def open(self, name: str, prefetcher: str, workload: str = "stream",
             config: Optional[SimConfig] = None,
             warmup_records: Optional[Sequence[int]] = None,
             resume: bool = False,
             epoch_records: Optional[int] = None,
             lineage: bool = False) -> SessionSnapshot:
        """Create a session (or, with ``resume``, restore its checkpoint).

        ``warmup_records`` fixes per-channel warmup windows up front (see
        :func:`~repro.sim.engine.channel_warmup_counts`); streaming
        sessions default to no warmup suppression.  ``epoch_records``
        enables observability: the session then answers ``timeline``
        queries with epochs of that many records per channel (a resumed
        session keeps the epoch size stored in its checkpoint).
        ``lineage`` enables prefetch provenance/fate accounting
        (:mod:`repro.obs.lineage`): the session then answers ``lineage``
        queries and exports ``planaria_lineage_*`` Prometheus series
        (a resumed session keeps the flag stored in its checkpoint).
        """
        if not name or "/" in name or "\x00" in name:
            raise ServiceError(f"invalid session name {name!r}")
        with self._lock:
            if self._shutdown:
                raise ServiceError("session manager is shut down")
            if name in self._sessions:
                raise SessionExistsError(f"session {name!r} is already open")
            path = self._checkpoint_path(name)
            if resume and path is not None and path.exists():
                checkpoint = load_checkpoint(path)
                # Refuse a restore into a different prefetcher/config
                # before any state loads (CheckpointMismatchError names
                # both fingerprints) — the guard cross-worker migration
                # depends on.
                validate_restore(name, checkpoint, prefetcher=prefetcher,
                                 config=config)
                session = Session.from_checkpoint(name, checkpoint)
                self.sessions_resumed += 1
            else:
                session = Session(
                    name, prefetcher, workload,
                    config or self.default_config or SimConfig.experiment_scale(),
                    warmup_records=warmup_records,
                    epoch_records=epoch_records,
                    lineage=lineage)
                self.sessions_opened += 1
            self._admit(session)
        return session.snapshot()

    # ------------------------------------------------------------------
    # The chunk pipeline
    # ------------------------------------------------------------------
    def feed(self, name: str, buffer: TraceBuffer,
             timeout: Optional[float] = None,
             trace: Optional[dict] = None) -> "Future[int]":
        """Queue one trace chunk; blocks while the session is saturated.

        Returns a future resolving to the session's total records fed once
        this chunk has been simulated.  The block-on-full behaviour *is*
        the backpressure contract: a caller cannot run more than
        ``max_inflight_chunks`` ahead of the simulator.

        ``trace`` is an optional wire trace context
        (``{"trace_id": ..., "span_id": ...}``): the chunk's backpressure
        wait and eventual application are then recorded as spans of that
        trace.
        """
        session = self._get(name)
        future: "Future[int]" = Future()
        with session.cond:
            if session.closed:
                raise ServiceError(f"session {name!r} is closed")
            if session.error is not None:
                raise ServiceError(
                    f"session {name!r} failed on an earlier chunk: "
                    f"{session.error}")
            if session.inflight >= self.max_inflight_chunks:
                self.backpressure_waits += 1
                wait_start = now_us() if self.spans.enabled else 0
                deadline = (None if timeout is None
                            else time.monotonic() + timeout)
                while session.inflight >= self.max_inflight_chunks:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        raise ServiceError(
                            f"session {name!r}: feed timed out under "
                            f"backpressure after {timeout}s")
                    session.cond.wait(remaining)
                if self.spans.enabled:
                    ctx = trace or {}
                    self.spans.record(
                        SPAN_FIFO_WAIT, wait_start, now_us() - wait_start,
                        trace_id=ctx.get("trace_id"),
                        parent_id=ctx.get("span_id"), session=name)
                if session.closed:
                    raise ServiceError(f"session {name!r} is closed")
            session.inflight += 1
            session.pending.append((buffer, future, trace))
            session.last_active = time.monotonic()
            if not session.drainer_scheduled:
                session.drainer_scheduled = True
                self._pool.submit(self._drain, session)
        return future

    def _drain(self, session: Session) -> None:
        """Apply one session's queued chunks in order until the FIFO dries."""
        while True:
            with session.cond:
                if not session.pending:
                    session.drainer_scheduled = False
                    session.cond.notify_all()
                    return
                buffer, future, trace = session.pending.popleft()
            if not future.set_running_or_notify_cancel():
                consumed = None  # cancelled before it started
            else:
                chunk_span = None
                if self.spans.enabled:
                    ctx = trace or {}
                    # Attached span: engine.feed below begins on this
                    # drainer thread and nests under it automatically.
                    chunk_span = self.spans.begin(
                        SPAN_FEED_CHUNK, trace_id=ctx.get("trace_id"),
                        parent_id=ctx.get("span_id"),
                        session=session.name, records=len(buffer))
                try:
                    consumed = session.simulator.feed(buffer)
                except BaseException as exc:  # surface to the caller
                    future.set_exception(exc)
                    with session.cond:
                        # feed() acks on accept, so a caller that never
                        # awaits the future still sees the fault on its
                        # next snapshot/feed against this session.
                        session.error = f"{type(exc).__name__}: {exc}"
                    consumed = None
                if chunk_span is not None:
                    self.spans.end(chunk_span, ok=consumed is not None)
            with session.cond:
                if consumed is not None:
                    session.records_fed += consumed
                    session.chunks_fed += 1
                    self.chunks_executed += 1
                    self.records_executed += consumed
                    session.last_progress = time.monotonic()
                session.inflight -= 1
                session.last_active = time.monotonic()
                session.cond.notify_all()
            if consumed is not None:
                future.set_result(session.records_fed)
                if (self.checkpoint_interval
                        and self.checkpoint_dir is not None
                        and session.chunks_fed % self.checkpoint_interval == 0):
                    self._write_checkpoint(session)

    def _quiesce(self, session: Session,
                 timeout: Optional[float] = None) -> None:
        """Wait until every queued chunk of this session has applied."""
        with session.cond:
            if not session.cond.wait_for(lambda: session.inflight == 0,
                                         timeout):
                raise ServiceError(
                    f"session {session.name!r}: quiesce timed out")

    # ------------------------------------------------------------------
    # Snapshots, checkpoints, close
    # ------------------------------------------------------------------
    def snapshot(self, name: str, wait: bool = True) -> SessionSnapshot:
        """Live metrics for one session.

        With ``wait`` (default) the snapshot covers every chunk fed so
        far — the property the service equivalence tests rely on; with
        ``wait=False`` it reflects whatever has applied at call time.
        """
        session = self._get(name)
        if wait:
            self._quiesce(session)
        if session.error is not None:
            raise ServiceError(
                f"session {name!r} failed on an earlier chunk: "
                f"{session.error}")
        return session.snapshot()

    def timeline(self, name: str, include_partial: bool = True,
                 events: bool = False, wait: bool = True
                 ) -> Tuple[List[EpochRecord], Optional[List[TraceEvent]]]:
        """Live epoch timeline (and optionally retained events).

        With ``wait`` (default) the timeline covers every chunk fed so
        far, which makes it bit-identical to an offline run's post-hoc
        dump over the same records.  The trailing partial epoch is
        computed non-destructively — polling never perturbs collection.
        """
        session = self._get(name)
        if wait:
            self._quiesce(session)
        if session.error is not None:
            raise ServiceError(
                f"session {name!r} failed on an earlier chunk: "
                f"{session.error}")
        if session.obs is None:
            raise ServiceError(
                f"session {name!r} was opened without epoch_records; "
                f"no timeline is being collected")
        epochs = session.obs.merged_timeline(include_partial=include_partial)
        retained = session.obs.events() if events else None
        return epochs, retained

    def lineage(self, name: str, events: bool = False,
                wait: bool = True) -> dict:
        """Live lineage accounting for one session.

        Returns the merged per-channel summary (see
        :meth:`repro.obs.lineage.SystemLineage.summary`), with the
        retained fate events under ``"events"`` when requested.  With
        ``wait`` (default) the summary covers every chunk fed so far.
        """
        session = self._get(name)
        if wait:
            self._quiesce(session)
        if session.error is not None:
            raise ServiceError(
                f"session {name!r} failed on an earlier chunk: "
                f"{session.error}")
        if session.lineage is None:
            raise ServiceError(
                f"session {name!r} was opened without lineage; "
                f"no provenance is being collected")
        summary = session.lineage.summary()
        if events:
            summary["events"] = session.lineage.events()
        return summary

    def metrics_text(self) -> str:
        """Prometheus text exposition covering every live session."""
        from repro.obs.export import (epoch_samples, fallback_samples,
                                      health_samples, lineage_samples,
                                      prometheus_text, snapshot_samples)

        with self._lock:
            sessions = [self._sessions[name]
                        for name in sorted(self._sessions)]
        samples = []
        for session in sessions:
            if session.error is not None:
                continue
            samples.extend(snapshot_samples(session.name, session.snapshot()))
            if session.obs is not None:
                timeline = session.obs.merged_timeline(include_partial=True)
                if timeline:
                    samples.extend(epoch_samples(session.name, timeline[-1]))
            if session.lineage is not None:
                samples.extend(lineage_samples(session.name,
                                               session.lineage.summary()))
            samples.extend(fallback_samples(
                session.name, session.simulator.fallback_counts()))
        samples.extend(health_samples(self.health_report()))
        if self.spans.enabled:
            from repro.obs.export import span_samples
            samples.extend(span_samples(self.spans.summary()))
        return prometheus_text(samples)

    def live_sessions(self) -> List[Session]:
        """The in-memory sessions (for the health engine's read-only pass)."""
        with self._lock:
            return [self._sessions[name] for name in sorted(self._sessions)]

    def health_report(self) -> HealthReport:
        """One health evaluation over every live session (never quiesces)."""
        return self.health.evaluate(self, spans=self.spans)

    def span_summary(self) -> dict:
        """Per-span-name latency summary (empty when tracing is off)."""
        return self.spans.summary()

    def _write_checkpoint(self, session: Session) -> Path:
        path = self._checkpoint_path(session.name)
        if path is None:
            raise ServiceError("no checkpoint_dir configured")
        return save_checkpoint(path, session.to_checkpoint())

    def checkpoint(self, name: str) -> Path:
        """Quiesce a session and persist it; returns the checkpoint path."""
        session = self._get(name)
        self._quiesce(session)
        return self._write_checkpoint(session)

    def close(self, name: str, delete_checkpoint: bool = True
              ) -> SessionSnapshot:
        """Drain, report final metrics, and forget a session.

        A cleanly closed session is gone — by default its checkpoint file
        is removed too, so the name cannot accidentally resume; pass
        ``delete_checkpoint=False`` to keep the final state on disk.
        """
        session = self._get(name)
        self._quiesce(session)
        with session.cond:
            session.closed = True
            session.cond.notify_all()
        final = session.snapshot()
        with self._lock:
            self._sessions.pop(name, None)
        path = self._checkpoint_path(name)
        if path is not None:
            if delete_checkpoint:
                path.unlink(missing_ok=True)
            else:
                save_checkpoint(path, session.to_checkpoint())
        return final

    # ------------------------------------------------------------------
    # Eviction and shutdown
    # ------------------------------------------------------------------
    def evict_idle(self, max_idle_seconds: float) -> List[str]:
        """Checkpoint-and-drop sessions idle longer than the threshold.

        Only quiescent sessions (no queued chunks) are evicted; the next
        request against an evicted name transparently restores it from
        its checkpoint.  No-op without a ``checkpoint_dir``.
        """
        if self.checkpoint_dir is None:
            return []
        now = time.monotonic()
        evicted: List[str] = []
        with self._lock:
            candidates = list(self._sessions.items())
        for name, session in candidates:
            with session.cond:
                idle = (session.inflight == 0
                        and now - session.last_active >= max_idle_seconds)
            if not idle:
                continue
            self._write_checkpoint(session)
            with self._lock:
                # Re-check under the manager lock: a feed may have raced in.
                with session.cond:
                    if session.inflight == 0:
                        self._sessions.pop(name, None)
                        evicted.append(name)
        return evicted

    def session_names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def stats(self) -> dict:
        """Service-level counters (the server's ``stats`` op payload)."""
        with self._lock:
            live = len(self._sessions)
        return {
            "live_sessions": live,
            "sessions_opened": self.sessions_opened,
            "sessions_resumed": self.sessions_resumed,
            "chunks_executed": self.chunks_executed,
            "records_executed": self.records_executed,
            "backpressure_waits": self.backpressure_waits,
            "max_inflight_chunks": self.max_inflight_chunks,
            "tracing": self.spans.enabled,
            "spans_recorded": getattr(self.spans, "finished", 0),
        }

    def drain(self, checkpoint: bool = True) -> None:
        """Quiesce every session (and checkpoint them) — the SIGTERM path."""
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            self._quiesce(session)
            if checkpoint and self.checkpoint_dir is not None:
                self._write_checkpoint(session)

    def shutdown(self, checkpoint: bool = True) -> None:
        """Drain, then stop accepting work and release the pool."""
        self.drain(checkpoint=checkpoint)
        with self._lock:
            self._shutdown = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
