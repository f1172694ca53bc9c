"""The trace-driven simulation engine.

One :class:`ChannelSimulator` per DRAM channel, each owning its SC slice,
LPDDR4 channel, prefetcher instance and prefetch queue — exactly the
paper's per-channel organisation (Figure 1).  :class:`SystemSimulator`
splits the bus trace across channels and merges statistics.

Per demand access the channel simulator:

1. looks up the SC (hit / miss / MSHR-merge on an in-flight fill);
2. on a true miss, services a DRAM read (write misses fetch-for-ownership
   with the write posted off the critical path) and installs the fill with
   its data-ready time;
3. runs the prefetcher's learning phase (always) and issuing phase,
   pushes candidates through the prefetch queue, and services accepted
   prefetches at low cost in the DRAM model, installing prefetch fills
   tagged with their issuing sub-prefetcher for Figure-9 attribution.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.cache.cache import _PLAIN_HIT, _PLAIN_MISS, SetAssociativeCache
from repro.config import SimConfig
from repro.dram.channel import DRAMChannel
from repro.dram.request import RequestKind
from repro.errors import SimulationError, TraceOrderError
from repro.obs.events import NULL_TRACER
from repro.power.model import MemorySystemPower
from repro.power.prefetcher_power import PrefetcherActivity
from repro.prefetch.base import Prefetcher
from repro.prefetch.queue import PrefetchQueue, QueueStats
from repro.sim.executor import ParallelExecutor, Parallelism
from repro.sim.metrics import MetricSet
from repro.trace.buffer import TraceBuffer, _DEVICE_BY_VALUE
from repro.trace.record import TraceRecord

#: Records accepted anywhere the engine takes a trace: a column-array
#: buffer, or an object-record list that :func:`_as_buffer` packs once.
TraceLike = Union[TraceBuffer, Sequence[TraceRecord]]


def _as_buffer(records: Union[TraceBuffer, Iterable[TraceRecord]]
               ) -> TraceBuffer:
    """``records`` itself if a buffer, else its records packed once."""
    if isinstance(records, TraceBuffer):
        return records
    return TraceBuffer.from_records(records)


class _FastDemandAccess:
    """Mutable, reused stand-in for :class:`~repro.prefetch.base.DemandAccess`.

    Both engines' demand loops overwrite one instance per record instead
    of allocating a frozen dataclass 120k+ times per channel.  Safe because
    every prefetcher reads the scalar fields synchronously during
    ``observe``/``issue`` and none retains the object (audited; any new
    prefetcher that wants to keep state must copy the fields it needs).
    """

    __slots__ = ("block_addr", "page", "block_in_segment", "channel_block",
                 "time", "is_read", "device")


#: Why a run() chunk ran on the scalar loop: an explicit
#: ``engine_mode="scalar"``, or an ``"auto"`` mode resolved to scalar by a
#: non-LRU replacement policy.  A batch-mode simulator runs every chunk on
#: the batch engine.
FALLBACK_REASONS = ("explicit_scalar", "non_lru_policy")

#: Collector attributes of a channel, each checkpointed under its name.
HOOKS = ("obs", "lineage")


class ChannelSimulator:
    """SC slice + DRAM channel + prefetcher for one channel.

    ``engine_mode`` selects the execution backend:

    * ``"scalar"`` — the per-record loop over :class:`SetAssociativeCache`
      (the reference oracle; supports every replacement policy).
    * ``"batch"`` — the vectorized chunk engine (:mod:`repro.sim.batch`)
      over :class:`~repro.cache.array_state.ArrayCache`; bit-identical to
      scalar (``tests/test_batch_oracle.py``) but LRU-only.  Way
      partitions and an attached lineage collector run on it too.
    * ``"auto"`` (default) — ``"batch"`` when the configured replacement
      policy is LRU, ``"scalar"`` otherwise.

    The mode is fixed at construction, and every chunk runs on the loop
    it names.  Every chunk the scalar loop takes is counted by reason in
    :attr:`fallbacks`.
    """

    def __init__(self, channel: int, config: SimConfig,
                 prefetcher: Prefetcher,
                 engine_mode: str = "auto") -> None:
        if prefetcher.channel != channel:
            raise SimulationError(
                f"prefetcher built for channel {prefetcher.channel}, "
                f"simulator is channel {channel}"
            )
        if engine_mode not in ("auto", "scalar", "batch"):
            raise SimulationError(
                f"unknown engine_mode {engine_mode!r}; "
                "expected 'auto', 'scalar' or 'batch'")
        self._scalar_reason = "explicit_scalar"
        if engine_mode == "auto":
            # The batch loops inline LRU victim selection.
            if config.cache.replacement_policy == "lru":
                engine_mode = "batch"
            else:
                engine_mode = "scalar"
                self._scalar_reason = "non_lru_policy"
        self.engine_mode = engine_mode
        #: Host-side count of run() chunks the scalar loop took, by
        #: reason (:data:`FALLBACK_REASONS`).  Not simulated state: kept
        #: out of state_dict() and RunMetrics.
        self.fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        self.channel = channel
        self.config = config
        self.layout = config.layout
        if engine_mode == "batch":
            from repro.cache.array_state import ArrayCache
            self.cache = ArrayCache(config.cache)
        else:
            self.cache = SetAssociativeCache(config.cache)
        self.dram = DRAMChannel(config.dram, block_size=config.cache.block_size)
        self.prefetcher = prefetcher
        self.queue = PrefetchQueue(config.queue)
        self.metrics = MetricSet()
        #: Observability hook (a TimelineCollector, see repro.obs) or None.
        #: Checked once per chunk, never per record — the disabled state
        #: costs one attribute load per run() call.
        self.obs = None
        #: Lineage hook (a LineageCollector, see repro.obs.lineage) or
        #: None.  All engine-side hook sites, in both engines, sit on rare
        #: branches (prefetch-served access, prefetch service, eviction of
        #: a prefetched block), so the common per-record path is untouched.
        self.lineage = None
        self._warmup_until = 0
        self._records_seen = 0
        self._last_time = 0
        #: True while a caller that already ran :meth:`check_order` on
        #: the chunk drives it (epoch slices, SystemSimulator dispatch).
        self._order_checked = False
        self._blocks_per_segment = self.layout.blocks_per_segment

    def set_warmup(self, warmup_records: int, records_seen_hint: int = 0) -> None:
        """Metrics are suppressed until ``warmup_records`` accesses were seen.

        Args:
            warmup_records: accesses (counted from the stream's start) whose
                metrics are suppressed.
            records_seen_hint: how many accesses this simulator has already
                stepped through — lets a caller resume a partially driven
                channel (e.g. after state was shipped across a process
                boundary) without restarting the warmup window.
        """
        self._warmup_until = warmup_records
        self._records_seen = records_seen_hint

    def _service_prefetches(self, now: int,
                            requester: Optional[int] = None) -> None:
        # Prefetch fills land in the triggering tenant's partition (when
        # partitions are configured): the prefetcher acted on that
        # device's demand stream, so the speculative block is its budget.
        lineage = self.lineage
        if not self.config.prefetch_fill_sc:
            if lineage is None:
                self.queue.pop_all()
            else:
                for candidate in self.queue.pop_all():
                    lineage.note_unfilled(candidate)
            return
        for candidate in self.queue.pop_all():
            if self.cache.contains(candidate.block_addr):
                if lineage is not None:
                    lineage.note_skip_resident(candidate)
                continue
            completion = self.dram.service_scalar(
                candidate.block_addr, now, RequestKind.PREFETCH,
                candidate.source)
            eviction = self.cache.fill(
                candidate.block_addr, now, ready_time=completion,
                prefetched=True, source=candidate.source,
                requester=requester,
            )
            if lineage is not None:
                lineage.note_fill(candidate, requester, now)
            self._handle_eviction(eviction, now)

    def _handle_eviction(self, eviction, now: int) -> None:
        if eviction is None:
            return
        if eviction.prefetched:
            self.prefetcher.notify_unused()
            if self.lineage is not None:
                self.lineage.note_evicted(eviction.tag, eviction.source, now)
        if eviction.dirty:
            self.dram.service_scalar(eviction.tag, now, RequestKind.WRITEBACK)

    def run(self, records: Union[TraceBuffer, Iterable[TraceRecord]],
            warmup_records: int = 0) -> None:
        """Drive a full per-channel record stream through the simulator.

        An object-record iterable is packed once into a
        :class:`TraceBuffer`.  The buffer is checked for arrival order
        (:meth:`check_order`), so an out-of-order chunk raises
        :class:`TraceOrderError` with no state changed.  A batch-mode
        simulator then hands it to
        :func:`repro.sim.batch.run_buffer_batch`; a scalar-mode one runs
        the reference loop (:meth:`_run_scalar`).
        """
        records = _as_buffer(records)
        if not self._order_checked:
            self.check_order(records)
        if self.obs is not None:
            self._run_observed(records, warmup_records)
            return
        if self.engine_mode == "batch":
            from repro.sim.batch import run_buffer_batch
            run_buffer_batch(self, records, warmup_records=warmup_records)
            return
        self.fallbacks[self._scalar_reason] += 1
        self._run_scalar(records, warmup_records)

    def _run_observed(self, records: TraceBuffer,
                      warmup_records: int) -> None:
        """Observed run path: the stream sliced at epoch boundaries.

        Each epoch-aligned sub-chunk goes through the *unmodified* plain
        path (``obs`` temporarily detached), and the attached collector
        snapshots counter deltas at every boundary.  Correctness rides
        on the chunking contract :meth:`feed` already guarantees — any
        chunking of a stream is bit-identical to the one-shot run — so
        enabling collection never changes simulated state or metrics.
        """
        obs = self.obs
        obs.begin(self)
        epoch_records = obs.epoch_records
        total = len(records)
        self.obs = None
        order_checked = self._order_checked
        self._order_checked = True
        try:
            if total == 0:
                self.run(records, warmup_records=warmup_records)
            position = 0
            while position < total:
                take = epoch_records - (self._records_seen % epoch_records)
                end = min(total, position + take)
                self.run(records[position:end],
                         warmup_records=warmup_records)
                if self._records_seen % epoch_records == 0:
                    obs.close_epoch(self)
                position = end
        finally:
            self.obs = obs
            self._order_checked = order_checked

    def check_order(self, buffer: TraceBuffer) -> None:
        """Raise :class:`TraceOrderError` if a record of ``buffer`` arrives
        more than tREFI before the latest arrival up to it, this channel's
        earlier chunks included.  Both engines assume the order this
        checks.

        One vectorised pass: the running maximum of the arrival times,
        floored at the channel's latest earlier arrival, against each
        record's own time.
        """
        times = buffer.arrival_times
        if not len(times):
            return
        slack = self.dram._tREFI
        latest = np.maximum.accumulate(times)
        np.maximum(latest, self._last_time, out=latest)
        late = times < latest - slack
        if late.any():
            index = int(late.argmax())
            raise TraceOrderError(
                f"record {index} of the chunk arrives at "
                f"{int(times[index])}, more than {slack} cycles before "
                f"{int(latest[index])}; arrival times must not step back "
                f"by more than tREFI")

    def _run_scalar(self, buffer: TraceBuffer, warmup_records: int) -> None:
        """The reference loop: one record at a time over the columns of an
        order-checked chunk, with every attribute and config lookup
        hoisted out of the loop.  The batch loops must stay bit-identical
        to it (``tests/test_batch_oracle.py``).
        """
        self.set_warmup(warmup_records, records_seen_hint=self._records_seen)
        addresses, access_types, device_values, arrival_times = (
            buffer.columns_as_lists())

        # Hoisted state and bound methods (each saves one or more
        # attribute lookups per record; together ~2x on the demand loop).
        records_seen = self._records_seen
        warmup_until = self._warmup_until
        last_time = self._last_time
        layout = self.layout
        block_bits = layout.block_bits
        page_bits = layout.page_bits
        blocks_per_segment = self._blocks_per_segment
        segment_mask = blocks_per_segment - 1
        sc_hit_latency = self.config.sc_hit_latency
        cache_access = self.cache.access
        cache_fill = self.cache.fill
        dram_service = self.dram.service_scalar
        metrics_record = self.metrics.record
        prefetcher = self.prefetcher
        observe = prefetcher.observe
        issue = prefetcher.issue
        notify_useful = prefetcher.notify_useful
        queue_push = self.queue.push
        handle_eviction = self._handle_eviction
        service_prefetches = self._service_prefetches
        lineage = self.lineage
        demand_read = RequestKind.DEMAND_READ
        devices = [_DEVICE_BY_VALUE[value] for value in range(
            max(_DEVICE_BY_VALUE) + 1)]
        device_names = [device.name for device in devices]
        access = _FastDemandAccess()

        for address, access_type, device_value, now in zip(
                addresses, access_types, device_values, arrival_times):
            record_metrics = records_seen >= warmup_until
            records_seen += 1
            if now > last_time:
                last_time = now
            is_read = access_type == 0  # AccessType.READ
            block_addr = address >> block_bits
            page = address >> page_bits
            block_in_segment = block_addr & segment_mask
            access.block_addr = block_addr
            access.page = page
            access.block_in_segment = block_in_segment
            access.channel_block = page * blocks_per_segment + block_in_segment
            access.time = now
            access.is_read = is_read
            access.device = devices[device_value]

            result = cache_access(block_addr, now, is_write=not is_read)
            # The cache hands back the shared singleton for the two
            # overwhelmingly common outcomes; an identity check skips the
            # dataclass field loads on those.
            if result is _PLAIN_HIT:
                hit = True
                prefetch_source = None
                went_dram = False
                latency = sc_hit_latency
            elif result is _PLAIN_MISS:
                hit = False
                prefetch_source = None
                went_dram = True
                completion = dram_service(block_addr, now, demand_read)
                eviction = cache_fill(block_addr, now, completion,
                                      False, None, not is_read,
                                      device_value)
                if eviction is not None:
                    handle_eviction(eviction, now)
                if is_read:
                    latency = sc_hit_latency + (completion - now)
                else:
                    latency = sc_hit_latency
            else:
                # A delayed hit (data still in flight) or a prefetch-served
                # hit; every miss is the _PLAIN_MISS singleton.
                hit = result.hit
                prefetch_source = result.prefetch_source
                went_dram = False
                latency = sc_hit_latency + result.wait_cycles

            if record_metrics:
                metrics_record(latency, is_read,
                               device=device_names[device_value],
                               hit=hit,
                               useful=prefetch_source is not None,
                               dram=went_dram)

            if prefetch_source is not None:
                notify_useful()
                if lineage is not None:
                    lineage.note_used(block_addr, prefetch_source,
                                      result.late_prefetch, now)

            observe(access)
            candidates = issue(access, hit, hit and prefetch_source is not None)
            if candidates:
                if queue_push(candidates):
                    service_prefetches(now, device_value)

        self._records_seen = records_seen
        self._last_time = last_time
        self.finish()

    def finish(self) -> None:
        self.dram.finish(self._last_time)

    # ------------------------------------------------------------------
    # Incremental feeding + checkpoint support
    # ------------------------------------------------------------------
    def feed(self, records: Union[TraceBuffer, Iterable[TraceRecord]]) -> None:
        """Drive one chunk of this channel's stream, preserving warmup.

        Unlike :meth:`run` (which *sets* the warmup window), ``feed``
        keeps the window configured by :meth:`set_warmup` and resumes the
        access count where the previous chunk stopped — so any sequence
        of ``feed`` calls over consecutive chunks is bit-identical to one
        :meth:`run` over the concatenated stream (``finish`` recomputes
        trailing-edge accounting from current state, so intermediate
        calls are harmless).
        """
        self.run(records, warmup_records=self._warmup_until)

    def state_dict(self) -> dict:
        """Snapshot everything :meth:`feed` mutates, component by component.

        The snapshot is deep: no live references into the simulator
        escape, so the source may keep running after the checkpoint.
        """
        state = {
            "records_seen": self._records_seen,
            "warmup_until": self._warmup_until,
            "last_time": self._last_time,
            "cache": self.cache.state_dict(),
            "dram": self.dram.state_dict(),
            "queue": self.queue.state_dict(),
            "metrics": self.metrics.state_dict(),
            "prefetcher": self.prefetcher.state_dict(),
        }
        for hook in HOOKS:
            collector = getattr(self, hook)
            if collector is not None:
                state[hook] = collector.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The target must have been built with the same :class:`SimConfig`
        and prefetcher factory as the snapshot's source; subsequent
        ``feed`` calls then continue bit-identically to the original run.
        """
        self._records_seen = state["records_seen"]
        self._warmup_until = state["warmup_until"]
        self._last_time = state["last_time"]
        self.cache.load_state(state["cache"])
        self.dram.load_state(state["dram"])
        self.queue.load_state(state["queue"])
        self.metrics.load_state(state["metrics"])
        self.prefetcher.load_state(state["prefetcher"])
        for hook in HOOKS:
            collector = getattr(self, hook)
            if collector is not None and hook in state:
                collector.load_state(state[hook])
        self.wire_hooks()

    def wire_hooks(self) -> None:
        """Point the queue, the cache and every prefetcher-chain link at
        this channel's collectors (attach, detach and :meth:`load_state`
        all end here)."""
        lineage = self.lineage
        tracer = NULL_TRACER
        if self.obs is not None and self.obs.tracer is not None:
            tracer = self.obs.tracer
        self.queue.lineage = lineage
        self.cache.lineage = lineage
        # Only changed hooks are set, so a restored unwired chain keeps
        # the state of one never wired.  Hooks are assigned, never popped
        # from ``vars(link)``: on CPython 3.11 popping them slowed every
        # later record by about 5% (bop) and 8% (planaria).
        for link in self.prefetcher.chain():
            if link.tracer is not tracer:
                link.tracer = tracer
            if link.lineage is not lineage:
                link.lineage = lineage


def channel_warmup_counts(records: TraceLike, config: SimConfig) -> List[int]:
    """Per-channel warmup record counts an offline run would use.

    :meth:`SystemSimulator.run` suppresses metrics for the first
    ``len(channel_stream) * warmup_fraction`` accesses of each channel.
    A streaming caller that wants bit-identical metrics must fix those
    counts *before* the first chunk (warmup suppression cannot be applied
    retroactively); this helper computes them from the full trace.
    """
    return [int(len(stream) * config.warmup_fraction)
            for stream in _as_buffer(records).split_channels(config.layout)]


class SystemSimulator:
    """All four channels: splits the bus trace and merges results."""

    def __init__(self, config: SimConfig, prefetcher_factory,
                 engine_mode: str = "auto") -> None:
        """Args:
            prefetcher_factory: callable ``(layout, channel) -> Prefetcher``.
            engine_mode: execution backend for every channel — ``"scalar"``,
                ``"batch"`` or ``"auto"`` (see :class:`ChannelSimulator`).
        """
        self.config = config
        self.channels: List[ChannelSimulator] = [
            ChannelSimulator(channel, config,
                             prefetcher_factory(config.layout, channel),
                             engine_mode=engine_mode)
            for channel in range(config.layout.num_channels)
        ]
        self.engine_mode = self.channels[0].engine_mode if self.channels else engine_mode
        #: Request-tracing hook (a SpanRecorder, see repro.obs.trace_spans)
        #: or None.  Checked once per run()/feed() call — per chunk, never
        #: per record — so disabled tracing costs one attribute load and
        #: one branch.  Spans read only the wall clock; simulated state and
        #: RunMetrics are bit-identical with tracing on or off.
        self.spans = None

    def run(self, records: TraceLike,
            warmup_fraction: Optional[float] = None,
            parallelism: "Parallelism" = "serial") -> None:
        """Simulate the whole trace.

        Records are routed per channel in arrival order; metrics ignore the
        warmup prefix of each channel's stream.  ``records`` may be a
        :class:`TraceBuffer` (canonical) or an object-record list, which is
        packed into a buffer once; routing is one vectorized
        :meth:`TraceBuffer.split_channels` pass.

        ``parallelism`` selects the channel-grain execution mode
        (``"serial"``, ``"auto"`` or a worker count): channel simulators
        share no mutable state once the trace is split, so each stream may
        run in its own process and the driven simulator shipped back — as
        compact column arrays, not pickled record objects.  Results are
        bit-identical to serial execution (see ``docs/parallelism.md``);
        the serial path is used deterministically whenever one worker
        resolves, no pool is available, or ``"auto"`` meets a trace
        shorter than :data:`~repro.sim.executor.AUTO_SERIAL_BELOW` records.
        """
        spans = self.spans
        if spans is None or not spans.enabled:
            return self._run_impl(records, warmup_fraction, parallelism)
        from repro.obs.trace_spans import SPAN_ENGINE_RUN
        with spans.span(SPAN_ENGINE_RUN):
            return self._run_impl(records, warmup_fraction, parallelism)

    def _run_impl(self, records: TraceLike,
                  warmup_fraction: Optional[float],
                  parallelism: "Parallelism") -> None:
        if warmup_fraction is None:
            warmup_fraction = self.config.warmup_fraction
        streams = _as_buffer(records).split_channels(self.config.layout)
        self._drive([
            (channel_sim, stream, int(len(stream) * warmup_fraction))
            for channel_sim, stream in zip(self.channels, streams)
        ], parallelism)

    def _drive(self, jobs, parallelism: "Parallelism" = "serial") -> None:
        """Run each ``(channel, stream, warmup)`` job once every stream has
        passed its order check, so a rejected chunk changes no channel."""
        for channel_sim, stream, _ in jobs:
            channel_sim.check_order(stream)
        for channel_sim in self.channels:
            channel_sim._order_checked = True
        try:
            executor = ParallelExecutor(parallelism)
            records = sum(len(stream) for _, stream, _ in jobs)
            if executor.workers_for(len(jobs), records) > 1:
                # Workers mutate pickled copies; adopt them as the live
                # channels.
                self.channels = executor.run_channels(jobs)
            else:
                for channel_sim, stream, warmup in jobs:
                    channel_sim.run(stream, warmup_records=warmup)
        finally:
            for channel_sim in self.channels:
                channel_sim._order_checked = False

    # ------------------------------------------------------------------
    # Incremental feeding + checkpoint support
    # ------------------------------------------------------------------
    def set_stream_warmup(self, warmup_records: Sequence[int]) -> None:
        """Fix per-channel warmup windows for a chunked (streaming) run.

        Call once before the first :meth:`feed` with the counts an offline
        :meth:`run` would derive (see :func:`channel_warmup_counts`); a
        session fed in arbitrary chunks then reports metrics bit-identical
        to the one-shot run.  Without this, streaming sessions default to
        no warmup suppression.
        """
        if len(warmup_records) != len(self.channels):
            raise SimulationError(
                f"expected {len(self.channels)} warmup counts, "
                f"got {len(warmup_records)}")
        for channel_sim, warmup in zip(self.channels, warmup_records):
            channel_sim.set_warmup(int(warmup),
                                   records_seen_hint=channel_sim._records_seen)

    def feed(self, records: TraceLike) -> int:
        """Ingest one chunk of the bus trace; returns the records consumed.

        The chunk is routed per channel and driven through each channel's
        :meth:`ChannelSimulator.feed`, preserving the warmup windows set
        by :meth:`set_stream_warmup` and each channel's position in its
        stream.  Any chunking of a trace — including empty chunks — yields
        final state bit-identical to a single :meth:`run` over the whole
        trace.  Feeds always run serially: a chunk is too short to repay a
        process pool (see :data:`~repro.sim.executor.AUTO_SERIAL_BELOW`).
        """
        spans = self.spans
        if spans is None or not spans.enabled:
            return self._feed_impl(records)
        from repro.obs.trace_spans import SPAN_ENGINE_FEED
        open_span = spans.begin(SPAN_ENGINE_FEED)
        try:
            consumed = self._feed_impl(records)
        except BaseException:
            spans.end(open_span, error=True)
            raise
        spans.end(open_span, records=consumed)
        return consumed

    def _feed_impl(self, records: TraceLike) -> int:
        buffer = _as_buffer(records)
        streams = buffer.split_channels(self.config.layout)
        self._drive([
            (channel_sim, stream, channel_sim._warmup_until)
            for channel_sim, stream in zip(self.channels, streams)
        ])
        return len(buffer)

    def fallback_counts(self) -> dict:
        """Scalar-loop chunks by reason, summed over channels (see
        :attr:`ChannelSimulator.fallbacks`)."""
        totals = dict.fromkeys(FALLBACK_REASONS, 0)
        for channel_sim in self.channels:
            for reason, count in channel_sim.fallbacks.items():
                totals[reason] += count
        return totals

    def records_fed(self) -> int:
        """Total accesses stepped through across all channels so far."""
        return sum(channel_sim._records_seen for channel_sim in self.channels)

    def state_dict(self) -> dict:
        """Deep snapshot of all channels (see docs/service.md)."""
        return {"channels": [channel_sim.state_dict()
                             for channel_sim in self.channels]}

    def load_state(self, state: dict) -> None:
        """Restore a snapshot onto a simulator built from the same config."""
        channels = state["channels"]
        if len(channels) != len(self.channels):
            raise SimulationError(
                f"checkpoint channel count mismatch: expected "
                f"{len(self.channels)}, got {len(channels)}")
        for channel_sim, saved in zip(self.channels, channels):
            channel_sim.load_state(saved)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merged_metrics(self) -> MetricSet:
        merged = MetricSet()
        for channel_sim in self.channels:
            merged.merge(channel_sim.metrics)
        return merged

    def merged_cache_stats(self):
        from repro.cache.cache import CacheStats

        merged = CacheStats()
        for channel_sim in self.channels:
            merged.merge(channel_sim.cache.stats)
        return merged

    def merged_queue_stats(self) -> QueueStats:
        """Prefetch-queue accept/drop accounting summed over channels."""
        merged = QueueStats()
        for channel_sim in self.channels:
            merged.merge(channel_sim.queue.stats)
        return merged

    def merged_dram_stats(self):
        from repro.dram.stats import DRAMStats

        merged = DRAMStats()
        for channel_sim in self.channels:
            merged.merge(channel_sim.dram.stats)
        return merged

    def power_report(self):
        """Total memory-system power over all channels."""
        power_model = MemorySystemPower(self.config.power,
                                        self.config.dram.timing)
        total_prefetcher_bits = 0
        reads = writes = 0
        for channel_sim in self.channels:
            activity = channel_sim.prefetcher.activity
            reads += activity.table_reads
            writes += activity.table_writes
            total_prefetcher_bits += channel_sim.prefetcher.storage_bits()
        return power_model.report(
            self.merged_dram_stats(),
            PrefetcherActivity(
                table_reads=reads,
                table_writes=writes,
                storage_bits=total_prefetcher_bits,
            ),
        )

    def total_prefetch_issued(self) -> int:
        return sum(channel.prefetcher.issued_candidates for channel in self.channels)

    def storage_bits(self) -> int:
        return sum(channel.prefetcher.storage_bits() for channel in self.channels)
