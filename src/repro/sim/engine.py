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
from repro.dram.request import MemRequest, RequestKind
from repro.errors import SimulationError, TraceOrderError
from repro.power.model import MemorySystemPower
from repro.power.prefetcher_power import PrefetcherActivity
from repro.prefetch.base import DemandAccess, Prefetcher
from repro.prefetch.queue import PrefetchQueue, QueueStats
from repro.sim.executor import ParallelExecutor, Parallelism
from repro.sim.metrics import MetricSet
from repro.trace.buffer import TraceBuffer, _DEVICE_BY_VALUE
from repro.trace.record import TraceRecord

#: Records accepted anywhere the engine takes a trace: the columnar form
#: or the legacy object-record list.
TraceLike = Union[TraceBuffer, Sequence[TraceRecord]]


class _FastDemandAccess:
    """Mutable, reused stand-in for :class:`DemandAccess` on the fast path.

    The columnar demand loop overwrites one instance per record instead of
    allocating a frozen dataclass 120k+ times per channel.  Safe because
    every prefetcher reads the scalar fields synchronously during
    ``observe``/``issue`` and none retains the object (audited; any new
    prefetcher that wants to keep state must copy the fields it needs,
    exactly as it must with the frozen object, which is also reused
    conceptually — one per ``step`` call).
    """

    __slots__ = ("block_addr", "page", "block_in_segment", "channel_block",
                 "time", "is_read", "device")


#: Why a run_buffer() chunk ran on the scalar loop: an explicit
#: ``engine_mode="scalar"``, an ``"auto"`` mode resolved to scalar by a
#: non-LRU replacement policy, or a passive run over prefetched blocks a
#: restored checkpoint left resident (the batch engine declines it).
FALLBACK_REASONS = ("explicit_scalar", "non_lru_policy",
                    "restored_prefetches")


class ChannelSimulator:
    """SC slice + DRAM channel + prefetcher for one channel.

    ``engine_mode`` selects the execution backend:

    * ``"scalar"`` — the per-record loops over :class:`SetAssociativeCache`
      (the always-available oracle; supports every replacement policy).
    * ``"batch"`` — the vectorized chunk engine (:mod:`repro.sim.batch`)
      over :class:`~repro.cache.array_state.ArrayCache`; bit-identical to
      scalar (``tests/test_batch_oracle.py``) but LRU-only.  Way
      partitions and an attached lineage collector run on it too.
    * ``"auto"`` (default) — ``"batch"`` when the configured replacement
      policy is LRU, ``"scalar"`` otherwise.

    ``step()`` and object-record ``run()`` always use the scalar per-record
    path regardless of mode (:class:`~repro.cache.array_state.ArrayCache`
    implements the full scalar cache API); the mode only changes which
    loop :meth:`run_buffer` drives.  Every :meth:`run_buffer` chunk the
    scalar loop takes is counted by reason in :attr:`fallbacks`.
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
        #: Host-side count of run_buffer() chunks the scalar loop took, by
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
        #: costs one attribute load per run()/run_buffer() call.
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

    # ------------------------------------------------------------------
    def _decompose(self, record: TraceRecord) -> DemandAccess:
        layout = self.layout
        block_addr = record.address >> layout.block_bits
        page = record.address >> layout.page_bits
        block_in_segment = block_addr & (self._blocks_per_segment - 1)
        return DemandAccess(
            block_addr=block_addr,
            page=page,
            block_in_segment=block_in_segment,
            channel_block=page * self._blocks_per_segment + block_in_segment,
            time=record.arrival_time,
            is_read=record.is_read,
            device=record.device,
        )

    def step(self, record: TraceRecord,
             record_metrics: Optional[bool] = None) -> int:
        """Simulate one demand access; returns its observed latency.

        ``record_metrics=None`` (the default) consults the warmup state
        configured by :meth:`set_warmup`; an explicit bool overrides it.
        """
        if record_metrics is None:
            record_metrics = self._records_seen >= self._warmup_until
        self._records_seen += 1
        now = record.arrival_time
        self._last_time = max(self._last_time, now)
        access = self._decompose(record)
        result = self.cache.access(access.block_addr, now,
                                   is_write=not access.is_read)

        went_dram = False
        if result.hit:
            latency = self.config.sc_hit_latency
        elif result.delayed:
            # Data already in flight (MSHR merge or late prefetch).
            latency = self.config.sc_hit_latency + result.wait_cycles
        else:
            went_dram = True
            completion = self.dram.service(MemRequest(
                block_addr=access.block_addr,
                arrival_time=now,
                kind=RequestKind.DEMAND_READ,
            ))
            eviction = self.cache.fill(
                access.block_addr, now, ready_time=completion,
                dirty=not access.is_read,
                requester=access.device.value,
            )
            self._handle_eviction(eviction, now)
            if access.is_read:
                latency = self.config.sc_hit_latency + (completion - now)
            else:
                # Posted write: the requester does not wait for the fetch.
                latency = self.config.sc_hit_latency

        if record_metrics:
            self.metrics.record(latency, access.is_read,
                                device=access.device.name,
                                hit=result.hit,
                                useful=result.prefetch_source is not None,
                                dram=went_dram)

        if result.prefetch_source is not None:
            self.prefetcher.notify_useful()
            if self.lineage is not None:
                self.lineage.note_used(access.block_addr,
                                       result.prefetch_source,
                                       result.late_prefetch, now)

        # Learning phase: always on, sees the complete stream (Section 2).
        self.prefetcher.observe(access)
        # Issuing phase.  A hit that is the first demand touch of a
        # prefetched block is the classic secondary trigger.
        prefetched_hit = result.hit and result.prefetch_source is not None
        candidates = self.prefetcher.issue(access, result.hit, prefetched_hit)
        if candidates:
            accepted = self.queue.push(candidates)
            if accepted:
                self._service_prefetches(now, requester=access.device.value)
        return latency

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

        A :class:`TraceBuffer` stream goes through the columnar fast loop
        (:meth:`run_buffer`); an object-record iterable goes through
        :meth:`step` per record.  Both produce bit-identical state
        (``tests/test_fastpath_equivalence.py``).

        A :class:`TraceBuffer` chunk is checked for arrival order first
        (:meth:`check_order`), so an out-of-order chunk raises
        :class:`TraceOrderError` with no state changed.
        """
        if not self._order_checked and isinstance(records, TraceBuffer):
            self.check_order(records)
        if self.obs is not None:
            self._run_observed(records, warmup_records)
            return
        if isinstance(records, TraceBuffer):
            self.run_buffer(records, warmup_records=warmup_records)
            return
        self.set_warmup(warmup_records, records_seen_hint=self._records_seen)
        for record in records:
            self.step(record)
        self.finish()

    def _run_observed(self, records, warmup_records: int) -> None:
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
        if not hasattr(records, "__getitem__"):
            records = list(records)
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

    def run_buffer(self, buffer: TraceBuffer,
                   warmup_records: int = 0) -> None:
        """Columnar fast path: :meth:`run` over a :class:`TraceBuffer`.

        Semantically identical to calling :meth:`step` per record, but
        iterates the columns directly — no ``TraceRecord``/``DemandAccess``
        allocation per access — with every attribute and config lookup
        hoisted out of the loop.  Keep this in lockstep with :meth:`step`.
        """
        if self.obs is not None:
            self._run_observed(buffer, warmup_records)
            return
        if self.engine_mode == "batch":
            from repro.sim.batch import run_buffer_batch
            if run_buffer_batch(self, buffer, warmup_records=warmup_records):
                return
            # Declined chunk (a passive run over live prefetched blocks
            # from a restored checkpoint): fall through to the scalar loop
            # below — ArrayCache is API-compatible with the scalar cache.
            self.fallbacks["restored_prefetches"] += 1
        else:
            self.fallbacks[self._scalar_reason] += 1
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

        if prefetcher.passive:
            # Demand-only loop: a passive prefetcher (observe/issue are
            # pure no-ops) never fills, so prefetch_source is always None
            # and the access decomposition beyond the block address is
            # never consumed — skip all of it.  State and metrics are
            # bit-identical to the full loop below.
            for address, access_type, device_value, now in zip(
                    addresses, access_types, device_values, arrival_times):
                record_metrics = records_seen >= warmup_until
                records_seen += 1
                if now > last_time:
                    last_time = now
                is_read = access_type == 0  # AccessType.READ
                block_addr = address >> block_bits
                result = cache_access(block_addr, now, is_write=not is_read)
                if result is _PLAIN_HIT:
                    latency = sc_hit_latency
                    hit_f = True
                    useful_f = False
                    dram_f = False
                elif result is _PLAIN_MISS:
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
                    hit_f = False
                    useful_f = False
                    dram_f = True
                else:
                    # Delayed hit (MSHR merge of an in-flight demand fill)
                    # or a prefetched block restored from a checkpoint.
                    latency = sc_hit_latency + result.wait_cycles
                    hit_f = result.hit
                    useful_f = result.prefetch_source is not None
                    dram_f = False
                    if useful_f and lineage is not None:
                        lineage.note_used(block_addr,
                                          result.prefetch_source,
                                          result.late_prefetch, now)
                if record_metrics:
                    metrics_record(latency, is_read,
                                   device=device_names[device_value],
                                   hit=hit_f, useful=useful_f, dram=dram_f)
            self._records_seen = records_seen
            self._last_time = last_time
            self.finish()
            return

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
                # Delayed hits and prefetch-served accesses: the general
                # decode, mirroring step().
                hit = result.hit
                prefetch_source = result.prefetch_source
                went_dram = False
                if hit:
                    latency = sc_hit_latency
                elif result.delayed:
                    latency = sc_hit_latency + result.wait_cycles
                else:
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
        if self.obs is not None:
            state["obs"] = self.obs.state_dict()
        if self.lineage is not None:
            state["lineage"] = self.lineage.state_dict()
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
        obs_state = state.get("obs")
        if obs_state is not None and self.obs is not None:
            self.obs.load_state(obs_state)
        if self.obs is not None:
            # Restoring replaced nested sub-prefetcher objects; point the
            # chain back at the live tracer so no events land in orphans.
            self.obs.rewire(self)
        if self.lineage is not None:
            lineage_state = state.get("lineage")
            if lineage_state is not None:
                self.lineage.load_state(lineage_state)
            # Same rewire concern as obs: load_state replaced nested
            # sub-prefetcher objects, whose deep-copied lineage attrs now
            # point at orphan collector copies.
            from repro.obs.lineage import wire_lineage
            wire_lineage(self.prefetcher, self.lineage)


def channel_warmup_counts(records: TraceLike, config: SimConfig) -> List[int]:
    """Per-channel warmup record counts an offline run would use.

    :meth:`SystemSimulator.run` suppresses metrics for the first
    ``len(channel_stream) * warmup_fraction`` accesses of each channel.
    A streaming caller that wants bit-identical metrics must fix those
    counts *before* the first chunk (warmup suppression cannot be applied
    retroactively); this helper computes them from the full trace.
    """
    buffer = (records if isinstance(records, TraceBuffer)
              else TraceBuffer.from_records(records))
    return [int(len(stream) * config.warmup_fraction)
            for stream in buffer.split_channels(config.layout)]


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
            parallelism: "Parallelism" = "serial",
            columnar: bool = True) -> None:
        """Simulate the whole trace.

        Records are routed per channel in arrival order; metrics ignore the
        warmup prefix of each channel's stream.  ``records`` may be a
        :class:`TraceBuffer` (canonical) or an object-record list; with
        ``columnar`` (the default) a record list is packed into a buffer,
        the routing loop becomes one vectorized
        :meth:`TraceBuffer.split_channels` pass, and each channel runs the
        columnar fast loop.  ``columnar=False`` forces the legacy
        per-record-object path — same results, kept for the throughput
        benchmark and the fast-path equivalence suite.

        ``parallelism`` selects the channel-grain execution mode
        (``"serial"``, ``"auto"`` or a worker count): channel simulators
        share no mutable state once the trace is split, so each stream may
        run in its own process and the driven simulator shipped back — as
        compact column arrays, not pickled record objects, on the columnar
        path.  Results are bit-identical to serial execution (see
        ``docs/parallelism.md``); the serial path is used deterministically
        whenever one worker resolves or no pool is available.
        """
        spans = self.spans
        if spans is None or not spans.enabled:
            return self._run_impl(records, warmup_fraction, parallelism,
                                  columnar)
        from repro.obs.trace_spans import SPAN_ENGINE_RUN
        with spans.span(SPAN_ENGINE_RUN):
            return self._run_impl(records, warmup_fraction, parallelism,
                                  columnar)

    def _run_impl(self, records: TraceLike,
                  warmup_fraction: Optional[float],
                  parallelism: "Parallelism", columnar: bool) -> None:
        if warmup_fraction is None:
            warmup_fraction = self.config.warmup_fraction
        layout = self.config.layout
        if columnar:
            buffer = (records if isinstance(records, TraceBuffer)
                      else TraceBuffer.from_records(records))
            streams: List[TraceLike] = buffer.split_channels(layout)
        else:
            record_list = (records.to_records()
                           if isinstance(records, TraceBuffer) else records)
            object_streams: List[List[TraceRecord]] = [[] for _ in self.channels]
            for record in record_list:
                object_streams[layout.channel(record.address)].append(record)
            streams = object_streams
        self._drive([
            (channel_sim, stream, int(len(stream) * warmup_fraction))
            for channel_sim, stream in zip(self.channels, streams)
        ], parallelism)

    def _drive(self, jobs, parallelism: "Parallelism") -> None:
        """Run each ``(channel, stream, warmup)`` job once every stream has
        passed its order check, so a rejected chunk changes no channel."""
        for channel_sim, stream, _ in jobs:
            if isinstance(stream, TraceBuffer):
                channel_sim.check_order(stream)
        for channel_sim in self.channels:
            channel_sim._order_checked = True
        try:
            executor = ParallelExecutor(parallelism)
            if executor.workers_for(len(jobs)) > 1:
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

    def feed(self, records: TraceLike,
             parallelism: "Parallelism" = "serial") -> int:
        """Ingest one chunk of the bus trace; returns the records consumed.

        The chunk is routed per channel and driven through each channel's
        :meth:`ChannelSimulator.feed`, preserving the warmup windows set
        by :meth:`set_stream_warmup` and each channel's position in its
        stream.  Any chunking of a trace — including empty chunks — yields
        final state bit-identical to a single :meth:`run` over the whole
        trace.  ``parallelism`` fans the per-channel work out through the
        same executor path :meth:`run` uses.
        """
        spans = self.spans
        if spans is None or not spans.enabled:
            return self._feed_impl(records, parallelism)
        from repro.obs.trace_spans import SPAN_ENGINE_FEED
        open_span = spans.begin(SPAN_ENGINE_FEED)
        try:
            consumed = self._feed_impl(records, parallelism)
        except BaseException:
            spans.end(open_span, error=True)
            raise
        spans.end(open_span, records=consumed)
        return consumed

    def _feed_impl(self, records: TraceLike,
                   parallelism: "Parallelism") -> int:
        buffer = (records if isinstance(records, TraceBuffer)
                  else TraceBuffer.from_records(records))
        streams = buffer.split_channels(self.config.layout)
        self._drive([
            (channel_sim, stream, channel_sim._warmup_until)
            for channel_sim, stream in zip(self.channels, streams)
        ], parallelism)
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
