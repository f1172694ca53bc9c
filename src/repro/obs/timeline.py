"""Epoch-sliced metric timelines for one run.

The :class:`TimelineCollector` slices a channel's record stream into
fixed-size epochs (``epoch_records`` accesses each) and snapshots, at
every boundary, the *delta* of every counter the run accumulates —
cache hit/miss split, demand metrics, per-device read latency, DRAM
queue/bank traffic, prefetch-queue accounting, and the SLP-vs-TLP issue
split with the coordinator's arbitration counts.  One epoch is one
:class:`EpochRecord`; the whole run is a list of them.

Everything here is **read-only with respect to the simulation**: the
collector computes deltas of cumulative counters the engine maintains
anyway, so enabling collection never changes ``RunMetrics`` (asserted
by ``tests/test_obs_timeline.py``).  Collection cost is one
:func:`capture_channel` pass (~60 scalar reads) per epoch boundary, not
per record.

Determinism: epochs are positions in the *channel's* stream, so any
chunking of the stream — offline one-shot, streaming ``feed`` chunks,
or the parallel executor's per-channel processes — closes the same
epochs with bit-identical contents.  :func:`merge_timelines` folds
per-channel timelines into the system view by epoch index, in fixed
channel order, so the merged timeline is bit-identical between serial
and parallel execution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.events import EventTracer

#: Bump on any incompatible change to the EpochRecord layout.
TIMELINE_SCHEMA_VERSION = 1

#: Default epoch size — coarse enough that a capture pass per boundary
#: is noise (~60 scalar reads / 1024 records), fine enough to resolve
#: workload phases at the bundled trace lengths.
DEFAULT_EPOCH_RECORDS = 1024


@dataclass
class EpochRecord:
    """Deltas of one epoch of one channel (or the merged system view).

    Counter fields are epoch deltas; fields documented *instantaneous*
    are sampled at the epoch's closing boundary (summed across channels
    in the merged view — e.g. ``throttle_suspended`` then counts
    currently-suspended channels).  ``channel`` is -1 for merged epochs.
    """

    epoch: int
    channel: int
    start_record: int
    end_record: int
    start_time: int
    end_time: int
    # Demand path (cache split + post-warmup metric deltas).
    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    delayed_hits: int = 0
    demand_reads: int = 0
    demand_writes: int = 0
    read_latency_total: float = 0.0
    # Prefetch path.
    prefetch_fills: int = 0
    prefetch_useful: int = 0
    prefetch_late: int = 0
    prefetch_unused_evicted: int = 0
    queue_accepted: int = 0
    queue_dropped: int = 0
    queue_depth: int = 0  # instantaneous
    # DRAM queue/bank activity.
    dram_demand_reads: int = 0
    dram_demand_writes: int = 0
    dram_prefetch_reads: int = 0
    dram_writebacks: int = 0
    dram_activates: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    dram_row_conflicts: int = 0
    dram_refreshes: int = 0
    dram_data_bus_cycles: int = 0
    dram_queue_stalls: int = 0
    dram_outstanding: int = 0  # instantaneous
    # Cache residency (instantaneous).
    cache_occupancy: int = 0
    resident_prefetches: int = 0
    # SLP / TLP split + coordinator arbitration (zero for non-Planaria).
    slp_issued: int = 0
    tlp_issued: int = 0
    coord_slp_issued: int = 0
    coord_tlp_fallback: int = 0
    coord_neither: int = 0
    # Throttle wrapper (zero when not wrapped).
    throttle_suspensions: int = 0
    throttle_suspended: int = 0  # instantaneous
    # Attribution tables.
    useful_by_source: Dict[str, int] = field(default_factory=dict)
    fills_by_source: Dict[str, int] = field(default_factory=dict)
    device_reads: Dict[str, int] = field(default_factory=dict)
    device_read_latency_total: Dict[str, float] = field(default_factory=dict)
    # Per-tenant demand attribution (epoch deltas of
    # ``MetricSet.device_demand``; defaults keep schema version 1
    # loading pre-tenancy payloads).
    device_accesses: Dict[str, int] = field(default_factory=dict)
    device_hits: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived per-epoch figures
    # ------------------------------------------------------------------
    @property
    def records(self) -> int:
        return self.end_record - self.start_record

    @property
    def hit_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def amat(self) -> float:
        """Mean demand-read latency within this epoch (post-warmup)."""
        if self.demand_reads == 0:
            return 0.0
        return self.read_latency_total / self.demand_reads

    @property
    def accuracy(self) -> float:
        """Within-epoch useful-prefetch fraction of this epoch's fills."""
        if self.prefetch_fills == 0:
            return 0.0
        return self.prefetch_useful / self.prefetch_fills

    @property
    def coverage(self) -> float:
        base = self.prefetch_useful + self.demand_misses
        return self.prefetch_useful / base if base else 0.0

    def source_accuracy(self, source: str) -> float:
        """Useful/fills for one sub-prefetcher within this epoch."""
        fills = self.fills_by_source.get(source, 0)
        if fills == 0:
            return 0.0
        return self.useful_by_source.get(source, 0) / fills

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EpochRecord":
        known = {field_.name for field_ in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown EpochRecord fields: {sorted(unknown)}")
        return cls(**payload)


def capture_channel(sim) -> dict:
    """One cumulative counter snapshot of a :class:`ChannelSimulator`.

    Pure reads — the capture never touches simulator state.  Welford
    aggregates are captured as (count, total=mean*count) pairs so epoch
    deltas are plain subtractions; identical simulator states produce
    bit-identical captures, which is what makes serial/parallel and
    offline/streaming timelines comparable with ``==``.
    """
    metrics = sim.metrics
    cache_stats = sim.cache.stats
    dram = sim.dram
    dram_stats = dram.stats
    read_latency = metrics.read_latency
    snapshot = {
        "records_seen": sim._records_seen,
        "last_time": sim._last_time,
        "demand_reads": metrics.demand_reads,
        "demand_writes": metrics.demand_writes,
        "read_latency_total": read_latency.mean * read_latency.count,
        "demand_accesses": cache_stats.demand_accesses,
        "demand_hits": cache_stats.demand_hits,
        "demand_misses": cache_stats.demand_misses,
        "delayed_hits": cache_stats.delayed_hits,
        "prefetch_fills": cache_stats.prefetch_fills,
        "prefetch_useful": cache_stats.useful_total(),
        "prefetch_late": sum(cache_stats.prefetch_late.values()),
        "prefetch_unused_evicted": cache_stats.unused_total(),
        "useful_by_source": dict(cache_stats.prefetch_useful),
        "queue_accepted": sim.queue.stats.accepted,
        "queue_dropped": sim.queue.stats.dropped_total(),
        "queue_depth": len(sim.queue),
        "dram_demand_reads": dram_stats.demand_reads,
        "dram_demand_writes": dram_stats.demand_writes,
        "dram_prefetch_reads": dram_stats.prefetch_reads,
        "dram_writebacks": dram_stats.writebacks,
        "dram_activates": dram_stats.activates,
        "dram_row_hits": dram_stats.row_hits,
        "dram_row_misses": dram_stats.row_misses,
        "dram_row_conflicts": dram_stats.row_conflicts,
        "dram_refreshes": dram_stats.refreshes,
        "dram_data_bus_cycles": dram_stats.data_bus_cycles,
        "dram_queue_stalls": dram.stats_queue_stalls,
        "dram_outstanding": dram.outstanding_requests(),
        "fills_by_source": dict(dram_stats.prefetch_reads_by_source),
        "cache_occupancy": sim.cache.occupancy(),
        "resident_prefetches": sim.cache.resident_prefetches(),
        "device_reads": {
            device: stats.count
            for device, stats in metrics.device_read_latency.items()},
        "device_read_latency_total": {
            device: stats.mean * stats.count
            for device, stats in metrics.device_read_latency.items()},
        "device_accesses": {
            device: counts[0]
            for device, counts in metrics.device_demand.items()},
        "device_hits": {
            device: counts[1]
            for device, counts in metrics.device_demand.items()},
    }
    slp_issued = tlp_issued = 0
    coord_slp = coord_tlp = coord_neither = 0
    suspensions = 0
    suspended = 0
    for link in sim.prefetcher.chain():
        slp_issued += getattr(link, "slp_issues", 0)
        tlp_issued += getattr(link, "tlp_issues", 0)
        coord_slp += getattr(link, "coord_slp_issued", 0)
        coord_tlp += getattr(link, "coord_tlp_fallback", 0)
        coord_neither += getattr(link, "coord_neither", 0)
        suspensions += getattr(link, "suspensions", 0)
        suspended += 1 if getattr(link, "suspended", False) else 0
    snapshot.update(
        slp_issued=slp_issued, tlp_issued=tlp_issued,
        coord_slp_issued=coord_slp, coord_tlp_fallback=coord_tlp,
        coord_neither=coord_neither,
        throttle_suspensions=suspensions,
        throttle_suspended=suspended,
    )
    return snapshot


#: Capture keys sampled at the boundary rather than differenced.
_INSTANT_KEYS = ("queue_depth", "dram_outstanding", "cache_occupancy",
                 "resident_prefetches", "throttle_suspended")
#: Capture keys handled explicitly by :func:`_delta_epoch`.
_SPECIAL_KEYS = _INSTANT_KEYS + (
    "records_seen", "last_time", "useful_by_source", "fills_by_source",
    "device_reads", "device_read_latency_total", "device_accesses",
    "device_hits")


def _dict_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    delta = {}
    for key, value in after.items():
        change = value - before.get(key, 0)
        if change:
            delta[key] = change
    return delta


def _delta_epoch(before: dict, after: dict, epoch: int,
                 channel: int) -> EpochRecord:
    """The :class:`EpochRecord` between two cumulative captures."""
    fields: Dict[str, Any] = {
        "epoch": epoch,
        "channel": channel,
        "start_record": before["records_seen"],
        "end_record": after["records_seen"],
        "start_time": before["last_time"],
        "end_time": after["last_time"],
        "useful_by_source": _dict_delta(before["useful_by_source"],
                                        after["useful_by_source"]),
        "fills_by_source": _dict_delta(before["fills_by_source"],
                                       after["fills_by_source"]),
        "device_reads": _dict_delta(before["device_reads"],
                                    after["device_reads"]),
        "device_read_latency_total": _dict_delta(
            before["device_read_latency_total"],
            after["device_read_latency_total"]),
        "device_accesses": _dict_delta(before.get("device_accesses", {}),
                                       after.get("device_accesses", {})),
        "device_hits": _dict_delta(before.get("device_hits", {}),
                                   after.get("device_hits", {})),
    }
    for key in _INSTANT_KEYS:
        fields[key] = after[key]
    for key, value in after.items():
        if key not in _SPECIAL_KEYS:
            fields[key] = value - before[key]
    return EpochRecord(**fields)


class TimelineCollector:
    """Per-channel epoch collector, attached as ``ChannelSimulator.obs``.

    The engine's observed run path calls :meth:`begin` once per chunk
    and :meth:`close_epoch` at every epoch boundary; everything else is
    offline queries.  The collector travels with its channel simulator
    through pickling (parallel executor) and ``state_dict`` round trips.
    """

    def __init__(self, channel: int,
                 epoch_records: int = DEFAULT_EPOCH_RECORDS,
                 tracer: Optional[EventTracer] = None) -> None:
        if epoch_records < 1:
            raise ValueError(
                f"epoch_records must be >= 1, got {epoch_records}")
        self.channel = channel
        self.epoch_records = epoch_records
        self.tracer = tracer
        self.epochs: List[EpochRecord] = []
        self._baseline: Optional[dict] = None

    def begin(self, sim) -> None:
        """Fix the first epoch's baseline (no-op once bound)."""
        if self._baseline is None:
            self._baseline = capture_channel(sim)

    def close_epoch(self, sim) -> None:
        """Snapshot the epoch that just ended; advance the baseline."""
        current = capture_channel(sim)
        self.epochs.append(_delta_epoch(self._baseline, current,
                                        len(self.epochs), self.channel))
        self._baseline = current

    def partial_epoch(self, sim) -> Optional[EpochRecord]:
        """The in-progress epoch's delta so far, without closing it.

        Non-destructive, so a live service query mid-epoch and the
        post-hoc offline dump of the same records agree.
        """
        if self._baseline is None:
            return None
        current = capture_channel(sim)
        if current["records_seen"] == self._baseline["records_seen"]:
            return None
        return _delta_epoch(self._baseline, current,
                            len(self.epochs), self.channel)

    def timeline(self, sim=None,
                 include_partial: bool = False) -> List[EpochRecord]:
        epochs = list(self.epochs)
        if include_partial and sim is not None:
            partial = self.partial_epoch(sim)
            if partial is not None:
                epochs.append(partial)
        return epochs

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "channel": self.channel,
            "epoch_records": self.epoch_records,
            "epochs": [epoch.to_dict() for epoch in self.epochs],
            "baseline": (dict(self._baseline)
                         if self._baseline is not None else None),
            "tracer": (self.tracer.state_dict()
                       if self.tracer is not None else None),
        }

    def load_state(self, state: dict) -> None:
        self.channel = state["channel"]
        self.epoch_records = state["epoch_records"]
        self.epochs = [EpochRecord.from_dict(payload)
                       for payload in state["epochs"]]
        baseline = state["baseline"]
        self._baseline = dict(baseline) if baseline is not None else None
        if self.tracer is not None and state["tracer"] is not None:
            self.tracer.load_state(state["tracer"])


def _merge_into(target: EpochRecord, part: EpochRecord) -> None:
    target.start_record += part.start_record
    target.end_record += part.end_record
    target.start_time = min(target.start_time, part.start_time)
    target.end_time = max(target.end_time, part.end_time)
    for field_ in dataclasses.fields(EpochRecord):
        name = field_.name
        if name in ("epoch", "channel", "start_record", "end_record",
                    "start_time", "end_time"):
            continue
        value = getattr(part, name)
        if isinstance(value, dict):
            mine = getattr(target, name)
            for key, count in value.items():
                mine[key] = mine.get(key, 0) + count
        else:
            setattr(target, name, getattr(target, name) + value)


def merge_timelines(
        channel_timelines: Sequence[List[EpochRecord]]) -> List[EpochRecord]:
    """Fold per-channel timelines into the merged system timeline.

    Epochs align by index; channels whose stream ended earlier simply
    stop contributing (their shorter timeline is exhausted).  Counter
    fields sum, times span min(start)..max(end), record positions sum
    across channels.  Channel order is the caller's fixed channel order,
    so the merge is deterministic and serial/parallel bit-identical.
    """
    merged: List[EpochRecord] = []
    for timeline in channel_timelines:
        for index, part in enumerate(timeline):
            if index == len(merged):
                clone = EpochRecord.from_dict(part.to_dict())
                clone.channel = -1
                merged.append(clone)
            else:
                _merge_into(merged[index], part)
    return merged
