"""Prefetch lineage: per-issue provenance and fate attribution.

Every prefetch a run issues has a life cycle the aggregate
accuracy/coverage numbers flatten away:

    trigger origin -> queue outcome -> fill -> final fate

:class:`LineageCollector` records that pipeline end to end, per channel,
with *streaming-style* bounded state: exact counters keyed by a small set
of **origin buckets**, a live-block tag map bounded by the cache
capacity, a bounded ring of resolved fate events, and an LRU-capped
snapshot-reuse tracker.  Nothing here is per-record: hooks sit only on
the rare paths a prefetch actually travels (issue, queue gate, fill,
first demand touch, eviction, invalidation), all guarded by
``if <hook> is not None``.

Origin buckets
    * ``slp/d<N>`` — an SLP pattern-table replay whose snapshot has
      ``N`` set bits (the PHT snapshot identity class; at most 16
      buckets for 16-bit bitmaps).
    * ``tlp/<D>`` — a TLP transfer borrowed from a neighbour page at
      distance ``D`` (bounded by ``distance_threshold``).
    * ``src/<name>`` — every other registered prefetcher, attributed by
      the candidate's ``source`` tag at the queue gate (no per-prefetcher
      hooks needed).

Queue outcomes per bucket: ``accepted``, ``dropped_duplicate``,
``dropped_degree``, ``dropped_full``, ``suppressed`` (accuracy-throttle
gate).  Accepted candidates then resolve to ``skipped_resident``,
``discarded_unfilled`` (``prefetch_fill_sc`` off) or ``filled``; filled
blocks resolve to the four final fates ``used_timely``, ``used_late``,
``evicted_unused``, ``invalidated`` (or stay ``resident``).

Neutrality contract (same as the rest of ``repro.obs``): hooks only
*read* simulated state — RunMetrics and epoch timelines are bit-identical
lineage-on vs lineage-off (``tests/test_lineage.py``).  Both engines
report from the same sites, so a lineage run stays on whichever engine
the simulator resolved, and the collector's state is identical on either
(``tests/test_batch_oracle.py``).

Accounting invariants (checked by tests and ``repro explain``):

* ``issued == accepted + dropped_* + suppressed``
* ``accepted == skipped_resident + discarded_unfilled + filled``
* ``filled == used_timely + used_late + evicted_unused + invalidated
  + resident``
* ``used_timely + used_late == CacheStats.useful_total()`` and
  ``evicted_unused == CacheStats.unused_total()`` for a run observed
  from its first record.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional

from repro.trace.record import DeviceID

#: Bump on any incompatible change to the summary / state layout.
LINEAGE_SCHEMA_VERSION = 1

#: Default bounded-ring capacity for resolved fate events, per channel.
DEFAULT_FATE_EVENT_CAPACITY = 256

#: Default LRU capacity of the SLP snapshot-reuse tracker, per channel.
DEFAULT_SNAPSHOT_TRACK_CAPACITY = 512

#: The four terminal fates of a filled prefetch.
FATES = ("used_timely", "used_late", "evicted_unused", "invalidated")

#: Queue-gate outcomes of an issued candidate.
QUEUE_OUTCOMES = ("accepted", "dropped_duplicate", "dropped_degree",
                  "dropped_full", "suppressed")

#: Post-accept dispositions before a fate exists.
DISPOSITIONS = ("skipped_resident", "discarded_unfilled", "filled")

#: Per-bucket counter tables a collector maintains (summary field order).
_BUCKET_COUNTERS = ("issued",) + QUEUE_OUTCOMES + DISPOSITIONS + FATES

_DEVICE_NAMES = {device.value: device.name for device in DeviceID}

#: Snapshot-reuse histogram bucket labels, ascending.
_REUSE_BUCKETS = ("1", "2", "3", "4-7", "8-15", "16+")


def _reuse_bucket(count: int) -> str:
    if count <= 3:
        return str(count)
    if count <= 7:
        return "4-7"
    if count <= 15:
        return "8-15"
    return "16+"


def _bump(table: Dict[str, int], key: str) -> None:
    table[key] = table.get(key, 0) + 1


class LineageCollector:
    """Per-channel lineage state, attached as the ``lineage`` hook on the
    channel simulator, its queue, its cache and its prefetcher chain.

    All hook methods are pure accounting — they never touch simulated
    state — and every container is bounded: counters are keyed by origin
    buckets (small, workload-independent), ``_live`` by resident
    prefetched blocks (<= cache capacity), ``_origin`` by distinct
    candidate source tags, the fate ring and the snapshot tracker carry
    explicit capacities.
    """

    def __init__(self, channel: int,
                 event_capacity: int = DEFAULT_FATE_EVENT_CAPACITY,
                 snapshot_track_capacity: int =
                 DEFAULT_SNAPSHOT_TRACK_CAPACITY) -> None:
        if event_capacity < 1:
            raise ValueError(
                f"event_capacity must be >= 1, got {event_capacity}")
        if snapshot_track_capacity < 1:
            raise ValueError(f"snapshot_track_capacity must be >= 1, "
                             f"got {snapshot_track_capacity}")
        self.channel = channel
        self.event_capacity = event_capacity
        self.snapshot_track_capacity = snapshot_track_capacity
        #: bucket -> count, one table per pipeline stage.
        self.counters: Dict[str, Dict[str, int]] = {
            name: {} for name in _BUCKET_COUNTERS}
        self._bind_tables()
        #: Evicted-unused prefetches per triggering tenant device name.
        self.pollution_by_device: Dict[str, int] = {}
        # source tag -> bucket of the *current trigger*.  Exact because
        # one trigger issues at most one bucket per source (one SLP
        # replay, one TLP neighbour) and the engine gates + services a
        # trigger's candidates before the next trigger runs; sources
        # never tagged by an issue hook resolve to a cached
        # ``src/<source>`` fallback.  Bounded by the distinct source
        # tags, so a handful of entries.
        self._origin: Dict[str, str] = {}
        # block_addr -> (source, bucket, device_name) for resident
        # prefetched blocks awaiting a fate.
        self._live: Dict[int, tuple] = {}
        #: Bounded ring of resolved fate events (dicts).
        self.fate_ring = deque(maxlen=event_capacity)
        # (page, bitmap) -> replay count; LRU-capped, evictees fold into
        # the reuse histogram.
        self._snapshot_uses: "OrderedDict[tuple, int]" = OrderedDict()
        self.snapshot_reuse_histogram: Dict[str, int] = {}

    def _bind_tables(self) -> None:
        # The hot hooks run per issued prefetch; binding the stage tables
        # once keeps them to plain dict operations (no ``self.counters``
        # lookup, no helper-call overhead).
        self._issued = self.counters["issued"]
        self._accepted = self.counters["accepted"]
        self._filled = self.counters["filled"]
        self._used_timely = self.counters["used_timely"]
        self._used_late = self.counters["used_late"]

    # ------------------------------------------------------------------
    # Trigger-origin hooks (prefetcher issue paths)
    # ------------------------------------------------------------------
    def note_issue(self, candidates, bucket: str) -> None:
        """Tag the current trigger's candidates with their origin bucket.

        All of one trigger's candidates share a source tag, so tagging is
        one map write, not per-candidate state.
        """
        if candidates:
            self._origin[candidates[0].source] = bucket

    def note_slp_issue(self, page: int, pattern: int, candidates) -> None:
        """An SLP pattern-table replay: bucket by snapshot density and
        track per-snapshot reuse."""
        self.note_issue(candidates, f"slp/d{pattern.bit_count()}")
        uses = self._snapshot_uses
        key = (page, pattern)
        count = uses.get(key)
        if count is None:
            uses[key] = 1
        else:
            uses[key] = count + 1
            uses.move_to_end(key)
        while len(uses) > self.snapshot_track_capacity:
            _, evicted_count = uses.popitem(last=False)
            _bump(self.snapshot_reuse_histogram,
                  _reuse_bucket(evicted_count))

    def _bucket_of(self, source: str) -> str:
        origin = self._origin
        bucket = origin.get(source)
        if bucket is None:
            # Never tagged by an issue hook: a passive/registry
            # prefetcher.  Cache the fallback so it is a plain lookup
            # from then on (issue hooks overwrite it if one appears).
            bucket = origin[source] = "src/" + source
        return bucket

    # ------------------------------------------------------------------
    # Queue-gate hooks
    # ------------------------------------------------------------------
    def note_accept(self, candidate) -> None:
        source = candidate.source
        origin = self._origin
        bucket = origin.get(source)
        if bucket is None:
            bucket = origin[source] = "src/" + source
        issued = self._issued
        issued[bucket] = issued.get(bucket, 0) + 1
        accepted = self._accepted
        accepted[bucket] = accepted.get(bucket, 0) + 1

    def note_gate(self, source: str, accepted: int, duplicate: int,
                  degree: int, full: int) -> None:
        """Batched queue-gate outcome of one single-source push — the
        counter deltas the :class:`~repro.prefetch.queue.PrefetchQueue`
        observed while gating the trigger's candidates."""
        origin = self._origin
        bucket = origin.get(source)
        if bucket is None:
            bucket = origin[source] = "src/" + source
        issued = self._issued
        issued[bucket] = (issued.get(bucket, 0)
                          + accepted + duplicate + degree + full)
        if accepted:
            table = self._accepted
            table[bucket] = table.get(bucket, 0) + accepted
        if duplicate:
            table = self.counters["dropped_duplicate"]
            table[bucket] = table.get(bucket, 0) + duplicate
        if degree:
            table = self.counters["dropped_degree"]
            table[bucket] = table.get(bucket, 0) + degree
        if full:
            table = self.counters["dropped_full"]
            table[bucket] = table.get(bucket, 0) + full

    def note_drop(self, candidate, kind: str) -> None:
        """A queue drop; ``kind`` in duplicate/degree/full."""
        bucket = self._bucket_of(candidate.source)
        issued = self._issued
        issued[bucket] = issued.get(bucket, 0) + 1
        dropped = self.counters["dropped_" + kind]
        dropped[bucket] = dropped.get(bucket, 0) + 1

    def note_suppressed(self, candidates) -> None:
        """Candidates discarded by a suspended accuracy throttle."""
        for candidate in candidates:
            bucket = self._bucket_of(candidate.source)
            _bump(self.counters["issued"], bucket)
            _bump(self.counters["suppressed"], bucket)

    # ------------------------------------------------------------------
    # Fill-path hooks (engine _service_prefetches)
    # ------------------------------------------------------------------
    def note_skip_resident(self, candidate) -> None:
        _bump(self.counters["skipped_resident"],
              self._bucket_of(candidate.source))

    def note_unfilled(self, candidate) -> None:
        """Accepted but discarded without a fill (``prefetch_fill_sc``
        off)."""
        _bump(self.counters["discarded_unfilled"],
              self._bucket_of(candidate.source))

    def note_fill(self, candidate, requester: Optional[int],
                  now: int) -> None:
        source = candidate.source
        origin = self._origin
        bucket = origin.get(source)
        if bucket is None:
            bucket = origin[source] = "src/" + source
        filled = self._filled
        filled[bucket] = filled.get(bucket, 0) + 1
        device = _DEVICE_NAMES.get(requester) if requester is not None \
            else None
        self._live[candidate.block_addr] = (source, bucket, device)

    # ------------------------------------------------------------------
    # Fate hooks (engine demand path, eviction, cache invalidate)
    # ------------------------------------------------------------------
    def _resolve(self, block_addr: int, source: Optional[str],
                 fate: str, now: int) -> None:
        entry = self._live.pop(block_addr, None)
        if entry is not None:
            source, bucket, device = entry
        else:
            bucket = f"src/{source}"
            device = None
        if fate == "used_timely":
            table = self._used_timely
        elif fate == "used_late":
            table = self._used_late
        else:
            table = self.counters[fate]
        table[bucket] = table.get(bucket, 0) + 1
        if device is not None and fate == "evicted_unused":
            _bump(self.pollution_by_device, device)
        # Ring entries are tuples; events() rebuilds the dict form.
        self.fate_ring.append(
            (now, self.channel, block_addr, source, bucket, fate))

    def note_used(self, block_addr: int, source: Optional[str],
                  late: bool, now: int) -> None:
        """First demand touch of a prefetched block (timely or late).

        Inlines :meth:`_resolve` minus the pollution branch (a used
        block is not pollution): this is the hottest fate hook, one call
        per prefetch-served demand access.
        """
        entry = self._live.pop(block_addr, None)
        if entry is not None:
            source, bucket, _ = entry
        else:
            bucket = f"src/{source}"
        if late:
            fate = "used_late"
            table = self._used_late
        else:
            fate = "used_timely"
            table = self._used_timely
        table[bucket] = table.get(bucket, 0) + 1
        self.fate_ring.append(
            (now, self.channel, block_addr, source, bucket, fate))

    def note_evicted(self, block_addr: int, source: Optional[str],
                     now: int) -> None:
        """A still-unused prefetched block fell out of the cache."""
        self._resolve(block_addr, source, "evicted_unused", now)

    def note_invalidated(self, block_addr: int, source: Optional[str],
                         now: int = 0) -> None:
        """A still-unused prefetched block was explicitly invalidated."""
        self._resolve(block_addr, source, "invalidated", now)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def resident(self) -> int:
        """Filled-but-unresolved prefetched blocks currently tracked."""
        return len(self._live)

    def totals(self) -> Dict[str, int]:
        """Stage totals summed over buckets, plus the resident gauge."""
        result = {name: sum(self.counters[name].values())
                  for name in _BUCKET_COUNTERS}
        result["resident"] = len(self._live)
        return result

    def bucket_table(self) -> Dict[str, Dict[str, int]]:
        """``bucket -> {stage: count}`` with zero stages omitted."""
        table: Dict[str, Dict[str, int]] = {}
        for stage in _BUCKET_COUNTERS:
            for bucket, count in self.counters[stage].items():
                table.setdefault(bucket, {})[stage] = count
        for _, bucket, _ in self._live.values():
            entry = table.setdefault(bucket, {})
            entry["resident"] = entry.get("resident", 0) + 1
        return {bucket: table[bucket] for bucket in sorted(table)}

    def snapshot_reuse(self) -> Dict[str, Any]:
        """Reuse distribution of tracked SLP snapshots.

        The histogram folds both already-evicted tracker entries and the
        still-tracked ones (non-destructively), so it always describes
        every snapshot replay seen so far.
        """
        histogram = dict(self.snapshot_reuse_histogram)
        for count in self._snapshot_uses.values():
            _bump(histogram, _reuse_bucket(count))
        return {
            "tracked": len(self._snapshot_uses),
            "histogram": {key: histogram[key]
                          for key in _REUSE_BUCKETS if key in histogram},
        }

    def summary(self) -> Dict[str, Any]:
        """The channel's full lineage accounting, JSON-ready."""
        return {
            "schema": LINEAGE_SCHEMA_VERSION,
            "channel": self.channel,
            "totals": self.totals(),
            "buckets": self.bucket_table(),
            "pollution_by_device": {
                key: self.pollution_by_device[key]
                for key in sorted(self.pollution_by_device)},
            "snapshot_reuse": self.snapshot_reuse(),
        }

    def events(self) -> List[dict]:
        """Retained fate events, oldest first."""
        return [
            {"time": time, "channel": channel, "block": block,
             "source": source, "bucket": bucket, "fate": fate}
            for time, channel, block, source, bucket, fate
            in self.fate_ring]

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "schema": LINEAGE_SCHEMA_VERSION,
            "channel": self.channel,
            "event_capacity": self.event_capacity,
            "snapshot_track_capacity": self.snapshot_track_capacity,
            "counters": {stage: dict(table)
                         for stage, table in self.counters.items()},
            "pollution_by_device": dict(self.pollution_by_device),
            "origin": dict(self._origin),
            "live": [[block, source, bucket, device]
                     for block, (source, bucket, device)
                     in self._live.items()],
            "fate_ring": self.events(),
            "snapshot_uses": [[page, bitmap, count]
                              for (page, bitmap), count
                              in self._snapshot_uses.items()],
            "snapshot_reuse_histogram": dict(self.snapshot_reuse_histogram),
        }

    def load_state(self, state: dict) -> None:
        if state.get("schema") != LINEAGE_SCHEMA_VERSION:
            raise ValueError(
                f"lineage state schema {state.get('schema')}, this build "
                f"reads version {LINEAGE_SCHEMA_VERSION}")
        self.channel = state["channel"]
        self.event_capacity = state["event_capacity"]
        self.snapshot_track_capacity = state["snapshot_track_capacity"]
        self.counters = {stage: dict(state["counters"].get(stage, {}))
                         for stage in _BUCKET_COUNTERS}
        self._bind_tables()
        self.pollution_by_device = dict(state["pollution_by_device"])
        self._origin = dict(state["origin"])
        self._live = {block: (source, bucket, device)
                      for block, source, bucket, device in state["live"]}
        self.fate_ring = deque(
            ((event["time"], event["channel"], event["block"],
              event["source"], event["bucket"], event["fate"])
             for event in state["fate_ring"]),
            maxlen=self.event_capacity)
        self._snapshot_uses = OrderedDict(
            ((page, bitmap), count)
            for page, bitmap, count in state["snapshot_uses"])
        self.snapshot_reuse_histogram = dict(
            state["snapshot_reuse_histogram"])


# ----------------------------------------------------------------------
# Attach / detach
# ----------------------------------------------------------------------
def attach_lineage(simulator,
                   event_capacity: int = DEFAULT_FATE_EVENT_CAPACITY,
                   snapshot_track_capacity: int =
                   DEFAULT_SNAPSHOT_TRACK_CAPACITY) -> "SystemLineage":
    """Enable lineage collection on a live ``SystemSimulator``.

    Builds one :class:`LineageCollector` per channel and wires it into
    the channel's hook points (``ChannelSimulator.wire_hooks``).  Attach
    before driving records; attaching never changes simulated state,
    ``RunMetrics`` or the engine a chunk runs on.
    """
    for channel_sim in simulator.channels:
        channel_sim.lineage = LineageCollector(
            channel=channel_sim.channel,
            event_capacity=event_capacity,
            snapshot_track_capacity=snapshot_track_capacity)
        channel_sim.wire_hooks()
    return SystemLineage(simulator)


def detach_lineage(simulator) -> None:
    """Remove every channel's collector and unwire the hooks."""
    for channel_sim in simulator.channels:
        channel_sim.lineage = None
        channel_sim.wire_hooks()


class SystemLineage:
    """System-level view over the per-channel collectors.

    Holds the *simulator*, not the channel objects: the parallel executor
    replaces ``simulator.channels`` with driven copies and the collectors
    ride along inside each pickled channel, so every query reads through
    ``simulator.channels`` at call time (same pattern as
    :class:`~repro.obs.SystemObservability`).
    """

    def __init__(self, simulator) -> None:
        self.simulator = simulator

    @property
    def collectors(self) -> List[LineageCollector]:
        return [channel_sim.lineage
                for channel_sim in self.simulator.channels
                if channel_sim.lineage is not None]

    def summary(self) -> Dict[str, Any]:
        """Per-channel summaries merged into the system accounting."""
        return merge_lineage_summaries(
            [collector.summary() for collector in self.collectors])

    def events(self) -> List[dict]:
        """All retained fate events across channels, in time order."""
        merged: List[dict] = []
        for collector in self.collectors:
            merged.extend(collector.events())
        merged.sort(key=lambda event: (event["time"], event["channel"],
                                       event["block"]))
        return merged


def merge_lineage_summaries(summaries: List[dict]) -> Dict[str, Any]:
    """Fold per-channel summaries into one system summary.

    Counter tables sum key-wise; output dict keys are sorted, so the
    merge is deterministic and identical between serial, parallel and
    served executions of the same stream.
    """
    totals: Dict[str, int] = {name: 0 for name in _BUCKET_COUNTERS}
    totals["resident"] = 0
    buckets: Dict[str, Dict[str, int]] = {}
    pollution: Dict[str, int] = {}
    reuse_tracked = 0
    reuse_histogram: Dict[str, int] = {}
    for summary in summaries:
        for name, count in summary["totals"].items():
            totals[name] = totals.get(name, 0) + count
        for bucket, stages in summary["buckets"].items():
            mine = buckets.setdefault(bucket, {})
            for stage, count in stages.items():
                mine[stage] = mine.get(stage, 0) + count
        for device, count in summary["pollution_by_device"].items():
            pollution[device] = pollution.get(device, 0) + count
        reuse = summary["snapshot_reuse"]
        reuse_tracked += reuse["tracked"]
        for key, count in reuse["histogram"].items():
            reuse_histogram[key] = reuse_histogram.get(key, 0) + count
    return {
        "schema": LINEAGE_SCHEMA_VERSION,
        "channel": -1,
        "totals": totals,
        "buckets": {bucket: buckets[bucket] for bucket in sorted(buckets)},
        "pollution_by_device": {key: pollution[key]
                                for key in sorted(pollution)},
        "snapshot_reuse": {
            "tracked": reuse_tracked,
            "histogram": {key: reuse_histogram[key]
                          for key in _REUSE_BUCKETS
                          if key in reuse_histogram},
        },
    }


def lineage_consistent(summary: dict) -> bool:
    """The accounting invariants, evaluated on a (merged) summary."""
    totals = summary["totals"]
    gates = (totals["accepted"] + totals["dropped_duplicate"]
             + totals["dropped_degree"] + totals["dropped_full"]
             + totals["suppressed"])
    dispositions = (totals["skipped_resident"]
                    + totals["discarded_unfilled"] + totals["filled"])
    fates = (totals["used_timely"] + totals["used_late"]
             + totals["evicted_unused"] + totals["invalidated"]
             + totals["resident"])
    return (totals["issued"] == gates
            and totals["accepted"] == dispositions
            and totals["filled"] == fates)


# ----------------------------------------------------------------------
# Chrome-trace fate export
# ----------------------------------------------------------------------
def fate_events_to_chrome(events: List[dict]) -> dict:
    """Fate events as Chrome-trace instant events (``chrome://tracing``).

    Simulated cycles map to the ``ts`` microsecond axis 1:1; one thread
    row per channel.
    """
    trace_events = []
    for event in events:
        trace_events.append({
            "name": f"fate:{event['fate']}",
            "cat": "lineage",
            "ph": "i",
            "s": "t",
            "ts": event["time"],
            "pid": 0,
            "tid": event["channel"],
            "args": {"block": event["block"], "source": event["source"],
                     "bucket": event["bucket"]},
        })
    return {"traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": {"format": "planaria-lineage-fates",
                          "version": LINEAGE_SCHEMA_VERSION}}


def write_fate_trace(path, events: List[dict]):
    """Write fate events as a Chrome-trace JSON file; returns the path."""
    import json
    from pathlib import Path

    path = Path(path)
    path.write_text(json.dumps(fate_events_to_chrome(events), indent=1),
                    encoding="utf-8")
    return path
