"""Observability: epoch timelines, event tracing, live export.

The subsystem is opt-in and zero-cost when off (the default): the engine
checks one ``obs`` attribute per *chunk*, prefetcher trace points check
one shared no-op singleton per *rare-path event* — nothing touches the
per-record demand loop.  See ``docs/observability.md``.

Typical offline use::

    from repro.obs import attach_observability
    from repro.sim.runner import simulate

    result = simulate(trace, "planaria")          # plain run, or:
    sim = SystemSimulator(config, factory)
    obs = attach_observability(sim, epoch_records=1024)
    sim.run(trace)
    for epoch in obs.merged_timeline():
        print(epoch.epoch, epoch.hit_rate, epoch.amat)

Streaming sessions enable the same machinery by opening with
``epoch_records=N`` and polling the service's ``timeline`` op (or
``repro watch``); the live epochs are bit-identical to the post-hoc
offline dump of the same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.events import (EVENT_KINDS, EVENT_SCHEMA_VERSION, EventTracer,
                              NULL_TRACER, TraceEvent, merge_events)
from repro.obs.health import (HEALTH_SCHEMA_VERSION, DetectorVerdict,
                              HealthConfig, HealthEngine, HealthReport)
from repro.obs.lineage import (LINEAGE_SCHEMA_VERSION, LineageCollector,
                               SystemLineage, attach_lineage, detach_lineage,
                               fate_events_to_chrome, lineage_consistent,
                               merge_lineage_summaries, write_fate_trace)
from repro.obs.timeline import (DEFAULT_EPOCH_RECORDS,
                                TIMELINE_SCHEMA_VERSION, EpochRecord,
                                TimelineCollector, capture_channel,
                                merge_timelines)
from repro.obs.trace_spans import (NULL_SPANS, SPAN_SCHEMA_VERSION,
                                   SpanRecord, SpanRecorder, spans_to_chrome,
                                   chrome_to_spans, write_chrome_trace)

__all__ = [
    "DEFAULT_EPOCH_RECORDS", "EVENT_KINDS", "EVENT_SCHEMA_VERSION",
    "HEALTH_SCHEMA_VERSION", "LINEAGE_SCHEMA_VERSION",
    "SPAN_SCHEMA_VERSION", "DetectorVerdict", "EpochRecord", "EventTracer",
    "HealthConfig", "HealthEngine", "HealthReport", "LineageCollector",
    "NULL_SPANS", "NULL_TRACER", "ObsConfig", "SpanRecord", "SpanRecorder",
    "SystemLineage", "SystemObservability", "TIMELINE_SCHEMA_VERSION",
    "TimelineCollector", "TraceEvent", "attach_lineage",
    "attach_observability", "capture_channel", "chrome_to_spans",
    "detach_lineage", "detach_observability", "fate_events_to_chrome",
    "lineage_consistent", "merge_events", "merge_lineage_summaries",
    "merge_timelines", "spans_to_chrome", "write_chrome_trace",
    "write_fate_trace",
]

#: Default ring-buffer capacity per channel tracer.
DEFAULT_EVENT_CAPACITY = 1024


@dataclass(frozen=True)
class ObsConfig:
    """Collection knobs shared by CLI, service and benchmark entry points."""

    epoch_records: int = DEFAULT_EPOCH_RECORDS
    event_capacity: int = DEFAULT_EVENT_CAPACITY
    event_sample_interval: int = 1
    events: bool = True


def attach_observability(simulator, config: Optional[ObsConfig] = None,
                         **overrides) -> "SystemObservability":
    """Enable timeline + event collection on a live ``SystemSimulator``.

    Builds one :class:`TimelineCollector` (and, unless ``events=False``,
    one :class:`EventTracer`) per channel, installs them as each
    ``ChannelSimulator.obs`` hook, and returns the system-level handle.
    Attach *before* driving records; attaching never changes simulated
    state or ``RunMetrics``.  Keyword overrides update :class:`ObsConfig`
    fields (``epoch_records=...`` etc.).
    """
    if config is None:
        config = ObsConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")
    for channel_sim in simulator.channels:
        tracer = None
        if config.events:
            tracer = EventTracer(
                channel=channel_sim.channel,
                capacity=config.event_capacity,
                sample_interval=config.event_sample_interval)
        collector = TimelineCollector(
            channel=channel_sim.channel,
            epoch_records=config.epoch_records,
            tracer=tracer)
        channel_sim.obs = collector
        channel_sim.wire_hooks()
        collector.begin(channel_sim)
    return SystemObservability(simulator, config)


def detach_observability(simulator) -> None:
    """Remove collectors and restore the shared no-op tracer."""
    for channel_sim in simulator.channels:
        channel_sim.obs = None
        channel_sim.wire_hooks()


class SystemObservability:
    """System-level view over the per-channel collectors.

    Holds the *simulator*, not the channel objects — the parallel
    executor replaces ``simulator.channels`` with driven copies, and the
    collectors ride along inside each pickled channel, so every query
    reads through ``simulator.channels`` at call time.
    """

    def __init__(self, simulator, config: ObsConfig) -> None:
        self.simulator = simulator
        self.config = config
        #: Session/system-scope events (checkpoint/restore); channel -1.
        self.system_tracer = EventTracer(
            channel=-1, capacity=config.event_capacity,
            sample_interval=1)

    @property
    def collectors(self) -> List[TimelineCollector]:
        return [channel_sim.obs for channel_sim in self.simulator.channels
                if channel_sim.obs is not None]

    def channel_timelines(
            self, include_partial: bool = False) -> List[List[EpochRecord]]:
        """Per-channel epoch lists, in channel order."""
        timelines = []
        for channel_sim in self.simulator.channels:
            collector = channel_sim.obs
            if collector is None:
                timelines.append([])
            else:
                timelines.append(collector.timeline(
                    channel_sim, include_partial=include_partial))
        return timelines

    def merged_timeline(
            self, include_partial: bool = True) -> List[EpochRecord]:
        """The system timeline: per-channel epochs merged by index."""
        return merge_timelines(
            self.channel_timelines(include_partial=include_partial))

    def events(self) -> List[TraceEvent]:
        """All retained events, channels + system, in time order."""
        tracers = [collector.tracer for collector in self.collectors
                   if collector.tracer is not None]
        tracers.append(self.system_tracer)
        return merge_events(tracers)

    def event_counts(self) -> dict:
        """Attempted emissions per kind, summed over all tracers."""
        counts: dict = {}
        tracers = [collector.tracer for collector in self.collectors
                   if collector.tracer is not None]
        tracers.append(self.system_tracer)
        for tracer in tracers:
            for kind, count in tracer.emitted.items():
                counts[kind] = counts.get(kind, 0) + count
        return counts
