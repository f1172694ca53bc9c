"""Observability invariants: collection never perturbs the simulation.

The contracts under test, in order of importance:

* **Execution-mode equivalence** — the merged timeline and the event
  list are bit-identical between serial and parallel runs, and between
  one-shot offline runs and chunked streaming feeds (with the stream
  warmup fixed up front, same as the metrics contract).
* **Internal consistency** — epoch deltas telescope back to the run's
  cumulative totals.

Metrics neutrality (``RunMetrics`` with observability attached equals
the plain run's, offline, parallel, streaming and after a detach),
checkpoint continuity and tracing neutrality (a span recorder changes
neither metrics, timeline nor events) are checked with every other hook
and mode by ``tests/test_hook_neutrality.py``.
"""

import functools

from repro.config import SimConfig
from repro.obs import ObsConfig, attach_observability
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import SystemSimulator, channel_warmup_counts
from repro.sim.runner import collect_metrics, simulate
from repro.trace.generator import generate_trace_buffer, get_profile

import pytest

LENGTH = 6000
SEED = 11
EPOCH_RECORDS = 256
CHUNK = 700  # deliberately coprime-ish with the epoch size


@functools.lru_cache(maxsize=None)
def _config():
    return SimConfig.experiment_scale()


@functools.lru_cache(maxsize=None)
def _trace():
    return generate_trace_buffer(get_profile("CFM"), LENGTH, seed=SEED,
                                 layout=_config().layout)


def _simulator(prefetcher="planaria"):
    return SystemSimulator(
        _config(),
        lambda layout, channel: make_prefetcher(prefetcher, layout, channel))


@functools.lru_cache(maxsize=None)
def _plain_metrics(prefetcher="planaria"):
    return simulate(_trace(), prefetcher, workload_name="CFM",
                    config=_config()).metrics


@functools.lru_cache(maxsize=None)
def _observed():
    """The reference observed offline run (read-only across tests)."""
    sim = _simulator()
    obs = attach_observability(sim, epoch_records=EPOCH_RECORDS)
    sim.run(_trace())
    return sim, obs


class TestExecutionModeEquivalence:
    def test_timeline_collected(self):
        _, obs = _observed()
        timeline = obs.merged_timeline()
        assert len(timeline) >= 2
        assert sum(epoch.records for epoch in timeline) == LENGTH
        # Epoch indices are dense and the merged channel is -1.
        assert [epoch.epoch for epoch in timeline] == \
            list(range(len(timeline)))
        assert all(epoch.channel == -1 for epoch in timeline)

    def test_parallel_timeline_matches_serial(self):
        _, serial_obs = _observed()
        sim = _simulator()
        obs = attach_observability(sim, epoch_records=EPOCH_RECORDS)
        sim.run(_trace(), parallelism=2)
        assert obs.merged_timeline() == serial_obs.merged_timeline()
        assert obs.channel_timelines() == serial_obs.channel_timelines()
        assert obs.events() == serial_obs.events()

    def test_streaming_timeline_matches_offline(self):
        _, offline_obs = _observed()
        sim = _simulator()
        obs = attach_observability(sim, epoch_records=EPOCH_RECORDS)
        sim.set_stream_warmup(channel_warmup_counts(_trace(), _config()))
        trace = _trace()
        for start in range(0, len(trace), CHUNK):
            sim.feed(trace[start:start + CHUNK])
        assert obs.merged_timeline() == offline_obs.merged_timeline()
        assert obs.events() == offline_obs.events()

    def test_partial_epoch_query_is_nondestructive(self):
        """A live poll mid-epoch must not change what a later poll or the
        final dump reports (the service `timeline` op's contract)."""
        _, offline_obs = _observed()
        sim = _simulator()
        obs = attach_observability(sim, epoch_records=EPOCH_RECORDS)
        sim.set_stream_warmup(channel_warmup_counts(_trace(), _config()))
        trace = _trace()
        polls = []
        for start in range(0, len(trace), CHUNK):
            sim.feed(trace[start:start + CHUNK])
            polls.append(obs.merged_timeline(include_partial=True))
            # Polling twice in a row returns the same thing.
            assert obs.merged_timeline(include_partial=True) == polls[-1]
        assert polls[-1] == offline_obs.merged_timeline(include_partial=True)
        assert collect_metrics(sim, "CFM", "planaria") == _plain_metrics()


class TestInternalConsistency:
    def test_epoch_deltas_telescope_to_totals(self):
        sim, obs = _observed()
        timeline = obs.merged_timeline(include_partial=True)
        cache = sim.merged_cache_stats()
        metrics = sim.merged_metrics()
        dram = sim.merged_dram_stats()
        assert sum(e.demand_accesses for e in timeline) == \
            cache.demand_accesses
        assert sum(e.demand_hits for e in timeline) == cache.demand_hits
        assert sum(e.demand_misses for e in timeline) == cache.demand_misses
        assert sum(e.prefetch_fills for e in timeline) == \
            cache.prefetch_fills
        assert sum(e.prefetch_useful for e in timeline) == \
            cache.useful_total()
        assert sum(e.demand_reads for e in timeline) == metrics.demand_reads
        assert sum(e.dram_activates for e in timeline) == dram.activates
        # Welford totals telescope to within float addition error.
        total_latency = sum(e.read_latency_total for e in timeline)
        assert total_latency == pytest.approx(
            metrics.read_latency.mean * metrics.read_latency.count)
        # Attribution tables telescope too.
        useful = {}
        for epoch in timeline:
            for source, count in epoch.useful_by_source.items():
                useful[source] = useful.get(source, 0) + count
        assert useful == {source: count for source, count
                          in cache.prefetch_useful.items() if count}

    def test_slp_tlp_split_present_for_planaria(self):
        _, obs = _observed()
        timeline = obs.merged_timeline(include_partial=True)
        assert sum(e.slp_issued for e in timeline) > 0
        assert sum(e.tlp_issued for e in timeline) > 0
        arbitrations = sum(e.coord_slp_issued + e.coord_tlp_fallback +
                           e.coord_neither for e in timeline)
        assert arbitrations > 0

    def test_events_recorded_with_stable_schema(self):
        from repro.obs.events import EVENT_KINDS

        _, obs = _observed()
        events = obs.events()
        assert events, "a planaria run should emit SLP/TLP events"
        for event in events:
            assert event.kind in EVENT_KINDS
            assert set(event.data) <= set(EVENT_KINDS[event.kind])
        counts = obs.event_counts()
        assert counts.get("slp_snapshot_learned", 0) > 0
