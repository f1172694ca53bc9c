"""Simulation engine: channel routing, latency accounting, prefetch flow."""

import pytest

from repro.config import CacheConfig, SimConfig
from repro.errors import SimulationError
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import ChannelSimulator, SystemSimulator
from repro.sim.metrics import MetricSet
from repro.trace.buffer import TraceBuffer
from repro.trace.generator import generate_trace, get_profile
from repro.trace.record import AccessType, DeviceID, TraceRecord


def tiny_config():
    return SimConfig(cache=CacheConfig(size_bytes=16 * 1024))


def channel_sim(prefetcher="none", channel=0, config=None):
    config = config or tiny_config()
    return ChannelSimulator(channel, config,
                            make_prefetcher(prefetcher, config.layout, channel))


def read(addr, time):
    return TraceRecord(addr, AccessType.READ, DeviceID.CPU, time)


def write(addr, time):
    return TraceRecord(addr, AccessType.WRITE, DeviceID.CPU, time)


def step(sim, record):
    """Feed ``record`` as a one-record buffer (the warmup window set by
    ``set_warmup`` applies); returns its latency, or None when warmup
    suppressed its metrics.  The record's metrics land in a fresh
    MetricSet, read back, then merge into the simulator's."""
    metrics = sim.metrics
    sim.metrics = MetricSet()
    try:
        sim.feed(TraceBuffer.from_records([record]))
        return sim.metrics.all_latency.max
    finally:
        metrics.merge(sim.metrics)
        sim.metrics = metrics


class TestChannelSimulator:
    def test_miss_then_hit_latency(self):
        sim = channel_sim()
        miss_latency = step(sim, read(0x0, 100))
        assert miss_latency > sim.config.sc_hit_latency
        hit_latency = step(sim, read(0x0, miss_latency + 200))
        assert hit_latency == sim.config.sc_hit_latency

    def test_mshr_merge_latency(self):
        sim = channel_sim()
        step(sim, read(0x0, 100))
        # A second access before the fill completes waits the remainder.
        merged = step(sim, read(0x0, 110))
        assert sim.config.sc_hit_latency < merged
        assert sim.cache.stats.delayed_hits == 1
        # No second DRAM read was issued.
        assert sim.dram.stats.demand_reads == 1

    def test_write_posted_off_critical_path(self):
        sim = channel_sim()
        latency = step(sim, write(0x40, 100))
        assert latency == sim.config.sc_hit_latency
        # The fetch-for-ownership still reached DRAM and the block is dirty.
        assert sim.dram.stats.demand_reads == 1
        assert sim.cache.probe(1).dirty

    def test_dirty_eviction_writes_back(self):
        config = SimConfig(cache=CacheConfig(size_bytes=1024, associativity=1))
        sim = channel_sim(config=config)
        sets = config.cache.num_sets
        step(sim, write(0x0, 100))
        step(sim, read(sets * 64, 10_000))  # same set, evicts dirty block
        assert sim.dram.stats.writebacks == 1

    def test_warmup_suppresses_metrics(self):
        sim = channel_sim()
        records = [read(index * 64, 100 + index * 200) for index in range(10)]
        sim.run(records, warmup_records=5)
        assert sim.metrics.demand_reads == 5

    def test_set_warmup_drives_default_step(self):
        """One-record feeds honour the window set by set_warmup."""
        sim = channel_sim()
        sim.set_warmup(3)
        for index in range(10):
            step(sim, read(index * 64, 100 + index * 200))
        assert sim.metrics.demand_reads == 7

    def test_set_warmup_records_seen_hint_resumes_window(self):
        """A simulator resumed mid-stream (records_seen_hint > 0) counts
        warmup from the stream's absolute start, not from the resume."""
        sim = channel_sim()
        records = [read(index * 64, 100 + index * 200) for index in range(10)]
        sim.set_warmup(5)
        for record in records[:4]:
            step(sim, record)
        # Resume: 4 already seen, warmup window of 5 still has 1 to go.
        sim.set_warmup(5, records_seen_hint=4)
        for record in records[4:]:
            step(sim, record)
        assert sim.metrics.demand_reads == 5

    def test_run_resumes_after_partial_stepping(self):
        """run() after one-record feeds keeps counting from where the
        stream left off instead of restarting the warmup window."""
        sim = channel_sim()
        records = [read(index * 64, 100 + index * 200) for index in range(10)]
        sim.set_warmup(5)
        for record in records[:4]:
            step(sim, record)
        sim.run(records[4:], warmup_records=5)
        assert sim.metrics.demand_reads == 5

    def test_prefetcher_channel_mismatch_rejected(self):
        config = tiny_config()
        prefetcher = make_prefetcher("none", config.layout, 1)
        with pytest.raises(SimulationError):
            ChannelSimulator(0, config, prefetcher)

    def test_wrong_channel_records_still_process(self):
        # The engine trusts callers to route; a record for another channel
        # is processed under this channel's cache (SystemSimulator routes).
        sim = channel_sim(channel=0)
        latency = step(sim, read(0x400, 100))  # maps to channel 1
        assert latency > 0


class TestPrefetchIntegration:
    def test_nextline_prefetch_fills_cache(self):
        sim = channel_sim("nextline")
        step(sim, read(0x0, 100))  # miss -> prefetch block 1 of the segment
        assert sim.cache.contains(1)
        assert sim.dram.stats.prefetch_reads == 1

    def test_prefetch_hit_counts_useful(self):
        sim = channel_sim("nextline")
        step(sim, read(0x0, 100))
        step(sim, read(0x40, 5_000))  # block 1 was prefetched
        assert sim.cache.stats.prefetch_useful.get("nextline") == 1

    def test_duplicate_prefetch_not_refetched(self):
        sim = channel_sim("nextline")
        step(sim, read(0x0, 100))
        before = sim.dram.stats.prefetch_reads
        step(sim, read(0x80, 5_000))  # miss on block 2: prefetch block 3
        step(sim, read(0x80, 10_000))
        assert sim.dram.stats.prefetch_reads <= before + 2

    def test_prefetch_disabled_by_config(self):
        config = SimConfig(cache=CacheConfig(size_bytes=16 * 1024),
                           prefetch_fill_sc=False)
        sim = channel_sim("nextline", config=config)
        step(sim, read(0x0, 100))
        assert sim.dram.stats.prefetch_reads == 0
        assert not sim.cache.contains(1)

    def test_planaria_attribution_reaches_cache_stats(self):
        config = tiny_config()
        sim = channel_sim("planaria", config=config)
        profile = get_profile("CFM")
        records = [r for r in generate_trace(profile, 30_000, seed=11)
                   if config.layout.channel(r.address) == 0]
        sim.run(records)
        useful = sim.cache.stats.prefetch_useful
        assert useful.get("slp", 0) > 0  # SLP useful prefetches observed


class TestSystemSimulator:
    def make_system(self, prefetcher="none", config=None):
        config = config or tiny_config()
        return SystemSimulator(
            config,
            lambda layout, channel: make_prefetcher(prefetcher, layout, channel),
        )

    def test_routes_by_channel(self):
        system = self.make_system()
        records = [read(block * 64, 100 + block * 50) for block in range(64)]
        system.run(records, warmup_fraction=0.0)
        for channel_sim in system.channels:
            assert channel_sim.cache.stats.demand_accesses == 16

    def test_merged_metrics_cover_all_records(self):
        system = self.make_system()
        records = [read(block * 64, 100 + block * 50) for block in range(64)]
        system.run(records, warmup_fraction=0.0)
        merged = system.merged_metrics()
        assert merged.demand_reads == 64

    def test_power_report_positive(self):
        system = self.make_system("planaria")
        records = generate_trace(get_profile("CFM"), 5_000, seed=1)
        system.run(records)
        report = system.power_report()
        assert report.total_nj > 0
        assert report.average_power_mw > 0

    def test_storage_bits_scale_with_channels(self):
        system = self.make_system("planaria")
        single = system.channels[0].prefetcher.storage_bits()
        assert system.storage_bits() == 4 * single

    def test_merged_queue_stats_sum_channels(self):
        system = self.make_system("planaria")
        records = generate_trace(get_profile("CFM"), 10_000, seed=1)
        system.run(records)
        merged = system.merged_queue_stats()
        assert merged.accepted == sum(
            channel.queue.stats.accepted for channel in system.channels)
        assert merged.dropped_total() == sum(
            channel.queue.stats.dropped_total()
            for channel in system.channels)
        assert merged.accepted > 0

    def test_queue_stats_merge_empty_channel(self):
        from repro.prefetch.queue import QueueStats

        merged = QueueStats(accepted=5, dropped_duplicate=2,
                            dropped_degree=1, dropped_full=3)
        merged.merge(QueueStats())  # channel that never pushed a candidate
        assert merged == QueueStats(accepted=5, dropped_duplicate=2,
                                    dropped_degree=1, dropped_full=3)
        assert merged.dropped_total() == 6

    def test_warmup_fraction_default_from_config(self):
        config = SimConfig(cache=CacheConfig(size_bytes=16 * 1024),
                           warmup_fraction=0.5)
        system = SystemSimulator(
            config, lambda layout, channel: make_prefetcher("none", layout, channel))
        records = [read(block * 64 * 4, 100 + block * 50) for block in range(40)]
        system.run(records)
        assert system.merged_metrics().demand_reads == 20
