"""Prefetch lineage: neutrality, accounting invariants, fate
reconciliation, checkpointing, and the per-origin queue-drop counters.

The contract under test (docs/observability.md, "Prefetch lineage"):

* **Neutrality** — attaching lineage never changes simulated state:
  ``RunMetrics``, cache/queue stats and epoch timelines are bit-identical
  lineage-on vs lineage-off, across the scalar loop, the batch engine,
  the parallel executor and a checkpoint/resume cycle.
* **Invariants** — every issued prefetch is accounted for exactly once
  per pipeline stage (``lineage_consistent``).
* **Reconciliation** — the fate counters agree exactly with the cache's
  own usefulness accounting (``useful_total``/``unused_total``/late).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimConfig
from repro.errors import ServiceError
from repro.obs.lineage import (LineageCollector, attach_lineage,
                               detach_lineage, fate_events_to_chrome,
                               lineage_consistent, merge_lineage_summaries,
                               write_fate_trace)
from repro.prefetch.base import PrefetchCandidate
from repro.prefetch.queue import PrefetchQueue, QueueStats
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import SystemSimulator
from repro.trace.generator import generate_trace_buffer, get_profile

LENGTH = 12_000
SEED = 7


def make_simulator(prefetcher="planaria", config=None, engine_mode="auto"):
    config = config or SimConfig.experiment_scale()
    return SystemSimulator(
        config,
        lambda layout, channel: make_prefetcher(prefetcher, layout, channel),
        engine_mode=engine_mode)


def trace(app="CFM", length=LENGTH, seed=SEED, config=None):
    config = config or SimConfig.experiment_scale()
    return generate_trace_buffer(get_profile(app), length, seed=seed,
                                 layout=config.layout)


def run_with_lineage(prefetcher="planaria", app="CFM", length=LENGTH,
                     seed=SEED, engine_mode="auto", parallelism="serial"):
    buffer = trace(app=app, length=length, seed=seed)
    simulator = make_simulator(prefetcher, engine_mode=engine_mode)
    lineage = attach_lineage(simulator)
    simulator.run(buffer, parallelism=parallelism)
    return simulator, lineage


class TestInvariants:
    @pytest.mark.parametrize("prefetcher", [
        "planaria", "planaria-throttled", "planaria-parallel", "bop",
        "none"])
    def test_pipeline_accounting(self, prefetcher):
        _, lineage = run_with_lineage(prefetcher)
        summary = lineage.summary()
        assert lineage_consistent(summary)
        # Per-channel summaries satisfy the invariants independently too.
        for collector in lineage.collectors:
            assert lineage_consistent(collector.summary())

    def test_fates_reconcile_with_cache_stats(self):
        simulator, lineage = run_with_lineage("planaria")
        totals = lineage.summary()["totals"]
        cache_stats = simulator.merged_cache_stats()
        assert (totals["used_timely"] + totals["used_late"]
                == cache_stats.useful_total())
        assert totals["used_late"] == sum(
            cache_stats.prefetch_late.values())
        assert totals["evicted_unused"] == cache_stats.unused_total()

    def test_issue_totals_match_queue_gate(self):
        """Every candidate the queue gates on appears in ``issued``."""
        simulator, lineage = run_with_lineage("planaria")
        totals = lineage.summary()["totals"]
        queue_stats = simulator.merged_queue_stats()
        assert totals["accepted"] == queue_stats.accepted
        assert (totals["dropped_duplicate"] + totals["dropped_degree"]
                + totals["dropped_full"]
                == queue_stats.dropped_total())

    def test_buckets_cover_slp_and_tlp_origins(self):
        _, lineage = run_with_lineage("planaria")
        buckets = lineage.summary()["buckets"]
        assert any(bucket.startswith("slp/d") for bucket in buckets)
        assert any(bucket.startswith("tlp/") for bucket in buckets)
        # Bucket rows sum to the stage totals.
        totals = lineage.summary()["totals"]
        for stage in ("issued", "filled", "used_timely"):
            assert totals[stage] == sum(
                row.get(stage, 0) for row in buckets.values())

    def test_snapshot_reuse_tracked(self):
        _, lineage = run_with_lineage("planaria")
        reuse = lineage.summary()["snapshot_reuse"]
        assert reuse["tracked"] >= 1
        assert sum(reuse["histogram"].values()) >= reuse["tracked"]


class TestForcedPaths:
    def test_suppressed_candidates_counted(self):
        """A suspended accuracy throttle surfaces as ``suppressed``."""
        buffer = trace()
        simulator = make_simulator("planaria-throttled")
        lineage = attach_lineage(simulator)
        for channel_sim in simulator.channels:
            throttle = channel_sim.prefetcher
            throttle._suspended = True
            # Unreachable recovery watermark: stays suspended all run.
            throttle.high_watermark = 2.0
        simulator.run(buffer)
        summary = lineage.summary()
        assert summary["totals"]["suppressed"] > 0
        assert summary["totals"]["accepted"] == 0
        assert lineage_consistent(summary)

    def test_pollution_attributed_per_device(self):
        """Evicted-unused fates attribute to the triggering device."""
        config = SimConfig.experiment_scale()
        config = dataclasses.replace(
            config,
            cache=dataclasses.replace(config.cache, size_bytes=32_768))
        buffer = trace(config=config)
        simulator = SystemSimulator(
            config, lambda layout, channel: make_prefetcher(
                "planaria", layout, channel))
        lineage = attach_lineage(simulator)
        simulator.run(buffer)
        summary = lineage.summary()
        assert summary["totals"]["evicted_unused"] > 0
        assert summary["pollution_by_device"]
        assert (sum(summary["pollution_by_device"].values())
                <= summary["totals"]["evicted_unused"])
        assert lineage_consistent(summary)

    @pytest.mark.parametrize("engine_mode", ["scalar", "batch"])
    def test_invalidate_resolves_live_blocks(self, engine_mode):
        """Both cache backends report explicit invalidations."""
        simulator, lineage = run_with_lineage("planaria",
                                              engine_mode=engine_mode)
        invalidated = 0
        for channel_sim in simulator.channels:
            collector = channel_sim.lineage
            for block in list(collector._live):
                assert channel_sim.cache.invalidate(block)
                invalidated += 1
        assert invalidated > 0
        summary = lineage.summary()
        assert summary["totals"]["invalidated"] == invalidated
        assert summary["totals"]["resident"] == 0
        assert lineage_consistent(summary)


class TestNeutrality:
    @pytest.mark.parametrize("prefetcher", ["planaria", "planaria-throttled",
                                            "bop"])
    def test_metrics_identical_lineage_on_vs_off(self, prefetcher):
        buffer = trace()
        plain = make_simulator(prefetcher)
        plain.run(buffer)
        observed = make_simulator(prefetcher)
        attach_lineage(observed)
        observed.run(buffer)
        assert (plain.merged_metrics().state_dict()
                == observed.merged_metrics().state_dict())
        assert (plain.merged_cache_stats().state_dict()
                == observed.merged_cache_stats().state_dict())
        assert (plain.merged_queue_stats().state_dict()
                == observed.merged_queue_stats().state_dict())

    def test_batch_lineage_is_bit_identical(self):
        """Batch mode + lineage stays on the batch engine; metrics match
        the plain batch run and the collector matches the scalar run's."""
        buffer = trace()
        batch_plain = make_simulator(engine_mode="batch")
        batch_plain.run(buffer)
        batch_lineage = make_simulator(engine_mode="batch")
        lineage = attach_lineage(batch_lineage)
        batch_lineage.run(buffer)
        scalar_lineage = make_simulator(engine_mode="scalar")
        scalar = attach_lineage(scalar_lineage)
        scalar_lineage.run(buffer)
        assert sum(batch_lineage.fallback_counts().values()) == 0
        assert (batch_plain.merged_metrics().state_dict()
                == batch_lineage.merged_metrics().state_dict())
        assert (batch_plain.merged_queue_stats().state_dict()
                == batch_lineage.merged_queue_stats().state_dict())
        assert lineage.summary() == scalar.summary()
        assert lineage.events() == scalar.events()
        for batch_col, scalar_col in zip(lineage.collectors,
                                         scalar.collectors):
            assert batch_col.state_dict() == scalar_col.state_dict()
        assert lineage_consistent(lineage.summary())

    def test_parallel_summary_matches_serial(self):
        _, serial = run_with_lineage("planaria", parallelism="serial")
        _, parallel = run_with_lineage("planaria", parallelism=2)
        assert serial.summary() == parallel.summary()
        assert serial.events() == parallel.events()

    def test_timeline_identical_lineage_on_vs_off(self):
        from repro.obs import attach_observability

        buffer = trace()
        plain = make_simulator()
        obs_plain = attach_observability(plain, epoch_records=1024)
        plain.run(buffer)
        both = make_simulator()
        obs_both = attach_observability(both, epoch_records=1024)
        attach_lineage(both)
        both.run(buffer)
        assert (obs_plain.merged_timeline(include_partial=True)
                == obs_both.merged_timeline(include_partial=True))

    def test_detach_restores_plain_run(self):
        buffer = trace()
        simulator = make_simulator()
        attach_lineage(simulator)
        detach_lineage(simulator)
        simulator.run(buffer)
        plain = make_simulator()
        plain.run(buffer)
        assert (simulator.merged_metrics().state_dict()
                == plain.merged_metrics().state_dict())
        for channel_sim in simulator.channels:
            assert channel_sim.lineage is None
            assert channel_sim.queue.lineage is None
            assert channel_sim.cache.lineage is None
            assert channel_sim.prefetcher.lineage is None


class TestCheckpoint:
    def test_collector_state_round_trip(self):
        _, lineage = run_with_lineage("planaria")
        for collector in lineage.collectors:
            restored = LineageCollector(channel=collector.channel)
            restored.load_state(collector.state_dict())
            assert restored.summary() == collector.summary()
            assert restored.events() == collector.events()
            assert restored.state_dict() == collector.state_dict()

    def test_collector_rejects_foreign_schema(self):
        collector = LineageCollector(channel=0)
        state = collector.state_dict()
        state["schema"] = 99
        with pytest.raises(ValueError, match="schema 99"):
            LineageCollector(channel=0).load_state(state)

    def test_simulator_checkpoint_resume_is_exact(self):
        """Split run (checkpoint at half) == straight-through run."""
        from repro.sim.engine import channel_warmup_counts

        config = SimConfig.experiment_scale()
        buffer = trace(length=LENGTH)
        half = len(buffer) // 2
        warmup = channel_warmup_counts(buffer, config)

        first = make_simulator()
        attach_lineage(first)
        first.set_stream_warmup(warmup)
        first.feed(buffer[:half])
        state = first.state_dict()

        second = make_simulator()
        resumed = attach_lineage(second)
        second.load_state(state)
        second.feed(buffer[half:])

        straight = make_simulator()
        reference = attach_lineage(straight)
        straight.set_stream_warmup(warmup)
        straight.feed(buffer)

        assert (second.merged_metrics().state_dict()
                == straight.merged_metrics().state_dict())
        assert resumed.summary() == reference.summary()
        assert lineage_consistent(resumed.summary())

    def test_checkpoint_without_lineage_loads_into_lineage_off(self):
        """A plain checkpoint restores into a plain simulator (the
        conditional state key never poisons lineage-off restores)."""
        buffer = trace(length=4_000)
        plain = make_simulator()
        plain.run(buffer)
        state = plain.state_dict()
        for channel_state in state["channels"]:
            assert "lineage" not in channel_state
        restored = make_simulator()
        restored.load_state(state)
        assert (restored.merged_metrics().state_dict()
                == plain.merged_metrics().state_dict())


class TestQueueDropOrigins:
    def _candidate(self, block, source="slp"):
        return PrefetchCandidate(block_addr=block, source=source)

    def test_per_origin_drop_counts(self):
        config = SimConfig.experiment_scale()
        queue = PrefetchQueue(dataclasses.replace(
            config.queue, depth=4, max_degree=2))
        queue.push([self._candidate(1, "slp"), self._candidate(2, "tlp"),
                    self._candidate(3, "tlp")])  # degree-drops #3
        queue.push([self._candidate(1, "slp")])  # duplicate
        queue.push([self._candidate(10, "bop"), self._candidate(11, "bop")])
        queue.push([self._candidate(12, "bop")])  # queue full
        stats = queue.stats
        assert stats.dropped_by_origin == {"tlp": 1, "slp": 1, "bop": 1}
        assert (sum(stats.dropped_by_origin.values())
                == stats.dropped_total())

    def test_merge_sums_origins(self):
        left = QueueStats(dropped_by_origin={"slp": 2, "tlp": 1})
        right = QueueStats(dropped_by_origin={"tlp": 3, "bop": 4})
        left.merge(right)
        assert left.dropped_by_origin == {"slp": 2, "tlp": 4, "bop": 4}

    def test_state_round_trip_and_back_compat(self):
        stats = QueueStats(accepted=5,
                           dropped_by_origin={"slp": 2})
        restored = QueueStats()
        restored.load_state(stats.state_dict())
        assert restored.dropped_by_origin == {"slp": 2}
        # Pre-lineage checkpoints carry no origin table: loads as empty.
        legacy = stats.state_dict()
        del legacy["dropped_by_origin"]
        fresh = QueueStats()
        fresh.load_state(legacy)
        assert fresh.accepted == 5
        assert fresh.dropped_by_origin == {}

    def test_system_runs_populate_origins(self):
        simulator, _ = run_with_lineage("planaria")
        origins = simulator.merged_queue_stats().dropped_by_origin
        assert origins  # planaria always duplicates some slp/tlp issues
        assert set(origins) <= {"slp", "tlp"}


class TestWiring:
    def test_merge_of_empty_is_zeroed(self):
        merged = merge_lineage_summaries([])
        assert merged["totals"]["issued"] == 0
        assert merged["buckets"] == {}
        assert lineage_consistent(merged)


class TestFateEvents:
    def test_ring_is_bounded(self):
        buffer = trace()
        simulator = make_simulator()
        attach_lineage(simulator, event_capacity=8)
        simulator.run(buffer)
        for channel_sim in simulator.channels:
            assert len(channel_sim.lineage.events()) <= 8

    def test_chrome_export_shape(self, tmp_path):
        _, lineage = run_with_lineage("planaria")
        events = lineage.events()
        assert events == sorted(
            events, key=lambda event: (event["time"], event["channel"],
                                       event["block"]))
        chrome = fate_events_to_chrome(events)
        assert len(chrome["traceEvents"]) == len(events)
        for entry in chrome["traceEvents"][:4]:
            assert entry["ph"] == "i"
            assert entry["name"].startswith("fate:")
        path = write_fate_trace(tmp_path / "fates.json", events)
        import json

        decoded = json.loads(path.read_text(encoding="utf-8"))
        assert decoded["otherData"]["format"] == "planaria-lineage-fates"


class TestService:
    def test_session_lineage_matches_offline(self):
        from repro.service.session import SessionManager

        buffer = trace()
        manager = SessionManager()
        try:
            manager.open("lin", "planaria", lineage=True)
            manager.feed("lin", buffer)
            served = manager.lineage("lin")
            manager.close("lin")
        finally:
            manager.shutdown(checkpoint=False)
        _, offline = run_with_lineage("planaria")
        assert served == offline.summary()

    def test_session_without_lineage_raises(self):
        from repro.service.session import SessionManager

        manager = SessionManager()
        try:
            manager.open("plain", "planaria")
            with pytest.raises(ServiceError, match="without lineage"):
                manager.lineage("plain")
        finally:
            manager.shutdown(checkpoint=False)

    def test_session_checkpoint_resume_matches_straight_run(self, tmp_path):
        from repro.service.session import SessionManager

        buffer = trace()
        half = len(buffer) // 2
        manager = SessionManager(checkpoint_dir=tmp_path)
        try:
            manager.open("r", "planaria", lineage=True)
            manager.feed("r", buffer[:half])
            manager.checkpoint("r")
            manager._sessions.clear()  # simulate a crash
            manager.open("r", "planaria", resume=True)
            manager.feed("r", buffer[half:])
            resumed = manager.lineage("r")
        finally:
            manager.shutdown(checkpoint=False)
        _, reference = run_with_lineage("planaria")
        assert resumed == reference.summary()

    def test_metrics_text_exposes_lineage_series(self):
        from repro.service.session import SessionManager

        manager = SessionManager()
        try:
            manager.open("lin", "planaria", lineage=True)
            manager.feed("lin", trace(length=4_000))
            manager.lineage("lin")  # quiesce: the scrape never blocks
            text = manager.metrics_text()
        finally:
            manager.shutdown(checkpoint=False)
        assert "planaria_lineage_issued_total{" in text
        assert 'fate="used_timely"' in text
        assert "planaria_lineage_resident{" in text

    def test_partitioned_lineage_session_has_no_fallbacks(self):
        """A way-partitioned lineage session runs every chunk on the batch
        engine: each fallback reason exports 0."""
        from repro.service.session import SessionManager
        from repro.tenancy import TenantSpec, merge_traces

        base = SimConfig.experiment_scale()
        config = dataclasses.replace(base, cache=dataclasses.replace(
            base.cache, way_partitions=("CPU:0xff", "GPU:0xff00")))
        merged = merge_traces([
            TenantSpec("CFM", "CPU", length=2_000, seed=1),
            TenantSpec("HoK", "GPU", length=2_000, seed=2)])
        manager = SessionManager()
        try:
            manager.open("part", "planaria", config=config, lineage=True)
            for start in range(0, len(merged), 1_000):
                manager.feed("part", merged[start:start + 1_000])
            manager.lineage("part")  # quiesce
            text = manager.metrics_text()
        finally:
            manager.shutdown(checkpoint=False)
        for reason in ("explicit_scalar", "non_lru_policy"):
            assert (f'planaria_engine_fallback_total{{reason="{reason}",'
                    f'session="part"}} 0') in text


class TestPropertyNeutrality:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           length=st.integers(min_value=512, max_value=4_096),
           app=st.sampled_from(["CFM", "HoK", "Fort"]))
    def test_random_traces_neutral_and_consistent(self, seed, length, app):
        buffer = trace(app=app, length=length, seed=seed)
        plain = make_simulator()
        plain.run(buffer)
        observed = make_simulator()
        lineage = attach_lineage(observed)
        observed.run(buffer)
        assert (plain.merged_metrics().state_dict()
                == observed.merged_metrics().state_dict())
        summary = lineage.summary()
        assert lineage_consistent(summary)
        cache_stats = observed.merged_cache_stats()
        totals = summary["totals"]
        assert (totals["used_timely"] + totals["used_late"]
                == cache_stats.useful_total())
        assert totals["evicted_unused"] == cache_stats.unused_total()
