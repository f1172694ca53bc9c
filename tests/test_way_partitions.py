"""Tenant way-partitioned system cache.

Three contracts:

* Validation — ``CacheConfig.way_partitions`` entries fail loudly at
  construction (unknown device, bad mask, wrong policy), with the typed
  :class:`UnknownDeviceError` naming the valid :class:`DeviceID` members.
* Mechanism — a tenant's fills only ever displace blocks inside its way
  mask, while lookups stay global; identical on both engines and their
  cache backends.
* Equivalence — shared mode (no partitions) is the pre-existing cache
  bit-for-bit, a full-mask partition is behaviourally identical to no
  partition, and the batch engine runs partitioned configs bit-identically
  to the scalar loop, whether asked for explicitly or resolved by
  ``auto``.
"""

from dataclasses import replace

import pytest

from repro.cache.array_state import ArrayCache
from repro.cache.cache import SetAssociativeCache
from repro.config import CacheConfig, SimConfig
from repro.errors import ConfigError, UnknownDeviceError
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import ChannelSimulator
from repro.sim.runner import simulate
from repro.tenancy import TenantSpec, default_way_partitions, merge_traces
from repro.trace.buffer import TraceBuffer
from repro.trace.record import AccessType, DeviceID, TraceRecord

CPU = DeviceID.CPU.value
GPU = DeviceID.GPU.value


def _small_config(**overrides):
    """2-way, 4-set cache: way 0 is CPU's, way 1 is GPU's."""
    fields = dict(size_bytes=2 * 4 * 64, associativity=2, block_size=64,
                  way_partitions=("CPU:0x1", "GPU:0x2"))
    fields.update(overrides)
    return CacheConfig(**fields)


class TestConfigValidation:
    def test_unknown_device_is_typed_and_names_the_members(self):
        with pytest.raises(UnknownDeviceError) as excinfo:
            _small_config(way_partitions=("TPU:0x1",))
        message = str(excinfo.value)
        assert "TPU" in message
        for member in DeviceID:
            assert member.name in message
        assert isinstance(excinfo.value, ConfigError)

    @pytest.mark.parametrize("entry", ["CPU", "CPU:zero", "CPU:0x0",
                                       "CPU:0x4"])
    def test_malformed_entries_rejected(self, entry):
        with pytest.raises(ConfigError):
            _small_config(way_partitions=(entry,))

    def test_duplicate_device_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            _small_config(way_partitions=("CPU:0x1", "CPU:0x2"))

    def test_partitions_require_lru(self):
        with pytest.raises(ConfigError, match="lru"):
            _small_config(replacement_policy="drrip")

    def test_masks_parse_hex_and_decimal(self):
        config = _small_config(way_partitions=("CPU:0x1", "GPU:2"))
        assert config.partition_masks() == {"CPU": 0x1, "GPU": 0x2}

    def test_default_is_unpartitioned(self):
        assert CacheConfig().way_partitions == ()
        assert CacheConfig().partition_masks() == {}


#: The engine whose loop runs on each cache backend.
ENGINE_FOR = {SetAssociativeCache: "scalar", ArrayCache: "batch"}


class _Slice:
    """One channel simulator on ``cache_cls``, driven one demand read at
    a time: a read of an absent block misses and fills it on behalf of
    the reading device.  Reads are 10k cycles apart, so every fill has
    landed before the next read."""

    def __init__(self, cache_cls, cache_config):
        config = SimConfig(cache=cache_config)
        self.sim = ChannelSimulator(
            0, config, make_prefetcher("none", config.layout, 0),
            engine_mode=ENGINE_FOR[cache_cls])
        assert isinstance(self.sim.cache, cache_cls)
        self.cache = self.sim.cache
        self.now = 0

    def read(self, block, device):
        self.now += 10_000
        self.sim.feed(TraceBuffer.from_records([TraceRecord(
            block * self.sim.layout.block_size, AccessType.READ,
            DeviceID(device), self.now)]))


@pytest.mark.parametrize("cache_cls", [SetAssociativeCache, ArrayCache])
class TestPartitionedFills:
    def test_tenant_fills_stay_inside_its_ways(self, cache_cls):
        cache_slice = _Slice(cache_cls, _small_config())
        cache = cache_slice.cache
        # Blocks 0, 4, 8 all map to set 0 (4 sets).
        cache_slice.read(0, CPU)
        cache_slice.read(4, CPU)
        # CPU owns only way 0: its second fill evicts its own block.
        assert not cache.contains(0)
        assert cache.contains(4)
        cache_slice.read(8, GPU)
        # GPU fills way 1, leaving CPU's block resident.
        assert cache.contains(4)
        assert cache.contains(8)

    def test_partition_victim_is_lru_within_the_mask(self, cache_cls):
        config = _small_config(size_bytes=4 * 2 * 64, associativity=4,
                               way_partitions=("CPU:0x3", "GPU:0xc"))
        cache_slice = _Slice(cache_cls, config)
        cache = cache_slice.cache
        # Fill CPU's two ways (set 0: blocks 0, 2, 4...; 2 sets).
        cache_slice.read(0, CPU)
        cache_slice.read(2, CPU)
        cache_slice.read(0, CPU)  # block 0 becomes MRU
        cache_slice.read(4, CPU)
        assert cache.contains(0)       # MRU survived
        assert not cache.contains(2)   # LRU within the partition evicted
        assert cache.contains(4)

    def test_lookups_stay_global_across_partitions(self, cache_cls):
        cache_slice = _Slice(cache_cls, _small_config())
        cache_slice.read(0, CPU)
        # GPU hits CPU's resident block: partitions bound fills, not hits.
        cache_slice.read(0, GPU)
        assert cache_slice.cache.stats.demand_hits == 1
        assert cache_slice.cache.stats.demand_fills == 1

    def test_unknown_requester_uses_global_replacement(self, cache_cls):
        cache_slice = _Slice(cache_cls, _small_config())
        # NPU has no partition entry: it may fill anywhere (both ways).
        cache_slice.read(0, DeviceID.NPU.value)
        cache_slice.read(4, DeviceID.NPU.value)
        assert cache_slice.cache.contains(0)
        assert cache_slice.cache.contains(4)


def _specs():
    return [TenantSpec("CFM", "CPU", length=2500, seed=1),
            TenantSpec("HoK", "GPU", length=2500, seed=2)]


def _config(**cache_overrides):
    base = SimConfig.experiment_scale()
    if cache_overrides:
        base = replace(base, cache=replace(base.cache, **cache_overrides))
    return base


class TestEngineEquivalence:
    def test_full_mask_partition_equals_unpartitioned(self):
        """Partition code path with an all-ways mask == no partition.

        The restricted victim scan over *all* ways implements the same
        first-invalid / min-touch rule as LRUPolicy.victim, so metrics
        (including per-tenant attribution) must be bit-identical.
        """
        merged = merge_traces(_specs())
        full = (1 << 16) - 1
        partitioned = _config(way_partitions=(f"CPU:{hex(full)}",
                                              f"GPU:{hex(full)}"))
        baseline = simulate(merged, "planaria", config=_config(),
                            engine_mode="scalar").metrics
        behind_partitions = simulate(merged, "planaria", config=partitioned,
                                     engine_mode="scalar").metrics
        assert behind_partitions == baseline

    def test_shared_mode_batch_matches_scalar_with_tenant_stats(self):
        merged = merge_traces(_specs())
        scalar = simulate(merged, "planaria", config=_config(),
                          engine_mode="scalar").metrics
        batch = simulate(merged, "planaria", config=_config(),
                         engine_mode="batch").metrics
        assert batch == scalar
        assert set(batch.tenant_stats) == {"CPU", "GPU"}
        # Dict insertion order is part of the contract.
        assert list(batch.tenant_stats) == list(scalar.tenant_stats)

    def test_partitioned_run_differs_but_conserves_accesses(self):
        merged = merge_traces(_specs())
        shared = simulate(merged, "planaria", config=_config()).metrics
        config = _config(way_partitions=default_way_partitions(_specs(), 16))
        partitioned = simulate(merged, "planaria", config=config).metrics
        assert partitioned.demand_accesses == shared.demand_accesses
        for device in ("CPU", "GPU"):
            assert (partitioned.tenant_stats[device]["accesses"]
                    == shared.tenant_stats[device]["accesses"])
        assert partitioned.hit_rate != shared.hit_rate

    def test_explicit_batch_matches_scalar_under_partitions(self):
        merged = merge_traces(_specs())
        config = _config(way_partitions=("CPU:0xff", "GPU:0xff00"))
        batch = simulate(merged, "planaria", config=config,
                         engine_mode="batch")
        scalar = simulate(merged, "planaria", config=config,
                          engine_mode="scalar")
        assert all(isinstance(ch.cache, ArrayCache)
                   for ch in batch.simulator.channels)
        assert batch.metrics == scalar.metrics
        assert list(batch.metrics.tenant_stats) == list(
            scalar.metrics.tenant_stats)

    def test_auto_runs_batch_under_partitions(self):
        merged = merge_traces(_specs())
        config = _config(way_partitions=("CPU:0xff", "GPU:0xff00"))
        auto = simulate(merged, "none", config=config, engine_mode="auto")
        scalar = simulate(merged, "none", config=config,
                          engine_mode="scalar").metrics
        assert auto.simulator.engine_mode == "batch"
        assert auto.simulator.fallback_counts() == {
            "explicit_scalar": 0, "non_lru_policy": 0}
        assert auto.metrics == scalar
