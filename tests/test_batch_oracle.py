"""Differential oracle: the batch engine versus the scalar loops.

The batch engine (``repro.sim.batch``) re-implements the demand and
prefetcher paths as fused loops over array state, and its one correctness
contract is *bit-identity*: after consuming the same records through any
chunking, a batch-mode simulator must be indistinguishable from a
scalar-mode one — not just in ``RunMetrics``, but in every field of every
component snapshot (cache blocks and LRU ticks, DRAM bank timing and
latency aggregates, queue contents and drop counters, prefetcher tables
in dict order, metric Welford accumulators down to the last float bit,
observability timelines, prefetch-lineage collectors down to the fate
ring).  The matrix covers plain runs, epoch-sliced runs, lineage
attached, way-partitioned caches (overlapping and non-covering tenant
masks), both combined under arbitrary ``feed()`` cuts, non-default DRAM
configs (ranks, row policy, scheduler, queue depth, refresh), and
checkpoints saved on one engine and resumed on the other.

:func:`assert_equivalent` is that comparison, packaged for reuse — the
property suite (``tests/test_batch_properties.py``) drives the same
helper with adversarial traces.  The comparator is intentionally paranoid:
it recurses into ``__dict__``/``__slots__`` of unknown objects, checks
dict *key order* (checkpoint schemas expose it), and compares floats by
``repr`` so a single ULP of drift fails loudly.
"""

from dataclasses import asdict
from collections import deque

import dataclasses

import numpy as np
import pytest

from repro.config import SimConfig
from repro.errors import SimulationError, TraceOrderError
from repro.obs import attach_observability
from repro.obs.lineage import attach_lineage
from repro.prefetch.registry import PREFETCHER_FACTORIES, make_prefetcher
from repro.sim.engine import SystemSimulator, channel_warmup_counts
from repro.sim.runner import _collect
from repro.tenancy import TenantSpec, merge_traces
from repro.trace.buffer import TraceBuffer
from repro.trace.generator import generate_trace_buffer, get_profile

ALL_PREFETCHERS = sorted(PREFETCHER_FACTORIES)
WORKLOADS = ("CFM", "Fort")
LENGTH = 2_500
SEED = 13
#: CPU and GPU overlap on ways 4-7; ways 12-15 belong to no partition,
#: so only an unpartitioned device (NPU here) ever fills them.
PARTITIONS = ("CPU:0x00ff", "GPU:0x0ff0")
TENANT_LENGTH = 1_200
#: Non-default DRAM configs, each run through the oracle: a second rank
#: (rank bits in the bank decode), closed-page auto-precharge, strict
#: arrival-order CAS issue, a two-deep controller queue (stalls) and
#: refresh off.  HoK writes, and a 16 KB cache evicts enough dirty blocks
#: that write-backs reach DRAM on the demand-only path too.
DRAM_VARIANTS = {
    "two-ranks": {"num_ranks": 2},
    "closed-page": {"row_policy": "closed"},
    "fcfs": {"scheduler": "fcfs"},
    "queue-depth-2": {"queue_depth": 2},
    "no-refresh": {"refresh_enabled": False},
}
DRAM_WORKLOAD = "HoK"
DRAM_LENGTH = 3_000
DRAM_CACHE_BYTES = 16 << 10


# ----------------------------------------------------------------------
# Deep bit-exact comparison
# ----------------------------------------------------------------------
def _state_of(obj):
    """Attribute dict of an arbitrary object (``__dict__`` or slots)."""
    if hasattr(obj, "__dict__"):
        return dict(obj.__dict__)
    out = {}
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                out[slot] = getattr(obj, slot)
    return out


def deep_diff(a, b, path="", out=None, limit=10):
    """Collect human-readable paths where two state trees differ.

    Stricter than ``==``: dict key *order* must match (snapshot schemas
    expose insertion order), floats must agree by ``repr`` (so ``-0.0``
    vs ``0.0`` or one ULP of Welford drift is a difference), and unknown
    objects are recursed via their attribute dicts rather than relying on
    a possibly-sloppy ``__eq__``.
    """
    if out is None:
        out = []
    if len(out) >= limit:
        return out
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} vs {type(b).__name__}")
        return out
    if isinstance(a, dict):
        if list(a.keys()) != list(b.keys()):
            out.append(f"{path}: dict keys/order differ: "
                       f"{list(a)[:6]!r} vs {list(b)[:6]!r}")
            return out
        for key in a:
            deep_diff(a[key], b[key], f"{path}.{key}", out, limit)
        return out
    if isinstance(a, (list, tuple, deque)):
        if len(a) != len(b):
            out.append(f"{path}: len {len(a)} vs {len(b)}")
            return out
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            deep_diff(item_a, item_b, f"{path}[{index}]", out, limit)
        return out
    if isinstance(a, (set, frozenset)):
        if a != b:
            out.append(f"{path}: set diff {a ^ b}")
        return out
    if isinstance(a, float):
        if repr(a) != repr(b):
            out.append(f"{path}: {a!r} vs {b!r}")
        return out
    if isinstance(a, (int, str, bytes, bool, type(None))):
        if a != b:
            out.append(f"{path}: {a!r} vs {b!r}")
        return out
    deep_diff(_state_of(a), _state_of(b), f"{path}<{type(a).__name__}>",
              out, limit)
    return out


# ----------------------------------------------------------------------
# The oracle harness
# ----------------------------------------------------------------------
def _simulator(config, prefetcher, engine_mode, lineage=False):
    simulator = SystemSimulator(
        config,
        lambda layout, channel: make_prefetcher(prefetcher, layout, channel),
        engine_mode=engine_mode,
    )
    if lineage:
        attach_lineage(simulator)
    return simulator


def _drive(config, buffer, cuts, engine_mode, prefetcher, obs_epoch_records,
           lineage=False):
    simulator = _simulator(config, prefetcher, engine_mode, lineage)
    collectors = None
    if obs_epoch_records is not None:
        collectors = attach_observability(simulator,
                                          epoch_records=obs_epoch_records)
    if cuts:
        simulator.set_stream_warmup(channel_warmup_counts(buffer, config))
        previous = 0
        for cut in list(cuts) + [len(buffer)]:
            simulator.feed(buffer[previous:cut])
            previous = cut
    else:
        simulator.run(buffer)
    return simulator, collectors


def assert_channels_equal(expected, actual, label):
    """Every channel's full ``state_dict`` (lineage included) must match."""
    diffs = []
    for index, (want, got) in enumerate(zip(expected.channels,
                                            actual.channels)):
        deep_diff(want.state_dict(), got.state_dict(),
                  path=f"channel[{index}]", out=diffs)
    assert not diffs, f"{label}:\n  " + "\n  ".join(diffs)


def assert_equivalent(config, buffer, cuts=(), prefetcher="none",
                      obs_epoch_records=None, lineage=False):
    """Run ``buffer`` through scalar and batch engines; fail on ANY drift.

    Args:
        config: the :class:`SimConfig` both simulators are built from.
        buffer: a :class:`TraceBuffer` of the full trace.
        cuts: sorted stream positions where the trace is split into
            ``feed()`` chunks (empty = one ``run()`` call).  Cuts land at
            arbitrary points: mid page-run, inside warmup, wherever.
        prefetcher: registered prefetcher name.
        obs_epoch_records: when set, attach observability with this epoch
            size to both simulators and compare timelines too.
        lineage: attach a lineage collector to both simulators; its state
            rides in each channel's ``state_dict`` and is compared there.

    Returns the batch simulator's ``RunMetrics`` dict (handy for callers
    asserting workload-level facts on top of equivalence).
    """
    scalar_sim, scalar_obs = _drive(config, buffer, cuts, "scalar",
                                    prefetcher, obs_epoch_records, lineage)
    batch_sim, batch_obs = _drive(config, buffer, cuts, "batch",
                                  prefetcher, obs_epoch_records, lineage)

    scalar_metrics = asdict(_collect(scalar_sim, "oracle", prefetcher))
    batch_metrics = asdict(_collect(batch_sim, "oracle", prefetcher))
    diffs = deep_diff(scalar_metrics, batch_metrics, path="RunMetrics")

    for index, (scalar_ch, batch_ch) in enumerate(
            zip(scalar_sim.channels, batch_sim.channels)):
        deep_diff(scalar_ch.state_dict(), batch_ch.state_dict(),
                  path=f"channel[{index}]", out=diffs)

    if obs_epoch_records is not None:
        for index, (scalar_col, batch_col) in enumerate(
                zip(scalar_obs.collectors, batch_obs.collectors)):
            deep_diff([asdict(epoch) for epoch in scalar_col.epochs],
                      [asdict(epoch) for epoch in batch_col.epochs],
                      path=f"obs[{index}].epochs", out=diffs)

    assert not diffs, ("batch engine diverged from scalar oracle "
                       f"({prefetcher}):\n  " + "\n  ".join(diffs))
    return batch_metrics


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def config():
    return SimConfig.experiment_scale()


@pytest.fixture(scope="module")
def buffers(config):
    return {
        workload: generate_trace_buffer(get_profile(workload), LENGTH,
                                        seed=SEED, layout=config.layout)
        for workload in WORKLOADS
    }


@pytest.fixture(scope="module")
def partitioned(config):
    return dataclasses.replace(
        config, cache=dataclasses.replace(config.cache,
                                          way_partitions=PARTITIONS))


@pytest.fixture(scope="module")
def tenant_buffer():
    """CPU, GPU and an unpartitioned NPU tenant sharing the cache."""
    return merge_traces([
        TenantSpec("CFM", "CPU", length=TENANT_LENGTH, seed=SEED),
        TenantSpec("HoK", "GPU", length=TENANT_LENGTH, seed=SEED + 1),
        TenantSpec("Fort", "NPU", length=TENANT_LENGTH // 2, seed=SEED + 2),
    ])


def _dram_variant(config, variant):
    return dataclasses.replace(
        config,
        cache=dataclasses.replace(config.cache, size_bytes=DRAM_CACHE_BYTES),
        dram=dataclasses.replace(config.dram, **DRAM_VARIANTS[variant]))


@pytest.fixture(scope="module")
def dram_buffer(config):
    return generate_trace_buffer(get_profile(DRAM_WORKLOAD), DRAM_LENGTH,
                                 seed=SEED, layout=config.layout)


# ----------------------------------------------------------------------
# The matrix the tentpole promises: every prefetcher, both workload
# generators, obs on/off, chunked and unchunked.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_batch_matches_scalar_full_run(config, buffers, prefetcher,
                                       workload):
    assert_equivalent(config, buffers[workload], prefetcher=prefetcher)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_batch_matches_scalar_with_observability(config, buffers,
                                                 prefetcher):
    """Epoch slicing cuts chunks at every epoch edge; still bit-exact."""
    assert_equivalent(config, buffers["CFM"], prefetcher=prefetcher,
                      obs_epoch_records=400)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_batch_matches_scalar_chunked_feed(config, buffers, prefetcher):
    """Awkward feed() cuts — inside warmup, mid run, a 1-record chunk."""
    cuts = (1, 311, 312, 1000, 2201)
    assert_equivalent(config, buffers["CFM"], cuts=cuts,
                      prefetcher=prefetcher)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_batch_matches_scalar_with_lineage(config, buffers, prefetcher):
    """The batch loops emit every lineage hook the scalar loop does."""
    assert_equivalent(config, buffers["CFM"], prefetcher=prefetcher,
                      lineage=True)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_batch_matches_scalar_under_partitions(partitioned, tenant_buffer,
                                               prefetcher):
    """Overlapping, non-covering tenant masks plus an unpartitioned
    tenant: every fill site picks the scalar cache's victim."""
    assert_equivalent(partitioned, tenant_buffer, prefetcher=prefetcher)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_batch_matches_scalar_partitions_lineage_chunked(
        partitioned, tenant_buffer, prefetcher):
    cuts = (1, 377, 378, 1500, 2899)
    assert_equivalent(partitioned, tenant_buffer, cuts=cuts,
                      prefetcher=prefetcher, lineage=True)


@pytest.mark.parametrize("cuts", [(), (1, 377, 378, 1500, 2899)],
                         ids=["run", "feed"])
@pytest.mark.parametrize("prefetcher", ["none", "bop", "planaria"])
@pytest.mark.parametrize("variant", sorted(DRAM_VARIANTS))
def test_batch_matches_scalar_dram_variants(config, dram_buffer, variant,
                                            prefetcher, cuts):
    """The batch DRAM service replays service_scalar under every
    non-default timing path, on the demand-only and prefetching loops."""
    assert_equivalent(_dram_variant(config, variant), dram_buffer,
                      cuts=cuts, prefetcher=prefetcher)


def test_dram_variants_reach_their_paths(config, dram_buffer):
    """Each variant changes the DRAM outcome of a demand-only run, and
    dirty victims reach DRAM, so the cases above are not vacuous."""
    def dram_states(dram_config):
        simulator = _simulator(dram_config, "none", "batch")
        simulator.run(dram_buffer)
        assert sum(ch.dram.stats.writebacks for ch in simulator.channels)
        return [ch.dram.state_dict() for ch in simulator.channels]

    default = dataclasses.replace(
        config,
        cache=dataclasses.replace(config.cache, size_bytes=DRAM_CACHE_BYTES))
    baseline = dram_states(default)
    for variant in DRAM_VARIANTS:
        assert dram_states(_dram_variant(config, variant)) != baseline, (
            variant)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
@pytest.mark.parametrize("first, second", [("scalar", "batch"),
                                           ("batch", "scalar")])
def test_checkpoint_resumes_across_engines(partitioned, tenant_buffer,
                                           prefetcher, first, second):
    """A checkpoint written on one engine resumes bit-identically on the
    other (partitions and lineage on), matching an uncut scalar run."""
    cut = len(tenant_buffer) // 3
    warmup = channel_warmup_counts(tenant_buffer, partitioned)
    source = _simulator(partitioned, prefetcher, first, lineage=True)
    source.set_stream_warmup(warmup)
    source.feed(tenant_buffer[:cut])
    resumed = _simulator(partitioned, prefetcher, second, lineage=True)
    resumed.load_state(source.state_dict())
    resumed.feed(tenant_buffer[cut:])

    straight = _simulator(partitioned, prefetcher, "scalar", lineage=True)
    straight.set_stream_warmup(warmup)
    straight.feed(tenant_buffer)
    assert_channels_equal(straight, resumed,
                          f"{prefetcher}: {first} -> {second} resume")


@pytest.mark.parametrize("engine_mode", ["scalar", "batch"])
@pytest.mark.parametrize("observed", [False, True])
def test_out_of_order_chunk_raises_and_changes_nothing(
        config, buffers, engine_mode, observed):
    """A chunk whose last record steps back by more than tREFI is refused
    on both engines before any channel (not only its own) changes, as a
    buffer through feed() and as a TraceRecord list through run()."""
    buffer = buffers["CFM"]
    simulator = _simulator(config, "planaria", engine_mode, lineage=True)
    if observed:
        attach_observability(simulator, epoch_records=100)
    simulator.feed(buffer[:1000])
    before = simulator.state_dict()

    chunk = buffer[1000:1400]
    times = chunk.arrival_times.copy()
    times[-1] = times[0] - config.dram.timing.tREFI - 1
    bad = TraceBuffer(chunk.addresses, chunk.access_types, chunk.devices,
                      times)
    for attempt in (lambda: simulator.feed(bad),
                    lambda: simulator.run(bad.to_records())):
        with pytest.raises(TraceOrderError) as excinfo:
            attempt()
        assert isinstance(excinfo.value, SimulationError)
        diffs = deep_diff(before, simulator.state_dict(), path="state")
        assert not diffs, "\n".join(diffs)

    # A step back of exactly tREFI is tolerated, as in service_scalar.
    times[-1] = int(times[:-1].max()) - config.dram.timing.tREFI
    simulator.feed(TraceBuffer(chunk.addresses, chunk.access_types,
                               chunk.devices, times))


def test_channel_run_checks_order_against_carried_time(config, buffers):
    """Direct channel callers get the check too, against the latest
    arrival of earlier chunks, whether the chunk is a buffer or a
    TraceRecord list; either way the channel is left unchanged."""
    buffer = buffers["CFM"]
    simulator = _simulator(config, "none", "batch")
    channel = simulator.channels[0]
    stream = buffer.split_channels(config.layout)[0]
    channel.run(stream)
    late = int(stream.arrival_times.max()) - config.dram.timing.tREFI - 1
    late_chunk = TraceBuffer(stream.addresses[:1], stream.access_types[:1],
                             stream.devices[:1],
                             np.array([late], dtype=np.int64))
    before = channel.state_dict()
    for records in (late_chunk, late_chunk.to_records()):
        with pytest.raises(TraceOrderError):
            channel.run(records)
        diffs = deep_diff(before, channel.state_dict(), path="channel")
        assert not diffs, "\n".join(diffs)


def test_batch_engine_resolves_for_lru_only(config, buffers):
    """engine_mode='auto' picks batch for LRU and scalar otherwise."""
    from repro.cache.array_state import ArrayCache
    from repro.cache.cache import SetAssociativeCache

    auto = SystemSimulator(
        config, lambda layout, ch: make_prefetcher("none", layout, ch),
        engine_mode="auto")
    assert all(isinstance(ch.cache, ArrayCache) for ch in auto.channels)

    fifo_config = dataclasses.replace(
        config, cache=dataclasses.replace(config.cache,
                                          replacement_policy="fifo"))
    fifo = SystemSimulator(
        fifo_config, lambda layout, ch: make_prefetcher("none", layout, ch),
        engine_mode="auto")
    assert all(isinstance(ch.cache, SetAssociativeCache)
               for ch in fifo.channels)
    assert all(ch.engine_mode == "scalar" for ch in fifo.channels)
    fifo.run(buffers["CFM"][:200])
    assert fifo.fallback_counts()["non_lru_policy"] == len(fifo.channels)

    with pytest.raises(SimulationError):
        SystemSimulator(
            fifo_config,
            lambda layout, ch: make_prefetcher("none", layout, ch),
            engine_mode="batch")


def test_batch_runs_restored_prefetched_blocks(config, buffers):
    """A passive batch run over a checkpoint holding live prefetched
    blocks stays on the batch engine (its active loop, not the fused
    demand loop) and matches scalar on full channel state."""
    buffer = buffers["CFM"]
    cut = LENGTH // 2

    def restored(engine_mode):
        donor = SystemSimulator(
            config,
            lambda layout, ch: make_prefetcher("planaria", layout, ch),
            engine_mode=engine_mode)
        donor.set_stream_warmup(channel_warmup_counts(buffer, config))
        donor.feed(buffer[:cut])
        # Adopt the active run's cache/DRAM state into a *passive*
        # simulator: resident prefetched blocks rule out the demand loop.
        target = SystemSimulator(
            config, lambda layout, ch: make_prefetcher("none", layout, ch),
            engine_mode=engine_mode)
        target.set_stream_warmup(channel_warmup_counts(buffer, config))
        for target_ch, donor_ch in zip(target.channels, donor.channels):
            donor_state = donor_ch.state_dict()
            target_ch.cache.load_state(donor_state["cache"])
            target_ch.dram.load_state(donor_state["dram"])
            target_ch._records_seen = donor_state["records_seen"]
            target_ch._last_time = donor_state["last_time"]
        live_channels = sum(1 for ch in target.channels
                            if ch.cache.resident_prefetches())
        target.feed(buffer[cut:])
        return target, live_channels

    scalar_sim, _ = restored("scalar")
    batch_sim, live_channels = restored("batch")
    assert live_channels, "fixture lost its live prefetched blocks"
    assert_channels_equal(scalar_sim, batch_sim, "restored passive run")

    # No chunk left the batch engine.
    assert batch_sim.fallback_counts() == {
        "explicit_scalar": 0, "non_lru_policy": 0}
    assert scalar_sim.fallback_counts()["explicit_scalar"] == len(
        scalar_sim.channels)
