"""Hypothesis property suites for the batch engine and its kernels.

Two layers of pinning, both against scalar ground truth:

* **Trace-level** — adversarial traces (page-crossing runs, single-record
  buffers, all-same-set conflict streams, a warmup boundary landing inside
  a same-page run, random ``feed()`` cuts mid-chunk) driven through the
  differential oracle :func:`tests.test_batch_oracle.assert_equivalent`,
  which fails on *any* state drift between the batch engine and the scalar
  loops.  Each example also draws the cache's tenant way partitions
  (random, possibly overlapping, possibly non-covering masks), whether
  a lineage collector is attached, and whether timelines and events are
  collected (and at what epoch size).
* **Kernel-level** — :func:`repro.sim.kernels.decompose_chunk` pinned
  element-wise against the :class:`repro.geometry.AddressLayout` methods
  it vectorizes, plus
  :class:`repro.cache.array_state.ArrayCache` under the batch engine
  against :class:`repro.cache.cache.SetAssociativeCache` under the scalar
  loop, on a small cache under random access/invalidate sequences.

Addresses go up to 2**60 in the kernel property on purpose: a scalar
operand that slips into the NumPy expressions un-wrapped promotes uint64
columns to float64 and silently rounds addresses above 2**53 — exactly the
bug class these tests exist to catch.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings as hsettings, strategies as st

from repro.cache.array_state import ArrayCache
from repro.cache.cache import SetAssociativeCache
from repro.config import CacheConfig, SimConfig
from repro.geometry import AddressLayout
from repro.prefetch.registry import make_prefetcher
from repro.sim import kernels
from repro.sim.engine import ChannelSimulator
from repro.trace.buffer import TraceBuffer
from repro.trace.record import AccessType, DeviceID, TraceRecord

from tests.test_batch_oracle import assert_equivalent, deep_diff

CONFIG = SimConfig.experiment_scale()
LAYOUT = CONFIG.layout
BLOCK = LAYOUT.block_size
PAGE_BLOCKS = LAYOUT.blocks_per_page

# A subset that exercises every engine regime: the passive demand-only
# loop, both sub-prefetchers whose hit triggers the batch loop skips, the
# composite coordinator in its decoupled and serial modes, a throttle
# wrapper (notify_useful feedback ordering) and an offset prefetcher that
# issues on hits.
PREFETCHERS = ("none", "slp", "tlp", "planaria", "planaria-serial",
               "planaria-throttled", "bop")

EXAMPLES = 6  # per property; each trace example runs two full simulators


# ----------------------------------------------------------------------
# Trace-building strategies
# ----------------------------------------------------------------------
@st.composite
def _decorate(draw, block_addrs):
    """Attach types/devices/non-decreasing times to a block-address list."""
    records = []
    now = 0
    for block_addr in block_addrs:
        now += draw(st.integers(min_value=0, max_value=40))
        records.append(TraceRecord(
            address=block_addr * BLOCK,
            access_type=(AccessType.WRITE if draw(st.booleans())
                         else AccessType.READ),
            device=draw(st.sampled_from(list(DeviceID))),
            arrival_time=now,
        ))
    return TraceBuffer.from_records(records)


@st.composite
def page_crossing_traces(draw):
    """Sequential runs that start near a page edge and walk across it."""
    runs = draw(st.integers(min_value=1, max_value=4))
    block_addrs = []
    for _ in range(runs):
        page = draw(st.integers(min_value=0, max_value=512))
        # Start within the last few blocks of the page so a unit-stride
        # walk crosses into the next page mid-run.
        start = page * PAGE_BLOCKS + draw(
            st.integers(min_value=PAGE_BLOCKS - 6, max_value=PAGE_BLOCKS - 1))
        length = draw(st.integers(min_value=2, max_value=48))
        stride = draw(st.sampled_from((1, 1, 1, 3)))
        block_addrs.extend(start + i * stride for i in range(length))
    return draw(_decorate(block_addrs))


@st.composite
def same_set_traces(draw):
    """Every access maps to one cache set: maximum eviction pressure."""
    num_sets = CONFIG.cache.num_sets
    set_index = draw(st.integers(min_value=0, max_value=num_sets - 1))
    length = draw(st.integers(min_value=8, max_value=96))
    block_addrs = [
        set_index + draw(st.integers(min_value=0, max_value=63)) * num_sets
        for _ in range(length)
    ]
    return draw(_decorate(block_addrs))


@st.composite
def mixed_traces(draw):
    """General traffic over a small page universe (heavy reuse)."""
    length = draw(st.integers(min_value=1, max_value=160))
    block_addrs = [
        draw(st.integers(min_value=0, max_value=63)) * PAGE_BLOCKS
        + draw(st.integers(min_value=0, max_value=PAGE_BLOCKS - 1))
        for _ in range(length)
    ]
    return draw(_decorate(block_addrs))


@st.composite
def configs(draw):
    """The default cache, or one split into tenant way partitions: a
    random mask for each of a few devices, so partitions may overlap,
    leave ways to no device, or leave devices unpartitioned."""
    if not draw(st.booleans()):
        return CONFIG
    full = (1 << CONFIG.cache.associativity) - 1
    devices = draw(st.lists(st.sampled_from([d.name for d in DeviceID]),
                            min_size=1, max_size=3, unique=True))
    entries = tuple(
        f"{name}:{hex(draw(st.integers(min_value=1, max_value=full)))}"
        for name in devices)
    return dataclasses.replace(CONFIG, cache=dataclasses.replace(
        CONFIG.cache, way_partitions=entries))


def _check(data, buffer, cuts=()):
    """The oracle on ``buffer`` under a drawn prefetcher, cache
    partitioning, lineage setting and timeline epoch size (``None`` runs
    without observability; events are on whenever timelines are, and
    ride in each channel's ``state_dict``)."""
    assert_equivalent(data.draw(configs()), buffer, cuts=cuts,
                      prefetcher=data.draw(st.sampled_from(PREFETCHERS)),
                      obs_epoch_records=data.draw(st.one_of(
                          st.none(), st.integers(min_value=7, max_value=64))),
                      lineage=data.draw(st.booleans()))


def _cuts_for(draw, buffer):
    """A sorted set of feed() cut positions strictly inside the buffer."""
    if len(buffer) < 2:
        return ()
    positions = draw(st.lists(
        st.integers(min_value=1, max_value=len(buffer) - 1),
        min_size=0, max_size=4))
    return tuple(sorted(set(positions)))


# ----------------------------------------------------------------------
# Trace-level properties: the oracle under adversarial inputs
# ----------------------------------------------------------------------
class TestAdversarialTraces:
    @hsettings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_page_crossing_runs(self, data):
        buffer = data.draw(page_crossing_traces())
        _check(data, buffer)

    @hsettings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_single_record_buffer(self, data):
        buffer = data.draw(_decorate(
            [data.draw(st.integers(min_value=0, max_value=2**40))]))
        _check(data, buffer)

    @hsettings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_same_set_conflict_stream(self, data):
        buffer = data.draw(same_set_traces())
        _check(data, buffer)

    @hsettings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_warmup_boundary_inside_run(self, data):
        """One long same-page run per channel: the warmup cut (at
        ``warmup_fraction`` of each channel's stream) necessarily lands
        inside the run."""
        page = data.draw(st.integers(min_value=0, max_value=256))
        length = data.draw(st.integers(min_value=24, max_value=96))
        block_addrs = [
            page * PAGE_BLOCKS
            + data.draw(st.integers(min_value=0, max_value=PAGE_BLOCKS - 1))
            for _ in range(length)
        ]
        buffer = data.draw(_decorate(block_addrs))
        _check(data, buffer)

    @hsettings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_random_chunk_cuts_mid_batch(self, data):
        buffer = data.draw(mixed_traces())
        _check(data, buffer, cuts=_cuts_for(data.draw, buffer))


# ----------------------------------------------------------------------
# Kernel-level properties: kernels.py vs the scalar helpers, element-wise
# ----------------------------------------------------------------------
LAYOUTS = (
    AddressLayout(),                                          # paper default
    AddressLayout(block_size=128, page_size=8192, num_channels=2),
    AddressLayout(block_size=64, page_size=4096, num_channels=1),
)

addresses_column = st.lists(
    st.integers(min_value=0, max_value=2**60), min_size=1, max_size=64)


class TestAddressKernels:
    @hsettings(max_examples=25, deadline=None)
    @given(addrs=addresses_column, layout=st.sampled_from(LAYOUTS))
    def test_decomposition_matches_geometry(self, addrs, layout):
        column = np.asarray(addrs, dtype=np.uint64)
        blocks, pages, offsets, chan_blocks = kernels.decompose_chunk(
            column, layout)
        per_segment = layout.blocks_per_segment
        for addr, block, page, offset, chan_block in zip(
                addrs, blocks, pages, offsets, chan_blocks):
            assert block == layout.block_address(addr)
            assert page == layout.page_number(addr)
            assert offset == layout.block_in_segment(addr)
            assert chan_block == page * per_segment + offset
            # The outputs must be exact Python ints (dict keys downstream).
            assert type(block) is int and type(chan_block) is int


# ----------------------------------------------------------------------
# Array cache state vs the scalar cache under random operation sequences
# ----------------------------------------------------------------------
SMALL_CACHE = CacheConfig(size_bytes=64 * 4 * 8, associativity=4,
                          block_size=64)  # 8 sets — evictions come fast
SMALL_CONFIG = SimConfig(cache=SMALL_CACHE)

operations = st.lists(
    st.tuples(
        st.sampled_from(("access", "access", "access", "invalidate")),
        st.integers(min_value=0, max_value=95),   # channel-0 block index
        st.booleans(),                # is_write / invalidate the prefetch
    ),
    min_size=16, max_size=120)


def _channel0_block(index):
    """Block address of channel 0's ``index``-th block: channel 0 owns the
    first segment of every page, so consecutive indices are exactly the
    next-line prefetcher's successive targets."""
    layout = SMALL_CONFIG.layout
    segment = layout.blocks_per_segment
    return (index // segment) * layout.blocks_per_page + index % segment


def _apply(engine_mode, ops):
    """Replay an op sequence on one channel simulator.

    Each run of accesses is fed as one record-list chunk; an invalidate
    lands between chunks.  The next-line prefetcher keeps prefetched
    blocks resident, so accesses consume them and fills evict them.  An
    invalidate with its flag set targets the block after the last access
    (its next-line prefetch target), so invalidates often drop a
    prefetched block.  Returns the simulator and the invalidate results.
    """
    sim = ChannelSimulator(
        0, SMALL_CONFIG, make_prefetcher("nextline", SMALL_CONFIG.layout, 0),
        engine_mode=engine_mode)
    results = []
    chunk = []
    now = 0
    last_index = 0
    for kind, index, flag in ops:
        now += 3
        if kind == "access":
            last_index = index
            chunk.append(TraceRecord(
                address=_channel0_block(index) * SMALL_CACHE.block_size,
                access_type=AccessType.WRITE if flag else AccessType.READ,
                device=DeviceID.CPU, arrival_time=now))
            continue
        sim.feed(chunk)
        chunk = []
        target = _channel0_block(last_index + 1 if flag else index)
        results.append(sim.cache.invalidate(target))
    sim.feed(chunk)
    return sim, results


class TestArrayCacheEquivalence:
    @hsettings(max_examples=30, deadline=None)
    @given(ops=operations)
    def test_random_op_sequence_matches_scalar_cache(self, ops):
        scalar, scalar_results = _apply("scalar", ops)
        batch, batch_results = _apply("batch", ops)
        assert isinstance(scalar.cache, SetAssociativeCache)
        assert isinstance(batch.cache, ArrayCache)

        diffs = deep_diff(scalar_results, batch_results, path="results")
        deep_diff(scalar.state_dict(), batch.state_dict(), path="state",
                  out=diffs)
        assert not diffs, "\n".join(diffs)
        assert batch.cache.occupancy() == scalar.cache.occupancy()
        assert (batch.cache.resident_prefetches()
                == scalar.cache.resident_prefetches())
