"""Property-based invariants for the SLP/TLP cores and the bitmap helpers.

Complements tests/test_properties.py (engine-level invariants) with the
algebra the prefetchers are built on: footprint bitmaps must round-trip
through utils/bitops, the RPT similarity measures must be symmetric and
bounded, and neither SLP nor TLP may ever prefetch the block that
triggered the issue — that block is being demand-fetched already.
"""

from collections import OrderedDict

from hypothesis import given, settings as hsettings, strategies as st

from repro.config import TLPConfig
from repro.core.tlp import TLPPrefetcher
from repro.geometry import DEFAULT_LAYOUT
from repro.prefetch.base import DemandAccess
from repro.prefetch.registry import make_prefetcher
from repro.trace.record import DeviceID
from repro.utils.bitops import (bitmap_from_offsets, bitmap_overlap,
                                bitmap_to_string, hamming_distance,
                                iter_set_bits, popcount)

bitmaps = st.integers(min_value=0, max_value=0xFFFF)
offset_sets = st.frozensets(st.integers(min_value=0, max_value=15),
                            max_size=16)
streams = st.lists(
    st.tuples(st.integers(min_value=0x200, max_value=0x260),
              st.integers(min_value=0, max_value=15)),
    min_size=1, max_size=120,
)


class TestBitmapRoundTrip:
    @given(offsets=offset_sets)
    def test_offsets_to_bitmap_and_back(self, offsets):
        bitmap = bitmap_from_offsets(offsets)
        assert list(iter_set_bits(bitmap)) == sorted(offsets)
        assert popcount(bitmap) == len(offsets)

    @given(bitmap=bitmaps)
    def test_bitmap_to_offsets_and_back(self, bitmap):
        assert bitmap_from_offsets(iter_set_bits(bitmap)) == bitmap

    @given(bitmap=bitmaps)
    def test_string_rendering_round_trips(self, bitmap):
        text = bitmap_to_string(bitmap)
        assert len(text) == 16
        assert int(text, 2) == bitmap


class TestSimilarityMeasures:
    """The measures TLP's learnable-neighbour test is built from."""

    @given(a=bitmaps, b=bitmaps)
    def test_symmetry(self, a, b):
        assert bitmap_overlap(a, b) == bitmap_overlap(b, a)
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(a=bitmaps, b=bitmaps)
    def test_bounds(self, a, b):
        assert 0 <= bitmap_overlap(a, b) <= min(popcount(a), popcount(b))
        assert 0 <= hamming_distance(a, b) <= 16

    @given(a=bitmaps)
    def test_identity(self, a):
        assert hamming_distance(a, a) == 0
        assert bitmap_overlap(a, a) == popcount(a)

    @given(a=bitmaps, b=bitmaps, c=bitmaps)
    def test_triangle_inequality(self, a, b, c):
        assert (hamming_distance(a, c)
                <= hamming_distance(a, b) + hamming_distance(b, c))

    @given(a=bitmaps, b=bitmaps)
    def test_overlap_and_distance_partition_the_union(self, a, b):
        # |a ∪ b| = |a ∩ b| + |a Δ b|
        assert (popcount(a | b)
                == bitmap_overlap(a, b) + hamming_distance(a, b))


def build_access(page, offset, time):
    block_addr = (page << 6) | offset
    return DemandAccess(
        block_addr=block_addr, page=page, block_in_segment=offset,
        channel_block=page * 16 + offset, time=time, is_read=True,
        device=DeviceID.CPU,
    )


class TestNoSelfPrefetch:
    """A prefetcher must never issue the block that triggered it: the
    demand fetch for that block is already in flight."""

    @given(stream=streams, name=st.sampled_from(["slp", "tlp", "planaria"]))
    @hsettings(max_examples=30, deadline=None)
    def test_trigger_block_never_issued(self, stream, name):
        prefetcher = make_prefetcher(name, DEFAULT_LAYOUT, 0)
        time = 0
        for page, offset in stream:
            time += 40
            trigger = build_access(page, offset, time)
            prefetcher.observe(trigger)
            for was_hit in (False, True):
                for candidate in prefetcher.issue(trigger, was_hit=was_hit):
                    assert candidate.block_addr != trigger.block_addr

    @given(stream=streams)
    @hsettings(max_examples=20, deadline=None)
    def test_tlp_rpt_neighbour_relation_is_symmetric(self, stream):
        """The Ref precomputation must stay consistent under allocation
        and eviction: A lists B as a neighbour iff B lists A."""
        prefetcher = make_prefetcher("tlp", DEFAULT_LAYOUT, 0)
        time = 0
        for page, offset in stream:
            time += 40
            prefetcher.observe(build_access(page, offset, time))
            rpt = prefetcher._rpt
            for page_a, entry in rpt.items():
                for page_b in entry.refs:
                    if page_b in rpt:
                        assert page_a in rpt[page_b].refs


def reference_rpt_observe(rpt, page, threshold, capacity):
    """TLP's RPT update as a scan of the whole table: every resident page
    within ``threshold`` is linked in LRU order.  ``rpt`` maps page ->
    Ref set, in LRU order.  The reference for TLP's bucket index."""
    refs = rpt.get(page)
    if refs is None:
        refs = set()
        for other_page, other_refs in rpt.items():
            if page - threshold <= other_page <= page + threshold:
                refs.add(other_page)
                other_refs.add(page)
        rpt[page] = refs
        while len(rpt) > capacity:
            victim_page, victim_refs = rpt.popitem(last=False)
            for neighbour_page in victim_refs:
                neighbour = rpt.get(neighbour_page)
                if neighbour is not None:
                    neighbour.discard(victim_page)
    rpt.move_to_end(page)


class TestRPTIndexMatchesFullScan:
    """The bucket index must link exactly the pages a full RPT scan links,
    in the same order: Ref-set iteration order breaks ties between equally
    similar donors, and the scalar/batch oracle cannot see a drift here
    because both engines run the same TLP code."""

    # A small set's iteration order depends on insertion order only when
    # members collide modulo its 8-slot table, i.e. when neighbours lie
    # exactly 8 apart, and it takes three residents to show it: both
    # strategies lean to the largest value.
    @given(rpt_entries=st.one_of(st.just(8),
                                 st.integers(min_value=2, max_value=8)),
           threshold=st.one_of(st.just(8),
                               st.integers(min_value=1, max_value=8)),
           runs=st.lists(
               st.tuples(st.integers(min_value=0, max_value=24),
                         st.lists(st.integers(min_value=0, max_value=15),
                                  min_size=1, max_size=3)),
               min_size=1, max_size=80))
    @hsettings(max_examples=400, deadline=None)
    def test_ref_sets_match_full_scan(self, rpt_entries, threshold, runs):
        config = TLPConfig(rpt_entries=rpt_entries,
                           distance_threshold=threshold)
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, config)
        reference = OrderedDict()
        accesses = 0
        for page, offsets in runs:
            # Multi-access runs go through the batch engine's folded path.
            tlp.observe_run(page, offsets, list(range(len(offsets))))
            for _ in offsets:
                reference_rpt_observe(reference, page, threshold,
                                      rpt_entries)
            accesses += len(offsets)
            rpt = tlp._rpt
            assert list(rpt) == list(reference)
            for other_page, entry in rpt.items():
                assert list(entry.refs) == list(reference[other_page])
            # Stamps count accesses and ascend in LRU order.
            assert rpt[page].stamp == accesses
            stamps = [entry.stamp for entry in rpt.values()]
            assert stamps == sorted(stamps)
            assert sorted(p for bucket in tlp._buckets.values()
                          for p in bucket) == sorted(rpt)
