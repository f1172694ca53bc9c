"""TLP: RPT allocation, Ref-bit neighbour sets, pattern transfer (paper §4.2)."""

import pytest

from repro.config import TLPConfig
from repro.core.tlp import TLPPrefetcher
from repro.geometry import DEFAULT_LAYOUT
from repro.prefetch.base import DemandAccess
from repro.trace.record import DeviceID


def access(page, offset, time=0):
    return DemandAccess(
        block_addr=(page << 6) | offset, page=page, block_in_segment=offset,
        channel_block=page * 16 + offset, time=time, is_read=True,
        device=DeviceID.CPU,
    )


def touch(tlp, page, offsets, start=0):
    time = start
    for offset in offsets:
        tlp.observe(access(page, offset, time))
        time += 5
    return time


class TestRPT:
    def test_allocation_and_bitmap(self):
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0)
        touch(tlp, 0x100, [1, 3, 5])
        assert tlp.rpt_occupancy() == 1
        assert tlp.bitmap_of(0x100) == 0b101010

    def test_refs_respect_distance(self):
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0)
        touch(tlp, 0x100, [1])
        touch(tlp, 0x110, [1])   # distance 16 <= 64: neighbours
        touch(tlp, 0x500, [1])   # distance huge: not a neighbour
        entry = tlp._rpt[0x110]
        assert 0x100 in entry.refs
        assert 0x500 not in entry.refs
        # Ref bits are symmetric (paper: both i->j and j->i are set).
        assert 0x110 in tlp._rpt[0x100].refs

    def test_capacity_eviction_cleans_refs(self):
        config = TLPConfig(rpt_entries=2)
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, config)
        touch(tlp, 10, [1])
        touch(tlp, 11, [1])
        touch(tlp, 12, [1])  # evicts page 10 (LRU)
        assert tlp.rpt_occupancy() == 2
        assert tlp.bitmap_of(10) is None
        assert 10 not in tlp._rpt[11].refs

    @pytest.mark.parametrize("page, inside, outside", [
        (16, [8, 24], [7, 25]),   # first page of its bucket
        (15, [7, 23], [6, 24]),   # last page of its bucket
    ])
    def test_refs_at_exact_threshold_across_buckets(self, page, inside,
                                                    outside):
        # distance_threshold 8 buckets pages by page // 8: the pages at
        # exactly +-8 sit in the neighbouring buckets, one past them do not.
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, TLPConfig(distance_threshold=8))
        for other in outside + inside:
            touch(tlp, other, [1])
        touch(tlp, page, [1])
        assert sorted(tlp._rpt[page].refs) == inside
        for other in inside:
            assert page in tlp._rpt[other].refs
        for other in outside:
            assert page not in tlp._rpt[other].refs

    def test_refs_linked_in_lru_order(self):
        # Pages 8 and 24 collide in a small set's table, so the Ref set's
        # iteration order shows which was linked first: the least recently
        # used (24), as a scan of the RPT in LRU order links them, not the
        # lower bucket's page.
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, TLPConfig(distance_threshold=8))
        touch(tlp, 24, [1])
        touch(tlp, 8, [1])
        touch(tlp, 16, [1])
        expected = set()
        expected.add(24)
        expected.add(8)
        assert list(tlp._rpt[16].refs) == list(expected)

    def test_lru_refresh_on_access(self):
        config = TLPConfig(rpt_entries=2)
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, config)
        touch(tlp, 10, [1])
        touch(tlp, 11, [1])
        touch(tlp, 10, [2])  # refresh page 10
        touch(tlp, 12, [1])  # evicts page 11 now
        assert tlp.bitmap_of(10) is not None
        assert tlp.bitmap_of(11) is None


class TestNeighbourSelection:
    def test_transfer_from_similar_neighbour(self):
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0)
        # Donor B: complete footprint {1,3,5,7,9,11}.
        touch(tlp, 0x101, [1, 3, 5, 7, 9, 11])
        # Trigger A: accessed {1,3,5,7} so far — subset of B.
        touch(tlp, 0x100, [1, 3, 5, 7])
        assert tlp.best_neighbour(0x100) == 0x101
        trigger = access(0x100, 7, 100)
        candidates = tlp.issue(trigger, was_hit=False)
        offsets = sorted(c.block_addr & 0xF for c in candidates)
        assert offsets == [9, 11]
        assert all(c.source == "tlp" for c in candidates)
        assert tlp.transfers == 1

    def test_min_common_bits_gate(self):
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0)
        touch(tlp, 0x101, [1, 3, 5, 7, 9, 11])
        touch(tlp, 0x100, [1, 3])  # only 2 common bits < 4
        assert tlp.best_neighbour(0x100) is None

    def test_foreign_bits_gate(self):
        config = TLPConfig(max_foreign_bits=0)
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, config)
        touch(tlp, 0x101, [1, 3, 5, 7])
        # Trigger shares 4 bits but also touched 14, absent from the donor.
        touch(tlp, 0x100, [1, 3, 5, 7, 14])
        assert tlp.best_neighbour(0x100) is None

    def test_smallest_difference_wins(self):
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0)
        # Dense donor: superset of trigger but 8 extra blocks.
        touch(tlp, 0x102, list(range(13)))
        # Tight donor: trigger's 4 bits + 2 extras.
        touch(tlp, 0x101, [1, 3, 5, 7, 9, 11])
        touch(tlp, 0x100, [1, 3, 5, 7])
        assert tlp.best_neighbour(0x100) == 0x101

    def test_max_transfer_bits_gate(self):
        config = TLPConfig(max_transfer_bits=3)
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, config)
        touch(tlp, 0x101, list(range(12)))  # would transfer 8 > 3
        touch(tlp, 0x100, [1, 2, 3, 0])
        assert tlp.best_neighbour(0x100) is None

    def test_distance_threshold_respected(self):
        config = TLPConfig(distance_threshold=4)
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, config)
        touch(tlp, 0x110, [1, 3, 5, 7, 9])
        touch(tlp, 0x100, [1, 3, 5, 7])  # distance 16 > 4
        assert tlp.best_neighbour(0x100) is None

    def test_no_issue_on_hit(self):
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0)
        touch(tlp, 0x101, [1, 3, 5, 7, 9, 11])
        touch(tlp, 0x100, [1, 3, 5, 7])
        assert tlp.issue(access(0x100, 7, 50), was_hit=True) == []

    def test_unknown_page_no_issue(self):
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0)
        assert tlp.issue(access(0x900, 0, 0), was_hit=False) == []

    def test_fully_covered_trigger_transfers_nothing(self):
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0)
        touch(tlp, 0x101, [1, 3, 5, 7])
        touch(tlp, 0x100, [1, 3, 5, 7])
        candidates = tlp.issue(access(0x100, 7, 100), was_hit=False)
        assert candidates == []
        assert tlp.transfers == 0


class TestStorage:
    def test_storage_matches_formula(self):
        config = TLPConfig()
        tlp = TLPPrefetcher(DEFAULT_LAYOUT, 0, config)
        expected_entry = 24 + 16 + (config.rpt_entries - 1) + 16
        assert tlp.storage_bits() == config.rpt_entries * expected_entry
