"""TLP — Transfer-Learning directed Prefetcher (paper Section 4.2).

TLP lets a page without history of its own borrow the footprint of a
*learnable neighbour*: a recently seen page whose page number differs by at
most ``distance_threshold`` (64) and whose access bitmap shares at least
``min_common_bits`` (4) set bits with the trigger page's bitmap so far.
Among the candidates the most similar (most common set bits) wins, and the
blocks set in the neighbour's bitmap but not yet accessed on the trigger
page are prefetched (Figure 6).

The hardware structure is the 128-entry Recent Page Table (RPT): each
entry holds a 16-bit recently-accessed bitmap and 128 1-bit "Ref" fields
precomputing which other entries are within the neighbour distance, so the
issuing phase only compares bitmaps against Ref=1 entries.  This class
models the Ref bits as per-entry neighbour sets maintained at
allocation/eviction time — bit-for-bit the same reachability.  Where the
hardware compares a new page against all 128 entries in parallel, the
model finds its in-range residents through an index of resident pages
bucketed by ``page // distance_threshold``: a page's neighbours all sit in
its own bucket or the two beside it, so allocation costs the page's
actual neighbourhood rather than the table size.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set

from repro.config import TLPConfig
from repro.geometry import AddressLayout
from repro.prefetch.base import (DemandAccess, PrefetchCandidate, Prefetcher,
                                 PrefetcherActivityCounters)


class _RPTEntry:
    __slots__ = ("bitmap", "refs", "stamp")

    def __init__(self) -> None:
        self.bitmap = 0
        self.refs: Set[int] = set()
        # The owner's access clock at this entry's last observe: ascending
        # stamps are the RPT's LRU order.
        self.stamp = 0


class TLPPrefetcher(Prefetcher):
    """Inter-page pattern-transfer prefetcher."""

    name = "tlp"

    def __init__(self, layout: AddressLayout, channel: int,
                 config: Optional[TLPConfig] = None) -> None:
        super().__init__(layout, channel)
        self.config = config or TLPConfig()
        self._rpt: "OrderedDict[int, _RPTEntry]" = OrderedDict()
        # Resident pages by ``page // distance_threshold`` (see _allocate).
        self._buckets: Dict[int, Set[int]] = {}
        # Demand accesses observed so far; stamps RPT entries.
        self._clock = 0
        # RPT lookups issued (see :attr:`activity`).
        self._lookups = 0
        self.transfers = 0

    @property
    def activity(self) -> PrefetcherActivityCounters:
        """Metadata activity, derived: every observe reads and writes one
        RPT entry, and every issue lookup reads one."""
        return PrefetcherActivityCounters(
            table_reads=self._clock + self._lookups,
            table_writes=self._clock)

    def _restore_derived(self) -> None:
        legacy = self.__dict__.pop("activity", None)
        if legacy is not None:
            # Older layout: counted activity, no lookup count.
            self._lookups = legacy.table_reads - legacy.table_writes

    # ------------------------------------------------------------------
    # Learning phase
    # ------------------------------------------------------------------
    def observe(self, access: DemandAccess) -> None:
        self.observe_fields(access.page, access.block_in_segment, access.time)

    def observe_fields(self, page: int, offset: int, now: int) -> None:
        """:meth:`observe` taking the consumed fields directly (``now`` is
        accepted for signature uniformity with SLP; TLP never reads the
        clock)."""
        rpt = self._rpt
        entry = rpt.get(page)
        if entry is None:
            entry = self._allocate(page)  # appended at the LRU tail
        else:
            rpt.move_to_end(page)
        entry.bitmap |= 1 << offset
        clock = self._clock + 1
        self._clock = clock
        entry.stamp = clock

    # ------------------------------------------------------------------
    # Batch-engine contract
    # ------------------------------------------------------------------
    def hit_trigger_noop(self) -> bool:
        # issue() returns before any table/counter touch on hits when
        # issuing is miss-only.
        return self.config.issue_on_miss_only

    def _allocate(self, page: int) -> _RPTEntry:
        """Allocate an RPT entry, computing its Ref bits against residents.

        Every resident within ``distance_threshold`` sits in the page's
        bucket or one of the two beside it, so only those are probed.  The
        in-range residents are linked in LRU order (ascending stamp), the
        order a scan of the whole RPT visits them: every Ref set then sees
        the same add/discard sequence, hence the same iteration order,
        which breaks ties in :meth:`_best_neighbour`.
        """
        entry = _RPTEntry()
        threshold = self.config.distance_threshold
        rpt = self._rpt
        buckets = self._buckets
        key = page // threshold
        low = page - threshold
        high = page + threshold
        near = []
        for bucket_key in (key - 1, key, key + 1):
            bucket = buckets.get(bucket_key)
            if bucket:
                for other_page in bucket:
                    if low <= other_page <= high:
                        other = rpt[other_page]
                        near.append((other.stamp, other_page, other))
        if near:
            # Stamps are distinct, so the sort never compares past them.
            near.sort()
            refs_add = entry.refs.add
            for _, other_page, other in near:
                refs_add(other_page)
                other.refs.add(page)
        rpt[page] = entry
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = {page}
        else:
            bucket.add(page)
        while len(rpt) > self.config.rpt_entries:
            victim_page, victim = rpt.popitem(last=False)
            for neighbour_page in victim.refs:
                neighbour = rpt.get(neighbour_page)
                if neighbour is not None:
                    neighbour.refs.discard(victim_page)
            victim_key = victim_page // threshold
            bucket = buckets[victim_key]
            bucket.discard(victim_page)
            if not bucket:
                del buckets[victim_key]
        return entry

    # ------------------------------------------------------------------
    # Issuing phase
    # ------------------------------------------------------------------
    def best_neighbour(self, page: int) -> Optional[int]:
        """The most similar learnable neighbour's page number, if any.

        A donor qualifies when it shares at least ``min_common_bits`` with
        the trigger's bitmap *and* contradicts it by at most
        ``max_foreign_bits`` (trigger blocks the donor never touched) —
        the Section 4.1 "small bitmap difference" requirement evaluated on
        the partially accumulated trigger bitmap.
        """
        entry = self._rpt.get(page)
        if entry is None:
            return None
        return self._best_neighbour(entry)[0]

    def _best_neighbour(self, entry: _RPTEntry):
        """(page, entry) of the winning donor for a resident trigger entry
        (``(None, None)`` when no neighbour qualifies) — the loop behind
        :meth:`best_neighbour`, shared with :meth:`issue` so the hot
        issuing path skips the redundant RPT lookups."""
        config = self.config
        min_common = config.min_common_bits
        max_foreign = config.max_foreign_bits
        max_transfer = config.max_transfer_bits
        rpt_get = self._rpt.get
        bitmap = entry.bitmap
        if bitmap.bit_count() < min_common:
            # No donor can share more set bits than the trigger has.
            return None, None
        best_page = None
        best_entry = None
        best_difference = None
        for neighbour_page in entry.refs:
            neighbour = rpt_get(neighbour_page)
            if neighbour is None:
                continue
            # int.bit_count() directly — bitmaps are non-negative by
            # construction, so utils.bitops.popcount's guard is redundant
            # on this per-candidate path.
            neighbour_bitmap = neighbour.bitmap
            common = (bitmap & neighbour_bitmap).bit_count()
            if common < min_common:
                continue
            foreign = (bitmap & ~neighbour_bitmap).bit_count()
            if foreign > max_foreign:
                continue
            extra = (neighbour_bitmap & ~bitmap).bit_count()
            if extra > max_transfer:
                continue
            # Section 4.1's similarity metric: smallest bitmap difference
            # wins, so a same-size pattern beats a dense superset that
            # would pass a bare subset test by accident.
            difference = foreign + extra
            if best_difference is None or difference < best_difference:
                best_difference = difference
                best_page = neighbour_page
                best_entry = neighbour
        return best_page, best_entry

    def issue(self, access: DemandAccess, was_hit: bool,
              prefetched_hit: bool = False) -> List[PrefetchCandidate]:
        if was_hit and self.config.issue_on_miss_only:
            return []
        page = access.page
        entry = self._rpt.get(page)
        self._lookups += 1
        if entry is None:
            return []
        neighbour_page, neighbour = self._best_neighbour(entry)
        if neighbour_page is None:
            return []
        own = entry.bitmap | (1 << access.block_in_segment)
        remaining = neighbour.bitmap & ~own
        if remaining:
            self.transfers += 1
            if self.tracer.enabled:
                self.tracer.emit("tlp_transfer", access.time, page=page,
                                 neighbour_page=neighbour_page,
                                 blocks=remaining.bit_count())
        candidates = self._candidates(page, remaining)
        if self.lineage is not None and candidates:
            self.lineage.note_issue(
                candidates, f"tlp/{abs(page - neighbour_page)}")
        return candidates

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        from repro.core.storage import tlp_storage_bits

        return tlp_storage_bits(self.config)

    def rpt_occupancy(self) -> int:
        return len(self._rpt)

    def bitmap_of(self, page: int) -> Optional[int]:
        entry = self._rpt.get(page)
        return entry.bitmap if entry is not None else None
