"""SLP — Self-Learning directed Prefetcher (paper Section 3.2).

SLP records the *footprint snapshot* of recently accessed pages and, when
any block of a known snapshot is demanded again, prefetches all the other
blocks of the snapshot.  Its signature is the bare page number (PN) — no
PC — justified by the measured stability of snapshots across program
phases (Figure 4: >80 % window overlap).

The three tables and their life cycle (Figure 1, steps ①-⑤):

1. **Accumulation Table (AT)** — checked first on every demand access
   (step ①); accumulates the 16-bit bitmap of blocks touched in the page's
   current generation, stamped with the last access time.
2. **Filter Table (FT)** — pages miss into FT (step ②), which filters out
   snapshots with too few blocks: only after ``filter_threshold`` (=3)
   distinct offsets does the page graduate to AT (step ③).
3. **Pattern History Table (PT)** — when an AT entry times out (no access
   for ``at_timeout`` cycles), SLP declares the snapshot complete and
   stable and moves the bitmap to PT (step ④).  PT is what the issuing
   phase consults: on a demand *miss* to a page with a PT pattern, all
   not-yet-accessed blocks of the pattern are prefetched (step ⑤).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.config import SLPConfig
from repro.geometry import AddressLayout
from repro.prefetch.base import (DemandAccess, PrefetchCandidate, Prefetcher,
                                 PrefetcherActivityCounters)
from repro.utils.bitops import popcount


class _AccumulationEntry:
    __slots__ = ("bitmap", "last_time")

    def __init__(self, bitmap: int, last_time: int) -> None:
        self.bitmap = bitmap
        self.last_time = last_time


class SLPPrefetcher(Prefetcher):
    """Intra-page footprint-snapshot prefetcher, PN-indexed."""

    name = "slp"

    def __init__(self, layout: AddressLayout, channel: int,
                 config: Optional[SLPConfig] = None) -> None:
        super().__init__(layout, channel)
        self.config = config or SLPConfig()
        # All three tables are LRU-ordered OrderedDicts keyed by PN.  The
        # AT is kept ordered by *last access time* so timeout expiry only
        # inspects the front.
        self._filter_table: "OrderedDict[int, _AccumulationEntry]" = OrderedDict()
        self._accumulation_table: "OrderedDict[int, _AccumulationEntry]" = OrderedDict()
        self._pattern_table: "OrderedDict[int, int]" = OrderedDict()
        self.snapshots_learned = 0
        self.ft_promotions = 0
        # Demand accesses observed and PT lookups issued: the activity
        # counters derive from these (see :attr:`activity`).
        self._observes = 0
        self._lookups = 0

    @property
    def activity(self) -> PrefetcherActivityCounters:
        """Metadata activity, derived: every observe reads the AT (and FT)
        and writes one entry, every issue lookup reads PT, and every
        learned snapshot writes PT."""
        return PrefetcherActivityCounters(
            table_reads=self._observes + self._lookups,
            table_writes=self._observes + self.snapshots_learned)

    def _restore_derived(self) -> None:
        legacy = self.__dict__.pop("activity", None)
        if legacy is not None:
            # Older layout: counted activity, no observe/lookup counts.
            self._observes = legacy.table_writes - self.snapshots_learned
            self._lookups = legacy.table_reads - self._observes

    # ------------------------------------------------------------------
    # Learning phase
    # ------------------------------------------------------------------
    def observe(self, access: DemandAccess) -> None:
        self.observe_fields(access.page, access.block_in_segment, access.time)

    def observe_fields(self, page: int, offset: int, now: int) -> None:
        """:meth:`observe` taking the three consumed fields directly
        (Planaria reads them once for both sub-prefetchers)."""
        table = self._accumulation_table
        # The front entry is the oldest: expiry has work only when it has
        # timed out, so test it here before paying for the call.
        if table and (now - next(iter(table.values())).last_time
                      > self.config.at_timeout):
            self._expire_accumulation(now)
        bit = 1 << offset
        self._observes += 1

        entry = table.get(page)
        if entry is not None:                                  # step ①: AT hit
            entry.bitmap |= bit
            entry.last_time = now
            table.move_to_end(page)
            return

        filter_table = self._filter_table
        ft_entry = filter_table.get(page)
        if ft_entry is not None:                               # step ②/③: FT
            ft_entry.bitmap |= bit
            ft_entry.last_time = now
            filter_table.move_to_end(page)
            if popcount(ft_entry.bitmap) >= self.config.filter_threshold:
                del filter_table[page]                         # step ③: promote
                self._at_insert(page, ft_entry)
                self.ft_promotions += 1
            return

        filter_table[page] = _AccumulationEntry(bit, now)
        while len(filter_table) > self.config.filter_table_entries:
            filter_table.popitem(last=False)                   # drop sparse pages

    # ------------------------------------------------------------------
    # Batch-engine contract
    # ------------------------------------------------------------------
    def hit_trigger_noop(self) -> bool:
        # issue() returns before any table/counter touch on hits when
        # issuing is miss-only (the paper's configuration).
        return self.config.issue_on_miss_only

    def _at_insert(self, page: int, entry: _AccumulationEntry) -> None:
        self._accumulation_table[page] = entry
        self._accumulation_table.move_to_end(page)
        while len(self._accumulation_table) > self.config.accumulation_table_entries:
            victim_page, victim = self._accumulation_table.popitem(last=False)
            self._learn_snapshot(victim_page, victim.bitmap, victim.last_time)

    def _expire_accumulation(self, now: int) -> None:
        """Step ④: timed-out AT entries carry a complete snapshot to PT."""
        table = self._accumulation_table
        if not table:
            return
        timeout = self.config.at_timeout
        while table:
            page = next(iter(table))
            entry = table[page]
            if now - entry.last_time <= timeout:
                break
            del table[page]
            self._learn_snapshot(page, entry.bitmap, entry.last_time)

    def _learn_snapshot(self, page: int, bitmap: int, now: int) -> None:
        self._pattern_table[page] = bitmap
        self._pattern_table.move_to_end(page)
        self.snapshots_learned += 1
        if self.tracer.enabled:
            self.tracer.emit("slp_snapshot_learned", now, page=page,
                             bitmap=bitmap, blocks=bitmap.bit_count())
        while len(self._pattern_table) > self.config.pattern_table_entries:
            evicted_page, evicted_bitmap = self._pattern_table.popitem(last=False)
            if self.tracer.enabled:
                self.tracer.emit("slp_pattern_evicted", now,
                                 page=evicted_page, bitmap=evicted_bitmap)

    # ------------------------------------------------------------------
    # Issuing phase
    # ------------------------------------------------------------------
    def has_pattern(self, page: int) -> bool:
        """Whether SLP has history to issue for this page — the
        coordinator's selection predicate (Section 2)."""
        return page in self._pattern_table

    def issue(self, access: DemandAccess, was_hit: bool,
              prefetched_hit: bool = False) -> List[PrefetchCandidate]:
        if was_hit and self.config.issue_on_miss_only:
            return []
        pattern = self._pattern_table.get(access.page)
        self._lookups += 1
        if pattern is None:
            return []
        self._pattern_table.move_to_end(access.page)
        already = self._current_bitmap(access.page) | (1 << access.block_in_segment)
        remaining = pattern & ~already
        candidates = self._candidates(access.page, remaining)
        if self.lineage is not None and candidates:
            self.lineage.note_slp_issue(access.page, pattern, candidates)
        return candidates

    def _current_bitmap(self, page: int) -> int:
        """Blocks of this page already demanded in the current generation."""
        entry = self._accumulation_table.get(page)
        if entry is not None:
            return entry.bitmap
        ft_entry = self._filter_table.get(page)
        return ft_entry.bitmap if ft_entry is not None else 0

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Bit-exact table budget (see repro.core.storage for the layout)."""
        from repro.core.storage import slp_storage_bits

        return slp_storage_bits(self.config)

    # Introspection used by tests and the TLP comparison example.
    def pattern_of(self, page: int) -> Optional[int]:
        return self._pattern_table.get(page)

    def table_sizes(self) -> dict:
        return {
            "filter": len(self._filter_table),
            "accumulation": len(self._accumulation_table),
            "pattern": len(self._pattern_table),
        }
