"""Best-Offset Prefetcher (Michaud, HPCA 2016) — reimplemented from the
paper's description for the memory side.

BOP learns a single global best offset ``D`` and prefetches ``X + D`` for
every trigger access ``X``.  Learning runs in *rounds*: each trigger tests
one candidate offset ``d`` from a fixed list against the Recent Requests
(RR) table — if ``X − d`` was recently requested, ``d``'s score increments
(it would have been a timely prefetch).  A round ends when some score
saturates at ``SCORE_MAX`` or after ``ROUND_MAX`` passes over the list; the
highest-scoring offset becomes ``D``, and prefetching is disabled entirely
when even the best score is ``BAD_SCORE`` or less.

At the SC level BOP's weakness (Section 6 of the Planaria paper) is that
intra-page access order is non-deterministic, so no single offset stays
accurate — the learned ``D`` issues many useless prefetches, inflating
memory traffic by ~23 % on the paper's workloads.

Operating on ``channel_block`` addresses lets offsets cross page
boundaries, as in the original (which checks only that the prefetch stays
in the same DRAM page *slice* it can reach without a TLB — irrelevant on
the memory side, where physical addresses are in hand).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.config import BOPConfig
from repro.errors import AddressError
from repro.geometry import AddressLayout
from repro.prefetch.base import DemandAccess, PrefetchCandidate, Prefetcher


class BestOffsetPrefetcher(Prefetcher):
    """Single-offset global prefetcher with RR-table offset scoring."""

    name = "bop"

    _STATE_EXCLUDE = Prefetcher._STATE_EXCLUDE + ("_blocks_per_segment",)

    def __init__(self, layout: AddressLayout, channel: int,
                 config: Optional[BOPConfig] = None) -> None:
        super().__init__(layout, channel)
        self.config = config or BOPConfig()
        # Read once: the layout property re-derives it on every access.
        self._blocks_per_segment = layout.blocks_per_segment
        entries = self.config.rr_table_entries
        self._rr_table: List[int] = [-1] * entries
        self._rr_mask = entries - 1 if entries & (entries - 1) == 0 else None
        self._scores = [0] * len(self.config.offsets)
        self._test_index = 0
        self._round = 0
        self._best_offset: Optional[int] = 1  # start optimistic: next-line
        self.learning_phases_completed = 0
        # Michaud inserts an address into RR only when its fill completes,
        # so an offset scores only if it would have been *timely*.  We
        # model the fill delay with a FIFO of (ready_time, address).
        self._pending_rr: Deque[Tuple[int, int]] = deque()
        self.rr_insert_delay = 120  # ~LPDDR4 read latency in cycles

    # ------------------------------------------------------------------
    # RR table
    # ------------------------------------------------------------------
    def _rr_index(self, channel_block: int) -> int:
        if self._rr_mask is not None:
            return (channel_block ^ (channel_block >> 8)) & self._rr_mask
        return (channel_block ^ (channel_block >> 8)) % len(self._rr_table)

    def _rr_insert(self, channel_block: int) -> None:
        self._rr_table[self._rr_index(channel_block)] = channel_block
        self.activity.table_writes += 1

    def _rr_contains(self, channel_block: int) -> bool:
        self.activity.table_reads += 1
        return self._rr_table[self._rr_index(channel_block)] == channel_block

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def observe(self, access: DemandAccess) -> None:
        """No-op: BOP is monolithic and learns from the miss +
        prefetched-hit stream, which only :meth:`issue` sees (Michaud
        trains on L2 miss and prefetched-hit events, not all accesses)."""

    def _drain_pending(self, now: int) -> None:
        while self._pending_rr and self._pending_rr[0][0] <= now:
            self._rr_insert(self._pending_rr.popleft()[1])

    def _learn(self, access: DemandAccess) -> None:
        config = self.config
        block = access.channel_block
        self._drain_pending(access.time)
        tested_offset = config.offsets[self._test_index]
        base = block - tested_offset
        if base >= 0 and self._rr_contains(base):
            self._scores[self._test_index] += 1
            if self._scores[self._test_index] >= config.score_max:
                self._finish_learning_phase()
                self._pending_rr.append((access.time + self.rr_insert_delay, block))
                return
        self._test_index += 1
        if self._test_index >= len(config.offsets):
            self._test_index = 0
            self._round += 1
            if self._round >= config.round_max:
                self._finish_learning_phase()
        self._pending_rr.append((access.time + self.rr_insert_delay, block))

    def _finish_learning_phase(self) -> None:
        best_index = max(range(len(self._scores)), key=self._scores.__getitem__)
        best_score = self._scores[best_index]
        if best_score <= self.config.bad_score:
            self._best_offset = None  # prefetching off: nothing is predictable
        else:
            self._best_offset = self.config.offsets[best_index]
        self._scores = [0] * len(self.config.offsets)
        self._test_index = 0
        self._round = 0
        self.learning_phases_completed += 1

    @property
    def best_offset(self) -> Optional[int]:
        """Currently selected offset, or None while prefetching is off."""
        return self._best_offset

    # ------------------------------------------------------------------
    # Issuing
    # ------------------------------------------------------------------
    def issue(self, access: DemandAccess, was_hit: bool,
              prefetched_hit: bool = False) -> List[PrefetchCandidate]:
        if was_hit and not (prefetched_hit and self.config.chain_on_prefetch_hit):
            return []
        self._learn(access)
        if self._best_offset is None:
            return []
        target = access.channel_block + self._best_offset
        page, offset = divmod(target, self._blocks_per_segment)
        if page != access.page:
            if self.config.stay_in_page:
                # Michaud's page-boundary rule: X+D beyond the trigger's
                # page is not issued (the original cannot translate across
                # pages; memory-side we keep the rule so the baseline
                # matches the hardware the paper compares against).
                return []
            if page < 0:
                raise AddressError(f"negative page number {page}")
        return [self._candidate(page, offset)]

    def storage_bits(self) -> int:
        # RR table: 32-bit block addresses; score table: one 6-bit score
        # per offset; plus best-offset register and round/test counters.
        rr_bits = self.config.rr_table_entries * 32
        score_bits = len(self.config.offsets) * 6
        return rr_bits + score_bits + 16 + 14
