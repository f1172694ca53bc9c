"""SMS-style spatial prefetcher (Somogyi et al., ISCA 2006) for the
PC-availability ablation.

Spatial Memory Streaming indexes footprint patterns by a signature of
``(PC, trigger offset)``.  On the memory side no PC exists; the closest
available surrogate is the requesting *device ID*, which aliases thousands
of instruction streams onto five signatures.  This class implements SMS
faithfully modulo that substitution, so the ablation bench
(`benchmarks/test_ablation_signature.py`) can quantify the paper's claim
that PC-indexed spatial prefetchers do not transplant to the SC — and that
SLP's PN-only signature is the right memory-side choice.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List

from repro.geometry import AddressLayout
from repro.prefetch.base import DemandAccess, PrefetchCandidate, Prefetcher


@dataclass
class _Generation:
    """An active spatial-region generation being recorded."""

    signature: int
    first_offset: int
    bitmap: int
    last_time: int


class SMSPrefetcher(Prefetcher):
    """SMS with (device, trigger-offset) signatures standing in for (PC, offset)."""

    name = "sms"

    def __init__(self, layout: AddressLayout, channel: int,
                 pattern_table_entries: int = 2048,
                 active_generations: int = 64,
                 generation_timeout: int = 20_000) -> None:
        super().__init__(layout, channel)
        if pattern_table_entries < 1:
            raise ValueError("pattern_table_entries must be >= 1")
        self.pattern_table_entries = pattern_table_entries
        self.active_generations = active_generations
        self.generation_timeout = generation_timeout
        # page -> active generation
        self._active: "OrderedDict[int, _Generation]" = OrderedDict()
        # signature -> learned bitmap
        self._patterns: Dict[int, int] = {}

    def _signature(self, access: DemandAccess) -> int:
        # The PC surrogate: device ID + trigger offset (16 positions).
        return (int(access.device) << 4) | access.block_in_segment

    # ------------------------------------------------------------------
    def observe(self, access: DemandAccess) -> None:
        now = access.time
        self._expire(now)
        generation = self._active.get(access.page)
        self.activity.table_reads += 1
        if generation is None:
            generation = _Generation(
                signature=self._signature(access),
                first_offset=access.block_in_segment,
                bitmap=0,
                last_time=now,
            )
            self._active[access.page] = generation
            self._active.move_to_end(access.page)
            while len(self._active) > self.active_generations:
                _, evicted = self._active.popitem(last=False)
                self._learn(evicted)
        generation.bitmap |= 1 << access.block_in_segment
        generation.last_time = now

    def _expire(self, now: int) -> None:
        expired = [
            page for page, generation in self._active.items()
            if now - generation.last_time > self.generation_timeout
        ]
        for page in expired:
            self._learn(self._active.pop(page))

    def _learn(self, generation: _Generation) -> None:
        index = generation.signature % self.pattern_table_entries
        self._patterns[index] = generation.bitmap
        self.activity.table_writes += 1

    # ------------------------------------------------------------------
    def issue(self, access: DemandAccess, was_hit: bool,
              prefetched_hit: bool = False) -> List[PrefetchCandidate]:
        if was_hit:
            return []
        pattern = self._patterns.get(self._signature(access) % self.pattern_table_entries)
        self.activity.table_reads += 1
        if pattern is None:
            return []
        remaining = pattern & ~(1 << access.block_in_segment)
        return self._candidates(access.page, remaining)

    def storage_bits(self) -> int:
        pt_bits = self.pattern_table_entries * 16
        # Active generation table: page tag 32b + signature 7b + bitmap 16b
        # + timestamp 16b.
        agt_bits = self.active_generations * (32 + 7 + 16 + 16)
        return pt_bits + agt_bits
