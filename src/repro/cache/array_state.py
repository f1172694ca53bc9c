"""Array state representation of the system-cache slice (batch engine).

:class:`ArrayCache` stores the same per-way state as
:class:`~repro.cache.cache.SetAssociativeCache` — tag, dirty, prefetched,
source, ready time, LRU age — but as flat parallel arrays indexed by
*global way* (``set_index * associativity + way``) instead of a
``CacheBlock`` object per way.  On top of those it maintains:

* one global ``block_addr -> global_way`` dict (a block address determines
  its set, so a single map replaces the per-set maps without ambiguity),
* a per-set free-way list, kept sorted ascending so popping the front is
  exactly the scalar policy's "first invalid way wins" rule,
* a live NumPy tag mirror, exposed as :meth:`tag_matrix`, so whole-chunk
  hit/miss resolution can be a batched compare (see
  :func:`repro.sim.kernels.lru_victims` and ``repro.sim.batch``).

The class is a drop-in replacement for the scalar cache under LRU
replacement: the public API (``access``/``fill``/``contains``/``probe``/
``invalidate``/``state_dict``/``load_state``/gauges) is identical, every
counter is updated in the same order, and :meth:`state_dict` emits the
*same schema bit-for-bit* — the oracle harness in
``tests/test_batch_oracle.py`` compares the two classes' snapshots
field-by-field after arbitrary access histories.

Only LRU is supported: the batch engine's run-length bookkeeping relies on
the one-tick-per-access LRU contract.  Other policies stay on the scalar
cache (``engine_mode="auto"`` falls back automatically).
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional

import numpy as np

from repro.cache.block import CacheBlock, EvictionInfo
from repro.cache.cache import _PLAIN_HIT, _PLAIN_MISS, AccessResult, CacheStats
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.trace.record import DeviceID


def partition_victim(tags: list, touch: list, base: int,
                     allowed: tuple) -> int:
    """Global way a fill restricted to a tenant partition takes.

    ``allowed`` holds the partition's local way indices, ascending; the
    set's ways start at global index ``base``.  The first invalid allowed
    way wins, else the least recently touched allowed way — the rule of
    :meth:`SetAssociativeCache._partition_victim` over flat arrays.  The
    caller tells a free way from a victim by ``tags[way] is None``.  Shared
    by :meth:`ArrayCache.fill` and the batch engine's fill sites.
    """
    way = base + allowed[0]
    oldest_touch = None
    for local in allowed:
        candidate = base + local
        if tags[candidate] is None:
            return candidate
        age = touch[candidate]
        if oldest_touch is None or age < oldest_touch:
            oldest_touch = age
            way = candidate
    return way


class ArrayCache:
    """One system-cache slice held as flat arrays (LRU only)."""

    def __init__(self, config: CacheConfig) -> None:
        if config.replacement_policy != "lru":
            raise SimulationError(
                "ArrayCache supports only LRU replacement, got "
                f"{config.replacement_policy!r}")
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_mask = config.num_sets - 1
        capacity = config.num_sets * config.associativity
        # Per-way state, indexed by global way (set * associativity + way).
        self._tags: List[Optional[int]] = [None] * capacity
        self._dirty: List[bool] = [False] * capacity
        self._prefetched: List[bool] = [False] * capacity
        self._source: List[Optional[str]] = [None] * capacity
        self._ready: List[int] = [0] * capacity
        self._touch: List[int] = [0] * capacity
        # Untouched by LRU (FIFO's / DRRIP's metadata); preserved verbatim
        # so snapshots match the scalar cache's CacheBlock fields.
        self._inserted: List[int] = [0] * capacity
        self._rrpv: List[int] = [0] * capacity
        self._tick = 0
        self._map: Dict[int, int] = {}
        self._free: List[List[int]] = [
            list(range(s * config.associativity, (s + 1) * config.associativity))
            for s in range(config.num_sets)
        ]
        # NumPy tag mirror (-1 = invalid) for batched compares.  The scalar
        # methods keep it live; the batch loop skips the per-fill ndarray
        # store (a surprisingly hot ~100ns) and marks it stale instead, so
        # :meth:`tag_matrix` rebuilds on demand.
        self._tags_np = np.full(capacity, -1, dtype=np.int64)
        self._tags_stale = False
        # Tenant way partitions (DeviceID value → local way indices), same
        # rule as the scalar cache; :func:`partition_victim` picks the way
        # here and in the batch engine's fused fill sites.
        self._partition_ways: Dict[int, tuple] = {
            DeviceID[name].value: tuple(
                way for way in range(config.associativity)
                if (mask >> way) & 1)
            for name, mask in (config.partition_masks()
                               if config.way_partitions else {}).items()
        }
        self.stats = CacheStats()
        self._occupancy = 0
        self._resident_prefetches = 0
        #: Lineage collector hook (repro.obs.lineage); consulted only on
        #: the explicit-invalidate path, same as the scalar cache.
        self.lineage = None

    # ------------------------------------------------------------------
    # Batched views
    # ------------------------------------------------------------------
    def tag_matrix(self) -> np.ndarray:
        """``(num_sets, associativity)`` int64 tag view (-1 invalid)."""
        if self._tags_stale:
            self._tags_np = np.fromiter(
                (-1 if tag is None else tag for tag in self._tags),
                dtype=np.int64, count=len(self._tags))
            self._tags_stale = False
        return self._tags_np.reshape(self.num_sets, self.associativity)

    def age_matrix(self) -> np.ndarray:
        """``(num_sets, associativity)`` LRU-age (last_touch) snapshot."""
        return np.asarray(self._touch, dtype=np.int64).reshape(
            self.num_sets, self.associativity)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def contains(self, block_addr: int) -> bool:
        """True if the block is present (ready or in flight)."""
        return block_addr in self._map

    def probe(self, block_addr: int) -> Optional[CacheBlock]:
        """Inspect a block's state without touching replacement metadata.

        Materialises a :class:`CacheBlock` view so callers of the scalar
        cache's ``probe`` keep working; mutations to the returned object
        are *not* written back.
        """
        way = self._map.get(block_addr)
        if way is None:
            return None
        block = CacheBlock()
        block.restore((self._tags[way], self._dirty[way],
                       self._prefetched[way], self._source[way],
                       self._ready[way], self._touch[way],
                       self._inserted[way], self._rrpv[way]))
        return block

    # ------------------------------------------------------------------
    # Demand path (scalar fallback; the batch loop inlines these ops)
    # ------------------------------------------------------------------
    def access(self, block_addr: int, now: int, is_write: bool = False) -> AccessResult:
        """Scalar demand access — mirrors SetAssociativeCache.access."""
        way = self._map.get(block_addr, -1)
        stats = self.stats
        stats.demand_accesses += 1
        if way < 0:
            stats.demand_misses += 1
            return _PLAIN_MISS

        self._tick += 1
        self._touch[way] = self._tick
        if is_write:
            self._dirty[way] = True

        prefetch_source = None
        late = False
        if self._prefetched[way]:
            prefetch_source = self._source[way]
            self._prefetched[way] = False
            self._resident_prefetches -= 1
            stats.prefetch_useful[prefetch_source] = (
                stats.prefetch_useful.get(prefetch_source, 0) + 1
            )

        if self._ready[way] > now:
            wait = self._ready[way] - now
            stats.demand_misses += 1
            stats.delayed_hits += 1
            if prefetch_source is not None:
                late = True
                stats.prefetch_late[prefetch_source] = (
                    stats.prefetch_late.get(prefetch_source, 0) + 1
                )
            return AccessResult(
                hit=False, delayed=True, wait_cycles=wait,
                prefetch_source=prefetch_source, late_prefetch=late,
            )

        stats.demand_hits += 1
        if prefetch_source is None:
            return _PLAIN_HIT
        return AccessResult(hit=True, prefetch_source=prefetch_source)

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------
    def fill(
        self,
        block_addr: int,
        now: int,
        ready_time: int,
        prefetched: bool = False,
        source: Optional[str] = None,
        dirty: bool = False,
        requester: Optional[int] = None,
    ) -> Optional[EvictionInfo]:
        """Install a block; returns eviction info if a valid block fell out.

        ``requester`` restricts victim selection to the device's way
        partition when one is configured — same contract as
        :meth:`SetAssociativeCache.fill`.
        """
        if block_addr in self._map:
            raise SimulationError(f"double fill of block {block_addr:#x}")
        set_index = block_addr & self._set_mask
        free = self._free[set_index]
        tags = self._tags
        allowed = (self._partition_ways.get(requester)
                   if self._partition_ways else None)
        if allowed is not None:
            way = partition_victim(tags, self._touch,
                                   set_index * self.associativity, allowed)
            victim_tag = tags[way]
            if victim_tag is None:
                free.remove(way)
        elif free:
            way = free.pop(0)
            victim_tag = None
        else:
            base = set_index * self.associativity
            ages = self._touch[base:base + self.associativity]
            way = base + ages.index(min(ages))
            victim_tag = tags[way]
        eviction: Optional[EvictionInfo] = None
        if victim_tag is None:
            self._occupancy += 1
        else:
            del self._map[victim_tag]
            eviction = EvictionInfo(
                tag=victim_tag, dirty=self._dirty[way],
                prefetched=self._prefetched[way], source=self._source[way],
            )
            if self._dirty[way]:
                self.stats.writebacks += 1
            if self._prefetched[way]:
                self._resident_prefetches -= 1
                if self._source[way] is not None:
                    self.stats.prefetch_unused_evicted[self._source[way]] = (
                        self.stats.prefetch_unused_evicted.get(
                            self._source[way], 0) + 1
                    )
        tags[way] = block_addr
        self._tags_np[way] = block_addr
        self._map[block_addr] = way
        self._dirty[way] = dirty
        self._prefetched[way] = prefetched
        self._source[way] = source if prefetched else None
        self._ready[way] = ready_time
        self._tick += 1
        self._touch[way] = self._tick
        if prefetched:
            self._resident_prefetches += 1
            self.stats.prefetch_fills += 1
        else:
            self.stats.demand_fills += 1
        return eviction

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot in the scalar cache's exact schema (see its docstring)."""
        assoc = self.associativity
        blocks = []
        for set_index in range(self.num_sets):
            base = set_index * assoc
            blocks.append([
                (self._tags[way], self._dirty[way], self._prefetched[way],
                 self._source[way], self._ready[way], self._touch[way],
                 self._inserted[way], self._rrpv[way])
                for way in range(base, base + assoc)
            ])
        return {
            "blocks": blocks,
            "policy": {"tick": self._tick},
            "stats": self.stats.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a scalar- or array-cache snapshot onto this instance."""
        blocks = state["blocks"]
        if (len(blocks) != self.num_sets
                or any(len(ways) != self.associativity for ways in blocks)):
            raise SimulationError(
                f"checkpoint cache geometry mismatch: expected "
                f"{self.num_sets}x{self.associativity}")
        self._map.clear()
        self._occupancy = 0
        self._resident_prefetches = 0
        way = 0
        for set_index, saved_ways in enumerate(blocks):
            free = self._free[set_index]
            free.clear()
            for saved in saved_ways:
                (self._tags[way], self._dirty[way], self._prefetched[way],
                 self._source[way], self._ready[way], self._touch[way],
                 self._inserted[way], self._rrpv[way]) = saved
                tag = self._tags[way]
                if tag is not None:
                    self._tags_np[way] = tag
                    self._map[tag] = way
                    self._occupancy += 1
                    if self._prefetched[way]:
                        self._resident_prefetches += 1
                else:
                    self._tags_np[way] = -1
                    free.append(way)
                way += 1
        self._tick = state["policy"]["tick"]
        self._tags_stale = False
        self.stats.load_state(state["stats"])

    def invalidate(self, block_addr: int) -> bool:
        """Drop a block if present; returns whether anything was dropped."""
        way = self._map.pop(block_addr, None)
        if way is None:
            return False
        self._occupancy -= 1
        if self._prefetched[way]:
            self._resident_prefetches -= 1
            if self.lineage is not None:
                self.lineage.note_invalidated(block_addr, self._source[way])
        self._tags[way] = None
        self._tags_np[way] = -1
        self._dirty[way] = False
        self._prefetched[way] = False
        self._source[way] = None
        insort(self._free[block_addr & self._set_mask], way)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return self._occupancy

    def resident_prefetches(self) -> int:
        """Prefetched-and-not-yet-used blocks currently resident."""
        return self._resident_prefetches

    def occupancy_scan(self) -> int:
        """Reference O(capacity) count, kept for the coherence tests."""
        return sum(1 for tag in self._tags if tag is not None)

    def resident_prefetches_scan(self) -> int:
        """Reference scan matching :meth:`resident_prefetches`."""
        return sum(1 for tag, pf in zip(self._tags, self._prefetched)
                   if tag is not None and pf)
