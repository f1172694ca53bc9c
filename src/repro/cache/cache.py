"""Set-associative cache with prefetch-aware fills and MSHR-style
delayed-hit tracking.

This is the per-channel slice of the paper's 4 MB system cache.  Beyond a
textbook cache it tracks, per block, whether the block was filled by a
prefetcher (and which one) and when the fill data becomes *ready*, so the
simulation engine can account for:

* prefetch usefulness/pollution per sub-prefetcher (Figure 9 attribution),
* late prefetches (data still in flight when the demand arrives),
* MSHR merges (a second miss to an in-flight block doesn't re-access DRAM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.block import CacheBlock, EvictionInfo
from repro.cache.replacement import make_policy
from repro.cache.replacement.drrip import DRRIPPolicy
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.trace.record import DeviceID


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one demand access.

    Attributes:
        hit: data present and ready — a true SC hit.
        delayed: data present but still in flight (``ready_time`` in the
            future); the access waits ``wait_cycles``.
        wait_cycles: remaining fill latency for a delayed access.
        prefetch_source: set when this access was served (fully or partly)
            by a prefetched block — names the issuing prefetcher.
        late_prefetch: the serving prefetch was in flight (delayed hit).
    """

    hit: bool
    delayed: bool = False
    wait_cycles: int = 0
    prefetch_source: Optional[str] = None
    late_prefetch: bool = False


#: Shared results for the two overwhelmingly common outcomes.  AccessResult
#: is frozen, so handing every plain hit/miss the same instance is safe and
#: keeps the demand fast path allocation-free (delayed hits and
#: prefetch-served accesses still build a bespoke result).
_PLAIN_HIT = AccessResult(hit=True)
_PLAIN_MISS = AccessResult(hit=False)


@dataclass
class CacheStats:
    """Counters for one cache slice."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    delayed_hits: int = 0
    prefetch_fills: int = 0
    demand_fills: int = 0
    writebacks: int = 0
    prefetch_useful: Dict[str, int] = field(default_factory=dict)
    prefetch_late: Dict[str, int] = field(default_factory=dict)
    prefetch_unused_evicted: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    def useful_total(self) -> int:
        return sum(self.prefetch_useful.values())

    def unused_total(self) -> int:
        return sum(self.prefetch_unused_evicted.values())

    def state_dict(self) -> dict:
        """Snapshot every counter table (checkpoint support)."""
        return {
            "demand_accesses": self.demand_accesses,
            "demand_hits": self.demand_hits,
            "demand_misses": self.demand_misses,
            "delayed_hits": self.delayed_hits,
            "prefetch_fills": self.prefetch_fills,
            "demand_fills": self.demand_fills,
            "writebacks": self.writebacks,
            "prefetch_useful": dict(self.prefetch_useful),
            "prefetch_late": dict(self.prefetch_late),
            "prefetch_unused_evicted": dict(self.prefetch_unused_evicted),
        }

    def load_state(self, state: dict) -> None:
        self.demand_accesses = state["demand_accesses"]
        self.demand_hits = state["demand_hits"]
        self.demand_misses = state["demand_misses"]
        self.delayed_hits = state["delayed_hits"]
        self.prefetch_fills = state["prefetch_fills"]
        self.demand_fills = state["demand_fills"]
        self.writebacks = state["writebacks"]
        self.prefetch_useful = dict(state["prefetch_useful"])
        self.prefetch_late = dict(state["prefetch_late"])
        self.prefetch_unused_evicted = dict(state["prefetch_unused_evicted"])

    def merge(self, other: "CacheStats") -> None:
        """Fold another slice's counters in (channel → system aggregation)."""
        self.demand_accesses += other.demand_accesses
        self.demand_hits += other.demand_hits
        self.demand_misses += other.demand_misses
        self.delayed_hits += other.delayed_hits
        self.prefetch_fills += other.prefetch_fills
        self.demand_fills += other.demand_fills
        self.writebacks += other.writebacks
        for table in ("prefetch_useful", "prefetch_late",
                      "prefetch_unused_evicted"):
            mine = getattr(self, table)
            for source, count in getattr(other, table).items():
                mine[source] = mine.get(source, 0) + count


class SetAssociativeCache:
    """One system-cache slice.

    Addresses handed to this class are *block addresses* (byte address
    >> block bits); the engine does the shifting once.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._sets: List[List[CacheBlock]] = [
            [CacheBlock() for _ in range(config.associativity)]
            for _ in range(config.num_sets)
        ]
        self.policy = make_policy(config.replacement_policy, config.associativity,
                                  config.num_sets)
        self.stats = CacheStats()
        self._set_mask = config.num_sets - 1
        # Per-set tag → way index.  Lookups on the demand path are O(1)
        # instead of an O(associativity) scan over the 16 ways; fill() and
        # invalidate() keep it coherent with the way array (the linear scan
        # survives as _find_way_linear for the coherence property test).
        self._tag_to_way: List[Dict[int, int]] = [
            {} for _ in range(config.num_sets)
        ]
        self._drrip = (self.policy if isinstance(self.policy, DRRIPPolicy)
                       else None)
        # Tenant way partitions: DeviceID value → tuple of way indices the
        # device may *fill into* (lookups stay global — a resident block
        # serves every tenant).  Empty when unpartitioned, which keeps the
        # shared-mode fill path on the exact pre-partitioning code.
        self._partition_ways: Dict[int, tuple] = {
            DeviceID[name].value: tuple(
                way for way in range(config.associativity)
                if (mask >> way) & 1)
            for name, mask in (config.partition_masks()
                               if config.way_partitions else {}).items()
        }
        # Incremental occupancy gauges; maintained by access/fill/invalidate
        # so timeline snapshots read them in O(1) instead of scanning
        # sets x ways.  Not checkpointed — load_state recomputes them.
        self._occupancy = 0
        self._resident_prefetches = 0
        #: Lineage collector hook (repro.obs.lineage).  Only consulted on
        #: the explicit-invalidate path — demand/fill fates are resolved
        #: by the engine from AccessResult/EvictionInfo, keeping this
        #: class's hot paths hook-free.
        self.lineage = None

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def _find_way_linear(self, ways: List[CacheBlock], block_addr: int) -> int:
        """Reference O(associativity) lookup, kept for coherence tests."""
        for index, block in enumerate(ways):
            if block.tag == block_addr:
                return index
        return -1

    def contains(self, block_addr: int) -> bool:
        """True if the block is present (ready or in flight)."""
        return block_addr in self._tag_to_way[block_addr & self._set_mask]

    def probe(self, block_addr: int) -> Optional[CacheBlock]:
        """Inspect a block's state without touching replacement metadata."""
        set_index = block_addr & self._set_mask
        way = self._tag_to_way[set_index].get(block_addr)
        return self._sets[set_index][way] if way is not None else None

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def access(self, block_addr: int, now: int, is_write: bool = False) -> AccessResult:
        """Perform a demand access; updates stats and replacement state.

        A miss does *not* allocate — the engine calls :meth:`fill` once it
        has scheduled the DRAM access, because only the engine knows the
        fill's ready time.
        """
        set_index = block_addr & self._set_mask
        way = self._tag_to_way[set_index].get(block_addr, -1)
        stats = self.stats
        stats.demand_accesses += 1
        if way < 0:
            stats.demand_misses += 1
            if self._drrip is not None:
                self._drrip.record_miss(set_index)
            return _PLAIN_MISS

        ways = self._sets[set_index]
        block = ways[way]
        self.policy.on_hit(set_index, ways, way)
        if is_write:
            block.dirty = True

        prefetch_source = None
        late = False
        if block.prefetched:
            # First demand touch of a prefetched block: it was useful.
            prefetch_source = block.source
            block.prefetched = False
            self._resident_prefetches -= 1
            stats.prefetch_useful[prefetch_source] = (
                stats.prefetch_useful.get(prefetch_source, 0) + 1
            )

        if block.ready_time > now:
            # In-flight fill: MSHR merge / late prefetch.
            wait = block.ready_time - now
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

        ``requester`` is the :class:`DeviceID` value of the tenant the fill
        serves; when that device has a configured way partition, victim
        selection is restricted to its allowed ways (LRU within the
        partition).  Unpartitioned devices — and every fill when no
        partitions are configured — use the global replacement policy.

        Raises:
            SimulationError: if the block is already present (the engine
                must dedup against :meth:`contains` first).
        """
        set_index = block_addr & self._set_mask
        ways = self._sets[set_index]
        tag_map = self._tag_to_way[set_index]
        if block_addr in tag_map:
            raise SimulationError(f"double fill of block {block_addr:#x}")
        allowed = (self._partition_ways.get(requester)
                   if self._partition_ways else None)
        if allowed is None:
            victim_way = self.policy.victim(set_index, ways)
        else:
            victim_way = self._partition_victim(ways, allowed)
        victim = ways[victim_way]
        eviction: Optional[EvictionInfo] = None
        if victim.valid:
            del tag_map[victim.tag]
            eviction = EvictionInfo(
                tag=victim.tag, dirty=victim.dirty,
                prefetched=victim.prefetched, source=victim.source,
            )
            if victim.dirty:
                self.stats.writebacks += 1
            if victim.prefetched:
                self._resident_prefetches -= 1
                if victim.source is not None:
                    self.stats.prefetch_unused_evicted[victim.source] = (
                        self.stats.prefetch_unused_evicted.get(victim.source, 0)
                        + 1
                    )
        else:
            self._occupancy += 1
        victim.tag = block_addr
        tag_map[block_addr] = victim_way
        victim.dirty = dirty
        victim.prefetched = prefetched
        victim.source = source if prefetched else None
        victim.ready_time = ready_time
        self.policy.on_fill(set_index, ways, victim_way, prefetched)
        if prefetched:
            self._resident_prefetches += 1
            self.stats.prefetch_fills += 1
        else:
            self.stats.demand_fills += 1
        return eviction

    @staticmethod
    def _partition_victim(ways: List[CacheBlock], allowed: tuple) -> int:
        """LRU victim restricted to a tenant's allowed ways.

        Same selection rule as :meth:`LRUPolicy.victim` (first invalid way
        wins; otherwise lowest-index way with the minimum last_touch) over
        the partition's way subset.
        """
        oldest_way = allowed[0]
        oldest_touch = None
        for index in allowed:
            block = ways[index]
            if block.tag is None:
                return index
            touch = block.last_touch
            if oldest_touch is None or touch < oldest_touch:
                oldest_touch = touch
                oldest_way = index
        return oldest_way

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot block contents, policy state and counters.

        The tag→way index is *not* stored — :meth:`load_state` rebuilds it
        from the block array, which both keeps the checkpoint minimal and
        re-exercises the same coherence invariant the property suite
        checks.
        """
        return {
            "blocks": [[block.snapshot() for block in ways]
                       for ways in self._sets],
            "policy": self.policy.state_dict(),
            "stats": self.stats.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a same-shaped cache."""
        blocks = state["blocks"]
        if (len(blocks) != self.num_sets
                or any(len(ways) != self.associativity for ways in blocks)):
            raise SimulationError(
                f"checkpoint cache geometry mismatch: expected "
                f"{self.num_sets}x{self.associativity}")
        self._occupancy = 0
        self._resident_prefetches = 0
        for ways, saved_ways, tag_map in zip(self._sets, blocks,
                                             self._tag_to_way):
            tag_map.clear()
            for way_index, (block, saved) in enumerate(zip(ways, saved_ways)):
                block.restore(saved)
                if block.tag is not None:
                    tag_map[block.tag] = way_index
                if block.valid:
                    self._occupancy += 1
                    if block.prefetched:
                        self._resident_prefetches += 1
        self.policy.load_state(state["policy"])
        self.stats.load_state(state["stats"])

    def invalidate(self, block_addr: int) -> bool:
        """Drop a block if present; returns whether anything was dropped."""
        set_index = block_addr & self._set_mask
        way = self._tag_to_way[set_index].pop(block_addr, None)
        if way is None:
            return False
        block = self._sets[set_index][way]
        self._occupancy -= 1
        if block.prefetched:
            self._resident_prefetches -= 1
            if self.lineage is not None:
                self.lineage.note_invalidated(block_addr, block.source)
        block.invalidate()
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
