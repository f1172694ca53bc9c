"""Array state of the system-cache slice: the batch engine's container.

:class:`ArrayCache` stores the same per-way state as
:class:`~repro.cache.cache.SetAssociativeCache` — tag, dirty, prefetched,
source, ready time, LRU age — but as flat parallel lists indexed by
*global way* (``set_index * associativity + way``) instead of a
``CacheBlock`` object per way.  On top of those it maintains:

* one global ``block_addr -> global_way`` dict (a block address determines
  its set, so a single map replaces the per-set maps without ambiguity),
* a per-set free-way list, kept sorted ascending so popping the front is
  exactly the scalar policy's "first invalid way wins" rule.

The demand lookup and the fill live in the fused loops of
:mod:`repro.sim.batch`, which read and write these lists directly; this
class owns the layout, the checkpoint schema and the few operations the
engine's callers use (``contains``/``probe``/``invalidate`` and the
gauges).  :meth:`state_dict` emits the scalar cache's *schema
bit-for-bit* — the oracle harness in ``tests/test_batch_oracle.py``
compares the two engines' snapshots field-by-field after arbitrary access
histories — and either class restores the other's snapshots.

Only LRU is supported: the batch engine's inlined bookkeeping relies on
the one-tick-per-access LRU contract.  Other policies stay on the scalar
cache (``engine_mode="auto"`` falls back automatically).
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional

from repro.cache.block import CacheBlock
from repro.cache.cache import CacheStats
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
    by the batch engine's fill sites.
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
        # Tenant way partitions (DeviceID value → local way indices), same
        # rule as the scalar cache; :func:`partition_victim` picks the way
        # at the batch engine's fused fill sites.
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
                    self._map[tag] = way
                    self._occupancy += 1
                    if self._prefetched[way]:
                        self._resident_prefetches += 1
                else:
                    free.append(way)
                way += 1
        self._tick = state["policy"]["tick"]
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
