"""Prefetch queue: dedup, degree throttling, and bounded depth.

"The generated prefetch requests are inserted into the prefetch queue"
(Section 2).  The queue is the last gate before DRAM: it drops duplicates
of recently issued prefetches, caps the number of prefetches one trigger
may emit (degree), and bounds total outstanding prefetches so a
misbehaving prefetcher cannot flood the memory system.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

from repro.config import PrefetchQueueConfig
from repro.prefetch.base import PrefetchCandidate


@dataclass
class QueueStats:
    """Accept/drop accounting for one prefetch queue.

    Lives in its own mergeable container so per-channel counts survive
    system-level aggregation (and process-boundary round trips) the same
    way ``MetricSet`` / ``CacheStats`` / ``DRAMStats`` do.
    """

    accepted: int = 0
    dropped_duplicate: int = 0
    dropped_degree: int = 0
    dropped_full: int = 0
    #: High-water mark of pending candidates (cumulative, merges as max).
    peak_pending: int = 0
    #: Drops (all three kinds) keyed by the candidate's ``source`` tag, so
    #: composite runs can see *whose* candidates the queue rejected.
    dropped_by_origin: Dict[str, int] = field(default_factory=dict)

    def state_dict(self) -> dict:
        return {"accepted": self.accepted,
                "dropped_duplicate": self.dropped_duplicate,
                "dropped_degree": self.dropped_degree,
                "dropped_full": self.dropped_full,
                "peak_pending": self.peak_pending,
                "dropped_by_origin": dict(self.dropped_by_origin)}

    def load_state(self, state: dict) -> None:
        self.accepted = state["accepted"]
        self.dropped_duplicate = state["dropped_duplicate"]
        self.dropped_degree = state["dropped_degree"]
        self.dropped_full = state["dropped_full"]
        # Absent in checkpoints written before the counters existed.
        self.peak_pending = state.get("peak_pending", 0)
        self.dropped_by_origin = dict(state.get("dropped_by_origin", {}))

    def merge(self, other: "QueueStats") -> None:
        self.accepted += other.accepted
        self.dropped_duplicate += other.dropped_duplicate
        self.dropped_degree += other.dropped_degree
        self.dropped_full += other.dropped_full
        self.peak_pending = max(self.peak_pending, other.peak_pending)
        for origin, count in other.dropped_by_origin.items():
            self.dropped_by_origin[origin] = (
                self.dropped_by_origin.get(origin, 0) + count)

    def dropped_total(self) -> int:
        return self.dropped_duplicate + self.dropped_degree + self.dropped_full


class PrefetchQueue:
    """FIFO of accepted prefetch candidates with an issue filter."""

    def __init__(self, config: PrefetchQueueConfig) -> None:
        self.config = config
        self._queue: Deque[PrefetchCandidate] = deque()
        # Recently accepted block addresses; OrderedDict as an LRU set.
        self._recent: OrderedDict = OrderedDict()
        self._recent_capacity = config.depth * 8
        self.stats = QueueStats()
        #: Lineage collector hook (repro.obs.lineage); the queue is the
        #: accounting gate where every candidate resolves to accepted or
        #: one of the drop bins.
        self.lineage = None

    # Counter attributes kept as properties for existing callers.
    @property
    def accepted(self) -> int:
        return self.stats.accepted

    @property
    def dropped_duplicate(self) -> int:
        return self.stats.dropped_duplicate

    @property
    def dropped_degree(self) -> int:
        return self.stats.dropped_degree

    @property
    def dropped_full(self) -> int:
        return self.stats.dropped_full

    def push(self, candidates: List[PrefetchCandidate]) -> List[PrefetchCandidate]:
        """Filter and enqueue one trigger's candidates.

        Returns the accepted subset, in order.
        """
        accepted: List[PrefetchCandidate] = []
        stats = self.stats
        by_origin = stats.dropped_by_origin
        lineage = self.lineage
        single_source = None
        if lineage is not None and candidates:
            # Single-source pushes (the overwhelming case: one SLP replay
            # or one TLP transfer per trigger) report to lineage as one
            # batched call from the stats-counter deltas instead of a
            # hook call per candidate.
            source = candidates[0].source
            for candidate in candidates:
                if candidate.source != source:
                    break
            else:
                single_source = source
                lineage_before = (stats.accepted, stats.dropped_duplicate,
                                  stats.dropped_degree, stats.dropped_full)
                lineage = None
        config = self.config
        max_degree = config.max_degree
        drop_duplicates = config.drop_duplicates
        depth = config.depth
        queue = self._queue
        recent = self._recent
        recent_capacity = self._recent_capacity
        for index, candidate in enumerate(candidates):
            if len(accepted) >= max_degree:
                # Only the not-yet-examined tail is degree-dropped; earlier
                # duplicate/full drops are already counted in their own bins.
                for dropped in candidates[index:]:
                    stats.dropped_degree += 1
                    by_origin[dropped.source] = (
                        by_origin.get(dropped.source, 0) + 1)
                    if lineage is not None:
                        lineage.note_drop(dropped, "degree")
                break
            block_addr = candidate.block_addr
            if drop_duplicates and block_addr in recent:
                stats.dropped_duplicate += 1
                by_origin[candidate.source] = (
                    by_origin.get(candidate.source, 0) + 1)
                if lineage is not None:
                    lineage.note_drop(candidate, "duplicate")
                continue
            if len(queue) >= depth:
                stats.dropped_full += 1
                by_origin[candidate.source] = (
                    by_origin.get(candidate.source, 0) + 1)
                if lineage is not None:
                    lineage.note_drop(candidate, "full")
                continue
            # Remember the address in the dedup LRU set.
            recent[block_addr] = None
            recent.move_to_end(block_addr)
            while len(recent) > recent_capacity:
                recent.popitem(last=False)
            queue.append(candidate)
            accepted.append(candidate)
            stats.accepted += 1
            if lineage is not None:
                lineage.note_accept(candidate)
        if accepted and len(queue) > stats.peak_pending:
            stats.peak_pending = len(queue)
        if single_source is not None:
            self.lineage.note_gate(
                single_source,
                stats.accepted - lineage_before[0],
                stats.dropped_duplicate - lineage_before[1],
                stats.dropped_degree - lineage_before[2],
                stats.dropped_full - lineage_before[3])
        return accepted

    def state_dict(self) -> dict:
        """Snapshot pending candidates, the dedup LRU and counters."""
        return {
            "pending": [(candidate.block_addr, candidate.source)
                        for candidate in self._queue],
            "recent": list(self._recent),
            "stats": self.stats.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self._queue = deque(
            PrefetchCandidate(block_addr=addr, source=source)
            for addr, source in state["pending"]
        )
        self._recent = OrderedDict((addr, None) for addr in state["recent"])
        self.stats.load_state(state["stats"])

    def pop_all(self) -> List[PrefetchCandidate]:
        """Drain the queue (the engine services prefetches immediately)."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def __len__(self) -> int:
        return len(self._queue)
