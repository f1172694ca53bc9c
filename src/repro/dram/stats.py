"""Per-channel DRAM statistics, the power model's raw input."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.utils.statistics import RunningStats


@dataclass
class DRAMStats:
    """Event counters and latency aggregates for one channel."""

    demand_reads: int = 0
    demand_writes: int = 0
    prefetch_reads: int = 0
    writebacks: int = 0
    activates: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    refreshes: int = 0
    data_bus_cycles: int = 0
    elapsed_cycles: int = 0
    demand_read_latency: RunningStats = field(default_factory=RunningStats)
    prefetch_latency: RunningStats = field(default_factory=RunningStats)
    prefetch_reads_by_source: Dict[str, int] = field(default_factory=dict)

    @property
    def total_reads(self) -> int:
        return self.demand_reads + self.prefetch_reads

    @property
    def total_requests(self) -> int:
        return self.total_reads + self.demand_writes + self.writebacks

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0

    def state_dict(self) -> dict:
        """Snapshot every counter and latency aggregate (checkpoints)."""
        return {
            "demand_reads": self.demand_reads,
            "demand_writes": self.demand_writes,
            "prefetch_reads": self.prefetch_reads,
            "writebacks": self.writebacks,
            "activates": self.activates,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "refreshes": self.refreshes,
            "data_bus_cycles": self.data_bus_cycles,
            "elapsed_cycles": self.elapsed_cycles,
            "demand_read_latency": self.demand_read_latency.state_dict(),
            "prefetch_latency": self.prefetch_latency.state_dict(),
            "prefetch_reads_by_source": dict(self.prefetch_reads_by_source),
        }

    def load_state(self, state: dict) -> None:
        self.demand_reads = state["demand_reads"]
        self.demand_writes = state["demand_writes"]
        self.prefetch_reads = state["prefetch_reads"]
        self.writebacks = state["writebacks"]
        self.activates = state["activates"]
        self.row_hits = state["row_hits"]
        self.row_misses = state["row_misses"]
        self.row_conflicts = state["row_conflicts"]
        self.refreshes = state["refreshes"]
        self.data_bus_cycles = state["data_bus_cycles"]
        self.elapsed_cycles = state["elapsed_cycles"]
        self.demand_read_latency.load_state(state["demand_read_latency"])
        self.prefetch_latency.load_state(state["prefetch_latency"])
        self.prefetch_reads_by_source = dict(state["prefetch_reads_by_source"])

    def merge(self, other: "DRAMStats") -> None:
        """Fold another channel's counters into this one."""
        self.demand_reads += other.demand_reads
        self.demand_writes += other.demand_writes
        self.prefetch_reads += other.prefetch_reads
        self.writebacks += other.writebacks
        self.activates += other.activates
        self.row_hits += other.row_hits
        self.row_misses += other.row_misses
        self.row_conflicts += other.row_conflicts
        self.refreshes += other.refreshes
        self.data_bus_cycles += other.data_bus_cycles
        self.elapsed_cycles = max(self.elapsed_cycles, other.elapsed_cycles)
        self.demand_read_latency.merge(other.demand_read_latency)
        self.prefetch_latency.merge(other.prefetch_latency)
        for source, count in other.prefetch_reads_by_source.items():
            self.prefetch_reads_by_source[source] = (
                self.prefetch_reads_by_source.get(source, 0) + count
            )
