"""One LPDDR4 channel: banks + rank constraints + bus + refresh.

The channel services requests greedily in submission order (the engine
submits in trace arrival order, which approximates FCFS; FR-FCFS's row-hit
preference is partially captured because the engine batches a prefetcher's
same-page requests back-to-back, which is where row-hit reordering pays
off).  Configuring ``scheduler="frfcfs"`` additionally lets a submitted
request start ahead of the bank's precharge obligations when it hits the
currently open row — see :meth:`service`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.config import DRAMConfig
from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import Bank
from repro.dram.request import MemRequest, RequestKind
from repro.dram.stats import DRAMStats
from repro.errors import SimulationError


class DRAMChannel:
    """Timing model for one channel (1 rank × 8 banks by default)."""

    def __init__(self, config: DRAMConfig, block_size: int = 64) -> None:
        self.config = config
        self.timing = config.timing
        self.mapping = AddressMapping(config, block_size=block_size)
        closed_page = config.row_policy == "closed"
        self.banks: List[Bank] = [
            Bank(self.timing, auto_precharge=closed_page)
            for _ in range(config.num_ranks * config.num_banks)
        ]
        self.stats = DRAMStats()
        self._bus_free_time = 0
        self._last_write_end = -(10 ** 9)
        self._recent_activates: Deque[int] = deque(maxlen=4)  # tFAW window
        self._last_activate_time = -(10 ** 9)
        self._next_refresh = self.timing.tREFI
        self._last_time = 0
        self._last_cas_time = 0
        # Completion times of in-flight requests (controller queue slots).
        # Ascending by construction: each new data_end starts at or after
        # the previous one's bus release, so a deque's popleft is the
        # oldest completion — no heap needed.
        self._outstanding: Deque[int] = deque()
        self.stats_queue_stalls = 0
        # Hoisted per-request constants — service() runs once per DRAM
        # transaction (tens of thousands per channel per run), so derived
        # properties and config indirections are resolved here once.
        mapping = self.mapping
        self._column_bits = mapping._column_bits
        self._bank_mask = mapping._bank_mask
        self._bank_bits = mapping._bank_bits
        self._rank_mask = mapping._rank_mask
        self._rank_bits = mapping._rank_bits
        self._num_banks = config.num_banks
        self._burst_cycles = self.timing.burst_cycles
        self._refresh_enabled = config.refresh_enabled
        self._queue_depth = config.queue_depth
        self._prefetch_defer = config.prefetch_defer
        self._writeback_defer = config.writeback_defer
        self._fcfs = config.scheduler == "fcfs"
        self._faw_window = self._recent_activates.maxlen
        timing = self.timing
        self._tREFI = timing.tREFI
        self._tWTR = timing.tWTR
        self._tRRD = timing.tRRD
        self._tFAW = timing.tFAW
        self._tCL = timing.tCL
        self._tCWL = timing.tCWL
        self._tWR = timing.tWR

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_refresh(self, now: int) -> None:
        """Retire any refresh intervals that elapsed before ``now``."""
        if not self.config.refresh_enabled:
            return
        while now >= self._next_refresh:
            refresh_end = self._next_refresh + self.timing.tRFC
            for bank in self.banks:
                bank.block_until(refresh_end)
            self.stats.refreshes += 1
            self._next_refresh += self.timing.tREFI

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def service(self, request: MemRequest) -> int:
        """Service one request; returns its data completion cycle.

        The engine must submit requests in non-decreasing arrival order.
        """
        return self.service_scalar(request.block_addr, request.arrival_time,
                                   request.kind, request.source)

    def service_scalar(self, block_addr: int, arrival_time: int,
                       kind: RequestKind, source: str = "") -> int:
        """Allocation-free :meth:`service`: same model, scalar arguments.

        The engine's demand fast loop calls this once per cache miss /
        prefetch / write-back, so the request is passed as four scalars
        (no :class:`MemRequest` construction) and the address is decoded
        inline (no :class:`DecodedAddress` allocation).  Behaviour is
        bit-identical to ``service(MemRequest(...))``, which delegates
        here.  Arguments are trusted to be non-negative — callers that
        build a ``MemRequest`` get its validation; the engine generates
        addresses and times that are non-negative by construction.
        """
        now = arrival_time
        if now < self._last_time - self._tREFI:
            raise SimulationError(
                f"request at {now} submitted far out of order (last {self._last_time})"
            )
        if now > self._last_time:
            self._last_time = now
        if self._refresh_enabled and now >= self._next_refresh:
            self._apply_refresh(now)

        # Controller queue backpressure: with queue_depth requests still in
        # flight, a new arrival stalls until the oldest completes.
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= now:
            outstanding.popleft()
        if len(outstanding) >= self._queue_depth:
            now = outstanding.popleft()
            self.stats_queue_stalls += 1

        # Inline address decode (see AddressMapping.decode).
        remainder = block_addr >> self._column_bits
        bank_index = remainder & self._bank_mask
        remainder >>= self._bank_bits
        if self._rank_bits:
            rank = remainder & self._rank_mask
            row = remainder >> self._rank_bits
        else:
            rank = 0
            row = remainder
        bank = self.banks[rank * self._num_banks + bank_index]

        is_write = (kind is RequestKind.DEMAND_WRITE
                    or kind is RequestKind.WRITEBACK)
        earliest = now
        # Low-priority traffic is deferred into idle slots: the controller
        # holds prefetches and write-backs briefly so demand reads arriving
        # in the interim window do not queue behind them.
        if kind is RequestKind.PREFETCH:
            earliest += self._prefetch_defer
        elif kind is RequestKind.WRITEBACK:
            earliest += self._writeback_defer
        if not is_write:
            # Write-to-read turnaround on the shared rank.
            turnaround = self._last_write_end + self._tWTR
            if turnaround > earliest:
                earliest = turnaround

        if self._fcfs and self._last_cas_time > earliest:
            # Strict arrival-order issue: a request cannot overtake the
            # previously issued CAS even when its own bank is idle.
            earliest = self._last_cas_time

        # Rank-level activate constraints (tRRD + tFAW window).
        act_allowed = self._last_activate_time + self._tRRD
        if act_allowed < earliest:
            act_allowed = earliest
        recent = self._recent_activates
        if len(recent) == self._faw_window:
            faw_bound = recent[0] + self._tFAW
            if faw_bound > act_allowed:
                act_allowed = faw_bound

        cas, outcome, act_time = bank.cas_time(row, earliest, act_allowed)
        if cas > self._last_cas_time:
            self._last_cas_time = cas
        stats = self.stats
        if act_time >= 0:
            self._last_activate_time = act_time
            recent.append(act_time)
            stats.activates += 1
        if outcome == "hit":
            stats.row_hits += 1
        elif outcome == "miss":
            stats.row_misses += 1
        else:
            stats.row_conflicts += 1

        data_start = cas + (self._tCWL if is_write else self._tCL)
        if data_start < self._bus_free_time:
            data_start = self._bus_free_time
        burst = self._burst_cycles
        data_end = data_start + burst
        self._bus_free_time = data_end
        stats.data_bus_cycles += burst

        if is_write:
            self._last_write_end = data_end + self._tWR

        outstanding.append(data_end)

        latency = data_end - arrival_time
        if kind is RequestKind.DEMAND_READ:
            stats.demand_reads += 1
            # Inlined RunningStats.add (same operations, same order — the
            # per-demand-read call overhead is measurable at trace scale).
            read_stats = stats.demand_read_latency
            count = read_stats.count + 1
            read_stats.count = count
            delta = latency - read_stats._mean
            mean = read_stats._mean + delta / count
            read_stats._mean = mean
            read_stats._m2 += delta * (latency - mean)
            if read_stats.min is None or latency < read_stats.min:
                read_stats.min = latency
            if read_stats.max is None or latency > read_stats.max:
                read_stats.max = latency
        elif kind is RequestKind.DEMAND_WRITE:
            stats.demand_writes += 1
        elif kind is RequestKind.PREFETCH:
            stats.prefetch_reads += 1
            stats.prefetch_latency.add(latency)
            if source:
                stats.prefetch_reads_by_source[source] = (
                    stats.prefetch_reads_by_source.get(source, 0) + 1
                )
        else:
            stats.writebacks += 1
        return data_end

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot all mutable channel state (checkpoint support).

        Config-derived constants (timing, masks, scheduler mode) are not
        stored; :meth:`load_state` targets a channel built from the same
        :class:`~repro.config.DRAMConfig`.
        """
        return {
            "banks": [bank.state_dict() for bank in self.banks],
            "stats": self.stats.state_dict(),
            "bus_free_time": self._bus_free_time,
            "last_write_end": self._last_write_end,
            "recent_activates": list(self._recent_activates),
            "last_activate_time": self._last_activate_time,
            "next_refresh": self._next_refresh,
            "last_time": self._last_time,
            "last_cas_time": self._last_cas_time,
            # Ascending completion times; snapshots as a plain list.
            "outstanding": list(self._outstanding),
            "queue_stalls": self.stats_queue_stalls,
        }

    def load_state(self, state: dict) -> None:
        banks = state["banks"]
        if len(banks) != len(self.banks):
            raise SimulationError(
                f"checkpoint bank count mismatch: expected {len(self.banks)}, "
                f"got {len(banks)}")
        for bank, saved in zip(self.banks, banks):
            bank.load_state(saved)
        self.stats.load_state(state["stats"])
        self._bus_free_time = state["bus_free_time"]
        self._last_write_end = state["last_write_end"]
        self._recent_activates = deque(state["recent_activates"],
                                       maxlen=self._faw_window)
        self._last_activate_time = state["last_activate_time"]
        self._next_refresh = state["next_refresh"]
        self._last_time = state["last_time"]
        self._last_cas_time = state["last_cas_time"]
        # Older checkpoints stored this list in heap order; sorting is the
        # identity on the ascending order service_scalar now maintains.
        self._outstanding = deque(sorted(state["outstanding"]))
        self.stats_queue_stalls = state["queue_stalls"]

    def finish(self, end_time: int) -> None:
        """Close the books at trace end (fixes elapsed-cycle accounting)."""
        self.stats.elapsed_cycles = max(end_time, self._last_time, self._bus_free_time)

    def idle_headroom(self, now: int) -> int:
        """Cycles until the data bus is next free — a cheap congestion probe
        prefetch throttles can use."""
        return max(0, self._bus_free_time - now)

    def outstanding_requests(self) -> int:
        """Controller-queue slots currently occupied (in-flight requests
        not yet known to have completed)."""
        return len(self._outstanding)
