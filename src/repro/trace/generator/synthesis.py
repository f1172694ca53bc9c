"""The trace synthesiser: turns a :class:`WorkloadProfile` into records.

Generation model
----------------

The bus-level trace is a superposition of three processes, mirroring what a
real SoC's memory bus carries:

1. **Page episodes** (the dominant component): an *episode* is one use of a
   page — the page's footprint pattern, perturbed by ``snapshot_stability``
   jitter, emitted in random order.  ``episode_concurrency`` episodes are
   live at once and interleave their block emissions, so at the bus the
   per-page access order is non-deterministic (paper Figure 2, observation
   ③).  When an episode finishes, a replacement page is chosen: with
   probability ``page_revisit_rate`` a recently used page (its snapshot
   *recurs* → SLP can learn it), otherwise a fresh page near a slowly
   wandering pointer (address-space temporal locality → its neighbours are
   in TLP's RPT).

2. **Streams**: sequential block runs (GPU/video traffic) of geometric
   length ``stream_length_mean``; runs that end quickly bait offset
   prefetchers into overshooting.

3. **Noise**: uniformly random single accesses over the working set.

Arrival times advance by geometric inter-arrivals with mean
``interarrival_mean`` memory-controller cycles.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.errors import ConfigError
from repro.geometry import AddressLayout, DEFAULT_LAYOUT
from repro.trace.generator.patterns import (
    BLOCKS_PER_PAGE,
    assign_page_patterns,
    build_pattern_library,
)
from repro.trace.generator.profile import WorkloadProfile
from repro.trace.record import AccessType, DeviceID, TraceRecord


class _Episode:
    """One in-flight use of a page: its jittered footprint, shuffled."""

    __slots__ = ("page", "blocks", "index")

    def __init__(self, page: int, blocks: List[int]) -> None:
        self.page = page
        self.blocks = blocks
        self.index = 0

    def next_block(self) -> int:
        block = self.blocks[self.index]
        self.index += 1
        return block

    def reuse_block(self, rng: random.Random) -> Optional[int]:
        """A block already emitted in this episode, if any."""
        if self.index == 0:
            return None
        return self.blocks[rng.randrange(self.index)]

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.blocks)


class TraceSynthesizer:
    """Stateful generator for one workload profile.

    The synthesiser is deterministic for a given ``(profile, seed)`` pair,
    which the test-suite and benches rely on.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        layout: AddressLayout = DEFAULT_LAYOUT,
    ) -> None:
        if layout.blocks_per_page != BLOCKS_PER_PAGE:
            raise ConfigError(
                f"synthesiser assumes {BLOCKS_PER_PAGE} blocks/page, layout has "
                f"{layout.blocks_per_page}"
            )
        self.profile = profile
        self.layout = layout
        self._rng = random.Random(seed)
        self._library = build_pattern_library(profile, self._rng)
        self._page_patterns = assign_page_patterns(profile, self._library, self._rng)
        self._clock = 0
        self._episodes: List[_Episode] = []
        self._history: Deque[int] = deque(maxlen=profile.revisit_history)
        self._walk_position = self._rng.randrange(profile.num_pages)
        self._stream_block: Optional[int] = None
        self._stream_remaining = 0
        self._devices = list(profile.device_weights.keys())
        self._device_weights = list(profile.device_weights.values())
        self._emitted = 0
        self._next_phase_switch = profile.phase_length or None
        self.phase_switches = 0
        while len(self._episodes) < profile.episode_concurrency:
            self._episodes.append(self._new_episode())

    # ------------------------------------------------------------------
    # Page / pattern machinery
    # ------------------------------------------------------------------
    def page_pattern(self, page_index: int) -> int:
        """The assigned 64-bit footprint pattern of working-set page ``page_index``."""
        return self._page_patterns[page_index % self.profile.num_pages]

    def _jittered_footprint(self, page_index: int) -> List[int]:
        """Apply per-episode jitter to the page's base pattern."""
        rng = self._rng
        profile = self.profile
        blocks = [
            block
            for block in range(BLOCKS_PER_PAGE)
            if self.page_pattern(page_index) & (1 << block)
            and rng.random() < profile.snapshot_stability
        ]
        if rng.random() < profile.extra_block_rate:
            blocks.append(rng.randrange(BLOCKS_PER_PAGE))
        if not blocks:
            blocks = [rng.randrange(BLOCKS_PER_PAGE)]
        self._scramble(blocks)
        return blocks

    def _scramble(self, blocks: List[int]) -> None:
        """Perturb ascending order by the profile's order entropy.

        ``episode_order_entropy`` sets the radius of a windowed shuffle:
        0 keeps the sorted order, 1 is a full Fisher-Yates shuffle, and
        intermediate values displace each block by at most
        ``entropy * len(blocks)`` positions — locally scrambled, globally
        still front-to-back, like a real access burst.
        """
        rng = self._rng
        entropy = self.profile.episode_order_entropy
        if entropy >= 1.0:
            rng.shuffle(blocks)
            return
        blocks.sort()
        if entropy <= 0.0:
            return
        radius = max(1, int(entropy * len(blocks)))
        for index in range(len(blocks)):
            other = min(len(blocks) - 1, index + rng.randint(0, radius))
            blocks[index], blocks[other] = blocks[other], blocks[index]

    def _pick_page(self) -> int:
        """Choose the page for a new episode (revisit vs. wandering fresh)."""
        rng = self._rng
        profile = self.profile
        if self._history and rng.random() < profile.page_revisit_rate:
            return rng.choice(list(self._history)) if len(self._history) < 64 else (
                self._history[rng.randrange(len(self._history))]
            )
        # Fresh page near the wandering pointer: keeps consecutive fresh
        # pages within TLP's distance threshold of each other.
        self._walk_position = (
            self._walk_position + rng.randint(0, 8)
        ) % profile.num_pages
        offset = rng.randint(-4, 4)
        return (self._walk_position + offset) % profile.num_pages

    def _new_episode(self) -> _Episode:
        page_index = self._pick_page()
        self._history.append(page_index)
        return _Episode(page_index, self._jittered_footprint(page_index))

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _advance_clock(self) -> None:
        mean = self.profile.interarrival_mean
        # Geometric inter-arrival with the configured mean (>= 1 cycle).
        self._clock += max(1, int(self._rng.expovariate(1.0 / mean)) + 1)

    def _episode_block_address(self) -> int:
        rng = self._rng
        slot = rng.randrange(len(self._episodes))
        episode = self._episodes[slot]
        block = None
        if rng.random() < self.profile.intra_episode_reuse:
            block = episode.reuse_block(rng)
        if block is None:
            block = episode.next_block()
            if episode.exhausted:
                self._episodes[slot] = self._new_episode()
        page_number = self.profile.page_base + episode.page
        return (page_number << self.layout.page_bits) | (block << self.layout.block_bits)

    def _stream_block_address(self) -> int:
        rng = self._rng
        if self._stream_remaining <= 0 or self._stream_block is None:
            start_page = self.profile.page_base + rng.randrange(self.profile.num_pages)
            self._stream_block = start_page * BLOCKS_PER_PAGE + rng.randrange(BLOCKS_PER_PAGE)
            # Geometric run length with the configured mean.
            self._stream_remaining = max(1, int(rng.expovariate(1.0 / self.profile.stream_length_mean)) + 1)
        address = self._stream_block << self.layout.block_bits
        self._stream_block += 1
        self._stream_remaining -= 1
        return address

    def _noise_block_address(self) -> int:
        rng = self._rng
        page_number = self.profile.page_base + rng.randrange(self.profile.num_pages)
        block = rng.randrange(BLOCKS_PER_PAGE)
        return (page_number << self.layout.page_bits) | (block << self.layout.block_bits)

    def _pick_device(self, streaming: bool) -> DeviceID:
        if streaming:
            return DeviceID.GPU
        return self._rng.choices(self._devices, weights=self._device_weights, k=1)[0]

    def _maybe_switch_phase(self) -> None:
        """At phase boundaries, drift a fraction of page patterns.

        Models program-phase switches (§3.2): each page re-draws its
        footprint from the library with probability ``phase_drift``.
        Sub-run neighbours drift together, preserving the Figure-5
        structure across phases.
        """
        profile = self.profile
        if self._next_phase_switch is None or self._emitted < self._next_phase_switch:
            return
        self._next_phase_switch += profile.phase_length
        self.phase_switches += 1
        if profile.phase_drift <= 0.0:
            return
        rng = self._rng
        run = max(1, profile.pattern_run_length)
        for run_start in range(0, profile.num_pages, run):
            if rng.random() < profile.phase_drift:
                new_pattern = rng.choice(self._library)
                for page in range(run_start, min(run_start + run,
                                                 profile.num_pages)):
                    self._page_patterns[page] = new_pattern

    def _emit(self, length: int) -> Iterator[tuple]:
        """Yield ``length`` ``(address, access_type, device, arrival_time)``
        tuples in arrival-time order.

        This is the single emission loop behind both :meth:`records` (object
        API) and :meth:`columns` (column API): the RNG call sequence is
        identical either way, so a given ``(profile, seed, length)`` produces
        bit-identical traces through both.
        """
        if length < 0:
            raise ConfigError(f"length must be >= 0, got {length}")
        rng = self._rng
        profile = self.profile
        for _ in range(length):
            self._emitted += 1
            self._maybe_switch_phase()
            self._advance_clock()
            draw = rng.random()
            streaming = False
            if draw < profile.noise_fraction:
                address = self._noise_block_address()
            elif draw < profile.noise_fraction + profile.stream_fraction:
                address = self._stream_block_address()
                streaming = True
            else:
                address = self._episode_block_address()
            access_type = (
                AccessType.WRITE
                if rng.random() < profile.write_fraction
                else AccessType.READ
            )
            yield address, access_type, self._pick_device(streaming), self._clock

    def records(self, length: int) -> Iterator[TraceRecord]:
        """Yield ``length`` trace records in arrival-time order."""
        for address, access_type, device, arrival_time in self._emit(length):
            yield TraceRecord(
                address=address,
                access_type=access_type,
                device=device,
                arrival_time=arrival_time,
            )

    def columns(self, length: int):
        """Emit ``length`` records as four plain-int column lists.

        The column-list twin of :meth:`records`: no per-record object is
        allocated, which roughly halves generation time for benchmark-size
        traces.  Returns ``(addresses, access_types, devices,
        arrival_times)`` ready for :meth:`TraceBuffer.from_columns`.
        """
        addresses: List[int] = []
        access_types: List[int] = []
        devices: List[int] = []
        arrival_times: List[int] = []
        add_address = addresses.append
        add_type = access_types.append
        add_device = devices.append
        add_time = arrival_times.append
        for address, access_type, device, arrival_time in self._emit(length):
            add_address(address)
            add_type(int(access_type))
            add_device(int(device))
            add_time(arrival_time)
        return addresses, access_types, devices, arrival_times


def generate_trace(
    profile: WorkloadProfile,
    length: int,
    seed: int = 0,
    layout: AddressLayout = DEFAULT_LAYOUT,
) -> List[TraceRecord]:
    """Generate a full trace as a list (convenience wrapper).

    Args:
        profile: the application profile.
        length: number of records.
        seed: RNG seed; same (profile, seed, length) → identical trace.
        layout: address geometry (defaults to the paper's).
    """
    return list(TraceSynthesizer(profile, seed=seed, layout=layout).records(length))


def generate_trace_buffer(
    profile: WorkloadProfile,
    length: int,
    seed: int = 0,
    layout: AddressLayout = DEFAULT_LAYOUT,
):
    """Generate a full trace as a column-array :class:`TraceBuffer`.

    Bit-identical to ``TraceBuffer.from_records(generate_trace(...))`` for
    the same arguments (one shared emission loop, see
    :meth:`TraceSynthesizer._emit`) but never allocates record objects —
    this is the entry point the runner, executor workers and benchmarks use.
    """
    from repro.trace.buffer import TraceBuffer

    synthesizer = TraceSynthesizer(profile, seed=seed, layout=layout)
    return TraceBuffer.from_columns(*synthesizer.columns(length))
