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

Emission
--------

:meth:`TraceSynthesizer.columns` is the one emission loop; :meth:`records`
and both module-level wrappers are built on it.  The loop makes the same
``random.Random`` calls in the same order as the stdlib helpers it stands
in for, so a ``(profile, seed, length)`` triple names one trace:

* ``randrange(n)``/``randint`` are ``Random._randbelow``'s rejection loop
  on ``getrandbits(n.bit_length())``;
* ``expovariate(lambd)`` is ``-log(1.0 - random()) / lambd``;
* the weighted device draw is ``choices``' ``bisect`` of ``random() *
  total`` into the cumulative weights, computed once per synthesiser.

``tests/test_generator.py`` pins the sha256 of generated columns, so a
change that moves one draw fails there before it moves a figure.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import deque
from itertools import accumulate
from math import log
from typing import Deque, Iterator, List, Tuple

from repro.errors import ConfigError
from repro.geometry import AddressLayout, DEFAULT_LAYOUT
from repro.trace.buffer import TraceBuffer
from repro.trace.generator.patterns import (
    BLOCKS_PER_PAGE,
    assign_page_patterns,
    build_pattern_library,
)
from repro.trace.generator.profile import WorkloadProfile
from repro.trace.record import AccessType, DeviceID, TraceRecord

#: ``getrandbits`` width of ``randrange(BLOCKS_PER_PAGE)``.
_BLOCK_DRAW_BITS = BLOCKS_PER_PAGE.bit_length()


class _Episode:
    """One in-flight use of a page: its jittered footprint, shuffled.

    ``address`` is the page's byte address; ``index`` counts the blocks
    emitted so far, which are ``blocks[:index]``.
    """

    __slots__ = ("address", "blocks", "index")

    def __init__(self, address: int, blocks: List[int]) -> None:
        self.address = address
        self.blocks = blocks
        self.index = 0


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
        # Set-bit offsets of every library pattern, ascending: a page's
        # pattern is always a library entry, phase drift included.
        self._pattern_blocks = {
            pattern: [block for block in range(BLOCKS_PER_PAGE)
                      if pattern >> block & 1]
            for pattern in self._library
        }
        self._clock = 0
        self._episodes: List[_Episode] = []
        self._history: Deque[int] = deque(maxlen=profile.revisit_history)
        self._walk_position = self._rng.randrange(profile.num_pages)
        self._stream_block = 0
        self._stream_remaining = 0
        # ``Random.choices`` rebuilds these on every call.
        self._devices = [int(device) for device in profile.device_weights]
        self._device_cum_weights = list(accumulate(profile.device_weights.values()))
        self._generated = 0
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
        """Apply per-episode jitter to the page's base pattern.

        Each footprint block survives with probability
        ``snapshot_stability`` (one ``random()`` per set bit, ascending).
        """
        rng = self._rng
        draw = rng.random
        profile = self.profile
        stability = profile.snapshot_stability
        blocks = [
            block
            for block in self._pattern_blocks[self._page_patterns[page_index]]
            if draw() < stability
        ]
        if draw() < profile.extra_block_rate:
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
        entropy = self.profile.episode_order_entropy
        if entropy >= 1.0:
            self._rng.shuffle(blocks)
            return
        blocks.sort()
        if entropy <= 0.0:
            return
        last = len(blocks) - 1
        radius = max(1, int(entropy * len(blocks)))
        # rng.randint(0, radius), i.e. _randbelow(radius + 1).
        getrandbits = self._rng.getrandbits
        width = (radius + 1).bit_length()
        for index in range(len(blocks)):
            step = getrandbits(width)
            while step > radius:
                step = getrandbits(width)
            other = index + step
            if other > last:
                other = last
            blocks[index], blocks[other] = blocks[other], blocks[index]

    def _pick_page(self) -> int:
        """Choose the page for a new episode (revisit vs. wandering fresh)."""
        rng = self._rng
        profile = self.profile
        history = self._history
        if history and rng.random() < profile.page_revisit_rate:
            return history[rng.randrange(len(history))]
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
        address = (self.profile.page_base + page_index) << self.layout.page_bits
        return _Episode(address, self._jittered_footprint(page_index))

    def _switch_phase(self) -> None:
        """At a phase boundary, drift a fraction of page patterns.

        Models program-phase switches (§3.2): each page re-draws its
        footprint from the library with probability ``phase_drift``.
        Sub-run neighbours drift together, preserving the Figure-5
        structure across phases.
        """
        profile = self.profile
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

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def columns(
        self, length: int,
    ) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Emit the next ``length`` records as four plain-int column lists.

        Returns ``(addresses, access_types, devices, arrival_times)`` in
        arrival-time order, ready for :meth:`TraceBuffer.from_columns`.
        This is the synthesiser's one emission loop: consecutive calls
        continue one trace, so ``columns(a)`` then ``columns(b)`` equals
        ``columns(a + b)``.  Per record it draws, in order: the phase
        switch (at boundaries only), the inter-arrival gap, the component
        (noise, stream or episode) with that component's address draws
        (a finished episode's replacement included), read/write, and the
        device (not for stream records, which are GPU traffic).
        """
        if length < 0:
            raise ConfigError(f"length must be >= 0, got {length}")
        profile = self.profile
        rng = self._rng
        draw = rng.random
        getrandbits = rng.getrandbits
        new_episode = self._new_episode
        episodes = self._episodes
        slots = len(episodes)
        slot_bits = slots.bit_length()
        num_pages = profile.num_pages
        page_bits = num_pages.bit_length()
        page_base = profile.page_base
        page_shift = self.layout.page_bits
        block_shift = self.layout.block_bits
        noise_cut = profile.noise_fraction
        stream_cut = profile.noise_fraction + profile.stream_fraction
        reuse_rate = profile.intra_episode_reuse
        write_rate = profile.write_fraction
        clock_lambd = 1.0 / profile.interarrival_mean
        stream_lambd = 1.0 / profile.stream_length_mean
        device_codes = self._devices
        cum_weights = self._device_cum_weights
        weight_total = cum_weights[-1] + 0.0
        last_device = len(cum_weights) - 1
        gpu = int(DeviceID.GPU)
        read = int(AccessType.READ)
        write = int(AccessType.WRITE)
        phase_length = profile.phase_length
        next_switch = self._next_phase_switch
        generated = self._generated
        clock = self._clock
        stream_block = self._stream_block
        stream_remaining = self._stream_remaining

        addresses: List[int] = []
        access_types: List[int] = []
        devices: List[int] = []
        arrival_times: List[int] = []
        add_address = addresses.append
        add_type = access_types.append
        add_device = devices.append
        add_time = arrival_times.append
        for _ in range(length):
            generated += 1
            if generated == next_switch:
                next_switch += phase_length
                self._switch_phase()
            # Geometric inter-arrival with the configured mean (>= 1 cycle).
            clock += int(-log(1.0 - draw()) / clock_lambd) + 1
            component = draw()
            streaming = False
            if component < noise_cut:
                page = getrandbits(page_bits)
                while page >= num_pages:
                    page = getrandbits(page_bits)
                block = getrandbits(_BLOCK_DRAW_BITS)
                while block >= BLOCKS_PER_PAGE:
                    block = getrandbits(_BLOCK_DRAW_BITS)
                address = ((page_base + page) << page_shift) | (block << block_shift)
            elif component < stream_cut:
                if stream_remaining <= 0:
                    page = getrandbits(page_bits)
                    while page >= num_pages:
                        page = getrandbits(page_bits)
                    block = getrandbits(_BLOCK_DRAW_BITS)
                    while block >= BLOCKS_PER_PAGE:
                        block = getrandbits(_BLOCK_DRAW_BITS)
                    stream_block = (page_base + page) * BLOCKS_PER_PAGE + block
                    # Geometric run length with the configured mean.
                    stream_remaining = int(-log(1.0 - draw()) / stream_lambd) + 1
                address = stream_block << block_shift
                stream_block += 1
                stream_remaining -= 1
                streaming = True
            else:
                slot = getrandbits(slot_bits)
                while slot >= slots:
                    slot = getrandbits(slot_bits)
                episode = episodes[slot]
                emitted_blocks = episode.index
                if draw() < reuse_rate and emitted_blocks:
                    # Re-touch a block this episode already emitted.
                    width = emitted_blocks.bit_length()
                    pick = getrandbits(width)
                    while pick >= emitted_blocks:
                        pick = getrandbits(width)
                    block = episode.blocks[pick]
                else:
                    blocks = episode.blocks
                    block = blocks[emitted_blocks]
                    episode.index = emitted_blocks + 1
                    if emitted_blocks + 1 == len(blocks):
                        episodes[slot] = new_episode()
                address = episode.address | (block << block_shift)
            add_address(address)
            add_type(write if draw() < write_rate else read)
            add_device(gpu if streaming else device_codes[
                bisect(cum_weights, draw() * weight_total, 0, last_device)])
            add_time(clock)

        self._generated = generated
        self._next_phase_switch = next_switch
        self._clock = clock
        self._stream_block = stream_block
        self._stream_remaining = stream_remaining
        return addresses, access_types, devices, arrival_times

    def records(self, length: int) -> Iterator[TraceRecord]:
        """The next ``length`` records as :class:`TraceRecord` objects.

        The object view of :meth:`columns`, which it calls at once.
        """
        return TraceBuffer.from_columns(*self.columns(length)).iter_records()


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
) -> TraceBuffer:
    """Generate a full trace as a column-array :class:`TraceBuffer`.

    The entry point the runner, executor workers and benchmarks use: it
    packs :meth:`TraceSynthesizer.columns` without allocating a record
    object, and equals ``TraceBuffer.from_records(generate_trace(...))``
    for the same arguments, since both come from that one loop.
    """
    synthesizer = TraceSynthesizer(profile, seed=seed, layout=layout)
    return TraceBuffer.from_columns(*synthesizer.columns(length))
