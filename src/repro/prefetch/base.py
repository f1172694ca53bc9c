"""Prefetcher interface and the demand-access view prefetchers receive.

Design note — decoupled learning and issuing (Section 2): the engine calls
:meth:`Prefetcher.observe` for *every* demand access (the learning phase is
always on, "full-pattern directed"), and :meth:`Prefetcher.issue`
separately to ask for prefetch candidates.  Planaria's coordinator relies
on this split to train both sub-prefetchers in parallel while letting only
one issue; monolithic baselines simply implement both methods.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import List

from repro.geometry import AddressLayout
from repro.obs.events import NULL_TRACER
from repro.trace.record import DeviceID


@dataclass(frozen=True)
class DemandAccess:
    """A demand access as seen by one channel's prefetcher.

    All address decomposition is done once by the engine:

    Attributes:
        block_addr: global block address (byte address >> block bits).
        page: page number (PN) — the paper's table signature.
        block_in_segment: 0..15 position inside this channel's segment,
            i.e. the bit index in SLP/TLP bitmaps.
        channel_block: channel-local *contiguous* block index
            (``page * blocks_per_segment + block_in_segment``); gives BOP
            and SPP a linear address space in which cross-page offsets make
            sense.
        time: arrival cycle.
        is_read: demand reads vs writes.
        device: requesting SoC device.
    """

    block_addr: int
    page: int
    block_in_segment: int
    channel_block: int
    time: int
    is_read: bool
    device: DeviceID


class PrefetchCandidate:
    """One block a prefetcher wants brought into the SC.

    A ``__slots__`` value class rather than a frozen dataclass: candidate
    construction sits on the hot issuing path (tens of thousands per run)
    and the ``object.__setattr__``-based frozen-dataclass ``__init__`` is
    several times slower.  Value semantics (eq/hash/repr) are preserved;
    treat instances as immutable.
    """

    __slots__ = ("block_addr", "source")

    def __init__(self, block_addr: int, source: str) -> None:
        if block_addr < 0:
            raise ValueError(f"negative block address {block_addr}")
        self.block_addr = block_addr
        self.source = source

    def __eq__(self, other: object) -> bool:
        return (type(other) is PrefetchCandidate
                and self.block_addr == other.block_addr
                and self.source == other.source)

    def __hash__(self) -> int:
        return hash((self.block_addr, self.source))

    def __repr__(self) -> str:
        return (f"PrefetchCandidate(block_addr={self.block_addr!r}, "
                f"source={self.source!r})")


@dataclass
class PrefetcherActivityCounters:
    """Metadata-table activity, consumed by the power model."""

    table_reads: int = 0
    table_writes: int = 0

    def merge(self, other: "PrefetcherActivityCounters") -> None:
        self.table_reads += other.table_reads
        self.table_writes += other.table_writes


class Prefetcher(abc.ABC):
    """Base class for all memory-side prefetchers.

    One instance serves one channel; it sees only that channel's segment of
    every page (``blocks_per_segment`` = 16 blocks in the default layout).
    """

    name = "base"

    #: True when ``observe``/``issue`` are pure no-ops (no state, no
    #: counters, no candidates) — the batch engine's demand-only loop then
    #: skips the prefetcher machinery per record entirely.  Only set this
    #: on a subclass whose learning and issuing phases touch nothing.
    passive = False

    #: Event tracer and lineage collector hooks (repro.obs), set on each
    #: :meth:`chain` link by ``ChannelSimulator.wire_hooks``.  Class
    #: attributes, so unwired prefetchers carry no per-instance state;
    #: hook sites guard with ``tracer.enabled`` / ``lineage is not
    #: None``, off the per-record fast loop entirely.
    tracer = NULL_TRACER
    lineage = None

    #: Attributes holding the prefetchers this one composes.
    _LINKS = ()

    def __init__(self, layout: AddressLayout, channel: int) -> None:
        if not 0 <= channel < layout.num_channels:
            raise ValueError(
                f"channel {channel} out of range 0..{layout.num_channels - 1}"
            )
        self.layout = layout
        self.channel = channel
        self.activity = PrefetcherActivityCounters()
        self.issued_candidates = 0
        # Precomputed pieces of layout.compose(page, channel, offset) >>
        # block_bits, so :meth:`_candidate` builds a block address with two
        # shifts and two ORs instead of three nested calls (hot issuing
        # path).  Inputs are trusted there: pages come from table keys and
        # offsets from 16-bit bitmap positions, both validated on entry.
        self._page_shift = layout.page_bits - layout.block_bits
        self._channel_bits = channel << layout.segment_bits

    def chain(self) -> List["Prefetcher"]:
        """This prefetcher and every prefetcher it composes, each once,
        outermost first (e.g. throttle, planaria, slp, tlp)."""
        links = [self]
        for link in links:
            for attr in link._LINKS:
                nested = getattr(link, attr)
                if nested not in links:
                    links.append(nested)
        return links

    # ------------------------------------------------------------------
    # The learning / issuing split
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def observe(self, access: DemandAccess) -> None:
        """Learning phase: fold one demand access into the metadata."""

    @abc.abstractmethod
    def issue(self, access: DemandAccess, was_hit: bool,
              prefetched_hit: bool = False) -> List[PrefetchCandidate]:
        """Issuing phase: propose prefetches triggered by this access.

        Args:
            was_hit: the access hit in the SC.
            prefetched_hit: the hit was the first demand touch of a
                prefetched block — the classic secondary trigger (Michaud's
                BOP trains on misses *and* prefetched hits).
        """

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total metadata storage in bits (for the 345.2 KB budget check)."""

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    #: Instance attributes excluded from :meth:`state_dict` — immutable
    #: construction parameters a freshly built prefetcher already
    #: carries, plus this link's own hooks (the target keeps its own).
    _STATE_EXCLUDE = ("layout", "tracer", "lineage", "_page_shift",
                      "_channel_bits")

    def state_dict(self) -> dict:
        """Deep snapshot of all mutable prefetcher state, hooks excluded.

        The default implementation captures the whole instance dict (minus
        :attr:`_STATE_EXCLUDE`) in one :func:`copy.deepcopy` pass — one
        memo, so intra-state sharing (e.g. a composite prefetcher holding
        its sub-prefetchers both as attributes and in a list) survives the
        round trip.  The memo maps every :meth:`chain` link's hooks to
        ``NULL_TRACER``/``None``, so no hook object is copied at any
        depth: collectors checkpoint themselves, and
        ``ChannelSimulator.load_state`` re-wires the restored chain.
        """
        memo: dict = {}
        for link in self.chain():
            memo[id(link.tracer)] = NULL_TRACER
            memo[id(link.lineage)] = None
        return copy.deepcopy({
            key: value for key, value in self.__dict__.items()
            if key not in self._STATE_EXCLUDE
        }, memo)

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Must be called on an instance built with the same layout/channel/
        configuration as the snapshot's source (the registry factory
        guarantees this for checkpoint restores).
        """
        self.__dict__.update(copy.deepcopy(state))

    # ------------------------------------------------------------------
    # Batch-engine contract (see repro.sim.batch)
    # ------------------------------------------------------------------
    def hit_trigger_noop(self) -> bool:
        """True when ``issue(access, was_hit=True, ...)`` cannot change any
        state or produce candidates, so the batch engine may skip the call
        on cache hits entirely (compensating counters via
        :meth:`skip_hit_triggers`).  Conservative default: False.
        """
        return False

    def skip_hit_triggers(self, count: int) -> None:
        """Account for ``count`` hit-triggered ``issue`` calls the batch
        engine skipped under :meth:`hit_trigger_noop`.  Prefetchers whose
        hit-path ``issue`` increments a counter (e.g. Planaria's
        ``coord_neither``) override this to apply the increment in bulk;
        the default hit path touches nothing, so this is a no-op.
        """

    def supports_observe_run(self) -> bool:
        """True when :meth:`observe_run` folds a run of consecutive
        same-page accesses bit-identically to per-access ``observe`` calls
        *in the current configuration* (implementations must return False
        while their event tracer is enabled — batched folding would
        re-stamp event times).  Conservative default: False.
        """
        return False

    def observe_run(self, page: int, offsets: List[int],
                    times: List[int]) -> None:
        """Learning phase over a run of same-page accesses (batched).

        ``offsets[k]``/``times[k]`` describe the k-th access of the run;
        times are non-decreasing.  Only called when
        :meth:`supports_observe_run` returned True for this chunk.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support observe_run")

    # ------------------------------------------------------------------
    # Optional engine feedback (see repro.prefetch.throttle)
    # ------------------------------------------------------------------
    def notify_useful(self) -> None:
        """A fill issued by this prefetcher served a demand access."""

    def notify_unused(self) -> None:
        """A fill issued by this prefetcher was evicted untouched."""

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def compose_block_addr(self, page: int, block_in_segment: int) -> int:
        """(PN, segment bit) → global block address on this channel."""
        byte_addr = self.layout.compose(page, self.channel, block_in_segment)
        return byte_addr >> self.layout.block_bits

    def channel_block_to_block_addr(self, channel_block: int) -> int:
        """Inverse of ``DemandAccess.channel_block``."""
        per_segment = self.layout.blocks_per_segment
        page, offset = divmod(channel_block, per_segment)
        return self.compose_block_addr(page, offset)

    def _candidate(self, page: int, block_in_segment: int) -> PrefetchCandidate:
        # (page << page_shift) | channel_bits | offset ==
        # compose_block_addr(page, block_in_segment); see __init__.
        self.issued_candidates += 1
        return PrefetchCandidate(
            (page << self._page_shift) | self._channel_bits
            | block_in_segment,
            self.name,
        )
