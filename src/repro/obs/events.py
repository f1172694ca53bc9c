"""Structured event tracing: a bounded, optionally sampled ring buffer.

Timelines (:mod:`repro.obs.timeline`) answer "how much, when"; events
answer "what happened".  An :class:`EventTracer` records *rare-path*
simulator occurrences — an SLP snapshot completing, a PHT pattern being
evicted, a TLP neighbour borrow, a throttle state flip, a checkpoint —
as typed :class:`TraceEvent` records with a stable schema, into a ring
buffer bounded by ``capacity`` (old events fall off the front).

Hot-path contract: every emission site guards with ``tracer.enabled``
before building the event payload, and the default tracer on every
prefetcher is the shared :data:`NULL_TRACER` singleton whose ``enabled``
is ``False`` — a disabled trace point costs one attribute load and one
branch, on paths that are already off the per-record fast loop.

Sampling: ``sample_interval=k`` keeps every k-th emission *per kind*
(deterministic — the phase is part of the tracer state), so a noisy
event kind cannot evict the rare interesting ones from the ring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List

#: Bump on any incompatible change to the event payload layout.
EVENT_SCHEMA_VERSION = 1

#: The stable event vocabulary and each kind's ``data`` fields.
EVENT_KINDS = {
    "slp_snapshot_learned": ("page", "bitmap", "blocks"),
    "slp_pattern_evicted": ("page", "bitmap"),
    "tlp_transfer": ("page", "neighbour_page", "blocks"),
    "throttle_suspended": ("usefulness",),
    "throttle_resumed": ("usefulness",),
    "checkpoint_saved": ("records_fed",),
    "checkpoint_restored": ("records_fed",),
}


@dataclass(frozen=True)
class TraceEvent:
    """One typed simulator event.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        time: simulation cycle of the triggering access (service-level
            events use the session's record position instead).
        channel: emitting channel, or -1 for system-level events.
        seq: per-tracer emission ordinal — stable tie-break for events
            sharing a cycle, and the sampling survivor's original index.
        data: kind-specific payload (JSON-safe scalars only).
    """

    kind: str
    time: int
    channel: int
    seq: int
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "time": self.time,
                "channel": self.channel, "seq": self.seq, "data": self.data}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        return cls(kind=payload["kind"], time=payload["time"],
                   channel=payload["channel"], seq=payload["seq"],
                   data=dict(payload.get("data", {})))


class EventTracer:
    """Bounded ring buffer of :class:`TraceEvent`, one per channel."""

    enabled = True

    def __init__(self, channel: int = -1, capacity: int = 1024,
                 sample_interval: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample_interval < 1:
            raise ValueError(
                f"sample_interval must be >= 1, got {sample_interval}")
        self.channel = channel
        self.capacity = capacity
        self.sample_interval = sample_interval
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        #: Emissions *attempted* per kind (pre-sampling, never truncated) —
        #: the denominator that makes the sampled ring interpretable.
        self.emitted: Dict[str, int] = {}
        self._seq = 0

    def emit(self, kind: str, time: int, **data: Any) -> None:
        """Record one event (subject to sampling).  Rare-path only."""
        count = self.emitted.get(kind, 0)
        self.emitted[kind] = count + 1
        if count % self.sample_interval:
            return
        seq = self._seq
        self._seq = seq + 1
        self._events.append(
            TraceEvent(kind=kind, time=time, channel=self.channel,
                       seq=seq, data=data))

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "events": [event.to_dict() for event in self._events],
            "emitted": dict(self.emitted),
            "seq": self._seq,
        }

    def load_state(self, state: dict) -> None:
        self._events = deque(
            (TraceEvent.from_dict(payload) for payload in state["events"]),
            maxlen=self.capacity)
        self.emitted = dict(state["emitted"])
        self._seq = state["seq"]


class _NullTracer:
    """Shared no-op tracer: the disabled-hooks default on every prefetcher.

    ``enabled`` is False, so guarded emission sites never even build the
    payload; ``emit`` exists for unguarded callers.  Pickling anywhere
    (parallel executor, checkpoints) resolves back to the singleton.
    """

    __slots__ = ()
    enabled = False

    def emit(self, kind: str, time: int, **data: Any) -> None:
        pass

    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def __reduce__(self):
        return (_resolve_null_tracer, ())


def _resolve_null_tracer() -> "_NullTracer":
    return NULL_TRACER


NULL_TRACER = _NullTracer()


def merge_events(tracers: Iterable[EventTracer]) -> List[TraceEvent]:
    """All retained events across tracers in (time, channel, seq) order."""
    merged: List[TraceEvent] = []
    for tracer in tracers:
        merged.extend(tracer.events())
    merged.sort(key=lambda event: (event.time, event.channel, event.seq))
    return merged
