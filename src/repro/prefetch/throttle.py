"""Accuracy-feedback prefetch throttling (extension beyond the paper).

The paper's setting — a power-constrained phone — motivates shutting a
prefetcher down when it wastes bandwidth.  :class:`AccuracyThrottle` wraps
any :class:`~repro.prefetch.base.Prefetcher` and gates its *issuing* phase
on recently observed usefulness, fed back by the simulation engine:

* every prefetch fill opens an outcome slot;
* the engine reports each first demand hit to a prefetched block
  (:meth:`notify_useful`) and each unused-prefetch eviction
  (:meth:`notify_unused`);
* a windowed usefulness estimate below ``low_watermark`` suspends issuing
  (learning continues — the decoupling Planaria itself argues for) until
  the estimate recovers above ``high_watermark``.

The wrapper is transparent: candidates keep their inner source names, so
Figure-9 attribution still works when wrapping Planaria.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.prefetch.base import DemandAccess, PrefetchCandidate, Prefetcher


class AccuracyThrottle(Prefetcher):
    """Usefulness-gated wrapper around another prefetcher."""

    _LINKS = ("inner",)

    def __init__(self, inner: Prefetcher,
                 window: int = 128,
                 low_watermark: float = 0.35,
                 high_watermark: float = 0.55,
                 min_samples: int = 32) -> None:
        if not 0.0 <= low_watermark <= high_watermark <= 1.0:
            raise ValueError(
                f"need 0 <= low ({low_watermark}) <= high ({high_watermark}) <= 1"
            )
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        super().__init__(inner.layout, inner.channel)
        self.inner = inner
        self.name = f"{inner.name}+throttle"
        self.window = window
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self.min_samples = min_samples
        self._outcomes: Deque[int] = deque(maxlen=window)
        self._suspended = False
        self.suspensions = 0
        self.dropped_while_suspended = 0
        # Engine feedback callbacks carry no timestamp, so transitions are
        # stamped with the most recent demand-access time seen.
        self._last_time = 0

    # ------------------------------------------------------------------
    # Feedback from the engine
    # ------------------------------------------------------------------
    def notify_useful(self) -> None:
        """One of this prefetcher's fills served a demand."""
        self._outcomes.append(1)
        self._update_state()

    def notify_unused(self) -> None:
        """One of this prefetcher's fills was evicted untouched."""
        self._outcomes.append(0)
        self._update_state()

    @property
    def usefulness(self) -> Optional[float]:
        """Windowed useful fraction, or None before ``min_samples``."""
        if len(self._outcomes) < self.min_samples:
            return None
        return sum(self._outcomes) / len(self._outcomes)

    @property
    def suspended(self) -> bool:
        return self._suspended

    def _update_state(self) -> None:
        usefulness = self.usefulness
        if usefulness is None:
            return
        if self._suspended:
            if usefulness >= self.high_watermark:
                self._suspended = False
                if self.tracer.enabled:
                    self.tracer.emit("throttle_resumed", self._last_time,
                                     usefulness=usefulness)
        elif usefulness < self.low_watermark:
            self._suspended = True
            self.suspensions += 1
            if self.tracer.enabled:
                self.tracer.emit("throttle_suspended", self._last_time,
                                 usefulness=usefulness)

    # ------------------------------------------------------------------
    # Prefetcher interface (delegation)
    # ------------------------------------------------------------------
    def observe(self, access: DemandAccess) -> None:
        # Learning is never throttled — the decoupling principle.
        self._last_time = access.time
        self.inner.observe(access)

    # ------------------------------------------------------------------
    # Batch-engine contract (delegation)
    # ------------------------------------------------------------------
    def hit_trigger_noop(self) -> bool:
        # A hit-noop inner issue returns [] before the suspension branch,
        # so the wrapper's hit path touches nothing either.
        return self.inner.hit_trigger_noop()

    def skip_hit_triggers(self, count: int) -> None:
        self.inner.skip_hit_triggers(count)

    def supports_observe_run(self) -> bool:
        return not self.tracer.enabled and self.inner.supports_observe_run()

    def observe_run(self, page: int, offsets, times) -> None:
        self._last_time = times[-1]
        self.inner.observe_run(page, offsets, times)

    def issue(self, access: DemandAccess, was_hit: bool,
              prefetched_hit: bool = False) -> List[PrefetchCandidate]:
        candidates = self.inner.issue(access, was_hit, prefetched_hit)
        if self._suspended:
            self.dropped_while_suspended += len(candidates)
            if self.lineage is not None and candidates:
                self.lineage.note_suppressed(candidates)
            return []
        self.issued_candidates += len(candidates)
        return candidates

    def storage_bits(self) -> int:
        # Window of 1-bit outcomes + two counters.
        return self.inner.storage_bits() + self.window + 16

    @property
    def activity(self):  # type: ignore[override]
        return self.inner.activity

    @activity.setter
    def activity(self, value) -> None:
        pass  # derived from the wrapped prefetcher
