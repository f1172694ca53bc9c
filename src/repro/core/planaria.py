"""Planaria — the composite prefetcher with its coordinator (Section 2).

The coordinator's insight is to **decouple learning from issuing**:

* **Parallel training** — both sub-prefetchers observe *every* demand
  access, so each learns from the complete stream ("full-pattern
  directed").
* **Serial issuing** — exactly one sub-prefetcher issues per trigger: SLP
  preferentially, TLP only when SLP has no history for the page.  This
  keeps accuracy high (SLP's self-learned pattern beats a transferred one
  when available) without sacrificing coverage (TLP catches the pages SLP
  must pass on).

Two ablation coordinators reproduce the prior-art behaviours the paper
contrasts against (Section 7):

* ``serial`` — TPC-style monolithic serial coordination: the selected
  sub-prefetcher both learns *and* issues; the other sees nothing.  TLP
  then trains only on SLP's leftovers and its coverage collapses.
* ``parallel`` — ISB-style: both learn and both issue; coverage union but
  accuracy suffers (duplicate and lower-confidence prefetches go out).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import PlanariaConfig
from repro.geometry import AddressLayout
from repro.prefetch.base import DemandAccess, PrefetchCandidate, Prefetcher
from repro.core.slp import SLPPrefetcher
from repro.core.tlp import TLPPrefetcher


class PlanariaPrefetcher(Prefetcher):
    """SLP + TLP under the decoupled coordinator."""

    name = "planaria"
    _LINKS = ("slp", "tlp")

    def __init__(self, layout: AddressLayout, channel: int,
                 config: Optional[PlanariaConfig] = None) -> None:
        super().__init__(layout, channel)
        self.config = config or PlanariaConfig()
        self.slp = SLPPrefetcher(layout, channel, self.config.slp)
        self.tlp = TLPPrefetcher(layout, channel, self.config.tlp)
        self.slp_issues = 0
        self.tlp_issues = 0
        # Arbitration outcomes per trigger: which way the coordinator's
        # selection went and whether the selected issuer produced
        # candidates.  Cheap (one branch + one increment per trigger) and
        # always on, so timelines can slice them into epochs.
        self.coord_slp_issued = 0
        self.coord_tlp_fallback = 0
        self.coord_neither = 0

    # ------------------------------------------------------------------
    def observe(self, access: DemandAccess) -> None:
        page = access.page
        offset = access.block_in_segment
        now = access.time
        if self.config.coordinator == "serial":
            # Monolithic serial coordination: only the sub-prefetcher that
            # would issue for this page gets to learn from the access.
            if self.slp.has_pattern(page):
                self.slp.observe_fields(page, offset, now)
            else:
                # SLP must still build patterns, but TLP sees only SLP's
                # gaps.
                self.slp.observe_fields(page, offset, now)
                self.tlp.observe_fields(page, offset, now)
            return
        # "decoupled" and "parallel" both train everything on everything.
        self.slp.observe_fields(page, offset, now)
        self.tlp.observe_fields(page, offset, now)

    # ------------------------------------------------------------------
    # Batch-engine contract
    # ------------------------------------------------------------------
    def hit_trigger_noop(self) -> bool:
        # On a hit both sub-issuers return [] before touching state, so
        # the only effect of a hit trigger — in every coordinator mode —
        # is one coord_neither increment, applied via skip_hit_triggers.
        return (self.slp.hit_trigger_noop() and self.tlp.hit_trigger_noop())

    def skip_hit_triggers(self, count: int) -> None:
        self.coord_neither += count

    def supports_observe_run(self) -> bool:
        # The serial coordinator branches per access on has_pattern(),
        # which SLP expiry can flip mid-run — no sound batched form.
        return (self.config.coordinator != "serial"
                and self.slp.supports_observe_run()
                and self.tlp.supports_observe_run())

    def observe_run(self, page: int, offsets, times) -> None:
        if len(offsets) == 1:
            # The batch loop flushes its open run at every miss, so most
            # runs hold one access: skip the sub-prefetchers' run wrappers.
            offset = offsets[0]
            now = times[0]
            self.slp.observe_fields(page, offset, now)
            self.tlp.observe_fields(page, offset, now)
            return
        self.slp.observe_run(page, offsets, times)
        self.tlp.observe_run(page, offsets, times)

    def issue(self, access: DemandAccess, was_hit: bool,
              prefetched_hit: bool = False) -> List[PrefetchCandidate]:
        mode = self.config.coordinator
        if mode == "parallel":
            slp_candidates = self.slp.issue(access, was_hit, prefetched_hit)
            tlp_candidates = self.tlp.issue(access, was_hit, prefetched_hit)
            if slp_candidates:
                self.coord_slp_issued += 1
            if tlp_candidates:
                self.coord_tlp_fallback += 1
            elif not slp_candidates:
                self.coord_neither += 1
            self.slp_issues += len(slp_candidates)
            self.tlp_issues += len(tlp_candidates)
            candidates = slp_candidates + tlp_candidates
            self.issued_candidates += len(candidates)
            return candidates
        # Decoupled (the paper's design) and serial both select one issuer;
        # the selection rule prefers SLP and falls back to TLP only when
        # SLP has no history information for this page (Section 2).  The
        # selected issuer produced every candidate, so the per-source
        # counts are plain length increments.
        slp = self.slp
        if access.page in slp._pattern_table:  # slp.has_pattern, inlined
            candidates = slp.issue(access, was_hit, prefetched_hit)
            if candidates:
                self.coord_slp_issued += 1
                self.slp_issues += len(candidates)
                self.issued_candidates += len(candidates)
            else:
                self.coord_neither += 1
            return candidates
        candidates = self.tlp.issue(access, was_hit, prefetched_hit)
        if candidates:
            self.coord_tlp_fallback += 1
            self.tlp_issues += len(candidates)
            self.issued_candidates += len(candidates)
        else:
            self.coord_neither += 1
        return candidates

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        return self.slp.storage_bits() + self.tlp.storage_bits()

    @property
    def activity(self):  # type: ignore[override]
        """Aggregated metadata activity of both sub-prefetchers."""
        from repro.prefetch.base import PrefetcherActivityCounters

        merged = PrefetcherActivityCounters()
        merged.merge(self.slp.activity)
        merged.merge(self.tlp.activity)
        return merged

    @activity.setter
    def activity(self, value) -> None:
        # Prefetcher.__init__ assigns a fresh counter; the composite's
        # activity is always derived from its parts, so the base-class
        # assignment is accepted and ignored.
        pass
