"""System-cache substrate: a set-associative cache with pluggable
replacement policies and prefetch-fill tracking.

The paper's system cache (SC) is 4 MB / 16-way / 64 B blocks in total,
sliced per DRAM channel (Table 1, Section 3.2).  Each slice is one
:class:`~repro.cache.cache.SetAssociativeCache` on the scalar engine (the
reference, and the only backend with non-LRU policies) or one
:class:`~repro.cache.array_state.ArrayCache`, the batch engine's LRU state
container.  Traces are split across slices by
:meth:`repro.trace.buffer.TraceBuffer.split_channels`.
"""

from repro.cache.block import CacheBlock, EvictionInfo
from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.replacement import make_policy, REPLACEMENT_POLICIES

__all__ = [
    "CacheBlock",
    "EvictionInfo",
    "AccessResult",
    "SetAssociativeCache",
    "make_policy",
    "REPLACEMENT_POLICIES",
]
