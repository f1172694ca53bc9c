"""Vectorized address kernel for the batch engine.

:func:`decompose_chunk` is the whole-chunk NumPy counterpart of the
per-record address arithmetic the scalar loop does: one call decomposes an
entire :class:`~repro.trace.buffer.TraceBuffer` address column.  The
outputs are handed back as exact Python ints (``ndarray.tolist()``
converts in C), so the batch engine's bookkeeping arithmetic is
bit-identical to the scalar loop — the property suite in
``tests/test_batch_properties.py`` pins it element-wise against the scalar
helpers in :mod:`repro.geometry`.

NumPy shift/mask pitfall: an operand like ``2`` next to a ``uint64`` array
promotes the whole expression to ``float64`` and silently rounds addresses
above 2**53.  Every scalar operand below is therefore wrapped in
``np.uint64`` first.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geometry import AddressLayout

__all__ = [
    "decompose_chunk",
]


def decompose_chunk(
    addresses: np.ndarray, layout: AddressLayout
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """One-shot decomposition of an address column into Python-int lists.

    Returns ``(block_addrs, pages, block_in_segment, channel_block)`` — the
    four fields of :class:`~repro.prefetch.base.DemandAccess` the scalar
    loop derives per record, computed for the whole chunk in four
    vectorized passes.  ``tolist()`` yields exact Python ints, so every
    downstream comparison/dict key matches the scalar path bit-for-bit.
    """
    blocks = addresses >> np.uint64(layout.block_bits)
    pages = addresses >> np.uint64(layout.page_bits)
    offsets = blocks & np.uint64(layout.blocks_per_segment - 1)
    chan_blocks = pages * np.uint64(layout.blocks_per_segment) + offsets
    return (blocks.tolist(), pages.tolist(), offsets.tolist(),
            chan_blocks.tolist())

