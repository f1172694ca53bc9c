"""Vectorized address kernels for the batch engine.

Each function is a whole-chunk NumPy counterpart of per-record address
arithmetic the scalar loop does: one call decomposes an entire
:class:`~repro.trace.buffer.TraceBuffer` address column.  The outputs are
handed back as exact Python ints (``ndarray.tolist()`` converts in C), so
the batch engine's bookkeeping arithmetic is bit-identical to the scalar
loop — the property suite in ``tests/test_batch_properties.py`` pins each
kernel element-wise against the scalar helpers in :mod:`repro.geometry`
and :class:`repro.dram.address_mapping.AddressMapping`.

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
    "dram_bank_rows",
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


def dram_bank_rows(
    addresses: np.ndarray,
    block_bits: int,
    column_bits: int,
    bank_mask: int,
    bank_bits: int,
    rank_mask: int,
    rank_bits: int,
    num_banks: int,
) -> Tuple[List[int], List[int]]:
    """Whole-chunk DRAM bank-index / row decode (see AddressMapping.decode).

    Returns ``(bank_index, row)`` Python-int lists where ``bank_index`` is
    the flat ``rank * num_banks + bank`` index into ``DRAMChannel.banks``
    — exactly what ``DRAMChannel.service_scalar`` derives per request.
    The batch engine precomputes both columns so the demand-miss path
    reads them instead of running the five-step scalar decode inline.
    """
    blocks = addresses >> np.uint64(block_bits)
    remainder = blocks >> np.uint64(column_bits)
    bank = remainder & np.uint64(bank_mask)
    remainder = remainder >> np.uint64(bank_bits)
    if rank_bits:
        bank = bank + (remainder & np.uint64(rank_mask)) * np.uint64(num_banks)
        rows = remainder >> np.uint64(rank_bits)
    else:
        rows = remainder
    return bank.tolist(), rows.tolist()
