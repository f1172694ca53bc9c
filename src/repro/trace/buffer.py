"""Columnar (structure-of-arrays) trace representation.

The paper replays 66-71 M bus requests per workload; a Python object per
request is the single biggest simulation cost.  :class:`TraceBuffer` keeps
the four record fields as parallel NumPy arrays instead:

* ``addresses`` — ``uint64`` physical byte addresses,
* ``access_types`` — ``uint8`` :class:`~repro.trace.record.AccessType` values,
* ``devices`` — ``uint8`` :class:`~repro.trace.record.DeviceID` values,
* ``arrival_times`` — ``int64`` memory-controller cycles.

This is the canonical in-memory form: the generator fills columns directly,
:meth:`split_channels` routes the whole bus trace per channel in one
vectorized pass, the parallel executor ships arrays (compact buffers)
across process boundaries instead of pickling record-object lists, and the
engine's demand loop iterates the columns without materialising records.

The object-record API stays available as a thin compatibility layer:
:meth:`from_records` / :meth:`iter_records` / :meth:`to_records` convert
losslessly, and the engine accepts either form, packing a record list into
a buffer once before it simulates anything.  The column values are the
exact integers a :class:`~repro.trace.record.TraceRecord` would carry
(``.tolist()`` hands back Python ints) — ``tests/test_fastpath_equivalence.py``
and the golden-trace fixtures enforce this.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import TraceFormatError
from repro.geometry import AddressLayout
from repro.trace.record import AccessType, DeviceID, TraceRecord

#: Enum lookup tables indexed by stored value — avoids an enum construction
#: per record on the compatibility path.
_ACCESS_TYPE_BY_VALUE = {int(member): member for member in AccessType}
_DEVICE_BY_VALUE = {int(member): member for member in DeviceID}


class TraceBuffer:
    """One bus trace as four parallel NumPy columns.

    Instances are cheap to slice (shares memory), cheap to pickle (raw
    array buffers), and iterate ~10× faster through the engine's
    column-wise loops than the equivalent ``List[TraceRecord]``.
    """

    __slots__ = ("addresses", "access_types", "devices", "arrival_times")

    def __init__(
        self,
        addresses: np.ndarray,
        access_types: np.ndarray,
        devices: np.ndarray,
        arrival_times: np.ndarray,
    ) -> None:
        try:
            self.addresses = np.ascontiguousarray(addresses, dtype=np.uint64)
        except (OverflowError, ValueError) as exc:
            raise TraceFormatError(f"bad address column: {exc}") from exc
        self.access_types = np.ascontiguousarray(access_types, dtype=np.uint8)
        self.devices = np.ascontiguousarray(devices, dtype=np.uint8)
        try:
            self.arrival_times = np.ascontiguousarray(arrival_times,
                                                      dtype=np.int64)
        except (OverflowError, ValueError) as exc:
            raise TraceFormatError(f"bad arrival-time column: {exc}") from exc
        length = len(self.addresses)
        if not (len(self.access_types) == len(self.devices)
                == len(self.arrival_times) == length):
            raise TraceFormatError(
                "column length mismatch: "
                f"{length} addresses, {len(self.access_types)} types, "
                f"{len(self.devices)} devices, {len(self.arrival_times)} times"
            )
        if length:
            # Mirror TraceRecord.__post_init__ / enum validation in bulk.
            if int(self.arrival_times.min()) < 0:
                raise TraceFormatError("negative arrival time in trace buffer")
            if int(self.access_types.max()) not in _ACCESS_TYPE_BY_VALUE:
                raise TraceFormatError("unknown access type value in trace buffer")
            if int(self.devices.max()) not in _DEVICE_BY_VALUE:
                raise TraceFormatError("unknown device value in trace buffer")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        addresses: Sequence[int],
        access_types: Sequence[int],
        devices: Sequence[int],
        arrival_times: Sequence[int],
    ) -> "TraceBuffer":
        """Build from plain integer sequences (the generator's output)."""
        return cls(addresses, access_types, devices, arrival_times)

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceBuffer":
        """Pack object records into columns (compatibility layer)."""
        addresses: List[int] = []
        access_types: List[int] = []
        devices: List[int] = []
        arrival_times: List[int] = []
        for record in records:
            addresses.append(record.address)
            access_types.append(int(record.access_type))
            devices.append(int(record.device))
            arrival_times.append(record.arrival_time)
        return cls.from_columns(addresses, access_types, devices, arrival_times)

    @classmethod
    def empty(cls) -> "TraceBuffer":
        return cls.from_columns([], [], [], [])

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, index):
        """``buffer[i]`` → TraceRecord; ``buffer[a:b]`` → TraceBuffer view."""
        if isinstance(index, slice):
            return TraceBuffer(
                self.addresses[index], self.access_types[index],
                self.devices[index], self.arrival_times[index],
            )
        return self.record(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceBuffer):
            return NotImplemented
        return (
            np.array_equal(self.addresses, other.addresses)
            and np.array_equal(self.access_types, other.access_types)
            and np.array_equal(self.devices, other.devices)
            and np.array_equal(self.arrival_times, other.arrival_times)
        )

    def __repr__(self) -> str:
        return f"TraceBuffer({len(self)} records, {self.nbytes} bytes)"

    @property
    def nbytes(self) -> int:
        """Total column payload in bytes (18 B/record vs ~200 B/object)."""
        return (self.addresses.nbytes + self.access_types.nbytes
                + self.devices.nbytes + self.arrival_times.nbytes)

    # ------------------------------------------------------------------
    # Record-object compatibility layer
    # ------------------------------------------------------------------
    def record(self, index: int) -> TraceRecord:
        """Materialise one record (bit-identical to the packed values)."""
        return TraceRecord(
            address=int(self.addresses[index]),
            access_type=_ACCESS_TYPE_BY_VALUE[int(self.access_types[index])],
            device=_DEVICE_BY_VALUE[int(self.devices[index])],
            arrival_time=int(self.arrival_times[index]),
        )

    def iter_records(self) -> Iterator[TraceRecord]:
        """Yield TraceRecord objects for consumers of the object API."""
        type_table = _ACCESS_TYPE_BY_VALUE
        device_table = _DEVICE_BY_VALUE
        for address, type_value, device_value, arrival_time in zip(
            self.addresses.tolist(), self.access_types.tolist(),
            self.devices.tolist(), self.arrival_times.tolist(),
        ):
            yield TraceRecord(
                address=address,
                access_type=type_table[type_value],
                device=device_table[device_value],
                arrival_time=arrival_time,
            )

    def to_records(self) -> List[TraceRecord]:
        return list(self.iter_records())

    def columns_as_lists(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """The four columns as Python-int lists (the fast loop's input).

        ``ndarray.tolist()`` converts in C and hands back exact Python
        ints, so downstream arithmetic matches the record objects' exactly.
        """
        return (
            self.addresses.tolist(),
            self.access_types.tolist(),
            self.devices.tolist(),
            self.arrival_times.tolist(),
        )

    # ------------------------------------------------------------------
    # Vectorized routing
    # ------------------------------------------------------------------
    def channel_indices(self, layout: AddressLayout) -> np.ndarray:
        """Per-record DRAM channel, computed in one vectorized pass."""
        block_in_page = (
            (self.addresses >> np.uint64(layout.block_bits))
            & np.uint64(layout.blocks_per_page - 1)
        )
        return (block_in_page >> np.uint64(layout.segment_bits)).astype(np.int64)

    def split_channels(self, layout: AddressLayout) -> List["TraceBuffer"]:
        """Route the bus trace per channel, preserving arrival order.

        Replaces the engine's per-record routing loop: boolean-mask
        indexing keeps each channel's records in original (arrival) order,
        exactly as appending to per-channel lists would.
        """
        channels = self.channel_indices(layout)
        streams: List[TraceBuffer] = []
        for channel in range(layout.num_channels):
            mask = channels == channel
            streams.append(TraceBuffer(
                self.addresses[mask], self.access_types[mask],
                self.devices[mask], self.arrival_times[mask],
            ))
        return streams
