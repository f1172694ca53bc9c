"""Trace file readers and writers.

Two interchangeable formats:

* **CSV** — human-readable, one ``address,type,device,arrival_time`` line per
  record, ``#`` comments allowed.  Good for small fixtures and debugging.
* **Packed binary** — fixed 16-byte little-endian records
  (``<QBBxxxxxx`` would waste space; we use ``<QIHBB``:
  48-bit-capable address in a u64, u32 arrival-time delta, u16 reserved,
  u8 type, u8 device).  Good for the multi-hundred-thousand-record
  benchmark traces.

Binary files start with an 8-byte magic + u32 record count header so a
truncated file is detected instead of silently yielding garbage.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator, List, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.buffer import TraceBuffer
from repro.trace.record import AccessType, DeviceID, TraceRecord

_MAGIC = b"PLNRTRC1"
_HEADER = struct.Struct("<8sI")
_RECORD = struct.Struct("<QQBB")
#: NumPy view of one packed record — same 18-byte layout as ``_RECORD``
#: (``<`` disables struct padding, and the dtype is unaligned by default),
#: so the buffer reader/writer and the object reader/writer are
#: byte-interchangeable.
_RECORD_DTYPE = np.dtype([
    ("address", "<u8"),
    ("arrival_time", "<u8"),
    ("access_type", "u1"),
    ("device", "u1"),
])
assert _RECORD_DTYPE.itemsize == _RECORD.size

PathLike = Union[str, Path]


def write_trace(path: PathLike, records: Iterable[TraceRecord]) -> int:
    """Write records as CSV; returns the number of records written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# address,access_type,device,arrival_time\n")
        for record in records:
            handle.write(record.to_csv_row() + "\n")
            count += 1
    return count


def read_trace(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a CSV trace, skipping blank and ``#`` lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                yield TraceRecord.from_csv_row(stripped)
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}:{line_number}: {exc}") from exc


def write_trace_binary(path: PathLike, records: Iterable[TraceRecord]) -> int:
    """Write records in the packed binary format; returns the record count."""
    body: List[bytes] = []
    for record in records:
        body.append(
            _RECORD.pack(
                record.address,
                record.arrival_time,
                int(record.access_type),
                int(record.device),
            )
        )
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, len(body)))
        handle.write(b"".join(body))
    return len(body)


def read_trace_binary(path: PathLike) -> List[TraceRecord]:
    """Read a packed binary trace fully into memory.

    Raises:
        TraceFormatError: on a bad magic, truncated body, or corrupt record.
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        body = handle.read()
    expected = count * _RECORD.size
    if len(body) != expected:
        raise TraceFormatError(
            f"{path}: expected {expected} body bytes for {count} records, got {len(body)}"
        )
    records: List[TraceRecord] = []
    for offset in range(0, expected, _RECORD.size):
        address, arrival_time, type_value, device_value = _RECORD.unpack_from(body, offset)
        try:
            records.append(
                TraceRecord(
                    address=address,
                    arrival_time=arrival_time,
                    access_type=AccessType(type_value),
                    device=DeviceID(device_value),
                )
            )
        except ValueError as exc:
            raise TraceFormatError(f"{path}: corrupt record at byte {offset}") from exc
    return records


# ----------------------------------------------------------------------
# Columnar (TraceBuffer) I/O
# ----------------------------------------------------------------------
def read_trace_buffer(path: PathLike) -> TraceBuffer:
    """Read a CSV trace straight into a :class:`TraceBuffer`.

    Same format and tolerance (blank / ``#`` lines) as :func:`read_trace`,
    but parses into columns without building record objects.
    """
    addresses: List[int] = []
    access_types: List[int] = []
    devices: List[int] = []
    arrival_times: List[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split(",")
            if len(parts) != 4:
                raise TraceFormatError(
                    f"{path}:{line_number}: expected 4 fields, got "
                    f"{len(parts)}: {stripped!r}")
            address_text, type_text, device_text, time_text = parts
            try:
                addresses.append(int(address_text, 0))
                arrival_times.append(int(time_text))
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}:{line_number}: {exc}") from exc
            try:
                access_types.append(int(AccessType.parse(type_text)))
                devices.append(int(DeviceID.parse(device_text)))
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}:{line_number}: {exc}") from exc
    try:
        return TraceBuffer.from_columns(addresses, access_types, devices,
                                        arrival_times)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc


def write_trace_buffer(path: PathLike, buffer: TraceBuffer) -> int:
    """Write a :class:`TraceBuffer` as canonical CSV; returns record count.

    Produces byte-identical output to :func:`write_trace` over
    ``buffer.iter_records()``.
    """
    type_names = {int(member): member.name for member in AccessType}
    device_names = {int(member): member.name for member in DeviceID}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# address,access_type,device,arrival_time\n")
        handle.writelines(
            f"{address:#x},{type_names[type_value]},"
            f"{device_names[device_value]},{arrival_time}\n"
            for address, type_value, device_value, arrival_time
            in zip(*buffer.columns_as_lists())
        )
    return len(buffer)


def write_trace_binary_buffer(path: PathLike, buffer: TraceBuffer) -> int:
    """Write a :class:`TraceBuffer` in the packed binary format.

    Byte-identical to :func:`write_trace_binary` over the same records,
    but packs the body in one vectorized copy instead of a struct call
    per record.
    """
    packed = np.empty(len(buffer), dtype=_RECORD_DTYPE)
    packed["address"] = buffer.addresses
    packed["arrival_time"] = buffer.arrival_times.astype(np.uint64)
    packed["access_type"] = buffer.access_types
    packed["device"] = buffer.devices
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, len(buffer)))
        handle.write(packed.tobytes())
    return len(buffer)


def read_trace_binary_buffer(path: PathLike) -> TraceBuffer:
    """Read a packed binary trace into a :class:`TraceBuffer`.

    Raises:
        TraceFormatError: on a bad magic, truncated body, or corrupt record.
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        body = handle.read()
    expected = count * _RECORD.size
    if len(body) != expected:
        raise TraceFormatError(
            f"{path}: expected {expected} body bytes for {count} records, got {len(body)}"
        )
    packed = np.frombuffer(body, dtype=_RECORD_DTYPE)
    try:
        return TraceBuffer(
            packed["address"], packed["access_type"], packed["device"],
            packed["arrival_time"].astype(np.int64),
        )
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc
