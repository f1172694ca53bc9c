"""Deterministic multi-tenant trace merging.

Each :class:`~repro.tenancy.spec.TenantSpec` regenerates to a column-array
trace (:func:`tenant_trace`): the app profile's synthetic trace with the
device column retagged to the tenant's device and arrival times reclocked
by the spec's phase offset / intensity ratio.  :func:`merge_traces`
interleaves the tenant traces into one time-ordered
:class:`~repro.trace.buffer.TraceBuffer`; the interleave is a *stable*
sort keyed on ``(arrival_time, device value)``, so the merged order is a
pure function of the tenant *set* — permuting the specs never changes it
(property-tested) — and reproducible record-for-record by the streaming
variant below.

Because every record keeps its tenant's device tag, the merge is
losslessly invertible: :func:`extract_tenant` recovers a tenant's records
bit-identical to its pre-merge trace (property-tested in
``tests/test_tenancy.py``).

:class:`StreamingTraceMerger` produces the *same* merged sequence
incrementally for the service path: it holds one cursor per tenant and
repeatedly emits the cursor-minimum by ``(arrival_time, device value)``
— exactly the lexsort order — so offline and streamed runs are
bit-identical, and ``state_dict()`` (just the cursors) makes a merged
feed checkpoint/resumable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.geometry import AddressLayout
from repro.tenancy.spec import TenantSpec, parse_device
from repro.trace.buffer import TraceBuffer
from repro.trace.generator import generate_trace_buffer, get_profile

DEFAULT_LAYOUT = AddressLayout()


def reclock_times(times: np.ndarray, phase_offset: int,
                  intensity: float) -> np.ndarray:
    """``phase + floor(t / intensity)`` — monotone, identity at (0, 1.0).

    Intensity > 1 compresses the tenant's arrival schedule (issues
    faster); < 1 stretches it.  Monotone in ``t`` for any intensity > 0,
    so a reclocked trace keeps the non-decreasing arrival order the
    engine requires.
    """
    if phase_offset == 0 and intensity == 1.0:
        return times
    scaled = np.floor(times / intensity).astype(np.int64)
    return scaled + np.int64(phase_offset)


def tenant_trace(spec: TenantSpec,
                 layout: Optional[AddressLayout] = None) -> TraceBuffer:
    """Generate one tenant's trace: app profile, retagged and reclocked.

    Deterministic in ``spec`` (and layout): the merger, tests and every
    service worker regenerate bit-identical columns from the spec alone.
    """
    layout = layout or DEFAULT_LAYOUT
    base = generate_trace_buffer(get_profile(spec.app), spec.length,
                                 seed=spec.seed, layout=layout)
    devices = np.full(len(base), spec.device_id.value, dtype=np.uint8)
    times = reclock_times(base.arrival_times, spec.phase_offset,
                          spec.intensity)
    return TraceBuffer(base.addresses, base.access_types, devices, times)


def _interleave_order(arrival_times: np.ndarray,
                      devices: np.ndarray) -> np.ndarray:
    """Merged record order: sort by (arrival_time, device value), stable.

    ``lexsort`` keys run last-key-primary.  The tie-break is the record's
    own device value — a property of the record, not of input position —
    so with one device per tenant the merged order is invariant under
    permuting the tenants; within one tenant, lexsort's stability keeps
    the original relative order.
    """
    return np.lexsort((devices, arrival_times))


def merge_buffers(buffers: Sequence[TraceBuffer]) -> TraceBuffer:
    """Interleave per-tenant buffers into one time-ordered trace.

    Arrival-time ties break by device value (lowest :class:`DeviceID`
    first); same-device ties keep concatenation order.
    """
    if not buffers:
        raise ConfigError("merge_buffers needs at least one trace")
    addresses = np.concatenate([b.addresses for b in buffers])
    access_types = np.concatenate([b.access_types for b in buffers])
    devices = np.concatenate([b.devices for b in buffers])
    arrival_times = np.concatenate([b.arrival_times for b in buffers])
    order = _interleave_order(arrival_times, devices)
    return TraceBuffer(addresses[order], access_types[order],
                       devices[order], arrival_times[order])


def merge_traces(specs: Sequence[TenantSpec],
                 layout: Optional[AddressLayout] = None) -> TraceBuffer:
    """Generate and interleave every tenant's trace (the offline path).

    Raises:
        ConfigError: fewer than two tenants, or two tenants sharing a
            device tag (attribution would be ambiguous).
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ConfigError(
            f"a multi-tenant workload needs >= 2 tenants, got {len(specs)}")
    devices = [spec.device for spec in specs]
    if len(set(devices)) != len(devices):
        raise ConfigError(f"duplicate tenant devices: {devices}")
    return merge_buffers([tenant_trace(spec, layout) for spec in specs])


def extract_tenant(merged: TraceBuffer, device: str) -> TraceBuffer:
    """Recover one tenant's records from a merged trace, in merge order.

    Because the interleave is a stable sort, this is bit-identical to the
    tenant's pre-merge buffer.

    Raises:
        UnknownDeviceError: unknown device name.
    """
    value = parse_device(device).value
    mask = merged.devices == np.uint8(value)
    return TraceBuffer(merged.addresses[mask], merged.access_types[mask],
                       merged.devices[mask], merged.arrival_times[mask])


class StreamingTraceMerger:
    """Chunked producer of the merged sequence, checkpoint/resumable.

    Regenerates every tenant trace from its spec at construction, then
    emits records one cursor-minimum at a time — provably the same order
    :func:`merge_traces` produces (both orders sort by
    ``(arrival_time, tenant index)`` with stable within-tenant order).
    State is just the per-tenant cursors, so ``state_dict()`` is a few
    integers and resuming mid-stream is exact.
    """

    def __init__(self, specs: Sequence[TenantSpec],
                 layout: Optional[AddressLayout] = None) -> None:
        specs = list(specs)
        if len(specs) < 2:
            raise ConfigError(
                f"a multi-tenant workload needs >= 2 tenants, "
                f"got {len(specs)}")
        devices = [spec.device for spec in specs]
        if len(set(devices)) != len(devices):
            raise ConfigError(f"duplicate tenant devices: {devices}")
        self.specs = tuple(specs)
        self._buffers: List[TraceBuffer] = [
            tenant_trace(spec, layout) for spec in specs]
        self._cursors: List[int] = [0] * len(specs)
        # Python-int copies of each tenant's arrival column: the pick-min
        # loop compares per record, and list indexing beats ndarray
        # scalar extraction by an order of magnitude.
        self._times: List[List[int]] = [
            buffer.arrival_times.tolist() for buffer in self._buffers]
        # Scanning tenants by ascending device value makes the strict-<
        # pick-min tie-break match the offline lexsort's device-value
        # secondary key exactly.
        self._scan_order: List[int] = sorted(
            range(len(specs)),
            key=lambda index: specs[index].device_id.value)

    def __len__(self) -> int:
        return sum(len(buffer) for buffer in self._buffers)

    @property
    def remaining(self) -> int:
        return len(self) - sum(self._cursors)

    @property
    def exhausted(self) -> bool:
        return self.remaining == 0

    def next_chunk(self, max_records: int) -> TraceBuffer:
        """The next ``<= max_records`` records of the merged sequence."""
        if max_records < 1:
            raise ConfigError(f"chunk size must be >= 1: {max_records}")
        cursors = self._cursors
        times = self._times
        picks: List[int] = []  # flat (tenant, index) pairs, interleaved
        for _ in range(min(max_records, self.remaining)):
            best = -1
            best_time = 0
            for tenant in self._scan_order:
                cursor = cursors[tenant]
                tenant_times = times[tenant]
                if cursor >= len(tenant_times):
                    continue
                head = tenant_times[cursor]
                if best < 0 or head < best_time:
                    best = tenant
                    best_time = head
            picks.append(best)
            picks.append(cursors[best])
            cursors[best] += 1
        return self._gather(picks)

    def _gather(self, picks: List[int]) -> TraceBuffer:
        count = len(picks) // 2
        addresses = np.empty(count, dtype=np.uint64)
        access_types = np.empty(count, dtype=np.uint8)
        devices = np.empty(count, dtype=np.uint8)
        arrival_times = np.empty(count, dtype=np.int64)
        buffers = self._buffers
        for out, pair in enumerate(range(0, len(picks), 2)):
            buffer = buffers[picks[pair]]
            index = picks[pair + 1]
            addresses[out] = buffer.addresses[index]
            access_types[out] = buffer.access_types[index]
            devices[out] = buffer.devices[index]
            arrival_times[out] = buffer.arrival_times[index]
        return TraceBuffer(addresses, access_types, devices, arrival_times)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {"cursors": list(self._cursors)}

    def load_state(self, state: Dict[str, object]) -> None:
        cursors = state["cursors"]
        if len(cursors) != len(self._buffers):
            raise ConfigError(
                f"checkpoint has {len(cursors)} tenant cursors, "
                f"merger has {len(self._buffers)} tenants")
        for tenant, cursor in enumerate(cursors):
            if not 0 <= cursor <= len(self._buffers[tenant]):
                raise ConfigError(
                    f"tenant {tenant} cursor {cursor} out of range")
        self._cursors = [int(cursor) for cursor in cursors]
