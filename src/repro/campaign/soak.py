"""Soak mode: sustained-rate replay of a merged multi-tenant workload.

Feeds the :class:`~repro.tenancy.merge.StreamingTraceMerger` interleave
against one service endpoint for a wall-clock duration — recreating the
merger whenever it runs dry, so the load never stops, with each replay's
arrival times shifted past the previous replay's last record so the
session's stream stays in order — while
periodically sampling the server's health verdict, session-manager
counters (backpressure waits included) and per-op span latency
percentiles over the same connection.  The resulting time-series is
written whole to its own JSON file (``campaign-soak.json`` by default).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.config import SimConfig
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.tenancy.merge import StreamingTraceMerger
from repro.tenancy.spec import TenantSpec
from repro.trace.buffer import TraceBuffer
from repro.utils.provenance import runtime_provenance

from repro.campaign.spec import CampaignSpec

PathLike = Union[str, Path]

#: Span names worth charting in the soak time-series (when tracing is on).
_SPAN_NAMES = ("request.feed", "session.feed_chunk", "session.fifo_wait",
               "engine.feed")


def _sample(client: ServiceClient, elapsed: float,
            records_fed: int) -> dict:
    """One time-series point: health + counters + span percentiles."""
    point = {
        "t_seconds": round(elapsed, 3),
        "records_fed": records_fed,
    }
    try:
        point["health"] = client.health().status
    except ServiceError:
        point["health"] = "unknown"
    try:
        stats = client.stats()
        point["backpressure_waits"] = stats.get("backpressure_waits", 0)
        point["chunks_executed"] = stats.get("chunks_executed", 0)
        point["records_executed"] = stats.get("records_executed", 0)
        point["live_sessions"] = stats.get("live_sessions", 0)
    except ServiceError:
        pass
    try:
        _, summary = client.server_spans()
        point["spans"] = {
            name: {key: round(entry[key], 3)
                   for key in ("p50_us", "p95_us", "p99_us")}
            for name, entry in summary.items()
            if name in _SPAN_NAMES
        }
    except ServiceError:
        pass  # server started without --trace; soak still runs
    return point


def run_soak(spec: CampaignSpec, endpoint: str,
             duration_seconds: Optional[float] = None,
             output: PathLike = "campaign-soak.json",
             config: Optional[SimConfig] = None,
             progress: Optional[Callable[[str], None]] = None) -> dict:
    """Replay the soak workload against ``endpoint`` and record the series.

    Returns the time-series section, which is also written to ``output``
    (replacing any previous file there).
    ``duration_seconds`` overrides the spec's soak duration (handy for
    CI smokes).  Sampling happens inline between feed chunks — the
    client socket is not shared across threads — so the sample cadence
    is approximate but the load is never paused for more than one
    sampling round-trip.
    """
    from repro.campaign.runner import parse_endpoint

    soak = spec.soak
    duration = float(duration_seconds if duration_seconds is not None
                     else soak.duration_seconds)
    log = progress or (lambda line: None)
    host, port = parse_endpoint(endpoint)
    base_config = config or spec.load_base_config()
    tenant_specs = [TenantSpec.parse(text) for text in soak.tenants]
    merger = StreamingTraceMerger(tenant_specs, base_config.layout)
    session = f"campaign-soak-{spec.name}"

    samples = []
    records_fed = 0
    replays = 0
    time_offset = 0  # added to the current replay's arrival times
    last_time = 0
    with ServiceClient.connect(host, port) as client:
        try:
            client.close_session(session)
        except (ServiceError, KeyError):
            pass
        client.open(session, soak.prefetcher, workload="soak",
                    config=base_config)
        started = time.perf_counter()
        next_sample = 0.0  # sample immediately, then every interval
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= duration:
                break
            if elapsed >= next_sample:
                samples.append(_sample(client, elapsed, records_fed))
                next_sample = elapsed + soak.sample_interval_seconds
                log(f"soak t={elapsed:.1f}s fed={records_fed} "
                    f"health={samples[-1]['health']} "
                    f"bp={samples[-1].get('backpressure_waits', '?')}")
            if soak.rate_records_per_second:
                target = int(soak.rate_records_per_second * elapsed)
                if records_fed >= target:
                    time.sleep(min(0.02, duration - elapsed))
                    continue
            if merger.exhausted:
                merger = StreamingTraceMerger(tenant_specs,
                                              base_config.layout)
                replays += 1
                time_offset = last_time + 1
            chunk = merger.next_chunk(soak.chunk_records)
            if time_offset:
                chunk = TraceBuffer(chunk.addresses, chunk.access_types,
                                    chunk.devices,
                                    chunk.arrival_times + time_offset)
            last_time = max(last_time, int(chunk.arrival_times.max()))
            client.feed(session, chunk)
            records_fed += len(chunk)
        elapsed = time.perf_counter() - started
        samples.append(_sample(client, elapsed, records_fed))
        client.close_session(session)

    section = {
        "endpoint": f"{host}:{port}",
        "prefetcher": soak.prefetcher,
        "tenants": list(soak.tenants),
        "duration_seconds": round(elapsed, 3),
        "requested_rate_records_per_second": soak.rate_records_per_second,
        "records_fed": records_fed,
        "achieved_records_per_second": round(records_fed / elapsed, 1)
        if elapsed > 0 else 0.0,
        "workload_replays": replays,
        "sample_interval_seconds": soak.sample_interval_seconds,
        "samples": samples,
        **runtime_provenance(),
    }
    Path(output).write_text(json.dumps(section, indent=2) + "\n")
    return section
