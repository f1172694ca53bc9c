"""Timeline and event exporters: JSONL, CSV, Prometheus text.

All exports round-trip: ``read_timeline_jsonl(write_timeline_jsonl(t))``
reproduces the :class:`~repro.obs.timeline.EpochRecord` list exactly —
ints survive as ints, floats in ``repr``'s shortest round-trip form,
dict-valued fields as JSON (embedded as JSON cells in CSV).  The
hypothesis suite in ``tests/test_obs_export.py`` enforces this.

The Prometheus exporter renders the standard text exposition format
(``# TYPE`` headers + ``name{label="..."} value`` lines); the service
serves it over ``GET /metrics`` when started with ``--metrics-port``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.events import EVENT_SCHEMA_VERSION, TraceEvent
from repro.obs.timeline import (EpochRecord, TIMELINE_SCHEMA_VERSION)

PathLike = Union[str, Path]

#: First token of every timeline file's metadata line.
TIMELINE_FORMAT = "planaria-timeline"

#: EpochRecord fields holding {str: number} tables (JSON cells in CSV).
_DICT_FIELDS = ("useful_by_source", "fills_by_source", "device_reads",
                "device_read_latency_total", "device_accesses",
                "device_hits")
#: EpochRecord fields holding floats; every other scalar field is an int.
_FLOAT_FIELDS = ("read_latency_total",)

#: Dict fields flattened to one CSV column per device instead of a JSON
#: cell: ``device_<NAME>_accesses`` / ``device_<NAME>_hits``.  An empty
#: cell means the device is absent from that epoch's table; ``0`` means
#: an explicit zero entry — the flattening is lossless.
_DEVICE_FLAT_FIELDS = ("device_accesses", "device_hits")
# DOTALL + fullmatch: device names are DeviceID.name strings in practice,
# but the round-trip contract holds for arbitrary table keys.
_DEVICE_FLAT_RE = re.compile(r"device_(.+)_(accesses|hits)", re.DOTALL)

_FIELD_ORDER = tuple(field.name for field in dataclasses.fields(EpochRecord))


def _meta_header(meta: Optional[dict]) -> dict:
    header = {"format": TIMELINE_FORMAT, "version": TIMELINE_SCHEMA_VERSION}
    if meta:
        header.update(meta)
    return header


def _check_meta(header: dict, source: str) -> dict:
    if header.get("format") != TIMELINE_FORMAT:
        raise ValueError(f"{source}: not a {TIMELINE_FORMAT} file")
    version = header.get("version")
    if version != TIMELINE_SCHEMA_VERSION:
        raise ValueError(
            f"{source}: timeline schema version {version}, this build "
            f"reads version {TIMELINE_SCHEMA_VERSION}")
    return header


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_timeline_jsonl(path: PathLike, epochs: Sequence[EpochRecord],
                         meta: Optional[dict] = None) -> Path:
    """One metadata line, then one JSON object per epoch."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(_meta_header(meta), sort_keys=True) + "\n")
        for epoch in epochs:
            handle.write(json.dumps(epoch.to_dict(),
                                    separators=(",", ":")) + "\n")
    return path


def read_timeline_jsonl(path: PathLike) -> Tuple[dict, List[EpochRecord]]:
    """Returns ``(metadata, epochs)``; inverse of the writer."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty timeline file")
    meta = _check_meta(json.loads(lines[0]), str(path))
    epochs = [EpochRecord.from_dict(json.loads(line)) for line in lines[1:]]
    return meta, epochs


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def write_timeline_csv(path: PathLike, epochs: Sequence[EpochRecord],
                       meta: Optional[dict] = None) -> Path:
    """A ``#``-prefixed metadata line, a header row, one row per epoch.

    Scalar cells print ``repr`` (shortest round-trip for floats);
    dict-valued fields are embedded as JSON cells with sorted keys —
    except the per-tenant ``device_accesses``/``device_hits`` tables,
    which flatten to one stable ``device_<NAME>_accesses`` /
    ``device_<NAME>_hits`` column per device seen anywhere in the
    timeline (union over epochs, sorted), so spreadsheet tooling can
    consume them without JSON parsing.  An empty cell means the device
    is absent from that epoch's table; ``0`` is an explicit zero.
    """
    path = Path(path)
    device_names = sorted({
        name for epoch in epochs for field in _DEVICE_FLAT_FIELDS
        for name in getattr(epoch, field)})
    base_fields = [name for name in _FIELD_ORDER
                   if name not in _DEVICE_FLAT_FIELDS]
    flat_columns = [f"device_{name}_{kind}" for name in device_names
                    for kind in ("accesses", "hits")]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("# " + json.dumps(_meta_header(meta), sort_keys=True)
                     + "\n")
        writer = csv.writer(handle)
        writer.writerow(base_fields + flat_columns)
        for epoch in epochs:
            payload = epoch.to_dict()
            row = []
            for name in base_fields:
                value = payload[name]
                if name in _DICT_FIELDS:
                    row.append(json.dumps(value, sort_keys=True,
                                          separators=(",", ":")))
                else:
                    row.append(repr(value))
            for name in device_names:
                for field in _DEVICE_FLAT_FIELDS:
                    value = payload[field].get(name)
                    row.append("" if value is None else repr(value))
            writer.writerow(row)
    return path


def read_timeline_csv(path: PathLike) -> Tuple[dict, List[EpochRecord]]:
    """Returns ``(metadata, epochs)``; inverse of the writer.

    Reassembles the flattened ``device_<NAME>_accesses``/``..._hits``
    columns into the ``device_accesses``/``device_hits`` dict fields.
    Files from before the flattening (JSON cells under the plain field
    names) still read correctly — the header drives the decode.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        first = handle.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing timeline metadata line")
        meta = _check_meta(json.loads(first.lstrip("# ")), str(path))
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing timeline header row")
        epochs = []
        for row in reader:
            payload = {field: {} for field in _DEVICE_FLAT_FIELDS}
            for name, cell in zip(header, row):
                if name in _DICT_FIELDS:
                    payload[name] = json.loads(cell)
                    continue
                flat = _DEVICE_FLAT_RE.fullmatch(name)
                if flat is not None:
                    if cell != "":
                        payload[f"device_{flat.group(2)}"][
                            flat.group(1)] = int(cell)
                elif name in _FLOAT_FIELDS:
                    payload[name] = float(cell)
                else:
                    payload[name] = int(cell)
            epochs.append(EpochRecord.from_dict(payload))
    return meta, epochs


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def write_events_jsonl(path: PathLike, events: Sequence[TraceEvent],
                       meta: Optional[dict] = None) -> Path:
    """One metadata line, then one JSON object per event."""
    path = Path(path)
    header = {"format": "planaria-events",
              "version": EVENT_SCHEMA_VERSION}
    if meta:
        header.update(meta)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            handle.write(json.dumps(event.to_dict(),
                                    separators=(",", ":")) + "\n")
    return path


def read_events_jsonl(path: PathLike) -> Tuple[dict, List[TraceEvent]]:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty events file")
    meta = json.loads(lines[0])
    if meta.get("format") != "planaria-events":
        raise ValueError(f"{path}: not a planaria-events file")
    return meta, [TraceEvent.from_dict(json.loads(line))
                  for line in lines[1:]]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: (metric name without prefix, value kind) rendered per sample tuple.
Sample = Tuple[str, Dict[str, str], float, str]

#: Prometheus data-model charsets (https://prometheus.io/docs/concepts/).
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: ``# HELP`` text per exported metric (unprefixed name).  Every sample
#: builder below must keep this table complete — the exposition renderer
#: refuses unknown names, and ``tests/test_prometheus_exposition.py``
#: parses the full output with a strict grammar.
METRIC_HELP: Dict[str, str] = {
    "records_fed": "Trace records accepted by the session so far.",
    "chunks_fed": "Trace chunks applied by the session so far.",
    "demand_accesses": "Demand accesses simulated (post-warmup).",
    "demand_misses": "Demand misses in the storage cache (post-warmup).",
    "dram_traffic": "DRAM read transactions issued (post-warmup).",
    "prefetch_issued": "Prefetch requests issued by the prefetcher.",
    "prefetch_fills": "Prefetched blocks installed in the cache.",
    "prefetch_useful": "Prefetched blocks hit by a later demand access.",
    "amat_cycles": "Average memory access time, cycles.",
    "hit_rate": "Demand hit rate in the storage cache.",
    "prefetch_accuracy": "Useful fraction of prefetched blocks.",
    "prefetch_coverage": "Demand misses removed by prefetching.",
    "prefetch_useful_by_source":
        "Useful prefetches attributed to the issuing sub-prefetcher.",
    "epoch_index": "Index of the most recent (possibly partial) epoch.",
    "epoch_hit_rate": "Demand hit rate within the most recent epoch.",
    "epoch_amat_cycles": "AMAT within the most recent epoch, cycles.",
    "epoch_accuracy": "Prefetch accuracy within the most recent epoch.",
    "epoch_queue_depth": "Prefetch-queue depth at the epoch boundary.",
    "epoch_slp_issued": "SLP prefetches issued within the epoch.",
    "epoch_tlp_issued": "TLP prefetches issued within the epoch.",
    "epoch_throttle_suspended":
        "Channels currently suspended by the accuracy throttle.",
    "health_ok": "Overall service health (1 = ok, 0 = degraded).",
    "health_detector_ok":
        "Per-detector health verdict (1 = ok, 0 = degraded).",
    "health_detector_value":
        "The observed value the detector judged against its threshold.",
    "health_detector_threshold": "The detector's configured threshold.",
    "span_latency_p50_us": "Median recorded latency per span name, us.",
    "span_latency_p95_us": "p95 recorded latency per span name, us.",
    "span_latency_p99_us": "p99 recorded latency per span name, us.",
    "span_count": "Spans recorded per span name.",
    "cluster_workers": "Engine worker processes currently in the ring.",
    "cluster_sessions_routed":
        "Sessions with a live routing entry on the router.",
    "cluster_migrations":
        "Checkpoint-based session migrations completed by the router.",
    "tenant_accesses":
        "Demand accesses attributed to the tenant device (post-warmup).",
    "tenant_hits": "Demand hits attributed to the tenant device.",
    "tenant_hit_rate": "Demand hit rate of the tenant device's accesses.",
    "tenant_amat_cycles":
        "Mean demand-read latency of the tenant device, cycles.",
    "tenant_dram_reads":
        "DRAM fetches caused by the tenant device's demand misses.",
    "tenant_useful_prefetches":
        "Prefetched blocks consumed by the tenant device's accesses.",
    "lineage_issued_total":
        "Prefetches issued per origin bucket (slp/d<density>, "
        "tlp/<distance>, src/<name>).",
    "lineage_fate_total":
        "Resolved prefetch fates (used_timely, used_late, evicted_unused, "
        "invalidated).",
    "lineage_resident":
        "Filled prefetched blocks still resident awaiting a fate.",
    "lineage_pollution_total":
        "Evicted-unused prefetches attributed to the triggering tenant "
        "device.",
    "engine_fallback_total":
        "Engine chunks run on the scalar loop instead of the batch engine, "
        "by reason (explicit_scalar, non_lru_policy).",
}


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(samples: Iterable[Sample],
                    prefix: str = "planaria") -> str:
    """Render samples in the Prometheus text exposition format.

    Each sample is ``(name, labels, value, kind)`` with ``kind`` one of
    ``counter``/``gauge``.  Samples group under one ``# HELP`` +
    ``# TYPE`` header pair per metric name, in first-seen order.  Metric
    and label names are validated against the Prometheus charset, and
    every metric must have an entry in :data:`METRIC_HELP` — an export
    without help text is a bug, caught here rather than by the scraper.
    """
    by_name: Dict[str, List[Sample]] = {}
    kinds: Dict[str, str] = {}
    for sample in samples:
        name = sample[0]
        by_name.setdefault(name, []).append(sample)
        kinds.setdefault(name, sample[3])
    lines: List[str] = []
    for name, group in by_name.items():
        full = f"{prefix}_{name}"
        if not _METRIC_NAME_RE.match(full):
            raise ValueError(f"invalid Prometheus metric name {full!r}")
        if kinds[name] not in ("counter", "gauge"):
            raise ValueError(
                f"metric {full!r} has unknown kind {kinds[name]!r}")
        help_text = METRIC_HELP.get(name)
        if help_text is None:
            raise ValueError(
                f"metric {name!r} has no METRIC_HELP entry; every exported "
                f"metric needs # HELP text")
        lines.append(f"# HELP {full} {_escape_help(help_text)}")
        lines.append(f"# TYPE {full} {kinds[name]}")
        for _, labels, value, _ in group:
            if labels:
                for key in labels:
                    if not _LABEL_NAME_RE.match(key):
                        raise ValueError(
                            f"invalid Prometheus label name {key!r} "
                            f"on metric {full!r}")
                rendered = ",".join(
                    f'{key}="{_escape_label(str(val))}"'
                    for key, val in sorted(labels.items()))
                lines.append(f"{full}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{full} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def snapshot_samples(name: str, snapshot) -> List[Sample]:
    """Prometheus samples for one session's cumulative metrics."""
    labels = {"session": name}
    metrics = snapshot.metrics
    samples: List[Sample] = [
        ("records_fed", labels, snapshot.records_fed, "counter"),
        ("chunks_fed", labels, snapshot.chunks_fed, "counter"),
        ("demand_accesses", labels, metrics.demand_accesses, "counter"),
        ("demand_misses", labels, metrics.demand_misses, "counter"),
        ("dram_traffic", labels, metrics.dram_traffic, "counter"),
        ("prefetch_issued", labels, metrics.prefetch_issued, "counter"),
        ("prefetch_fills", labels, metrics.prefetch_fills, "counter"),
        ("prefetch_useful", labels, metrics.prefetch_useful, "counter"),
        ("amat_cycles", labels, metrics.amat, "gauge"),
        ("hit_rate", labels, metrics.hit_rate, "gauge"),
        ("prefetch_accuracy", labels, metrics.accuracy, "gauge"),
        ("prefetch_coverage", labels, metrics.coverage, "gauge"),
    ]
    for source, useful in sorted(metrics.prefetch_useful_by_source.items()):
        samples.append(("prefetch_useful_by_source",
                        {**labels, "source": source}, useful, "counter"))
    for device, stats in sorted(metrics.tenant_stats.items()):
        tenant_labels = {**labels, "device": device}
        samples.extend([
            ("tenant_accesses", tenant_labels, stats["accesses"], "counter"),
            ("tenant_hits", tenant_labels, stats["hits"], "counter"),
            ("tenant_hit_rate", tenant_labels, stats["hit_rate"], "gauge"),
            ("tenant_amat_cycles", tenant_labels, stats["amat"], "gauge"),
            ("tenant_dram_reads", tenant_labels, stats["dram_reads"],
             "counter"),
            ("tenant_useful_prefetches", tenant_labels,
             stats["useful_prefetches"], "counter"),
        ])
    return samples


def epoch_samples(name: str, epoch: EpochRecord) -> List[Sample]:
    """Gauge samples for a session's most recent epoch."""
    labels = {"session": name}
    return [
        ("epoch_index", labels, epoch.epoch, "gauge"),
        ("epoch_hit_rate", labels, epoch.hit_rate, "gauge"),
        ("epoch_amat_cycles", labels, epoch.amat, "gauge"),
        ("epoch_accuracy", labels, epoch.accuracy, "gauge"),
        ("epoch_queue_depth", labels, epoch.queue_depth, "gauge"),
        ("epoch_slp_issued", labels, epoch.slp_issued, "gauge"),
        ("epoch_tlp_issued", labels, epoch.tlp_issued, "gauge"),
        ("epoch_throttle_suspended", labels, epoch.throttle_suspended,
         "gauge"),
    ]


def health_samples(report) -> List[Sample]:
    """Gauges for a :class:`~repro.obs.health.HealthReport`."""
    samples: List[Sample] = [
        ("health_ok", {}, 1 if report.ok else 0, "gauge"),
    ]
    for verdict in report.verdicts:
        labels = {"detector": verdict.detector}
        samples.append(("health_detector_ok", labels,
                        1 if verdict.ok else 0, "gauge"))
        samples.append(("health_detector_value", labels, verdict.value,
                        "gauge"))
        samples.append(("health_detector_threshold", labels,
                        verdict.threshold, "gauge"))
    return samples


def lineage_samples(name: str, summary: dict) -> List[Sample]:
    """Prometheus samples for a session's merged lineage summary
    (see :meth:`repro.obs.lineage.SystemLineage.summary`)."""
    labels = {"session": name}
    samples: List[Sample] = []
    buckets = summary["buckets"]
    for bucket in sorted(buckets):
        samples.append(("lineage_issued_total",
                        {**labels, "bucket": bucket},
                        buckets[bucket].get("issued", 0), "counter"))
    totals = summary["totals"]
    for fate in ("used_timely", "used_late", "evicted_unused",
                 "invalidated"):
        samples.append(("lineage_fate_total", {**labels, "fate": fate},
                        totals[fate], "counter"))
    samples.append(("lineage_resident", labels, totals["resident"],
                    "gauge"))
    for device, count in sorted(summary["pollution_by_device"].items()):
        samples.append(("lineage_pollution_total",
                        {**labels, "device": device}, count, "counter"))
    return samples


def fallback_samples(name: str, counts: Dict[str, int]) -> List[Sample]:
    """Prometheus samples for a session's scalar-loop chunk counts
    (see :meth:`repro.sim.engine.SystemSimulator.fallback_counts`)."""
    return [("engine_fallback_total", {"session": name, "reason": reason},
             count, "counter")
            for reason, count in counts.items()]


def span_samples(summary: Dict[str, Dict[str, float]]) -> List[Sample]:
    """Latency gauges per span name from ``SpanRecorder.summary()``."""
    samples: List[Sample] = []
    for name in sorted(summary):
        entry = summary[name]
        labels = {"span": name}
        samples.append(("span_count", labels, entry["count"], "counter"))
        samples.append(("span_latency_p50_us", labels, entry["p50_us"],
                        "gauge"))
        samples.append(("span_latency_p95_us", labels, entry["p95_us"],
                        "gauge"))
        samples.append(("span_latency_p99_us", labels, entry["p99_us"],
                        "gauge"))
    return samples
