"""High-level experiment runner: workload × prefetcher → RunMetrics.

The benches and examples all funnel through :func:`run_workload` /
:func:`compare_prefetchers`, so a figure is regenerated with a couple of
lines:

>>> results = compare_prefetchers("CFM", ["none", "bop", "spp", "planaria"])
>>> results["planaria"].amat_reduction_vs(results["none"])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.config import SimConfig
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import SystemSimulator, TraceLike
from repro.sim.executor import (ParallelExecutor, Parallelism,
                                SimulationTask)
from repro.sim.metrics import RunMetrics
from repro.trace.generator import generate_trace_buffer, get_profile
from repro.trace.generator.profile import WorkloadProfile

DEFAULT_PREFETCHERS = ("none", "bop", "spp", "planaria")
DEFAULT_TRACE_LENGTH = 120_000


@dataclass
class RunResult:
    """A RunMetrics plus the live simulator for deeper inspection."""

    metrics: RunMetrics
    simulator: SystemSimulator


def simulate(records: TraceLike, prefetcher_name: str,
             workload_name: str = "custom",
             config: Optional[SimConfig] = None,
             parallelism: Parallelism = "serial",
             engine_mode: str = "auto") -> RunResult:
    """Run one prefetcher over an explicit trace.

    ``records`` may be a :class:`~repro.trace.buffer.TraceBuffer`
    (canonical, fastest) or a ``TraceRecord`` list (converted internally);
    results are bit-identical either way.  Defaults to
    :meth:`SimConfig.experiment_scale` — the scaled-down SC matched to the
    bundled synthetic trace lengths (see DESIGN.md §2); pass
    ``SimConfig.paper_scale()`` when driving full-length traces.
    ``parallelism`` selects channel-grain execution (bit-identical to
    serial; see docs/parallelism.md).  ``engine_mode`` selects the
    execution backend (``"scalar"``, ``"batch"`` or ``"auto"``; see
    :class:`~repro.sim.engine.ChannelSimulator`) — results are
    bit-identical across backends (``tests/test_batch_oracle.py``).
    """
    config = config or SimConfig.experiment_scale()
    simulator = SystemSimulator(
        config, lambda layout, channel: make_prefetcher(prefetcher_name,
                                                        layout, channel),
        engine_mode=engine_mode,
    )
    simulator.run(records, parallelism=parallelism)
    metrics = _collect(simulator, workload_name, prefetcher_name)
    return RunResult(metrics=metrics, simulator=simulator)


def collect_metrics(simulator: SystemSimulator, workload: str,
                    prefetcher: str) -> RunMetrics:
    """Condense a driven simulator's state into a :class:`RunMetrics`.

    Read-only: safe to call mid-stream on a live simulator (the service
    layer's snapshot path), and again later — each call reflects the
    records fed so far.
    """
    return _collect(simulator, workload, prefetcher)


def _collect(simulator: SystemSimulator, workload: str,
             prefetcher: str) -> RunMetrics:
    cache_stats = simulator.merged_cache_stats()
    dram_stats = simulator.merged_dram_stats()
    channel_metrics = simulator.merged_metrics()
    power = simulator.power_report()
    p99 = 0.0
    for channel_sim in simulator.channels:
        p99 = max(p99, channel_sim.metrics.latency_histogram.percentile(0.99))
    return RunMetrics(
        workload=workload,
        prefetcher=prefetcher,
        amat=channel_metrics.read_latency.mean,
        hit_rate=cache_stats.hit_rate,
        demand_accesses=cache_stats.demand_accesses,
        demand_misses=cache_stats.demand_misses,
        dram_traffic=dram_stats.total_requests,
        prefetch_issued=simulator.total_prefetch_issued(),
        prefetch_fills=cache_stats.prefetch_fills,
        prefetch_useful=cache_stats.useful_total(),
        prefetch_useful_by_source=dict(cache_stats.prefetch_useful),
        prefetch_unused=cache_stats.unused_total(),
        power_mw=power.average_power_mw,
        energy_nj=power.total_nj,
        storage_bits=simulator.storage_bits(),
        p99_latency=p99,
        device_read_stats={
            device: {"reads": stats.count, "mean_latency": stats.mean}
            for device, stats in sorted(
                channel_metrics.device_read_latency.items())
        },
        tenant_stats=_tenant_stats(channel_metrics),
    )


def _tenant_stats(channel_metrics) -> Dict[str, Dict[str, float]]:
    """Per-tenant QoS table from the merged per-device demand counters.

    One entry per device seen post-warmup, in sorted device order (same
    convention as ``device_read_stats``): demand accesses/hits/hit_rate
    over reads *and* writes, read count + per-tenant AMAT (mean demand-read
    latency), prefetches the tenant consumed, and DRAM fetches its misses
    caused.
    """
    tenants: Dict[str, Dict[str, float]] = {}
    for device, counts in sorted(channel_metrics.device_demand.items()):
        accesses, hits, useful, dram_reads = counts
        read_stats = channel_metrics.device_read_latency.get(device)
        tenants[device] = {
            "accesses": accesses,
            "hits": hits,
            "hit_rate": hits / accesses if accesses else 0.0,
            "reads": read_stats.count if read_stats is not None else 0,
            "amat": read_stats.mean if read_stats is not None else 0.0,
            "useful_prefetches": useful,
            "dram_reads": dram_reads,
        }
    return tenants


def run_workload(abbr_or_profile, prefetcher_name: str,
                 length: int = DEFAULT_TRACE_LENGTH, seed: int = 0,
                 config: Optional[SimConfig] = None,
                 parallelism: Parallelism = "serial") -> RunMetrics:
    """Generate a workload's trace and simulate one prefetcher over it.

    Args:
        abbr_or_profile: a Table-2 abbreviation (``"CFM"``) or a
            :class:`WorkloadProfile`.
        parallelism: ``"serial"`` (default), ``"auto"`` or a worker count;
            a single run parallelises at the channel grain, bit-identically
            to serial execution.
    """
    profile = (abbr_or_profile if isinstance(abbr_or_profile, WorkloadProfile)
               else get_profile(abbr_or_profile))
    config = config or SimConfig.experiment_scale()
    records = generate_trace_buffer(profile, length, seed=seed,
                                    layout=config.layout)
    return simulate(records, prefetcher_name,
                    workload_name=profile.abbr, config=config,
                    parallelism=parallelism).metrics


def compare_prefetchers(abbr_or_profile,
                        prefetchers: Iterable[str] = DEFAULT_PREFETCHERS,
                        length: int = DEFAULT_TRACE_LENGTH, seed: int = 0,
                        config: Optional[SimConfig] = None,
                        parallelism: Parallelism = "serial"
                        ) -> Dict[str, RunMetrics]:
    """Run several prefetchers over the *same* generated trace.

    With ``parallelism`` other than ``"serial"``, each (workload,
    prefetcher) pair becomes an independent task on a process pool: the
    worker regenerates the trace from ``(profile, length, seed)`` — the
    generator is seed-deterministic, so every worker sees the records a
    serial run would, and the returned ``RunMetrics`` are bit-identical
    to serial mode (enforced by ``tests/test_parallel_equivalence.py``).
    """
    profile = (abbr_or_profile if isinstance(abbr_or_profile, WorkloadProfile)
               else get_profile(abbr_or_profile))
    config = config or SimConfig.experiment_scale()
    names = list(prefetchers)
    executor = ParallelExecutor(parallelism)
    if executor.workers_for(len(names), length * len(names)) > 1:
        tasks = [SimulationTask(profile=profile, prefetcher=name,
                                length=length, seed=seed, config=config)
                 for name in names]
        return dict(zip(names, executor.run_tasks(tasks)))
    records = generate_trace_buffer(profile, length, seed=seed,
                                    layout=config.layout)
    results: Dict[str, RunMetrics] = {}
    for name in names:
        results[name] = simulate(records, name, workload_name=profile.abbr,
                                 config=config).metrics
    return results
