"""Parameter sweeps over prefetcher configurations.

Used by the ablation benches to quantify DESIGN.md's design choices —
TLP's thresholds, SLP's AT timeout / filter threshold — on a fixed trace.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.config import PlanariaConfig, SimConfig, SLPConfig, TLPConfig
from repro.geometry import AddressLayout
from repro.prefetch.base import Prefetcher
from repro.sim.executor import ParallelExecutor, Parallelism, SimulationTask
from repro.sim.metrics import RunMetrics
from repro.trace.generator import generate_trace_buffer, get_profile

PrefetcherFactory = Callable[[AddressLayout, int], Prefetcher]


def simulate_factory(records, factory: PrefetcherFactory,
                     label: str, workload_name: str = "custom",
                     config: Optional[SimConfig] = None,
                     parallelism: Parallelism = "serial") -> RunMetrics:
    """Like :func:`repro.sim.runner.simulate` but with an arbitrary factory.

    ``records`` may be a :class:`~repro.trace.buffer.TraceBuffer` or a
    record list, as with :func:`~repro.sim.runner.simulate`.
    Channel-grain parallelism works with any factory (even a lambda): the
    engine pickles the *constructed* per-channel simulators, never the
    factory itself.
    """
    from repro.sim.engine import SystemSimulator
    from repro.sim.runner import _collect

    config = config or SimConfig.experiment_scale()
    simulator = SystemSimulator(config, factory)
    simulator.run(records, parallelism=parallelism)
    return _collect(simulator, workload_name, label)


def sweep_planaria(
    app: str,
    variants: Dict[str, PlanariaConfig],
    length: int = 60_000,
    seed: int = 7,
    config: Optional[SimConfig] = None,
    parallelism: Parallelism = "serial",
) -> Dict[str, RunMetrics]:
    """Run several Planaria configurations over one generated trace.

    Returns ``{variant_label: RunMetrics}`` plus a ``"none"`` baseline.
    With ``parallelism`` other than ``"serial"``, each variant becomes a
    process-pool task carrying its (picklable) ``PlanariaConfig``; the
    worker regenerates the trace from the seed, so results are
    bit-identical to a serial sweep.
    """
    from repro.core.planaria import PlanariaPrefetcher
    from repro.prefetch.simple import NoPrefetcher

    config = config or SimConfig.experiment_scale()
    profile = get_profile(app)
    labels = ["none"] + list(variants)
    executor = ParallelExecutor(parallelism)
    if executor.workers_for(len(labels), length * len(labels)) > 1:
        tasks = [SimulationTask(profile=profile, prefetcher="none",
                                length=length, seed=seed, config=config)]
        tasks.extend(
            SimulationTask(profile=profile, prefetcher=label, length=length,
                           seed=seed, config=config,
                           planaria_variant=planaria_config)
            for label, planaria_config in variants.items()
        )
        return dict(zip(labels, executor.run_tasks(tasks)))

    records = generate_trace_buffer(profile, length, seed=seed,
                                    layout=config.layout)
    results: Dict[str, RunMetrics] = {
        "none": simulate_factory(
            records, lambda layout, channel: NoPrefetcher(layout, channel),
            "none", workload_name=app, config=config,
        )
    }
    for label, planaria_config in variants.items():
        results[label] = simulate_factory(
            records,
            lambda layout, channel, pc=planaria_config: PlanariaPrefetcher(
                layout, channel, pc),
            label, workload_name=app, config=config,
        )
    return results


def tlp_distance_variants(distances: Iterable[int]) -> Dict[str, PlanariaConfig]:
    """Planaria configs sweeping TLP's neighbour distance threshold."""
    return {
        f"distance={distance}": PlanariaConfig(tlp=TLPConfig(
            distance_threshold=distance))
        for distance in distances
    }


def slp_timeout_variants(timeouts: Iterable[int]) -> Dict[str, PlanariaConfig]:
    """Planaria configs sweeping SLP's AT timeout."""
    return {
        f"timeout={timeout}": PlanariaConfig(slp=SLPConfig(at_timeout=timeout))
        for timeout in timeouts
    }


def coordinator_variants() -> Dict[str, PlanariaConfig]:
    """The three coordination strategies of Section 7's comparison."""
    return {
        "decoupled": PlanariaConfig(coordinator="decoupled"),
        "serial": PlanariaConfig(coordinator="serial"),
        "parallel": PlanariaConfig(coordinator="parallel"),
    }
