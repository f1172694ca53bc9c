"""Parallel execution layer for simulations.

The paper's per-channel organisation (Figure 1: one SC slice + LPDDR4
channel + prefetcher per DRAM channel) makes two grains of parallelism
available without changing any simulated behaviour:

* **task grain** — each (workload, prefetcher) pair of a
  :func:`repro.sim.runner.compare_prefetchers` sweep is an independent
  simulation.  Tasks are shipped to workers as picklable
  :class:`SimulationTask` specs (config + profile + seed); the worker
  *regenerates* the trace from the seed rather than unpickling ~120k
  records, which keeps the task payload a few KB.
* **channel grain** — inside :meth:`SystemSimulator.run` the per-channel
  simulators share no mutable state once the bus trace is split, so each
  channel's stream can run in its own process.  The fully-constructed
  :class:`~repro.sim.engine.ChannelSimulator` (prefetcher instance
  included) is pickled out, driven, and shipped back; the stream itself
  travels as a :class:`~repro.trace.buffer.TraceBuffer` — raw
  NumPy column buffers, ~10× smaller than a pickled record-object list.

Both grains preserve the serial contract bit-for-bit: record streams,
seeds and per-channel state are identical, floats survive pickling
exactly, and results flow through the same ``MetricSet`` /
``CacheStats`` / ``DRAMStats`` / ``QueueStats`` merge path as a serial
run.  ``tests/test_parallel_equivalence.py`` enforces this.

Execution falls back to the serial path deterministically whenever the
resolved worker count is 1 (``"auto"`` resolves to 1 for work shorter
than :data:`AUTO_SERIAL_BELOW` records), there is at most one unit of
work, or the process pool cannot be created (sandboxes without
fork/semaphores) — the fallback runs the *same* code path a
``parallelism="serial"`` caller would, so results never depend on pool
availability.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.config import PlanariaConfig, SimConfig
from repro.errors import ConfigError

Parallelism = Union[str, int]
_T = TypeVar("_T")
_R = TypeVar("_R")

#: Errors that mean "the pool (or this payload) cannot be used" rather
#: than "the simulation itself failed" — these trigger the serial fallback.
_POOL_ERRORS = (BrokenProcessPool, OSError, PermissionError,
                pickle.PicklingError, TypeError, AttributeError)

_pool_probe_result: Optional[bool] = None

#: ``parallelism="auto"`` runs work totalling fewer trace records than
#: this serially: below it the process pool's start-up and pickling cost
#: more than the workers gain.  Measured on CFM, 2 vCPUs, medians of 5: at
#: 24,000 records channel-grain ``auto`` ran ``none`` at 0.65x the serial
#: rate (bop and planaria 1.26-1.28x); from 32,000 records all three were
#: at or above serial (1.02-1.65x).  At task grain, three prefetchers over
#: 4,000 records took 0.14-0.15 s pooled against 0.07-0.09 s serial.  An
#: explicit worker count is always honoured.
AUTO_SERIAL_BELOW = 32_768


def _probe_worker(value: int) -> int:
    return value + 1


def pool_available() -> bool:
    """Whether a working :class:`ProcessPoolExecutor` can be created.

    Some sandboxes expose ``os.cpu_count() > 1`` but forbid the
    semaphores / forks multiprocessing needs; the probe result is cached
    per process.
    """
    global _pool_probe_result
    if _pool_probe_result is None:
        try:
            with ProcessPoolExecutor(max_workers=1) as pool:
                _pool_probe_result = pool.submit(_probe_worker, 1).result() == 2
        except _POOL_ERRORS:
            _pool_probe_result = False
    return _pool_probe_result


def resolve_parallelism(parallelism: Parallelism,
                        task_count: Optional[int] = None) -> int:
    """Turn the user-facing knob into a concrete worker count.

    ``"serial"`` → 1; ``"auto"`` → ``REPRO_PARALLELISM`` env override or
    ``os.cpu_count()``; an integer is used as-is.  The result is clamped
    to ``task_count`` when given (no point spawning idle workers).
    """
    if isinstance(parallelism, str):
        token = parallelism.strip().lower()
        if token == "serial":
            workers = 1
        elif token == "auto":
            env = os.environ.get("REPRO_PARALLELISM", "")
            try:
                workers = max(1, int(env))
            except ValueError:
                workers = os.cpu_count() or 1
        else:
            try:
                workers = int(token)
            except ValueError:
                raise ConfigError(
                    f"parallelism must be 'auto', 'serial' or an integer, "
                    f"got {parallelism!r}") from None
    else:
        workers = int(parallelism)
    if workers < 1:
        raise ConfigError(f"parallelism must be >= 1, got {workers}")
    if task_count is not None:
        workers = min(workers, max(1, task_count))
    return workers


@dataclass(frozen=True)
class SimulationTask:
    """Picklable spec for one (workload, prefetcher) simulation.

    The trace is regenerated in the worker from ``(profile, length,
    seed, config.layout)`` — the generator is seed-deterministic, so the
    worker sees exactly the records a serial run would.

    ``prefetcher`` is a registry name; ``planaria_variant`` instead
    selects a custom-configured Planaria (the sweep grain), in which case
    ``prefetcher`` is used only as the result label.
    """

    profile: object  # WorkloadProfile (kept untyped to avoid an import cycle)
    prefetcher: str
    length: int
    seed: int
    config: SimConfig
    planaria_variant: Optional[PlanariaConfig] = None


def run_simulation_task(task: SimulationTask):
    """Execute one task start-to-finish; the process-pool entry point.

    Channel-grain parallelism is forced off here — workers must never
    spawn nested pools.
    """
    from repro.sim.runner import simulate
    from repro.sim.sweep import simulate_factory
    from repro.trace.generator import generate_trace_buffer

    records = generate_trace_buffer(task.profile, task.length, seed=task.seed,
                                    layout=task.config.layout)
    if task.planaria_variant is not None:
        from repro.core.planaria import PlanariaPrefetcher

        variant = task.planaria_variant
        return simulate_factory(
            records,
            lambda layout, channel: PlanariaPrefetcher(layout, channel, variant),
            task.prefetcher, workload_name=task.profile.abbr,
            config=task.config, parallelism="serial",
        )
    return simulate(records, task.prefetcher,
                    workload_name=task.profile.abbr, config=task.config,
                    parallelism="serial").metrics


def run_channel_job(job: Tuple[object, object, int]):
    """Drive one pickled ChannelSimulator over its stream; pool entry point.

    The stream is a :class:`~repro.trace.buffer.TraceBuffer`
    (``SystemSimulator`` packs a record list once, before the channel
    split), which pickles as compact column arrays (18 B/record) instead
    of a record-object list (~200 B/record) — the payload shipped to each
    worker shrinks by an order of magnitude.
    """
    channel_sim, stream, warmup = job
    channel_sim.run(stream, warmup_records=warmup)
    return channel_sim


class ParallelExecutor:
    """Fan work out over a process pool, or run it serially, identically.

    The executor never changes *what* is computed, only *where*: the
    serial path and the pool path call the same worker function on the
    same arguments in the same order, and ``map``'s result order matches
    the input order.  Any pool-infrastructure failure (not a simulation
    error) silently downgrades to the serial path — the inputs are
    untouched at that point, so the retry is safe.
    """

    def __init__(self, parallelism: Parallelism = "auto") -> None:
        self.parallelism = parallelism

    def workers_for(self, task_count: int, records: int) -> int:
        """Workers for ``task_count`` units totalling ``records`` records.

        ``"auto"`` resolves to 1 below :data:`AUTO_SERIAL_BELOW` records.
        """
        parallelism = self.parallelism
        if (records < AUTO_SERIAL_BELOW and isinstance(parallelism, str)
                and parallelism.strip().lower() == "auto"):
            return 1
        return resolve_parallelism(parallelism, task_count)

    def map(self, function: Callable[[_T], _R],
            items: Sequence[_T]) -> List[_R]:
        """``[function(item) for item in items]``, possibly via a pool."""
        items = list(items)
        workers = resolve_parallelism(self.parallelism, len(items))
        if workers <= 1 or len(items) <= 1 or not pool_available():
            return [function(item) for item in items]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(function, items))
        except _POOL_ERRORS:
            return [function(item) for item in items]

    def run_tasks(self, tasks: Sequence[SimulationTask]) -> List:
        """Run simulation tasks; results in task order (task grain)."""
        return self.map(run_simulation_task, tasks)

    def run_channels(self, jobs: Sequence[Tuple[object, list, int]]) -> List:
        """Run per-channel jobs; simulators in job order (channel grain)."""
        return self.map(run_channel_job, jobs)
