"""Serial/parallel equivalence: the executor's bit-identity contract.

The whole point of the parallel execution layer (repro.sim.executor) is
that it changes *where* simulations run, never *what* they compute.  These
tests drive the same seeded workload through ``parallelism="serial"`` and
``parallelism=2`` at both grains and require every ``RunMetrics`` field —
including floats and the Figure-9 per-source attribution counts — to be
exactly equal.
"""

import pytest

from repro.sim.executor import (AUTO_SERIAL_BELOW, ParallelExecutor,
                                pool_available, resolve_parallelism)
from repro.sim.runner import compare_prefetchers, run_workload, simulate
from repro.trace.generator import generate_trace_buffer, get_profile

APP = "CFM"
LENGTH = 8_000
SEED = 3
needs_pool = pytest.mark.skipif(
    not pool_available(),
    reason="multiprocessing pool unavailable in this environment")


def assert_identical(serial, parallel):
    """Field-for-field equality, with a readable per-field diff on failure."""
    assert serial.workload == parallel.workload
    assert serial.prefetcher == parallel.prefetcher
    for field_name in ("amat", "hit_rate", "demand_accesses", "demand_misses",
                       "dram_traffic", "prefetch_issued", "prefetch_fills",
                       "prefetch_useful", "prefetch_useful_by_source",
                       "prefetch_unused", "power_mw", "energy_nj",
                       "storage_bits", "p99_latency"):
        serial_value = getattr(serial, field_name)
        parallel_value = getattr(parallel, field_name)
        assert serial_value == parallel_value, (
            f"{serial.prefetcher}.{field_name}: serial={serial_value!r} "
            f"parallel={parallel_value!r}")
    # Derived quantities follow, but assert them anyway: they are what
    # figures are built from.
    assert serial.accuracy == parallel.accuracy
    assert serial.coverage == parallel.coverage
    # The belt-and-braces check: frozen-dataclass equality over all fields.
    assert serial == parallel


@needs_pool
def test_task_grain_equivalence():
    """compare_prefetchers: process-pool tasks == in-process loop."""
    serial = compare_prefetchers(APP, ("none", "bop", "planaria"),
                                 length=LENGTH, seed=SEED,
                                 parallelism="serial")
    parallel = compare_prefetchers(APP, ("none", "bop", "planaria"),
                                   length=LENGTH, seed=SEED, parallelism=2)
    assert list(serial) == list(parallel)
    for name in serial:
        assert_identical(serial[name], parallel[name])


@needs_pool
def test_task_grain_figure9_attribution():
    """Planaria's SLP/TLP attribution survives the process boundary."""
    serial = compare_prefetchers(APP, ("planaria",), length=LENGTH,
                                 seed=SEED, parallelism="serial")["planaria"]
    parallel = compare_prefetchers(APP, ("planaria",), length=LENGTH,
                                   seed=SEED, parallelism=2)["planaria"]
    assert serial.prefetch_useful_by_source == parallel.prefetch_useful_by_source


@needs_pool
def test_channel_grain_equivalence():
    """run_workload: per-channel processes == in-process channel loop."""
    serial = run_workload(APP, "planaria", length=LENGTH, seed=SEED,
                          parallelism="serial")
    parallel = run_workload(APP, "planaria", length=LENGTH, seed=SEED,
                            parallelism=2)
    assert_identical(serial, parallel)


def test_auto_mode_matches_serial():
    """``parallelism="auto"`` must be a pure performance knob regardless of
    how many workers it resolves to on this machine."""
    serial = compare_prefetchers(APP, ("none", "planaria"), length=LENGTH,
                                 seed=SEED, parallelism="serial")
    auto = compare_prefetchers(APP, ("none", "planaria"), length=LENGTH,
                               seed=SEED, parallelism="auto")
    for name in serial:
        assert_identical(serial[name], auto[name])


def test_auto_runs_short_traces_serially(monkeypatch):
    """``"auto"`` below ``AUTO_SERIAL_BELOW`` records never starts a pool,
    at channel or task grain, even when it resolves to several workers;
    an explicit worker count still reaches it."""
    calls = []
    run_channels = ParallelExecutor.run_channels
    run_tasks = ParallelExecutor.run_tasks

    def counting_channels(self, jobs):
        calls.append(("channels", self.parallelism))
        return run_channels(self, jobs)

    def counting_tasks(self, tasks):
        calls.append(("tasks", self.parallelism))
        return run_tasks(self, tasks)

    monkeypatch.setattr(ParallelExecutor, "run_channels", counting_channels)
    monkeypatch.setattr(ParallelExecutor, "run_tasks", counting_tasks)
    monkeypatch.setenv("REPRO_PARALLELISM", "2")
    length = 4_000
    buffer = generate_trace_buffer(get_profile(APP), length, seed=SEED)
    assert len(buffer) < AUTO_SERIAL_BELOW
    serial = simulate(buffer, "planaria", parallelism="serial").metrics
    assert simulate(buffer, "planaria", parallelism="auto").metrics == serial
    assert calls == []
    assert simulate(buffer, "planaria", parallelism=2).metrics == serial
    assert calls == [("channels", 2)]

    names = ("none", "planaria")
    assert length * len(names) < AUTO_SERIAL_BELOW
    calls.clear()
    line_up = compare_prefetchers(APP, names, length=length, seed=SEED,
                                  parallelism="serial")
    assert compare_prefetchers(APP, names, length=length, seed=SEED,
                               parallelism="auto") == line_up
    assert calls == []
    assert compare_prefetchers(APP, names, length=length, seed=SEED,
                               parallelism=2) == line_up
    assert calls == [("tasks", 2)]


class TestResolveParallelism:
    def test_serial_is_one_worker(self):
        assert resolve_parallelism("serial") == 1

    def test_explicit_count(self):
        assert resolve_parallelism(3) == 3
        assert resolve_parallelism("3") == 3

    def test_clamped_to_task_count(self):
        assert resolve_parallelism(8, task_count=2) == 2
        assert resolve_parallelism(8, task_count=0) == 1

    def test_auto_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "5")
        assert resolve_parallelism("auto") == 5

    def test_auto_defaults_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_PARALLELISM", raising=False)
        assert resolve_parallelism("auto") == (os.cpu_count() or 1)

    def test_rejects_junk(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            resolve_parallelism("fast")
        with pytest.raises(ConfigError):
            resolve_parallelism(0)
