"""Record-list input ⇔ columnar input, and scalar ⇔ batch engine.

``SystemSimulator.run`` accepts the same trace in two forms: a columnar
:class:`TraceBuffer` and a list of ``TraceRecord`` objects, which it packs
into a buffer once before routing.  It runs each form on either engine:
the scalar reference loop (``engine_mode="scalar"``) or the batch engine
(``"auto"`` resolves to it for these LRU configs).  Every RunMetrics field
must be bit-identical across input forms and engines, serially and under
channel-grain parallelism, on a generated trace and on the committed
golden fixture.

The batch engine must also reproduce the committed golden expectations —
numbers originally pinned by the scalar loop — bit-for-bit.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import SystemSimulator
from repro.sim.runner import _collect
from repro.trace.buffer import TraceBuffer
from repro.trace.generator import generate_trace_buffer, get_profile
from repro.trace.io import read_trace

PREFETCHERS = ("none", "bop", "spp", "planaria")
GOLDEN_TRACE = Path(__file__).parent / "golden" / "trace_CFM_4k.csv"
GOLDEN_EXPECTED = Path(__file__).parent / "golden" / "expected_metrics.json"


def _run(records, prefetcher_name, parallelism="serial",
         engine_mode="auto"):
    config = SimConfig.experiment_scale()
    simulator = SystemSimulator(
        config, lambda layout, channel: make_prefetcher(prefetcher_name,
                                                        layout, channel),
        engine_mode=engine_mode)
    simulator.run(records, parallelism=parallelism)
    return asdict(_collect(simulator, "equivalence", prefetcher_name))


@pytest.fixture(scope="module")
def buffer():
    return generate_trace_buffer(get_profile("CFM"), 8_000, seed=11)


@pytest.fixture(scope="module")
def records(buffer):
    return buffer.to_records()


@pytest.mark.parametrize("name", PREFETCHERS)
def test_columnar_matches_object_path(buffer, records, name):
    """A buffer vs its record list, both on the scalar loop."""
    assert _run(buffer, name, engine_mode="scalar") == _run(
        records, name, engine_mode="scalar")


@pytest.mark.parametrize("name", PREFETCHERS)
def test_columnar_parallel_matches_object_serial(buffer, records, name):
    """A buffer under channel-grain parallelism vs its record list run
    serially, both on the batch engine."""
    assert _run(buffer, name, parallelism=2) == _run(
        records, name, parallelism="serial")


@pytest.mark.parametrize("name", PREFETCHERS)
def test_golden_trace_identical_through_both_paths(name):
    """The golden trace as a record list and as a buffer."""
    records = list(read_trace(GOLDEN_TRACE))
    assert _run(records, name) == _run(TraceBuffer.from_records(records),
                                       name)


@pytest.mark.parametrize("name", PREFETCHERS)
def test_golden_trace_identical_across_engines(name):
    """Batch engine vs scalar engine on the committed golden trace."""
    records = list(read_trace(GOLDEN_TRACE))
    batch = _run(records, name, engine_mode="batch")
    scalar = _run(records, name, engine_mode="scalar")
    assert batch == scalar


@pytest.mark.parametrize("name", PREFETCHERS)
def test_golden_expectations_hold_on_batch_path(name):
    """The batch engine reproduces the *committed* golden numbers — the
    fixtures regression-pin the fused loops, not just engine-vs-engine
    agreement on whatever today's behaviour is."""
    records = list(read_trace(GOLDEN_TRACE))
    expected = json.loads(GOLDEN_EXPECTED.read_text())[name]
    batch = _run(records, name, engine_mode="batch")
    for field_name, want in expected.items():
        if field_name == "workload":
            continue  # run label, set by the harness, not a measurement
        assert batch[field_name] == want, (
            f"{name}.{field_name}: batch {batch[field_name]!r} "
            f"vs golden {want!r}")


@pytest.mark.parametrize("name", PREFETCHERS)
def test_batch_parallel_matches_scalar_serial(buffer, name):
    """Fused loops under channel-grain parallelism vs the scalar serial
    loop — the two most distant execution configurations."""
    assert _run(buffer, name, parallelism=2,
                engine_mode="batch") == _run(
        buffer, name, parallelism="serial", engine_mode="scalar")


def test_passive_fast_loop_matches_object_path(buffer, records):
    """The batch engine's fused demand-only loop (passive prefetcher) vs
    the scalar loop on the record list."""
    metrics = _run(buffer, "none", engine_mode="batch")
    assert metrics == _run(records, "none", engine_mode="scalar")
    assert metrics["demand_accesses"] == len(buffer)
