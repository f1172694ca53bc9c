"""Records/sec throughput baseline for the simulation hot path.

Measures end-to-end simulation throughput (trace records simulated per
wall-clock second) through three execution modes —

* the scalar reference loop over trace columns, serial,
* the same loop under channel-grain parallelism (``"auto"``),
* the batch engine's fused array loops (``engine_mode="batch"`` — the
  production default, since ``"auto"`` resolves to it for LRU configs),

— per workload and prefetcher, asserts all three produce bit-identical
``RunMetrics`` (performance work must never change results), and writes
the numbers to ``BENCH_throughput.json`` at the repo root.  The batch
numbers land in a dedicated ``batched`` section scaled against the
*committed* scalar columnar baseline this PR started from, so the file
documents the batch engine's speedup even after the baseline keys are
regenerated on a different machine.  The committed JSON is the
performance baseline future changes are compared against:

    PYTHONPATH=src python -m pytest benchmarks/test_throughput.py -s

Set ``REPRO_BENCH_LENGTH`` / ``REPRO_BENCH_APPS`` to shrink runs (the CI
smoke step does); the committed baseline uses the defaults below, and a
run at another length writes ``BENCH_throughput-<length>.json`` instead.
"""

import json
import os
import time
from dataclasses import asdict
from pathlib import Path

from repro.config import SimConfig
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import SystemSimulator
from repro.sim.runner import _collect
from repro.trace.generator import generate_trace_buffer, get_profile
from repro.utils.provenance import runtime_provenance

DEFAULT_LENGTH = 60_000
LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", DEFAULT_LENGTH))
#: Only a default-length run replaces the committed baseline; a shortened
#: run writes ``BENCH_throughput-<length>.json`` beside it.
RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_throughput.json" if LENGTH == DEFAULT_LENGTH
    else f"BENCH_throughput-{LENGTH}.json")
APPS = [app for app in os.environ.get("REPRO_BENCH_APPS", "CFM").split(",")
        if app]
SEED = 7
PREFETCHERS = ("none", "planaria")
ROUNDS = 3

#: Object-record-loop throughput at the commit immediately before the
#: columnar pipeline landed (median of interleaved best-of-3 runs on the
#: baseline machine; CFM, 60k records, seed 7, experiment_scale config).
#: Kept as a fixed reference so the committed baseline documents the
#: speedup of the columnar loop over the object-record loop it replaced;
#: that loop has since been deleted from the engine.
PRE_PR_REFERENCE_RPS = {"none": 46_815, "planaria": 33_172}

#: Scalar columnar fast-loop throughput from the committed baseline JSON
#: at the commit immediately before the batch engine landed (same
#: machine/workload/settings as above).  The ``batched`` section reports
#: speedups against these fixed numbers, so the batch engine's scaling
#: stays documented even as the live keys get re-measured.
BATCH_BASELINE_RPS = {"none": 160_456, "planaria": 60_634}


def _simulate(buffer, prefetcher_name, parallelism="serial",
              engine_mode="scalar"):
    config = SimConfig.experiment_scale()
    simulator = SystemSimulator(
        config, lambda layout, channel: make_prefetcher(prefetcher_name,
                                                        layout, channel),
        engine_mode=engine_mode)
    simulator.run(buffer, parallelism=parallelism)
    return asdict(_collect(simulator, "throughput", prefetcher_name))


def _best_rps(buffer, prefetcher_name, parallelism="serial",
              engine_mode="scalar"):
    """(records/sec of the fastest round, metrics of the last round)."""
    best = None
    metrics = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        metrics = _simulate(buffer, prefetcher_name, parallelism,
                            engine_mode)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return len(buffer) / best, metrics


def test_throughput_baseline():
    config = SimConfig.experiment_scale()
    report = {
        "benchmark": "simulation throughput (trace records / second)",
        "trace_length": LENGTH,
        "seed": SEED,
        "rounds_per_mode": ROUNDS,
        **runtime_provenance(),
        "engine_modes": {
            "columnar_serial": "scalar",
            "columnar_parallel": "scalar",
            "batched": "batch",
        },
        "workloads": {},
    }
    print()
    batched_rps = {}
    for app in APPS:
        buffer = generate_trace_buffer(get_profile(app), LENGTH, seed=SEED,
                                       layout=config.layout)
        per_app = {}
        for name in PREFETCHERS:
            serial_rps, serial_metrics = _best_rps(buffer, name)
            parallel_rps, parallel_metrics = _best_rps(buffer, name,
                                                       parallelism="auto")
            batch_rps, batch_metrics = _best_rps(buffer, name,
                                                 engine_mode="batch")
            # The contract before the numbers: all three modes must agree
            # on every RunMetrics field, bit for bit.
            assert parallel_metrics == serial_metrics, name
            assert batch_metrics == serial_metrics, name
            per_app[name] = {
                "columnar_serial_rps": round(serial_rps),
                "columnar_parallel_rps": round(parallel_rps),
                "batched_rps": round(batch_rps),
                "batched_vs_columnar_speedup": round(batch_rps / serial_rps,
                                                     2),
            }
            if app == "CFM":
                batched_rps[name] = batch_rps
            print(f"  {app}/{name}: batched {batch_rps:,.0f} rec/s, "
                  f"columnar {serial_rps:,.0f} rec/s "
                  f"(parallel {parallel_rps:,.0f})")
        report["workloads"][app] = per_app

    if batched_rps:
        report["batched"] = {
            "description": (
                "fused array-state loops (engine_mode='batch', the "
                "resolution of the default 'auto' for LRU configs) vs the "
                "committed scalar columnar baseline at the commit before "
                "the batch engine landed (CFM, 60k records, seed 7)"),
            "committed_baseline_rps": BATCH_BASELINE_RPS,
            "batched_rps": {name: round(rps)
                            for name, rps in batched_rps.items()},
            "batched_speedup_vs_committed_baseline": {
                name: round(rps / BATCH_BASELINE_RPS[name], 2)
                for name, rps in batched_rps.items()
                if name in BATCH_BASELINE_RPS
            },
        }

    if "CFM" in report["workloads"]:
        cfm = report["workloads"]["CFM"]
        report["pre_pr_reference"] = {
            "description": (
                "object-record loop at the commit before the columnar "
                "pipeline (median best-of-3, same machine, CFM, 60k "
                "records, seed 7)"),
            "rps": PRE_PR_REFERENCE_RPS,
            "speedup_columnar_vs_pre_pr": {
                name: round(cfm[name]["columnar_serial_rps"]
                            / PRE_PR_REFERENCE_RPS[name], 2)
                for name in PREFETCHERS if name in cfm
            },
        }

    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {RESULT_PATH}")
