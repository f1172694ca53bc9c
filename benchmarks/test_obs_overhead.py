"""Observability overhead budget: obs must be ~free off, cheap on.

Measures end-to-end simulation throughput three ways —

* plain run (no observability, the default for every existing caller),
* obs attached then detached (the "disabled hook" configuration),
* obs attached and collecting (epoch timelines + event tracing),

— asserts the correctness contract first (``RunMetrics`` bit-identical
in all three configurations), then checks and prints the penalties.
The budget: the detached configuration is within measurement noise of
plain, and full collection costs at most a few percent (one ~60-scalar
capture pass per ``epoch_records``-record boundary, nothing per record).
The same budgets cover prefetch lineage (gating) and span tracing
(warnings only).  Throughput figures themselves come from ``perfbench/``.

Timing methodology (shared by every budget in this file): runs are
clocked with ``time.process_time`` — the budgets bound single-threaded
hook cost, and CPU time is immune to the scheduler preempting a run —
and each penalty is the **median over rounds of the within-round
ratio** (:func:`_penalties`).  Comparing per-mode bests from different
rounds reads anywhere from -0% to +20% for identical code on a machine
with bursty co-tenant contention (measured); within one round the modes
run back to back under mostly-equal contention, so a burst inflates one
side of one round's ratio.  The median drops those rounds on either
side.  A minimum over rounds would not: it keeps the round where a burst
slowed the plain run, and so read disabled and collecting runs as a
fifth *faster* than plain (-24% at 4,000 records on a 2-vCPU shared
machine), which leaves a budget unable to catch a real regression of a
few percent.  More rounds narrow the median; the budgets stay.

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -s

Set ``REPRO_BENCH_LENGTH`` to shrink runs (the CI smoke step does).
"""

import os
import statistics
import time
import warnings
from dataclasses import asdict

from repro.config import SimConfig
from repro.obs import attach_observability, detach_observability
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import SystemSimulator
from repro.sim.runner import _collect
from repro.trace.generator import generate_trace_buffer, get_profile

LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", 60_000))
APP = "CFM"
SEED = 7
PREFETCHERS = ("none", "planaria")
EPOCH_RECORDS = 1024
#: Rounds per mode, shared by all three budgets.  At CI's 8,000 records a
#: run takes 10-60 ms, and on a 2-vCPU shared machine the within-round
#: spread of two plain series had medians of 3-15%; more rounds steady
#: the medians without widening any budget.
ROUNDS = 15

#: Enabled-collection throughput penalty budget (fraction of plain rps).
MAX_ENABLED_PENALTY = 0.05
#: Disabled hooks must be within noise.  The noise floor is measured, not
#: assumed: the plain configuration runs as two independent series, and
#: their median within-round spread (plus this constant) bounds what
#: "identical code" looks like on the current machine.
DISABLED_NOISE_MARGIN = 0.01


def _run(buffer, prefetcher_name, mode):
    if mode == "plain2":  # second independent plain series (noise floor)
        mode = "plain"
    config = SimConfig.experiment_scale()
    simulator = SystemSimulator(
        config, lambda layout, channel: make_prefetcher(prefetcher_name,
                                                        layout, channel))
    obs = None
    if mode == "enabled":
        obs = attach_observability(simulator, epoch_records=EPOCH_RECORDS)
    elif mode == "disabled":
        attach_observability(simulator, epoch_records=EPOCH_RECORDS)
        detach_observability(simulator)
    start = time.process_time()
    simulator.run(buffer)
    elapsed = time.process_time() - start
    metrics = asdict(_collect(simulator, "obs-overhead", prefetcher_name))
    epochs = len(obs.merged_timeline()) if obs is not None else 0
    events = len(obs.events()) if obs is not None else 0
    return elapsed, metrics, epochs, events


_MODES = ("plain", "plain2", "disabled", "enabled")


def _measure(buffer, prefetcher_name, runner=None):
    """Run every mode :data:`ROUNDS` times, rotated within each round.

    Returns ``(best, round_times)``: the fastest raw runner result per
    mode, and one ``{mode: elapsed}`` table per round for the paired
    penalty estimator (:func:`_penalties`).  The rotation keeps any one
    mode from systematically running first (interpreter warm-up) or last
    (accumulated cache heat).
    """
    runner = runner or _run
    best = {}
    round_times = []
    for index in range(ROUNDS):
        shift = index % len(_MODES)
        times = {}
        for mode in _MODES[shift:] + _MODES[:shift]:
            result = runner(buffer, prefetcher_name, mode)
            times[mode] = result[0]
            if mode not in best or result[0] < best[mode][0]:
                best[mode] = result
        round_times.append(times)
    return best, round_times


def _penalties(round_times):
    """Median within-round penalties (see the module docstring).

    Returns ``(enabled_penalty, disabled_penalty, noise)`` where noise is
    the median within-round spread of the two independent plain series
    — the measured floor for what "identical code" looks like.
    """
    def penalty(mode, times):
        return times[mode] / min(times["plain"], times["plain2"]) - 1.0

    enabled = statistics.median(penalty("enabled", times)
                                for times in round_times)
    disabled = statistics.median(penalty("disabled", times)
                                 for times in round_times)
    noise = statistics.median(abs(times["plain2"] / times["plain"] - 1.0)
                              for times in round_times)
    return enabled, disabled, noise


def test_obs_overhead_budget():
    config = SimConfig.experiment_scale()
    buffer = generate_trace_buffer(get_profile(APP), LENGTH, seed=SEED,
                                   layout=config.layout)
    print()
    for name in PREFETCHERS:
        best, round_times = _measure(buffer, name)
        plain_metrics = best["plain"][1]
        disabled_metrics = best["disabled"][1]
        _, enabled_metrics, epochs, events = best["enabled"]
        # Correctness before cost: collection never changes results.
        assert enabled_metrics == plain_metrics, name
        assert disabled_metrics == plain_metrics, name
        enabled_penalty, disabled_penalty, noise = _penalties(round_times)
        plain_best = len(buffer) / min(best["plain"][0], best["plain2"][0])
        disabled_rps = len(buffer) / best["disabled"][0]
        enabled_rps = len(buffer) / best["enabled"][0]
        print(f"  {APP}/{name}: plain {plain_best:,.0f} rec/s "
              f"(noise ±{noise:.1%}), hooks off {disabled_rps:,.0f} "
              f"({disabled_penalty:+.1%}), collecting {enabled_rps:,.0f} "
              f"({enabled_penalty:+.1%}), {epochs} epochs / {events} events")
        assert enabled_penalty <= MAX_ENABLED_PENALTY + noise, (
            f"{name}: collecting cost {enabled_penalty:.1%} "
            f"(budget {MAX_ENABLED_PENALTY:.0%} + noise {noise:.1%})")
        assert disabled_penalty <= DISABLED_NOISE_MARGIN + noise, (
            f"{name}: disabled hooks cost {disabled_penalty:.1%}, outside "
            f"the measured noise floor {noise:.1%} "
            f"(+{DISABLED_NOISE_MARGIN:.0%} margin)")


# ----------------------------------------------------------------------
# Prefetch lineage overhead (gating)
# ----------------------------------------------------------------------
#: Collecting-lineage throughput penalty budget versus the scalar loop.
LINEAGE_MAX_ENABLED_PENALTY = 0.05
LINEAGE_NOISE_MARGIN = 0.01


def _run_lineage(buffer, prefetcher_name, mode):
    """One scalar-loop run, with or without a lineage collector."""
    from repro.obs.lineage import attach_lineage, detach_lineage

    if mode == "plain2":
        mode = "plain"
    config = SimConfig.experiment_scale()
    simulator = SystemSimulator(
        config,
        lambda layout, channel: make_prefetcher(prefetcher_name, layout,
                                                channel),
        engine_mode="scalar")
    lineage = None
    if mode == "enabled":
        lineage = attach_lineage(simulator)
    elif mode == "disabled":
        attach_lineage(simulator)
        detach_lineage(simulator)
    start = time.process_time()
    simulator.run(buffer)
    elapsed = time.process_time() - start
    metrics = asdict(_collect(simulator, "lineage-overhead",
                              prefetcher_name))
    issued = (lineage.summary()["totals"]["issued"]
              if lineage is not None else 0)
    return elapsed, metrics, issued, 0


def test_lineage_overhead_budget():
    """Gate: collecting full per-issue lineage costs <= 5% on the scalar
    loop, and the disabled hooks sit inside the noise margin (penalty
    estimator: module docstring)."""
    config = SimConfig.experiment_scale()
    buffer = generate_trace_buffer(get_profile(APP), LENGTH, seed=SEED,
                                   layout=config.layout)
    best, round_times = _measure(buffer, "planaria", runner=_run_lineage)
    plain_metrics = best["plain"][1]
    disabled_metrics = best["disabled"][1]
    _, enabled_metrics, issued, _ = best["enabled"]
    # Neutrality before cost: lineage never changes simulated results.
    assert enabled_metrics == plain_metrics
    assert disabled_metrics == plain_metrics
    assert issued > 0

    enabled_penalty, disabled_penalty, noise = _penalties(round_times)
    plain_best = len(buffer) / min(best["plain"][0], best["plain2"][0])
    disabled_rps = len(buffer) / best["disabled"][0]
    enabled_rps = len(buffer) / best["enabled"][0]
    print(f"\n  {APP}/planaria scalar: plain {plain_best:,.0f} rec/s "
          f"(noise ±{noise:.1%}), hooks off {disabled_rps:,.0f} "
          f"({disabled_penalty:+.1%}), lineage {enabled_rps:,.0f} "
          f"({enabled_penalty:+.1%}), {issued} issues tracked")
    assert enabled_penalty <= LINEAGE_MAX_ENABLED_PENALTY + noise, (
        f"lineage collecting cost {enabled_penalty:.1%} "
        f"(budget {LINEAGE_MAX_ENABLED_PENALTY:.0%} + noise {noise:.1%})")
    assert disabled_penalty <= LINEAGE_NOISE_MARGIN + noise, (
        f"lineage disabled hooks cost {disabled_penalty:.1%}, outside "
        f"the measured noise floor {noise:.1%} "
        f"(+{LINEAGE_NOISE_MARGIN:.0%} margin)")


# ----------------------------------------------------------------------
# Span tracing overhead (non-gating)
# ----------------------------------------------------------------------
#: Span-tracing budgets mirror the obs ones but only *warn* when blown:
#: span cost is per chunk, so the measured penalty is dominated by
#: chunk-size choice and machine noise, not by code regressions.  The
#: correctness half (bit-identical metrics) still hard-fails.
SPAN_MAX_ENABLED_PENALTY = 0.05
SPAN_DISABLED_NOISE_MARGIN = 0.01
SPAN_CHUNK = 2048


def _run_streaming(buffer, prefetcher_name, mode):
    """One chunked streaming feed — the path span tracing instruments."""
    from repro.obs.trace_spans import NULL_SPANS, SpanRecorder
    from repro.sim.engine import channel_warmup_counts

    if mode == "plain2":
        mode = "plain"
    config = SimConfig.experiment_scale()
    simulator = SystemSimulator(
        config, lambda layout, channel: make_prefetcher(prefetcher_name,
                                                        layout, channel))
    if mode == "enabled":
        simulator.spans = SpanRecorder()
    elif mode == "disabled":
        simulator.spans = NULL_SPANS  # the served tracing-off configuration
    simulator.set_stream_warmup(channel_warmup_counts(buffer, config))
    start = time.process_time()
    for begin in range(0, len(buffer), SPAN_CHUNK):
        simulator.feed(buffer[begin:begin + SPAN_CHUNK])
    elapsed = time.process_time() - start
    metrics = asdict(_collect(simulator, "span-overhead", prefetcher_name))
    recorded = len(simulator.spans) if mode == "enabled" else 0
    return elapsed, metrics, recorded, 0


def test_span_tracing_overhead_report():
    """Check span-tracing cost next to the obs numbers (non-gating).

    Hard assertion: ``RunMetrics`` bit-identical with tracing off/on.
    Budget breaches (disabled outside the measured noise floor, enabled
    beyond :data:`SPAN_MAX_ENABLED_PENALTY`) raise warnings but do not
    fail the build.
    """
    config = SimConfig.experiment_scale()
    buffer = generate_trace_buffer(get_profile(APP), LENGTH, seed=SEED,
                                   layout=config.layout)
    best, round_times = _measure(buffer, "planaria", runner=_run_streaming)
    plain_metrics = best["plain"][1]
    disabled_metrics = best["disabled"][1]
    _, enabled_metrics, recorded, _ = best["enabled"]
    assert enabled_metrics == plain_metrics
    assert disabled_metrics == plain_metrics

    enabled_penalty, disabled_penalty, noise = _penalties(round_times)
    plain_best = len(buffer) / min(best["plain"][0], best["plain2"][0])
    disabled_rps = len(buffer) / best["disabled"][0]
    enabled_rps = len(buffer) / best["enabled"][0]
    print(f"\n  {APP}/planaria streaming: plain {plain_best:,.0f} rec/s "
          f"(noise ±{noise:.1%}), NULL_SPANS {disabled_rps:,.0f} "
          f"({disabled_penalty:+.1%}), recording {enabled_rps:,.0f} "
          f"({enabled_penalty:+.1%}), {recorded} spans")
    if disabled_penalty > SPAN_DISABLED_NOISE_MARGIN + noise:
        warnings.warn(
            f"span tracing disabled-path penalty {disabled_penalty:.1%} "
            f"exceeds the measured noise floor {noise:.1%} "
            f"(+{SPAN_DISABLED_NOISE_MARGIN:.0%} margin)")
    if enabled_penalty > SPAN_MAX_ENABLED_PENALTY + noise:
        warnings.warn(
            f"span tracing enabled penalty {enabled_penalty:.1%} exceeds "
            f"the {SPAN_MAX_ENABLED_PENALTY:.0%} budget (+ noise "
            f"{noise:.1%})")
