"""Command-line interface: ``python -m repro <command>``.

Commands
--------

* ``workloads``  — list the ten Table-2 application profiles.
* ``generate``   — synthesise a trace to a CSV or binary file.
* ``simulate``   — run a prefetcher line-up over an app or a trace file.
* ``figure``     — regenerate one paper figure (fig2/fig4/.../headline),
  optionally exporting CSV/SVG artifacts.
* ``stability``  — metric spread across generator seeds.
* ``footprint``  — draw the Figure-2 ASCII scatter for an application.
* ``storage``    — print Planaria's bit-level storage budget.
* ``timeline``   — run one prefetcher with observability on and dump the
  epoch timeline to JSONL/CSV (docs/observability.md).
* ``explain``    — per-issue prefetch provenance and fate attribution:
  origin buckets x queue outcomes x final fates, offline or against a
  live lineage-enabled session (docs/observability.md).
* ``watch``      — poll a live service session's timeline.
* ``serve``      — run the streaming simulation service (docs/service.md).
* ``multitenant``— merged multi-tenant contention study: shared vs
  way-partitioned SC, per-tenant QoS deltas vs solo baselines, writing
  BENCH_multitenant.json (docs/multitenant.md).
* ``campaign``   — declarative YAML sweep grids dispatched to the
  service fleet with checkpointed resume (``run``/``resume``/``status``)
  and a sustained-rate ``soak`` mode (docs/campaigns.md).

All commands exit 130 on Ctrl-C (the conventional SIGINT code); ``serve``
additionally drains and checkpoints open sessions on SIGTERM.

``simulate``, ``figure``, ``stability`` and ``timeline`` accept
``--profile [FILE]`` to run under :mod:`cProfile` and dump a
cumulative-time top-25 to stderr or a file, and ``--profile-out PATH`` to
write the complete binary pstats dump for offline analysis
(see docs/performance.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli_export import add_export_argument, export_if_requested
from repro.core.storage import planaria_storage_budget
from repro.errors import ReproError
from repro.prefetch.registry import PREFETCHER_FACTORIES
from repro.trace.generator import get_profile, list_workloads


def _cmd_workloads(args: argparse.Namespace) -> int:
    print(f"{'abbr':6s} {'name':<20} {'paper len (M)':>13}  description")
    for abbr in list_workloads():
        profile = get_profile(abbr)
        print(f"{abbr:6s} {profile.name:<20} "
              f"{profile.paper_length_millions:>13.2f}  {profile.description}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.trace.generator import generate_trace_buffer
    from repro.trace.io import write_trace_binary_buffer, write_trace_buffer

    profile = get_profile(args.app)
    buffer = generate_trace_buffer(profile, args.length, seed=args.seed)
    if args.output.endswith(".bin"):
        count = write_trace_binary_buffer(args.output, buffer)
    else:
        count = write_trace_buffer(args.output, buffer)
    print(f"wrote {count} records of {profile.name} to {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.runner import compare_prefetchers, simulate

    config = None
    if args.sim_config:
        from repro.config_io import load_sim_config

        config = load_sim_config(args.sim_config)

    prefetchers = args.prefetchers.split(",")
    unknown = [name for name in prefetchers if name not in PREFETCHER_FACTORIES]
    if unknown:
        print(f"unknown prefetchers: {unknown}; "
              f"known: {sorted(PREFETCHER_FACTORIES)}", file=sys.stderr)
        return 2

    if args.trace:
        from repro.trace.io import read_trace_binary_buffer, read_trace_buffer

        if args.trace.endswith(".bin"):
            records = read_trace_binary_buffer(args.trace)
        else:
            records = read_trace_buffer(args.trace)
        results = {
            name: simulate(records, name, workload_name=args.trace,
                           config=config,
                           parallelism=args.parallelism).metrics
            for name in prefetchers
        }
    else:
        results = compare_prefetchers(args.app, prefetchers,
                                      length=args.length, seed=args.seed,
                                      config=config,
                                      parallelism=args.parallelism)

    base = results.get("none") or next(iter(results.values()))
    print(f"{'prefetcher':<12} {'hit rate':>9} {'AMAT':>9} {'accuracy':>9} "
          f"{'coverage':>9} {'dTraffic':>9} {'dPower':>8}")
    for name, metrics in results.items():
        print(f"{name:<12} {metrics.hit_rate:>9.3f} {metrics.amat:>9.1f} "
              f"{metrics.accuracy:>9.2f} {metrics.coverage:>9.2f} "
              f"{metrics.traffic_overhead_vs(base):>+9.1%} "
              f"{metrics.power_overhead_vs(base):>+8.1%}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS, ExperimentSettings

    if args.id not in ALL_EXPERIMENTS:
        print(f"unknown figure {args.id!r}; known: {sorted(ALL_EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    settings = ExperimentSettings(
        trace_length=args.length, seed=args.seed,
        apps=tuple(args.apps.split(",")) if args.apps
        else tuple(list_workloads()),
        parallelism=args.parallelism,
    )
    report = ALL_EXPERIMENTS[args.id](settings)
    print(report.format_table())
    export_if_requested(report, args.export)
    return 0


def _cmd_footprint(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentSettings, fig2_footprint

    settings = ExperimentSettings(trace_length=args.length, seed=args.seed,
                                  apps=(args.app,))
    print(fig2_footprint.ascii_plot(settings, app=args.app))
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.experiments.stability import seed_stability

    summaries = seed_stability(args.app, args.prefetcher,
                               seeds=range(1, args.seeds + 1),
                               length=args.length)
    print(f"{args.prefetcher} on {args.app}, {args.seeds} seeds, "
          f"{args.length} requests each (mean ± std [min, max]):")
    for name, summary in summaries.items():
        print(f"  {name:<18} {summary.format()}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import attach_observability
    from repro.obs.export import (write_events_jsonl, write_timeline_csv,
                                  write_timeline_jsonl)
    from repro.config import SimConfig
    from repro.errors import ConfigError
    from repro.prefetch.registry import make_prefetcher
    from repro.sim.engine import SystemSimulator

    if args.epoch_records < 1:
        raise ConfigError(
            f"--epoch-records must be >= 1, got {args.epoch_records}")
    config = None
    if args.sim_config:
        from repro.config_io import load_sim_config

        config = load_sim_config(args.sim_config)
    config = config or SimConfig.experiment_scale()

    if args.prefetcher not in PREFETCHER_FACTORIES:
        print(f"unknown prefetcher {args.prefetcher!r}; "
              f"known: {sorted(PREFETCHER_FACTORIES)}", file=sys.stderr)
        return 2

    if args.trace:
        from repro.trace.io import read_trace_binary_buffer, read_trace_buffer

        if args.trace.endswith(".bin"):
            records = read_trace_binary_buffer(args.trace)
        else:
            records = read_trace_buffer(args.trace)
        workload = args.trace
    else:
        from repro.trace.generator import generate_trace_buffer

        profile = get_profile(args.app)
        records = generate_trace_buffer(profile, args.length, seed=args.seed,
                                        layout=config.layout)
        workload = profile.abbr

    simulator = SystemSimulator(
        config, lambda layout, channel: make_prefetcher(args.prefetcher,
                                                        layout, channel))
    obs = attach_observability(simulator, epoch_records=args.epoch_records)
    simulator.run(records)
    epochs = obs.merged_timeline(include_partial=True)
    meta = {"workload": workload, "prefetcher": args.prefetcher,
            "epoch_records": args.epoch_records, "records": len(records)}
    if args.output.endswith(".csv"):
        write_timeline_csv(args.output, epochs, meta=meta)
    else:
        write_timeline_jsonl(args.output, epochs, meta=meta)
    print(f"wrote {len(epochs)} epochs ({len(records)} records of "
          f"{workload} x {args.prefetcher}) to {args.output}")
    if args.events:
        events = obs.events()
        write_events_jsonl(args.events, events, meta=meta)
        print(f"wrote {len(events)} events to {args.events}")
    return 0


#: (summary key, table column header) per lineage pipeline stage, in
#: pipeline order — shared by ``repro explain``'s table and its export.
_LINEAGE_STAGES = (
    ("issued", "issued"),
    ("accepted", "accept"),
    ("dropped_duplicate", "dup"),
    ("dropped_degree", "degree"),
    ("dropped_full", "full"),
    ("suppressed", "supp"),
    ("skipped_resident", "skip"),
    ("discarded_unfilled", "unfill"),
    ("filled", "filled"),
    ("used_timely", "timely"),
    ("used_late", "late"),
    ("evicted_unused", "evict"),
    ("invalidated", "inval"),
    ("resident", "res"),
)


def _lineage_report(summary: dict, label: str):
    """Shape a (merged) lineage summary as an ``ExperimentReport``."""
    from repro.experiments.report import ExperimentReport
    from repro.obs.lineage import lineage_consistent

    report = ExperimentReport(
        experiment_id="lineage",
        title=f"prefetch provenance and fate attribution ({label})",
        columns=["bucket"] + [header for _, header in _LINEAGE_STAGES],
    )
    buckets = summary.get("buckets", {})
    for bucket in sorted(buckets):
        stages = buckets[bucket]
        report.add_row([bucket] + [stages.get(key, 0)
                                   for key, _ in _LINEAGE_STAGES])
    totals = summary.get("totals", {})
    for key, _ in _LINEAGE_STAGES:
        report.summary[key] = totals.get(key, 0)
    report.summary["consistent"] = lineage_consistent(summary)
    if summary.get("pollution_by_device"):
        report.details["pollution_by_device"] = dict(
            summary["pollution_by_device"])
    reuse = summary.get("snapshot_reuse")
    if reuse and reuse.get("histogram"):
        report.details["snapshot_reuse"] = dict(reuse["histogram"])
    return report


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.obs.lineage import lineage_consistent, write_fate_trace

    want_events = bool(args.fate_trace)
    if args.session:
        from repro.service.client import ServiceClient

        with ServiceClient.connect(args.host, args.port) as client:
            summary = client.lineage(args.session, events=want_events)
        events = summary.pop("events", None)
        label = f"session {args.session}"
    else:
        from repro.config import SimConfig
        from repro.obs import attach_lineage
        from repro.prefetch.registry import make_prefetcher
        from repro.sim.engine import SystemSimulator

        config = None
        if args.sim_config:
            from repro.config_io import load_sim_config

            config = load_sim_config(args.sim_config)
        config = config or SimConfig.experiment_scale()
        if args.prefetcher not in PREFETCHER_FACTORIES:
            print(f"unknown prefetcher {args.prefetcher!r}; "
                  f"known: {sorted(PREFETCHER_FACTORIES)}", file=sys.stderr)
            return 2
        if args.trace:
            from repro.trace.io import (read_trace_binary_buffer,
                                        read_trace_buffer)

            if args.trace.endswith(".bin"):
                records = read_trace_binary_buffer(args.trace)
            else:
                records = read_trace_buffer(args.trace)
            workload = args.trace
        else:
            from repro.trace.generator import generate_trace_buffer

            profile = get_profile(args.app)
            records = generate_trace_buffer(profile, args.length,
                                            seed=args.seed,
                                            layout=config.layout)
            workload = profile.abbr
        simulator = SystemSimulator(
            config, lambda layout, channel: make_prefetcher(
                args.prefetcher, layout, channel))
        lineage = attach_lineage(simulator)
        simulator.run(records, parallelism=args.parallelism)
        summary = lineage.summary()
        events = lineage.events() if want_events else None
        label = f"{workload} x {args.prefetcher}"

    report = _lineage_report(summary, label)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(report.format_table())
    export_if_requested(report, args.export)
    if args.fate_trace:
        path = write_fate_trace(args.fate_trace, events or [])
        print(f"wrote {len(events or [])} fate events to {path}")
    if not lineage_consistent(summary):
        print("error: lineage accounting is inconsistent "
              "(stage totals do not reconcile)", file=sys.stderr)
        return 1
    return 0


def _format_epoch_row(epoch, health: str = "-", timely: str = "-") -> str:
    return (f"{epoch.epoch:>6d} {epoch.records:>8d} {epoch.hit_rate:>8.3f} "
            f"{epoch.amat:>8.1f} {epoch.accuracy:>8.2f} "
            f"{epoch.slp_issued:>7d} {epoch.tlp_issued:>7d} "
            f"{epoch.queue_depth:>6d} {epoch.throttle_suspended:>5d} "
            f"{health:>8} {timely:>7}")


_WATCH_HEADER = (f"{'epoch':>6} {'records':>8} {'hitrate':>8} {'amat':>8} "
                 f"{'accuracy':>8} {'slp':>7} {'tlp':>7} {'queue':>6} "
                 f"{'susp':>5} {'health':>8} {'timely':>7}")


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    with ServiceClient.connect(args.host, args.port) as client:
        print(_WATCH_HEADER)
        printed = 0  # epochs already printed and final
        polls = 0
        lineage_available = True  # until the server says otherwise
        while True:
            epochs, _ = client.timeline(args.session, include_partial=True,
                                        wait=not args.no_wait)
            health = "-"
            if not args.no_health:
                report = client.health()
                health = report.sessions.get(args.session, report.status)
            timely = "-"
            if lineage_available:
                try:
                    summary = client.lineage(args.session,
                                             wait=not args.no_wait)
                    timely = str(summary["totals"]["used_timely"])
                except ServiceError:
                    # Opened without lineage — don't ask again.
                    lineage_available = False
            # Closed epochs print once; the still-growing tail epoch is
            # re-printed (updated) on every poll.
            for epoch in epochs[printed:]:
                print(_format_epoch_row(epoch, health, timely))
            printed = max(printed, len(epochs) - 1)
            polls += 1
            if args.count and polls >= args.count:
                return 0
            time.sleep(args.interval)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.workers == 1:
        from repro.service.server import run_server

        stats = run_server(
            host=args.host, port=args.port,
            checkpoint_dir=args.checkpoint_dir,
            max_inflight_chunks=args.max_inflight,
            workers=args.worker_threads,
            checkpoint_interval=args.checkpoint_interval,
            metrics_port=args.metrics_port,
            tracing=args.trace,
            log_json=args.log_json,
        )
        print(f"server drained: {stats}")
        return 0
    from repro.service.cluster import run_cluster

    summary = run_cluster(
        workers=args.workers, host=args.host, port=args.port,
        checkpoint_dir=args.checkpoint_dir,
        max_inflight_chunks=args.max_inflight,
        worker_threads=args.worker_threads,
        checkpoint_interval=args.checkpoint_interval,
        metrics_port=args.metrics_port,
        tracing=args.trace,
        log_json=args.log_json,
    )
    print(f"cluster drained: {summary}")
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro.obs.trace_spans import write_chrome_trace
    from repro.service.client import ServiceClient

    with ServiceClient.connect(args.host, args.port) as client:
        spans, summary = client.server_spans(clear=args.clear)
    write_chrome_trace(args.output, spans)
    print(f"wrote {len(spans)} spans to {args.output} "
          f"(open in https://ui.perfetto.dev)")
    if summary:
        print(f"{'span':<24} {'count':>8} {'mean_us':>10} {'p50_us':>8} "
              f"{'p95_us':>8} {'p99_us':>8}")
        for name in sorted(summary):
            entry = summary[name]
            print(f"{name:<24} {entry['count']:>8.0f} "
                  f"{entry['mean_us']:>10.1f} {entry['p50_us']:>8.0f} "
                  f"{entry['p95_us']:>8.0f} {entry['p99_us']:>8.0f}")
    return 0


#: ``repro multitenant`` default tenant mix: a CPU-tagged game alongside a
#: GPU-tagged MOBA, equal lengths, distinct seeds.
_DEFAULT_TENANTS = ("app=CFM,device=CPU,seed=1", "app=HoK,device=GPU,seed=2")


def _cmd_multitenant(args: argparse.Namespace) -> int:
    from repro.tenancy import TenantSpec, multitenant_experiment, write_bench

    config = None
    if args.sim_config:
        from repro.config_io import load_sim_config

        config = load_sim_config(args.sim_config)

    prefetchers = args.prefetchers.split(",")
    unknown = [name for name in prefetchers if name not in PREFETCHER_FACTORIES]
    if unknown:
        print(f"unknown prefetchers: {unknown}; "
              f"known: {sorted(PREFETCHER_FACTORIES)}", file=sys.stderr)
        return 2

    texts = args.tenant or list(_DEFAULT_TENANTS)
    specs = []
    for text in texts:
        spec = TenantSpec.parse(text)
        if "length=" not in text:
            spec = TenantSpec(app=spec.app, device=spec.device,
                              length=args.length, seed=spec.seed,
                              phase_offset=spec.phase_offset,
                              intensity=spec.intensity)
        specs.append(spec)

    report = multitenant_experiment(specs, prefetchers, config=config)
    print(report.format_table())
    if args.output:
        written = write_bench(report, args.output)
        print(f"wrote {written}")
    export_if_requested(report, args.export)
    return 0


def _campaign_runner(args: argparse.Namespace):
    from repro.campaign import CampaignRunner, load_campaign

    spec = load_campaign(args.spec)
    return CampaignRunner(spec, args.state_dir,
                          endpoints=args.endpoint or ())


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import load_state, write_results

    runner = _campaign_runner(args)
    summary = runner.run(resume=args.resume, progress=print)
    print(f"campaign {summary['name']}: {summary['total_cells']} cells "
          f"({summary['executed_cells']} executed, "
          f"{summary['skipped_cells']} resumed from state)")
    state = load_state(runner.state_file)
    results_dir = args.export or args.state_dir
    for written in write_results(runner, state, results_dir):
        print(f"exported {written}")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    runner = _campaign_runner(args)
    status = runner.status()
    print(f"campaign {status['name']}: "
          f"{status['completed_cells']}/{status['total_cells']} cells "
          f"completed ({status['state_file']})")
    for cell_id in status["pending_cells"]:
        print(f"  pending {cell_id}")
    if status["complete"]:
        print("  complete")
    return 0


def _cmd_campaign_soak(args: argparse.Namespace) -> int:
    from repro.campaign import load_campaign, run_soak

    spec = load_campaign(args.spec)
    section = run_soak(spec, args.endpoint,
                       duration_seconds=args.duration,
                       output=args.output, progress=print)
    print(f"soak {section['duration_seconds']}s against "
          f"{section['endpoint']}: {section['records_fed']} records "
          f"({section['achieved_records_per_second']:,} rec/s, "
          f"{len(section['samples'])} samples) -> {args.output}")
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    budget = planaria_storage_budget()
    print(budget.format_table())
    print(f"\nfraction of the 4 MB SC: {budget.fraction_of_cache():.1%} "
          f"(paper: 8.4%)")
    return 0


def _add_parallelism_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallelism", default="auto", metavar="MODE",
        help="'auto' (default: one worker per core), 'serial', or a worker "
             "count; results are bit-identical across modes "
             "(docs/parallelism.md)")


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="FILE",
        help="run the command under cProfile and dump the top functions "
             "by cumulative time to stderr (no argument) or FILE "
             "(docs/performance.md)")
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="also write the full binary pstats dump to PATH, loadable "
             "with pstats.Stats(PATH) or snakeviz")


_PROFILE_TOP_N = 25


def _run_profiled(handler, args: argparse.Namespace) -> int:
    """Run a command handler under cProfile, then dump sorted stats.

    The profile never changes the command's exit code or output; the
    text report goes to stderr (``--profile``) or a file
    (``--profile FILE``) so stdout stays parseable, and
    ``--profile-out PATH`` writes the complete binary pstats dump.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return handler(args)
    finally:
        profiler.disable()
        if args.profile_out:
            stats = pstats.Stats(profiler)
            stats.dump_stats(args.profile_out)
            print(f"pstats dump written to {args.profile_out}",
                  file=sys.stderr)
        if args.profile is not None:
            text = io.StringIO()
            stats = pstats.Stats(profiler, stream=text)
            stats.sort_stats("cumulative").print_stats(_PROFILE_TOP_N)
            if args.profile == "-":
                sys.stderr.write(text.getvalue())
            else:
                with open(args.profile, "w", encoding="utf-8") as handle:
                    handle.write(text.getvalue())
                print(f"profile written to {args.profile}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Planaria (DAC 2024) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("workloads", help="list application profiles"
                        ).set_defaults(handler=_cmd_workloads)

    generate = commands.add_parser("generate", help="synthesise a trace file")
    generate.add_argument("app", choices=list_workloads())
    generate.add_argument("output", help=".csv or .bin path")
    generate.add_argument("--length", type=int, default=100_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    simulate = commands.add_parser("simulate", help="run prefetchers over a workload")
    simulate.add_argument("--app", default="CFM", choices=list_workloads())
    simulate.add_argument("--trace", help="simulate a trace file instead")
    simulate.add_argument("--prefetchers", default="none,bop,spp,planaria")
    simulate.add_argument("--length", type=int, default=60_000)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--sim-config", metavar="JSON",
                          help="SimConfig JSON file (see repro.config_io)")
    _add_parallelism_argument(simulate)
    _add_profile_argument(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("id", help="fig2|fig4|fig5|fig7|fig8|fig9|fig10|headline")
    figure.add_argument("--length", type=int, default=60_000)
    figure.add_argument("--seed", type=int, default=7)
    figure.add_argument("--apps", help="comma-separated subset, e.g. CFM,Fort")
    add_export_argument(figure, what="the figure's report")
    _add_parallelism_argument(figure)
    _add_profile_argument(figure)
    figure.set_defaults(handler=_cmd_figure)

    stability = commands.add_parser(
        "stability", help="metric spread across generator seeds")
    stability.add_argument("--app", default="CFM", choices=list_workloads())
    stability.add_argument("--prefetcher", default="planaria")
    stability.add_argument("--seeds", type=int, default=5)
    stability.add_argument("--length", type=int, default=40_000)
    _add_profile_argument(stability)
    stability.set_defaults(handler=_cmd_stability)

    footprint = commands.add_parser("footprint", help="Figure-2 ASCII scatter")
    footprint.add_argument("--app", default="CFM", choices=list_workloads())
    footprint.add_argument("--length", type=int, default=40_000)
    footprint.add_argument("--seed", type=int, default=7)
    footprint.set_defaults(handler=_cmd_footprint)

    commands.add_parser("storage", help="Planaria storage budget"
                        ).set_defaults(handler=_cmd_storage)

    timeline = commands.add_parser(
        "timeline", help="run with observability on; dump epoch timeline")
    timeline.add_argument("output", help=".jsonl or .csv timeline path")
    timeline.add_argument("--app", default="CFM", choices=list_workloads())
    timeline.add_argument("--trace", help="simulate a trace file instead")
    timeline.add_argument("--prefetcher", default="planaria")
    timeline.add_argument("--length", type=int, default=60_000)
    timeline.add_argument("--seed", type=int, default=7)
    timeline.add_argument("--epoch-records", type=int, default=1024,
                          help="records per epoch, per channel")
    timeline.add_argument("--events", metavar="FILE",
                          help="also dump retained trace events as JSONL")
    timeline.add_argument("--sim-config", metavar="JSON",
                          help="SimConfig JSON file (see repro.config_io)")
    _add_profile_argument(timeline)
    timeline.set_defaults(handler=_cmd_timeline)

    explain = commands.add_parser(
        "explain",
        help="per-issue prefetch provenance and fate attribution "
             "(docs/observability.md)")
    explain.add_argument("--app", default="CFM", choices=list_workloads())
    explain.add_argument("--trace", help="explain a trace file instead")
    explain.add_argument("--prefetcher", default="planaria")
    explain.add_argument("--length", type=int, default=60_000)
    explain.add_argument("--seed", type=int, default=7)
    explain.add_argument("--sim-config", metavar="JSON",
                         help="SimConfig JSON file (see repro.config_io)")
    explain.add_argument("--session", metavar="NAME",
                         help="query a live service session (opened with "
                              "lineage) instead of running offline")
    explain.add_argument("--host", default="127.0.0.1",
                         help="service host (with --session)")
    explain.add_argument("--port", type=int, default=8642,
                         help="service port (with --session)")
    explain.add_argument("--format", choices=("table", "json"),
                         default="table",
                         help="print an aligned table (default) or the raw "
                              "summary JSON")
    explain.add_argument("--fate-trace", metavar="FILE",
                         help="also dump retained fate events as Chrome "
                              "trace-event JSON (loads in Perfetto)")
    add_export_argument(explain, what="the lineage report")
    _add_parallelism_argument(explain)
    _add_profile_argument(explain)
    explain.set_defaults(handler=_cmd_explain)

    watch = commands.add_parser(
        "watch", help="poll a live service session's epoch timeline")
    watch.add_argument("session", help="session name on the server")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=8642)
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between polls")
    watch.add_argument("--count", type=int, default=0,
                       help="stop after N polls (0 = until Ctrl-C)")
    watch.add_argument("--no-wait", action="store_true",
                       help="don't quiesce the session before each poll")
    watch.add_argument("--no-health", action="store_true",
                       help="skip the per-poll health evaluation column")
    watch.set_defaults(handler=_cmd_watch)

    serve = commands.add_parser(
        "serve", help="run the streaming simulation service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--checkpoint-dir", metavar="DIR",
                       help="enable eviction/resume; sessions checkpoint "
                            "here on drain")
    serve.add_argument("--max-inflight", type=int, default=4,
                       help="per-session queued-chunk bound (backpressure)")
    serve.add_argument("--workers", type=int, default=1,
                       help="engine worker processes; >= 2 runs the sharded "
                            "router + worker-fleet service with "
                            "checkpoint-based session migration "
                            "(docs/service.md)")
    serve.add_argument("--worker-threads", type=int, default=4,
                       help="thread-pool size shared by all sessions "
                            "(per engine worker when sharded)")
    serve.add_argument("--checkpoint-interval", type=int, default=0,
                       help="auto-checkpoint every N chunks (0 disables)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve Prometheus text on GET /metrics (and the "
                            "health report on GET /healthz) at this HTTP "
                            "port (0 picks an ephemeral port)")
    serve.add_argument("--trace", action="store_true",
                       help="record request spans (the 'spans' op / "
                            "'repro spans'; docs/observability.md)")
    serve.add_argument("--log-json", action="store_true",
                       help="structured one-JSON-object-per-line logging, "
                            "rate-limited")
    serve.set_defaults(handler=_cmd_serve)

    spans = commands.add_parser(
        "spans", help="dump a tracing server's spans as Chrome trace JSON")
    spans.add_argument("output", help="Chrome trace-event .json path "
                                      "(loads in Perfetto)")
    spans.add_argument("--host", default="127.0.0.1")
    spans.add_argument("--port", type=int, default=8642)
    spans.add_argument("--clear", action="store_true",
                       help="drain the server's span ring after reading")
    spans.set_defaults(handler=_cmd_spans)

    multitenant = commands.add_parser(
        "multitenant",
        help="merged-workload contention study: shared vs partitioned SC")
    multitenant.add_argument(
        "--tenant", action="append", metavar="SPEC",
        help="one tenant as 'app=CFM,device=GPU[,length=N][,seed=N]"
             "[,phase=N][,intensity=X]'; repeat per tenant (default: "
             f"{' + '.join(_DEFAULT_TENANTS)})")
    multitenant.add_argument("--prefetchers", default="none,planaria")
    multitenant.add_argument("--length", type=int, default=30_000,
                             help="records per tenant when the spec "
                                  "doesn't say")
    multitenant.add_argument("--sim-config", metavar="JSON",
                             help="SimConfig JSON file (see repro.config_io)")
    multitenant.add_argument("--output", default="BENCH_multitenant.json",
                             metavar="FILE", help="report path ('' skips)")
    add_export_argument(multitenant, what="the contention report")
    multitenant.set_defaults(handler=_cmd_multitenant)

    campaign = commands.add_parser(
        "campaign",
        help="run a declarative YAML sweep campaign (docs/campaigns.md)")
    campaign_ops = campaign.add_subparsers(dest="campaign_op", required=True)

    def _add_campaign_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("spec", help="campaign YAML path")
        sub.add_argument("--state-dir", metavar="DIR", default="campaigns",
                         help="progress state + default results directory "
                              "(default: ./campaigns)")
        sub.add_argument("--endpoint", action="append", metavar="HOST:PORT",
                         default=None,
                         help="service endpoint to dispatch against; repeat "
                              "for a fleet (default: run cells in-process)")

    campaign_run = campaign_ops.add_parser(
        "run", help="execute every cell of the grid (fresh start)")
    _add_campaign_common(campaign_run)
    add_export_argument(campaign_run, what="the harvested results")
    campaign_run.set_defaults(handler=_cmd_campaign_run, resume=False)

    campaign_resume = campaign_ops.add_parser(
        "resume", help="continue a killed campaign from its state file")
    _add_campaign_common(campaign_resume)
    add_export_argument(campaign_resume, what="the harvested results")
    campaign_resume.set_defaults(handler=_cmd_campaign_run, resume=True)

    campaign_status = campaign_ops.add_parser(
        "status", help="show completed/pending cells without running")
    _add_campaign_common(campaign_status)
    campaign_status.set_defaults(handler=_cmd_campaign_status)

    campaign_soak = campaign_ops.add_parser(
        "soak", help="sustained-rate replay against one endpoint, "
                     "writing a time-series to campaign-soak.json")
    campaign_soak.add_argument("spec", help="campaign YAML path")
    campaign_soak.add_argument("endpoint", metavar="HOST:PORT",
                               help="service endpoint to soak")
    campaign_soak.add_argument("--duration", type=float, default=None,
                               metavar="SECONDS",
                               help="override the spec's soak duration")
    campaign_soak.add_argument("--output", default="campaign-soak.json",
                               metavar="FILE",
                               help="time-series report path")
    campaign_soak.set_defaults(handler=_cmd_campaign_soak)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if (getattr(args, "profile", None) is not None
                or getattr(args, "profile_out", None)):
            return _run_profiled(args.handler, args)
        return args.handler(args)
    except KeyboardInterrupt:
        # 128 + SIGINT: the conventional "killed by Ctrl-C" exit code.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
