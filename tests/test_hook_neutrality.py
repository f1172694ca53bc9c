"""Engine hooks: one neutrality suite for every hook, mode and prefetcher.

Hooks: timelines with events (``attach_observability``), lineage
(``attach_lineage``) and request spans (``SystemSimulator.spans``).
Modes: one-shot ``run``, ``parallelism=2``, chunked ``feed``, a
mid-stream resume through ``restore_simulator``, and attach-then-detach
halfway.  Every case checks that:

* ``RunMetrics``, cache/queue/DRAM stats and ``fallback_counts()`` equal
  the plain run's;
* every hook point (engine, queue, cache, each prefetcher-chain link)
  names the channel's live collector, or the null value;
* each collector reports what a run with that hook alone reports.
"""

import functools
import io
import pickle

import pytest

from repro.config import SimConfig
from repro.obs import (NULL_TRACER, EventTracer, LineageCollector, ObsConfig,
                       SpanRecorder, SystemLineage, SystemObservability,
                       TimelineCollector, attach_lineage, attach_observability,
                       detach_lineage, detach_observability,
                       lineage_consistent)
from repro.prefetch.registry import make_prefetcher
from repro.service.checkpoint import Checkpoint, restore_simulator
from repro.service.session import Session
from repro.sim.engine import SystemSimulator, channel_warmup_counts
from repro.sim.runner import collect_metrics
from repro.trace.generator import generate_trace_buffer, get_profile

LENGTH = 4000
SEED = 5
EPOCH_RECORDS = 256
CHUNK = 700  # deliberately coprime-ish with the epoch size
HALF = LENGTH // 2

PREFETCHERS = ("planaria", "planaria-throttled", "bop", "none")
HOOKS = {
    "timelines": ("timelines",),
    "lineage": ("lineage",),
    "spans": ("spans",),
    "all": ("timelines", "lineage", "spans"),
}
MODES = ("run", "parallel", "feed", "resume", "detach")


@functools.lru_cache(maxsize=None)
def _config():
    return SimConfig.experiment_scale()


@functools.lru_cache(maxsize=None)
def _trace():
    return generate_trace_buffer(get_profile("CFM"), LENGTH, seed=SEED,
                                 layout=_config().layout)


@functools.lru_cache(maxsize=None)
def _warmup():
    return tuple(channel_warmup_counts(_trace(), _config()))


def _simulator(prefetcher):
    return SystemSimulator(
        _config(),
        lambda layout, channel: make_prefetcher(prefetcher, layout, channel))


def _attach(simulator, hooks):
    if "timelines" in hooks:
        attach_observability(simulator, epoch_records=EPOCH_RECORDS)
    if "lineage" in hooks:
        attach_lineage(simulator)
    if "spans" in hooks:
        simulator.spans = SpanRecorder()


def _detach(simulator):
    detach_observability(simulator)
    detach_lineage(simulator)
    simulator.spans = None


def _report(simulator, hooks):
    """What each attached hook reports, in ``==``-comparable form."""
    report = {}
    if "timelines" in hooks:
        obs = SystemObservability(simulator, ObsConfig())
        report["timelines"] = (obs.channel_timelines(include_partial=True),
                               obs.events(), obs.event_counts())
    if "lineage" in hooks:
        lineage = SystemLineage(simulator)
        assert lineage_consistent(lineage.summary())
        report["lineage"] = (lineage.summary(), lineage.events())
    if "spans" in hooks:
        report["spans"] = [(span.name, span.attrs.get("records"))
                           for span in simulator.spans.spans()]
    return report


def _outputs(simulator, prefetcher):
    """Everything a hook must leave untouched."""
    return (collect_metrics(simulator, "CFM", prefetcher),
            simulator.merged_cache_stats().state_dict(),
            simulator.merged_queue_stats().state_dict(),
            simulator.merged_dram_stats().state_dict(),
            simulator.fallback_counts())


@functools.lru_cache(maxsize=None)
def _plain(prefetcher):
    simulator = _simulator(prefetcher)
    simulator.run(_trace())
    return _outputs(simulator, prefetcher)


@functools.lru_cache(maxsize=None)
def _alone(prefetcher, hook, records=LENGTH):
    """The report of a run with ``hook`` alone over the first
    ``records`` records (one-shot over the whole trace)."""
    simulator = _simulator(prefetcher)
    _attach(simulator, (hook,))
    if records == LENGTH:
        simulator.run(_trace())
    else:
        simulator.set_stream_warmup(_warmup())
        simulator.feed(_trace()[:records])
    return _report(simulator, (hook,))[hook]


def _expected_spans(mode):
    """One ``engine.run`` span per run() call, one ``engine.feed`` span
    with its record count per feed() call the recorder saw."""
    if mode in ("run", "parallel"):
        return [("engine.run", None)]
    if mode == "feed":
        return [("engine.feed", min(CHUNK, LENGTH - start))
                for start in range(0, LENGTH, CHUNK)]
    if mode == "detach":
        return [("engine.feed", HALF)]
    return [("engine.feed", LENGTH - HALF)]  # the resumed half


def _drive(mode, prefetcher, hooks):
    """Drive the trace in ``mode``; the driven simulator, the hooks
    still attached to it, and the hooks' report."""
    trace = _trace()
    simulator = _simulator(prefetcher)
    _attach(simulator, hooks)
    if mode in ("run", "parallel"):
        simulator.run(trace, parallelism=2 if mode == "parallel" else
                      "serial")
        return simulator, hooks, _report(simulator, hooks)
    simulator.set_stream_warmup(_warmup())
    if mode == "feed":
        for start in range(0, LENGTH, CHUNK):
            simulator.feed(trace[start:start + CHUNK])
        return simulator, hooks, _report(simulator, hooks)
    simulator.feed(trace[:HALF])
    if mode == "detach":
        report = _report(simulator, hooks)
        _detach(simulator)
        simulator.feed(trace[HALF:])
        return simulator, (), report
    # What a session with these hooks writes in Checkpoint.extra.
    extra = {"epoch_records": EPOCH_RECORDS} if "timelines" in hooks else {}
    if "lineage" in hooks:
        extra["lineage"] = True
    checkpoint = Checkpoint(prefetcher=prefetcher, workload="CFM",
                            config=_config(), records_fed=HALF, chunks_fed=1,
                            state=simulator.state_dict(), extra=extra)
    # Each attached collector, and only it, checkpoints an entry.
    entries = {entry for entry, hook in (("obs", "timelines"),
                                         ("lineage", "lineage"))
               if hook in hooks}
    for channel_state in checkpoint.state["channels"]:
        assert {"obs", "lineage"} & set(channel_state) == entries
    # The snapshot is deep: the source keeps running undisturbed.
    simulator.feed(trace[HALF:])
    assert _outputs(simulator, prefetcher) == _plain(prefetcher)
    restored = restore_simulator(checkpoint)
    assert restored.spans is None  # spans are not simulator state
    if "spans" in hooks:
        restored.spans = SpanRecorder()
    restored.feed(trace[HALF:])
    return restored, hooks, _report(restored, hooks)


def _assert_wired(simulator, hooks):
    """Every hook point names its channel's live collector."""
    assert (simulator.spans is not None) == ("spans" in hooks)
    for channel_sim in simulator.channels:
        obs, lineage = channel_sim.obs, channel_sim.lineage
        assert (obs is not None) == ("timelines" in hooks)
        assert (lineage is not None) == ("lineage" in hooks)
        tracer = obs.tracer if obs is not None else NULL_TRACER
        assert channel_sim.queue.lineage is lineage
        assert channel_sim.cache.lineage is lineage
        for link in channel_sim.prefetcher.chain():
            assert link.tracer is tracer
            assert link.lineage is lineage


@pytest.mark.parametrize("prefetcher", PREFETCHERS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("hooks", sorted(HOOKS))
def test_hooks_are_neutral_wired_and_faithful(hooks, mode, prefetcher):
    hooks = HOOKS[hooks]
    simulator, live_hooks, report = _drive(mode, prefetcher, hooks)
    assert _outputs(simulator, prefetcher) == _plain(prefetcher)
    _assert_wired(simulator, live_hooks)
    records = HALF if mode == "detach" else LENGTH
    for hook in hooks:
        if hook == "spans":
            assert report[hook] == _expected_spans(mode)
        else:
            assert report[hook] == _alone(prefetcher, hook, records)


def test_chain_lists_each_link_once_outermost_first():
    layout = _config().layout
    throttled = make_prefetcher("planaria-throttled", layout, 0)
    planaria = throttled.inner
    assert throttled.chain() == [throttled, planaria, planaria.slp,
                                 planaria.tlp]
    bop = make_prefetcher("bop", layout, 0)
    assert bop.chain() == [bop]


class _HookFlagger(pickle.Pickler):
    """Pickles normally, noting every hook object it meets."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.found = []

    def persistent_id(self, obj):
        if isinstance(obj, (TimelineCollector, EventTracer,
                            LineageCollector)):
            self.found.append(type(obj).__name__)
        return None


@pytest.mark.parametrize("prefetcher", ["planaria", "planaria-throttled"])
def test_checkpoint_state_carries_no_hook_objects(prefetcher):
    trace = _trace()
    source = _simulator(prefetcher)
    attach_observability(source, epoch_records=EPOCH_RECORDS)
    attach_lineage(source)
    source.set_stream_warmup(_warmup())
    source.feed(trace[:HALF])
    state = source.state_dict()
    pickler = _HookFlagger(io.BytesIO())
    pickler.dump(state)
    assert pickler.found == []

    restored = _simulator(prefetcher)
    restored.load_state(state)
    for channel_sim in restored.channels:
        top = channel_sim.prefetcher
        planaria = top.inner if prefetcher == "planaria-throttled" else top
        for link in {top, planaria, planaria.slp, planaria.tlp}:
            assert link.tracer is NULL_TRACER
            assert link.lineage is None
        assert top.supports_observe_run()
    restored.feed(trace[HALF:])
    assert (collect_metrics(restored, "CFM", prefetcher)
            == _plain(prefetcher)[0])


def test_restore_simulator_reattaches_session_lineage():
    trace = _trace()
    session = Session("s", "planaria", "CFM", _config(),
                      warmup_records=list(_warmup()), lineage=True)
    session.simulator.feed(trace[:HALF])
    restored = restore_simulator(session.to_checkpoint())
    assert all(channel_sim.lineage is not None
               for channel_sim in restored.channels)
    restored.feed(trace[HALF:])
    assert (SystemLineage(restored).summary()
            == _alone("planaria", "lineage")[0])
