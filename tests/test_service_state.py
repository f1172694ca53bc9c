"""Streaming-state equivalence: feed/state_dict/checkpoint vs. batch run.

The service layers are only trustworthy if simulator state is *complete*:
any chunking of a trace, any ``state_dict()`` → ``load_state()`` hop, and
any trip through the on-disk checkpoint format must land on RunMetrics
bit-identical to one offline :func:`repro.sim.runner.simulate` of the
same records.  These tests pin that for every registered prefetcher; the
hypothesis test additionally roams the cut point so boundary placement
(including cuts inside a channel's warmup window) can't hide partial
state capture.
"""

import functools

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.config import SimConfig
from repro.prefetch.registry import PREFETCHER_FACTORIES, make_prefetcher
from repro.service.checkpoint import (Checkpoint, load_checkpoint,
                                      restore_simulator, save_checkpoint)
from repro.errors import CheckpointError
from repro.sim.engine import SystemSimulator, channel_warmup_counts
from repro.sim.runner import collect_metrics, simulate
from repro.trace.generator import generate_trace_buffer, get_profile

ALL_PREFETCHERS = sorted(PREFETCHER_FACTORIES)
LENGTH = 600
SEED = 11


@functools.lru_cache(maxsize=None)
def _config():
    return SimConfig.experiment_scale()


@functools.lru_cache(maxsize=None)
def _trace():
    return generate_trace_buffer(get_profile("CFM"), LENGTH, seed=SEED,
                                 layout=_config().layout)


@functools.lru_cache(maxsize=None)
def _offline_metrics(prefetcher):
    return simulate(_trace(), prefetcher, workload_name="stream",
                    config=_config()).metrics


def _streaming_simulator(prefetcher, engine_mode="auto"):
    simulator = SystemSimulator(
        _config(),
        lambda layout, channel: make_prefetcher(prefetcher, layout, channel),
        engine_mode=engine_mode)
    simulator.set_stream_warmup(channel_warmup_counts(_trace(), _config()))
    return simulator


def _metrics(simulator, prefetcher):
    return collect_metrics(simulator, "stream", prefetcher)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_chunked_feed_matches_batch(prefetcher):
    trace = _trace()
    simulator = _streaming_simulator(prefetcher)
    for start in range(0, len(trace), 157):  # deliberately awkward chunks
        simulator.feed(trace[start:start + 157])
    simulator.feed(trace[len(trace):])  # empty chunk must be a no-op
    assert _metrics(simulator, prefetcher) == _offline_metrics(prefetcher)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_state_round_trip_mid_trace(prefetcher):
    trace = _trace()
    cut = len(trace) // 2
    first = _streaming_simulator(prefetcher)
    first.feed(trace[:cut])
    state = first.state_dict()
    first.feed(trace[cut:cut + 40])  # mutate the donor: copy must detach

    second = _streaming_simulator(prefetcher)
    second.load_state(state)
    second.feed(trace[cut:])
    assert _metrics(second, prefetcher) == _offline_metrics(prefetcher)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_checkpoint_file_round_trip(tmp_path, prefetcher):
    trace = _trace()
    cut = 2 * len(trace) // 3
    simulator = _streaming_simulator(prefetcher)
    simulator.feed(trace[:cut])
    path = save_checkpoint(
        tmp_path / "session.ckpt",
        Checkpoint(prefetcher=prefetcher, workload="stream",
                   config=_config(), records_fed=cut, chunks_fed=1,
                   state=simulator.state_dict()))

    checkpoint = load_checkpoint(path)
    assert checkpoint.records_fed == cut
    resumed = restore_simulator(checkpoint)
    resumed.feed(trace[cut:])
    assert _metrics(resumed, prefetcher) == _offline_metrics(prefetcher)


class TestStateAtRandomBoundaries:
    """Hypothesis roams the cut point over the whole trace, per prefetcher."""

    @pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
    @hsettings(max_examples=5, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=LENGTH))
    def test_round_trip_at_any_boundary(self, prefetcher, cut):
        trace = _trace()
        donor = _streaming_simulator(prefetcher)
        donor.feed(trace[:cut])
        resumed = _streaming_simulator(prefetcher)
        resumed.load_state(donor.state_dict())
        resumed.feed(trace[cut:])
        assert _metrics(resumed, prefetcher) == _offline_metrics(prefetcher)


class TestCrossEngineResume:
    """A checkpoint cut mid-trace — i.e. mid run-length batch, anywhere the
    cut lands — taken on one engine and resumed on the other must finish in
    exactly the state an uninterrupted scalar run reaches: state_dict is an
    engine-neutral format, and the batch engine neither loses deferred
    work at a checkpoint nor misreads a scalar-written snapshot."""

    # One prefetcher per engine regime: passive demand loop, run-foldable
    # composite, throttle wrapper, per-record trigger path.
    PREFETCHERS = ("none", "planaria", "planaria-throttled", "bop")

    @pytest.mark.parametrize("prefetcher", PREFETCHERS)
    @hsettings(max_examples=5, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=LENGTH),
           donor_engine=st.sampled_from(("scalar", "batch")))
    def test_round_trip_across_engines(self, prefetcher, cut, donor_engine):
        from tests.test_batch_oracle import deep_diff

        trace = _trace()
        resume_engine = "batch" if donor_engine == "scalar" else "scalar"
        donor = _streaming_simulator(prefetcher, engine_mode=donor_engine)
        donor.feed(trace[:cut])
        resumed = _streaming_simulator(prefetcher, engine_mode=resume_engine)
        resumed.load_state(donor.state_dict())
        resumed.feed(trace[cut:])
        assert _metrics(resumed, prefetcher) == _offline_metrics(prefetcher)

        reference = _streaming_simulator(prefetcher, engine_mode="scalar")
        reference.feed(trace)
        diffs = []
        for index, (ref_ch, res_ch) in enumerate(zip(reference.channels,
                                                     resumed.channels)):
            deep_diff(ref_ch.state_dict(), res_ch.state_dict(),
                      path=f"channel[{index}]", out=diffs)
        assert not diffs, (
            f"{donor_engine}→{resume_engine} resume at cut {cut} diverged "
            "from the uninterrupted scalar run:\n  " + "\n  ".join(diffs))

    @pytest.mark.parametrize("prefetcher", ("none", "planaria"))
    def test_checkpoint_file_written_by_batch_engine(self, tmp_path,
                                                     prefetcher):
        """The on-disk format round-trips a batch-engine snapshot too."""
        trace = _trace()
        cut = len(trace) // 3
        simulator = _streaming_simulator(prefetcher, engine_mode="batch")
        simulator.feed(trace[:cut])
        path = save_checkpoint(
            tmp_path / "batch.ckpt",
            Checkpoint(prefetcher=prefetcher, workload="stream",
                       config=_config(), records_fed=cut, chunks_fed=1,
                       state=simulator.state_dict()))
        resumed = restore_simulator(load_checkpoint(path))
        resumed.feed(trace[cut:])
        assert _metrics(resumed, prefetcher) == _offline_metrics(prefetcher)


class TestCheckpointFileFormat:
    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"\x00not a pickle")
        with pytest.raises(CheckpointError, match="not a readable"):
            load_checkpoint(path)

    def test_rejects_foreign_pickle(self, tmp_path):
        import pickle

        path = tmp_path / "foreign.ckpt"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(CheckpointError, match="not a planaria"):
            load_checkpoint(path)

    def test_rejects_future_version(self, tmp_path):
        # Version 1 predates the TLP stamps and bucket index: a resumed
        # run would fail mid-way, so the load must refuse it up front.
        simulator = _streaming_simulator("none")
        for version in (1, 99):
            checkpoint = Checkpoint(prefetcher="none", workload="w",
                                    config=_config(), records_fed=0,
                                    chunks_fed=0,
                                    state=simulator.state_dict(),
                                    version=version)
            path = save_checkpoint(tmp_path / f"v{version}.ckpt", checkpoint)
            with pytest.raises(CheckpointError, match=f"version {version},"):
                load_checkpoint(path)

    def test_save_is_atomic_no_stray_temp_files(self, tmp_path):
        simulator = _streaming_simulator("none")
        checkpoint = Checkpoint(prefetcher="none", workload="w",
                                config=_config(), records_fed=0,
                                chunks_fed=0, state=simulator.state_dict())
        save_checkpoint(tmp_path / "a.ckpt", checkpoint)
        save_checkpoint(tmp_path / "a.ckpt", checkpoint)  # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]
