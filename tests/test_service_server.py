"""End-to-end service tests: real sockets, real asyncio server.

Each fixture starts a :class:`SimulationServer` on an ephemeral port in a
background event-loop thread and drives it through the public
:class:`ServiceClient`.  The headline property: metrics observed through
open → chunked feed → snapshot → close over TCP are bit-identical to an
offline :func:`repro.sim.runner.simulate` of the same trace.
"""

import functools
import json
import struct

import pytest

from repro.config import SimConfig
from repro.errors import ServiceError
from repro.service import protocol
from repro.service.bench import _ServerThread
from repro.service.client import ServiceClient
from repro.service.session import SessionManager
from repro.sim.engine import channel_warmup_counts
from repro.sim.runner import simulate
from repro.trace.generator import generate_trace_buffer, get_profile

LENGTH = 1000
SEED = 9


@functools.lru_cache(maxsize=None)
def _config():
    return SimConfig.experiment_scale()


@functools.lru_cache(maxsize=None)
def _trace():
    return generate_trace_buffer(get_profile("CFM"), LENGTH, seed=SEED,
                                 layout=_config().layout)


@functools.lru_cache(maxsize=None)
def _offline_metrics(prefetcher):
    return simulate(_trace(), prefetcher, workload_name="wire",
                    config=_config()).metrics


@pytest.fixture
def server(tmp_path):
    manager = SessionManager(checkpoint_dir=tmp_path / "ckpt",
                             default_config=_config())
    with _ServerThread(manager) as running:
        yield running
    manager.shutdown(checkpoint=False)


@pytest.fixture
def client(server):
    with ServiceClient.connect(port=server.port) as connected:
        yield connected


class TestProtocol:
    def test_buffer_survives_the_wire_encoding(self):
        buffer = _trace()
        decoded = protocol.decode_buffer(len(buffer),
                                         protocol.encode_buffer(buffer))
        assert decoded == buffer

    def test_empty_buffer_encodes_to_nothing(self):
        empty = _trace()[:0]
        assert protocol.encode_buffer(empty) == b""
        assert protocol.decode_buffer(0, b"") == empty

    def test_decode_rejects_length_mismatch(self):
        with pytest.raises(ServiceError, match="does not match"):
            protocol.decode_buffer(3, b"\x00" * 17)

    def test_metrics_survive_json_bit_exactly(self):
        metrics = _offline_metrics("planaria")
        hop = protocol.metrics_from_dict(
            json.loads(json.dumps(protocol.metrics_to_dict(metrics))))
        assert hop == metrics

    def test_frame_prefix_bounds(self):
        huge = struct.pack(">II", protocol.MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(ServiceError, match="declared header"):
            protocol.parse_prefix(huge)


class TestEndToEnd:
    def test_ping(self, client):
        assert client.ping() is True

    def test_session_over_tcp_matches_offline_simulate(self, client):
        trace = _trace()
        warmup = channel_warmup_counts(trace, _config())
        client.open("wire", "planaria", workload="wire", config=_config(),
                    warmup_records=warmup)
        sent = client.feed_trace("wire", trace, chunk_records=173)
        assert sent == len(trace)
        snapshot = client.snapshot("wire")
        assert snapshot.records_fed == len(trace)
        assert snapshot.metrics == _offline_metrics("planaria")
        final = client.close_session("wire")
        assert final.metrics == _offline_metrics("planaria")

    def test_checkpoint_resume_over_tcp(self, client):
        trace = _trace()
        warmup = channel_warmup_counts(trace, _config())
        client.open("wire", "stride", workload="wire", config=_config(),
                    warmup_records=warmup)
        client.feed("wire", trace[:400])
        path = client.checkpoint("wire")
        assert path.endswith("wire.ckpt")
        client.close_session("wire", delete_checkpoint=False)
        client.open("wire", "stride", resume=True)
        client.feed("wire", trace[400:])
        assert client.snapshot("wire").metrics == _offline_metrics("stride")

    def test_stats_and_evict(self, client):
        client.open("a", "none", config=_config())
        client.feed("a", _trace()[:100])
        client.snapshot("a")
        stats = client.stats()
        assert stats["sessions"] == ["a"]
        assert stats["stats"]["records_executed"] == 100
        assert client.evict_idle(0.0) == ["a"]
        assert client.stats()["sessions"] == []

    def test_two_clients_share_the_server(self, server):
        trace = _trace()
        with ServiceClient.connect(port=server.port) as one, \
                ServiceClient.connect(port=server.port) as two:
            one.open("x", "none", config=_config())
            two.open("y", "none", config=_config())
            one.feed("x", trace[:200])
            two.feed("y", trace[:300])
            # Either client may inspect any session by name.
            assert two.snapshot("x").records_fed == 200
            assert one.snapshot("y").records_fed == 300

    def test_backpressure_engages_over_tcp(self):
        """Two clients streaming small chunks into a one-thread server
        with one in-flight chunk per session: feeds must block on the
        bound, and both sessions still close equal to offline."""
        import threading

        trace = _trace()
        warmup = channel_warmup_counts(trace, _config())
        manager = SessionManager(max_inflight_chunks=1, workers=1,
                                 default_config=_config())
        closed, errors = {}, []

        def drive(port, prefetcher):  # one session per prefetcher
            try:
                with ServiceClient.connect(port=port) as client:
                    client.open(prefetcher, prefetcher, workload="wire",
                                config=_config(), warmup_records=warmup)
                    client.feed_trace(prefetcher, trace, chunk_records=32)
                    closed[prefetcher] = client.close_session(
                        prefetcher).metrics
            except Exception as exc:  # asserted on the test thread
                errors.append(exc)

        with _ServerThread(manager) as running:
            threads = [threading.Thread(target=drive,
                                        args=(running.port, prefetcher))
                       for prefetcher in ("none", "planaria")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        manager.shutdown(checkpoint=False)
        assert not errors, errors
        assert manager.stats()["backpressure_waits"] > 0
        assert sorted(closed) == ["none", "planaria"]
        for prefetcher, metrics in closed.items():
            assert metrics == _offline_metrics(prefetcher)


class TestServerErrors:
    def test_unknown_prefetcher_lists_registered_names(self, client):
        with pytest.raises(ServiceError, match="registered:.*planaria"):
            client.open("s", "oracle")

    def test_unknown_session(self, client):
        with pytest.raises(ServiceError, match="ghost"):
            client.snapshot("ghost")

    def test_duplicate_open(self, client):
        client.open("s", "none", config=_config())
        with pytest.raises(ServiceError, match="already open"):
            client.open("s", "none")

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError, match="unknown op"):
            client._request({"op": "mystery"})

    def test_feed_count_payload_mismatch(self, client):
        client.open("s", "none", config=_config())
        with pytest.raises(ServiceError, match="does not match"):
            client._request({"op": "feed", "session": "s", "count": 7},
                            b"\x00" * 18)

    def test_missing_session_field(self, client):
        with pytest.raises(ServiceError, match="missing a session name"):
            client._request({"op": "snapshot"})

    def test_errors_do_not_poison_the_connection(self, client):
        with pytest.raises(ServiceError):
            client.snapshot("ghost")
        assert client.ping() is True  # same connection still serves

    def test_malformed_header_closes_connection(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(struct.pack(">II", 4, 0) + b"!!!!")
            prefix = sock.recv(8)
            header_len, payload_len = struct.unpack(">II", prefix)
            response = json.loads(sock.recv(header_len))
            assert response["ok"] is False
            assert response["kind"] == "protocol"
            assert sock.recv(1) == b""  # server hung up


class TestGracefulShutdown:
    def test_shutdown_op_drains_open_sessions(self, tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path / "ckpt",
                                 default_config=_config())
        running = _ServerThread(manager).__enter__()
        try:
            with ServiceClient.connect(port=running.port) as client:
                client.open("s", "none", config=_config())
                client.feed("s", _trace()[:200])
                client.shutdown_server()
        finally:
            running.__exit__(None, None, None)
        # Drain checkpointed the still-open session for later resume.
        assert (tmp_path / "ckpt" / "s.ckpt").exists()
        with SessionManager(checkpoint_dir=tmp_path / "ckpt",
                            default_config=_config()) as mgr:
            assert mgr.open("s", "none", resume=True).records_fed == 200
