import gc
import logging
import socket
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gradcomm import estimator
from gradcomm.errors import NetworkError, ParameterError
from gradcomm.netprobe import (
    ACK,
    PingPongServer,
    _exchange,
    probe,
    write_samples_csv,
)


@pytest.fixture
def server():
    srv = PingPongServer(p_max_bytes=2_000_000)
    srv.start()
    yield srv
    srv.stop()


class TestServer:
    def test_single_byte_payload_single_ack(self, server):
        result = probe("127.0.0.1", server.port, [1], reps=1, warmup=0)
        assert result.error is None
        assert len(result.samples) == 1
        assert result.samples[0].size_bytes == 1
        assert result.samples[0].rtt_seconds > 0

    def test_zero_length_frame_closes_gracefully(self, server):
        # manual client: one payload, then the shutdown frame, then reconnect
        for _ in range(2):
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.sendall(struct.pack(">Q", 3) + b"abc")
                assert sock.recv(1) == ACK
                sock.sendall(struct.pack(">Q", 0))
                assert sock.recv(1) == b""  # EOF: server closed its side

    def test_oversized_payload_resets_connection(self, server):
        result = probe("127.0.0.1", server.port, [5_000_000], reps=1, warmup=0)
        assert result.error is not None
        assert result.samples == []

    def test_fuzz_1000_frames_no_desync(self, server):
        rng = np.random.default_rng(0)
        sizes = [int(s) for s in rng.integers(1, 4096, size=1000)]
        before_msgs = server.messages
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for size in sizes:
                sock.sendall(struct.pack(">Q", size) + rng.bytes(size))
                ack = sock.recv(1)
                assert ack == ACK
            sock.sendall(struct.pack(">Q", 0))
        server.stop()
        assert server.messages - before_msgs == 1000
        assert server.bytes_in == sum(size + 8 for size in sizes)
        assert server.bytes_out == 1000

    def test_byte_accounting_exact(self, server):
        sizes = [100, 1000]
        reps, warmup = 3, 2
        result = probe("127.0.0.1", server.port, sizes, reps=reps, warmup=warmup)
        assert result.error is None
        server.stop()
        exchanges = len(sizes) * (reps + warmup)
        assert server.messages == exchanges
        assert server.bytes_in == sum((s + 8) * (reps + warmup) for s in sizes)
        assert server.bytes_out == exchanges

    def test_frame_is_drained_not_kept(self, server):
        size = server.p_max_bytes - 1
        frame = struct.pack(">Q", size) + bytes(size)
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            tracemalloc.start()
            try:
                sock.sendall(frame)
                assert sock.recv(1) == ACK
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            sock.sendall(struct.pack(">Q", 0))
        assert peak < size

    def test_stalled_peer_delays_next_client_by_at_most_the_timeout(self, server, monkeypatch):
        idle_s = 0.5
        monkeypatch.setattr(server.RequestHandlerClass, "timeout", idle_s)
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as staller:
            staller.sendall(struct.pack(">Q", 64)[:3])
            t0 = time.monotonic()
            result = probe("127.0.0.1", server.port, [64], reps=2, warmup=0, timeout=5)
            elapsed = time.monotonic() - t0
        assert result.error is None and len(result.samples) == 2
        assert elapsed < idle_s + 1.5

    def test_peer_reset_mid_payload_is_logged_and_serving_goes_on(self, server, caplog):
        caplog.set_level(logging.WARNING, logger="gradcomm.netprobe")
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as peer:
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            peer.sendall(struct.pack(">Q", 64 * 1024) + bytes(1024))
            peer_port = peer.getsockname()[1]
        result = probe("127.0.0.1", server.port, [64], reps=2, warmup=0)
        assert result.error is None and len(result.samples) == 2
        [record] = [r for r in caplog.records if r.name == "gradcomm.netprobe"]
        assert record.levelno == logging.WARNING and record.exc_info is None
        assert str(peer_port) in record.getMessage()


    def test_bind_to_busy_port_leaves_no_open_socket(self):
        with socket.create_server(("127.0.0.1", 0)) as blocker:
            busy = PingPongServer(port=blocker.getsockname()[1])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NetworkError):
                    busy.bind()
                gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestProbe:
    def test_frame_is_sent_without_a_copy(self, server):
        size = server.p_max_bytes - 1
        tracemalloc.start()
        try:
            result = probe("127.0.0.1", server.port, [size], reps=1, warmup=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.error is None
        # The payload plus the server's 1 MiB drain buffer: rng.bytes(size)
        # alone holds the payload twice while it builds it.
        assert peak < 2 * size

    @pytest.mark.parametrize("accepted", [0, 3, 8, 13, 8 + 64])
    def test_partial_sendmsg_is_finished_from_views(self, accepted):
        class ShortSendSocket:
            def __init__(self):
                self.stream = bytearray()
                self.sendall_types = []

            def sendmsg(self, buffers):
                data = b"".join(buffers)[:accepted]
                self.stream += data
                return len(data)

            def sendall(self, data):
                self.sendall_types.append(type(data))
                self.stream += data

            def recv(self, n):
                return ACK

        header, payload = struct.pack(">Q", 64), np.random.default_rng(1).bytes(64)
        sock = ShortSendSocket()
        _exchange(sock, header, payload)
        assert bytes(sock.stream) == header + payload
        # Only the header's tail is sliced; the payload is sent from a view.
        assert sock.sendall_types == (
            [bytes, memoryview] if accepted < 8 else [memoryview] if accepted < 72 else [])

    def test_reps_zero_returns_empty_without_error(self):
        # no server needed: reps=0 short-circuits before connecting
        result = probe("127.0.0.1", 1, [1024], reps=0)
        assert result.samples == [] and result.error is None

    def test_connect_refused_raises_network_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        unused_port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(NetworkError):
            probe("127.0.0.1", unused_port, [16], reps=1, timeout=0.5)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ParameterError):
            probe("127.0.0.1", 1, [0], reps=1)
        with pytest.raises(ParameterError):
            probe("127.0.0.1", 1, [16], reps=-1)

    def test_loopback_sizes_ordered_and_fit_positive(self, server):
        result = probe("127.0.0.1", server.port, [1024, 1_000_000], reps=7, warmup=2)
        assert result.error is None
        small = np.median([s.rtt_seconds for s in result.samples if s.size_bytes == 1024])
        large = np.median([s.rtt_seconds for s in result.samples if s.size_bytes == 1_000_000])
        assert 0 < small < large
        fit = estimator.batch_ls(
            [(s.size_bytes * 8.0, s.rtt_seconds) for s in result.samples]
        )
        assert fit.beta_hat > 0

    def test_csv_matches_in_memory_fit(self, server, tmp_path):
        result = probe("127.0.0.1", server.port, [512, 65536], reps=4, warmup=1)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, result.samples)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "size_bytes,time_seconds,rep"
        assert len(lines) == 1 + len(result.samples)
        from_csv = estimator.read_samples_csv(path)
        in_memory = [(s.size_bytes * 8.0, s.rtt_seconds) for s in result.samples]
        assert from_csv == in_memory
        assert estimator.batch_ls(from_csv) == estimator.batch_ls(in_memory)

    def test_sample_fields(self, server):
        result = probe("127.0.0.1", server.port, [64], reps=3, warmup=0)
        reps = [s.rep for s in result.samples]
        assert reps == [0, 1, 2]
