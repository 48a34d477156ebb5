import gc
import socket
import struct
import warnings

import numpy as np
import pytest

from gradcomm import estimator
from gradcomm.errors import NetworkError, ParameterError
from gradcomm.netprobe import (
    ACK,
    PingPongServer,
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
        assert all(s.timestamp > 0 for s in result.samples)
