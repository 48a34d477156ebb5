import gc
import logging
import os
import socket
import struct
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gradcomm import estimator, netprobe
from gradcomm.errors import NetworkError, ParameterError
from gradcomm.netprobe import (
    ACK,
    PingPongServer,
    _exchange,
    _frame,
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

    def test_trickling_peer_delays_next_client_by_at_most_the_timeout(self, server, monkeypatch):
        # One header byte every 0.3 s beats a 0.5 s timeout on every read, but
        # the whole header must arrive within 0.5 s of its first byte.
        idle_s = 0.5
        monkeypatch.setattr(server.RequestHandlerClass, "timeout", idle_s)
        stop = threading.Event()

        def trickle(sock):
            try:
                for byte in struct.pack(">Q", 64)[1:] + bytes(64):
                    if stop.wait(0.3):
                        return
                    sock.sendall(bytes([byte]))
            except OSError:
                pass  # the server closed the connection

        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as trickler:
            trickler.sendall(struct.pack(">Q", 64)[:1])
            thread = threading.Thread(target=trickle, args=(trickler,))
            thread.start()
            try:
                t0 = time.monotonic()
                result = probe("127.0.0.1", server.port, [64], reps=2, warmup=0, timeout=5)
                elapsed = time.monotonic() - t0
            finally:
                stop.set()
                thread.join(timeout=5)
        assert not thread.is_alive()
        assert result.error is None and len(result.samples) == 2
        assert elapsed < idle_s + 1.0

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


    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_out_of_range_rejected_before_binding(self, port):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParameterError, match="port"):
                PingPongServer(port=port)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_bind_to_busy_port_leaves_no_open_socket(self):
        with socket.create_server(("127.0.0.1", 0)) as blocker:
            busy = PingPongServer(port=blocker.getsockname()[1])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NetworkError):
                    busy.bind()
                gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class RecordingConnection:
    """A handler's socket that serves ``stream`` in reads of at most 64 KiB.

    Each ``recv_into`` is recorded as (buffer id, bytes asked, flags, bytes
    returned); a MSG_TRUNC read writes nothing into the buffer, as Linux TCP
    does.
    """

    def __init__(self, stream: bytes):
        self.stream = memoryview(stream)
        self.reads, self.sent = [], bytearray()

    def setsockopt(self, *args):
        pass

    def settimeout(self, timeout):
        pass

    def recv_into(self, buffer, nbytes=0, flags=0):
        data = self.stream[:min(nbytes or len(buffer), 1 << 16)]
        self.stream = self.stream[len(data):]
        if not flags & socket.MSG_TRUNC:
            buffer[:len(data)] = data
        self.reads.append((id(buffer.obj), nbytes or len(buffer), flags, len(data)))
        return len(data)

    def sendall(self, data):
        self.sent += data


class TestDrain:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="MSG_TRUNC discard is Linux-only")
    def test_payload_is_discarded_in_the_kernel_on_linux(self):
        sizes = [1, 1000, (2 << 20) + 5]
        conn = RecordingConnection(
            b"".join(struct.pack(">Q", s) + bytes(s) for s in sizes) + struct.pack(">Q", 0))
        server = PingPongServer(p_max_bytes=3 << 20)
        server.server_close()  # never bound: the handler only needs its counters
        server.RequestHandlerClass(conn, ("127.0.0.1", 0), server)
        assert bytes(conn.sent) == ACK * len(sizes)
        assert (server.messages, server.bytes_in, server.bytes_out) == (
            len(sizes), sum(s + 8 for s in sizes), len(sizes))
        header_buffer = conn.reads[0][0]
        payload_reads = [r for r in conn.reads if r[0] != header_buffer]
        # Every payload byte is dropped by a MSG_TRUNC read of at most 1 MiB.
        assert all(flags == socket.MSG_TRUNC for _, _, flags, _ in payload_reads)
        assert sum(got for _, _, _, got in payload_reads) == sum(sizes)
        assert max(asked for _, asked, _, _ in payload_reads) == 1 << 20

    def test_header_in_one_byte_writes_then_two_drain_chunks(self, server):
        size = (1 << 20) + 12345  # spans two 1 MiB drain reads
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in struct.pack(">Q", size):
                sock.sendall(bytes([byte]))
                time.sleep(0.01)
            sock.sendall(bytes(size))
            assert sock.recv(1) == ACK
            sock.sendall(struct.pack(">Q", 0))
        server.stop()
        assert (server.messages, server.bytes_in, server.bytes_out) == (1, size + 8, 1)

    @pytest.mark.parametrize("exchange", [
        TestServer.test_fuzz_1000_frames_no_desync,
        TestServer.test_byte_accounting_exact,
    ], ids=["fuzz", "byte-accounting"])
    def test_copying_drain_stays_exact(self, server, monkeypatch, exchange):
        # The path taken off Linux: payloads are copied into the drain buffer.
        monkeypatch.setattr(netprobe, "_DISCARD", 0)
        exchange(TestServer(), server)


class TestProbe:
    def test_frame_is_sent_without_a_copy(self, server):
        size = server.p_max_bytes - 1
        for sizes in ([size], [size, size // 3, 1, size]):
            tracemalloc.start()
            try:
                result = probe("127.0.0.1", server.port, sizes, reps=1, warmup=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.error is None
            # The payload plus the server's 1 MiB drain buffer: rng.bytes(size)
            # alone holds the payload twice while it builds it.
            assert peak < 2 * size

    def test_frames_are_prefixes_of_one_seeded_draw(self, monkeypatch):
        class RecordingSocket:
            def __init__(self):
                self.payloads = []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def setsockopt(self, *args):
                pass

            def settimeout(self, timeout):
                pass

            def sendmsg(self, buffers):
                header, payload = buffers
                self.payloads.append(payload)
                return len(header) + len(payload)

            def sendall(self, data):
                pass

            def recv(self, n):
                return ACK

        sock = RecordingSocket()
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: sock)
        size = 4099
        sizes = [size, size // 3, 1, size]
        result = probe("127.0.0.1", 1, sizes, reps=2, warmup=1, payload_seed=5)
        assert result.error is None and len(result.samples) == 2 * len(sizes)
        assert [len(p) for p in sock.payloads] == [s for s in sizes for _ in range(3)]
        first = sock.payloads[0]
        assert all(p.obj is first.obj for p in sock.payloads)
        words = np.random.default_rng(5).integers(
            0, 1 << 64, size=(size + 7) // 8, dtype=np.uint64)
        draw = memoryview(words).cast("B")
        assert all(p == draw[:len(p)] for p in sock.payloads)

    @pytest.mark.parametrize("port", [0, -1, 65536, 70000])
    def test_port_out_of_range_rejected_before_connecting(self, monkeypatch, port):
        def no_connection(*args, **kwargs):
            raise AssertionError("socket opened")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        with pytest.raises(ParameterError, match="port"):
            probe("127.0.0.1", port, [16], reps=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_bad_payload_seed_rejected_before_connecting(self, monkeypatch, seed):
        def no_connection(*args, **kwargs):
            raise AssertionError("socket opened")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        for reps in (0, 1):
            with pytest.raises(ParameterError, match="payload_seed"):
                probe("127.0.0.1", 1, [16], reps=reps, payload_seed=seed)

    @pytest.mark.parametrize("timeout", [float("nan"), -1.0, 0.0, float("inf")])
    def test_bad_timeout_rejected_before_any_socket(self, monkeypatch, timeout):
        def refuse(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(socket.socket, "__init__", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for reps in (0, 1):
                with pytest.raises(ParameterError, match="timeout"):
                    probe("127.0.0.1", 1, [16], reps=reps, timeout=timeout)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

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
        _exchange(sock, [header, payload])
        assert bytes(sock.stream) == header + payload
        # What is left of each buffer is sent from a view, never a copy.
        assert sock.sendall_types == [memoryview] * (2 if accepted < 8 else 1 if accepted < 72 else 0)

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
        in_memory = [[s.size_bytes * 8.0, s.rtt_seconds] for s in result.samples]
        assert from_csv.tolist() == in_memory
        assert estimator.batch_ls(from_csv) == estimator.batch_ls(in_memory)

    def test_sample_fields(self, server):
        result = probe("127.0.0.1", server.port, [64], reps=3, warmup=0)
        reps = [s.rep for s in result.samples]
        assert reps == [0, 1, 2]


class SinkSocket:
    """A client socket that takes at most ``accept`` bytes per ``sendmsg``.

    It refuses a ``sendmsg`` of more buffers than the kernel takes, acks
    every frame, and keeps what it is sent only when ``keep`` is true.
    """

    def __init__(self, accept=None, keep=True):
        self.accept, self.keep = accept, keep
        self.stream, self.sendall_types, self.buffer_counts = bytearray(), [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def setsockopt(self, *args):
        pass

    def settimeout(self, timeout):
        pass

    def sendmsg(self, buffers):
        self.buffer_counts.append(len(buffers))
        assert len(buffers) <= os.sysconf("SC_IOV_MAX")
        sent = sum(len(b) for b in buffers)
        if self.accept is not None:
            sent = min(sent, self.accept)
        if self.keep:
            self.stream += b"".join(buffers)[:sent]
        return sent

    def sendall(self, data):
        self.sendall_types.append(type(data))
        if self.keep:
            self.stream += data

    def recv(self, n):
        return ACK


def seeded_draw(seed, size):
    """The payload draw of one probe before frames were sent from a block."""
    words = np.random.default_rng(seed).integers(0, 1 << 64, size=(size + 7) // 8, dtype=np.uint64)
    return bytes(memoryview(words).cast("B")[:size])


BLOCK = 4096  # the payload block in these tests, in place of 16 MiB


class TestBlock:
    @pytest.fixture(autouse=True)
    def small_block(self, monkeypatch):
        monkeypatch.setattr(netprobe, "_BLOCK_BYTES", BLOCK)

    def sent_frames(self, monkeypatch, sizes, seed=7):
        sock = SinkSocket()
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: sock)
        result = probe("127.0.0.1", 1, sizes, reps=1, warmup=0, payload_seed=seed)
        assert result.error is None and len(result.samples) == len(sizes)
        stream, frames = bytes(sock.stream), []
        for _ in sizes:
            (size,) = struct.unpack(">Q", stream[:8])
            frames.append(stream[8:8 + size])
            stream = stream[8 + size:]
        assert stream == struct.pack(">Q", 0)
        return frames

    def test_frames_up_to_the_block_keep_the_bytes_of_a_draw_at_the_largest_size(
            self, monkeypatch):
        sizes = [3 * BLOCK + 5, BLOCK, BLOCK - 1, 100, 1]
        frames = self.sent_frames(monkeypatch, sizes)
        draw = seeded_draw(7, max(sizes))
        assert [len(f) for f in frames] == sizes
        assert all(f == draw[:len(f)] for f in frames[1:])

    def test_longer_frame_repeats_the_block_and_ends_in_its_prefix(self, monkeypatch):
        [frame] = self.sent_frames(monkeypatch, [3 * BLOCK + 5])
        block = seeded_draw(7, BLOCK)
        assert frame == 3 * block + block[:5]

    def test_short_sendmsg_at_every_split_point_delivers_the_frame(self):
        block = memoryview(np.random.default_rng(3).bytes(16))
        buffers = _frame(block, 2 * 16 + 5)
        expected = b"".join(buffers)
        assert [len(b) for b in buffers] == [8, 16, 16, 5]
        for accepted in range(len(expected) + 1):
            sock = SinkSocket(accept=accepted)
            _exchange(sock, buffers)
            assert bytes(sock.stream) == expected
            assert set(sock.sendall_types) <= {memoryview}

    def test_frame_of_more_segments_than_sendmsg_takes_is_delivered_whole(self):
        iov_max = os.sysconf("SC_IOV_MAX")
        block = memoryview(np.random.default_rng(4).bytes(16))
        size = 16 * (iov_max + 3) + 9
        sock = SinkSocket()
        _exchange(sock, _frame(block, size))
        assert len(sock.buffer_counts) == 1
        assert bytes(sock.stream) == struct.pack(">Q", size) + (iov_max + 3) * bytes(block) + bytes(block[:9])

    def test_frame_of_more_segments_than_sendmsg_takes_crosses_loopback(self, server, monkeypatch):
        monkeypatch.setattr(netprobe, "_BLOCK_BYTES", 1024)
        size = 1024 * os.sysconf("SC_IOV_MAX") + 7
        assert size <= server.p_max_bytes
        result = probe("127.0.0.1", server.port, [size], reps=2, warmup=1)
        assert result.error is None and len(result.samples) == 2
        server.stop()
        assert (server.messages, server.bytes_in) == (3, 3 * (size + 8))

    def test_client_memory_stays_at_one_block(self, monkeypatch):
        block = 64 << 10
        margin = 16 << 10  # Python objects of one probe besides its block
        monkeypatch.setattr(netprobe, "_BLOCK_BYTES", block)
        sock = SinkSocket(keep=False)
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: sock)
        probe("127.0.0.1", 1, [1], reps=1)  # imports numpy.random outside the trace
        tracemalloc.start()
        try:
            result = probe("127.0.0.1", 1, [4 * block], reps=2, warmup=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.error is None
        assert peak < block + margin

    @pytest.mark.parametrize("discard", [
        pytest.param(socket.MSG_TRUNC, id="kernel-discard", marks=pytest.mark.skipif(
            not sys.platform.startswith("linux"), reason="MSG_TRUNC discard is Linux-only")),
        pytest.param(0, id="copying-drain"),
    ])
    def test_multi_segment_frames_are_counted_exactly(self, server, monkeypatch, discard):
        monkeypatch.setattr(netprobe, "_DISCARD", discard)
        sizes = [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
        reps, warmup = 3, 2
        result = probe("127.0.0.1", server.port, sizes, reps=reps, warmup=warmup)
        assert result.error is None and len(result.samples) == reps * len(sizes)
        server.stop()
        exchanges = len(sizes) * (reps + warmup)
        assert (server.messages, server.bytes_in, server.bytes_out) == (
            exchanges, sum(s + 8 for s in sizes) * (reps + warmup), exchanges)
