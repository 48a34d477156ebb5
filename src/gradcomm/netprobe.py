"""Live (message size, delay) measurement over a TCP ping-pong.

Wire protocol, client to server:  ``[len: u64 big-endian][payload: len bytes]``;
the server answers every frame with the single byte 0x06 and a zero-length
frame closes the connection cleanly.  The client times each exchange from the
first frame byte written to the acknowledgment byte received, so the recorded
delay is a round-trip time and a fitted alpha absorbs both directions'
startup cost.  Nagle coalescing is disabled on both ends and payloads are
pseudorandom bytes so link-level compression cannot shrink them.  One probe
draws one block of payload bytes from ``payload_seed``, as large as its
largest frame but at most ``_BLOCK_BYTES`` (16 MiB), and sends every frame
from views of it without a copy: a frame up to the block's size is a prefix
of it, and a longer one repeats the whole block and ends in a prefix.  A
16 MiB period is beyond the window of deflate, LZ4, LZO, brotli and zstd up
to level 19 without long-distance matching, so the frames stay incompressible
to a link compressor, and the client holds at most 16 MiB of payload however
large its frames.

The server serves one connection at a time.  It counts each payload exactly
and never keeps it: on Linux the kernel discards the bytes (``MSG_TRUNC``)
without copying them to user space, so the server's own copy is not part of
the round trip it times; elsewhere they are copied through a bounded 1 MiB
buffer.  Either way a frame near p_max costs it no p_max allocation.  The
server waits up to ``DEFAULT_TIMEOUT_S`` (5 s) for the first byte of each
header and of each next 1 MiB of payload, and the rest of that header or MiB
must arrive within the same time of its first byte.  So a peer that trickles
bytes cannot hold the sequential server for more than two timeouts per
header or MiB.  A connection that times out or fails is logged in one line
while serving goes on, so one peer cannot stop the server.
"""

from __future__ import annotations

import logging
import math
import socket
import socketserver
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .csvio import write_csv
from .errors import NetworkError, ParameterError, is_int
from .estimator import SAMPLE_COLUMNS

logger = logging.getLogger(__name__)

ACK = b"\x06"
_LEN = struct.Struct(">Q")
DEFAULT_P_MAX_BYTES = 1 << 30
DEFAULT_TIMEOUT_S = 5.0
_MAX_PORT = 65535

SAMPLES_CSV_HEADER = ",".join(SAMPLE_COLUMNS + ("rep",))  # a row is a ProbeSample


class ProbeSample(NamedTuple):
    size_bytes: int
    rtt_seconds: float
    rep: int


@dataclass
class ProbeResult:
    """Samples gathered so far; ``error`` is set when the run ended early."""

    samples: list[ProbeSample] = field(default_factory=list)
    error: str | None = None


# Payloads are counted, never kept, in reads of at most this many bytes.  On
# Linux, TCP drops a MSG_TRUNC read's bytes without copying them to user space
# and returns how many it dropped; elsewhere the read copies into the buffer.
_DRAIN_BYTES = 1 << 20
_DISCARD = socket.MSG_TRUNC if sys.platform.startswith("linux") else 0
# The client sends every frame from views of one seeded block of at most this
# many bytes.  A sendmsg takes at most _IOV_MAX buffers, POSIX's least
# IOV_MAX: on a socket with a timeout one sendmsg sends at most what its send
# buffer holds, far less than the header and 15 blocks (240 MiB).
_BLOCK_BYTES = 1 << 24
_IOV_MAX = 16


class _FrameHandler(socketserver.BaseRequestHandler):
    """Acknowledges each frame of one connection; ``timeout`` closes a slow peer."""

    timeout = DEFAULT_TIMEOUT_S

    def handle(self) -> None:
        server, sock = self.server, self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        header = memoryview(bytearray(_LEN.size))
        drain = memoryview(bytearray(min(server.p_max_bytes, _DRAIN_BYTES)))
        while True:
            # Raw reads only: a buffered reader would read ahead into the payload.
            if not self._read(header, _LEN.size, 0):
                return
            (length,) = _LEN.unpack(header)
            if length == 0:
                return  # clean shutdown frame
            if length > server.p_max_bytes:
                logger.warning(
                    "resetting connection: declared payload %d exceeds p_max %d",
                    length, server.p_max_bytes,
                )
                return
            remaining = length
            while remaining:
                chunk = min(remaining, len(drain))
                if not self._read(drain, chunk, _DISCARD):
                    logger.warning("peer vanished mid-payload; resetting connection")
                    return
                remaining -= chunk
            sock.sendall(ACK)
            server.messages += 1
            server.bytes_in += _LEN.size + length
            server.bytes_out += len(ACK)

    def _read(self, buffer: memoryview, nbytes: int, flags: int) -> bool:
        """Read ``nbytes`` into ``buffer``; False if the peer closes first.

        The first byte may take ``timeout``, and the rest must arrive within
        ``timeout`` of it; a read that returns them all at once costs no clock.
        """
        sock = self.request
        got = sock.recv_into(buffer, nbytes, flags)
        if got == nbytes or not got:
            return got == nbytes
        deadline = time.monotonic() + self.timeout
        try:
            while got < nbytes:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"{nbytes} bytes took longer than {self.timeout} s")
                sock.settimeout(left)
                n = sock.recv_into(buffer[got:], nbytes - got, flags)
                if not n:
                    return False
                got += n
        finally:
            sock.settimeout(self.timeout)
        return True


class PingPongServer(socketserver.TCPServer):
    """Sequential echo-acknowledge server; one connection at a time.

    Concurrency would contaminate the client's timing, so connections are
    handled strictly one after another.  Payloads are discarded in the kernel
    on Linux and copied through a 1 MiB buffer elsewhere; either way
    ``messages``/``bytes_in``/``bytes_out`` count acknowledged frames exactly,
    for byte-accounting checks.  Port 0 binds a free port; a port outside
    0..65535 raises :class:`ParameterError`.
    """

    allow_reuse_address = True
    request_queue_size = 1

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 p_max_bytes: int = DEFAULT_P_MAX_BYTES):
        if not is_int(p_max_bytes, 1):
            raise ParameterError("p_max_bytes must be >= 1")
        if not (is_int(port, 0) and port <= _MAX_PORT):
            raise ParameterError(f"port must lie in 0..{_MAX_PORT}, got {port}")
        super().__init__((host, port), _FrameHandler, bind_and_activate=False)
        self.port = port
        self.p_max_bytes = p_max_bytes
        self.messages = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._thread: threading.Thread | None = None

    def bind(self) -> int:
        """Bind and listen; returns the actual port (useful with port=0)."""
        try:
            self.server_bind()
            self.server_activate()
        except OSError as exc:
            self.server_close()
            host, port = self.server_address
            raise NetworkError(f"cannot bind {host}:{port}: {exc}") from exc
        self.port = self.server_address[1]
        return self.port

    def handle_error(self, request, client_address) -> None:
        """Log a failed connection in one line and go on serving."""
        logger.warning("connection from %s failed: %s", client_address, sys.exc_info()[1])

    def start(self) -> int:
        """Serve in a daemon thread (test/tooling convenience)."""
        port = self.bind()
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.2}, daemon=True)
        self._thread.start()
        return port

    def stop(self) -> None:
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self.server_close()


def _frame(block: memoryview, size: int) -> list:
    """The header and the views of ``block`` that send a ``size``-byte frame."""
    whole, rest = divmod(size, len(block))
    buffers = [_LEN.pack(size)] + [block] * whole
    if rest:
        buffers.append(block[:rest])
    return buffers


def _exchange(sock: socket.socket, buffers: list) -> None:
    # One sendmsg of at most _IOV_MAX buffers copies none of them; a partial
    # send is finished from views of what is left of each.
    sent = sock.sendmsg(buffers[:_IOV_MAX])
    for buffer in buffers:
        if sent >= len(buffer):
            sent -= len(buffer)
        else:
            sock.sendall(memoryview(buffer)[sent:])
            sent = 0
    ack = sock.recv(1)
    if not ack:
        raise ConnectionResetError("server closed the connection mid-exchange")
    if ack != ACK:
        raise ConnectionError(f"protocol desync: expected ack 0x06, got {ack!r}")


def check_probe(port: int, sizes, reps: int, warmup: int,
                timeout: float = DEFAULT_TIMEOUT_S) -> None:
    """Raise :class:`ParameterError` for what ``probe`` refuses before opening a socket.

    That is a non-integer, a size below 1, a negative count, a port outside
    1..65535 or a timeout that is not a finite number of seconds > 0.
    """
    if not all(is_int(s, 1) for s in sizes):
        raise ParameterError("probe sizes must be >= 1 byte")
    if not (is_int(reps, 0) and is_int(warmup, 0)):
        raise ParameterError("reps and warmup must be nonnegative")
    if not (is_int(port, 1) and port <= _MAX_PORT):
        raise ParameterError(f"port must lie in 1..{_MAX_PORT}, got {port}")
    if not 0 < timeout < math.inf:
        raise ParameterError(f"timeout must be a finite number of seconds > 0, got {timeout!r}")


def probe(
    host: str,
    port: int,
    sizes_bytes,
    reps: int,
    warmup: int = 1,
    timeout: float = DEFAULT_TIMEOUT_S,
    payload_seed: int = 0,
) -> ProbeResult:
    """Timed ping-pong exchanges for each size; returns estimator-ready samples.

    For every size, ``warmup`` unrecorded exchanges precede ``reps`` timed
    ones.  Every frame is sent from views of one block drawn from
    ``payload_seed``, of min(largest size, 16 MiB) bytes: a frame up to the
    block's size is its prefix, a longer one repeats it and ends in a prefix.
    Arguments ``check_probe`` refuses, and a ``payload_seed`` that is not an
    integer >= 0, raise :class:`ParameterError` before any socket is opened.
    Connection failures raise :class:`NetworkError`; a mid-stream disconnect
    returns the partial samples with ``error`` set.
    """
    sizes = list(sizes_bytes)
    check_probe(port, sizes, reps, warmup, timeout)
    if not is_int(payload_seed, 0):
        raise ParameterError(f"payload_seed must be an integer >= 0, got {payload_seed!r}")
    if reps == 0:
        return ProbeResult()

    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise NetworkError(f"cannot connect to {host}:{port}: {exc}") from exc

    result = ProbeResult()
    with sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(timeout)
        # Every frame is sent from views of this one block.  64-bit words draw
        # about twice as fast as 32-bit ones, and rng.bytes would hold two
        # copies while it builds them.
        block_bytes = min(max(sizes, default=0), _BLOCK_BYTES)
        words = np.random.default_rng(payload_seed).integers(
            0, 1 << 64, size=(block_bytes + 7) // 8, dtype=np.uint64)
        block = memoryview(words).cast("B")[:block_bytes]
        try:
            for size in sizes:
                frame = _frame(block, size)
                for _ in range(warmup):
                    _exchange(sock, frame)
                for rep in range(reps):
                    t0 = time.perf_counter_ns()
                    _exchange(sock, frame)
                    t1 = time.perf_counter_ns()
                    result.samples.append(
                        ProbeSample(
                            size_bytes=size,
                            rtt_seconds=max((t1 - t0) / 1e9, 1e-9),
                            rep=rep,
                        )
                    )
            sock.sendall(_LEN.pack(0))
        except OSError as exc:
            result.error = f"probe aborted mid-stream: {exc}"
    return result


def write_samples_csv(target, samples) -> None:
    """Write probe samples under ``SAMPLES_CSV_HEADER``, one ``ProbeSample`` per row."""
    write_csv(target, SAMPLES_CSV_HEADER, samples)
