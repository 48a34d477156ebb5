"""Live (message size, delay) measurement over a TCP ping-pong.

Wire protocol, client to server:  ``[len: u64 big-endian][payload: len bytes]``;
the server answers every frame with the single byte 0x06 and a zero-length
frame closes the connection cleanly.  The client times each exchange from the
first frame byte written to the acknowledgment byte received, so the recorded
delay is a round-trip time and a fitted alpha absorbs both directions'
startup cost.  Nagle coalescing is disabled on both ends and payloads are
pseudorandom bytes so link-level compression cannot shrink them.  One probe
draws its payload bytes once, at its largest size, from ``payload_seed``, and
sends every frame as a prefix of that one draw: the frames stay pseudorandom
and incompressible, the draw costs one pass over the largest frame instead of
one per size, and the client's peak memory is still the largest frame.

The server serves one connection at a time.  It counts each payload exactly
and never keeps it: on Linux the kernel discards the bytes (``MSG_TRUNC``)
without copying them to user space, so the server's own copy is not part of
the round trip it times; elsewhere they are copied through a bounded 1 MiB
buffer.  Either way a frame near p_max costs it no p_max allocation.  A
connection idle for ``DEFAULT_TIMEOUT_S`` (5 s) is closed, and a connection
that fails is logged in one line while serving goes on, so one peer cannot
stop the server.  The timeout is per read, not per
frame, so a peer that trickles bytes (one header byte just inside each
timeout) can hold the sequential server for longer than the timeout.
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

import numpy as np

from .csvio import write_csv
from .errors import NetworkError, ParameterError, is_int

logger = logging.getLogger(__name__)

ACK = b"\x06"
_LEN = struct.Struct(">Q")
DEFAULT_P_MAX_BYTES = 1 << 30
DEFAULT_TIMEOUT_S = 5.0
_MAX_PORT = 65535

SAMPLES_CSV_HEADER = "size_bytes,time_seconds,rep"


@dataclass(frozen=True)
class ProbeSample:
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


class _FrameHandler(socketserver.BaseRequestHandler):
    """Acknowledges each frame of one connection; ``timeout`` closes an idle peer."""

    timeout = DEFAULT_TIMEOUT_S

    def handle(self) -> None:
        server, sock = self.server, self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        header = memoryview(bytearray(_LEN.size))
        drain = memoryview(bytearray(min(server.p_max_bytes, _DRAIN_BYTES)))
        while True:
            # Raw reads only: a buffered reader would read ahead into the payload.
            got = 0
            while got < _LEN.size:
                n = sock.recv_into(header[got:])
                if not n:
                    return
                got += n
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
                got = sock.recv_into(drain, min(remaining, len(drain)), _DISCARD)
                if not got:
                    logger.warning("peer vanished mid-payload; resetting connection")
                    return
                remaining -= got
            sock.sendall(ACK)
            server.messages += 1
            server.bytes_in += _LEN.size + length
            server.bytes_out += len(ACK)


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


def _exchange(sock: socket.socket, header: bytes, payload) -> None:
    # One sendmsg carries the header in the payload's first segment and copies
    # neither; a partial send is finished from what is left of each.
    sent = sock.sendmsg([header, payload])
    if sent < len(header):
        sock.sendall(header[sent:])
        sent = len(header)
    if sent - len(header) < len(payload):
        sock.sendall(memoryview(payload)[sent - len(header):])
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
    ones.  Every frame is a prefix of one draw from ``payload_seed`` at the
    largest size.  Arguments ``check_probe`` refuses, and a ``payload_seed``
    that is not an integer >= 0, raise :class:`ParameterError` before any
    socket is opened.  Connection failures raise :class:`NetworkError`; a
    mid-stream disconnect returns the partial samples with ``error`` set.
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
        # Every frame is a prefix view of this one draw.  64-bit words draw
        # about twice as fast as 32-bit ones, and rng.bytes would hold two
        # copies while it builds them.
        words = np.random.default_rng(payload_seed).integers(
            0, 1 << 64, size=(max(sizes, default=0) + 7) // 8, dtype=np.uint64)
        payloads = memoryview(words).cast("B")
        try:
            for size in sizes:
                header, payload = _LEN.pack(size), payloads[:size]
                for _ in range(warmup):
                    _exchange(sock, header, payload)
                for rep in range(reps):
                    t0 = time.perf_counter_ns()
                    _exchange(sock, header, payload)
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
    """Write probe samples as ``size_bytes,time_seconds,rep`` rows."""
    write_csv(target, SAMPLES_CSV_HEADER, ((s.size_bytes, s.rtt_seconds, s.rep) for s in samples))
