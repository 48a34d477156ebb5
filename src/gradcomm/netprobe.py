"""Live (message size, delay) measurement over a TCP ping-pong.

Wire protocol, client to server:  ``[len: u64 big-endian][payload: len bytes]``;
the server answers every frame with the single byte 0x06 and a zero-length
frame closes the connection cleanly.  The client times each exchange from the
first frame byte written to the acknowledgment byte received, so the recorded
delay is a round-trip time and a fitted alpha absorbs both directions'
startup cost.  Nagle coalescing is disabled on both ends and payloads are
pseudorandom bytes so link-level compression cannot shrink them.

The server serves one connection at a time.  It drains each payload through a
bounded buffer and counts it, never keeping it, so a frame near p_max costs
it no p_max allocation.  A connection idle for ``DEFAULT_TIMEOUT_S`` (5 s) is
closed, and a connection that fails is logged in one line while serving goes
on, so one peer can neither stall nor stop the server.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import struct
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import NetworkError, ParameterError

logger = logging.getLogger(__name__)

ACK = b"\x06"
_LEN = struct.Struct(">Q")
DEFAULT_P_MAX_BYTES = 1 << 30
DEFAULT_TIMEOUT_S = 5.0

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


_DRAIN_BYTES = 1 << 20  # payloads are counted, never kept: read through a buffer this big


class _FrameHandler(socketserver.StreamRequestHandler):
    """Acknowledges each frame of one connection; ``timeout`` closes an idle peer."""

    disable_nagle_algorithm = True
    timeout = DEFAULT_TIMEOUT_S

    def handle(self) -> None:
        server = self.server
        drain = memoryview(bytearray(min(server.p_max_bytes, _DRAIN_BYTES)))
        while True:
            header = self.rfile.read(_LEN.size)
            if len(header) < _LEN.size:
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
                got = self.rfile.readinto(drain[:min(remaining, len(drain))])
                if not got:
                    logger.warning("peer vanished mid-payload; resetting connection")
                    return
                remaining -= got
            self.wfile.write(ACK)
            server.messages += 1
            server.bytes_in += _LEN.size + length
            server.bytes_out += len(ACK)


class PingPongServer(socketserver.TCPServer):
    """Sequential echo-acknowledge server; one connection at a time.

    Concurrency would contaminate the client's timing, so connections are
    handled strictly one after another.  ``messages``/``bytes_in``/``bytes_out``
    count acknowledged frames for exact byte-accounting checks.
    """

    allow_reuse_address = True
    request_queue_size = 1

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 p_max_bytes: int = DEFAULT_P_MAX_BYTES):
        if p_max_bytes < 1:
            raise ParameterError("p_max_bytes must be >= 1")
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
    ones.  Connection failures raise :class:`NetworkError`; a mid-stream
    disconnect returns the partial samples with ``error`` set.
    """
    sizes = [int(s) for s in sizes_bytes]
    if any(s < 1 for s in sizes):
        raise ParameterError("probe sizes must be >= 1 byte")
    if reps < 0 or warmup < 0:
        raise ParameterError("reps and warmup must be nonnegative")
    if reps == 0:
        return ProbeResult()

    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise NetworkError(f"cannot connect to {host}:{port}: {exc}") from exc

    result = ProbeResult()
    rng = np.random.default_rng(payload_seed)
    with sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(timeout)
        try:
            for size in sizes:
                # rng.bytes(size) as a view of the one array it is drawn into
                # (the same bytes on a little-endian host): rng.bytes holds
                # two copies while it builds them.
                words = rng.integers(0, 1 << 32, size=(size + 3) // 4, dtype=np.uint32)
                header, payload = _LEN.pack(size), memoryview(words).cast("B")[:size]
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
