"""Live (message size, delay) measurement over a TCP ping-pong.

Wire protocol, client to server:  ``[len: u64 big-endian][payload: len bytes]``;
the server answers every frame with the single byte 0x06 and a zero-length
frame closes the connection cleanly.  The client times each exchange from the
first frame byte written to the acknowledgment byte received, so the recorded
delay is a round-trip time and a fitted alpha absorbs both directions'
startup cost.  Nagle coalescing is disabled on both ends and payloads are
pseudorandom bytes so link-level compression cannot shrink them.
"""

from __future__ import annotations

import logging
import socket
import struct
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


def _recv_exact(conn: socket.socket, nbytes: int) -> bytes | None:
    """Read exactly nbytes; None if the peer closed the stream first."""
    chunks = []
    remaining = nbytes
    while remaining > 0:
        chunk = conn.recv(min(remaining, 1 << 16))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class PingPongServer:
    """Sequential echo-acknowledge server; one connection at a time.

    Concurrency would contaminate the client's timing, so connections are
    handled strictly one after another.  ``messages``/``bytes_in``/``bytes_out``
    count acknowledged frames for exact byte-accounting checks.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 p_max_bytes: int = DEFAULT_P_MAX_BYTES):
        if p_max_bytes < 1:
            raise ParameterError("p_max_bytes must be >= 1")
        self.host = host
        self.port = port
        self.p_max_bytes = p_max_bytes
        self.messages = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._shutdown = threading.Event()

    def bind(self) -> int:
        """Bind and listen; returns the actual port (useful with port=0)."""
        try:
            # create_server sets SO_REUSEADDR and closes its socket if bind or listen fails.
            sock = socket.create_server((self.host, self.port), backlog=1)
        except OSError as exc:
            raise NetworkError(f"cannot bind {self.host}:{self.port}: {exc}") from exc
        sock.settimeout(0.2)
        self._sock = sock
        self.port = sock.getsockname()[1]
        return self.port

    def serve_forever(self, shutdown: threading.Event | None = None) -> None:
        """Accept loop; returns when the shutdown event is set or the socket closes."""
        if self._sock is None:
            self.bind()
        stop = shutdown if shutdown is not None else self._shutdown
        while not stop.is_set():
            try:
                conn, addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                logger.debug("connection from %s", addr)
                self._handle(conn)

    def _handle(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            header = _recv_exact(conn, _LEN.size)
            if header is None:
                return
            (length,) = _LEN.unpack(header)
            if length == 0:
                return  # clean shutdown frame
            if length > self.p_max_bytes:
                logger.warning(
                    "resetting connection: declared payload %d exceeds p_max %d",
                    length, self.p_max_bytes,
                )
                return
            payload = _recv_exact(conn, length)
            if payload is None:
                logger.warning("peer vanished mid-payload; resetting connection")
                return
            conn.sendall(ACK)
            self.messages += 1
            self.bytes_in += _LEN.size + length
            self.bytes_out += len(ACK)

    def start(self) -> int:
        """Run the accept loop in a daemon thread (test/tooling convenience)."""
        port = self.bind()
        self._shutdown.clear()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return port

    def stop(self) -> None:
        self._shutdown.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def _exchange(sock: socket.socket, frame: bytes) -> None:
    sock.sendall(frame)
    ack = _recv_exact(sock, 1)
    if ack is None:
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
                frame = _LEN.pack(size) + rng.bytes(size)
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
    """Write probe samples as ``size_bytes,time_seconds,rep`` rows."""
    write_csv(target, SAMPLES_CSV_HEADER, ((s.size_bytes, s.rtt_seconds, s.rep) for s in samples))
