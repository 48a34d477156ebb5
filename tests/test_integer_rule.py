"""The package's one integer rule, ``errors.is_int``, at every site that takes a count.

A float (even a whole one), a bool or a string is refused with
``ParameterError`` and never truncated; an ``np.int64`` is accepted.
"""

import socket
import socketserver

import numpy as np
import pytest

from gradcomm.adaptive import SelectionObjective, select_power
from gradcomm.commodel import TimeModelParams
from gradcomm.compression import (
    CompressorSpec,
    DenseVector,
    compress,
    decompress,
    index_bits,
    message_bits,
)
from gradcomm.errors import DecodeError, ParameterError, is_int
from gradcomm.netprobe import PingPongServer, check_probe, probe
from gradcomm.optimizer import SimConfig

RANK_ONE = CompressorSpec("rank_r", r=1)
MODEL = TimeModelParams(1e-3, 1e-8)

# Each site as a call of the one value under test; 3 is a valid value at every site
# (message_bits' rows and cols are 3 of a 3 x 4 or 4 x 3 shape for d = 12).
SITES = {
    "CompressorSpec.k": lambda v: CompressorSpec("rand_k", k=v),
    "CompressorSpec.r": lambda v: CompressorSpec("rank_r", r=v),
    "SelectionObjective.d": lambda v: SelectionObjective("rand_k", d=v, n=4, alpha=1e-3, beta=1e-9),
    "SelectionObjective.n": lambda v: SelectionObjective("rand_k", d=10, n=v, alpha=1e-3, beta=1e-9),
    "SelectionObjective.b": lambda v: SelectionObjective("top_k", d=10, n=4, alpha=1e-3, beta=1e-9, b=v),
    "DenseVector.bits_per_scalar": lambda v: DenseVector(np.ones(4), v),
    "message_bits.d": lambda v: message_bits(CompressorSpec(), v),
    "message_bits.b": lambda v: message_bits(CompressorSpec(), 10, v),
    "message_bits.rows": lambda v: message_bits(RANK_ONE, 12, 32, v, 4),
    "message_bits.cols": lambda v: message_bits(RANK_ONE, 12, 32, 4, v),
    "index_bits.d": index_bits,
    "SimConfig.steps": lambda v: SimConfig(steps=v, time_model=MODEL),
    "SimConfig.seed": lambda v: SimConfig(steps=1, time_model=MODEL, seed=v),
    "PingPongServer.port": lambda v: PingPongServer(port=v),
    "PingPongServer.p_max": lambda v: PingPongServer(p_max_bytes=v),
    "check_probe.port": lambda v: check_probe(v, [1], 0, 0),
    "check_probe.sizes": lambda v: check_probe(1, [1, v], 0, 0),
    "check_probe.reps": lambda v: check_probe(1, [1], v, 0),
    "check_probe.warmup": lambda v: check_probe(1, [1], 0, v),
    "probe.sizes": lambda v: probe("127.0.0.1", 1, [v], reps=0),
    "probe.payload_seed": lambda v: probe("127.0.0.1", 1, [1], reps=0, payload_seed=v),
}


@pytest.fixture
def no_sockets(monkeypatch):
    """Fail on any socket made; an accepted PingPongServer stops before making one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket.socket, "__init__", refuse)
    monkeypatch.setattr(socketserver.TCPServer, "__init__", lambda self, *args, **kwargs: None)


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_non_integers_are_refused(site, value, no_sockets):
    with pytest.raises(ParameterError):
        SITES[site](value)


@pytest.mark.parametrize("site", SITES)
def test_numpy_integers_are_accepted(site, no_sockets):
    SITES[site](np.int64(3))


@pytest.mark.parametrize("value, ok", [
    (0, True), (np.int64(0), True), (np.uint8(7), True), (-1, False), (False, False),
    (np.bool_(True), False), (1.0, False), (np.float64(2.0), False), (None, False), ("0", False),
])
def test_is_int(value, ok):
    assert is_int(value, 0) == ok


@pytest.mark.parametrize("rows", [8.0, 8.5, "8", True])
def test_decompress_refuses_a_rank_r_shape_that_is_not_an_int(rows):
    x = DenseVector(np.random.default_rng(0).standard_normal(40))
    msg = compress(x, RANK_ONE, seed=0, rows=8, cols=5)
    want = decompress(msg).values
    msg.payload["rows"] = rows
    with pytest.raises(DecodeError):
        decompress(msg)
    msg.payload["rows"] = np.int64(8)
    np.testing.assert_array_equal(decompress(msg).values, want)


def test_select_power_stays_in_range():
    rng = np.random.default_rng(21)
    dims = [1, 2, 3, 7, 1000, 10**6, np.int64(5)] + rng.integers(1, 10**7, 20).tolist()
    for d in dims:
        for family in ("rand_k", "top_k"):
            for _ in range(5):
                scale = rng.choice([0.0, 1e-300, 1.0], 2)
                alpha, beta = (scale * 10.0 ** rng.uniform(-9, 0, 2)).tolist()
                obj = SelectionObjective(family, d=d, n=int(rng.integers(1, 100)),
                                         alpha=alpha, beta=beta)
                k_star, _ = select_power(obj)
                assert is_int(k_star, 1) and k_star <= d, (obj, k_star)
