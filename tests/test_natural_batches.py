"""natural's batched rounding in ``add_decompressed``: same sums, bounded temporaries."""

import tracemalloc

import numpy as np
import pytest

from gradcomm.compression import (
    NATURAL_BATCH_VALUES,
    CompressorSpec,
    _round_to_powers_of_two,
    add_decompressed,
)

NATURAL = CompressorSpec("natural")


@pytest.mark.parametrize("m, d", [
    (100, 1),  # one column, which np.add.reduce would sum pairwise
    (NATURAL_BATCH_VALUES // 2 + 1, 2),  # two batches, the second one row
    (17, 1000),  # two batches of 8 rows and a one-row third
    (2, NATURAL_BATCH_VALUES + 1),  # rows larger than a batch
])
@pytest.mark.parametrize("seed", range(5))
def test_batches_equal_row_by_row_rounding(m, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 8, (m, d))
    base = rng.standard_normal(d)
    want = base.copy()
    row_rng = np.random.default_rng(seed)
    for row in rows:
        want += _round_to_powers_of_two(row, row_rng.random(row.size))
    got = base.copy()
    add_decompressed(got, NATURAL, rows, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


def test_round_of_64_by_1000_keeps_batch_sized_temporaries():
    # A whole (64, 1000) batch needs several float64 temporaries of 512 KB
    # each (2.3 MB at its peak); batches of 2**13 values peak near 0.35 MB.
    rows = np.random.default_rng(0).standard_normal((64, 1000))
    out = np.zeros(1000)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        add_decompressed(out, NATURAL, rows, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
