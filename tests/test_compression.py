import itertools
from fractions import Fraction

import numpy as np
import pytest

from gradcomm.compression import (
    CompressedMessage,
    CompressorSpec,
    DenseVector,
    add_decompressed,
    compress,
    decompress,
    default_matrix_shape,
    index_bits,
    message_bits,
    natural_round,
    omega_inf,
    rand_k_indices,
    top_k_indices,
)
from gradcomm.errors import DecodeError, ParameterError


def same_message(a, b) -> bool:
    """Two messages carry the same header fields and the same payload entries."""
    return (
        (a.kind, a.bits, a.seed, a.d, a.bits_per_scalar)
        == (b.kind, b.bits, b.seed, b.d, b.bits_per_scalar)
        and a.payload.keys() == b.payload.keys()
        and all(np.array_equal(a.payload[key], b.payload[key]) for key in a.payload)
    )


def enumerate_rand_k_outputs(x, k, max_seeds=10_000):
    """Map every realized index subset to its decompressed output.

    The decompressed vector depends only on the selected subset, so averaging
    uniformly over the distinct subsets is the exact expectation.  Seeds are
    scanned until all C(d, k) subsets have appeared.
    """
    d = x.d
    want = {frozenset(c) for c in itertools.combinations(range(d), k)}
    seen = {}
    for seed in range(max_seeds):
        msg = compress(x, CompressorSpec("rand_k", k=k), seed)
        key = frozenset(int(i) for i in rand_k_indices(d, k, seed))
        if key not in seen:
            seen[key] = decompress(msg).values
        if len(seen) == len(want):
            return seen
    raise AssertionError(f"only {len(seen)}/{len(want)} subsets seen in {max_seeds} seeds")


class TestDenseVector:
    def test_rejects_nan_inf_empty(self):
        with pytest.raises(ParameterError):
            DenseVector([1.0, float("nan")])
        with pytest.raises(ParameterError):
            DenseVector([float("inf")])
        with pytest.raises(ParameterError):
            DenseVector([])
        with pytest.raises(ParameterError):
            DenseVector([1.0], bits_per_scalar=0)

    def test_total_bits(self):
        assert DenseVector([1.0, 2.0, 3.0]).total_bits == 96
        assert DenseVector([1.0], bits_per_scalar=16).total_bits == 16

    def test_values_immutable(self):
        x = DenseVector([1.0, 2.0])
        with pytest.raises(ValueError):
            x.values[0] = 9.0


class TestRandK:
    def test_full_selection_is_identity(self):
        x = DenseVector([1.0, 2.0, 3.0, 4.0])
        msg = compress(x, CompressorSpec("rand_k", k=4), seed=123)
        assert msg.bits == 4 * 32
        np.testing.assert_array_equal(msg.payload["values"], x.values)
        np.testing.assert_array_equal(decompress(msg).values, x.values)

    def test_two_coordinate_outputs(self):
        # d=2, k=1: the only possible outputs are (12, 0) and (0, 16); their
        # uniform average over the two subsets recovers the input.
        x = DenseVector([6.0, 8.0])
        outputs = enumerate_rand_k_outputs(x, 1)
        assert len(outputs) == 2
        np.testing.assert_array_equal(outputs[frozenset({0})], [12.0, 0.0])
        np.testing.assert_array_equal(outputs[frozenset({1})], [0.0, 16.0])
        mean = np.mean(list(outputs.values()), axis=0)
        np.testing.assert_allclose(mean, x.values, atol=1e-12)

    def test_bits_and_seed_required(self):
        x = DenseVector(np.arange(1.0, 11.0))
        assert compress(x, CompressorSpec("rand_k", k=3), seed=7).bits == 3 * 32
        with pytest.raises(ParameterError):
            compress(x, CompressorSpec("rand_k", k=0), seed=7)
        with pytest.raises(ParameterError):
            compress(x, CompressorSpec("rand_k", k=11), seed=7)
        with pytest.raises(ParameterError):
            compress(x, CompressorSpec("rand_k", k=3), seed=None)

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 2), (4, 2)])
    def test_exact_unbiasedness_small(self, d, k):
        rng = np.random.default_rng(99)
        x = DenseVector(rng.standard_normal(d))
        outputs = enumerate_rand_k_outputs(x, k)
        mean = np.mean(list(outputs.values()), axis=0)
        np.testing.assert_allclose(mean, x.values, atol=1e-12)
        second_moment = np.mean([np.sum(v * v) for v in outputs.values()])
        bound = (d / k) * float(np.sum(x.values**2))
        assert second_moment <= bound + 1e-12


class TestTopK:
    def test_unique_largest_magnitude(self):
        msg = compress(DenseVector([3.0, -5.0, 1.0]), CompressorSpec("top_k", k=1))
        np.testing.assert_array_equal(decompress(msg).values, [0.0, -5.0, 0.0])
        np.testing.assert_array_equal(msg.payload["indices"], [1])

    def test_tie_breaks_to_lowest_index(self):
        msg = compress(DenseVector([2.0, -2.0, 7.0]), CompressorSpec("top_k", k=1))
        np.testing.assert_array_equal(msg.payload["indices"], [2])
        tie = compress(DenseVector([2.0, -2.0, 2.0]), CompressorSpec("top_k", k=1))
        np.testing.assert_array_equal(tie.payload["indices"], [0])
        np.testing.assert_array_equal(decompress(tie).values, [2.0, 0.0, 0.0])

    def test_bit_count_with_index_overhead(self):
        x = DenseVector(np.arange(1.0, 1025.0))
        msg = compress(x, CompressorSpec("top_k", k=1))
        assert msg.bits == 1 * 32 + 1 * 10
        assert omega_inf(CompressorSpec("top_k", k=1), 1024) == Fraction(32768, 42)
        # d = 1: addressing a single coordinate costs zero bits
        assert compress(DenseVector([5.0]), CompressorSpec("top_k", k=1)).bits == 32

    def test_contraction_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(2, 40))
            k = int(rng.integers(1, d + 1))
            x = DenseVector(rng.standard_normal(d))
            err = decompress(compress(x, CompressorSpec("top_k", k=k))).values - x.values
            assert np.sum(err**2) <= (1 - k / d) * np.sum(x.values**2) + 1e-12

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            compress(DenseVector([1.0, 2.0]), CompressorSpec("top_k", k=3))


_TINY, _BIG, _TOP = 5e-324, np.finfo(np.float64).max, 2.0**1023
# value, every output natural rounding may give it.  2**1024 is not a float,
# so entries from 2**1023 up round down to it.
NATURAL_EDGES = [
    (0.0, [0.0]), (-0.0, [-0.0]),
    (_TINY, [_TINY]), (-_TINY, [-_TINY]),
    (3 * _TINY, [2 * _TINY, 4 * _TINY]),
    (-0.75 * 2.0**-1022, [-0.5 * 2.0**-1022, -(2.0**-1022)]),
    (2.0**-1022, [2.0**-1022]), (1.0, [1.0]), (-0.25, [-0.25]),
    (_TOP, [_TOP]), (-_TOP, [-_TOP]),
    (1.5 * _TOP, [_TOP]), (_BIG, [_TOP]), (-_BIG, [-_TOP]),
]


class TestNatural:
    def test_exact_powers_and_zero_deterministic(self):
        x = DenseVector([1.0, 0.0, 0.25, -8.0, 2.0**-20])
        for seed in range(5):
            out = decompress(compress(x, CompressorSpec("natural"), seed)).values
            np.testing.assert_array_equal(out, x.values)

    def test_three_rounds_to_two_or_four(self):
        # p(3) = (4 - 3) / 2 = 0.5; expectation 0.5*2 + 0.5*4 = 3
        x = DenseVector(np.full(20_000, 3.0))
        out = decompress(compress(x, CompressorSpec("natural"), seed=11)).values
        assert set(np.unique(out)) == {2.0, 4.0}
        frac_low = np.mean(out == 2.0)
        assert abs(frac_low - 0.5) < 3 * 0.5 / np.sqrt(out.size)
        assert abs(out.mean() - 3.0) < 3 * 1.0 / np.sqrt(out.size)

    def test_negative_values_keep_sign(self):
        out = decompress(
            compress(DenseVector([-3.0] * 1000), CompressorSpec("natural"), seed=2)).values
        assert set(np.unique(out)) == {-4.0, -2.0}

    def test_unbiasedness_identity_across_binades(self, natural_bounds):
        rng = np.random.default_rng(8)
        mags = np.exp2(rng.uniform(-15, 15, size=5000))
        lower, upper, p = natural_bounds(mags)
        np.testing.assert_allclose(p * lower + (1 - p) * upper, mags, rtol=1e-12)
        assert np.all(lower <= mags) and np.all(mags <= upper)

    @pytest.mark.filterwarnings("error")
    def test_edge_values_round_without_overflow(self, natural_bounds):
        values = np.array([value for value, _ in NATURAL_EDGES])
        lower, upper, _ = natural_bounds(values)
        below_top = np.abs(values) < _TOP
        assert np.all(np.abs(lower) <= np.abs(values))
        assert np.all(np.abs(values[below_top]) <= np.abs(upper[below_top]))
        np.testing.assert_array_equal(upper[~below_top], lower[~below_top])
        for seed in range(20):
            out = decompress(compress(DenseVector(values), CompressorSpec("natural"), seed)).values
            for got, (value, allowed) in zip(out, NATURAL_EDGES):
                assert bits_of(got) in {bits_of(a) for a in allowed}, value
            summed = np.zeros(values.size)
            add_decompressed(summed, CompressorSpec("natural"), values[None], iter([seed]))
            np.testing.assert_array_equal(summed, out)

    @pytest.mark.filterwarnings("error")
    def test_rounding_keeps_the_bound_its_draw_picks(self, natural_bounds):
        # The edge values, then random ones of either sign across the exponent range.
        rng = np.random.default_rng(13)
        size = 50_000
        spread = rng.choice([-1.0, 1.0], size) * np.ldexp(rng.uniform(0.5, 1.0, size),
                                                          rng.integers(-1073, 1025, size))
        values = np.concatenate([[value for value, _ in NATURAL_EDGES], spread])
        lower, upper, p = natural_bounds(values)
        for seed in range(20):
            u = np.random.default_rng(seed).random(values.size)
            assert bits_of(natural_round(values, seed)) == bits_of(np.where(u < p, lower, upper))

    def test_bits_are_nine_per_scalar(self):
        x = DenseVector(np.linspace(0.1, 5.0, 17))
        msg = compress(x, CompressorSpec("natural"), seed=0)
        assert msg.bits == 9 * 17
        assert omega_inf(CompressorSpec("natural"), 17) == Fraction(32, 9)


class TestRankR:
    def test_rank_one_exact_recovery(self):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal(8), rng.standard_normal(5)
        mat = np.outer(u, v)
        x = DenseVector(mat.reshape(-1))
        out = decompress(compress(x, CompressorSpec("rank_r", r=1), rows=8, cols=5)).values
        np.testing.assert_allclose(out, x.values, rtol=1e-9, atol=1e-9 * np.abs(mat).max())

    def test_zero_matrix_roundtrip(self):
        x = DenseVector(np.zeros(12))
        for r in (1, 2, 3):
            out = decompress(compress(x, CompressorSpec("rank_r", r=r), rows=4, cols=3)).values
            np.testing.assert_array_equal(out, np.zeros(12))

    def test_bits_and_omega(self):
        x = DenseVector(np.random.default_rng(0).standard_normal(10_000))
        msg = compress(x, CompressorSpec("rank_r", r=1), rows=100, cols=100)
        assert msg.bits == 1 * 200 * 32
        assert omega_inf(CompressorSpec("rank_r", r=1), 10_000, rows=100, cols=100) == 50

    def test_default_shape_padding(self):
        assert default_matrix_shape(10) == (4, 3)
        x = DenseVector(np.arange(1.0, 11.0))
        msg = compress(x, CompressorSpec("rank_r", r=1))
        assert msg.payload["rows"] == 4 and msg.payload["cols"] == 3
        assert decompress(msg).d == 10

    def test_rank_out_of_range(self):
        x = DenseVector(np.ones(12))
        with pytest.raises(ParameterError):
            compress(x, CompressorSpec("rank_r", r=4), rows=4, cols=3)
        with pytest.raises(ParameterError):
            compress(x, CompressorSpec("rank_r", r=1), rows=3, cols=3)

    def test_deterministic_for_fixed_seed(self):
        x = DenseVector(np.random.default_rng(1).standard_normal(30))
        a = compress(x, CompressorSpec("rank_r", r=2))
        b = compress(x, CompressorSpec("rank_r", r=2))
        assert same_message(a, b)


class TestDecompress:
    def test_identity_bit_identical(self):
        x = DenseVector(np.random.default_rng(5).standard_normal(9))
        np.testing.assert_array_equal(
            decompress(compress(x, CompressorSpec("identity"))).values, x.values)

    def test_rand_k_seed_selecting_first_coordinate(self):
        x = DenseVector([6.0, 8.0])
        seed = next(
            s for s in range(100) if rand_k_indices(2, 1, s)[0] == 0
        )
        msg = compress(x, CompressorSpec("rand_k", k=1), seed)
        np.testing.assert_array_equal(decompress(msg).values, [12.0, 0.0])

    def test_malformed_payloads(self):
        with pytest.raises(DecodeError):
            decompress(CompressedMessage("top_k", {"values": np.ones(2), "indices": np.array([0, 5])}, 10, 3))
        with pytest.raises(DecodeError):
            decompress(CompressedMessage("top_k", {"values": np.ones(2), "indices": np.array([1, 1])}, 10, 3))
        with pytest.raises(DecodeError):
            decompress(CompressedMessage("rand_k", {"values": np.ones(2)}, 10, 3, seed=None))
        with pytest.raises(DecodeError):
            decompress(CompressedMessage("identity", {"values": np.ones(2)}, 10, 3))
        with pytest.raises(DecodeError):
            decompress(CompressedMessage("natural", {}, 10, 3))


class TestSpecAndRatios:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            CompressorSpec("bogus")
        with pytest.raises(ParameterError):
            CompressorSpec("rand_k")
        with pytest.raises(ParameterError):
            CompressorSpec("rank_r", r=0)

    def test_zeta_delta(self):
        assert CompressorSpec("rand_k", k=10).zeta(100) == 10.0
        assert CompressorSpec("top_k", k=4).delta(100) == 25.0
        assert CompressorSpec("identity").zeta(7) == 1.0
        with pytest.raises(ParameterError):
            CompressorSpec("top_k", k=4).zeta(100)

    def test_table_ratios(self):
        assert omega_inf(CompressorSpec("rand_k", k=10), 100) == 10
        assert omega_inf(CompressorSpec("natural"), 7) == Fraction(32, 9)
        assert omega_inf(CompressorSpec("identity"), 7) == 1

    def test_ratio_times_bits_is_total_bits(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = int(rng.integers(2, 200))
            b = int(rng.choice([16, 32, 64]))
            x = DenseVector(rng.standard_normal(d), bits_per_scalar=b)
            k = int(rng.integers(1, d + 1))
            cases = [
                (CompressorSpec("rand_k", k=k),
                 compress(x, CompressorSpec("rand_k", k=k), seed=3), {}),
                (CompressorSpec("top_k", k=k), compress(x, CompressorSpec("top_k", k=k)), {}),
                (CompressorSpec("natural"), compress(x, CompressorSpec("natural"), seed=3), {}),
            ]
            rows = int(rng.integers(1, 15))
            cols = int(rng.integers(1, 15))
            r = int(rng.integers(1, min(rows, cols) + 1))
            xm = DenseVector(rng.standard_normal(rows * cols), bits_per_scalar=b)
            cases.append(
                (
                    CompressorSpec("rank_r", r=r),
                    compress(xm, CompressorSpec("rank_r", r=r), rows=rows, cols=cols),
                    {"rows": rows, "cols": cols},
                )
            )
            for spec, msg, shape in cases:
                dd = msg.d
                ratio = omega_inf(spec, dd, b, **shape)
                assert ratio * msg.bits == dd * b
                assert message_bits(spec, dd, b, **shape) == msg.bits

    def test_rank_r_ratio_needs_exact_fill(self):
        with pytest.raises(ParameterError):
            omega_inf(CompressorSpec("rank_r", r=1), 10, rows=4, cols=3)

    def test_size_bound_in_compressive_regime(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(4, 128))
            b = 32
            x = DenseVector(rng.standard_normal(d), bits_per_scalar=b)
            k = int(rng.integers(1, d + 1))
            assert compress(x, CompressorSpec("rand_k", k=k), seed=1).bits <= d * b
            assert compress(x, CompressorSpec("natural"), seed=1).bits <= d * b
            if k * (b + index_bits(d)) <= d * b:
                assert compress(x, CompressorSpec("top_k", k=k)).bits <= d * b


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self):
        rng = np.random.default_rng(31)
        x = DenseVector(rng.standard_normal(24))
        pairs = [
            (compress(x, CompressorSpec("rand_k", k=5), seed=42),
             compress(x, CompressorSpec("rand_k", k=5), seed=42)),
            (compress(x, CompressorSpec("top_k", k=5)), compress(x, CompressorSpec("top_k", k=5))),
            (compress(x, CompressorSpec("natural"), seed=42),
             compress(x, CompressorSpec("natural"), seed=42)),
            (compress(x, CompressorSpec("rank_r", r=2), rows=6, cols=4),
             compress(x, CompressorSpec("rank_r", r=2), rows=6, cols=4)),
            (compress(x, CompressorSpec("identity")), compress(x, CompressorSpec("identity"))),
        ]
        for a, b in pairs:
            assert same_message(a, b)
        assert not same_message(compress(x, CompressorSpec("rand_k", k=5), seed=42),
                                compress(x, CompressorSpec("rand_k", k=5), seed=43))


def bits_of(a: np.ndarray) -> bytes:
    """Exact IEEE-754 contents, so -0.0 and 0.0 (and NaN payloads) differ."""
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def fused_specs(d):
    """Every operator at powers 1, d//2 and d (rank_r: 1 and the largest rank)."""
    yield CompressorSpec("identity")
    yield CompressorSpec("natural")
    for k in sorted({1, max(1, d // 2), d}):
        yield CompressorSpec("rand_k", k=k)
        yield CompressorSpec("top_k", k=k)
    for r in sorted({1, min(default_matrix_shape(d))}):
        yield CompressorSpec("rank_r", r=r)


class TestAddDecompressed:
    # d = 2, 6 and 17 reshape to the non-square 2x1, 3x2 and 5x4 for rank_r;
    # d = 1000 pads a 32x32 matrix.
    @pytest.mark.parametrize("d", [1, 2, 6, 17, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_equals_message_round_trip_bitwise(self, d, seed):
        rng = np.random.default_rng([d, seed])
        values = rng.standard_normal(d)
        base = rng.standard_normal(d)
        for spec in fused_specs(d):
            msg = compress(DenseVector(values), spec, seed)
            dense = decompress(msg).values
            out = np.zeros(d)
            assert add_decompressed(out, spec, values[None], iter([seed])) == msg.bits
            assert bits_of(out) == bits_of(dense), spec
            # The simulator's use: accumulate into a running sum.
            out = base.copy()
            add_decompressed(out, spec, values[None], iter([seed]))
            assert bits_of(out) == bits_of(base + dense), spec

    def test_top_k_ignores_seed(self):
        values = np.random.default_rng(4).standard_normal(50)
        spec = CompressorSpec("top_k", k=7)
        dense = decompress(compress(DenseVector(values), spec)).values
        for seed in (None, 0, 99):
            out = np.zeros(50)
            add_decompressed(out, spec, values[None], iter([seed]))
            assert bits_of(out) == bits_of(dense)

    @pytest.mark.parametrize("d", [1, 2, 17, 1000])
    def test_top_k_ties_match_stable_argsort_for_every_k(self, d):
        # Integer values in [-3, 3]: almost every boundary magnitude is tied.
        values = np.random.default_rng(d).integers(-3, 4, size=d).astype(np.float64)
        order = np.argsort(-np.abs(values), kind="stable")
        for k in range(1, d + 1):
            expected = np.sort(order[:k])
            np.testing.assert_array_equal(top_k_indices(values, k), expected)
            dense = np.zeros(d)
            dense[expected] = values[expected]
            out = np.zeros(d)
            add_decompressed(out, CompressorSpec("top_k", k=k), values[None], iter([None]))
            assert bits_of(out) == bits_of(dense), k
            np.testing.assert_array_equal(
                compress(DenseVector(values), CompressorSpec("top_k", k=k)).payload["indices"],
                expected)

    def test_invalid_power_and_missing_seed_rejected(self):
        out = np.zeros(4)
        rows = np.ones((2, 4))
        with pytest.raises(ParameterError):
            add_decompressed(out, CompressorSpec("top_k", k=5), rows, iter([None, None]))
        with pytest.raises(ParameterError):
            add_decompressed(out, CompressorSpec("rank_r", r=3), rows, iter([0, 1]))
        with pytest.raises(ParameterError):
            add_decompressed(out, CompressorSpec("rand_k", k=2), rows, iter([None, None]))
        assert not out.any()

    @pytest.mark.parametrize("d, m", [
        *itertools.product([1, 2, 6, 17, 1000], [1, 3, 130]),
        (70_000, 2),  # one row is more than a batch of values
    ])
    def test_round_equals_row_by_row_round_trips(self, d, m):
        # Rows cycle through Gaussian, all-zero (rank_r's dead columns) and
        # integer (tied top_k boundary) vectors.  d = 1000 with m = 130 pads
        # 1024-entry matrices, so rank_r works through three batches.
        rng = np.random.default_rng([d, m])
        rows = rng.standard_normal((m, d))
        rows[1::3] = 0.0
        rows[2::3] = rng.integers(-3, 4, size=rows[2::3].shape)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=m)]
        base = rng.standard_normal(d)
        for spec in fused_specs(d):
            want = base.copy()
            for row, seed in zip(rows, seeds):
                msg = compress(DenseVector(row), spec, seed)
                want += decompress(msg).values
            out = base.copy()
            assert add_decompressed(out, spec, rows, iter(seeds)) == msg.bits
            assert bits_of(out) == bits_of(want), spec

    @pytest.mark.parametrize("kind", ["rand_k", "natural", "rank_r"])
    def test_draws_one_seed_per_row_in_order(self, kind):
        spec = CompressorSpec(kind, k=3 if kind == "rand_k" else None,
                              r=1 if kind == "rank_r" else None)
        rows = np.random.default_rng(5).standard_normal((4, 9))
        seeds = iter([10, 11, 12, 13, 14])
        forward, backward = np.zeros(9), np.zeros(9)
        add_decompressed(forward, spec, rows, seeds)
        assert next(seeds) == 14
        # Rows reversed with their seeds reversed add the same messages.
        add_decompressed(backward, spec, rows[::-1], iter([13, 12, 11, 10]))
        np.testing.assert_allclose(forward, backward, rtol=1e-12, atol=1e-12)
