import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gradcomm.compression import (
    BATCH_VALUES,
    NATURAL_BATCH_VALUES,
    CompressedMessage,
    CompressorSpec,
    DenseVector,
    _floyd_subsets,
    _round_to_powers_of_two,
    add_decompressed,
    compress,
    decompress,
    default_matrix_shape,
    index_bits,
    message_bits,
    omega_inf,
    rand_k_indices,
    rank_r_expand,
    rank_r_factors,
    row_batches,
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
            add_decompressed(summed, CompressorSpec("natural"), values[None],
                             np.random.default_rng(seed))
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
            assert bits_of(_round_to_powers_of_two(values, u)) == bits_of(np.where(u < p, lower, upper))

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

    @pytest.mark.parametrize("indices", [[8.7, 9.2], [8.0, 9.0], [True, False]],
                             ids=["fractional", "whole-float", "bool"])
    def test_top_k_indices_must_be_integers(self, indices):
        msg = compress(DenseVector(np.arange(1.0, 11.0)), CompressorSpec("top_k", k=2))
        bad = dataclasses.replace(msg, payload={**msg.payload, "indices": np.array(indices)})
        with pytest.raises(DecodeError, match="integer"):
            decompress(bad)
        for dtype in (np.int32, np.uint64):
            good = dataclasses.replace(
                msg, payload={**msg.payload, "indices": msg.payload["indices"].astype(dtype)})
            assert decompress(good).values.tolist() == [0.0] * 8 + [9.0, 10.0]

    @pytest.mark.parametrize("field", ["p", "q"])
    def test_rank_r_factors_must_be_matrices(self, field):
        msg = compress(DenseVector(np.arange(1.0, 41.0)), CompressorSpec("rank_r", r=1), 0,
                       rows=8, cols=5)
        bad = dataclasses.replace(msg, payload={**msg.payload, field: msg.payload[field][:, 0]})
        with pytest.raises(DecodeError, match="shapes"):
            decompress(bad)

    @pytest.mark.parametrize("kind, field", [("top_k", "indices"), ("top_k", "values"),
                                             ("rand_k", "values")])
    def test_sparse_payload_arrays_must_be_vectors(self, kind, field):
        msg = compress(DenseVector(np.arange(1.0, 11.0)), CompressorSpec(kind, k=2), 0)
        bad = dataclasses.replace(
            msg, payload={**msg.payload, field: msg.payload[field].reshape(2, 1)})
        with pytest.raises(DecodeError, match="1-D"):
            decompress(bad)


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


SEEDED_SPECS = [CompressorSpec("rand_k", k=3), CompressorSpec("natural"),
                CompressorSpec("rank_r", r=1)]


class TestMessageSeeds:
    @pytest.mark.parametrize("spec", SEEDED_SPECS, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, np.random.default_rng(1)],
                             ids=["negative", "float", "str", "bool", "generator"])
    def test_seed_must_be_a_non_negative_int(self, spec, seed):
        with pytest.raises(ParameterError, match="integer seed"):
            compress(DenseVector(np.arange(1.0, 10.0)), spec, seed)

    @pytest.mark.parametrize("kind", ["rand_k", "natural"])
    def test_rand_k_and_natural_require_a_seed(self, kind):
        spec = CompressorSpec(kind, k=3 if kind == "rand_k" else None)
        with pytest.raises(ParameterError, match="integer seed"):
            compress(DenseVector(np.arange(1.0, 10.0)), spec)

    def test_rank_r_seed_defaults_to_zero_and_numpy_ints_pass(self):
        x = DenseVector(np.random.default_rng(2).standard_normal(30))
        spec = CompressorSpec("rank_r", r=2)
        assert same_message(compress(x, spec), compress(x, spec, 0))
        assert same_message(compress(x, spec, np.int64(7)), compress(x, spec, 7))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, np.random.default_rng(1)],
                             ids=["negative", "float", "str", "bool", "generator"])
    def test_decompress_refuses_a_rand_k_seed_that_is_not_an_int(self, seed):
        msg = CompressedMessage("rand_k", {"values": np.ones(2)}, 64, 5, seed=seed)
        with pytest.raises(DecodeError, match="seed"):
            decompress(msg)


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
            bits = add_decompressed(out, spec, values[None], np.random.default_rng(seed))
            assert bits == msg.bits
            assert bits_of(out) == bits_of(dense), spec
            # The simulator's use: accumulate into a running sum.
            out = base.copy()
            add_decompressed(out, spec, values[None], np.random.default_rng(seed))
            assert bits_of(out) == bits_of(base + dense), spec

    def test_top_k_ignores_seed(self):
        values = np.random.default_rng(4).standard_normal(50)
        spec = CompressorSpec("top_k", k=7)
        dense = decompress(compress(DenseVector(values), spec)).values
        for rng in (None, np.random.default_rng(0), np.random.default_rng(99)):
            out = np.zeros(50)
            add_decompressed(out, spec, values[None], rng)
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
            add_decompressed(out, CompressorSpec("top_k", k=k), values[None], None)
            assert bits_of(out) == bits_of(dense), k
            np.testing.assert_array_equal(
                compress(DenseVector(values), CompressorSpec("top_k", k=k)).payload["indices"],
                expected)

    def test_invalid_power_and_missing_seed_rejected(self):
        out = np.zeros(4)
        rows = np.ones((2, 4))
        with pytest.raises(ParameterError):
            add_decompressed(out, CompressorSpec("top_k", k=5), rows, None)
        with pytest.raises(ParameterError):
            add_decompressed(out, CompressorSpec("rank_r", r=3), rows, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            add_decompressed(out, CompressorSpec("rand_k", k=2), rows, None)
        assert not out.any()

    @pytest.mark.parametrize("kind", ["rand_k", "natural", "rank_r"])
    @pytest.mark.parametrize("rng", [None, 0, iter([None])], ids=["none", "int", "iterator"])
    def test_seeded_kinds_refuse_anything_but_a_generator(self, kind, rng):
        spec = CompressorSpec(kind, k=2 if kind == "rand_k" else None,
                              r=1 if kind == "rank_r" else None)
        out = np.full(4, 0.5)
        with pytest.raises(ParameterError, match="Generator"):
            add_decompressed(out, spec, np.ones((2, 4)), rng)
        assert bits_of(out) == bits_of(np.full(4, 0.5))

    @pytest.mark.parametrize("d, m", [
        *itertools.product([1, 2, 6, 17, 1000], [1, 3, 130]),
        (17, 4000),  # top_k: a batch of 3855 rows and one of 145
        (1000, 200),  # top_k: three batches of 65 rows and one of 5
        (70_000, 2),  # one row is more than a batch of values
    ])
    def test_round_equals_row_by_row_round_trips(self, d, m):
        # Rows cycle through Gaussian, all-zero (rank_r's dead columns) and
        # integer (tied top_k boundary) vectors, scaled by powers of ten from
        # 1e-8 to 1e8 so that any change in the order of a sum shows in its
        # bits.  d = 1000 with m = 130 pads 1024-entry matrices, so rank_r
        # works through three batches.  The reference adds one row's decoded
        # vector at a time, built from the per-row helpers and drawing from a
        # twin of the round's generator in row order;
        # test_equals_message_round_trip_bitwise ties a single-row call to the
        # message round trip.
        rng = np.random.default_rng([d, m])
        rows = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 9, (m, d))
        rows[1::3] = 0.0
        rows[2::3] = (rng.integers(-3, 4, size=rows[2::3].shape)
                      * 10.0 ** rng.integers(-8, 9, (rows[2::3].shape[0], 1)))
        base = rng.standard_normal(d)
        for i, spec in enumerate(fused_specs(d)):
            twin = np.random.default_rng([d, m, i])
            want = base.copy()
            for row in rows:
                if spec.kind == "identity":
                    want += row
                elif spec.kind == "natural":
                    want += _round_to_powers_of_two(row, twin.random(d))
                elif spec.kind == "rand_k":
                    idx = rand_k_indices(d, spec.k, twin)
                    want[idx] += row[idx] * (d / spec.k)
                elif spec.kind == "top_k":
                    idx = top_k_indices(row, spec.k)
                    want[idx] += row[idx]
                else:
                    p, q = rank_r_factors(row[None], spec.r, *default_matrix_shape(d), twin)
                    want += rank_r_expand(p, q, d)[0]
            out = base.copy()
            assert add_decompressed(out, spec, rows, np.random.default_rng([d, m, i])) == message_bits(spec, d)
            assert bits_of(out) == bits_of(want), spec

    @pytest.mark.parametrize("d, m", [
        (1000, 70),  # identity: a batch of 65 rows and one of 5
        (1, 130),  # one batch down a single column
        (17, 1),  # a one-row round
        (70_000, 2),  # one row is more than a batch of values
    ])
    def test_leaves_rows_untouched(self, d, m):
        # A nonzero ``out``, so a sum that wrote it into the first row would show.
        rng = np.random.default_rng([d, m])
        rows, base = rng.standard_normal((m, d)), rng.standard_normal(d)
        before = rows.tobytes()
        for i, spec in enumerate(fused_specs(d)):
            add_decompressed(base.copy(), spec, rows, np.random.default_rng(i))
            assert rows.tobytes() == before, spec

    @pytest.mark.parametrize("d", [1, 2, 17, 1000])
    def test_top_k_indices_of_stacked_rows_are_each_row_s_offset(self, d):
        # Integer rows, so most boundaries are tied, and zero rows, tied throughout.
        rows = np.random.default_rng(d).integers(-3, 4, size=(7, d)).astype(np.float64)
        rows[::3] = 0.0
        for k in sorted({1, min(2, d), max(1, d // 2), d}):
            expected = np.concatenate([
                np.sort(np.argsort(-np.abs(row), kind="stable")[:k]) + i * d
                for i, row in enumerate(rows)])
            np.testing.assert_array_equal(top_k_indices(rows, k), expected)

    @pytest.mark.parametrize("kind", ["rand_k", "natural", "rank_r"])
    def test_draws_one_seed_per_row_in_order(self, kind):
        # One round of m rows leaves its generator where m single-row calls
        # leave a twin, so the next round's draws continue from the same state.
        spec = CompressorSpec(kind, k=3 if kind == "rand_k" else None,
                              r=1 if kind == "rank_r" else None)
        rows = np.random.default_rng(5).standard_normal((4, 9))
        rng, twin = np.random.default_rng(10), np.random.default_rng(10)
        add_decompressed(np.zeros(9), spec, rows, rng)
        for row in rows:
            add_decompressed(np.zeros(9), spec, row[None], twin)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.bit_generator.state != np.random.default_rng(10).bit_generator.state


def floyd_oracle(d, k, rng):
    """Floyd's rule one bounded draw at a time: (the row in draw order, chained collisions).

    Draw t_j ~ U{0 .. d-k+j} and keep t_j, or d-k+j when t_j is already
    kept.  When 2k > d the rule picks the d-k values left out, and the row is
    the others in increasing order.  A chained collision is a t_j that no
    earlier draw equals but an earlier collision's d-k+i does.
    """
    if 2 * k > d:
        left_out, chained = floyd_oracle(d, d - k, rng)
        return sorted(set(range(d)) - set(left_out)), chained
    kept, drawn, row, chained = set(), set(), [], 0
    for j in range(k):
        t = int(rng.integers(0, d - k + j + 1))
        chained += t in kept and t not in drawn
        drawn.add(t)
        row.append(d - k + j if t in kept else t)
        kept.add(row[-1])
    return row, chained


class TestFloydDraw:
    # k = 1, k = d - 1 and k = d; 2k = d and 2k = d + 1, either side of the
    # left-out draw; d = 1; one row; d = 2**62 is past the packed sort keys
    # (d * k > 2**63), so its rows take the stable argsort.  The CHAINED
    # cases have collisions resolved through an earlier collision.
    CHAINED = [(6, 3, 300), (8, 4, 200), (10, 5, 300), (1000, 500, 4)]
    CASES = CHAINED + [(6, 5, 200), (10, 9, 300), (5, 3, 400), (7, 4, 100), (1000, 999, 4),
                       (6, 6, 30), (1, 1, 3), (2, 1, 40), (7, 1, 50), (50, 50, 10),
                       (1000, 10, 64), (17, 5, 1), (100_000, 1000, 1), (2**40, 3, 5),
                       (2**62, 3, 5)]

    @pytest.mark.parametrize("d, k, m", CASES)
    def test_stacked_draw_equals_sequential_floyd(self, d, k, m):
        rng, twin = np.random.default_rng([d, k, m]), np.random.default_rng([d, k, m])
        got = _floyd_subsets(d, k, m, rng)
        rows, chained = zip(*(floyd_oracle(d, k, twin) for _ in range(m)))
        np.testing.assert_array_equal(got, np.array(rows))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert sum(chained) > 0 or (d, k, m) not in self.CHAINED

    @pytest.mark.parametrize("d, k, m", CASES)
    def test_message_indices_are_one_sorted_row(self, d, k, m):
        for seed in range(3):
            row, _ = floyd_oracle(d, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(rand_k_indices(d, k, seed), sorted(row))

    # 20 000 stacked rows per case, two drawn directly and two from the
    # values left out; each bound is the 0.9999 quantile of chi-square with
    # C(d, k) - 1 degrees of freedom (9, 19, 9 and 14), fixed before the run.
    @pytest.mark.parametrize("d, k, bound",
                             [(5, 2, 33.72), (6, 3, 50.80), (5, 3, 33.72), (6, 4, 42.58)])
    def test_subset_frequencies_are_uniform(self, d, k, bound):
        n, subsets = 20_000, math.comb(d, k)
        rows = _floyd_subsets(d, k, n, np.random.default_rng([d, k]))
        _, counts = np.unique((1 << rows).sum(axis=1), return_counts=True)
        assert counts.size == subsets
        expected = n / subsets
        assert ((counts - expected) ** 2 / expected).sum() < bound

    @pytest.mark.parametrize("d, k", [(5, 0), (5, 6), (5, 2.0), (0, 0), (5.0, 2)])
    def test_message_indices_refuse_k_outside_one_to_d(self, d, k):
        with pytest.raises(ParameterError):
            rand_k_indices(d, k, 0)

    @pytest.mark.parametrize("d", [2**40, 2**62])
    def test_huge_dimension_takes_no_dimension_sized_memory(self, d):
        tracemalloc.start()
        try:
            idx = rand_k_indices(d, 3, 12345)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert idx.size == np.unique(idx).size == 3
        assert 0 <= idx.min() and idx.max() < d


class TestRowBatches:
    @pytest.mark.parametrize("limit, width", [
        (limit, width) for limit in (BATCH_VALUES, NATURAL_BATCH_VALUES)
        for width in (1, limit - 1, limit, limit + 1, 70_000)])
    def test_slices_cover_the_rows_in_whole_batches(self, limit, width):
        step = max(1, limit // width)
        for m in sorted({0, 1, step - 1, step, step + 1, 3 * step}):
            parts = list(row_batches(m, width, limit))
            if limit == BATCH_VALUES:  # the default budget
                assert parts == list(row_batches(m, width))
            covered = [i for part in parts for i in range(m)[part]]
            assert covered == list(range(m)), m  # in order, no overlap, no gap
            sizes = [len(range(m)[part]) for part in parts]
            assert all(size == step for size in sizes[:-1]), m
            assert sizes[-1:] != [0], m
            if width <= limit:
                assert max(sizes, default=0) * width <= limit, m
