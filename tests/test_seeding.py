import math

import numpy as np
import pytest
from scipy import stats

from synthbrain.seeding import _PAIRS, _standard_normal, derive_seed, make_rng

from reference_impls import box_muller_normal


def test_derived_seeds_are_frozen_constants():
    # pinned so any change to the derivation scheme is caught loudly —
    # downstream reproducibility depends on these exact values
    assert derive_seed(7, "s1", 0) == 4557452043010065844
    assert derive_seed(7, "s1", 1) == 632985460766637530
    assert derive_seed(7, "s1", "deformation") == 5775293924356053255


def test_distinct_paths_do_not_collide():
    seeds = {
        derive_seed(a, b, c)
        for a in range(3)
        for b in ("x", "y", "xy")
        for c in range(5)
    }
    assert len(seeds) == 3 * 3 * 5


def test_int_and_str_parts_are_tagged_apart():
    assert derive_seed(1) != derive_seed("1")
    # "ab"+"c" must differ from "a"+"bc": lengths are part of the encoding
    assert derive_seed("ab", "c") != derive_seed("a", "bc")


def test_make_rng_reproducible():
    a = make_rng(42, "subject").random(5)
    b = make_rng(42, "subject").random(5)
    assert np.array_equal(a, b)


def test_rejects_unhashable_part_types():
    with pytest.raises(TypeError):
        derive_seed(1.5)


def test_integer_parts_span_the_signed_128_bit_integers():
    derive_seed(2 ** 127 - 1, "s", -(2 ** 127))
    for part in (2 ** 127, -(2 ** 127) - 1, 2 ** 200):
        with pytest.raises(ValueError, match=f"seed part {part} is outside the signed 128-bit"):
            derive_seed(7, "s", part)


# -- the per-voxel standard normal draw --------------------------------------------

_DRAWS = 1_000_000


@pytest.fixture(scope="module")
def draws():
    """About a million seeded draws, in float64 for the statistics."""
    z = _standard_normal(np.random.default_rng(20231), _DRAWS)
    assert z.dtype == np.float32 and z.shape == (_DRAWS,)
    return z.astype(np.float64)


def test_normal_draws_have_the_moments_of_a_standard_normal(draws):
    n = draws.size
    # each bound is 5 standard errors of the statistic under N(0, 1)
    assert abs(draws.mean()) < 5 / math.sqrt(n)
    assert abs(draws.std() - 1.0) < 5 / math.sqrt(2 * n)
    assert abs(stats.kurtosis(draws)) < 5 * math.sqrt(24 / n)
    assert abs(stats.skew(draws)) < 5 * math.sqrt(6 / n)


def test_normal_draws_pass_a_kolmogorov_smirnov_test(draws):
    # 1.95 / sqrt(n) is the statistic's 0.1% critical value
    assert stats.kstest(draws, "norm").statistic < 1.95 / math.sqrt(draws.size)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_normal_draws_beyond_k_sigma_are_a_binomial_count(draws, k):
    p = 2.0 * stats.norm.sf(k)
    n = draws.size
    count = int(np.count_nonzero(np.abs(draws) > k))
    assert abs(count - n * p) < 5 * math.sqrt(n * p * (1 - p))


def test_normal_draws_show_no_correlation(draws):
    # between the two halves (the two outputs of each uniform pair) and
    # between neighbours, in the values and in their squares
    half = draws.size // 2
    pairs = [(draws[:half], draws[half:2 * half]), (draws[:-1], draws[1:])]
    for a, b in pairs + [(a * a, b * b) for a, b in pairs]:
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(a.size)


def test_normal_draws_are_finite():
    for seed in range(8):
        assert np.isfinite(_standard_normal(np.random.default_rng(seed), 300_001)).all()


# up to one pass, a pass and one pair, and three passes and three pairs
@pytest.mark.parametrize("n", [0, 1, 2, 7, 2 * _PAIRS, 2 * _PAIRS + 1, 6 * _PAIRS + 5])
def test_normal_draws_replay_the_box_muller_formula(n):
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    got = _standard_normal(rng, n)
    assert got.dtype == np.float32 and got.shape == (n,)
    assert got.tobytes() == box_muller_normal(ref, n).tobytes()
    # the same share of the stream: 2 * ceil(n / 2) float32 uniforms
    assert rng.bit_generator.state == ref.bit_generator.state


def test_zero_normal_draws_leave_the_stream_untouched():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert _standard_normal(rng, 0).shape == (0,)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("n", [1, 5, 2 * _PAIRS + 1])
def test_an_odd_count_is_the_next_even_count_less_its_last_value(n):
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    odd, even = _standard_normal(a, n), _standard_normal(b, n + 1)
    assert odd.tobytes() == even[:n].tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_the_same_seed_gives_the_same_normal_bytes():
    a = _standard_normal(make_rng(5, "noise"), 10_001)
    b = _standard_normal(make_rng(5, "noise"), 10_001)
    c = _standard_normal(make_rng(6, "noise"), 10_001)
    assert a.tobytes() == b.tobytes() and a.tobytes() != c.tobytes()
