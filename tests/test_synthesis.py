import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthbrain as sb

from conftest import sphere_labels


def test_zero_spread_gives_exact_shift_values():
    cfg = sb.ContrastConfig(mu_scale=0.0, sigma_scale=0.0)
    params = sb.sample_contrast_params(np.random.default_rng(0), (0, 1, 2, 3), cfg)
    for lab in (1, 2, 3):
        mu, sigma = params.table[lab]
        assert mu == cfg.mu_shift
        assert sigma == cfg.sigma_shift
    assert params.table[0] == (0.0, 0.0)


def test_sampling_deterministic_under_seed():
    labels = (0, 2, 3, 7)
    a = sb.sample_contrast_params(np.random.default_rng(99), labels)
    b = sb.sample_contrast_params(np.random.default_rng(99), labels)
    assert a.table == b.table


def test_mean_intensity_concentrates_around_shift():
    cfg = sb.ContrastConfig(mu_scale=0.1)
    rng = np.random.default_rng(0)
    draws = [sb.sample_contrast_params(rng, (0, 1), cfg).table[1][0] for _ in range(10_000)]
    assert abs(np.mean(draws) - 0.5) < 0.005
    assert abs(np.std(draws) - 0.1) < 0.005


def test_label_shift_biases_named_label():
    cfg = sb.ContrastConfig(mu_scale=0.0, label_shift={4: 0.25})
    params = sb.sample_contrast_params(np.random.default_rng(0), (0, 1, 4), cfg)
    assert params.table[4][0] == pytest.approx(params.table[1][0] + 0.25)


def test_single_label_prenormalized_is_constant():
    lm = sphere_labels(16, (6.0,))
    params = sb.ContrastParams({0: (0.0, 0.0), 1: (0.5, 0.0)})
    raw = sb.paint(lm, params, np.random.default_rng(0), normalize=False)
    fg = lm.data > 0
    assert np.all(raw.data[fg] == 0.5)
    assert np.all(raw.data[~fg] == 0.0)

    # normalization of a constant foreground collapses to zeros
    normed = sb.paint(lm, params, np.random.default_rng(0))
    assert not normed.data.any()


def test_two_label_noiseless_paint_is_binary():
    lm = sphere_labels(16, (7.0, 4.0))
    params = sb.ContrastParams({0: (0.0, 0.0), 1: (0.2, 0.0), 2: (0.9, 0.0)})
    out = sb.paint(lm, params, np.random.default_rng(0))
    assert set(np.unique(out.data[lm.data > 0])) == {0.0, 1.0}
    assert np.all(out.data[lm.data == 2] == 1.0)
    assert np.all(out.data[lm.data == 1] == 0.0)


def test_region_statistics_match_requested_params():
    lm = sphere_labels(48, (20.0, 14.0, 8.0))
    params = sb.ContrastParams({0: (0.0, 0.0), 1: (0.3, 0.02), 2: (0.6, 0.04), 3: (0.9, 0.01)})
    out = sb.paint(lm, params, np.random.default_rng(7), normalize=False)
    for lab, (mu, sigma) in params.table.items():
        if lab == 0:
            continue
        region = out.data[lm.data == lab]
        assert region.size > 1000
        assert abs(region.mean() - mu) < 4 * sigma / np.sqrt(region.size) + 1e-12
        assert abs(region.std() - sigma) < 0.15 * sigma + 1e-12


@settings(max_examples=15, deadline=None)
@given(st.permutations([1, 2, 3]))
def test_painting_commutes_with_label_renaming(perm):
    lm = sphere_labels(12, (5.0, 3.5, 2.0))
    table = {0: (0.0, 0.0), 1: (0.2, 0.01), 2: (0.5, 0.02), 3: (0.8, 0.03)}
    renamed = sb.LabelMap(
        np.array([0, *perm], dtype=lm.data.dtype)[lm.data], lm.spacing, lm.grid_to_world
    )
    moved = {0: (0.0, 0.0)}
    for old, new in zip((1, 2, 3), perm):
        moved[new] = table[old]
    a = sb.paint(lm, sb.ContrastParams(table), np.random.default_rng(3), normalize=False)
    b = sb.paint(renamed, sb.ContrastParams(moved), np.random.default_rng(3), normalize=False)
    # same geometry of regions, same parameters per region, same noise stream
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("normalize", [True, False])
def test_a_huge_label_costs_no_memory_in_proportion_to_its_value(normalize):
    small = sphere_labels(8, (3.0,))
    huge = sb.LabelMap(small.data * 2**24, small.spacing, small.grid_to_world)
    assert huge.label_set == (0, 2**24)
    table = {0: (0.0, 0.0), 1: (0.4, 0.05)}
    tracemalloc.start()
    try:
        a = sb.paint(huge, sb.ContrastParams({0: table[0], 2**24: table[1]}),
                     np.random.default_rng(1), normalize=normalize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a lookup table indexed by label value would hold 2**24 + 1 float64 (134 MB)
    assert peak < 1 << 20
    b = sb.paint(small, sb.ContrastParams(table), np.random.default_rng(1), normalize=normalize)
    assert a.data.tobytes() == b.data.tobytes()


def test_threads_painting_one_fresh_map_agree_with_a_sequential_run():
    def fresh():
        return sphere_labels(16, (7.0, 5.0, 2.5))

    params = sb.sample_contrast_params(np.random.default_rng(0), fresh().label_set)
    expected = [sb.paint(fresh(), params, np.random.default_rng(i)).data for i in range(16)]
    shared = fresh()  # its label set and index are built by whichever thread asks first
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda i: sb.paint(shared, params, np.random.default_rng(i)).data,
                                range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(expected, got):
        assert a.tobytes() == b.tobytes()


def test_missing_label_params_is_an_error():
    lm = sphere_labels(8, (3.0, 1.5))
    params = sb.ContrastParams({0: (0.0, 0.0), 1: (0.5, 0.1)})
    with pytest.raises(sb.MissingLabelParams, match="2") as info:
        sb.paint(lm, params, np.random.default_rng(0))
    assert str(info.value) == "no contrast parameters for labels [2]"
    assert info.value.labels == (2,)


def test_params_round_trip_json():
    params = sb.sample_contrast_params(np.random.default_rng(5), (0, 1, 2, 9))
    back = sb.ContrastParams.from_json(params.to_json())
    assert back.table == params.table


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        sb.ContrastParams({0: (0.0, 0.0), 1: (0.5, -0.1)})


def test_output_is_normalized_and_finite():
    lm = sphere_labels(24, (10.0, 6.0))
    rng = np.random.default_rng(1)
    params = sb.sample_contrast_params(rng, lm.label_set)
    out = sb.paint(lm, params, rng)
    assert np.isfinite(out.data).all()
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0
    assert np.all(out.data[lm.data == 0] == 0.0)
    assert out.data.max() == 1.0  # foreground spans the full range after rescale
