import numpy as np
import pytest

from synthbrain.seeding import derive_seed, make_rng


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
