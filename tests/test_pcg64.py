"""The pure-Python draws of ``flow --random-starts`` against numpy, which
stays installed as their oracle: ``Uniform(seed).draw(-0.5, 0.5, dim)``, call
after call, is ``numpy.random.default_rng(seed).uniform(-0.5, 0.5, dim)``
bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallachflow._pcg64 import Uniform

# one 32-bit entropy word, the int32 and uint32 edges, two and four words,
# and more words than SeedSequence's pool of four
EDGE_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**100 + 7, 2**128 - 1, 2**200 + 3]


def _same_bits(seed: int, dim: int):
    """Ten starts of ``dim`` draws each, compared by their hex digits."""
    ours, rng = Uniform(seed), np.random.default_rng(seed)
    got = [[v.hex() for v in ours.draw(-0.5, 0.5, dim)] for _ in range(10)]
    want = [[v.hex() for v in rng.uniform(-0.5, 0.5, dim).tolist()] for _ in range(10)]
    assert got == want


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_match_numpy(seed, dim):
    _same_bits(seed, dim)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**128 - 1), st.sampled_from([2, 3]))
@example(2**32 + 1, 2)
def test_seeds_match_numpy(seed, dim):
    _same_bits(seed, dim)


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        Uniform(-1)
