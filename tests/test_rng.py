"""dqmem._rng against numpy's ``default_rng(seed).uniform``, bit for bit.

Only these tests import numpy.random; dqmem draws the same stream without it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmem._rng import _LANES, _seeded, uniform

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
SEEDS = (st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1)
         | st.integers(2**64, 2**200))  # past 2**128 words are mixed in late
COUNTS = (st.sampled_from((1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1))
          | st.integers(0, 3 * _LANES))
BOUNDS = st.floats(-1e300, 1e300)
WIDTHS = st.floats(1e-300, 1e300) | st.just(0.0)


def numpy_uniform(seed, lo, hi, size):
    return np.random.default_rng(seed).uniform(lo, hi, size=size)


@given(seed=SEEDS, n=COUNTS, lo=BOUNDS, width=WIDTHS)
@settings(max_examples=150, deadline=None)
def test_uniform_is_default_rng_uniform_bit_for_bit(seed, n, lo, width):
    hi = lo + width
    ours = uniform(seed, lo, hi, n)
    assert ours.dtype == np.float64 and ours.shape == (n,)
    assert ours.tobytes() == numpy_uniform(seed, lo, hi, n).tobytes()


@given(seed=SEEDS, rows=st.integers(1, 700), k=st.integers(1, 64),
       lo=st.floats(0.0, 3.0), width=st.floats(1e-300, 4.0))
@settings(max_examples=60, deadline=None)
def test_reshaped_draws_are_a_sampled_block(seed, rows, k, lo, width):
    # capacity_estimate's (candidates, K) sample, filled row by row
    hi = lo + width
    ours = uniform(seed, lo, hi, rows * k).reshape(rows, k)
    assert ours.tobytes() == numpy_uniform(seed, lo, hi, (rows, k)).tobytes()


@pytest.mark.parametrize("seed", [*EDGE_SEEDS, 411, 2**64, 2**128, 3**100])
def test_seeded_state_is_pcg64s(seed):
    state = np.random.PCG64(seed).state["state"]
    assert _seeded(seed) == (state["state"], state["inc"])


# draws 0, 1, 2047, 2048 and 4096 (across the first two lane jumps) from
# numpy 2.4.6: the stream stays fixed if numpy's Generator code moves
PINNED = {
    0: ("1.910885061964363", "0.8093601412916109", "1.4352381808052852",
        "0.8340842277871257", "0.5352086523701677"),
    2**64 - 1: ("2.0400800368850796", "2.535935275687423", "1.1952501656134067",
                "1.1954377121580193", "2.342755312097741"),
    411: ("0.3513191378763103", "2.7012500133174226", "1.443701415392399",
          "1.5908785117279243", "0.1426181278216324"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_draws(seed):
    draws = uniform(seed, 0.0, 3.0, 4100)
    picked = [draws[i] for i in (0, 1, 2047, 2048, 4096)]
    assert tuple(map(repr, map(float, picked))) == PINNED[seed]


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        numpy_uniform(-1, 0.0, 1.0, 1)
    with pytest.raises(ValueError, match="non-negative"):
        uniform(-1, 0.0, 1.0, 1)
