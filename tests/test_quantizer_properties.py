"""Property test of the quantizer against its definition."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dmcam.apps import Quantizer


def _reference(thresholds, x):
    """Symbol = count of thresholds strictly below the value, one value at a time."""
    return np.array(
        [[sum(t < v for t in thresholds[f]) for f, v in enumerate(row)] for row in x],
        dtype=np.int64,
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    bits=st.integers(1, 3),
    samples=st.integers(1, 12),
    features=st.integers(1, 6),
    values=st.integers(1, 4),  # a few distinct values: duplicates and exact threshold hits
    constant=st.booleans(),
    queries=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_counts_thresholds_strictly_below(bits, samples, features, values, constant,
                                                 queries, seed):
    rng = np.random.default_rng(seed)
    train = rng.integers(0, values, (samples, features)).astype(np.float64)
    if constant:
        train[:, 0] = 1.5
    quantizer = Quantizer.fit(train, bits)
    # Train rows, the thresholds themselves and values around them.
    x = np.concatenate([
        train,
        quantizer.thresholds.T,
        rng.integers(-1, values + 1, (queries, features)) * 0.5,
    ])
    symbols = quantizer.apply(x)
    assert symbols.dtype == np.int64
    assert np.array_equal(symbols, _reference(quantizer.thresholds, x))
    assert symbols.min() >= 0 and symbols.max() < quantizer.levels
    if constant:
        assert not symbols[:, 0][x[:, 0] <= 1.5].any()
    single = quantizer.apply(x[0])
    assert single.shape == (features,) and np.array_equal(single, symbols[0])
