"""Property tests of the quantizer against its definition and against numpy."""

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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    bits=st.integers(1, 3),
    samples=st.integers(1, 300),
    features=st.integers(1, 4),
    pool=st.lists(finite, min_size=1, max_size=6),  # a few values: duplicates
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
    pooled=st.booleans(),
    zeros=st.sampled_from([None, 0.0, -0.0, "mixed"]),
    constant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_thresholds_equal_numpy_linear_quantiles(bits, samples, features, pool, scale,
                                                     pooled, zeros, constant, seed):
    rng = np.random.default_rng(seed)
    if pooled:
        train = rng.choice(np.array(pool), (samples, features))
    else:
        train = rng.uniform(-1.0, 1.0, (samples, features)) * scale
    if zeros is not None:
        hit = rng.random((samples, features)) < 0.3
        signs = rng.choice([0.0, -0.0], hit.sum()) if zeros == "mixed" else zeros
        train[hit] = signs
    if constant:
        train[:, 0] = pool[0]
    levels = 1 << bits
    reference = np.quantile(train, np.arange(1, levels) / levels, axis=0).T
    thresholds = Quantizer.fit(train, bits).thresholds
    assert thresholds.shape == reference.shape and thresholds.dtype == np.float64
    # Bit for bit, except the sign of a zero in a column that holds both
    # -0.0 and +0.0: which of the equal zeros sits at an order-statistic
    # position is up to np.quantile's selection and to the sort.
    is_zero = train == 0
    negative = np.signbit(train)
    mixed = (is_zero & negative).any(axis=0) & (is_zero & ~negative).any(axis=0)
    assert np.array_equal(_bits(thresholds[~mixed]), _bits(reference[~mixed]))
    assert np.array_equal(_bits(thresholds[mixed] + 0.0), _bits(reference[mixed] + 0.0))
