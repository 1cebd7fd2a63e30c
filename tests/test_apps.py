import hashlib

import numpy as np
import pytest
from conftest import spy_exact_sums

from dmcam import apps
from dmcam.apps import (
    HDCModel,
    Quantizer,
    hdc_class_crossbar,
    hdc_evaluate,
    hdc_train,
    knn_classify,
    majority_label,
    software_distances,
    software_knn_order,
    software_nearest,
)
from dmcam.crossbar import QUERY_BLOCK, Crossbar
from dmcam.datasets import Dataset, synthetic_digits
from dmcam.device import VariationParams


# -- quantizer -----------------------------------------------------------------


def test_quantizer_uniform_feature_uses_quartiles():
    rng = np.random.default_rng(0)
    train = rng.uniform(0.0, 1.0, (20_000, 1))
    q = Quantizer.fit(train, bits=2)
    assert q.thresholds.shape == (1, 3)
    assert np.allclose(q.thresholds[0], [0.25, 0.5, 0.75], atol=0.02)
    symbols = q.apply(train)
    counts = np.bincount(symbols[:, 0], minlength=4) / len(train)
    assert np.allclose(counts, 0.25, atol=0.02)


def test_quantizer_constant_feature_all_zero():
    train = np.full((100, 3), 7.0)
    q = Quantizer.fit(train, bits=2)
    assert np.array_equal(q.apply(train), np.zeros((100, 3), dtype=int))


def test_quantizer_single_vector_and_shape_check():
    train = np.arange(40, dtype=float).reshape(10, 4)
    q = Quantizer.fit(train, bits=1)
    out = q.apply(train[0])
    assert out.shape == (4,)
    with pytest.raises(ValueError):
        q.apply(np.zeros(5))


def test_quantizer_rejects_non_finite_and_empty_training_data():
    train = np.arange(12, dtype=float).reshape(4, 3)
    for bad in (np.nan, np.inf, -np.inf):
        corrupt = train.copy()
        corrupt[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Quantizer.fit(corrupt, bits=2)
    for empty in (np.zeros((0, 3)), np.zeros((4, 0))):
        with pytest.raises(ValueError, match="empty"):
            Quantizer.fit(empty, bits=2)
    with pytest.raises(ValueError):
        Quantizer.fit(train[0], bits=2)


def _linear_quantiles(train, bits):
    levels = 1 << bits
    return np.quantile(train, np.arange(1, levels) / levels, axis=0).T


@pytest.mark.parametrize("block_values", [1, 90, 300])
def test_quantizer_fit_in_feature_blocks_equals_numpy(monkeypatch, block_values):
    # 30 samples: blocks of 1, 3 or 10 of the 17 features; with 3 and 10 the
    # last block is short
    train = np.random.default_rng(7).normal(size=(30, 17))
    monkeypatch.setattr(apps, "DEVICE_BLOCK", block_values)
    thresholds = Quantizer.fit(train, bits=2).thresholds
    assert np.array_equal(thresholds, _linear_quantiles(train, 2))
    assert thresholds.flags.f_contiguous


def test_quantizer_fit_spanning_default_blocks_equals_numpy():
    train = np.random.default_rng(8).uniform(-5.0, 5.0, (2000, 1100))  # 65 features a block
    assert np.array_equal(Quantizer.fit(train, bits=3).thresholds, _linear_quantiles(train, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantizer_non_finite_value_in_a_later_block_rejected(monkeypatch, bad):
    train = np.random.default_rng(9).normal(size=(10, 12))
    train[4, 11] = bad  # in the last of four 3-feature blocks
    monkeypatch.setattr(apps, "DEVICE_BLOCK", 30)
    with pytest.raises(ValueError, match="training data must be finite"):
        Quantizer.fit(train, bits=2)


# -- software twins -------------------------------------------------------------


def test_software_distances_direct(hamming_dm):
    stored = np.array([[0, 0], [3, 3], [1, 2]])
    query = np.array([0, 0])
    dists = software_distances(hamming_dm, stored, query)
    assert list(dists) == [0, 4, 2]
    assert software_nearest(hamming_dm, stored, query) == 0


def test_software_distances_rejects_non_integer_symbols(hamming_dm):
    with pytest.raises(ValueError, match="must be integers"):
        software_distances(hamming_dm, [[0.7, 3.9]], [2, 1])
    with pytest.raises(ValueError, match="must be integers"):
        software_distances(hamming_dm, [[0, 3]], [2.5, 1.2])
    with pytest.raises(ValueError, match="must be integers"):
        software_distances(hamming_dm, [[True, False]], [1, 0])


def test_software_knn_order_tie_break(hamming_dm):
    stored = np.array([[1], [0], [1]])
    query = np.array([1])
    assert software_knn_order(hamming_dm, stored, query, 3) == [0, 2, 1]


def test_software_knn_order_rejects_kq_outside_rows(hamming_dm):
    stored = np.array([[1], [0], [1]])
    for kq in (0, -1, 4):
        for query in (np.array([1]), np.array([[1], [0]])):
            with pytest.raises(ValueError, match=r"kq must be in \[1, 3\]"):
                software_knn_order(hamming_dm, stored, query, kq)


def test_software_twins_take_a_batch(hamming_dm):
    stored = np.array([[0, 0], [3, 3], [1, 2]])
    queries = np.array([[0, 0], [3, 3], [1, 1]])
    dists = software_distances(hamming_dm, stored, queries)
    assert dists.tolist() == [[0, 4, 2], [4, 0, 2], [2, 2, 2]]
    assert software_nearest(hamming_dm, stored, queries) == [0, 1, 0]
    assert software_knn_order(hamming_dm, stored, queries, 2) == [[0, 2], [1, 2], [0, 1]]
    with pytest.raises(ValueError):
        software_distances(hamming_dm, np.array([[0, 4]]), queries)
    with pytest.raises(ValueError):  # a negative symbol must not wrap around
        software_distances(hamming_dm, stored, np.array([-1, 0]))


# (stored, query, the message Crossbar raises) on a 3 x 4 stored array, with one side malformed.
_STORED_3X4 = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 2, 2]]
_MALFORMED_INPUTS = {
    "empty query": (_STORED_3X4, [], "query must have 4 symbols"),
    "short query": (_STORED_3X4, [0, 1, 2], "query must have 4 symbols"),
    "short batch": (_STORED_3X4, [[0, 1, 2], [3, 2, 1]], "query must have 4 symbols"),
    "empty stored": ([], [0, 1, 2, 3], "stored must be a nonempty rows x dims matrix"),
    "zero-width stored": (np.zeros((3, 0), dtype=int), [0, 1, 2, 3],
                          "stored must be a nonempty rows x dims matrix"),
    "1-D stored": ([0, 1, 2, 3], [0, 1, 2, 3], "stored must be a nonempty rows x dims matrix"),
}
_SEARCH_ENTRY_POINTS = {
    "Crossbar.knn": lambda enc, dm, stored, query: Crossbar(enc, stored).knn(query, 1),
    "software_distances": lambda enc, dm, stored, query: software_distances(dm, stored, query),
    "software_nearest": lambda enc, dm, stored, query: software_nearest(dm, stored, query),
    "software_knn_order": lambda enc, dm, stored, query: software_knn_order(dm, stored, query, 1),
}


@pytest.mark.parametrize("entry", sorted(_SEARCH_ENTRY_POINTS))
@pytest.mark.parametrize("case", list(_MALFORMED_INPUTS))
def test_array_and_software_twins_refuse_malformed_inputs_alike(hamming_compiled, hamming_dm,
                                                                 case, entry):
    stored, query, message = _MALFORMED_INPUTS[case]
    with pytest.raises(ValueError) as refused:
        _SEARCH_ENTRY_POINTS[entry](hamming_compiled.encoding, hamming_dm, stored, query)
    assert str(refused.value) == message


def test_majority_label_rules():
    assert majority_label([1, 1, 2]) == 1
    # tie: the label whose neighbor appears first wins
    assert majority_label([2, 1, 1, 2]) == 2
    assert majority_label([5]) == 5


# -- knn pipeline ----------------------------------------------------------------


def _small_dataset(seed=0, n_train=80, n_test=25):
    return synthetic_digits(n_train=n_train, n_test=n_test, features=36, seed=seed)


def test_knn_zero_variation_matches_software(hamming_compiled, hamming_dm):
    ds = _small_dataset()
    report = knn_classify(
        ds.train_x, ds.train_y, ds.test_x, ds.test_y,
        dm=hamming_dm, encoding=hamming_compiled.encoding, bits=2, kq=1,
    )
    assert report.agreement == 1.0
    assert report.predictions_hw == report.predictions_sw
    assert report.degradation_pp == 0.0


def test_knn_query_equal_to_train_point(hamming_compiled, hamming_dm):
    ds = _small_dataset(seed=2)
    report = knn_classify(
        ds.train_x, ds.train_y, ds.train_x[:5], ds.train_y[:5],
        dm=hamming_dm, encoding=hamming_compiled.encoding, bits=2, kq=1,
    )
    # each query is one of the stored rows: distance zero to itself
    assert report.accuracy_hw == 1.0


def test_knn_majority_vote_kq3(hamming_compiled, hamming_dm):
    ds = _small_dataset(seed=3)
    report = knn_classify(
        ds.train_x, ds.train_y, ds.test_x, ds.test_y,
        dm=hamming_dm, encoding=hamming_compiled.encoding, bits=2, kq=3,
    )
    assert report.agreement == 1.0


def test_knn_with_variation_reports_delta(hamming_compiled, hamming_dm):
    ds = _small_dataset(seed=4)
    report = knn_classify(
        ds.train_x, ds.train_y, ds.test_x, ds.test_y,
        dm=hamming_dm, encoding=hamming_compiled.encoding, bits=2, kq=1,
        variation=VariationParams(0.054, 0.08, seed=9),
    )
    assert 0.0 <= report.accuracy_hw <= 1.0
    assert report.accuracy_sw >= 0.0


# -- hdc pipeline -----------------------------------------------------------------


def test_hdc_single_sample_classes_store_their_projection():
    x = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]])
    y = np.array([0, 1])
    ds = Dataset("toy", x, y, x, y)
    model = hdc_train(ds, dimension=64, bits=2, epochs=0, seed=5)
    projected = x @ model.projection.astype(np.float64)
    assert np.array_equal(model.class_vectors, projected)


@pytest.mark.parametrize("dimension", [1000, 2500, 10000])
def test_projection_equals_its_1024_column_blocks(dimension):
    # The formula of the benchmark's reference predictions, bit for bit.
    rng = np.random.default_rng(dimension)
    x = rng.uniform(0.0, 255.0, (40, 784))
    projection = (rng.integers(0, 2, (784, dimension)) * 2 - 1).astype(np.int8)
    reference = np.empty((len(x), dimension))
    for c in range(0, dimension, 1024):
        reference[:, c:c + 1024] = x @ projection[:, c:c + 1024].astype(np.float64)
    assert np.array_equal(apps._project(x, projection), reference)


@pytest.mark.parametrize("features, dimension, block_values", [
    (784, 10000, 1 << 20),  # blocks of 104 rows, the last of 56
    (64, 300, 1000),  # blocks of 3 rows, the last of 1
    (13, 70, 300),  # blocks of 4 rows, the last of 1
    (5, 64, 10),  # one row a block
])
def test_projection_drawn_in_row_blocks_equals_one_draw(monkeypatch, features, dimension,
                                                        block_values):
    x = np.random.default_rng(1).uniform(0.0, 255.0, (4, features))
    ds = Dataset("toy", x, np.array([0, 1, 0, 1]), x, np.array([0, 1, 0, 1]))
    monkeypatch.setattr(apps, "DEVICE_BLOCK", block_values)
    model = hdc_train(ds, dimension=dimension, bits=2, seed=3)
    draw = np.random.default_rng(3).integers(0, 2, (features, dimension))
    assert model.projection.dtype == np.int8
    assert np.array_equal(model.projection, draw * 2 - 1)


# Trains and encodes at the hdc benchmark's shape.
_HDC_TRAIN_AND_ENCODE = """
from dmcam.apps import hdc_train
from dmcam.datasets import synthetic_digits
ds = synthetic_digits(1000, 200, 784, seed=0)
model = hdc_train(ds, dimension=10000, bits=2, epochs=2, seed=0)
model.encode(ds.test_x)
"""


def test_hdc_train_and_encode_hold_no_full_size_copies(peak_rss_mb):
    # The projected training set (80 MB) is the one full-size float64 array:
    # a whole float64 projection, int64 draw or transposed fit copy would
    # each add about 63-80 MB.
    peak_mb = peak_rss_mb(_HDC_TRAIN_AND_ENCODE)
    assert peak_mb < 180, f"peak RSS {peak_mb:.0f} MB"


def test_hdc_train_and_encode_hold_only_small_block_temporaries(peak_rss_mb):
    # With the projected training set alive, the projection draw and the
    # quantizer fit take blocks of 2**16 values (0.5 MB). Blocks of 2**20
    # values (8 MB each) read 149 MB here; 2**16 reads 139 MB.
    peak_mb = peak_rss_mb(_HDC_TRAIN_AND_ENCODE)
    assert peak_mb < 144, f"peak RSS {peak_mb:.0f} MB"


def test_hdc_train_deterministic():
    ds = _small_dataset(seed=6)
    a = hdc_train(ds, dimension=128, bits=2, epochs=1, seed=7)
    b = hdc_train(ds, dimension=128, bits=2, epochs=1, seed=7)
    assert np.array_equal(a.projection, b.projection)
    assert np.array_equal(a.quantized_class_vectors, b.quantized_class_vectors)


def _model_digest(model):
    digest = hashlib.sha256()
    for array in (model.projection, model.class_vectors, model.quantized_class_vectors,
                  model.quantizer.thresholds):
        digest.update(str((array.dtype.str, array.shape)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# Recorded before the trainer was made incremental: projection, accumulation,
# correction epochs and quantizer must keep every float bit for bit.
HDC_TRAIN_GOLDEN = {
    (1, 0): "df2aebfe667f4eb4332edaa8e2014c6132836dac0d03a3284c7995146272458e",
    (1, 1): "3282afcf014540ddc75d2e485aea00057564120ccc6bb2e8a4233da84504b50e",
    (1, 2): "98c5eaec00091f87e2b33e405d4b90b059e60e5bf55d62d92fd8e6622c7822b6",
    (2, 0): "940fd6a1f00023b1f90eee12993710d341c5162c5184b297ce48ae3f773d7396",
    (2, 1): "14eda05d12dc588bfd22831e1bac845a61cc9bd7ca10b49eca136b61b0a99884",
    (2, 2): "4a933df07c90bb1b42446ea96f02e83266e84f7d3b6e1567ab3bdf662fc71feb",
}


@pytest.mark.parametrize("seed, epochs", sorted(HDC_TRAIN_GOLDEN))
def test_hdc_train_golden(seed, epochs):
    ds = synthetic_digits(n_train=300, n_test=10, features=64, seed=seed)
    model = hdc_train(ds, dimension=512, bits=2, epochs=epochs, seed=seed)
    assert _model_digest(model) == HDC_TRAIN_GOLDEN[seed, epochs]


def _per_sample_hdc_train(dataset, dimension, bits, epochs, seed):
    """Reference trainer: one GEMV per sample in every requested epoch.

    Unlike hdc_train it draws the projection in one call, projects with one
    whole GEMM and never stops early. Returns the model and the corrections
    made in each epoch.
    """
    rng = np.random.default_rng(seed)
    projection = rng.integers(0, 2, (dataset.feature_count, dimension)).astype(np.float64)
    projection = projection * 2 - 1
    projected = dataset.train_x @ projection
    quantizer = Quantizer.fit(projected, bits)
    class_vectors = np.zeros((dataset.class_count, dimension))
    for h, label in zip(projected, dataset.train_y):
        class_vectors[label] += h
    norms = np.linalg.norm(class_vectors, axis=1)
    corrections = []
    for _ in range(epochs):
        corrections.append(0)
        for h, label in zip(projected, dataset.train_y):
            scores = class_vectors @ h / np.maximum(norms, 1e-12)
            pred = int(np.argmax(scores))
            if pred != label:
                class_vectors[label] += 0.1 * h
                class_vectors[pred] -= 0.1 * h
                changed = [label, pred]
                norms[changed] = np.linalg.norm(class_vectors[changed], axis=1)
                corrections[-1] += 1
    centroids = class_vectors / np.bincount(dataset.train_y)[:, None]
    model = HDCModel(projection.astype(np.int8), class_vectors, quantizer.apply(centroids), quantizer)
    return model, tuple(corrections)


def _one_class_dataset():
    x = np.random.default_rng(11).uniform(0.0, 255.0, (60, 16))
    y = np.zeros(60, dtype=np.int64)
    return Dataset("one-class", x, y, x[:4], y[:4])


def _exact_tie_dataset():
    """A clean run of class 2, then one sample stored in classes 0 and 1 alike.

    Classes 0 and 1 accumulate the same vector, so the tied sample scores
    exactly equal on both: the lowest index wins, and every copy labelled 1
    is corrected.
    """
    rng = np.random.default_rng(12)
    clean = np.zeros((80, 16))
    clean[:, 8:] = rng.uniform(50.0, 255.0, (80, 8))
    tied = np.zeros((1, 16))
    tied[:, :8] = 200.0
    x = np.concatenate([clean, np.repeat(tied, 20, axis=0), clean[:40]])
    y = np.array([2] * 80 + [0, 1] * 10 + [2] * 40)
    return Dataset("exact-tie", x, y, x[:4], y[:4])


HDC_REFERENCE_DATASETS = {
    "clean": lambda: synthetic_digits(n_train=200, n_test=10, seed=5),
    "corrective-1": lambda: synthetic_digits(n_train=300, n_test=10, features=64, seed=1),
    "corrective-40": lambda: synthetic_digits(n_train=300, n_test=10, features=64, seed=40),
    "one-class": _one_class_dataset,
    "exact-tie": _exact_tie_dataset,
}


@pytest.mark.parametrize("dimension", [64, 512, 4096])
@pytest.mark.parametrize("name", sorted(HDC_REFERENCE_DATASETS))
def test_hdc_train_matches_per_sample_reference(name, dimension):
    ds = HDC_REFERENCE_DATASETS[name]()
    for seed in (0, 3):
        for epochs in (0, 1, 3):
            model = hdc_train(ds, dimension=dimension, bits=2, epochs=epochs, seed=seed)
            reference, corrections = _per_sample_hdc_train(ds, dimension, 2, epochs, seed)
            assert _model_digest(model) == _model_digest(reference)
            assert model.corrections == corrections


def test_hdc_early_exit_matches_every_epoch_run():
    # corrections die out after a few epochs here; the reference keeps
    # running every epoch and must count zeros where training stopped
    ds = synthetic_digits(n_train=200, n_test=10, features=64, seed=3, noise=0.3)
    model = hdc_train(ds, dimension=512, bits=2, epochs=6, seed=3)
    reference, corrections = _per_sample_hdc_train(ds, 512, 2, 6, 3)
    assert _model_digest(model) == _model_digest(reference)
    assert model.corrections == corrections
    assert corrections[0] > 0 and corrections[-1] == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_hdc_corrections_count_each_epoch(seed):
    ds = synthetic_digits(n_train=300, n_test=10, features=64, seed=seed)
    model = hdc_train(ds, dimension=512, bits=2, epochs=2, seed=seed)
    assert len(model.corrections) == 2
    assert sum(model.corrections) > 0
    assert hdc_train(ds, dimension=512, bits=2, epochs=0, seed=seed).corrections == ()


def test_hdc_corrections_stay_zero_after_a_clean_epoch():
    # each of these trainings corrects at first and has a clean epoch within six
    for seed, noise, dimension in ((0, 0.25, 512), (3, 0.25, 512), (3, 0.3, 512), (1, 0.15, 64)):
        ds = synthetic_digits(n_train=200, n_test=10, features=64, seed=seed, noise=noise)
        corrections = hdc_train(ds, dimension=dimension, bits=2, epochs=6, seed=seed).corrections
        assert len(corrections) == 6 and corrections[0] > 0
        first_clean = corrections.index(0)
        assert all(c == 0 for c in corrections[first_clean:])


def test_hdc_missing_class_rejected():
    x = np.zeros((3, 4))
    y = np.array([0, 0, 2])  # class 1 has no samples
    ds = Dataset("toy", x, y, x, y)
    with pytest.raises(ValueError):
        hdc_train(ds, dimension=16)


def test_hdc_stored_class_vector_maps_to_its_row(hamming_compiled):
    ds = _small_dataset(seed=8)
    model = hdc_train(ds, dimension=128, bits=2, seed=8)
    cb = hdc_class_crossbar(model, hamming_compiled.encoding)
    for row in range(len(model.class_vectors)):
        assert cb.search(model.quantized_class_vectors[row]).winner == row


def test_hdc_zero_variation_agreement(hamming_compiled, hamming_dm):
    ds = _small_dataset(seed=9)
    model = hdc_train(ds, dimension=256, bits=2, epochs=1, seed=9)
    cb = hdc_class_crossbar(model, hamming_compiled.encoding)
    report = hdc_evaluate(model, ds.test_x, ds.test_y, cb, hamming_dm)
    assert report.agreement == 1.0
    assert report.predictions_hw == report.predictions_sw
    assert len(report.predictions_hw) == len(ds.test_y)


def test_varied_hdc_sums_only_candidate_rows(hamming_compiled, hamming_dm):
    # A varied class array ranks through knn's float32 bound, as a varied knn does.
    ds = _small_dataset(seed=10)
    model = hdc_train(ds, dimension=256, bits=2, seed=10)
    cb = hdc_class_crossbar(model, hamming_compiled.encoding,
                            variation=VariationParams(0.054, 0.08, seed=3))
    summed = spy_exact_sums(cb)
    report = hdc_evaluate(model, ds.test_x, ds.test_y, cb, hamming_dm)
    assert summed and all(rows is not None for _, rows in summed)
    assert list(report.predictions_hw) == cb.search(model.encode(ds.test_x)).winner


@pytest.mark.parametrize("variation", [None, VariationParams(0.054, 0.08, seed=9)])
def test_pipelines_over_several_query_blocks_match_one_query_at_a_time(
        hamming_compiled, hamming_dm, variation):
    ds = _small_dataset(seed=12, n_test=QUERY_BLOCK + 6)
    enc, dm = hamming_compiled.encoding, hamming_dm
    quantizer = Quantizer.fit(ds.train_x, 2)
    stored, queries = quantizer.apply(ds.train_x), quantizer.apply(ds.test_x)
    cb = Crossbar(enc, stored, variation=variation)  # the array knn_classify programs
    report = knn_classify(ds.train_x, ds.train_y, ds.test_x, ds.test_y, dm=dm, encoding=enc,
                          bits=2, kq=3, variation=variation)
    assert report.predictions_hw == tuple(
        majority_label(ds.train_y[cb.knn(q, 3)].tolist()) for q in queries)
    assert report.predictions_sw == tuple(
        majority_label(ds.train_y[software_knn_order(dm, stored, q, 3)].tolist())
        for q in queries)
    if variation is None:
        assert report.predictions_hw == report.predictions_sw

    model = hdc_train(ds, dimension=256, bits=2, seed=12)
    cb = hdc_class_crossbar(model, enc, variation=variation)
    report = hdc_evaluate(model, ds.test_x, ds.test_y, cb, dm)
    queries = model.encode(ds.test_x)
    assert report.predictions_hw == tuple(cb.search(q).winner for q in queries)
    assert report.predictions_sw == tuple(
        software_nearest(dm, model.quantized_class_vectors, q) for q in queries)
    if variation is None:
        assert report.predictions_hw == report.predictions_sw


def _cosine_train_accuracy(model, ds):
    projected = ds.train_x @ model.projection.astype(np.float64)
    norms = np.linalg.norm(model.class_vectors, axis=1)
    scores = projected @ model.class_vectors.T / np.maximum(norms, 1e-12)
    return float((np.argmax(scores, axis=1) == ds.train_y).mean())


def test_hdc_retraining_trend_over_seeds():
    # extra epochs should not degrade the training fit; trend over 5 seeds
    deltas = []
    for seed in range(5):
        ds = synthetic_digits(n_train=200, n_test=20, features=64, seed=20 + seed)
        accs = []
        for epochs in (0, 2):
            model = hdc_train(ds, dimension=256, bits=2, epochs=epochs, seed=seed)
            accs.append(_cosine_train_accuracy(model, ds))
        assert accs[1] >= accs[0] - 0.02  # single-seed noise band
        deltas.append(accs[1] - accs[0])
    assert float(np.mean(deltas)) >= 0.0


def test_hdc_correction_updates_fire():
    ds = synthetic_digits(n_train=200, n_test=20, features=64, seed=40)
    plain = hdc_train(ds, dimension=256, bits=2, epochs=0, seed=1)
    refined = hdc_train(ds, dimension=256, bits=2, epochs=1, seed=1)
    assert not np.array_equal(plain.class_vectors, refined.class_vectors)


def test_quantized_vs_real_argmin_agreement_reported(hamming_dm):
    # measured, not asserted: how often the quantized nearest-centroid pick
    # matches the real-valued one
    ds = _small_dataset(seed=31)
    model = hdc_train(ds, dimension=256, bits=2, seed=31)
    projected = ds.test_x @ model.projection.astype(np.float64)
    centroids = model.class_vectors / np.bincount(ds.train_y)[:, None]
    agree = 0
    for x_p, x_q in zip(projected, model.encode(ds.test_x)):
        real_pick = int(np.argmin(((centroids - x_p) ** 2).sum(axis=1)))
        quant_pick = software_nearest(hamming_dm, model.quantized_class_vectors, x_q)
        agree += real_pick == quant_pick
    print(f"quantized-vs-real argmin agreement: {agree}/{len(projected)}")
