"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and the reported figures (accuracies, degradation deltas).
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import synthetic_digits_via_idx

from dmcam.apps import hdc_class_crossbar, hdc_evaluate, hdc_train, knn_classify, software_nearest
from dmcam.compiler import compile_dm
from dmcam.crossbar import Crossbar, monte_carlo
from dmcam.datasets import load_mnist
from dmcam.device import VariationParams
from dmcam.encoder import derive_encoding, verify_encoding
from dmcam.metric import DistanceMatrix, DistanceSpec, MetricKind, build_dm
from dmcam.solver import CurrentRange, brute_force_feasible, solve_fixed_k

CR012 = CurrentRange((0, 1, 2))
PAPER_VARIATION = dict(sigma_vth=0.054, sigma_r_rel=0.08)

# Minimal cell sizes for the built-in two-bit matrices with a contiguous
# current range covering the maximum entry. Derived with the brute-force
# oracle ahead of the build and re-checked against it below.
EXPECTED_MIN_K = {"hamming": 3, "manhattan": 3, "sq_euclidean": 4}


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s, limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded its runtime limit"


# -- discrimination instance used by criterion 6 ---------------------------------

HD56_STORED = [
    [1, 1, 1, 1, 1, 0, 0, 0, 0, 0],  # total distance 5 from the zero query
    [1, 1, 1, 1, 1, 1, 0, 0, 0, 0],  # total distance 6
    [3, 3, 3, 3, 0, 0, 0, 0, 0, 0],  # 8
    [2, 2, 2, 2, 2, 1, 1, 1, 0, 0],  # 8
    [3, 3, 3, 3, 3, 1, 1, 0, 0, 0],  # 12
    [2, 3, 1, 2, 3, 1, 2, 3, 1, 2],  # 14
]
HD56_QUERY = [0] * 10


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    """MNIST 1k/200 subset when the IDX files are on disk, otherwise the
    deterministic synthetic corpus routed through the same IDX loader."""
    root = os.environ.get("DMCAM_MNIST_DIR", "data/mnist")
    try:
        ds = load_mnist(root, train_size=1000, test_size=200, seed=20)
    except FileNotFoundError:
        ds = synthetic_digits_via_idx(
            tmp_path_factory.mktemp("idx"), n_train=1000, n_test=200, seed=20
        )
    print(f"\n[bench dataset: {ds.name}, {len(ds.train_x)} train / {len(ds.test_x)} test]")
    return ds


def test_criterion_1_golden_table(golden_encoding, hamming_dm):
    with criterion(1, "golden encoding table verifies against 2-bit Hamming", 1.0):
        report = verify_encoding(golden_encoding, hamming_dm)
        assert report.passed and report.checked == 16
        for s in range(4):
            for t in range(4):
                assert golden_encoding.cell_multiple(s, t) == hamming_dm.entries[s][t]


def test_criterion_2_minimal_k_reproduction(hamming_dm):
    with criterion(2, "minimal cell size for 2-bit Hamming is k=3", 10.0):
        result = compile_dm(hamming_dm, CR012, k_max=4)
        assert result.feasible and result.k == 3
        for k in (1, 2):
            assert not solve_fixed_k(hamming_dm, k, CR012).feasible
            assert brute_force_feasible(hamming_dm, k, CR012) is False
        assert brute_force_feasible(hamming_dm, 3, CR012) is True


def _compile_builtin(kind):
    dm = build_dm(DistanceSpec(kind, 2))
    cr = CurrentRange.covering(dm.max_entry)
    return compile_dm(dm, cr, k_max=6), cr


def test_criterion_3_round_trip_synthesis():
    with criterion(3, "compile/derive/verify round trip for all built-ins", 120.0):
        for kind in (MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.SQ_EUCLIDEAN):
            compiled, cr = _compile_builtin(kind)
            assert compiled.feasible
            enc = derive_encoding(compiled.assignment)
            report = verify_encoding(enc, compiled.dm)
            assert report.passed, (kind, report.mismatches)
            expected_k = EXPECTED_MIN_K[kind.value]
            assert compiled.k == expected_k, (kind, compiled.k)
            # oracle minimal k must coincide
            assert brute_force_feasible(compiled.dm, expected_k, cr) is True
            for smaller in range(1, expected_k):
                assert brute_force_feasible(compiled.dm, smaller, cr) is False
            print(f"  {kind.value}: min k = {compiled.k} (oracle agrees)")


def _random_dm(rng):
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    return DistanceMatrix(
        tuple(tuple(int(v) for v in row) for row in rng.integers(0, 4, (m, n)))
    )


def _oracle_equivalence_payload(n_matrices, seed):
    rng = np.random.default_rng(seed)
    verdicts = []
    matrices = [_random_dm(rng) for _ in range(n_matrices)]
    matrices += [build_dm(DistanceSpec(kind, 2)) for kind in
                 (MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.SQ_EUCLIDEAN)]
    for dm in matrices:
        for k in (1, 2, 3):
            csp = solve_fixed_k(dm, k, CR012).feasible
            oracle = brute_force_feasible(dm, k, CR012)
            assert csp == oracle, (dm.entries, k, csp, oracle)
            verdicts.append({"dm": list(map(list, dm.entries)), "k": k, "feasible": csp})
    return verdicts


def test_criterion_4_oracle_equivalence():
    with criterion(4, "CSP verdict equals brute-force verdict (100 random + built-ins)", 600.0):
        verdicts = _oracle_equivalence_payload(n_matrices=100, seed=20260808)
        assert len(verdicts) == 103 * 3
        print(f"  {len(verdicts)} verdict pairs, all equal")


def _zero_variation_payload(compiled, n_instances, seed):
    rng = np.random.default_rng(seed)
    table = np.asarray(compiled.dm.entries)
    winners = []
    for _ in range(n_instances):
        stored = rng.integers(0, compiled.dm.m, (8, 16))
        query = rng.integers(0, compiled.dm.m, 16)
        hw = Crossbar(compiled.encoding, stored).search(query).winner
        sw = software_nearest(compiled.dm, stored, query)
        assert hw == sw
        winners.append(hw)
    return winners


def test_criterion_5_zero_variation_exactness(
    hamming_compiled, manhattan_compiled, sq_euclid_compiled
):
    with criterion(5, "array winner equals software argmin, 1000/1000 per metric", 60.0):
        for compiled in (hamming_compiled, manhattan_compiled, sq_euclid_compiled):
            winners = _zero_variation_payload(compiled, n_instances=1000, seed=515)
            assert len(winners) == 1000


def _mc_accuracy(encoding, sigma_vth, sigma_r, runs, seed):
    params = VariationParams(sigma_vth, sigma_r, seed)
    result = monte_carlo(
        encoding, HD56_STORED, [HD56_QUERY], [0], params, runs
    )
    return result


def test_criterion_6_variation_study(hamming_compiled):
    with criterion(6, "variation study: reported accuracy and sigma sweep", 600.0):
        enc = hamming_compiled.encoding
        paper_point = _mc_accuracy(enc, 0.054, 0.08, runs=100, seed=66)
        print(f"  distance-5-vs-6 accuracy at paper sigmas (100 runs): "
              f"{paper_point.accuracy:.3f}")

        sweep = []
        for sigma_mv in (0, 27, 54, 108):
            sigma_r = 0.08 if sigma_mv else 0.0
            result = _mc_accuracy(enc, sigma_mv / 1000.0, sigma_r, runs=500, seed=67)
            sweep.append((sigma_mv, result.accuracy))
            print(f"  sigma_vth={sigma_mv:>3} mV: accuracy={result.accuracy:.3f} (500 runs)")
        assert sweep[0][1] == 1.0
        inversions = [
            b_acc - a_acc
            for (_, a_acc), (_, b_acc) in zip(sweep, sweep[1:])
            if b_acc > a_acc
        ]
        assert len(inversions) <= 1
        assert all(delta <= 0.02 for delta in inversions)


def _knn_payload(ds, compiled, dm, variation, test_size=None):
    sl = slice(None, test_size)
    return knn_classify(
        ds.train_x, ds.train_y, ds.test_x[sl], ds.test_y[sl],
        dm=dm, encoding=compiled.encoding, bits=2, kq=1, variation=variation,
    )


def test_criterion_7_knn_pipeline(bench_dataset, hamming_compiled, hamming_dm):
    with criterion(7, "1-NN pipeline: exact HW/SW match, bounded degradation", 900.0):
        ideal = _knn_payload(bench_dataset, hamming_compiled, hamming_dm, None)
        assert ideal.agreement == 1.0
        assert ideal.predictions_hw == ideal.predictions_sw  # 200/200
        print(f"  zero variation: hw==sw on {len(ideal.predictions_hw)}/200 queries, "
              f"accuracy {ideal.accuracy_hw:.3f}")

        noisy = _knn_payload(
            bench_dataset, hamming_compiled, hamming_dm,
            VariationParams(seed=77, **PAPER_VARIATION),
        )
        print(f"  paper sigmas: hw {noisy.accuracy_hw:.3f} vs sw {noisy.accuracy_sw:.3f} "
              f"(degradation {noisy.degradation_pp:.2f} pp)")
        assert noisy.degradation_pp <= 5.0


def _hdc_payload(ds, compiled_by_kind, dimension, epochs, seed, test_size=None):
    out = {}
    sl = slice(None, test_size)
    for kind, compiled in compiled_by_kind.items():
        model = hdc_train(ds, dimension=dimension, bits=2, epochs=epochs, seed=seed)
        cb = hdc_class_crossbar(model, compiled.encoding)
        report = hdc_evaluate(model, ds.test_x[sl], ds.test_y[sl], cb, compiled.dm)
        out[kind] = report
    return out


def test_criterion_8_hdc_pipeline(
    bench_dataset, hamming_compiled, manhattan_compiled, sq_euclid_compiled
):
    with criterion(8, "HDC pipeline: three metrics above 3x chance, HW==SW", 900.0):
        compiled_by_kind = {
            "hamming": hamming_compiled,
            "manhattan": manhattan_compiled,
            "sq_euclidean": sq_euclid_compiled,
        }
        reports = _hdc_payload(bench_dataset, compiled_by_kind, dimension=1024,
                               epochs=2, seed=88)
        chance = 1.0 / bench_dataset.class_count
        for kind, report in reports.items():
            print(f"  {kind}: hw accuracy {report.accuracy_hw:.3f} "
                  f"(sw {report.accuracy_sw:.3f}, agreement {report.agreement:.3f})")
            assert report.accuracy_hw > 3 * chance
            assert report.agreement == 1.0


def test_criterion_9_determinism(bench_dataset, hamming_compiled, hamming_dm):
    with criterion(9, "identical seeds give byte-identical data outputs", 900.0):
        def squash(payload):
            return json.dumps(payload, sort_keys=True).encode()

        # criterion 4 workload (reduced scale)
        a = squash(_oracle_equivalence_payload(n_matrices=10, seed=4242))
        b = squash(_oracle_equivalence_payload(n_matrices=10, seed=4242))
        assert a == b

        # criterion 5 workload
        a = squash(_zero_variation_payload(hamming_compiled, n_instances=50, seed=99))
        b = squash(_zero_variation_payload(hamming_compiled, n_instances=50, seed=99))
        assert a == b

        # criterion 6 workload
        a = _mc_accuracy(hamming_compiled.encoding, 0.054, 0.08, runs=50, seed=9).to_csv()
        b = _mc_accuracy(hamming_compiled.encoding, 0.054, 0.08, runs=50, seed=9).to_csv()
        assert a.encode() == b.encode()

        # criterion 7 workload
        variation = VariationParams(seed=5, **PAPER_VARIATION)
        a = squash(_knn_payload(bench_dataset, hamming_compiled, hamming_dm,
                                variation, test_size=40).to_dict())
        b = squash(_knn_payload(bench_dataset, hamming_compiled, hamming_dm,
                                variation, test_size=40).to_dict())
        assert a == b

        # criterion 8 workload
        kinds = {"hamming": hamming_compiled}
        a = squash({k: r.to_dict() for k, r in _hdc_payload(
            bench_dataset, kinds, 256, 1, seed=6, test_size=40).items()})
        b = squash({k: r.to_dict() for k, r in _hdc_payload(
            bench_dataset, kinds, 256, 1, seed=6, test_size=40).items()})
        assert a == b
