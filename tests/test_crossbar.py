import numpy as np
import pytest

from dmcam import crossbar
from dmcam.crossbar import Crossbar, monte_carlo
from dmcam.device import VariationParams, conduct, sample_variation
from dmcam.encoder import VoltageLadder


PAPER_SIGMAS = VariationParams(sigma_vth=0.054, sigma_r_rel=0.08, seed=3)


def _distances(dm, stored, query):
    table = np.asarray(dm.entries)
    return table[np.asarray(query)[None, :], np.asarray(stored)].sum(axis=1)


def test_golden_encoding_realized_through_device_model(golden_encoding, hamming_dm):
    # single-symbol cells, one stored row per symbol: every (search, store)
    # pair must reproduce its matrix entry as an exact unit multiple
    cb = Crossbar(golden_encoding, [[0], [1], [2], [3]])
    for s in range(4):
        units = np.asarray(cb.search([s]).row_currents) / cb.unit_current
        assert list(units) == list(hamming_dm.entries[s])


def test_search_identity_row_has_zero_current(hamming_compiled):
    cb = Crossbar(hamming_compiled.encoding, [[1, 2, 3, 0]])
    result = cb.search([1, 2, 3, 0])
    assert result.row_currents[0] == 0.0
    assert result.winner == 0


def test_single_cell_distance_two(hamming_compiled):
    cb = Crossbar(hamming_compiled.encoding, [[3]])
    result = cb.search([0])
    assert result.row_currents[0] / cb.unit_current == 2.0


@pytest.mark.parametrize(
    "compiled_fixture",
    ["hamming_compiled", "manhattan_compiled", "sq_euclid_compiled"],
)
@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_zero_variation_exactness_exhaustive(compiled_fixture, dims, request):
    """Row current over unit current equals the integer software distance,
    for every (stored vector, query vector) pair of the given width."""
    compiled = request.getfixturevalue(compiled_fixture)
    rng = np.random.default_rng(dims)
    # all stored vectors exhaustively; queries exhaustive up to dims 3,
    # sampled at dims 4 (additivity covers the rest)
    symbols = compiled.dm.m
    stored = np.array(np.meshgrid(*[range(symbols)] * dims)).T.reshape(-1, dims)
    cb = Crossbar(compiled.encoding, stored)
    if dims <= 3:
        queries = stored
    else:
        queries = rng.integers(0, symbols, (40, dims))
    table = np.asarray(compiled.dm.entries)
    for q in queries:
        units = np.asarray(cb.search(q).row_currents) / cb.unit_current
        expected = table[q[None, :], stored].sum(axis=1)
        assert np.array_equal(units, expected.astype(float))


def test_additivity_of_row_currents(hamming_compiled):
    rng = np.random.default_rng(11)
    stored = rng.integers(0, 4, (5, 6))
    query = rng.integers(0, 4, 6)
    full = np.asarray(Crossbar(hamming_compiled.encoding, stored).search(query).row_currents)
    parts = np.zeros_like(full)
    for d in range(6):
        cb = Crossbar(hamming_compiled.encoding, stored[:, [d]])
        parts += np.asarray(cb.search([query[d]]).row_currents)
    assert np.allclose(full, parts, rtol=0, atol=0)


def test_winner_invariant_under_common_scaling(hamming_compiled):
    rng = np.random.default_rng(12)
    stored = rng.integers(0, 4, (6, 8))
    query = rng.integers(0, 4, 8)
    currents = np.asarray(Crossbar(hamming_compiled.encoding, stored).search(query).row_currents)
    assert int(np.argmin(currents)) == int(np.argmin(currents * 3.5))


def test_tie_breaks_to_lowest_index(hamming_compiled):
    cb = Crossbar(hamming_compiled.encoding, [[2, 2], [2, 2], [2, 2]])
    assert cb.search([0, 0]).winner == 0


def test_knn_full_ordering_matches_software(hamming_compiled, hamming_dm):
    rng = np.random.default_rng(13)
    stored = rng.integers(0, 4, (8, 10))
    query = rng.integers(0, 4, 10)
    cb = Crossbar(hamming_compiled.encoding, stored)
    order = cb.knn(query, 8)
    dists = _distances(hamming_dm, stored, query)
    assert order == sorted(range(8), key=lambda r: (dists[r], r))
    assert cb.knn(query, 1)[0] == cb.search(query).winner


def test_knn_rejects_bad_count(hamming_compiled):
    cb = Crossbar(hamming_compiled.encoding, [[0], [1]])
    with pytest.raises(ValueError):
        cb.knn([0], 3)
    with pytest.raises(ValueError):
        cb.knn([0], 0)


def test_query_validation(hamming_compiled):
    cb = Crossbar(hamming_compiled.encoding, [[0, 1]])
    with pytest.raises(ValueError):
        cb.search([0])
    with pytest.raises(ValueError):
        cb.search([0, 4])


@pytest.mark.parametrize("bad", [[[0.7, 3.9]], [[True, False]]])
def test_non_integer_symbols_rejected(hamming_compiled, bad):
    with pytest.raises(ValueError, match="must be integers"):
        Crossbar(hamming_compiled.encoding, bad)
    cb = Crossbar(hamming_compiled.encoding, [[0, 3]])
    with pytest.raises(ValueError, match="must be integers"):
        cb.search(bad[0])
    with pytest.raises(ValueError, match="must be integers"):
        monte_carlo(hamming_compiled.encoding, [[0, 3]], bad, [0],
                    VariationParams(0.054, 0.08, seed=0), runs=1)


def test_row_currents_match_scalar_device_model(hamming_compiled):
    # Replays the array's per-row variation stream device by device and sums
    # scalar branch currents in Python order.
    rng = np.random.default_rng(21)
    stored = rng.integers(0, 4, (3, 5))
    cb = Crossbar(hamming_compiled.encoding, stored, variation=PAPER_SIGMAS)
    query = rng.integers(0, 4, 5)
    enc = hamming_compiled.encoding
    ladder = cb.ladder
    currents = np.asarray(cb.search(query).row_currents)
    stream = np.random.default_rng(PAPER_SIGMAS.seed)
    for row in range(3):
        nominal = [[ladder.vth_volts(r) for r in enc.vth_ranks[t]] for t in stored[row]]
        vth, res = sample_variation(np.array(nominal), ladder.resistance, PAPER_SIGMAS, stream)
        total = 0.0
        for dim in range(5):
            sym = int(query[dim])
            for br in range(enc.k):
                vgs = ladder.vgs_volts(enc.vgs_ranks[sym][br])
                vds = ladder.vds_volts(enc.vds_multiples[sym][br])
                total += float(conduct(vgs, vds, vth[dim, br], res[dim, br]))
        assert currents[row] == pytest.approx(total, rel=1e-12)


def test_seeded_variation_row_currents_golden(golden_encoding):
    # Values recorded before the per-row and whole-array samplers were merged:
    # a seed must keep drawing the same devices across versions.
    stored = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 2, 2]]
    cb = Crossbar(golden_encoding, stored, variation=VariationParams(0.054, 0.08, seed=3))
    result = cb.search([0, 1, 3, 2])
    assert result.row_currents.tolist() == [
        2.349559039861662e-07, 7.823461000760528e-07, 2.3143275005942717e-07,
    ]
    assert result.winner == 2


def test_seeded_row_currents_golden_with_one_sigma_zero(golden_encoding):
    # Recorded before the array kept its draws in buffers: a zero sigma keeps
    # the nominal thresholds, or the scalar resistance, and draws nothing.
    stored = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 2, 2]]
    query = [0, 1, 3, 2]
    vth_only = Crossbar(golden_encoding, stored, variation=VariationParams(0.2, 0.0, seed=3))
    found = vth_only.search(query)
    assert found.row_currents.tolist() == [
        3.5762786865234375e-07, 7.152557373046875e-07, 2.384185791015625e-07,
    ]
    assert found.winner == 2
    res_only = Crossbar(golden_encoding, stored, variation=VariationParams(0.0, 0.08, seed=3))
    found = res_only.search(query)
    assert found.row_currents.tolist() == [
        2.648563276780292e-07, 7.393828550732147e-07, 2.425766253821446e-07,
    ]
    assert found.winner == 2


def _resampled(encoding, stored, seed, params=PAPER_SIGMAS):
    cb = Crossbar(encoding, stored)
    cb.resample_variation(np.random.default_rng(seed), params)
    return cb


def test_resampling_reuses_no_stale_draw(hamming_compiled):
    rng = np.random.default_rng(15)
    stored = rng.integers(0, 4, (7, 12))
    queries = rng.integers(0, 4, (5, 12))
    enc = hamming_compiled.encoding
    fresh_a = _resampled(enc, stored, 1).row_currents(queries)
    fresh_b = _resampled(enc, stored, 2).row_currents(queries)
    assert not np.array_equal(fresh_a, fresh_b)
    cb = Crossbar(enc, stored, variation=PAPER_SIGMAS)
    for seed, fresh in ((1, fresh_a), (2, fresh_b), (1, fresh_a)):
        cb.resample_variation(np.random.default_rng(seed), PAPER_SIGMAS)
        assert np.array_equal(cb.row_currents(queries), fresh)
    # varied -> nominal -> each sigma alone -> both: each draw senses as a fresh array
    nominal = Crossbar(enc, stored).row_currents(queries)
    vth_only, res_only = VariationParams(0.12, 0.0), VariationParams(0.0, 0.08)
    for seed, params, fresh in (
        (0, VariationParams(0.0, 0.0), nominal),
        (3, vth_only, _resampled(enc, stored, 3, vth_only).row_currents(queries)),
        (4, res_only, _resampled(enc, stored, 4, res_only).row_currents(queries)),
        (1, PAPER_SIGMAS, fresh_a),
    ):
        cb.resample_variation(np.random.default_rng(seed), params)
        assert np.array_equal(cb.row_currents(queries), fresh)


def test_variation_determinism(hamming_compiled):
    stored = [[0, 1, 2], [3, 2, 1]]
    a = Crossbar(hamming_compiled.encoding, stored, variation=PAPER_SIGMAS)
    b = Crossbar(hamming_compiled.encoding, stored, variation=PAPER_SIGMAS)
    q = [1, 1, 1]
    found_a, found_b = a.search(q), b.search(q)
    assert found_a.row_currents.tolist() == found_b.row_currents.tolist()
    assert found_a.winner == found_b.winner


# -- Monte Carlo ---------------------------------------------------------------


def test_mc_zero_sigma_perfect_accuracy(hamming_compiled):
    stored = [[0, 0, 0], [3, 3, 3]]
    queries = [[0, 0, 0], [3, 3, 3]]
    result = monte_carlo(
        hamming_compiled.encoding, stored, queries, [0, 1],
        VariationParams(0.0, 0.0, seed=1), runs=5,
    )
    assert result.accuracy == 1.0


def test_mc_determinism_and_workers(hamming_compiled):
    stored = [[1, 1, 1, 1, 0], [1, 1, 1, 1, 1], [3, 3, 3, 0, 0]]
    queries = [[0, 0, 0, 0, 0]]
    kwargs = dict(
        encoding=hamming_compiled.encoding,
        stored=stored,
        queries=queries,
        expected_winners=[0],
        params=VariationParams(0.12, 0.08, seed=42),
        runs=50,
    )
    a = monte_carlo(**kwargs)
    b = monte_carlo(**kwargs)
    c = monte_carlo(**kwargs, workers=4)
    assert a.winners == b.winners == c.winners
    assert a.accuracy == b.accuracy == c.accuracy


def test_mc_csv_layout(hamming_compiled):
    result = monte_carlo(
        hamming_compiled.encoding, [[0], [3]], [[0]], [0],
        VariationParams(0.0, 0.0, seed=0), runs=2,
    )
    lines = result.to_csv().splitlines()
    assert lines[0] == "run,query,winner,expected,correct"
    assert lines[1] == "0,0,0,0,1"
    assert len(lines) == 3


def test_mc_validation(hamming_compiled):
    with pytest.raises(ValueError):
        monte_carlo(hamming_compiled.encoding, [[0]], [[0]], [0, 1],
                    VariationParams(0, 0, 0), runs=1)
    with pytest.raises(ValueError):
        monte_carlo(hamming_compiled.encoding, [[0]], [[0]], [0],
                    VariationParams(0, 0, 0), runs=0)


def test_mc_rejects_no_queries_and_impossible_winners(hamming_compiled):
    params = VariationParams(0.054, 0.08, seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        monte_carlo(hamming_compiled.encoding, [[0], [3]], [], [], params, runs=1)
    for winner in (2, -1):
        with pytest.raises(ValueError, match=r"expected winners must lie in \[0, 2\)"):
            monte_carlo(hamming_compiled.encoding, [[0], [3]], [[0]], [winner], params, runs=1)


def test_monte_carlo_winners_golden(golden_encoding):
    stored = [[1, 1, 1, 1, 0], [1, 1, 1, 1, 1], [3, 3, 3, 0, 0], [0, 1, 2, 3, 0]]
    queries = [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 1, 2, 3, 3]]
    result = monte_carlo(golden_encoding, stored, queries, [0, 1, 3],
                         VariationParams(0.12, 0.08, seed=42), runs=8)
    assert result.winners == (
        (3, 1, 3), (0, 1, 3), (3, 1, 3), (0, 0, 3),
        (3, 1, 3), (0, 0, 3), (0, 1, 3), (3, 1, 3),
    )
    assert result.accuracy == 0.75


def test_monte_carlo_chunking_golden(golden_encoding):
    # Recorded before runs were split into per-worker chunks: uneven chunks
    # and more workers than runs reproduce one worker's winners.
    stored = [[1, 1, 1, 1, 0], [1, 1, 1, 1, 1], [3, 3, 3, 0, 0], [0, 1, 2, 3, 0]]
    queries = [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 1, 2, 3, 3]]
    params = VariationParams(0.12, 0.08, seed=42)
    golden = (
        (3, 1, 3), (0, 1, 3), (3, 1, 3), (0, 0, 3), (3, 1, 3), (0, 0, 3), (0, 1, 3),
    )
    for runs, workers in ((7, 1), (7, 3), (3, 1), (3, 5)):
        result = monte_carlo(golden_encoding, stored, queries, [0, 1, 3], params,
                             runs=runs, workers=workers)
        assert result.winners == golden[:runs]


def test_monte_carlo_threads_bounded_by_runs(hamming_compiled, monkeypatch):
    started = []
    real_pool = crossbar.ThreadPoolExecutor

    def recording_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(crossbar, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(crossbar.os, "cpu_count", lambda: 64)
    kwargs = dict(encoding=hamming_compiled.encoding, stored=[[0, 1], [3, 2]],
                  queries=[[0, 1]], expected_winners=[0], params=PAPER_SIGMAS, runs=3)
    result = monte_carlo(**kwargs, workers=64)
    assert started == [3]
    assert result.winners == monte_carlo(**kwargs).winners
    monkeypatch.setattr(crossbar.os, "cpu_count", lambda: None)
    monte_carlo(**kwargs, workers=64)
    assert started == [3]  # an unknown cpu count runs one worker, in the calling thread


def test_saturating_ladder_rejected_at_zero_variation(hamming_compiled):
    # Unit current 1e-4 A is above isat, so every on-branch is capped and the
    # cell currents stop being unit multiples.
    ladder = VoltageLadder(unit_vds=10, resistance=1e5)
    with pytest.raises(ValueError, match="saturates"):
        Crossbar(hamming_compiled.encoding, [[0, 1]], ladder)


def test_batch_returns_one_answer_per_query(hamming_compiled, hamming_dm):
    rng = np.random.default_rng(14)
    stored = rng.integers(0, 4, (6, 9))
    queries = rng.integers(0, 4, (5, 9))
    for variation in (None, PAPER_SIGMAS):
        cb = Crossbar(hamming_compiled.encoding, stored, variation=variation)
        found, singles = cb.search(queries), [cb.search(q) for q in queries]
        assert found.row_currents.tolist() == [s.row_currents.tolist() for s in singles]
        assert found.winner == [s.winner for s in singles]
        assert cb.knn(queries, 4) == [cb.knn(q, 4) for q in queries]
        empty = cb.search(queries[:0])
        assert empty.row_currents.shape == (0, 6)
        assert empty.winner == []
        assert cb.knn(queries[:0], 4) == []
