import hashlib
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
    # Draws the whole array's devices in one sample_variation call, the
    # sampler's own order (the array draws per block and per sigma pass), and
    # sums scalar branch currents in Python order.
    rng = np.random.default_rng(21)
    stored = rng.integers(0, 4, (3, 5))
    cb = Crossbar(hamming_compiled.encoding, stored, variation=PAPER_SIGMAS)
    query = rng.integers(0, 4, 5)
    enc = hamming_compiled.encoding
    ladder = cb.ladder
    currents = np.asarray(cb.search(query).row_currents)
    nominal = np.array([[[ladder.vth_volts(r) for r in enc.vth_ranks[t]] for t in row]
                        for row in stored])
    vth, res = sample_variation(nominal, ladder.resistance, PAPER_SIGMAS,
                                np.random.default_rng(PAPER_SIGMAS.seed))
    for row in range(3):
        total = 0.0
        for dim in range(5):
            sym = int(query[dim])
            for br in range(enc.k):
                vgs = ladder.vgs_volts(enc.vgs_ranks[sym][br])
                vds = ladder.vds_volts(enc.vds_multiples[sym][br])
                total += float(conduct(vgs, vds, vth[row, dim, br], res[row, dim, br]))
        assert currents[row] == pytest.approx(total, rel=1e-12)


def test_seeded_variation_row_currents_golden(golden_encoding):
    # The currents of the same array built nominal and redrawn with
    # resample_variation(default_rng(3), VariationParams(0.054, 0.08)), recorded
    # while the constructor still drew row by row.
    stored = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 2, 2]]
    cb = Crossbar(golden_encoding, stored, variation=VariationParams(0.054, 0.08, seed=3))
    result = cb.search([0, 1, 3, 2])
    assert result.row_currents.tolist() == [
        2.360910123120747e-07, 7.262283054345606e-07, 2.3143275005942717e-07,
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
    # The constructor draws the devices a redraw from default_rng(seed) draws,
    # on one block and on several, with both sigmas and with each alone.
    enc = hamming_compiled.encoding
    rng = np.random.default_rng(5)
    for stored, queries in ((rng.integers(0, 4, (6, 8)), rng.integers(0, 4, (3, 8))),
                            (rng.integers(0, 4, (100, 784)), rng.integers(0, 4, (3, 784)))):
        for params in (VariationParams(0.054, 0.08, seed=5), VariationParams(0.054, 0.0, seed=5),
                       VariationParams(0.0, 0.08, seed=5)):
            built = Crossbar(enc, stored, variation=params).row_currents(queries)
            redrawn = _resampled(enc, stored, params.seed, params).row_currents(queries)
            assert np.array_equal(built, redrawn)


# Each shape spans several blocks, a single block, or rows wider than one
# block. The digests were recorded with every constructor draw replaced by a
# nominal array redrawn from default_rng(seed), while the constructor still
# drew row by row.
VARIED_SHAPES = [(100, 784), (10, 10000), (37, 50), (2, 50000)]
VARIED_SIGMAS = [VariationParams(0.054, 0.08), VariationParams(0.054, 0.0),
                 VariationParams(0.0, 0.08)]
VARIED_GOLDEN = {
    ('hamming', 100, 784):
        "75d79d90b473b58884e016daaffcf40dfaa1ce5baee04a58f365dc3b51802c71",
    ('hamming', 10, 10000):
        "c6dc1e359af760336b8e5029ccdc2184da9d500b8340346a05d75adf73288351",
    ('hamming', 37, 50):
        "3c68748cdb7536b6447bc5e6e61a03506dcc0d15b8fd9561b32b2250bd2cd26b",
    ('hamming', 2, 50000):
        "16d46e065bc1a08539ad6344ab36f8b449215268eb2d03484cb938eeaa21dca5",
    ('sq_euclidean', 100, 784):
        "34b22e4134d09406f1800393035f83b82be89b7f8a314f0dd34b4506f0c95597",
    ('sq_euclidean', 10, 10000):
        "9092c70da603926af650e22ab3e11d5bfa57d274ac185fba18b0451ac87f3a37",
    ('sq_euclidean', 37, 50):
        "152f0fdafe799c8b5d67f2221984bc8438fb91da95c07b7faf8f30857896f014",
    ('sq_euclidean', 2, 50000):
        "721c6c509fae824dd8fe3151dcdd13b00dc251f0a121fc73bf5619b21dead820",
}


def _varied_blobs(compiled, rows, dims):
    rng = np.random.default_rng(rows * dims)
    stored = rng.integers(0, compiled.dm.n, (rows, dims))
    queries = rng.integers(0, compiled.dm.m, (3, dims))
    redrawn = Crossbar(compiled.encoding, stored)
    for seed, sigmas in enumerate(VARIED_SIGMAS):
        params = VariationParams(sigmas.sigma_vth, sigmas.sigma_r_rel, seed=seed)
        built = Crossbar(compiled.encoding, stored, variation=params)  # draws as a redraw from seed
        yield built.row_currents(queries).tobytes()
        yield built.row_currents(queries[1]).tobytes()
        built.resample_variation(np.random.default_rng(seed + 10), params)  # another seed
        yield built.row_currents(queries).tobytes()
        # the same redraw on an array whose last draw had other sigmas
        redrawn.resample_variation(np.random.default_rng(seed + 10), params)
        yield redrawn.row_currents(queries).tobytes()


@pytest.mark.parametrize("kind", ["hamming", "sq_euclidean"])
@pytest.mark.parametrize("rows, dims", VARIED_SHAPES)
def test_varied_row_currents_multi_block_golden(kind, rows, dims, request):
    compiled = request.getfixturevalue(
        {"hamming": "hamming_compiled", "sq_euclidean": "sq_euclid_compiled"}[kind])
    digest = hashlib.sha256()
    for blob in _varied_blobs(compiled, rows, dims):
        digest.update(blob)
    assert digest.hexdigest() == VARIED_GOLDEN[kind, rows, dims]


def test_varied_golden_shapes_cover_every_block_case(hamming_compiled, sq_euclid_compiled):
    for compiled in (hamming_compiled, sq_euclid_compiled):
        fits = [(crossbar.DEVICE_BLOCK // (dims * compiled.encoding.k), rows)
                for rows, dims in VARIED_SHAPES]
        assert any(1 <= per_block < rows for per_block, rows in fits)  # several blocks
        assert any(per_block >= rows for per_block, rows in fits)  # one block
        assert any(per_block == 0 for per_block, _ in fits)  # rows wider than a block

def test_concurrent_searches_of_one_varied_array(hamming_compiled):
    # Sensing buffers belong to each call, so concurrent searches of one
    # array (over several row blocks), from more threads than cores and with
    # frequent thread switches, must each get the serial currents.
    rng = np.random.default_rng(16)
    stored = rng.integers(0, 4, (60, 784))
    queries = rng.integers(0, 4, (6, 784))
    cb = Crossbar(hamming_compiled.encoding, stored, variation=PAPER_SIGMAS)
    serial = cb.row_currents(queries)
    workers = (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(cb.row_currents, queries) for _ in range(2 * workers)]
            found = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for currents in found:
        assert np.array_equal(currents, serial)


# Programs a varied array at the knn benchmark's shape (1000 x 784, k = 3),
# redraws it once and searches 20 queries.
_VARIED_KNN_SHAPE = """
import numpy as np
from dmcam.compiler import compile_dm
from dmcam.crossbar import Crossbar
from dmcam.device import VariationParams
from dmcam.metric import DistanceSpec, MetricKind, build_dm
encoding = compile_dm(build_dm(DistanceSpec(MetricKind.HAMMING, 2)), k_max=6).encoding
rng = np.random.default_rng(0)
params = VariationParams(0.054, 0.08, seed=1)
cb = Crossbar(encoding, rng.integers(0, 4, (1000, 784)), variation=params)
cb.resample_variation(rng, params)
cb.search(rng.integers(0, 4, (20, 784)))
"""


def test_varied_array_keeps_only_its_draws(peak_rss_mb):
    # The (vth, res) draws are 2 x 19 MB; whole-array nominal thresholds or
    # sensing buffers would add about 19 MB each (the current) and 2 MB (the mask).
    peak_mb = peak_rss_mb(_VARIED_KNN_SHAPE)
    assert peak_mb < 95, f"peak RSS {peak_mb:.0f} MB"


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


@pytest.mark.parametrize("ladder", [
    VoltageLadder(unit_vds=10, resistance=1e5),  # every on-branch at isat
    VoltageLadder(step=1e308),  # levels from rank 2 up are inf, so inf > inf turns a branch off
    VoltageLadder(vgs_base=1e16 - 2, vth_base=1e16, step=3),  # gate rank 2 rounds onto threshold 1
], ids=["saturating", "overflowing", "rounding"])
@pytest.mark.parametrize("variation", [None, PAPER_SIGMAS], ids=["nominal", "varied"])
def test_every_array_rejects_a_ladder_that_misses_its_encoding(hamming_compiled, ladder,
                                                                variation):
    with pytest.raises(ValueError, match="saturates or overflows"):
        Crossbar(hamming_compiled.encoding, [[0, 1], [3, 2]], ladder, variation)


def test_raising_redraw_leaves_the_array_nominal(hamming_compiled):
    # The redraw used to stop partway and keep a mix of new and old draws:
    # 342 infinite thresholds here, and currents that matched no array.
    rng = np.random.default_rng(16)
    stored = rng.integers(0, 4, (200, 8))
    queries = rng.integers(0, 4, (5, 8))
    enc = hamming_compiled.encoding
    cb = Crossbar(enc, stored, variation=VariationParams(0.05, 0.05))
    with pytest.raises(ValueError, match="sigma_vth"):
        cb.resample_variation(np.random.default_rng(1), VariationParams(1e308, 0.0))
    assert np.array_equal(cb.row_currents(queries), Crossbar(enc, stored).row_currents(queries))
    cb.resample_variation(np.random.default_rng(2), PAPER_SIGMAS)
    assert np.array_equal(cb.row_currents(queries),
                          _resampled(enc, stored, 2).row_currents(queries))


def test_zero_sigma_redraw_frees_the_draws(hamming_compiled):
    rng = np.random.default_rng(17)
    stored = rng.integers(0, 4, (200, 784))
    enc = hamming_compiled.encoding
    draw_bytes = 2 * stored.size * enc.k * 8  # one float64 vth and one res per device
    tracemalloc.start()
    try:
        cb = Crossbar(enc, stored, variation=PAPER_SIGMAS)
        held = tracemalloc.get_traced_memory()[0]
        cb.resample_variation(np.random.default_rng(0), VariationParams(0.0, 0.0))
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed >= draw_bytes


def test_batch_returns_one_answer_per_query(hamming_compiled, hamming_dm):
    rng = np.random.default_rng(14)
    stored = rng.integers(0, 4, (6, 9))
    queries = rng.integers(0, 4, (5, 9))
    many = rng.integers(0, 4, (2 * crossbar.QUERY_BLOCK + 3, 9))  # more than one block
    for variation in (None, PAPER_SIGMAS):
        cb = Crossbar(hamming_compiled.encoding, stored, variation=variation)
        for batch in (queries, many):
            found, singles = cb.search(batch), [cb.search(q) for q in batch]
            assert found.row_currents.tolist() == [s.row_currents.tolist() for s in singles]
            assert found.winner == [s.winner for s in singles]
            assert cb.knn(batch, 4) == [cb.knn(q, 4) for q in batch]
        empty = cb.search(queries[:0])
        assert empty.row_currents.shape == (0, 6)
        assert empty.winner == []
        assert cb.knn(queries[:0], 4) == []


@pytest.mark.parametrize("rows, dims", [(300, 97), (10, 4096)])  # knn's shape, hdc's shape
def test_entry_sums_hands_the_kernel_one_block_at_a_time(monkeypatch, rows, dims):
    rng = np.random.default_rng(rows)
    table = rng.integers(0, 5, (4, 4))
    stored = rng.integers(0, 4, (rows, dims)).astype(np.uint8)
    queries = rng.integers(0, 4, (2 * crossbar.QUERY_BLOCK + 3, dims)).astype(np.uint8)
    seen = []
    kernel = crossbar._masked_sums

    def spy(t, masked, other):
        seen.append((len(masked), len(other)))
        return kernel(t, masked, other)

    monkeypatch.setattr(crossbar, "_masked_sums", spy)
    sums = crossbar.entry_sums(table, stored, queries)
    # whichever operand gets the masks, the other one is the stored array
    per_call = [masked if other == rows else other for masked, other in seen]
    assert max(per_call) <= crossbar.QUERY_BLOCK
    assert sum(per_call) == len(queries)
    expected = table[queries[:, None, :], stored[None, :, :]].sum(axis=2)
    assert sums.dtype == np.float64
    assert np.array_equal(sums, expected)
