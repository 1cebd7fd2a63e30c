import hashlib
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import spy_exact_sums
from dmcam import crossbar
from dmcam.crossbar import Crossbar, monte_carlo
from dmcam.device import DEFAULT_ISAT, VariationParams, conduct
from dmcam.encoder import VoltageEncoding, VoltageLadder


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
    # Reads the array's own drawn record, each device's gate rank and
    # resistance, and sums scalar branch currents in Python order, with each
    # query gate's rank counted among the encoding's distinct gate levels.
    rng = np.random.default_rng(21)
    stored = rng.integers(0, 4, (3, 5))
    cb = Crossbar(hamming_compiled.encoding, stored, variation=PAPER_SIGMAS)
    query = rng.integers(0, 4, 5)
    enc = hamming_compiled.encoding
    ladder = cb.ladder
    currents = np.asarray(cb.search(query).row_currents)
    rank, res = cb._rank, cb._res
    levels = {ladder.vgs_volts(r) for entry in enc.vgs_ranks for r in entry}
    for row in range(3):
        total = 0.0
        for dim in range(5):
            sym = int(query[dim])
            for br in range(enc.k):
                vgs = ladder.vgs_volts(enc.vgs_ranks[sym][br])
                gate = sum(level <= vgs for level in levels)
                vds = ladder.vds_volts(enc.vds_multiples[sym][br])
                total += float(conduct(gate, vds, rank[row, dim, br], res[row, dim, br]))
        assert currents[row] == pytest.approx(total, rel=1e-12)


def test_seeded_variation_row_currents_golden(golden_encoding):
    # The currents of the same array built nominal and redrawn with
    # resample_variation(default_rng(3), VariationParams(0.054, 0.08)), recorded
    # when devices were first drawn as gate ranks.
    stored = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 2, 2]]
    cb = Crossbar(golden_encoding, stored, variation=VariationParams(0.054, 0.08, seed=3))
    result = cb.search([0, 1, 3, 2])
    assert result.row_currents.tolist() == [
        2.4341659632945096e-07, 7.256644059037904e-07, 2.2528658036670858e-07,
    ]
    assert result.winner == 2


def test_seeded_row_currents_golden_with_one_sigma_zero(golden_encoding):
    # A zero sigma keeps the nominal gate ranks, or the scalar resistance, and
    # draws nothing. The sigma_R half was recorded before the array kept its
    # draws in buffers, the sigma_vth half when devices were first drawn as
    # gate ranks.
    stored = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 2, 2]]
    query = [0, 1, 3, 2]
    vth_only = Crossbar(golden_encoding, stored, variation=VariationParams(0.2, 0.0, seed=3))
    found = vth_only.search(query)
    assert found.row_currents.tolist() == [
        3.5762786865234375e-07, 7.152557373046875e-07, 3.5762786865234375e-07,
    ]
    assert found.winner == 0
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


@pytest.mark.parametrize("sigma", [0.054, 0.2, 1.0])
def test_drawn_ranks_follow_the_threshold_law(hamming_compiled, sigma):
    # Per (stored symbol, branch), the gate ranks of eight redraws against
    # Gaussian thresholds placed among the gate levels by np.searchsorted:
    # every rank's share within 5 binomial standard errors of the reference.
    enc, redraws = hamming_compiled.encoding, 8
    stored = np.random.default_rng(30).integers(0, enc.n, (250, 784))
    cb = Crossbar(enc, stored)
    ladder = cb.ladder
    levels = np.unique([ladder.vgs_volts(r) for entry in enc.vgs_ranks for r in entry])
    drawn = np.zeros((enc.n, enc.k, len(levels) + 1))
    rng = np.random.default_rng(31)
    for _ in range(redraws):
        cb.resample_variation(rng, VariationParams(sigma, 0.0))
        for t in range(enc.n):
            ranks = cb._rank[stored == t]  # (devices of symbol t, k)
            for i in range(enc.k):
                drawn[t, i] += np.bincount(ranks[:, i], minlength=len(levels) + 1)
    reference_rng = np.random.default_rng(32)
    moved = 0
    for t in range(enc.n):
        for i in range(enc.k):
            nominal = ladder.vth_volts(enc.vth_ranks[t][i])
            devices = int(drawn[t, i].sum())
            vth = reference_rng.normal(nominal, sigma, devices)
            reference = np.bincount(np.searchsorted(levels, vth, side="right"),
                                    minlength=len(levels) + 1)
            pooled = (drawn[t, i] + reference) / (2 * devices)
            error = np.sqrt(pooled * (1 - pooled) * 2 / devices)
            assert np.all(np.abs(drawn[t, i] - reference) / devices <= 5 * error), (t, i)
            moved += devices - drawn[t, i, np.searchsorted(levels, nominal, side="right")]
    assert moved > 0


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
# block. The digests were recorded when devices were first drawn as gate ranks.
VARIED_SHAPES = [(100, 784), (10, 10000), (37, 50), (2, 50000)]
VARIED_SIGMAS = [VariationParams(0.054, 0.08), VariationParams(0.054, 0.0),
                 VariationParams(0.0, 0.08)]
VARIED_GOLDEN = {
    ('hamming', 100, 784):
        "fe3432d713af17feeca22491b9f93454b10b2fb24055cc75d750d3e5fa6f8880",
    ('hamming', 10, 10000):
        "5cf246d8b2b4e01a7681d26f6dac895657108e1b06888f1c0581abb132959fe4",
    ('hamming', 37, 50):
        "cff6aa468e81137690e4141b17d0555ecb7b0170c9c93ea1f137553f153c94ca",
    ('hamming', 2, 50000):
        "2361d3b0fa186f980fd93eacdad33a6e6c6a89e121e8f5194f7919f97c10690c",
    ('sq_euclidean', 100, 784):
        "595d8c771f15401303e416835a9b6e492fd270e120ce59904d79aa9627b1c73b",
    ('sq_euclidean', 10, 10000):
        "249e384a15bfc093e5969f7cddafc8fefc052c4a93ee4c37ae450e545e9cd06f",
    ('sq_euclidean', 37, 50):
        "7c652380521609fa95c6f2b13e5c1243a0ec85f0df92b9ba5d7a119f243be19a",
    ('sq_euclidean', 2, 50000):
        "7dd052e526a5f24d819007f6654792e92779117d668d925252cdb7586f706fce",
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
    ranked = cb.knn(queries, 3)
    workers = (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(cb.row_currents, queries) for _ in range(2 * workers)]
            nearest = [pool.submit(cb.knn, queries, 3) for _ in range(2 * workers)]
            found = [future.result(timeout=60) for future in futures]
            found_knn = [future.result(timeout=60) for future in nearest]
    finally:
        sys.setswitchinterval(interval)
    for currents in found:
        assert np.array_equal(currents, serial)
    assert ranked == crossbar.smallest_k(serial, 3).tolist()
    assert all(rows == ranked for rows in found_knn)


def test_a_draw_that_can_reach_the_clamp_is_ranked_exactly(hamming_compiled):
    # At sigma_R = 50 % some resistances sit at the 1 % floor, where a 0.25 V
    # drain drives 2.4e-5 A, above DEFAULT_ISAT: the float32 bound does not hold.
    rng = np.random.default_rng(30)
    stored = rng.integers(0, 4, (40, 50))
    queries = rng.integers(0, 4, (3, 50))
    cb = Crossbar(hamming_compiled.encoding, stored, variation=VariationParams(0.054, 0.5, seed=4))
    assert cb._vds_by_symbol.max() / cb._res.min() >= DEFAULT_ISAT
    summed = spy_exact_sums(cb)
    assert cb.knn(queries, 3) == crossbar.smallest_k(cb.row_currents(queries), 3).tolist()
    assert summed[0] == (3, None)  # knn summed every row, not the candidates of a bound


def test_rows_past_the_bound_are_ranked_exactly(hamming_compiled):
    # 560000 x 3 devices a row: n x 2**-24 is above 0.1, so the bound is not used.
    stored = np.zeros((1, 560000), dtype=np.uint8)
    cb = Crossbar(hamming_compiled.encoding, stored, variation=VariationParams(0.0, 0.08, seed=5))
    summed = spy_exact_sums(cb)
    assert cb.knn(stored[0], 1) == [0]
    assert summed == [(1, None)]  # every row summed, not the candidates of a bound


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
    # The record is 2.4 MB of gate ranks and 19 MB of resistances. The peak
    # measured 64 MB (Python 3.11, numpy 2.4); the bound leaves 8 MB of
    # margin, less than one more float64 per device would add (a whole-array
    # threshold or current buffer, 19 MB each).
    peak_mb = peak_rss_mb(_VARIED_KNN_SHAPE)
    assert peak_mb < 72, f"peak RSS {peak_mb:.0f} MB"


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


@pytest.mark.parametrize("stored, queries, message", [
    ([0, 1, 2, 3], [[0, 1, 2, 3]], "stored must be a nonempty rows x dims matrix"),
    ([[0, 1, 2, 3], [3, 2, 1, 0]], [[0, 1, 2]], "query must have 4 symbols"),
], ids=["1-D stored", "short batch"])
def test_mc_refuses_malformed_inputs_before_building_an_array_or_pool(
        monkeypatch, hamming_compiled, stored, queries, message):
    built = []
    init = Crossbar.__init__

    def pool_spy(*args, **kwargs):
        built.append("pool")
        return ThreadPoolExecutor(*args, **kwargs)

    def init_spy(self, *args, **kwargs):
        built.append("array")
        init(self, *args, **kwargs)

    monkeypatch.setattr(crossbar, "ThreadPoolExecutor", pool_spy)
    monkeypatch.setattr(Crossbar, "__init__", init_spy)
    with pytest.raises(ValueError) as refused:
        monte_carlo(hamming_compiled.encoding, stored, queries, [0], PAPER_SIGMAS, runs=2, workers=2)
    assert str(refused.value) == message
    assert built == []


def test_monte_carlo_winners_golden(golden_encoding):
    stored = [[1, 1, 1, 1, 0], [1, 1, 1, 1, 1], [3, 3, 3, 0, 0], [0, 1, 2, 3, 0]]
    queries = [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 1, 2, 3, 3]]
    result = monte_carlo(golden_encoding, stored, queries, [0, 1, 3],
                         VariationParams(0.12, 0.08, seed=42), runs=8)
    assert result.winners == (
        (3, 1, 3), (3, 1, 3), (3, 1, 3), (3, 1, 3),
        (0, 1, 3), (3, 1, 3), (0, 0, 3), (3, 1, 3),
    )
    assert result.accuracy == 17 / 24


def test_monte_carlo_chunking_golden(golden_encoding):
    # Uneven chunks and more workers than runs reproduce one worker's
    # winners, those of test_monte_carlo_winners_golden.
    stored = [[1, 1, 1, 1, 0], [1, 1, 1, 1, 1], [3, 3, 3, 0, 0], [0, 1, 2, 3, 0]]
    queries = [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 1, 2, 3, 3]]
    params = VariationParams(0.12, 0.08, seed=42)
    golden = (
        (3, 1, 3), (3, 1, 3), (3, 1, 3), (3, 1, 3), (0, 1, 3), (3, 1, 3), (0, 0, 3),
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
    # 342 infinite thresholds here, and currents that matched no array. Here
    # every rank is drawn before the resistances overflow.
    rng = np.random.default_rng(16)
    stored = rng.integers(0, 4, (200, 8))
    queries = rng.integers(0, 4, (5, 8))
    enc = hamming_compiled.encoding
    cb = Crossbar(enc, stored, variation=VariationParams(0.05, 0.05))
    with pytest.raises(ValueError, match="sigma_r_rel"):
        cb.resample_variation(np.random.default_rng(1), VariationParams(0.2, 1e308))
    assert np.array_equal(cb.row_currents(queries), Crossbar(enc, stored).row_currents(queries))
    cb.resample_variation(np.random.default_rng(2), PAPER_SIGMAS)
    assert np.array_equal(cb.row_currents(queries),
                          _resampled(enc, stored, 2).row_currents(queries))


def _record_bytes_freed(encoding, stored, params) -> int:
    """Bytes that a zero-sigma redraw frees from an array drawn at params."""
    tracemalloc.start()
    try:
        cb = Crossbar(encoding, stored, variation=params)
        held = tracemalloc.get_traced_memory()[0]
        cb.resample_variation(np.random.default_rng(0), VariationParams(0.0, 0.0))
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_zero_sigma_redraw_frees_the_draws(hamming_compiled):
    # One uint8 gate rank and one float64 resistance per device: 9 bytes.
    stored = np.random.default_rng(17).integers(0, 4, (200, 784))
    devices = stored.size * hamming_compiled.encoding.k
    freed = _record_bytes_freed(hamming_compiled.encoding, stored, PAPER_SIGMAS)
    assert 9 * devices <= freed < 10 * devices


def test_record_at_zero_sigma_r_is_one_byte_per_device(hamming_compiled):
    # At sigma_R = 0 the resistance stays a scalar: only the gate ranks are held.
    stored = np.random.default_rng(17).integers(0, 4, (200, 784))
    devices = stored.size * hamming_compiled.encoding.k
    freed = _record_bytes_freed(hamming_compiled.encoding, stored, VariationParams(0.054, 0.0))
    assert devices <= freed < 2 * devices


def test_ranks_of_more_than_255_gate_levels_do_not_wrap():
    # 300 gate levels: ranks run to 300, so the record is uint16. A wrapped
    # rank would turn a branch of rank 256 or more on or off wrongly.
    count = 300
    enc = VoltageEncoding(1, [[t] for t in range(count)], [[s] for s in range(count)],
                          [[1]] * count)
    stored = np.arange(count)[:, None]
    queries = np.array([[0], [255], [256], [count - 1]])
    cb = Crossbar(enc, stored, variation=VariationParams(1e-3, 0.0, seed=1))
    assert cb._rank.dtype == np.uint16 and int(cb._rank.max()) == count
    assert np.array_equal(cb.row_currents(queries), Crossbar(enc, stored).row_currents(queries))


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
    seen, gathered = [], []
    kernel, gather = crossbar._masked_sums, crossbar._gathered

    def spy(table_at_other, masked):
        seen.append((len(masked), table_at_other.shape[1]))
        return kernel(table_at_other, masked)

    def gather_spy(t, other):
        gathered.append(len(other))
        return gather(t, other)

    monkeypatch.setattr(crossbar, "_masked_sums", spy)
    monkeypatch.setattr(crossbar, "_gathered", gather_spy)
    sums = crossbar.entry_sums(table, stored, queries)
    # whichever operand gets the masks, the other one is the stored array
    per_call = [masked if other == rows else other for masked, other in seen]
    assert max(per_call) <= crossbar.QUERY_BLOCK
    assert sum(per_call) == len(queries)
    assert gathered.count(rows) <= 1  # the stored array is gathered once per call at most
    expected = table[queries[:, None, :], stored[None, :, :]].sum(axis=2)
    assert sums.dtype == np.float64
    assert np.array_equal(sums, expected)


def test_varied_knn_ranks_a_large_batch_in_a_query_window(hamming_compiled):
    # 2048 queries of 784 symbols: gathering every query's gate ranks and drain
    # multiples at once takes about 60 MiB, one QUERY_BLOCK window about 2 MiB.
    rng = np.random.default_rng(34)
    stored = rng.integers(0, 4, (32, 784)).astype(np.uint8)
    queries = rng.integers(0, 4, (32 * crossbar.QUERY_BLOCK, 784)).astype(np.uint8)
    cb = Crossbar(hamming_compiled.encoding, stored, variation=PAPER_SIGMAS)
    tracemalloc.start()
    try:
        found = cb.knn(queries, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    blocks = range(0, len(queries), crossbar.QUERY_BLOCK)
    assert found == [row for s in blocks for row in cb.knn(queries[s:s + crossbar.QUERY_BLOCK], 3)]


def test_knn_and_its_twin_rank_at_most_one_query_block_a_call(monkeypatch, hamming_compiled,
                                                              hamming_dm):
    from dmcam import apps

    rng = np.random.default_rng(34)
    stored = rng.integers(0, 4, (40, 12)).astype(np.uint8)
    cb = Crossbar(hamming_compiled.encoding, stored, variation=PAPER_SIGMAS)
    bounded, distances = Crossbar._bounded_knn, apps.software_distances
    seen = []

    def bounded_spy(self, batch, kq):
        seen.append(len(batch))
        return bounded(self, batch, kq)

    def distances_spy(dm, stored_q, query_q):
        seen.append(len(np.atleast_2d(query_q)))
        return distances(dm, stored_q, query_q)

    for count in (0, 1, crossbar.QUERY_BLOCK, 3 * crossbar.QUERY_BLOCK + 5):
        queries = rng.integers(0, 4, (count, 12)).astype(np.uint8)
        expected_hw = [cb.knn(q, 2) for q in queries]
        expected_sw = [apps.software_knn_order(hamming_dm, stored, q, 2) for q in queries]
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Crossbar, "_bounded_knn", bounded_spy)
            patch.setattr(apps, "software_distances", distances_spy)
            assert cb.knn(queries, 2) == expected_hw
            assert apps.software_knn_order(hamming_dm, stored, queries, 2) == expected_sw
        assert seen and max(seen) <= crossbar.QUERY_BLOCK
        assert sum(seen) == 2 * count  # every query ranked once on each side
