import pytest

from dmcam.metric import (
    DistanceMatrix,
    DistanceSpec,
    MetricKind,
    build_dm,
    dm_to_csv,
    load_custom_dm,
    parse_dm_csv,
)


def test_hamming_2bit_entry():
    dm = build_dm(DistanceSpec(MetricKind.HAMMING, 2))
    assert dm.entries[0b00][0b11] == 2  # search "00" vs store "11"
    assert dm.m == dm.n == 4


def test_manhattan_entry():
    dm = build_dm(DistanceSpec(MetricKind.MANHATTAN, 2))
    assert dm.entries[1][3] == 2


def test_sq_euclidean_entry():
    dm = build_dm(DistanceSpec(MetricKind.SQ_EUCLIDEAN, 2))
    assert dm.entries[0][3] == 9


@pytest.mark.parametrize("kind", [MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.SQ_EUCLIDEAN])
def test_diagonal_is_zero(kind):
    dm = build_dm(DistanceSpec(kind, 3))
    assert all(dm.entries[s][s] == 0 for s in range(dm.m))


@pytest.mark.parametrize("kind", [MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.SQ_EUCLIDEAN])
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_builtin_symmetry_exhaustive(kind, bits):
    dm = build_dm(DistanceSpec(kind, bits))
    assert dm.m == dm.n == 2**bits
    assert dm.entries == tuple(zip(*dm.entries))


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_entry_bounds(bits):
    top = (1 << bits) - 1
    assert build_dm(DistanceSpec(MetricKind.HAMMING, bits)).max_entry <= bits
    assert build_dm(DistanceSpec(MetricKind.MANHATTAN, bits)).max_entry == top
    assert build_dm(DistanceSpec(MetricKind.SQ_EUCLIDEAN, bits)).max_entry == top * top


def test_build_is_deterministic():
    spec = DistanceSpec(MetricKind.HAMMING, 3)
    assert build_dm(spec).entries == build_dm(spec).entries


def test_bits_limits():
    with pytest.raises(ValueError):
        DistanceSpec(MetricKind.HAMMING, 0)
    with pytest.raises(ValueError):
        build_dm(DistanceSpec(MetricKind.HAMMING, 9))


@pytest.mark.parametrize("bits", [True, 2.5])
def test_spec_rejects_non_integer_bits(bits):
    # True would build the 1-bit matrix, 2.5 would fail inside 1 << bits
    with pytest.raises(ValueError, match="bits must be an integer"):
        build_dm(DistanceSpec(MetricKind.HAMMING, bits))


def test_literal_hamming_grid_equals_builtin(tmp_path, hamming_dm):
    path = tmp_path / "dm.csv"
    path.write_text("0,1,1,2\n1,0,2,1\n1,2,0,1\n2,1,1,0\n")
    assert load_custom_dm(path) == hamming_dm


def test_csv_round_trip_matches_builtin(tmp_path, hamming_dm):
    path = tmp_path / "dm.csv"
    path.write_text(dm_to_csv(hamming_dm))
    assert load_custom_dm(path) == hamming_dm


def test_csv_single_cell(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0\n")
    dm = load_custom_dm(path)
    assert (dm.m, dm.n, dm.entries[0][0]) == (1, 1, 0)


def test_csv_header_comment_skipped():
    dm = parse_dm_csv("# search-by-store matrix\n0,1\n1,0\n")
    assert dm.entries == ((0, 1), (1, 0))


def test_csv_negative_entry_rejected():
    with pytest.raises(ValueError):
        parse_dm_csv("0,1\n-1,0\n")


def test_csv_ragged_rejected():
    with pytest.raises(ValueError):
        parse_dm_csv("0,1\n1\n")


def test_csv_empty_rejected():
    with pytest.raises(ValueError):
        parse_dm_csv("# only a comment\n")


def test_custom_matrix_may_be_asymmetric():
    dm = parse_dm_csv("0,5\n1,0\n")
    assert dm.entries != tuple(zip(*dm.entries))


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(((0, 1), (1,)))
    with pytest.raises(ValueError):
        DistanceMatrix(((0, -1), (1, 0)))
    with pytest.raises(ValueError):
        DistanceMatrix(())


def test_distance_matrix_rejects_non_integers():
    with pytest.raises(ValueError, match="must be an integer"):
        DistanceMatrix(((True, 0),))
    with pytest.raises(ValueError, match="must be an integer"):
        DistanceMatrix(((0.5, 0),))
