import json

import pytest

from dmcam.encoder import (
    DEFAULT_LADDER,
    VoltageEncoding,
    VoltageLadder,
    derive_encoding,
    encoding_table_csv,
    export_encoding,
    import_encoding,
    verify_encoding,
)
from dmcam.metric import DistanceMatrix
from dmcam.solver import GlobalAssignment, RowAssignment


# -- golden table --------------------------------------------------------------


def test_golden_encoding_verifies_against_hamming(golden_encoding, hamming_dm):
    report = verify_encoding(golden_encoding, hamming_dm)
    assert report.passed
    assert report.checked == 16
    assert report.mismatches == ()


def test_golden_encoding_structure(golden_encoding):
    # stored "11" sits on the middle threshold of every branch; search "11"
    # drives the middle gate everywhere and a double drain level on branch 3
    assert golden_encoding.vth_ranks[0b11] == (1, 1, 1)
    assert golden_encoding.vgs_ranks[0b11] == (1, 1, 1)
    assert golden_encoding.vds_multiples[0b11] == (1, 1, 2)


def test_golden_encoding_sample_currents(golden_encoding):
    # search "01" vs store "10": only branch 1 is on, at 2 units
    assert golden_encoding.cell_multiple(0b01, 0b10) == 2
    assert golden_encoding.cell_multiple(0b00, 0b11) == 2
    assert golden_encoding.cell_multiple(0b10, 0b10) == 0


def test_perturbed_golden_encoding_fails(golden_encoding, hamming_dm):
    # Swapping the stored rows of symbols 0 and 3 corrupts exactly the four
    # cells where those symbols meet; expected values recomputed by hand.
    vth = list(golden_encoding.vth_ranks)
    vth[0], vth[3] = vth[3], vth[0]
    perturbed = VoltageEncoding(
        golden_encoding.k,
        tuple(vth),
        golden_encoding.vgs_ranks,
        golden_encoding.vds_multiples,
    )
    report = verify_encoding(perturbed, hamming_dm)
    assert not report.passed
    got = {(mm.search, mm.store, mm.expected, mm.actual) for mm in report.mismatches}
    assert got == {(0, 0, 0, 2), (0, 3, 2, 0), (3, 0, 2, 0), (3, 3, 0, 2)}


# -- derive_encoding -------------------------------------------------------------


@pytest.mark.parametrize(
    "compiled_fixture",
    ["hamming_compiled", "manhattan_compiled", "sq_euclid_compiled"],
)
def test_round_trip_all_builtin_metrics(compiled_fixture, request):
    compiled = request.getfixturevalue(compiled_fixture)
    enc = derive_encoding(compiled.assignment)
    report = verify_encoding(enc, compiled.dm)
    assert report.passed, report.mismatches


def test_derive_reproduces_golden_table_from_its_currents(golden_encoding):
    # Rebuild the per-cell current assignment the golden table realizes,
    # then re-derive ranks from it: the published table is a fixed point
    # of the canonical derivation (stored "11" on the middle threshold,
    # search "11" on the middle gate with drain multiples (1, 1, 2)).
    rows = []
    for s in range(golden_encoding.m):
        tuples = [
            tuple(
                golden_encoding.vds_multiples[s][i] if golden_encoding.is_on(s, t, i) else 0
                for i in range(golden_encoding.k)
            )
            for t in range(golden_encoding.n)
        ]
        rows.append(RowAssignment(tuples))
    derived = derive_encoding(GlobalAssignment(tuple(rows)))
    assert derived.vth_ranks[0b11] == (1, 1, 1)
    assert derived.vgs_ranks[0b11] == (1, 1, 1)
    assert derived.vds_multiples[0b11] == (1, 1, 2)
    assert derived == golden_encoding


def test_derive_all_zero_assignment():
    ga = GlobalAssignment((RowAssignment(((0,),)),))
    enc = derive_encoding(ga)
    # the single branch must never turn on
    assert not enc.is_on(0, 0, 0)
    assert enc.vds_multiples == ((1,),)
    assert verify_encoding(enc, DistanceMatrix(((0,),))).passed


@pytest.mark.parametrize(
    "compiled_fixture",
    ["hamming_compiled", "manhattan_compiled", "sq_euclid_compiled"],
)
def test_rank_soundness_equal_counts_share_patterns(compiled_fixture, request):
    enc = request.getfixturevalue(compiled_fixture).encoding
    for i in range(enc.k):
        by_count = {}
        for t in range(enc.n):
            pattern = tuple(enc.is_on(s, t, i) for s in range(enc.m))
            by_count.setdefault(sum(pattern), set()).add(pattern)
        for patterns in by_count.values():
            assert len(patterns) == 1


def test_derive_rejects_non_chain_assignment():
    # two rows that flip the on column of the same branch
    a = RowAssignment(((1,), (0,)))
    b = RowAssignment(((0,), (1,)))
    with pytest.raises(RuntimeError):
        derive_encoding(GlobalAssignment((a, b)))


# -- verification ----------------------------------------------------------------


def test_verify_dimension_mismatch(golden_encoding):
    with pytest.raises(ValueError):
        verify_encoding(golden_encoding, DistanceMatrix(((0, 1), (1, 0))))


def test_verify_trivial_always_off():
    enc = VoltageEncoding(1, ((1,),), ((0,),), ((1,),))
    assert verify_encoding(enc, DistanceMatrix(((0,),))).passed


# -- voltage ladder ----------------------------------------------------------------


def test_realize_documented_example():
    ladder = VoltageLadder(vgs_base=0.3, vth_base=0.5, step=0.4, unit_vds=0.1, resistance=1e6)
    assert ladder.vth_volts(0) == pytest.approx(0.5)
    assert ladder.vgs_volts(1) == pytest.approx(0.7)
    assert ladder.vds_volts(2) == pytest.approx(0.2)
    assert 2 * ladder.unit_current == pytest.approx(200e-9)
    # rank-0 gate sits below rank-0 threshold: off
    assert ladder.vgs_volts(0) < ladder.vth_volts(0)
    assert ladder.unit_current == pytest.approx(1e-7)


@pytest.mark.parametrize(
    "compiled_fixture",
    ["hamming_compiled", "manhattan_compiled", "sq_euclid_compiled"],
)
@pytest.mark.parametrize("ladder", [DEFAULT_LADDER, VoltageLadder(0.45, 0.5, 0.2, 0.05, 2e6)])
def test_realized_voltages_preserve_on_off(compiled_fixture, ladder, request):
    enc = request.getfixturevalue(compiled_fixture).encoding
    for s in range(enc.m):
        for t in range(enc.n):
            for i in range(enc.k):
                volts_on = ladder.vgs_volts(enc.vgs_ranks[s][i]) > ladder.vth_volts(enc.vth_ranks[t][i])
                assert volts_on == enc.is_on(s, t, i)


def test_ladder_interleaving_enforced():
    with pytest.raises(ValueError):
        VoltageLadder(vgs_base=0.6, vth_base=0.5, step=0.4, unit_vds=0.1, resistance=1e6)
    with pytest.raises(ValueError):
        VoltageLadder(vgs_base=0.05, vth_base=0.5, step=0.4, unit_vds=0.1, resistance=1e6)
    with pytest.raises(ValueError):
        VoltageLadder(step=-1)


def test_default_ladder_unit_current_is_exact_binary():
    # 0.125 V over 2**20 ohm: the unit current is a power of two, so ideal
    # cell currents are exact integer multiples in float arithmetic
    assert DEFAULT_LADDER.unit_current == 2.0**-23


# -- JSON round trip -----------------------------------------------------------------


def test_export_import_round_trip(golden_encoding):
    assert import_encoding(export_encoding(golden_encoding)) == golden_encoding


def test_export_import_round_trip_compiled(manhattan_compiled):
    enc = manhattan_compiled.encoding
    assert import_encoding(export_encoding(enc)) == enc


def test_import_malformed_json():
    with pytest.raises(ValueError):
        import_encoding("{not json")


def test_import_rejects_zero_drain_multiple(golden_encoding):
    data = json.loads(export_encoding(golden_encoding))
    data["search"]["0"]["vds"][0] = 0
    with pytest.raises(ValueError):
        import_encoding(json.dumps(data))


def test_import_rejects_negative_rank(golden_encoding):
    data = json.loads(export_encoding(golden_encoding))
    data["stored"]["1"][0] = -1
    with pytest.raises(ValueError):
        import_encoding(json.dumps(data))


def test_import_rejects_boolean_rank(golden_encoding):
    data = json.loads(export_encoding(golden_encoding))
    data["stored"]["3"] = [True] * golden_encoding.k
    with pytest.raises(ValueError, match="must be an integer"):
        import_encoding(json.dumps(data))


def test_encoding_rejects_non_integer_fields():
    with pytest.raises(ValueError, match="must be an integer"):
        VoltageEncoding(True, ((True,), (0,)), ((2,),), ((True,),))
    with pytest.raises(ValueError, match="must be an integer"):
        VoltageEncoding(1, ((1.0,), (0,)), ((2,),), ((1,),))
    with pytest.raises(ValueError, match="must be an integer"):
        VoltageEncoding(1, ((1,), (0,)), ((2,),), ((1.5,),))
    enc = VoltageEncoding(1, [[1], [0]], [[2]], [[1]])
    assert enc.vth_ranks == ((1,), (0,)) and enc.vds_multiples == ((1,),)


def test_import_rejects_non_contiguous_symbols(golden_encoding):
    data = json.loads(export_encoding(golden_encoding))
    data["stored"]["7"] = data["stored"].pop("3")
    with pytest.raises(ValueError):
        import_encoding(json.dumps(data))


def test_table_csv_renders_bit_labels(golden_encoding):
    text = encoding_table_csv(golden_encoding, bits=2)
    assert "11,1,1,1,1,1,2" in text.splitlines()
    assert text.startswith("# stored encoding")
