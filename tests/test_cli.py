import hashlib
import json

import pytest
from conftest import synthetic_digits_via_idx

from dmcam.apps import hdc_train
from dmcam.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from dmcam.datasets import synthetic_digits


def run(argv):
    return main(argv)


def test_dm_hamming_2bit(capsys):
    assert run(["dm", "--metric", "hamming", "--bits", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "0,1,1,2\n1,0,2,1\n1,2,0,1\n2,1,1,0\n"


def test_dm_manhattan_1bit(capsys):
    assert run(["dm", "--metric", "manhattan", "--bits", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "0,1\n1,0\n"


def test_dm_ragged_custom_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1\n")
    assert run(["dm", "--custom", str(bad)]) == EXIT_ERROR


def test_dm_requires_metric_or_custom():
    assert run(["dm"]) == EXIT_USAGE


def test_missing_file_is_io_error(tmp_path):
    assert run(["dm", "--custom", str(tmp_path / "absent.csv")]) == EXIT_IO


def test_bad_flag_is_usage_error():
    assert run(["dm", "--metric", "nonsense"]) == EXIT_USAGE


def test_compile_then_verify_roundtrip(tmp_path, capsys):
    enc = tmp_path / "enc.json"
    report = tmp_path / "report.json"
    code = run([
        "compile", "--metric", "hamming", "--bits", "2",
        "--levels", "0,1,2", "--k-max", "4",
        "--out", str(enc), "--report", str(report),
    ])
    assert code == EXIT_OK
    rep = json.loads(report.read_text())
    assert rep["min_k"] == 3
    assert rep["verify"]["passed"] is True
    assert [p["k"] for p in rep["probes"]] == [1, 2, 3]
    assert rep["config"]["seed"] == 0

    assert run(["verify", "--metric", "hamming", "--bits", "2",
                "--encoding", str(enc)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True and payload["checked"] == 16


# SHA-256 of the report below as written when compile verified the encoding
# a second time itself.
COMPILE_REPORT_SHA256 = "88302d9ada5173765ae0e10956377d6b94c77b0517e06d2f32a8642f204ef523"


def test_compile_verifies_once(tmp_path, monkeypatch):
    import dmcam.cli
    import dmcam.compiler

    calls = []

    def counted(verify):
        def wrapper(*args, **kwargs):
            calls.append(verify)
            return verify(*args, **kwargs)
        return wrapper

    for module in (dmcam.compiler, dmcam.cli):
        monkeypatch.setattr(module, "verify_encoding", counted(module.verify_encoding))
    monkeypatch.chdir(tmp_path)
    code = run(["compile", "--metric", "hamming", "--bits", "2", "--threads", "1",
                "--out", "enc.json", "--report", "report.json", "--table", "table.csv"])
    assert code == EXIT_OK
    assert len(calls) == 1
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == COMPILE_REPORT_SHA256


_RUN_CLI = """
import sys
from dmcam.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_compile_3bit_hamming_reaches_k4(tmp_path, peak_rss_mb):
    # A separate process with a hard timeout and a memory bound: a compile
    # that hangs in AC-3 or extraction, or that holds its row domains in a
    # heavier form, fails here instead of stalling the suite.
    enc, report = tmp_path / "E.json", tmp_path / "R.json"
    peak_mb = peak_rss_mb(_RUN_CLI, "compile", "--metric", "hamming", "--bits", "3",
                          "--out", str(enc), "--report", str(report))
    assert peak_mb < 340, f"peak RSS {peak_mb:.0f} MB"
    rep = json.loads(report.read_text())
    assert rep["min_k"] == 4
    # Every probe's status, domain and pruned sizes (k = 4 enumerates rows
    # of 87,480 assignments) and the encoding's bytes, pinned by digest; the
    # report's config is left out, since it holds the tmp paths.
    pinned = json.dumps({key: rep[key] for key in ("levels", "min_k", "probes")}, sort_keys=True)
    assert hashlib.sha256(pinned.encode()).hexdigest() == (
        "daa6a13f146583941f792840c96f6621d6584abf07b7a6b996ec930bcd98468f")
    assert hashlib.sha256(enc.read_bytes()).hexdigest() == (
        "1ef9139f4727eeb95a5fab1bae7fb70a04f8f822b10d2c742c439347822d1bd5")
    # Recompute every cell from the JSON alone: branch i conducts its drain
    # multiple when the search gate rank exceeds the stored threshold rank.
    data = json.loads(enc.read_text())
    search = [data["search"][str(s)] for s in range(8)]
    stored = [data["stored"][str(t)] for t in range(8)]
    cells = [
        [sum(d for g, d, v in zip(q["vgs"], q["vds"], vth) if g > v) for vth in stored]
        for q in search
    ]
    assert cells == [[bin(s ^ t).count("1") for t in range(8)] for s in range(8)]


def test_compile_forced_k_infeasible(tmp_path):
    report = tmp_path / "r.json"
    code = run([
        "compile", "--metric", "hamming", "--bits", "2",
        "--levels", "0,1,2", "--k", "2", "--report", str(report),
    ])
    assert code == EXIT_INFEASIBLE
    rep = json.loads(report.read_text())
    assert rep["feasible"] is False
    assert rep["probes"][0]["k"] == 2


def test_compile_trivial_matrix(tmp_path, capsys):
    dm = tmp_path / "dm.csv"
    dm.write_text("0\n")
    assert run(["compile", "--custom", str(dm), "--levels", "0,1", "--k-max", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["k"] == 1


def test_compile_budget_exceeded(tmp_path):
    code = run([
        "compile", "--metric", "sq_euclidean", "--bits", "2",
        "--k-max", "6", "--budget", "5",
    ])
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("k", ["0", "-1"])
def test_compile_rejects_non_positive_k(capsys, k):
    assert run(["compile", "--metric", "hamming", "--bits", "2", "--k", k]) == EXIT_ERROR
    assert "k must be >= 1" in capsys.readouterr().err


def test_compile_rejects_k_max_below_one(capsys):
    assert run(["compile", "--metric", "hamming", "--bits", "2", "--k-max", "0"]) == EXIT_ERROR
    assert "k_max must be >= 1" in capsys.readouterr().err


def test_compile_forced_k_ignores_k_max(tmp_path):
    report = tmp_path / "r.json"
    code = run([
        "compile", "--metric", "hamming", "--bits", "2", "--k", "3", "--k-max", "2",
        "--out", str(tmp_path / "enc.json"), "--report", str(report),
    ])
    assert code == EXIT_OK
    assert [p["k"] for p in json.loads(report.read_text())["probes"]] == [3]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_compile_rejects_non_positive_budget(capsys, budget):
    code = run(["compile", "--metric", "hamming", "--bits", "2", "--budget", budget])
    assert code == EXIT_ERROR
    assert "budget must be >= 1" in capsys.readouterr().err


def test_verify_rejects_boolean_rank(tmp_path, golden_encoding, capsys):
    from dmcam.encoder import export_encoding

    data = json.loads(export_encoding(golden_encoding))
    data["stored"]["3"] = [True] * golden_encoding.k
    enc = tmp_path / "bool.json"
    enc.write_text(json.dumps(data))
    argv = ["verify", "--metric", "hamming", "--bits", "2", "--encoding", str(enc)]
    assert run(argv) == EXIT_ERROR
    assert "must be an integer" in capsys.readouterr().err


def test_verify_perturbed_encoding(tmp_path, golden_encoding, capsys):
    from dmcam.encoder import export_encoding

    data = json.loads(export_encoding(golden_encoding))
    data["stored"]["0"], data["stored"]["3"] = data["stored"]["3"], data["stored"]["0"]
    enc = tmp_path / "bad.json"
    enc.write_text(json.dumps(data))
    code = run(["verify", "--metric", "hamming", "--bits", "2", "--encoding", str(enc)])
    assert code == EXIT_INFEASIBLE
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["mismatches"]) == 4


def test_verify_dimension_mismatch(tmp_path, golden_encoding):
    from dmcam.encoder import export_encoding

    enc = tmp_path / "enc.json"
    enc.write_text(export_encoding(golden_encoding))
    assert run(["verify", "--metric", "hamming", "--bits", "1",
                "--encoding", str(enc)]) == EXIT_ERROR


def test_oracle_verdicts(capsys):
    assert run(["oracle", "--metric", "hamming", "--bits", "2",
                "--levels", "0,1,2", "--k", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert run(["oracle", "--metric", "hamming", "--bits", "2",
                "--levels", "0,1,2", "--k", "1"]) == EXIT_INFEASIBLE


def test_oracle_dump_witness(capsys):
    assert run(["oracle", "--metric", "hamming", "--bits", "2",
                "--levels", "0,1,2", "--k", "3", "--dump"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["witness"]) == 3


def _write_symbol_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


@pytest.fixture()
def compiled_encoding_file(tmp_path_factory):
    enc = tmp_path_factory.mktemp("enc") / "hamming2.json"
    assert run([
        "compile", "--metric", "hamming", "--bits", "2",
        "--levels", "0,1,2", "--k-max", "4", "--out", str(enc),
    ]) == EXIT_OK
    return enc


def test_simulate_outputs_winner(tmp_path, compiled_encoding_file, capsys):
    stored = tmp_path / "stored.csv"
    queries = tmp_path / "queries.csv"
    _write_symbol_csv(stored, [[0, 0], [3, 3]])
    _write_symbol_csv(queries, [[0, 0]])
    assert run(["simulate", "--encoding", str(compiled_encoding_file),
                "--stored", str(stored), "--queries", str(queries)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "query,row,current_a,current_units,winner"
    row0 = lines[2].split(",")
    assert row0[3] == "0.000000" and row0[4] == "1"
    row1 = lines[3].split(",")
    assert row1[3] == "4.000000" and row1[4] == "0"


def test_simulate_reproducible_with_variation(tmp_path, compiled_encoding_file):
    stored = tmp_path / "s.csv"
    queries = tmp_path / "q.csv"
    _write_symbol_csv(stored, [[0, 1, 2], [3, 2, 1]])
    _write_symbol_csv(queries, [[1, 1, 1], [0, 3, 2]])
    out = tmp_path / "results.csv"
    argv = ["simulate", "--encoding", str(compiled_encoding_file),
            "--stored", str(stored), "--queries", str(queries),
            "--sigma-vth", "0.054", "--sigma-r", "0.08",
            "--seed", "11", "--out", str(out)]
    outs = []
    for _ in range(2):  # rerun with identical flags, overwriting the output
        assert run(argv) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_mc_reproducible_and_reports_config(tmp_path, compiled_encoding_file):
    stored = tmp_path / "s.csv"
    queries = tmp_path / "q.csv"
    _write_symbol_csv(stored, [[1, 1, 1, 1, 0], [1, 1, 1, 1, 1]])
    _write_symbol_csv(queries, [[0, 0, 0, 0, 0]])
    out = tmp_path / "mc.csv"
    rep = tmp_path / "mc.json"
    argv = ["mc", "--encoding", str(compiled_encoding_file),
            "--stored", str(stored), "--queries", str(queries),
            "--runs", "20", "--sigma-vth", "0.054", "--sigma-r", "0.08",
            "--seed", "5", "--out", str(out), "--report", str(rep)]
    csvs, reports = [], []
    for _ in range(2):  # rerun with identical flags, overwriting the outputs
        assert run(argv) == EXIT_OK
        csvs.append(out.read_bytes())
        reports.append(rep.read_bytes())
    assert csvs[0] == csvs[1]
    assert reports[0] == reports[1]
    payload = json.loads(reports[0])
    assert payload["config"]["sigma_vth"] == 0.054
    assert payload["config"]["seed"] == 5
    assert 0.0 <= payload["accuracy"] <= 1.0


@pytest.mark.parametrize("winner", [999, -1])
def test_mc_rejects_impossible_expected_winner(tmp_path, compiled_encoding_file, capsys, winner):
    stored = tmp_path / "s.csv"
    queries = tmp_path / "q.csv"
    expected = tmp_path / "e.csv"
    _write_symbol_csv(stored, [[0, 0], [3, 3]])
    _write_symbol_csv(queries, [[0, 0]])
    _write_symbol_csv(expected, [[winner]])
    assert run(["mc", "--encoding", str(compiled_encoding_file),
                "--stored", str(stored), "--queries", str(queries),
                "--expected", str(expected), "--runs", "2"]) == EXIT_ERROR
    assert "expected winners must lie in [0, 2)" in capsys.readouterr().err


def test_bench_knn_zero_variation(tmp_path):
    out = tmp_path / "knn.json"
    preds = tmp_path / "preds.csv"
    code = run(["bench", "--pipeline", "knn", "--dataset", "synthetic",
                "--train-size", "60", "--test-size", "15",
                "--metric", "hamming", "--bits", "2", "--levels", "0,1,2",
                "--k-max", "4", "--out", str(out), "--predictions", str(preds)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["agreement"] == 1.0
    assert payload["min_k"] == 3
    lines = preds.read_text().splitlines()
    assert lines[0] == "query,predicted_hw,predicted_sw,label"
    assert len(lines) == 16
    for line in lines[1:]:
        _, hw, sw, _ = line.split(",")
        assert hw == sw


def test_bench_hdc_runs_and_is_reproducible(tmp_path):
    out = tmp_path / "hdc.json"
    argv = ["bench", "--pipeline", "hdc", "--dataset", "synthetic",
            "--train-size", "60", "--test-size", "15",
            "--metric", "manhattan", "--bits", "2",
            "--dimension", "128", "--epochs", "1",
            "--seed", "3", "--out", str(out)]
    payloads = []
    for _ in range(2):
        assert run(argv) == EXIT_OK
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    assert json.loads(payloads[0])["agreement"] == 1.0


def test_bench_hdc_reports_corrections_per_epoch(tmp_path):
    out = tmp_path / "hdc.json"
    code = run(["bench", "--pipeline", "hdc", "--dataset", "synthetic",
                "--train-size", "120", "--test-size", "10",
                "--metric", "hamming", "--bits", "2",
                "--dimension", "64", "--epochs", "3",
                "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    corrections = json.loads(out.read_text())["corrections"]
    ds = synthetic_digits(120, 10, seed=2)
    model = hdc_train(ds, dimension=64, bits=2, epochs=3, seed=2)
    assert corrections == list(model.corrections)
    assert len(corrections) == 3 and sum(corrections) > 0


def test_bench_hdc_predictions_reproduce_summary(tmp_path):
    out = tmp_path / "hdc.json"
    preds = tmp_path / "preds.csv"
    # enough variation that hardware and software disagree on some queries
    code = run(["bench", "--pipeline", "hdc", "--dataset", "synthetic",
                "--train-size", "60", "--test-size", "15",
                "--metric", "hamming", "--bits", "2", "--dimension", "128",
                "--sigma-vth", "0.15", "--sigma-r", "0.08", "--seed", "1",
                "--out", str(out), "--predictions", str(preds)])
    assert code == EXIT_OK
    summary = json.loads(out.read_text())
    lines = preds.read_text().splitlines()
    assert lines[0] == "query,predicted_hw,predicted_sw,label"
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == list(range(15))
    assert summary["accuracy_hw"] == sum(hw == label for _, hw, _, label in rows) / 15
    assert summary["accuracy_sw"] == sum(sw == label for _, _, sw, label in rows) / 15
    assert summary["agreement"] == sum(hw == sw for _, hw, sw, _ in rows) / 15
    assert summary["agreement"] < 1.0


@pytest.mark.parametrize("pipeline", ["knn", "hdc"])
def test_bench_rejects_non_finite_training_data(tmp_path, capsys, pipeline):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("0.0,1.0,0\nnan,0.5,1\n1.0,0.0,1\n0.5,0.5,0\n")
    test.write_text("0.1,0.9,0\n0.9,0.1,1\n")
    code = run(["bench", "--pipeline", pipeline, "--dataset", "csv",
                "--train-csv", str(train), "--test-csv", str(test),
                "--metric", "hamming", "--bits", "2", "--dimension", "16"])
    assert code == EXIT_ERROR
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["knn", "hdc"])
def test_bench_rejects_non_finite_test_data(tmp_path, capsys, pipeline):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("0.0,1.0,0\n0.2,0.5,1\n1.0,0.0,1\n0.5,0.5,0\n")
    test.write_text("0.1,0.9,0\nnan,0.1,1\n")
    code = run(["bench", "--pipeline", pipeline, "--dataset", "csv",
                "--train-csv", str(train), "--test-csv", str(test),
                "--metric", "hamming", "--bits", "2", "--dimension", "16"])
    assert code == EXIT_ERROR
    assert "test features must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["train", "test"])
def test_bench_rejects_an_empty_split(capsys, split):
    sizes = {"train": "20", "test": "5", split: "0"}
    code = run(["bench", "--pipeline", "knn", "--dataset", "synthetic",
                "--train-size", sizes["train"], "--test-size", sizes["test"],
                "--metric", "hamming", "--bits", "2"])
    assert code == EXIT_ERROR
    assert f"the {split} split has no samples" in capsys.readouterr().err


@pytest.mark.parametrize("dataset", ["synthetic", "mnist"])
@pytest.mark.parametrize("split", ["train", "test"])
def test_bench_rejects_a_negative_size(tmp_path, capsys, dataset, split):
    sizes = {"train": "20", "test": "5", split: "-5"}
    source = []
    if dataset == "mnist":
        synthetic_digits_via_idx(tmp_path, n_train=20, n_test=5, features=16, seed=0)
        source = ["--data-root", str(tmp_path)]
    code = run(["bench", "--pipeline", "knn", "--dataset", dataset, *source,
                "--train-size", sizes["train"], "--test-size", sizes["test"],
                "--metric", "hamming", "--bits", "2"])
    assert code == EXIT_ERROR
    assert f"{split} size must be >= 0, got -5" in capsys.readouterr().err


def test_bench_hdc_rejects_negative_epochs(capsys):
    code = run(["bench", "--pipeline", "hdc", "--dataset", "synthetic",
                "--train-size", "20", "--test-size", "5", "--epochs", "-1",
                "--metric", "hamming", "--bits", "2", "--dimension", "16"])
    assert code == EXIT_ERROR
    assert "epochs must be >= 0, got -1" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "manhattan", "bits": 1}))
    assert run(["--config", str(cfg), "dm"]) == EXIT_OK
    assert capsys.readouterr().out == "0,1\n1,0\n"


@pytest.mark.parametrize("command, config", [
    (["dm", "--metric", "hamming"], {"bits": 2.5}),
    (["dm", "--metric", "hamming"], {"bits": True}),
    (["compile", "--metric", "hamming"], {"k_max": 2.5}),
    (["oracle", "--metric", "hamming", "--k", "1"], {"dump": 1}),
    (["dm"], {"metric": "cosine", "bits": 1}),
])
def test_config_value_is_checked_like_its_flag(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--config", str(cfg), *command]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    key = next(iter(config))
    assert f"config key {key!r}: invalid value" in captured.err


def test_config_switch_takes_a_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dump": True, "bits": 1}))
    assert run(["--config", str(cfg), "oracle", "--metric", "hamming", "--k", "2"]) == EXIT_OK
    assert "witness" in json.loads(capsys.readouterr().out)


def test_config_key_of_no_flag_is_usage_error(tmp_path, compiled_encoding_file, capsys):
    stored, queries = tmp_path / "s.csv", tmp_path / "q.csv"
    _write_symbol_csv(stored, [[0, 1], [3, 2]])
    _write_symbol_csv(queries, [[0, 1]])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma_r_rel": 0.08, "sigma_vth": 0.054}))
    argv = ["--config", str(cfg), "mc", "--encoding", str(compiled_encoding_file),
            "--stored", str(stored), "--queries", str(queries), "--runs", "2"]
    assert run(argv) == EXIT_USAGE
    assert "config key 'sigma_r_rel' matches no flag" in capsys.readouterr().err
    # a key of another subcommand is allowed: one file may serve several
    cfg.write_text(json.dumps({"sigma_r": 0.08, "sigma_vth": 0.054, "k_max": 4}))
    assert run(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"]["sigma_r"] == 0.08


@pytest.mark.parametrize("command, config", [
    (["simulate"], {"encoding": None, "stored": None, "queries": None}),
    (["bench", "--train-size", "20", "--test-size", "5", "--metric", "hamming", "--k-max", "4"],
     {"pipeline": "knn"}),
    (["oracle", "--metric", "hamming"], {"k": 3}),
], ids=["simulate", "bench", "oracle"])
def test_config_supplies_required_flags(tmp_path, compiled_encoding_file, capsys,
                                        command, config):
    stored, queries = tmp_path / "s.csv", tmp_path / "q.csv"
    _write_symbol_csv(stored, [[0, 1], [3, 2]])
    _write_symbol_csv(queries, [[0, 1]])
    files = {"encoding": compiled_encoding_file, "stored": stored, "queries": queries}
    config = {key: str(files[key]) if key in files else value for key, value in config.items()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--config", str(cfg), *command]) == EXIT_OK
    from_file = capsys.readouterr().out
    flags = [text for key, value in config.items() for text in (f"--{key}", str(value))]
    assert run([*command, *flags]) == EXIT_OK
    assert capsys.readouterr().out == from_file


def test_config_required_flag_rules(tmp_path, compiled_encoding_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, "stored": "s.csv"}))
    assert run(["--config", str(cfg), "oracle", "--metric", "hamming", "--bits", "1",
                "--k", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"]["k"] == 2  # the flag wins
    assert run(["--config", str(cfg), "simulate"]) == EXIT_USAGE
    assert "the following arguments are required: --encoding, --queries" in capsys.readouterr().err
    for path in (cfg, tmp_path / "absent.json"):  # --config belongs before the subcommand
        assert run(["oracle", "--metric", "hamming", "--k", "3", "--config", str(path)]) == EXIT_USAGE
        assert "unrecognized arguments: --config" in capsys.readouterr().err
    cfg.write_text(json.dumps({"command": "dm"}))
    assert run(["--config", str(cfg)]) == EXIT_USAGE
    assert "config key 'command' matches no flag" in capsys.readouterr().err


def test_malformed_json_inputs_name_their_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 1,}')
    assert run(["verify", "--metric", "hamming", "--encoding", str(bad)]) == EXIT_ERROR
    assert f"dmcam: error: {bad}: encoding JSON is malformed: " in capsys.readouterr().err
    assert run(["--config", str(bad), "dm", "--metric", "hamming"]) == EXIT_ERROR
    assert f"dmcam: error: {bad}: Expecting property name" in capsys.readouterr().err
    bad.write_text("[1]")
    assert run(["--config", str(bad), "dm", "--metric", "hamming"]) == EXIT_USAGE
    assert f"{bad}: config file must hold a JSON object" in capsys.readouterr().err


# Every CSV input goes through one reader: a bad cell, a row of the wrong
# width or a file with no row exits 1 naming the file (and the line).
@pytest.mark.parametrize("flag, text, lineno, message", [
    pytest.param("--queries", "0,1\n# note\n0,,2\n", 3, "not a comma-separated integer row",
                 id="0,1\n# note\n0,,2\n-3-not a comma-separated integer row"),
    pytest.param("--queries", "0,1\n\n3,2,1\n", 3, "expected 2 symbols, got 3",
                 id="0,1\n\n3,2,1\n-3-expected 2 symbols, got 3"),
    pytest.param("--queries", "# none\n\n", None, "no data rows", id="queries-empty"),
    pytest.param("--custom", "0,1\n1,x\n", 2, "not a comma-separated integer row", id="custom-cell"),
    pytest.param("--custom", "0,1\n1\n", 2, "expected 2 values, got 1", id="custom-width"),
    pytest.param("--custom", "# none\n", None, "no data rows", id="custom-empty"),
    pytest.param("--train-csv", "0,1,0\n1,x,1\n", 2, "not a comma-separated number row",
                 id="train-cell"),
    pytest.param("--train-csv", "0,1,0\n1,1\n", 2, "expected 3 values, got 2", id="train-width"),
    pytest.param("--train-csv", "\n", None, "no data rows", id="train-empty"),
])
def test_symbol_csv_names_file_and_line(tmp_path, compiled_encoding_file, capsys,
                                        flag, text, lineno, message):
    stored, queries, test = tmp_path / "s.csv", tmp_path / "q.csv", tmp_path / "test.csv"
    _write_symbol_csv(stored, [[0, 1], [3, 2]])
    test.write_text("0,1,0\n1,0,1\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    argv = {
        "--queries": ["simulate", "--encoding", str(compiled_encoding_file),
                      "--stored", str(stored)],
        "--custom": ["dm"],
        "--train-csv": ["bench", "--pipeline", "knn", "--dataset", "csv", "--test-csv", str(test),
                        "--metric", "hamming"],
    }[flag]
    assert run([*argv, flag, str(bad)]) == EXIT_ERROR
    where = str(bad) if lineno is None else f"{bad} line {lineno}"
    assert f"{where}: {message}" in capsys.readouterr().err


# Every input file is read through one helper: a file that is not UTF-8
# exits 1 naming the file, whichever flag reads it.
@pytest.mark.parametrize("flag", ["--custom", "--stored", "--queries", "--train-csv", "--config",
                                  "--encoding"])
def test_non_utf8_input_names_its_file(tmp_path, compiled_encoding_file, capsys, flag):
    stored, queries, test = tmp_path / "s.csv", tmp_path / "q.csv", tmp_path / "test.csv"
    _write_symbol_csv(stored, [[0, 1], [3, 2]])
    _write_symbol_csv(queries, [[0, 1]])
    test.write_text("0,1,0\n1,0,1\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe0,1\n")
    encoding = str(compiled_encoding_file)
    argv = {
        "--custom": ["dm", "--custom", str(bad)],
        "--stored": ["simulate", "--encoding", encoding, "--stored", str(bad),
                     "--queries", str(queries)],
        "--queries": ["simulate", "--encoding", encoding, "--stored", str(stored),
                      "--queries", str(bad)],
        "--train-csv": ["bench", "--pipeline", "knn", "--dataset", "csv", "--train-csv", str(bad),
                        "--test-csv", str(test), "--metric", "hamming"],
        "--config": ["--config", str(bad), "dm", "--metric", "hamming"],
        "--encoding": ["verify", "--metric", "hamming", "--encoding", str(bad)],
    }[flag]
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr().err == (f"dmcam: error: {bad}: 'utf-8' codec can't decode byte 0xff "
                                       "in position 0: invalid start byte\n")


# Checks that run once a file has parsed name the file too, in their own words.
@pytest.mark.parametrize("flag, text, message", [
    ("--custom", "0,-1\n", "distance matrix entries must be nonnegative"),
    ("--stored", "0,1\n7,0\n", "stored symbols must lie in [0, n)"),
    ("--queries", "0,4\n", "query symbols must lie in [0, m)"),
    ("--train-csv", "0.0,1.0,0\n0.2,0.5,0.5\n", "train labels must be integers"),
    ("--test-csv", "0.1,0.9,-0.5\n", "test labels must be integers"),
], ids=["custom", "stored", "queries", "train-csv", "test-csv"])
def test_checks_after_parsing_name_the_file(tmp_path, compiled_encoding_file, capsys,
                                            flag, text, message):
    stored, queries = tmp_path / "s.csv", tmp_path / "q.csv"
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_symbol_csv(stored, [[0, 1], [3, 2]])
    _write_symbol_csv(queries, [[0, 1]])
    train.write_text("0.0,1.0,0\n1.0,0.0,1\n")
    test.write_text("0.1,0.9,0\n0.9,0.1,1\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    simulate = ["simulate", "--encoding", str(compiled_encoding_file)]
    bench = ["bench", "--pipeline", "knn", "--dataset", "csv", "--metric", "hamming"]
    argv = {
        "--custom": ["dm", "--custom", str(bad)],
        "--stored": [*simulate, "--stored", str(bad), "--queries", str(queries)],
        "--queries": [*simulate, "--stored", str(stored), "--queries", str(bad)],
        "--train-csv": [*bench, "--train-csv", str(bad), "--test-csv", str(test)],
        "--test-csv": [*bench, "--train-csv", str(train), "--test-csv", str(bad)],
    }[flag]
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"dmcam: error: {bad}: {message}\n"


def test_malformed_thread_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("DMCAM_THREADS", "two")
    assert run(["dm", "--metric", "hamming", "--bits", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("dmcam: error: DMCAM_THREADS")


@pytest.mark.parametrize("env, flags", [
    ("0", []), ("-3", []), ("1", ["--threads", "0"]), ("1", ["--threads", "-3"]),
])
def test_thread_count_below_one_is_usage_error(tmp_path, compiled_encoding_file, monkeypatch,
                                                capsys, env, flags):
    stored, queries = tmp_path / "s.csv", tmp_path / "q.csv"
    _write_symbol_csv(stored, [[0, 1], [3, 2]])
    _write_symbol_csv(queries, [[0, 1]])
    monkeypatch.setenv("DMCAM_THREADS", env)
    assert run(["mc", "--encoding", str(compiled_encoding_file), "--stored", str(stored),
                "--queries", str(queries), "--runs", "2", *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "must be at least 1" in err
    assert ("--threads" if flags else "DMCAM_THREADS") in err


def test_config_thread_count_below_one_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 0}))
    assert run(["--config", str(cfg), "dm", "--metric", "hamming", "--bits", "1"]) == EXIT_USAGE
    assert "config key 'threads': invalid value 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--sigma-vth", "nan"), ("--sigma-vth", "inf"), ("--sigma-r", "nan"), ("--sigma-r", "inf"),
])
@pytest.mark.parametrize("command", ["simulate", "mc", "bench"])
def test_non_finite_sigma_is_rejected(tmp_path, compiled_encoding_file, capsys, command,
                                      flag, value):
    stored, queries = tmp_path / "s.csv", tmp_path / "q.csv"
    _write_symbol_csv(stored, [[0, 1], [3, 2]])
    _write_symbol_csv(queries, [[0, 1]])
    if command == "bench":
        argv = ["bench", "--pipeline", "knn", "--train-size", "20", "--test-size", "5",
                "--metric", "hamming", "--k-max", "4"]
    else:
        argv = [command, "--encoding", str(compiled_encoding_file), "--stored", str(stored),
                "--queries", str(queries)] + (["--runs", "2"] if command == "mc" else [])
    assert run([*argv, flag, value]) == EXIT_ERROR
    assert "sigmas must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["0,,2", "0,1,2,", ",0,1", "0, ,1"])
def test_compile_levels_with_an_empty_part_is_rejected(levels, capsys):
    assert run(["compile", "--metric", "hamming", "--bits", "2", "--levels", levels]) == EXIT_ERROR
    assert f"current levels {levels!r} hold an empty part" in capsys.readouterr().err


@pytest.mark.parametrize("text, lineno", [("1,2\n", 1), ("0\n0,1\n", 2)], ids=["first", "later"])
def test_mc_expected_row_must_hold_one_winner(tmp_path, compiled_encoding_file, capsys,
                                              text, lineno):
    stored, queries, expected = tmp_path / "s.csv", tmp_path / "q.csv", tmp_path / "e.csv"
    _write_symbol_csv(stored, [[0, 0], [3, 3], [1, 2]])
    _write_symbol_csv(queries, [[0, 0], [1, 2]][:text.count("\n")])
    expected.write_text(text)
    assert run(["mc", "--encoding", str(compiled_encoding_file), "--stored", str(stored),
                "--queries", str(queries), "--expected", str(expected), "--runs", "2"]) == EXIT_ERROR
    assert f"{expected} line {lineno}: expected 1 symbol, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("999\n0\n", "expected winners must lie in [0, 3)"),
    ("-1\n0\n", "expected winners must lie in [0, 3)"),
    ("0\n", "one expected winner per query is required, got 1 for 2 queries"),
], ids=["above", "below", "count"])
def test_mc_expected_errors_name_the_file(tmp_path, compiled_encoding_file, capsys, text, message):
    stored, queries, expected = tmp_path / "s.csv", tmp_path / "q.csv", tmp_path / "e.csv"
    _write_symbol_csv(stored, [[0, 0], [3, 3], [1, 2]])
    _write_symbol_csv(queries, [[0, 0], [1, 2]])
    expected.write_text(text)
    assert run(["mc", "--encoding", str(compiled_encoding_file), "--stored", str(stored),
                "--queries", str(queries), "--expected", str(expected), "--runs", "2"]) == EXIT_ERROR
    assert f"dmcam: error: {expected}: {message}\n" == capsys.readouterr().err


def test_simulate_rejects_saturating_ladder(tmp_path, compiled_encoding_file, capsys):
    stored = tmp_path / "stored.csv"
    queries = tmp_path / "queries.csv"
    _write_symbol_csv(stored, [[0, 0], [3, 3]])
    _write_symbol_csv(queries, [[0, 0]])
    assert run(["simulate", "--encoding", str(compiled_encoding_file),
                "--stored", str(stored), "--queries", str(queries),
                "--unit-vds", "10", "--resistance", "1e5"]) == EXIT_ERROR
    assert "saturates" in capsys.readouterr().err


HAMMING_GRID = "0,1,1,2\n1,0,2,1\n1,2,0,1\n2,1,1,0\n"


@pytest.mark.parametrize("pipeline", ["knn", "hdc"])
def test_bench_custom_grid_matches_builtin_metric(tmp_path, pipeline):
    grid = tmp_path / "hamming.csv"
    grid.write_text(HAMMING_GRID)
    common = ["bench", "--pipeline", pipeline, "--dataset", "synthetic",
              "--train-size", "40", "--test-size", "12", "--dimension", "64",
              "--k-max", "4"]
    builtin, custom = tmp_path / "builtin.csv", tmp_path / "custom.csv"
    assert run([*common, "--metric", "hamming", "--predictions", str(builtin)]) == EXIT_OK
    assert run([*common, "--custom", str(grid), "--predictions", str(custom)]) == EXIT_OK
    assert custom.read_bytes() == builtin.read_bytes()


def test_bench_custom_replaces_metric(tmp_path, capsys):
    # --custom wins over --metric, as everywhere else: a 2x2 table cannot
    # hold the four symbols of a 2-bit quantizer
    small = tmp_path / "small.csv"
    small.write_text("0,1\n1,0\n")
    code = run(["bench", "--pipeline", "knn", "--dataset", "synthetic",
                "--train-size", "20", "--test-size", "5",
                "--custom", str(small), "--metric", "hamming"])
    assert code == EXIT_ERROR
    assert "stored symbols must lie in [0, n)" in capsys.readouterr().err


def _non_integer_encodings(golden_encoding):
    """The golden encoding with one value replaced by a float or a string that truncates to it."""
    from dmcam.encoder import export_encoding

    for where in ("k", "stored", "vds"):
        data = json.loads(export_encoding(golden_encoding))
        if where == "k":
            data["k"] += 0.9
        elif where == "stored":
            data["stored"]["0"][0] += 0.7
        else:
            data["search"]["0"]["vds"][0] = str(data["search"]["0"]["vds"][0])
        yield where, data


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_encoding_with_non_integer_values_is_rejected(tmp_path, golden_encoding, capsys, command):
    stored, queries = tmp_path / "stored.csv", tmp_path / "queries.csv"
    _write_symbol_csv(stored, [[0, 1], [3, 2]])
    _write_symbol_csv(queries, [[0, 1]])
    for where, data in _non_integer_encodings(golden_encoding):
        enc = tmp_path / f"{where}.json"
        enc.write_text(json.dumps(data))
        if command == "simulate":
            argv = ["simulate", "--encoding", str(enc), "--stored", str(stored),
                    "--queries", str(queries)]
        else:
            argv = ["verify", "--metric", "hamming", "--bits", "2", "--encoding", str(enc)]
        assert run(argv) == EXIT_ERROR, where
        assert "must be an integer" in capsys.readouterr().err


def test_bench_rejects_fractional_csv_labels(tmp_path, capsys):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("0.0,1.0,0\n0.2,0.5,0.5\n1.0,0.0,1.9\n0.5,0.5,0\n")
    test.write_text("0.1,0.9,0\n0.9,0.1,1\n")
    code = run(["bench", "--pipeline", "knn", "--dataset", "csv",
                "--train-csv", str(train), "--test-csv", str(test),
                "--metric", "hamming", "--bits", "2"])
    assert code == EXIT_ERROR
    assert "train labels must be integers" in capsys.readouterr().err
