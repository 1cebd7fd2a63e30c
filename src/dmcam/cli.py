"""Command-line entry point.

Subcommands cover the whole pipeline: dm (build/print a matrix), compile
(solve for the minimal cell and emit an encoding), verify (check an encoding
against a matrix), oracle (brute-force feasibility), simulate (searches on a
programmed array), mc (Monte-Carlo accuracy under variation) and bench
(KNN/HDC dataset pipelines). Only simulate, mc and bench import numpy and the
simulator modules, inside the command, so the other subcommands start without them.

Exit codes: 0 success, 2 infeasible or failed verification (a valid answer),
3 bad usage, 4 a file that cannot be read or written, 5 enumeration budget
exceeded, 1 any other error. All randomness is seeded; rerunning a command
with the same flags reproduces its data outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .compiler import compile_dm
from .encoder import (
    DEFAULT_LADDER,
    VoltageLadder,
    encoding_table_csv,
    export_encoding,
    load_encoding,
    verify_encoding,
)
from .metric import (
    DistanceSpec,
    MetricKind,
    build_dm,
    csv_rows,
    dm_to_csv,
    load_custom_dm,
    read_input,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    CurrentRange,
    brute_force_feasible,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 3
EXIT_IO = 4
EXIT_BUDGET = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, which we reserve
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=[m.value for m in MetricKind])
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--custom", help="CSV file with a custom distance matrix")


def _add_device_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--sigma-vth", type=float, default=0.0, help="threshold sigma in volts")
    p.add_argument("--sigma-r", type=float, default=0.0, help="relative resistance sigma")
    for f in dataclasses.fields(VoltageLadder):  # --vgs-base ... --resistance, in field order
        p.add_argument("--" + f.name.replace("_", "-"), type=float,
                       default=getattr(DEFAULT_LADDER, f.name))


def _int_at_least(minimum: int):
    """An argparse type that reads an integer of at least minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser(defaults: dict | None = None) -> _Parser:
    parser = _Parser(prog="dmcam", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file of flag defaults for the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dm", help="build or load a distance matrix and print it as CSV")
    _add_metric_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("compile", help="solve for the minimal cell and emit an encoding")
    _add_metric_flags(p)
    p.add_argument("--levels", default="auto", help="current multiples, e.g. 0,1,2 (auto = 0..max entry)")
    p.add_argument("--k", type=int, help="probe only this cell size (--k-max is ignored)")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", help="encoding JSON path")
    p.add_argument("--report", help="feasibility report JSON path")
    p.add_argument("--table", help="human-readable encoding table CSV path")

    p = sub.add_parser("verify", help="check an encoding JSON against a distance matrix")
    _add_metric_flags(p)
    p.add_argument("--encoding", required=True)
    p.add_argument("--out", help="report JSON path")

    p = sub.add_parser("oracle", help="brute-force feasibility verdict for a fixed cell size")
    _add_metric_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--levels", default="auto")
    p.add_argument("--dump", action="store_true", help="print a witness decomposition when feasible")
    p.add_argument("--out", help="verdict JSON path")

    p = sub.add_parser("simulate", help="program an array and run query searches")
    p.add_argument("--encoding", required=True)
    p.add_argument("--stored", required=True, help="CSV of stored symbol vectors")
    p.add_argument("--queries", required=True, help="CSV of query symbol vectors")
    _add_device_flags(p)
    p.add_argument("--out", help="results CSV path")

    p = sub.add_parser("mc", help="Monte-Carlo winner accuracy under device variation")
    p.add_argument("--encoding", required=True)
    p.add_argument("--stored", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--expected", help="CSV of expected winner rows (default: ideal winners)")
    p.add_argument("--runs", type=_int_at_least(1), default=100)
    p.add_argument("--threads", type=_int_at_least(1), default=1, help="Monte-Carlo worker cap")
    _add_device_flags(p)
    p.add_argument("--out", help="per-run outcome CSV path")
    p.add_argument("--report", help="summary JSON path")

    p = sub.add_parser("bench", help="KNN or HDC pipeline on a dataset")
    p.add_argument("--pipeline", choices=["knn", "hdc"], required=True)
    p.add_argument("--dataset", choices=["synthetic", "mnist", "csv"], default="synthetic")
    p.add_argument("--data-root", help="directory with MNIST IDX files")
    p.add_argument("--train-csv")
    p.add_argument("--test-csv")
    p.add_argument("--train-size", type=int, default=1000)
    p.add_argument("--test-size", type=int, default=200)
    _add_metric_flags(p)
    p.add_argument("--levels", default="auto")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--kq", type=_int_at_least(1), default=1)
    p.add_argument("--dimension", type=_int_at_least(1), default=1024)
    p.add_argument("--epochs", type=_int_at_least(0), default=0)
    _add_device_flags(p)
    p.add_argument("--out", help="summary JSON path")
    p.add_argument("--predictions", help="per-query prediction CSV path")

    if defaults:
        flags = _flag_actions(parser)
        unknown = sorted(defaults.keys() - {a.dest for a in flags})
        if unknown:
            raise SystemExit2(f"config key {unknown[0]!r} matches no flag")
        for a in flags:
            if a.dest in defaults:  # a flag the file supplies is no longer required
                a.default, a.required = _config_value(a, defaults[a.dest]), False
    return parser


def _flag_actions(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    """Every flag of the parser and of its subcommands."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for p in (parser, *sub.choices.values()) for a in p._actions if a.option_strings]


def _command_line_dests(argv: list[str]) -> set[str]:
    """The dests of the flags that argv itself gives, not a config file or a default."""
    parser = build_parser()
    for a in _flag_actions(parser):
        a.default, a.required = argparse.SUPPRESS, False
    return set(vars(parser.parse_args(argv)))


def _config_defaults(argv: list[str]) -> dict | None:
    """Flag defaults from the --config file named before the subcommand, if any."""
    pre = _Parser(prog="dmcam", add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)  # the subcommand and its flags
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return None
    try:
        defaults = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise SystemExit2(f"{path}: config file must hold a JSON object of flag defaults")
    return defaults


def _config_value(action: argparse.Action, value):
    """A config file's value for one flag, refused (exit 3) where the flag would refuse it.

    Only a switch such as --dump takes a boolean. A number must be one the
    flag's type reads back from its text, so 2.5 fails an int flag just as
    --bits 2.5 does; argparse types a string itself.
    """
    if action.nargs == 0 or isinstance(value, bool):
        valid = action.nargs == 0 and isinstance(value, bool)
    elif isinstance(value, (int, float)) and action.type:
        try:
            valid = action.type(str(value)) == value
        except (ValueError, argparse.ArgumentTypeError):
            valid = False
    else:
        valid = isinstance(value, str) or (value is None and action.default is None)
    if not valid or (action.choices is not None and value not in action.choices):
        raise SystemExit2(f"config key {action.dest!r}: invalid value {value!r} "
                          f"for {action.option_strings[-1]}")
    return value


def _config_dict(args: argparse.Namespace) -> dict:
    """Full flag set of this run, embedded in every report."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "config"}


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _dm_from_args(args: argparse.Namespace):
    if args.custom:
        return load_custom_dm(args.custom)
    if not args.metric:
        raise SystemExit2("one of --metric or --custom is required")
    return build_dm(DistanceSpec(MetricKind(args.metric), args.bits))


class SystemExit2(Exception):
    """Usage-level problem detected after parsing."""


def _levels_from_args(args: argparse.Namespace, dm) -> CurrentRange:
    if args.levels == "auto":
        return CurrentRange.covering(dm.max_entry)
    return CurrentRange.parse(args.levels)


def _variation_from_args(args: argparse.Namespace):
    from .device import VariationParams

    return VariationParams(args.sigma_vth, args.sigma_r, args.seed)  # zero sigmas: a nominal array


def _ladder_from_args(args: argparse.Namespace) -> VoltageLadder:
    return VoltageLadder(**{f.name: getattr(args, f.name) for f in dataclasses.fields(VoltageLadder)})


def _load_symbols(path: str, levels: int, error: str, width: int | None = None):
    """A symbol CSV as checked symbols; one outside [0, levels) raises ValueError naming the file."""
    from .crossbar import checked_symbols

    rows = csv_rows(read_input(path), path, width=width, cell="symbol")
    try:
        return checked_symbols(rows, levels, error)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _json_dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def cmd_dm(args) -> int:
    _write_or_print(dm_to_csv(_dm_from_args(args)), args.out)
    return EXIT_OK


def cmd_compile(args) -> int:
    dm = _dm_from_args(args)
    cr = _levels_from_args(args, dm)
    # --k probes exactly that size and ignores --k-max
    k_min, k_max = (args.k, args.k) if args.k is not None else (1, args.k_max)
    t0 = time.perf_counter()
    result = compile_dm(dm, cr, k_min=k_min, k_max=k_max, budget=args.budget)
    elapsed = time.perf_counter() - t0
    encoding = result.encoding
    report = {
        "config": _config_dict(args),
        "levels": list(cr.multiples),
        "probes": [
            {
                "k": p.k,
                "status": p.status,
                "feasible": p.feasible,
                "domain_sizes": list(p.domain_sizes),
                "pruned_domain_sizes": list(p.pruned_sizes),
            }
            for p in result.probes
        ],
        "min_k": result.k,
        "feasible": result.feasible,
    }
    if encoding is not None:
        report["verify"] = result.verify.to_dict()
        _write_or_print(export_encoding(encoding), args.out)
        if args.table:
            bits = args.bits if not args.custom else None
            Path(args.table).write_text(encoding_table_csv(encoding, bits))
    if args.report:
        Path(args.report).write_text(_json_dump(report))
    print(f"# {'feasible' if result.feasible else 'infeasible'} "
          f"(k={result.k}) in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_verify(args) -> int:
    dm = _dm_from_args(args)
    encoding = load_encoding(args.encoding)
    report = verify_encoding(encoding, dm)
    payload = {"config": _config_dict(args), **report.to_dict()}
    _write_or_print(_json_dump(payload), args.out)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def cmd_oracle(args) -> int:
    dm = _dm_from_args(args)
    cr = _levels_from_args(args, dm)
    feasible, witness = brute_force_feasible(dm, args.k, cr, return_witness=True)
    payload = {
        "config": _config_dict(args),
        "feasible": feasible,
        "levels": list(cr.multiples),
    }
    if args.dump and witness is not None:
        payload["witness"] = [[list(row) for row in mat] for mat in witness]
    _write_or_print(_json_dump(payload), args.out)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _array_inputs(args):
    """The encoding, stored rows, query rows and ladder that simulate and mc program."""
    encoding = load_encoding(args.encoding)
    stored = _load_symbols(args.stored, encoding.n, "stored symbols must lie in [0, n)")
    queries = _load_symbols(args.queries, encoding.m, "query symbols must lie in [0, m)",
                            width=stored.shape[1])
    return encoding, stored, queries, _ladder_from_args(args)


def _config_line(args) -> str:
    return "# config: " + json.dumps(_config_dict(args), sort_keys=True, default=str) + "\n"


def cmd_simulate(args) -> int:
    from .crossbar import Crossbar

    encoding, stored, queries, ladder = _array_inputs(args)
    cb = Crossbar(encoding, stored, ladder, variation=_variation_from_args(args))
    lines = ["query,row,current_a,current_units,winner"]
    found = cb.search(queries)
    for qi, (currents, winner) in enumerate(zip(found.row_currents.tolist(), found.winner)):
        for row, current in enumerate(currents):
            units = current / ladder.unit_current
            lines.append(f"{qi},{row},{current:.12e},{units:.6f},{int(row == winner)}")
    _write_or_print(_config_line(args) + "\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_mc(args) -> int:
    from .crossbar import Crossbar, monte_carlo

    encoding, stored, queries, ladder = _array_inputs(args)
    if args.expected:
        bound = f"expected winners must lie in [0, {len(stored)})"
        expected = _load_symbols(args.expected, len(stored), bound, width=1)[:, 0]
        if len(expected) != len(queries):
            raise ValueError(f"{args.expected}: one expected winner per query is required, "
                             f"got {len(expected)} for {len(queries)} queries")
    else:
        expected = [row for (row,) in Crossbar(encoding, stored, ladder).knn(queries, 1)]
    result = monte_carlo(
        encoding, stored, queries, expected, _variation_from_args(args), args.runs,
        ladder=ladder, workers=args.threads,
    )
    if args.out:
        Path(args.out).write_text(_config_line(args) + result.to_csv())
    report = {
        "config": _config_dict(args),
        "accuracy": result.accuracy,
        "runs": result.runs,
        "queries": len(queries),
    }
    _write_or_print(_json_dump(report), args.report)
    return EXIT_OK


def _load_bench_dataset(args):
    from . import datasets

    if args.dataset == "mnist":
        if not args.data_root:
            raise SystemExit2("--data-root is required for --dataset mnist")
        return datasets.load_mnist(args.data_root, args.train_size, args.test_size, args.seed)
    if args.dataset == "csv":
        if not (args.train_csv and args.test_csv):
            raise SystemExit2("--train-csv and --test-csv are required for --dataset csv")
        return datasets.load_csv_dataset(args.train_csv, args.test_csv)
    return datasets.synthetic_digits(args.train_size, args.test_size, seed=args.seed)


def _bench_unread(args) -> dict[str, str]:
    """The bench flags this run does not read, each with the flag setting that leaves it unread."""
    pipeline, dataset = f"--pipeline {args.pipeline}", f"--dataset {args.dataset}"
    # hdc draws its projection, synthetic and mnist their split, a sigma its devices
    draws = args.pipeline == "hdc" or args.dataset != "csv" or args.sigma_vth or args.sigma_r
    reads = {"seed": (draws, f"{pipeline} {dataset} --sigma-vth 0 --sigma-r 0"),
             "kq": (args.pipeline == "knn", pipeline),
             "dimension": (args.pipeline == "hdc", pipeline),
             "epochs": (args.pipeline == "hdc", pipeline),
             "data_root": (args.dataset == "mnist", dataset),
             "train_size": (args.dataset != "csv", dataset),  # a CSV split is read whole
             "test_size": (args.dataset != "csv", dataset),
             "train_csv": (args.dataset == "csv", dataset),
             "test_csv": (args.dataset == "csv", dataset)}
    return {dest: setting for dest, (read, setting) in reads.items() if not read}


def cmd_bench(args) -> int:
    from . import apps

    dm = _dm_from_args(args)
    if min(dm.m, dm.n) < 2 ** args.bits:  # a negative --bits is left to the quantizer
        raise SystemExit2(f"--bits {args.bits} needs at least {2 ** args.bits} search and stored "
                          f"symbols; the {dm.m}x{dm.n} matrix has too few")
    ds = _load_bench_dataset(args)
    if args.pipeline == "knn" and args.kq > len(ds.train_x):
        raise SystemExit2(f"--kq {args.kq} exceeds the {len(ds.train_x)} training rows")
    cr = _levels_from_args(args, dm)
    compiled = compile_dm(dm, cr, k_max=args.k_max)
    if not compiled.feasible:
        print("# compilation infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    ladder = _ladder_from_args(args)
    variation = _variation_from_args(args)
    unread = _bench_unread(args)
    summary = {
        "config": {k: v for k, v in _config_dict(args).items() if k not in unread},
        "dataset": ds.name,
        "train_size": len(ds.train_x),
        "test_size": len(ds.test_x),
        "min_k": compiled.k,
    }
    if args.pipeline == "knn":
        report = apps.knn_classify(
            ds.train_x, ds.train_y, ds.test_x, ds.test_y,
            dm=dm, encoding=compiled.encoding, bits=args.bits, kq=args.kq,
            ladder=ladder, variation=variation,
        )
        summary["degradation_pp"] = report.degradation_pp
    else:
        model = apps.hdc_train(ds, args.dimension, args.bits, args.epochs, args.seed)
        cb = apps.hdc_class_crossbar(model, compiled.encoding, ladder, variation)
        report = apps.hdc_evaluate(model, ds.test_x, ds.test_y, cb, dm)
        summary["corrections"] = list(model.corrections)
    summary.update(report.to_dict())
    if args.predictions:
        predictions = zip(report.predictions_hw, report.predictions_sw, ds.test_y)
        lines = ["query,predicted_hw,predicted_sw,label"]
        lines += [f"{i},{hw},{sw},{label}" for i, (hw, sw, label) in enumerate(predictions)]
        Path(args.predictions).write_text("\n".join(lines) + "\n")
    _write_or_print(_json_dump(summary), args.out)
    return EXIT_OK


_COMMANDS = {
    "dm": cmd_dm,
    "compile": cmd_compile,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "mc": cmd_mc,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(_config_defaults(argv)).parse_args(argv)
        if args.command == "bench":  # a config file may hold keys one run does not read
            unread = _bench_unread(args)
            given = sorted(_command_line_dests(argv) & unread.keys())
            if given:
                flag = "--" + given[0].replace("_", "-")
                raise SystemExit2(f"{flag} is not read with {unread[given[0]]}")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse exits (usage errors, --help)
        return int(exc.code) if exc.code is not None else 0
    except SystemExit2 as exc:
        print(f"dmcam: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"dmcam: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"dmcam: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"dmcam: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"dmcam: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
