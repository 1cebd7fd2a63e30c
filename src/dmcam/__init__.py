"""dmcam: compile integer distance functions onto multi-FeFET associative
memory cells and simulate nearest-neighbor search on a variation-aware
crossbar model.

The compiler layer (metric, solver, encoder, compiler) is pure Python and
loads with the package. The simulator layer (device, crossbar, datasets,
apps) needs numpy; its modules and the names re-exported from them load on
first use (PEP 562), so ``import dmcam`` and the compiler subcommands of
the CLI start without numpy.
"""

from .metric import DistanceMatrix, DistanceSpec, MetricKind, build_dm, load_custom_dm
from .solver import (
    BudgetExceededError,
    CurrentRange,
    FeasibleRegion,
    GlobalAssignment,
    RowAssignment,
    ac3,
    backtrack_row,
    brute_force_feasible,
    decompose_dm,
    extract_solution,
    solve_fixed_k,
)
from .encoder import (
    DEFAULT_LADDER,
    VoltageEncoding,
    VoltageLadder,
    derive_encoding,
    export_encoding,
    import_encoding,
    verify_encoding,
)
from .compiler import CompileResult, compile_dm

# Simulator module -> the names the package re-exports from it.
_LAZY = {
    "device": ("VariationParams", "conduct", "sample_variation"),
    "crossbar": ("Crossbar", "MonteCarloResult", "QueryResult", "monte_carlo"),
    "datasets": ("Dataset", "load_csv_dataset", "load_idx", "load_mnist", "synthetic_digits"),
    "apps": ("HDCModel", "Quantizer", "hdc_class_crossbar", "hdc_evaluate", "hdc_train",
             "knn_classify"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "DistanceMatrix", "DistanceSpec", "MetricKind", "build_dm", "load_custom_dm",
    "BudgetExceededError", "CurrentRange", "FeasibleRegion", "GlobalAssignment",
    "RowAssignment", "ac3", "backtrack_row", "brute_force_feasible", "decompose_dm",
    "extract_solution", "solve_fixed_k",
    "DEFAULT_LADDER", "VoltageEncoding", "VoltageLadder", "derive_encoding",
    "export_encoding", "import_encoding", "verify_encoding",
    "CompileResult", "compile_dm",
    *_LAZY_HOME,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _LAZY else _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})
