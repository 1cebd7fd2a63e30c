"""dmcam: compile integer distance functions onto multi-FeFET associative
memory cells and simulate nearest-neighbor search on a variation-aware
crossbar model."""

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
    find_min_k,
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
from .device import VariationParams, conduct, sample_variation
from .crossbar import Crossbar, MonteCarloResult, QueryResult, monte_carlo
from .compiler import CompileResult, compile_dm
from .datasets import Dataset, load_csv_dataset, load_idx, load_mnist, synthetic_digits
from .apps import (
    HDCModel,
    Quantizer,
    hdc_class_crossbar,
    hdc_evaluate,
    hdc_train,
    knn_classify,
)

__version__ = "0.1.0"
