import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dmcam.compiler import compile_dm
from dmcam.datasets import IDX_UBYTE, Dataset, load_mnist, synthetic_digits
from dmcam.encoder import load_encoding
from dmcam.metric import DistanceSpec, MetricKind, build_dm
from dmcam.solver import CurrentRange

DATA_DIR = Path(__file__).parent / "data"

# Published 3-branch encoding of the 2-bit Hamming matrix, hand-entered.
GOLDEN_PATH = DATA_DIR / "hamming2_3fet_golden.json"


@pytest.fixture(scope="session")
def golden_encoding():
    return load_encoding(GOLDEN_PATH)


@pytest.fixture(scope="session")
def hamming_dm():
    return build_dm(DistanceSpec(MetricKind.HAMMING, 2))


@pytest.fixture(scope="session")
def manhattan_dm():
    return build_dm(DistanceSpec(MetricKind.MANHATTAN, 2))


@pytest.fixture(scope="session")
def sq_euclid_dm():
    return build_dm(DistanceSpec(MetricKind.SQ_EUCLIDEAN, 2))


@pytest.fixture(scope="session")
def hamming_compiled(hamming_dm):
    result = compile_dm(hamming_dm, CurrentRange((0, 1, 2)), k_max=4)
    assert result.feasible
    return result


@pytest.fixture(scope="session")
def manhattan_compiled(manhattan_dm):
    result = compile_dm(manhattan_dm, k_max=6)
    assert result.feasible
    return result


@pytest.fixture(scope="session")
def sq_euclid_compiled(sq_euclid_dm):
    result = compile_dm(sq_euclid_dm, k_max=6)
    assert result.feasible
    return result


# Prints the peak resident set size of this process image in KB on the last
# line of stderr at exit: VmHWM, which starts afresh at exec, where ru_maxrss
# would keep the peak of the forking test process.
_REPORT_PEAK = """
import atexit, sys
atexit.register(lambda: print(next(line.split()[1] for line in open("/proc/self/status")
                                   if line.startswith("VmHWM:")), file=sys.stderr))
"""


@pytest.fixture(scope="session")
def peak_rss_mb():
    """Runs Python code (and its argv) in a fresh interpreter that imports dmcam
    from this tree, asserts it exits 0 and returns its peak resident set in MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(code, *args):
        proc = subprocess.run([sys.executable, "-c", _REPORT_PEAK + code, *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stderr.split()[-1]) / 1024

    return run


def write_idx(path, array) -> None:
    """Write an unsigned-byte IDX file (inverse of dmcam.datasets.load_idx)."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(bytes([0, 0, IDX_UBYTE, arr.ndim]))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def synthetic_digits_via_idx(tmpdir, **kwargs) -> Dataset:
    """Synthetic corpus written to IDX files and read back through load_mnist.

    Round-trips the real ingestion path so IDX parsing is exercised even
    without the original files.
    """
    ds = synthetic_digits(**kwargs)
    root = Path(tmpdir)
    root.mkdir(parents=True, exist_ok=True)
    side = int(round(float(np.sqrt(ds.feature_count))))
    if side * side != ds.feature_count:
        raise ValueError("feature count must be a perfect square to write image files")
    write_idx(root / "train-images-idx3-ubyte",
              np.round(ds.train_x).reshape(-1, side, side).astype(np.uint8))
    write_idx(root / "train-labels-idx1-ubyte", ds.train_y.astype(np.uint8))
    write_idx(root / "t10k-images-idx3-ubyte",
              np.round(ds.test_x).reshape(-1, side, side).astype(np.uint8))
    write_idx(root / "t10k-labels-idx1-ubyte", ds.test_y.astype(np.uint8))
    loaded = load_mnist(root)
    loaded.name = "synthetic"
    return loaded


def spy_exact_sums(cb) -> list:
    """Records each exact varied sum on cb as (queries, rows summed), rows None for every row.

    A ranked search sums only its candidates, one query at a time; one whose
    bound does not hold sums every row.
    """
    calls = []
    exact_sums = cb._exact_sums

    def spy(batch, rows=slice(None)):
        calls.append((len(batch), None if isinstance(rows, slice) else len(rows)))
        return exact_sums(batch, rows)

    cb._exact_sums = spy
    return calls
