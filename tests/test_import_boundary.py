"""The compiler starts without numpy: `import dmcam`, `dmcam --help` and the
dm, compile, verify and oracle subcommands load none of the simulator
modules, which load on first use instead.

Each check runs in a fresh interpreter, because this test process has long
since imported numpy. Nothing here asserts a time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import GOLDEN_PATH

SRC = Path(__file__).resolve().parents[1] / "src"
SIMULATOR = ("numpy", "dmcam.device", "dmcam.crossbar", "dmcam.datasets", "dmcam.apps")

# Runs dmcam.cli.main on its argv, then prints which simulator modules were
# loaded as the last line of stderr and exits with main's code.
_RUN_CLI = f"""
import json, sys
from dmcam.cli import main
code = main(sys.argv[1:])
print(json.dumps([m for m in {SIMULATOR!r} if m in sys.modules]), file=sys.stderr)
sys.exit(code)
"""


def _python(code, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def _cli(*argv, cwd=None):
    """(exit code, simulator modules loaded) of one dmcam command in a fresh interpreter."""
    proc = _python(_RUN_CLI, *argv, cwd=cwd)
    try:
        return proc.returncode, json.loads(proc.stderr.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        pytest.fail(f"dmcam {' '.join(argv)} ended without its module list:\n{proc.stderr}")


def test_import_loads_no_simulator_module():
    proc = _python(f"import sys, dmcam; print([m for m in {SIMULATOR!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["dm", "--metric", "hamming", "--bits", "2"],
    ["compile", "--metric", "hamming", "--bits", "2"],
    ["verify", "--metric", "hamming", "--bits", "2", "--encoding", str(GOLDEN_PATH)],
    ["oracle", "--metric", "hamming", "--bits", "2", "--levels", "0,1,2", "--k", "3"],
], ids=["help", "dm", "compile", "verify", "oracle"])
def test_compiler_commands_load_no_simulator_module(argv):
    assert _cli(*argv) == (0, [])


_LAZY_NAMES = """
import inspect, sys, dmcam
listed = set(dir(dmcam))
assert {*dmcam._LAZY, *dmcam._LAZY_HOME, *dmcam.__all__} <= listed, "dir() misses a name"
assert "numpy" not in sys.modules, "dir() loaded numpy"
for name in dmcam.__all__:
    module = dmcam._LAZY_HOME.get(name)
    if module is not None:
        assert getattr(dmcam, name) is getattr(sys.modules["dmcam." + module], name), name
for module in dmcam._LAZY:
    assert getattr(dmcam, module) is sys.modules["dmcam." + module]
# __all__ names every public name the package binds, once
bound = {n for n, v in vars(dmcam).items() if not n.startswith("_") and not inspect.ismodule(v)}
assert len(set(dmcam.__all__)) == len(dmcam.__all__)
assert set(dmcam.__all__) == bound | dmcam._LAZY_HOME.keys()
namespace = {}
exec("from dmcam import *", namespace)
assert set(dmcam.__all__) <= namespace.keys()
try:
    dmcam.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""


def test_every_exported_name_resolves_on_first_use():
    proc = _python(_LAZY_NAMES)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture()
def array_files(tmp_path):
    (tmp_path / "stored.csv").write_text("0,0\n3,3\n1,2\n")
    (tmp_path / "queries.csv").write_text("0,0\n1,2\n")
    return ["--encoding", str(GOLDEN_PATH), "--stored", "stored.csv", "--queries", "queries.csv"]


def test_simulate_and_mc_load_the_array_but_not_the_pipelines(tmp_path, array_files):
    array = ["numpy", "dmcam.device", "dmcam.crossbar"]
    assert _cli("simulate", *array_files, "--sigma-vth", "0.05", cwd=tmp_path) == (0, array)
    assert _cli("mc", *array_files, "--runs", "2", "--sigma-vth", "0.05", cwd=tmp_path) == (0, array)


def test_bench_loads_the_simulator():
    assert _cli("bench", "--pipeline", "knn", "--metric", "hamming", "--bits", "2",
                "--train-size", "20", "--test-size", "5") == (0, list(SIMULATOR))
