"""The traced benchmark wraps dmcam callables by name: each must still exist
and still be called.

A deleted or renamed callable, or a layer its workload stops calling, fails
here instead of only in a traced benchmark run. perfbench/ is read and run,
never changed; a run writes only into the git-ignored perfbench/out/.
"""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_traced_target_resolves_to_a_callable():
    targets = runpy.run_path(str(SPANS), run_name="perfbench_spans")["TARGETS"]
    assert targets
    for target in targets:
        obj = importlib.import_module(target.module)
        for name in target.attr.split("."):
            obj = getattr(obj, name, None)
            assert obj is not None, f"{target.layer}: no {target.module}.{target.attr}"
        assert callable(obj), f"{target.layer}: {target.module}.{target.attr} is not callable"


@pytest.mark.parametrize("workload", ["compile", "knn", "hdc", "mc"])
def test_traced_smoke_run_passes(workload):
    # run.py exits non-zero when an output check never ran or a primary layer
    # of the workload recorded no call.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
