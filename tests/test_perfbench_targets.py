"""The traced benchmark wraps dmcam callables by name: each must still exist.

A deleted or renamed callable fails here instead of only in a traced
benchmark run. perfbench/spans.py is read, never changed.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves_to_a_callable():
    targets = runpy.run_path(str(SPANS), run_name="perfbench_spans")["TARGETS"]
    assert targets
    for target in targets:
        obj = importlib.import_module(target.module)
        for name in target.attr.split("."):
            obj = getattr(obj, name, None)
            assert obj is not None, f"{target.layer}: no {target.module}.{target.attr}"
        assert callable(obj), f"{target.layer}: {target.module}.{target.attr} is not callable"
