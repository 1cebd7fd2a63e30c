"""Check the benchmark itself at tiny sizes, in well under a minute.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --smoke`` with tracing off and on and
asserts that the last line of output is the result object, with exactly the
metric names and units BENCHMARK.json declares for that mode. run.py itself
exits non-zero when one of a workload's output checks never ran or when a
layer that is primary for the workload recorded no call. Last, it runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark's
files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(ok: bool, message) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {message}")


def run(cwd: Path, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
            expect(result["correct"] is True and result["attempted"] >= 1, result)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == declared[trace], f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            print(f"ok  {workload:<8} trace {trace}  {len(printed)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "knn", 0, smoke=False)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"), "bare directory produced a result")
        print(f"ok  without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
