"""dmcam benchmark: one workload per process, inputs from a seed, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload {compile,knn,hdc,mc} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics, measured with tracing off. With
``--trace 1`` they are the per-layer metrics of spans.py, from a run whose
units each execute once untraced and once traced, so that the difference
gives the tracing overhead. The lines before it give the workload's own
metrics by name and unit in host time, each timing as a median plus the
highest percentile with at least ten samples beyond it, and the sample
count. The gated timings ``pass_ref_s`` and ``items_per_ref_s`` are the same
measurements scaled to the reference host speed (see hostspeed.py).

``--smoke`` shrinks every workload to a size that runs in seconds; smoke.py
uses it to check the benchmark itself.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# ref_s: seconds scaled to the reference host speed of hostspeed.py.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_ref_s", "ref_s"),
              ("items_per_ref_s", "1/ref_s"))


def import_in_fresh_interpreter() -> None:
    """Start a fresh interpreter that imports dmcam, as every CLI call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", "import dmcam"], env=env, check=True, timeout=120)


def tail(values: list[float]):
    """(p, value) of the highest of p99.9/p99/p95/p90/p50 with at least ten
    samples beyond it (nearest rank), or None when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def timing_text(values: list[float]) -> str:
    text = f"median {statistics.median(values):.6g} s"
    found = tail(values)
    if found:
        text += f", p{found[0]:g} {found[1]:.6g} s"
    return text + f", n={len(values)}"


def report_lines(wl, setup_s: list[float], setup_ref_s: list[float], peak_rss_mb: float,
                 kernel_s: list[float]) -> list[str]:
    t = wl.tally
    lines = [
        f"workload {wl.name}  seed {wl.seed}  dimensions: {wl.dimensions()}",
        f"  host speed             {wl.KIND} kernel on {wl.THREADS} thread(s): {timing_text(kernel_s)} "
        f"(nominal {hostspeed.NOMINAL_S[wl.KIND]:g} s)",
    ]
    if setup_s:
        lines.append(f"  setup_s                {statistics.median(setup_ref_s):.6g} s at reference speed  "
                     f"(host: {timing_text(setup_s)})")
    lines += [
        f"  peak_rss_mb            {peak_rss_mb:.6g} MB",
        f"  failed_share           {t.failed / max(t.attempted, 1):.6g} share  "
        f"({t.failed} of {t.attempted}; {t.wrong} not the known tie-order defect)",
    ]
    for name in wl.SERIES:
        samples = t.series[name]
        if not samples:
            lines.append(f"  {name:<22} no samples")
        elif name.endswith("_per_s"):
            latency = [s / n for s, n, _ in samples if n]
            lines.append(f"  {name:<22} {t.rate(name):.6g} 1/s  (per item: {timing_text(latency)})"
                         if latency else f"  {name:<22} 0 1/s")
        else:
            lines.append(f"  {name:<22} {t.median(name):.6g} s  ({timing_text([s for s, _, _ in samples])})")
    for name, value, unit in wl.extra_metrics():
        lines.append(f"  {name:<22} {value:.6g} {unit}")
    lines.append("  checks: " + " ".join(f"{name}={t.checks[name]}" for name in wl.CHECKS))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="compile, knn, hdc or mc")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for checking the benchmark")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dmcam" / "__init__.py").is_file():
        print(f"perfbench: no dmcam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    tracer = spans.Tracer() if args.trace else None

    def next_op() -> None:
        tracer.op += 1

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, next_op if tracer else lambda: None)
    if tracer:
        tracer.install()

    # Set-up is repeated and reported as a median, each time scaled to the
    # reference speed by the Python kernel, since imports and compiles are
    # Python work. The traced run sets up once, with tracing on, so that
    # set-up layers show in the trace.
    setup_s, setup_ref_s = [], []
    if tracer:
        tracer.enabled = True
        wl.setup()
        tracer.enabled = False
    for _ in range(0 if tracer else SETUP_REPEATS):
        before = hostspeed.measure("python")
        t0 = time.perf_counter()
        import_in_fresh_interpreter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
        speed = (before + hostspeed.measure("python")) / 2
        setup_ref_s.append(setup_s[-1] * hostspeed.NOMINAL_S["python"] / speed)
    wl.check_setup()

    plain_s = traced_s = 0.0
    kernel_s = [hostspeed.measure(wl.KIND, wl.THREADS)]
    deadline = time.perf_counter() + args.seconds
    u = 0
    while True:
        # Start every unit from a collected heap, so that garbage left by
        # the previous unit's inputs is not charged to this one.
        gc.collect()
        if tracer:
            # Alternate which copy runs first so warm-up favours neither.
            for traced in ((False, True) if u % 2 == 0 else (True, False)):
                tracer.enabled = traced
                t0 = time.perf_counter()
                out = wl.run_unit(u)
                elapsed = time.perf_counter() - t0
                tracer.enabled = False
                if traced:
                    result, traced_s = out, traced_s + elapsed
                else:
                    plain_s += elapsed
        else:
            result = wl.run_unit(u)
            kernel_s.append(hostspeed.measure(wl.KIND, wl.THREADS))
            wl.tally.scale = hostspeed.NOMINAL_S[wl.KIND] / ((kernel_s[-2] + kernel_s[-1]) / 2)
        wl.check(result)
        u += 1
        if u % wl.CYCLE == 0 and u >= wl.min_units and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    missing = [name for name in wl.CHECKS if wl.tally.checks[name] == 0]
    if missing:
        print(f"perfbench: output checks never ran on {wl.name}: {', '.join(missing)}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(wl, setup_s, setup_ref_s, peak_rss_mb, kernel_s)))
    print(f"  units                  {u}")

    if tracer:
        tracer.uninstall()
        silent = tracer.silent_layers(wl.name)
        if silent:
            print(f"perfbench: no calls recorded on {wl.name} for {', '.join(silent)}", file=sys.stderr)
            return 1
        span_file = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl"
        tracer.write(span_file)
        print(f"  spans                  {len(tracer.spans)} written to {span_file.relative_to(HERE.parent)}")
        metrics = tracer.layer_metrics(traced_s / plain_s - 1.0)
    else:
        t = wl.tally
        values = {
            "setup_s": statistics.median(setup_ref_s),
            "peak_rss_mb": peak_rss_mb,
            "pass_ref_s": t.median(wl.PASS, scaled=True) if t.series[wl.PASS] else 0.0,
            "items_per_ref_s": t.rate(wl.ITEMS, scaled=True) if t.series[wl.ITEMS] else 0.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    print(json.dumps({
        "correct": wl.tally.wrong == 0,
        "attempted": wl.tally.attempted,
        "failed": wl.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
