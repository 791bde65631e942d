"""Benchmark of enmeas: one workload, one seed, one run.

    python3 perfbench/run.py --workload membership-flip --seed 1 --seconds 20 --trace 0

Run from the repository root; enmeas is imported from ./src. A run sets
up (imports enmeas, makes the seeded inputs, warms up), then repeats
whole passes of the workload's fixed operation list until --seconds have
elapsed, checks every pass's outputs, and prints one JSON object as the
last line of standard output. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it wraps the layers and reports the per-layer
metrics per pass, and writes the spans to perfbench/results/.
"""

import os

# one BLAS thread: the blocks are at most a few rows wide, and threads only
# add contention on a small machine; this must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["membership-flip", "diamond-distance", "phi-curve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only and print the set-up time (used by the runner)")
    return ap.parse_args()


def set_up(args):
    """Import enmeas from ./src, make the inputs and warm up."""
    if not (SRC / "enmeas" / "__init__.py").is_file():
        sys.exit(f"error: enmeas sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import enmeas
    if Path(enmeas.__file__).resolve().parent != (SRC / "enmeas").resolve():
        sys.exit(f"error: imported enmeas from {enmeas.__file__}, not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    return wl


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running this script's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_passes(wl, seconds: float):
    """Whole passes until ``seconds`` have elapsed; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass())
        if time.perf_counter() - t0 >= seconds:
            return passes, time.perf_counter() - t0


def interquartile_mean(times) -> float:
    """Mean of the middle half of the sorted operation times."""
    s = sorted(times)
    n = len(s)
    if n < 4:
        return statistics.fmean(s) if s else 0.0
    return statistics.fmean(s[n // 4: n - n // 4])


def check(wl, passes) -> bool:
    reference = wl.reference()
    ok = True
    for i, p in enumerate(passes):
        for err in wl.errors(p.outputs, reference):
            print(f"check failed, pass {i}: {err}", file=sys.stderr)
            ok = False
    return ok


def main() -> int:
    args = parse_args()
    wl = set_up(args)
    setup_s = time.perf_counter() - START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            passes, wall = run_passes(wl, args.seconds)
        finally:
            tracer.restore()
        values = tracing.per_layer(tracer, len(passes))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.METRICS.items()}
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": len(passes),
            "seconds_per_pass": wall / len(passes),
            "per_pass": values, "layers": tracer.layers(),
            "counts": dict(tracer.counts), "spans": tracer.span_records(),
        }, indent=1))
        print(f"# trace written to {path.relative_to(HERE.parent)}")
    else:
        # two more set-ups in fresh interpreters, one on each side of the
        # timed passes, so the three samples meet the machine at three times
        setups = [setup_s, probe_setup(args)]
        passes, wall = run_passes(wl, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups.append(probe_setup(args))
        times = [t for p in passes for t in p.times]
        metrics = {
            "ops_per_s": {"value": len(times) / wall, "unit": "1/s"},
            "op_iqm_ms": {"value": 1e3 * interquartile_mean(times), "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    attempted = sum(len(p.times) + p.failed for p in passes)
    failed = sum(p.failed for p in passes)
    correct = check(wl, passes)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed, correct={correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
