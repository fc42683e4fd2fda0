"""Run the benchmark over several seeds and condense the runs into one JSON summary.

    python3 benchmarks/collect.py --seeds 1-10 --trace 0 --out .bench_out/untraced.json
    python3 benchmarks/collect.py --seeds 1-3 --trace 1
    python3 benchmarks/collect.py --compare first.json second.json

Every workload of ``BENCHMARK.json`` is run for its ``run_seconds``.
For every workload and metric it reports the values, their median and
quartiles, and the spread (interquartile distance over median).  Untraced
runs also compare each spread with a third of the metric's bound in
``BENCHMARK.json``, the steadiness the benchmark is held to.  Runs are
sequential, one process at a time.  ``--compare`` reads two untraced
summaries and reports, per workload and metric, by what share the second
median is worse than the first, against the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound=None):
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "values": values}
    if median:
        out["spread"] = (q3 - q1) / abs(median)
        if bound is not None:
            out["bound"] = bound
            out["steady"] = out["spread"] < bound / 3
    return out


def machine():
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def compare(first, second, spec):
    """Per workload and metric: share by which ``second``'s median is worse than ``first``'s."""
    out = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        for workload, stats in first["workloads"].items():
            a = stats["metrics"][name]["median"]
            b = second["workloads"][workload]["metrics"][name]["median"]
            worse = sign * (b - a) / a
            out.setdefault(workload, {})[name] = {
                "worse_by": worse, "bound": metric["bound"], "within": worse <= metric["bound"],
            }
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here (default: stdout only)")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two untraced summaries instead of running")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        sys.stdout.write(json.dumps(compare(first, second, spec), indent=1) + "\n")
        return

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    summary = {"machine": machine(), "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                m["name"]: {
                    "unit": m["unit"],
                    **summarize(
                        [r["metrics"][m["name"]]["value"] for r in runs],
                        None if args.trace else bounds[m["name"]],
                    ),
                }
                for m in declared
            },
        }
        for name, stats in summary["workloads"][workload]["metrics"].items():
            print(f"  {workload:11s} {name:32s} median {stats['median']:14.6g} "
                  f"spread {stats.get('spread', 0.0):7.4f} {'' if stats.get('steady', True) else 'UNSTEADY'}",
                  file=sys.stderr)
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
