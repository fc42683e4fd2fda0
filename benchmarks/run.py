"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload surface-2t --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; mixrank is imported
from the checkout's ``src`` directory, never from an installed copy.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with no
instrumentation, their times scaled to nominal host speed (``hostspeed.py``);
with ``--trace 1`` they are its per-layer metrics, from a
run whose first half is untraced and whose second half is traced, so that
tracing overhead can be reported.  Scratch files go under ``.bench_out/``
in the checkout; a traced run also leaves its spans there.
"""

import argparse
import functools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixrank"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
MIN_ITERATIONS = 3
MAX_REPORTED_ERRORS = 10
# Host-speed reference bursts: the shortest burst, the burst around each
# set-up, and the burst after an iteration as a share of the iteration's time.
REFERENCE_MIN_S = 0.1
REFERENCE_SETUP_S = 0.3
REFERENCE_SHARE = 0.15

clock = time.perf_counter


@functools.cache
def host_reference():
    return hostspeed.Reference()


def require_program():
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: mixrank sources not found at {PACKAGE}")


def load_program():
    """Import mixrank from this checkout's sources; exit if they are absent."""
    require_program()
    sys.path.insert(0, str(ROOT / "src"))
    import mixrank

    if Path(mixrank.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported mixrank from {mixrank.__file__}, not {PACKAGE}")
    return mixrank


def iteration_seed(seed, index):
    """Each iteration of a run gets its own CLI seed, so no result can be reused across them."""
    return seed * 10_000 + index


def timed_loop(workload, seed, seconds, first_index=0, min_iterations=MIN_ITERATIONS):
    """Closed loop: run iterations back to back while the next one fits in ``seconds``.

    Iteration seeds are numbered from ``first_index``, so that a second loop
    in the same run can carry on where the first one stopped.  A burst of the
    host-speed reference follows each iteration, and each iteration's
    ``host_scale`` comes from the bursts on either side of it.
    """
    reference = host_reference()
    iterations = []
    start = clock()
    before = reference.pass_seconds(REFERENCE_MIN_S)
    while True:
        it = workload.iteration(iteration_seed(seed, first_index + len(iterations)))
        after = reference.pass_seconds(max(REFERENCE_MIN_S, REFERENCE_SHARE * it.wall_s))
        it.host_scale = hostspeed.scale(before, after)
        before = after
        iterations.append(it)
        elapsed = clock() - start
        if len(iterations) >= min_iterations and elapsed * (1 + 1 / len(iterations)) > seconds:
            return iterations


def time_setup(workload_name, seed, samples=SETUP_SAMPLES):
    """Median seconds from starting a fresh interpreter to the end of the workload's warm-up.

    Each sample is scaled to nominal host speed by the reference bursts on
    either side of it.
    """
    reference = host_reference()
    before = reference.pass_seconds(REFERENCE_SETUP_S)
    times = []
    for _ in range(samples):
        start = clock()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload_name, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
        )
        elapsed = clock() - start
        after = reference.pass_seconds(REFERENCE_SETUP_S)
        times.append(elapsed * hostspeed.scale(before, after))
        before = after
    return statistics.median(times)


def end_to_end(iterations, setup_s):
    # Means over the whole run, not medians of iterations: the host's speed
    # switches between states lasting seconds to minutes, and a median jumps
    # with whichever state holds most iterations where a mean averages them.
    # Times are at nominal host speed (see hostspeed.py).
    rate_s = sum(it.rate_s * it.host_scale for it in iterations)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(it.wall_s * it.host_scale for it in iterations),
        "reps_per_s": sum(it.reps for it in iterations) / rate_s,
        "elements_per_s": sum(it.elements for it in iterations) / rate_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_layers(workload, seed, seconds, modules):
    """Untraced half, then traced half; returns (iterations, per-layer metrics)."""
    import tracer as tracing
    import workloads

    untraced = timed_loop(workload, seed, seconds / 2)
    tr = tracing.Tracer()
    pmf_seen = set()
    epochs = 0

    def on_pmf_reset():
        nonlocal epochs
        pmf_seen.clear()
        epochs += 1

    workload.after_pmf_reset = on_pmf_reset
    tracing.install_mixrank(tr, modules, pmf_seen)
    if tr.missing:
        tr.restore()
        # Its layer would read 0, which looks like a perfect gain.
        raise SystemExit(f"error: trace targets not found in mixrank: {sorted(map(str, tr.missing))}")
    try:
        if not workload.resets_pmf_cache:
            # One cold start per traced half: the cost a fresh process pays.
            workloads.reset_pmf_cache()
            on_pmf_reset()
        traced = timed_loop(workload, seed, seconds / 2, first_index=len(untraced))
    finally:
        tr.restore()

    oracle = (0, 0)
    if getattr(workload, "last_tests", None):
        oracle = workloads.oracle_mismatches(*workload.last_tests)
    metrics = tracing.layer_metrics(
        tr,
        [it.wall_s for it in traced],
        [it.wall_s for it in untraced],
        epochs,
        sum(it.bytes_written for it in traced),
        oracle,
    )
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "traced_iterations": len(traced),
        "aggregates": tr.aggregates(),
        "spans": tr.spans,
    }, default=str) + "\n")
    return untraced + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm up, then exit (used to time set-up)")
    args = parser.parse_args(argv)
    require_program()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")

    setup_s = None
    if not args.setup_only and not args.trace:
        setup_s = time_setup(args.workload, args.seed)

    load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from mixrank import cli, efficiency, power, rank_tests

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        workload.warm_up()
        if args.setup_only:
            return 0
        if args.trace:
            modules = {"cli": cli, "power": power, "rank_tests": rank_tests, "efficiency": efficiency}
            iterations, metrics = traced_layers(workload, args.seed, args.seconds, modules)
        else:
            iterations = timed_loop(workload, args.seed, args.seconds)
            metrics = end_to_end(iterations, setup_s)
        attempted, failed, errors = workload.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += sum(it.attempted for it in iterations)
    failed += sum(it.failed for it in iterations)
    errors += [e for it in iterations for e in it.errors]
    for error in errors[:MAX_REPORTED_ERRORS]:
        print(f"check failed: {error}", file=sys.stderr)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"error: computed metrics {sorted(metrics)} != declared {sorted(names)}")
    walls = sorted(it.wall_s for it in iterations)
    print(f"{args.workload}: {len(iterations)} iterations, measured wall_s quartiles "
          + ", ".join(f"{q:.4f}" for q in statistics.quantiles(walls, n=4))
          + f", mean {statistics.fmean(walls):.4f}"
          + f", host_scale median {statistics.median(it.host_scale for it in iterations):.3f}")
    for m in declared:
        print(f"  {m['name']:32s} {metrics[m['name']]:16.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
