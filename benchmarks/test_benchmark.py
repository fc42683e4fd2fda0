"""Self-test of the benchmark's own code, at tiny workload sizes.

    python3 -m pytest benchmarks/test_benchmark.py -q

Kept out of the repository's default test run (``testpaths``), which
covers the program; this covers the harness that measures it.
"""

import json
import math
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import collect  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402

run.load_program()
import tracer  # noqa: E402
import workloads  # noqa: E402
from mixrank import cli, efficiency, power, rank_tests  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MODULES = {"cli": cli, "power": power, "rank_tests": rank_tests, "efficiency": efficiency}


# ---------------------------------------------------------------------------
# span and self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    spans = [
        {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 5.0, "end": 9.0},
        {"id": 3, "name": "a.child", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert tracer.self_times(spans) == {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0}


def test_cell_self_time_averages_children_over_threads():
    assert tracer.cell_self_time(10.0, 7.0, 1) == 3.0
    assert tracer.cell_self_time(10.0, 16.0, 2) == 2.0
    assert tracer.cell_self_time(10.0, 0.0, 0) == 10.0


def test_aggregates_merge_threads_and_restore_originals():
    def work(x):
        return x + 1

    module = types.SimpleNamespace(work=work)
    table = {"k": work}
    tr = tracer.Tracer()
    tr.wrap_calls(module, "work", "w", elements=lambda args: args[0])
    tr.wrap_calls(table, "k", "w")
    tr.wrap_calls(module, "absent", "never")
    threads = [
        threading.Thread(target=lambda: [module.work(2) for _ in range(500)]) for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert table["k"](1) == 2
    count, busy, elements = tr.aggregates()["w"]
    assert (count, elements) == (2001, 4000) and busy > 0.0
    assert tr.missing == ["absent"]
    tr.restore()
    assert module.work is work and table["k"] is work


def test_spans_nest_and_worker_spans_join_their_cell():
    tr = tracer.Tracer()
    module = types.SimpleNamespace()
    module.leaf = lambda: None
    module.cell = lambda: threading_call(module.leaf)
    module.entry = lambda: module.cell()
    tr.wrap_span(module, "leaf", "leaf")
    tr.wrap_span(module, "cell", "cell", cell=True)
    tr.wrap_span(module, "entry", "entry")
    module.entry()
    tr.restore()
    by_name = {s["name"]: s for s in tr.spans}
    assert by_name["entry"]["parent"] is None
    assert by_name["cell"]["parent"] == by_name["entry"]["id"]
    assert by_name["leaf"]["parent"] == by_name["cell"]["id"]
    assert by_name["cell"]["attrs"]["cpu_s"] >= 0.0


def threading_call(fn):
    t = threading.Thread(target=fn)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _curve_text(nreps, powers):
    lines = [workloads.CURVE_HEADER]
    cells = [(t, n) for t in workloads.SURFACE_THETAS for n in workloads.SURFACE_NS]
    for (theta, n), (pw, pt) in zip(cells, powers):
        sw, st = (math.sqrt(p * (1 - p) / nreps) for p in (pw, pt))
        flag = "near_null" if pt == 0.0 or pt < 10 * st else "ok"
        ratio = pw / pt if pt > 0 else math.nan
        lines.append(",".join([workloads.fmt(theta), str(n), *map(workloads.fmt, (pw, sw, pt, st, ratio)), flag]))
    return "\n".join(lines) + "\n"


def test_check_curve_accepts_valid_and_flags_corruption():
    good = [(0.5, 0.3)] * 12
    errors = []
    assert workloads.check_curve(_curve_text(1000, good), 1000, errors) == (0, True)
    assert errors == []

    errors = []
    bad = _curve_text(1000, good).replace("0.5,", "1.5,", 1)  # a power outside [0, 1]
    assert workloads.check_curve(bad, 1000, errors)[0] == 1

    errors = []
    no_dominance = _curve_text(1000, [(0.3, 0.3)] * 12)
    assert workloads.check_curve(no_dominance, 1000, errors) == (0, False)

    errors = []
    truncated = "\n".join(_curve_text(1000, good).splitlines()[:5])
    assert workloads.check_curve(truncated, 1000, errors) == (12, False)


def _estimate(n, power_, nreps, kind):
    return {"n": n, "estimate": {
        "power": power_, "mc_se": math.sqrt(power_ * (1 - power_) / nreps), "nreps": nreps,
        "test_kind": kind, "n_degenerate": 0,
    }}


def _search_doc(nreps, n_min, reject_below):
    def search(kind):
        probes = [2, 4, 8, 16, 12, 10, 9] if n_min == 10 else []
        trace = [_estimate(n, 0.9 if n >= reject_below else 0.2, nreps, kind) for n in probes]
        return {"n_min": n_min, "achieved_power_ci": [0.8, 0.95], "search_trace": trace}

    return {"rows": [{"theta": 0.5, "n_t": n_min, "n_w": n_min, "ratio": 1.0,
                      "t_search": search("t"), "w_search": search("wilcoxon")}]}


def test_check_search_bisection_invariant_and_band():
    errors = []
    probes, reps, elements, bad, ok = workloads.check_search(_search_doc(1000, 10, 10), 1000, errors)
    assert (probes, reps, bad, ok, errors) == (14, 14000, 0, True, [])
    assert elements == 2 * 1000 * sum([2, 4, 8, 16, 12, 10, 9])

    errors = []  # n_min - 1 = 9 is accepted here, so 10 is not minimal
    assert workloads.check_search(_search_doc(1000, 10, 9), 1000, errors)[4] is False

    doc = _search_doc(1000, 10, 10)
    doc["rows"][0]["ratio"] = 2.0
    errors = []
    assert workloads.check_search(doc, 1000, errors)[4] is False


def test_check_null_dist_grid_and_boundary_against_the_program(tmp_path):
    out = tmp_path / "pmf.csv"
    assert cli.main(["null-dist", "--n", "9", "--out", str(out)]) == 0
    errors = []
    payload, written = workloads.take_output(out, 0, "null-dist", errors)
    assert workloads.check_null_dist(payload.decode(), 9, errors) and errors == []
    assert written > len(payload) and not out.exists()
    assert not workloads.check_null_dist(payload.decode().replace("\n1,1,", "\n1,2,"), 9, [])

    mu_axis, sigma_axis = np.linspace(0.0, 2.0, 4), np.linspace(0.3, 1.5, 3)
    assert cli.main(["grid", "--mu-range", "0,2", "--sigma-range", "0.3,1.5", "--steps-mu", "4",
                     "--steps-sigma", "3", "--out", str(out)]) == 0
    payload, _ = workloads.take_output(out, 0, "grid", errors)
    assert workloads.check_grid(payload.decode(), mu_axis, sigma_axis, errors) == 0
    assert workloads.check_grid(payload.decode(), mu_axis + 0.01, sigma_axis, []) == 1

    for sigma in (0.2, 0.9, 1.2):
        assert workloads.check_boundary(sigma, efficiency.dominance_boundary(sigma), errors)
    assert not workloads.check_boundary(0.2, 0.5, [])
    assert errors == []


def test_take_output_rejects_a_tampered_payload(tmp_path):
    out = tmp_path / "pmf.csv"
    assert cli.main(["null-dist", "--n", "3", "--out", str(out)]) == 0
    out.write_text(out.read_text() + "extra\n")
    errors = []
    assert workloads.take_output(out, 0, "null-dist", errors) == (None, 0)
    assert "checksum" in errors[0]


def test_oracle_agrees_on_untied_samples():
    rng = np.random.default_rng(5)
    samples = [rng.normal(0.3, 1.0, n) for n in (8, 20, 40)]
    sides = list(workloads.SIDES)
    outcomes = [(rank_tests.t_test(x, s), rank_tests.wilcoxon_test(x, s)) for x, s in zip(samples, sides)]
    assert workloads.oracle_mismatches(samples, sides, outcomes) == (6, 0)


def test_host_scale_takes_times_to_nominal_speed():
    nominal = hostspeed.NOMINAL_PASS_S
    assert hostspeed.scale(nominal, nominal) == 1.0
    assert math.isclose(hostspeed.scale(0.5 * nominal, 1.5 * nominal), 1.0)
    assert math.isclose(hostspeed.scale(2.0 * nominal, 2.0 * nominal), 0.5)


def test_end_to_end_times_are_scaled_by_host_speed():
    iterations = [
        workloads.Iteration(2.0, 100, 1000, 2.0, attempted=1, host_scale=0.5),
        workloads.Iteration(1.0, 100, 1000, 0.5, attempted=1, host_scale=1.0),
    ]
    metrics = run.end_to_end(iterations, 1.5)
    assert metrics["setup_s"] == 1.5 and math.isclose(metrics["wall_s"], 1.0)
    assert math.isclose(metrics["reps_per_s"], 200 / 1.5)
    assert math.isclose(metrics["elements_per_s"], 2000 / 1.5)


def test_compare_reports_worsening_in_the_metric_direction():
    def summary(wall, rate):
        return {"workloads": {"w": {"metrics": {
            m["name"]: {"median": {"wall_s": wall, "reps_per_s": rate}.get(m["name"], 1.0)}
            for m in SPEC["end_to_end"]
        }}}}

    out = collect.compare(summary(1.0, 100.0), summary(1.3, 110.0), SPEC)["w"]
    assert math.isclose(out["wall_s"]["worse_by"], 0.3) and not out["wall_s"]["within"]
    assert math.isclose(out["reps_per_s"]["worse_by"], -0.1) and out["reps_per_s"]["within"]


# ---------------------------------------------------------------------------
# workloads at tiny sizes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda d: workloads.Surface(d, nreps=4100),  # two chunks: through the pool
    lambda d: workloads.Search(d, nreps=500),
    lambda d: workloads.Scalar(d, max_n=12, grid_steps=5, boundaries=5, samples=20),
], ids=["surface-2t", "search", "scalar"])
def test_tiny_workload_passes_its_checks(tmp_path, make):
    workload = make(tmp_path)
    workload.warm_up()
    it = workload.iteration(run.iteration_seed(3, 0))
    attempted, failed, errors = workload.verify()
    assert it.failed == 0 and failed == 0, it.errors + errors
    assert it.reps > 0 and it.elements >= it.reps and it.wall_s >= it.rate_s > 0.0
    assert list(tmp_path.iterdir()) == []


def test_traced_run_reports_every_layer_metric_and_restores(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    original = power.replication_rng
    workload = workloads.Surface(tmp_path, nreps=300)
    workload.warm_up()
    iterations, metrics = run.traced_layers(workload, 1, 0.0, MODULES)
    assert power.replication_rng is original
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["streams.rng_calls"] == 12 * 300
    assert metrics["mixture.draw_calls"] == 12 * 300
    assert metrics["power.probes"] == 0 and metrics["power.degenerate_reps"] == 0
    assert 0.0 < metrics["streams.draw_share"] < 1.0
    assert metrics["power.self_s"] > 0.0 and metrics["cli.self_s"] > 0.0
    assert metrics["rank_tests.null_pmf_cold_s"] > 0.0
    assert len(iterations) == 2 * run.MIN_ITERATIONS
    assert all(it.host_scale > 0.0 for it in iterations)
    trace = json.loads((tmp_path / "trace-surface-2t-seed1.json").read_text())
    assert {s["name"] for s in trace["spans"]} >= {"cli.main", "power.cell", "rank_tests.exact_null_pmf"}


def test_traced_half_carries_iteration_seeds_on(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    workload = workloads.Surface(tmp_path, nreps=100)
    seeds = []
    iteration = workload.iteration
    workload.iteration = lambda seed: seeds.append(seed) or iteration(seed)
    iterations, _ = run.traced_layers(workload, 4, 0.0, MODULES)
    assert len(seeds) == len(iterations) and len(set(seeds)) == len(seeds)


def test_traced_run_refuses_a_missing_target(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.delattr(efficiency, "dominance_boundary")
    original = power.replication_rng
    workload = workloads.Surface(tmp_path, nreps=100)
    with pytest.raises(SystemExit, match="dominance_boundary"):
        run.traced_layers(workload, 1, 0.0, MODULES)
    assert power.replication_rng is original


def test_search_trace_counts_duplicate_draws(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    workload = workloads.Search(tmp_path, nreps=500)
    _, metrics = run.traced_layers(workload, 2, 0.0, MODULES)
    # The W search re-draws at least the T search's bracket 2, 4, ..., 512.
    assert metrics["power.duplicate_draw_probes"] >= 9
    assert metrics["power.probe_reps"] == 500 * metrics["power.probes"]


def test_memo_inside_the_cell_clears_duplicate_draws(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    simulate, memo = power._simulate_rejections, {}

    def memoised(params, n, config, kinds):
        # Both tests from one draw; a later call for the other test is a hit.
        key = (params, n, config.master_seed, config.nreps)
        if key not in memo:
            memo[key] = simulate(params, n, config, (power.TestKind.T, power.TestKind.WILCOXON))
        return {kind: memo[key][kind] for kind in kinds}

    monkeypatch.setattr(power, "_simulate_rejections", memoised)
    workload = workloads.Search(tmp_path, nreps=500)
    _, metrics = run.traced_layers(workload, 2, 0.0, MODULES)
    assert metrics["power.probes"] > 0 and metrics["power.duplicate_draw_probes"] == 0
    _, _, errors = workload.verify()
    assert errors == []


def test_scalar_trace_keeps_the_grid_out_of_cli_self_time(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    workload = workloads.Scalar(tmp_path, max_n=12, grid_steps=5, boundaries=5, samples=20)
    workload.warm_up()
    _, metrics = run.traced_layers(workload, 1, 0.0, MODULES)
    assert metrics["efficiency.grid_ns_per_point"] > 0.0
    spans = json.loads((tmp_path / "trace-scalar-seed1.json").read_text())["spans"]
    mains = {s["id"] for s in spans if s["name"] == "cli.main"}
    grids = [s for s in spans if s["name"] == "efficiency.grid"]
    assert grids and all(s["parent"] in mains and s["attrs"]["elements"] == 25 for s in grids)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "surface-2t", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
