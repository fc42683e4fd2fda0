"""CLI: subcommand outputs, manifests, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixrank import __version__, power
from mixrank.cli import build_parser, main
from mixrank.efficiency import AreVariant, are, efficacy_t, efficacy_w
from mixrank.errors import SearchOverflowError
from mixrank.mixture import MixtureParams
from mixrank.power import SimConfig, TestKind, empirical_are, min_sample_size
from mixrank.rank_tests import Sidedness, WilcoxonMode, t_test, wilcoxon_test


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# are / grid
# ---------------------------------------------------------------------------

def test_are_text_output(capsys):
    code, out, _ = run_cli(capsys, "are", "--mu", "1", "--sigma", "1", "--variant", "derived")
    assert code == 0
    assert "are 0.812760368" in out
    assert "efficacy_w" in out and "efficacy_t" in out


@pytest.mark.parametrize("module", ["mixrank", "mixrank.cli"])
def test_python_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True
        )

    done = run("are", "--mu", "1", "--sigma", "1")
    assert done.returncode == 0
    assert done.stdout.startswith("are 0.812760368\n")
    usage = run("are", "--mu", "1")
    assert usage.returncode == 2
    assert usage.stdout == "" and "required: --sigma" in usage.stderr


def test_are_printed_is_three_times_derived(capsys):
    _, derived, _ = run_cli(capsys, "are", "--mu", "1", "--sigma", "1", "--variant", "derived", "--json")
    _, printed, _ = run_cli(capsys, "are", "--mu", "1", "--sigma", "1", "--variant", "printed", "--json")
    assert json.loads(printed)["are"] == 3.0 * json.loads(derived)["are"]


def test_are_limit_at_mu_zero(capsys):
    code, out, _ = run_cli(capsys, "are", "--mu", "0", "--sigma", "2", "--json")
    assert code == 0
    value = json.loads(out)["are"]
    assert value == pytest.approx((6.0 / 3.141592653589793) / 5.0, abs=1e-12)
    # Past sigma ~1.34e154 sigma^2 overflows; the limit read 0 there.
    _, out, _ = run_cli(capsys, "are", "--mu", "0", "--sigma", "1.35e154")
    assert out.splitlines()[0] == "are 1.04793378e-308"


def test_are_json_includes_efficacy_fields(capsys):
    code, out, _ = run_cli(capsys, "are", "--mu", "1", "--sigma", "1", "--json")
    report = json.loads(out)
    assert code == 0
    assert set(report["efficacy_w"]) == {"slope", "null_sd", "efficacy"}


def test_are_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["are", "--mu", "not-a-number", "--sigma", "1"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_are_domain_error_is_usage(capsys):
    code, _, err = run_cli(capsys, "are", "--mu", "1", "--sigma", "-1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("are", "--mu", "nan", "--sigma", "1"),
        ("are", "--mu", "inf", "--sigma", "1", "--json"),
        ("grid", "--mu-range", "0,inf", "--sigma-range", "0.5,1", "--steps-mu", "2",
         "--steps-sigma", "2"),
    ],
)
def test_nonfinite_parameters_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_grid_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys,
        "grid",
        "--mu-range", "0.5,1.0",
        "--sigma-range", "0.5,1.5",
        "--steps-mu", "2",
        "--steps-sigma", "2",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "mu,sigma,are"
    assert len(lines) == 5
    # values match the scalar subcommand pointwise
    _, are_out, _ = run_cli(capsys, "are", "--mu", "1", "--sigma", "1.5", "--json")
    scalar = json.loads(are_out)["are"]
    last = lines[-1].split(",")
    assert (float(last[0]), float(last[1])) == (1.0, 1.5)
    assert float(last[2]) == pytest.approx(scalar, rel=1e-8)


@pytest.mark.parametrize(
    "mu_range, sigma_range, variant",
    [
        ((0.0, 3.25), (0.22, 3.3), AreVariant.EFFICACY_DERIVED),
        ((-1.0, 1e-322), (1e152, 1e156), AreVariant.AS_PRINTED),
    ],
)
def test_grid_rows_render_the_library_values(capsys, mu_range, sigma_range, variant):
    flag = {AreVariant.EFFICACY_DERIVED: "derived", AreVariant.AS_PRINTED: "printed"}[variant]
    code, out, _ = run_cli(
        capsys, "grid", "--mu-range", "{!r},{!r}".format(*mu_range),
        "--sigma-range", "{!r},{!r}".format(*sigma_range),
        "--steps-mu", "100", "--steps-sigma", "100", "--variant", flag,
    )
    assert code == 0
    fmt = lambda x: format(x, ".9g")
    expected = ["mu,sigma,are"] + [
        f"{fmt(mu)},{fmt(sigma)},{fmt(are(mu, sigma, variant))}"
        for mu in np.linspace(*mu_range, 100).tolist()
        for sigma in np.linspace(*sigma_range, 100).tolist()
    ]
    assert out.splitlines() == expected


def test_negative_comma_lists_parse_with_or_without_equals(capsys):
    grid = ("grid", "--sigma-range", "0.5,1", "--steps-mu", "2", "--steps-sigma", "2")
    spaced = run_cli(capsys, *grid, "--mu-range", "-1,1")
    joined = run_cli(capsys, *grid, "--mu-range=-1,1")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1].splitlines()[1] == "-1,0.5,1.18657065"
    # A negative list reaches the value check like any other value.
    curve = ("curve", "--mu", "1", "--sigma", "1", "--n", "20")
    code, out, err = run_cli(capsys, *curve, "--theta", "-0.5,0.2")
    assert (code, out) == (2, "") and "mixing proportion" in err


def test_grid_sigma_columns_monotone(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    run_cli(
        capsys,
        "grid",
        "--mu-range", "0.5,0.5",
        "--sigma-range", "0.3,3.0",
        "--steps-mu", "2",
        "--steps-sigma", "12",
        "--out", str(out_path),
    )
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
    first_mu = [float(r[2]) for r in rows if float(r[0]) == 0.5][:12]
    assert all(a > b for a, b in zip(first_mu, first_mu[1:]))


def test_manifest_written_with_matching_checksum(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    run_cli(
        capsys,
        "grid",
        "--mu-range", "0,1",
        "--sigma-range", "0.5,1",
        "--steps-mu", "3",
        "--steps-sigma", "3",
        "--out", str(out_path),
    )
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert manifest["output_checksum"] == f"sha256:{digest}"
    assert manifest["subcommand"] == "grid"
    assert manifest["tool_version"]
    assert manifest["parameters"]["steps_mu"] == 3


def test_parser_is_shared_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    curve = ["curve", "--mu", "1", "--sigma", "1", "--theta", "0.3", "--n", "20", "--nreps", "50"]
    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    assert run_cli(capsys, *curve, "--threads", "2", "--out", str(first))[0] == 0
    assert run_cli(capsys, "null-dist", "--n", "4")[0] == 0
    with pytest.raises(SystemExit) as usage:
        main(["grid", "--mu-range", "0,1", "--steps-mu", "7"])
    assert usage.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *curve, "--out", str(last))[0] == 0
    assert json.loads((tmp_path / "first.csv.manifest.json").read_text())["parallelism"] == 2
    manifest = json.loads((tmp_path / "last.csv.manifest.json").read_text())
    assert manifest["parallelism"] == 1
    assert manifest["parameters"] == {
        "alpha": 0.05, "mu": 1.0, "n": [20], "nreps": 50, "out": str(last), "seed": 0,
        "sided": "greater", "sigma": 1.0, "subcommand": "curve", "theta": [0.3], "threads": 1,
    }
    assert last.read_bytes() == first.read_bytes()


def test_manifest_write_failure_is_data_error(tmp_path, capsys):
    (tmp_path / "x.csv.manifest.json").mkdir()
    code, _, err = run_cli(capsys, "null-dist", "--n", "3", "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert "x.csv.manifest.json" in err


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_deterministic_across_threads(tmp_path, capsys):
    common = [
        "curve",
        "--mu", "1", "--sigma", "1",
        "--theta", "0,0.5",
        "--n", "10,20",
        "--alpha", "0.05", "--sided", "greater",
        "--nreps", "2000", "--seed", "99",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    code_a, _, _ = run_cli(capsys, *common, "--threads", "1", "--out", str(path_a))
    code_b, _, _ = run_cli(capsys, *common, "--threads", "32", "--out", str(path_b))
    assert code_a == code_b == 0
    assert path_a.read_bytes() == path_b.read_bytes()

    lines = path_a.read_text().strip().splitlines()
    assert lines[0] == "theta,n,power_w,se_w,power_t,se_t,ratio,flag"
    assert len(lines) == 5
    null_rows = [line for line in lines[1:] if line.startswith("0,")]
    assert null_rows and all(row.endswith(",near_null") for row in null_rows)


def test_curve_rerun_reproduces_manifest_checksum(tmp_path, capsys):
    args = [
        "curve", "--mu", "0.2", "--sigma", "1",
        "--theta", "0.4", "--n", "15",
        "--nreps", "1000", "--seed", "5", "--threads", "2",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    run_cli(capsys, *args, "--out", str(first))
    run_cli(capsys, *args, "--out", str(second))
    m1 = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "second.csv.manifest.json").read_text())
    assert m1["output_checksum"] == m2["output_checksum"]


def test_curve_with_a_huge_contaminant_runs_without_warnings():
    # Squared deviations of the draws overflow; the t statistic takes those rows rescaled.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["--mu", "0", "--sigma", "1e200", "--theta", "0.5", "--n", "20", "--nreps", "100"]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mixrank", "curve", *argv],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    header, row = done.stdout.splitlines()
    assert row.startswith("0.5,20,")


def test_power_alias(capsys):
    code, out, _ = run_cli(
        capsys, "power", "--mu", "1", "--sigma", "1",
        "--theta", "0.5", "--n", "10", "--nreps", "500", "--seed", "1",
    )
    assert code == 0
    assert out.startswith("theta,n,")


def test_curve_malformed_theta_list(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["curve", "--mu", "1", "--sigma", "1", "--theta", "0.2;0.3", "--n", "10"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_curve_sample_size_below_two_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "curve", "--mu", "1", "--sigma", "1", "--theta", "0.5", "--n", "1",
    )
    assert code == 2
    assert out == ""
    assert "n >= 2" in err


# ---------------------------------------------------------------------------
# nmin / emp-are
# ---------------------------------------------------------------------------

def test_nmin_separated_alternative(capsys):
    code, out, _ = run_cli(
        capsys, "nmin", "--test", "t",
        "--mu", "5", "--sigma", "1", "--theta", "1",
        "--power", "0.8", "--nreps", "2000", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["n_min"] <= 5
    assert report["search_trace"]
    assert report["achieved_power_ci"][0] <= report["achieved_power_ci"][1]


def test_emp_are_rows(capsys):
    code, out, _ = run_cli(
        capsys, "emp-are", "--mu", "5", "--sigma", "1",
        "--theta", "1.0,0.9", "--power", "0.8",
        "--nreps", "1500", "--seed", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert [row["theta"] for row in report["rows"]] == [1.0, 0.9]
    for row in report["rows"]:
        assert row["ratio"] == row["n_t"] / row["n_w"]
        assert row["t_search"]["search_trace"]


def test_emp_are_rejects_nondecreasing_schedule(capsys):
    code, _, err = run_cli(
        capsys, "emp-are", "--mu", "1", "--sigma", "1",
        "--theta", "0.2,0.5", "--power", "0.8", "--nreps", "500",
    )
    assert code == 2
    assert "decrease" in err


def test_search_overflow_exits_4_with_partial_results(capsys):
    code, out, err = run_cli(
        capsys, "emp-are", "--mu", "1", "--sigma", "1",
        "--theta", "0.8,0.001", "--power", "0.8",
        "--nreps", "400", "--seed", "6", "--n-cap", "128",
    )
    assert code == 4
    assert "error" in err
    partial = json.loads(out)
    assert [row["theta"] for row in partial["rows"]] == [0.8]

    code, out, err = run_cli(
        capsys, "nmin", "--test", "t", "--mu", "0.1", "--sigma", "1",
        "--theta", "0.01", "--power", "0.9",
        "--nreps", "400", "--seed", "6", "--n-cap", "64",
    )
    assert code == 4
    assert json.loads(out)["partial_trace"]


def test_search_cap_below_two_is_usage_error(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("no cell may be simulated")

    monkeypatch.setattr(power, "_simulate_rejections", refuse)
    code, out, err = run_cli(
        capsys, "nmin", "--test", "t", "--mu", "1", "--sigma", "1",
        "--theta", "0.5", "--power", "0.8", "--nreps", "400", "--n-cap", "1",
    )
    assert code == 2
    assert out == ""
    assert "cap must be at least 2" in err


# ---------------------------------------------------------------------------
# test (data files)
# ---------------------------------------------------------------------------

def test_cmd_test_wilcoxon_exact(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1\n2\n3\n")
    code, out, _ = run_cli(
        capsys, "test", "--data", str(data),
        "--test", "wilcoxon", "--sided", "greater", "--mode", "exact",
    )
    assert code == 0
    report = json.loads(out)
    outcome = report["outcomes"]["wilcoxon"]
    assert outcome["statistic"] == 6.0
    assert outcome["p_value"] == 0.125
    assert outcome["method"] == "exact"


def test_cmd_test_both_with_comments_and_zero(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("# header comment\n\n1.5\n-2.0\n0\n3.25\n0.5\n")
    code, out, _ = run_cli(capsys, "test", "--data", str(data), "--test", "both")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 5
    assert report["outcomes"]["wilcoxon"]["n_effective"] == 4  # zero dropped
    assert report["outcomes"]["t"]["n_effective"] == 5


def test_cmd_test_parse_error_names_line(tmp_path, capsys):
    data = tmp_path / "bad.txt"
    data.write_text("abc\n")
    code, _, err = run_cli(capsys, "test", "--data", str(data))
    assert code == 3
    assert "line 1" in err


def test_cmd_test_empty_file(tmp_path, capsys):
    data = tmp_path / "empty.txt"
    data.write_text("# nothing here\n\n")
    code, _, err = run_cli(capsys, "test", "--data", str(data))
    assert code == 3
    assert "no data" in err


def test_cmd_test_degenerate_data_is_data_error(tmp_path, capsys):
    data = tmp_path / "flat.txt"
    data.write_text("2\n2\n2\n")
    code, _, err = run_cli(capsys, "test", "--data", str(data), "--test", "t")
    assert code == 3
    assert "variance" in err


def test_cmd_test_missing_file(capsys):
    code, _, err = run_cli(capsys, "test", "--data", "/nonexistent/file.txt")
    assert code == 3


# ---------------------------------------------------------------------------
# null-dist
# ---------------------------------------------------------------------------

def test_null_dist_n3(tmp_path, capsys):
    out_path = tmp_path / "pmf.csv"
    code, _, _ = run_cli(capsys, "null-dist", "--n", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "k,count,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    assert sum(int(r[1]) for r in rows) == 8
    # symmetric counts column
    counts = [int(r[1]) for r in rows]
    assert counts == counts[::-1]


def test_null_dist_n1(capsys):
    code, out, _ = run_cli(capsys, "null-dist", "--n", "1")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["0.5", "0.5"]


def test_null_dist_out_of_range(capsys):
    code, _, err = run_cli(capsys, "null-dist", "--n", "61")
    assert code == 2


# ---------------------------------------------------------------------------
# JSON bytes: every payload, partial and manifest, rendered by hand
# ---------------------------------------------------------------------------

def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _estimate(est) -> dict:
    return {
        "power": est.power,
        "mc_se": est.mc_se,
        "nreps": est.nreps,
        "test_kind": est.test_kind.value,
        "n_degenerate": est.n_degenerate,
    }


def _search(result) -> dict:
    return {
        "n_min": result.n_min,
        "achieved_power_ci": list(result.achieved_power_ci),
        "search_trace": [{"n": n, "estimate": _estimate(est)} for n, est in result.search_trace],
    }


def _emp_row(row) -> dict:
    return {
        "theta": row.theta,
        "n_t": row.n_t,
        "n_w": row.n_w,
        "ratio": row.ratio,
        "t_search": _search(row.t_search),
        "w_search": _search(row.w_search),
    }


def _outcome(outcome) -> dict:
    return {
        "statistic": outcome.statistic,
        "n_effective": outcome.n_effective,
        "p_value": outcome.p_value,
        "sidedness": outcome.sidedness.value,
        "method": outcome.method.value,
    }


def _sim(nreps, seed):
    return SimConfig(alpha=0.05, sidedness=Sidedness.GREATER, nreps=nreps, master_seed=seed)


def test_are_json_bytes(capsys):
    _, out, _ = run_cli(
        capsys, "are", "--mu", "0.7", "--sigma", "0.4", "--variant", "printed", "--json"
    )
    efficacy = lambda e: {"slope": e.slope, "null_sd": e.null_sd, "efficacy": e.efficacy}
    expected = {
        "are": are(0.7, 0.4, AreVariant.AS_PRINTED),
        "variant": AreVariant.AS_PRINTED.value,
        "mu": 0.7,
        "sigma": 0.4,
        "efficacy_w": efficacy(efficacy_w(0.7, 0.4)),
        "efficacy_t": efficacy(efficacy_t(0.7, 0.4)),
    }
    assert out == _dumps(expected)


def test_nmin_json_bytes_and_manifest(tmp_path, capsys):
    argv = ["nmin", "--test", "wilcoxon", "--mu", "5", "--sigma", "1", "--theta", "0.6",
            "--power", "0.8", "--nreps", "700", "--seed", "3"]
    result = min_sample_size(TestKind.WILCOXON, MixtureParams(0.6, 5.0, 1.0), 0.8, _sim(700, 3))
    payload = _dumps(_search(result))
    _, out, _ = run_cli(capsys, *argv)
    assert out == payload

    path = tmp_path / "nmin.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_text(encoding="utf-8") == payload
    manifest = {
        "subcommand": "nmin",
        "parameters": {
            "alpha": 0.05, "mu": 5.0, "n_cap": 1_000_000, "nreps": 700, "out": str(path),
            "power": 0.8, "seed": 3, "sided": "greater", "sigma": 1.0, "subcommand": "nmin",
            "test": "wilcoxon", "theta": 0.6, "threads": 1,
        },
        "master_seed": 3,
        "parallelism": 1,
        "tool_version": __version__,
        "output_checksum": "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }
    assert (tmp_path / "nmin.json.manifest.json").read_text(encoding="utf-8") == _dumps(manifest)


def test_emp_are_json_bytes(capsys):
    rows = empirical_are(5.0, 1.0, [1.0, 0.9], 0.8, _sim(600, 4))
    _, out, _ = run_cli(
        capsys, "emp-are", "--mu", "5", "--sigma", "1", "--theta", "1.0,0.9",
        "--power", "0.8", "--nreps", "600", "--seed", "4",
    )
    assert out == _dumps({"rows": [_emp_row(row) for row in rows]})


def test_overflow_partials_json_bytes(capsys):
    with pytest.raises(SearchOverflowError) as nmin_exc:
        min_sample_size(TestKind.T, MixtureParams(0.01, 0.1, 1.0), 0.9, _sim(400, 6), 64)
    _, out, _ = run_cli(
        capsys, "nmin", "--test", "t", "--mu", "0.1", "--sigma", "1", "--theta", "0.01",
        "--power", "0.9", "--nreps", "400", "--seed", "6", "--n-cap", "64",
    )
    trace = [{"n": n, "estimate": _estimate(est)} for n, est in nmin_exc.value.partial]
    assert out == _dumps({"error": str(nmin_exc.value), "partial_trace": trace})

    with pytest.raises(SearchOverflowError) as emp_exc:
        empirical_are(1.0, 1.0, [0.8, 0.001], 0.8, _sim(400, 6), 128)
    _, out, _ = run_cli(
        capsys, "emp-are", "--mu", "1", "--sigma", "1", "--theta", "0.8,0.001",
        "--power", "0.8", "--nreps", "400", "--seed", "6", "--n-cap", "128",
    )
    rows = [_emp_row(row) for row in emp_exc.value.partial]
    assert out == _dumps({"error": str(emp_exc.value), "rows": rows})


def test_cmd_test_both_json_bytes(tmp_path, capsys):
    values = [1.5, -2.0, 0.0, 3.25, 0.5, 1.5, -0.5, 2.0]
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{v}\n" for v in values))
    _, out, _ = run_cli(capsys, "test", "--data", str(data), "--test", "both")
    expected = {
        "n": len(values),
        "outcomes": {
            "t": _outcome(t_test(values, Sidedness.TWO_SIDED)),
            "wilcoxon": _outcome(wilcoxon_test(values, Sidedness.TWO_SIDED, WilcoxonMode.AUTO)),
        },
    }
    assert out == _dumps(expected)


# ---------------------------------------------------------------------------
# payload digests beyond the one-sided greater alternative
# ---------------------------------------------------------------------------

_CURVE_ARGV = ["curve", "--mu", "-1", "--sigma", "0.5", "--theta", "0,0.3,0.8",
               "--n", "2,3,5,20,25,26,60,300", "--nreps", "2000", "--seed", "11"]
_NMIN_ARGV = ["nmin", "--mu", "1", "--sigma", "0.5", "--theta", "0.3", "--power", "0.8",
              "--nreps", "2000", "--seed", "12", "--sided", "two"]


# Recorded from mixrank 0.2.0, which rejected a row by comparing its p-value
# with alpha.  Alpha 0.5 puts exact-test p-values on the level itself (n = 2
# rejects two of four W+ values), and the n axis crosses the switch from the
# exact to the approximate signed-rank p-value at n = 25.
@pytest.mark.parametrize(
    "argv, digest",
    [
        ([*_CURVE_ARGV, "--sided", "less", "--alpha", "0.5"],
         "53ea605739152e9b3542a25caa31554ec8db563aa71f99d4a1a1da2c098410eb"),
        ([*_CURVE_ARGV, "--sided", "less", "--alpha", "0.05"],
         "a3c4b598e1102c2d598ad3ac1ee7c31960c893dc2490c17458254546e8ec5883"),
        ([*_CURVE_ARGV, "--sided", "two", "--alpha", "0.5"],
         "674a7cf8b06625a9f2c1e5de3c855d78e90d9714e853fe4bdbc877bdf657c234"),
        ([*_CURVE_ARGV, "--sided", "two", "--alpha", "0.05"],
         "bb9e025bedc2dfae33d4fbc57bedc178bf2ec0ed245d8ea2785008ef90211cdd"),
        ([*_NMIN_ARGV, "--test", "t"],
         "c39540d4073cd334a00432066e31466fe3b9fd7648b6a51f2528ee8aebeaab9b"),
        ([*_NMIN_ARGV, "--test", "wilcoxon"],
         "13a1de1c424ed9ef6c391af0b220bca3773aad6dfcfce99142a1b4fe102963cd"),
    ],
    ids=["curve-less-0.5", "curve-less-0.05", "curve-two-0.5", "curve-two-0.05",
         "nmin-two-t", "nmin-two-wilcoxon"],
)
def test_payload_digests_beyond_greater(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


_C8_ARGV = ["curve", "--mu", "0.2", "--sigma", "0.31622776601683794",
            "--theta", "0.2,0.3,0.4,0.5,0.6,0.7,0.8", "--n", "20,50,100",
            "--nreps", "2000", "--seed", "13"]
_C7_ARGV = ["emp-are", "--mu", "0.2", "--sigma", "1", "--theta", "0.5", "--power", "0.8",
            "--nreps", "300", "--n-cap", "1200", "--seed", "14"]
_WIDE_N_ARGV = ["curve", "--mu", "0.2", "--sigma", "1", "--theta", "0,0.3",
                "--n", "2047,2048,2049,4095,4096,4097", "--nreps", "300", "--seed", "15"]


# Recorded from mixrank 0.2.0 while it ranked every signed-rank row on the
# bits of its float64 values.  The emp-are search probes n up to ~700, where
# about one row in 150 meets a float32 tie, and the wide-n curve straddles
# n = 2048 and the 32-bit key bound of 4096.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (_C8_ARGV, "d294c3c517834a1b6aff30cea6413cfd5b5ed265437c63a58ac8daba5bc06a49"),
        (_C7_ARGV, "f8a80c2302368341c068816d644719685e8e0264c933aed298422ce88c36c3cd"),
        (_WIDE_N_ARGV, "01fef511eccb8fa1a367b31ea6ce2b92cff3e9e23bce6bc7f95fbcd646a86d9d"),
    ],
    ids=["curve-c8", "emp-are-c7", "curve-wide-n"],
)
def test_payload_digests_greater(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The null-dist payload is integer arithmetic and one correctly rounded
# division per row, so these digests hold on every platform.
@pytest.mark.parametrize(
    "n, digest",
    [
        (25, "20d7e16045d98d6d69f97b4f9b0579cbbc4e974dc74b835c12b5046ff7d73a60"),
        (60, "3fb7e1306426af4fdf2e3aea4f4f0c34755167c14da53bd447e2599b0584b0e7"),
    ],
)
def test_payload_digests_null_dist(capsys, n, digest):
    code, out, _ = run_cli(capsys, "null-dist", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
