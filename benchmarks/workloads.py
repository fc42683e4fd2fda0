"""The benchmark's workloads: inputs made from the seed, one timed iteration, and checks.

Every workload drives mixrank in-process through ``cli.main(argv)``, the
argv a user types, except where no subcommand exists (the dominance-boundary
sweep and the bulk of the scalar tests, which call the library the way
``mixrank test`` does).  Checks hold for any valid layout of the random
streams: they test schemas, ranges, exact identities and statistical
properties with wide margins, never particular Monte Carlo values.

Import this module only after the program's ``src`` directory is on
``sys.path`` (see ``run.load_program``).
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from mixrank import cli, efficiency, power, rank_tests
from mixrank.mixture import MixtureParams

clock = time.perf_counter

# C8's concentrated-contaminant lattice: contaminant N(0.2, 0.1).
SURFACE_MU = "0.2"
SURFACE_SIGMA = "0.31622776601683794"
SURFACE_THETAS = (0.2, 0.4, 0.6, 0.8)
SURFACE_NS = (20, 50, 100)
# C7's classical setting, one theta.
SEARCH_ARGS = {"mu": 0.2, "sigma": 1.0, "theta": 0.5, "power": 0.8}
C7_RATIO_BAND = ((6.0 / math.pi) / 2.0 - 0.15, (6.0 / math.pi) / 2.0 + 0.15)
# Acceptance rule of the sample-size search, restated independently.
Z99 = 2.3263478740408408
NMIN_SLACK = 0.01


@dataclass
class Iteration:
    """Outcome of one timed pass of a workload body."""

    wall_s: float
    reps: int
    elements: int
    rate_s: float  # the time ``reps`` and ``elements`` were produced in
    attempted: int
    failed: int = 0
    bytes_written: int = 0
    errors: list = field(default_factory=list)
    host_scale: float = 1.0  # takes this iteration's times to nominal host speed


def reset_pmf_cache():
    """Empty mixrank's memo of exact null pmfs, so the next builds are cold."""
    rank_tests._pmf_cache.clear()


def fmt(x):
    """The CLI's float rendering (9 significant digits)."""
    return format(float(x), ".9g")


def run_cli(argv, errors):
    """Run one CLI call; returns (exit code, wall seconds)."""
    start = clock()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        errors.append(f"{argv[0]} raised {exc!r}")
        rc = None
    return rc, clock() - start


def take_output(path, rc, subcommand, errors):
    """Read and delete an output and its manifest; check the manifest checksum.

    Returns (payload bytes or None, bytes written).
    """
    manifest_path = path.with_name(path.name + ".manifest.json")
    try:
        if rc != 0:
            errors.append(f"{subcommand} exited with {rc}")
            return None, 0
        try:
            payload = path.read_bytes()
            manifest_bytes = manifest_path.read_bytes()
        except OSError as exc:
            errors.append(f"{subcommand}: missing output: {exc}")
            return None, 0
        manifest = json.loads(manifest_bytes)
        if manifest.get("subcommand") != subcommand:
            errors.append(f"{subcommand}: manifest names {manifest.get('subcommand')!r}")
            return None, 0
        if manifest.get("output_checksum") != "sha256:" + hashlib.sha256(payload).hexdigest():
            errors.append(f"{subcommand}: manifest checksum does not match the payload")
            return None, 0
        return payload, len(payload) + len(manifest_bytes)
    finally:
        path.unlink(missing_ok=True)
        manifest_path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# surface-2t
# ---------------------------------------------------------------------------

CURVE_HEADER = "theta,n,power_w,se_w,power_t,se_t,ratio,flag"


def check_curve(text, nreps, errors):
    """Check a curve CSV of the surface lattice; returns (bad cells, whole-table ok).

    Per cell: powers are rejection fractions of ``nreps`` in [0, 1], standard
    errors and ratio follow from them, and the near-null flag obeys its rule.
    Across cells: C8's dominance property, in C8's own thresholds.
    """
    lines = text.splitlines()
    expected = [(t, n) for t in SURFACE_THETAS for n in SURFACE_NS]
    if not lines or lines[0] != CURVE_HEADER or len(lines) != 1 + len(expected):
        errors.append(f"curve: bad schema or row count ({len(lines)} lines)")
        return len(expected), False
    bad = 0
    dominant = []
    for (theta, n), line in zip(expected, lines[1:]):
        fields = line.split(",")
        try:
            th, nn = float(fields[0]), int(fields[1])
            pw, sw, pt, st, ratio = (float(v) for v in fields[2:7])
            flag = fields[7]
        except (ValueError, IndexError):
            errors.append(f"curve cell ({theta}, {n}): unparsable row {line!r}")
            bad += 1
            continue
        problems = []
        if (th, nn) != (theta, n):
            problems.append("cell order")
        for p, se in ((pw, sw), (pt, st)):
            if not 0.0 <= p <= 1.0 or abs(p * nreps - round(p * nreps)) > 1e-3:
                problems.append(f"power {p} is not a fraction of {nreps}")
            elif not math.isclose(se, math.sqrt(p * (1.0 - p) / nreps), rel_tol=1e-7, abs_tol=1e-12):
                problems.append("standard error")
        near_null = theta == 0.0 or pt == 0.0 or pt < 10.0 * st
        if flag != ("near_null" if near_null else "ok"):
            problems.append("flag")
        if pt > 0.0 and not math.isclose(ratio, pw / pt, rel_tol=1e-7):
            problems.append("ratio")
        if problems:
            bad += 1
            errors.append(f"curve cell ({theta}, {n}): {', '.join(problems)}")
        elif not near_null and ratio > 1.0 and pw - pt > math.hypot(sw, st):
            dominant.append((theta, n))
    if (
        len(dominant) < 5
        or len({t for t, _ in dominant}) < 3
        or len({n for _, n in dominant}) < 2
    ):
        errors.append(f"curve: C8 dominance property fails ({dominant})")
        return bad, False
    return bad, True


class Surface:
    """``mixrank curve`` on C8's concentrated-contaminant lattice with ``--threads 2``.

    The only workload through the thread pool.  A cell whose replications
    fit in one of mixrank's 4096-row chunks skips the pool, so this workload
    draws 8192 per cell: two chunks, one per thread.
    """

    name = "surface-2t"
    threads = 2
    resets_pmf_cache = False

    def __init__(self, workdir, nreps=8192):
        self.workdir = workdir
        self.nreps = nreps
        self.reference = None  # (seed, payload) of the first iteration

    def argv(self, seed, threads, out, nreps=None):
        return [
            "curve", "--mu", SURFACE_MU, "--sigma", SURFACE_SIGMA,
            "--theta", ",".join(str(t) for t in SURFACE_THETAS),
            "--n", ",".join(str(n) for n in SURFACE_NS),
            "--alpha", "0.05", "--sided", "greater",
            "--nreps", str(nreps or self.nreps), "--seed", str(seed),
            "--threads", str(threads), "--out", str(out),
        ]

    def warm_up(self):
        errors = []
        out = self.workdir / "warm-up.csv"
        rc, _ = run_cli(self.argv(0, self.threads, out, nreps=32), errors)
        take_output(out, rc, "curve", errors)
        if errors:
            raise RuntimeError(f"warm-up failed: {errors}")

    def iteration(self, seed):
        cells = len(SURFACE_THETAS) * len(SURFACE_NS)
        out = self.workdir / f"{self.name}-{seed}.csv"
        it = Iteration(0.0, 0, 0, 0.0, attempted=1 + cells)
        rc, it.wall_s = run_cli(self.argv(seed, self.threads, out), it.errors)
        payload, it.bytes_written = take_output(out, rc, "curve", it.errors)
        it.rate_s = it.wall_s
        it.reps = cells * self.nreps
        it.elements = len(SURFACE_THETAS) * sum(SURFACE_NS) * self.nreps
        if payload is None:
            it.failed = it.attempted
            return it
        bad, table_ok = check_curve(payload.decode("utf-8"), self.nreps, it.errors)
        it.failed = bad + (0 if table_ok else 1)
        if self.reference is None:
            self.reference = (seed, payload)
        return it

    def verify(self):
        """Checks on the first iteration's payload.

        C10: a ``--threads 1`` rerun reproduces its bytes.  ``estimate_power``
        through the library reproduces its smallest-n cells, with zero
        degenerate replications.  Returns (attempted, failed, errors).
        """
        if self.reference is None:
            return 1, 1, ["no iteration produced output to verify"]
        seed, reference = self.reference
        errors = []
        out = self.workdir / f"{self.name}-verify.csv"
        rc, _ = run_cli(self.argv(seed, 1, out), errors)
        payload, _ = take_output(out, rc, "curve", errors)
        if payload != reference:
            errors.append("curve --threads 1 payload differs from --threads 2")
        attempted, failed = 1, int(bool(errors))
        config = power.SimConfig(
            alpha=0.05, sidedness=rank_tests.Sidedness.GREATER, nreps=self.nreps,
            master_seed=seed, max_parallelism=self.threads,
        )
        for fields in (row.split(",") for row in reference.decode("utf-8").splitlines()[1:]):
            if int(fields[1]) != SURFACE_NS[0]:
                continue
            params = MixtureParams(float(fields[0]), float(SURFACE_MU), float(SURFACE_SIGMA))
            for kind, column in ((power.TestKind.WILCOXON, 2), (power.TestKind.T, 4)):
                attempted += 1
                try:
                    est = power.estimate_power(kind, params, int(fields[1]), config)
                except Exception as exc:
                    errors.append(f"estimate_power raised {exc!r}")
                    failed += 1
                    continue
                if fmt(est.power) != fields[column] or est.n_degenerate != 0:
                    errors.append(
                        f"estimate_power {kind.value} at {fields[:2]}: power {est.power}, "
                        f"{est.n_degenerate} degenerate; curve says {fields[column]}"
                    )
                    failed += 1
        return attempted, failed, errors


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _accepted(estimate, target):
    return estimate["power"] - Z99 * estimate["mc_se"] >= target - NMIN_SLACK


def check_search(doc, nreps, errors):
    """Check an emp-are payload; returns (probes, reps, elements, bad probes, whole-run ok).

    Every probe is a valid estimate with no degenerate replications; each
    search ends on the bisection invariant (n_min is accepted, n_min - 1 was
    probed and rejected); n_t / n_w lies in C7's band.
    """
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or len(rows) != 1:
        errors.append("emp-are: expected exactly one row")
        return 0, 0, 0, 0, False
    row = rows[0]
    target = SEARCH_ARGS["power"]
    probes = reps = elements = bad = 0
    problems = len(errors)
    for key, kind in (("t_search", "t"), ("w_search", "wilcoxon")):
        search = row[key]
        seen = {}
        for probe in search["search_trace"]:
            n, est = probe["n"], probe["estimate"]
            probes += 1
            reps += est["nreps"]
            elements += n * est["nreps"]
            if (
                est["test_kind"] != kind
                or est["nreps"] != nreps
                or est["n_degenerate"] != 0
                or not 0.0 <= est["power"] <= 1.0
                or not math.isclose(
                    est["mc_se"], math.sqrt(est["power"] * (1 - est["power"]) / nreps),
                    rel_tol=1e-9, abs_tol=1e-15,
                )
            ):
                bad += 1
                errors.append(f"{key} probe at n={n} is not a valid estimate")
            seen[n] = _accepted(est, target)
        n_min = search["n_min"]
        if not seen.get(n_min):
            errors.append(f"{key}: n_min={n_min} was not probed and accepted")
        elif n_min > 2 and seen.get(n_min - 1, True):
            errors.append(f"{key}: n_min-1={n_min - 1} was not probed and rejected")
    if row["n_t"] != row["t_search"]["n_min"] or row["n_w"] != row["w_search"]["n_min"]:
        errors.append("emp-are: n_t/n_w disagree with their searches")
    elif not math.isclose(row["ratio"], row["n_t"] / row["n_w"], rel_tol=1e-12):
        errors.append("emp-are: ratio is not n_t / n_w")
    elif not C7_RATIO_BAND[0] <= row["ratio"] <= C7_RATIO_BAND[1]:
        errors.append(f"emp-are: ratio {row['ratio']} outside C7's band {C7_RATIO_BAND}")
    return probes, reps, elements, bad, len(errors) == problems + bad


class Search:
    """``mixrank emp-are`` at C7's classical setting, one theta."""

    name = "search"
    threads = 1
    resets_pmf_cache = False

    def __init__(self, workdir, nreps=1000):
        self.workdir = workdir
        self.nreps = nreps
        self.reference = None  # (seed, payload document) of the first iteration

    def argv(self, seed, out):
        a = SEARCH_ARGS
        return [
            "emp-are", "--mu", str(a["mu"]), "--sigma", str(a["sigma"]),
            "--theta", str(a["theta"]), "--power", str(a["power"]),
            "--alpha", "0.05", "--sided", "greater", "--nreps", str(self.nreps),
            "--seed", str(seed), "--threads", str(self.threads), "--out", str(out),
        ]

    def warm_up(self):
        # A search at warm-up size could overflow its bracket, so warm the
        # same code path with a tiny curve over the bracket's small n.
        errors = []
        out = self.workdir / "warm-up.csv"
        a = SEARCH_ARGS
        argv = [
            "curve", "--mu", str(a["mu"]), "--sigma", str(a["sigma"]),
            "--theta", str(a["theta"]), "--n", "2,4,8,16,32,64", "--nreps", "32",
            "--seed", "0", "--out", str(out),
        ]
        rc, _ = run_cli(argv, errors)
        take_output(out, rc, "curve", errors)
        if errors:
            raise RuntimeError(f"warm-up failed: {errors}")

    def iteration(self, seed):
        out = self.workdir / f"search-{seed}.json"
        it = Iteration(0.0, 0, 0, 0.0, attempted=1)
        rc, it.wall_s = run_cli(self.argv(seed, out), it.errors)
        it.rate_s = it.wall_s
        payload, it.bytes_written = take_output(out, rc, "emp-are", it.errors)
        if payload is None:
            it.failed = 1
            return it
        doc = json.loads(payload)
        try:
            probes, it.reps, it.elements, bad, run_ok = check_search(doc, self.nreps, it.errors)
        except (KeyError, TypeError) as exc:
            it.errors.append(f"emp-are: malformed payload ({exc!r})")
            it.failed = 1
            return it
        it.attempted += probes
        it.failed = bad + (0 if run_ok else 1)
        if self.reference is None and run_ok:
            self.reference = (seed, doc)
        return it

    def verify(self):
        """The library's ``estimate_power`` reproduces each search's final probe."""
        if self.reference is None:
            return 1, 1, ["no iteration produced output to verify"]
        seed, doc = self.reference
        config = power.SimConfig(
            alpha=0.05, sidedness=rank_tests.Sidedness.GREATER, nreps=self.nreps,
            master_seed=seed, max_parallelism=1,
        )
        a = SEARCH_ARGS
        params = MixtureParams(a["theta"], a["mu"], a["sigma"])
        errors, failed = [], 0
        row = doc["rows"][0]
        for key, kind in (("t_search", power.TestKind.T), ("w_search", power.TestKind.WILCOXON)):
            n_min = row[key]["n_min"]
            final = next(p["estimate"] for p in row[key]["search_trace"] if p["n"] == n_min)
            est = power.estimate_power(kind, params, n_min, config)
            if est.power != final["power"]:
                errors.append(f"estimate_power {kind.value} at n={n_min}: {est.power} != {final['power']}")
                failed += 1
        return 2, failed, errors


# ---------------------------------------------------------------------------
# scalar
# ---------------------------------------------------------------------------

def are_erf(mu, sigma):
    """Closed-form efficiency recomputed from math.erf, independent of mixrank."""
    if mu == 0.0:
        return (6.0 / math.pi) / (1.0 + sigma * sigma)
    slope = math.erf(mu / math.sqrt(2.0 * (1.0 + sigma * sigma)))
    return 3.0 * (slope / mu) ** 2


def check_null_dist(text, n, errors):
    """The pmf CSV has support 0..n(n+1)/2, sums to 2^n and is symmetric."""
    lines = text.splitlines()
    top = n * (n + 1) // 2
    if not lines or lines[0] != "k,count,probability" or len(lines) != top + 2:
        errors.append(f"null-dist n={n}: bad schema or row count")
        return False
    counts = []
    for k, line in enumerate(lines[1:]):
        kk, count, prob = line.split(",")
        if int(kk) != k or not math.isclose(float(prob), int(count) / 2**n, rel_tol=1e-8):
            errors.append(f"null-dist n={n}: bad row {k}")
            return False
        counts.append(int(count))
    if sum(counts) != 2**n or counts != counts[::-1]:
        errors.append(f"null-dist n={n}: counts do not sum to 2^n or are not symmetric")
        return False
    return True


def check_grid(text, mu_axis, sigma_axis, errors):
    """Every grid value matches the erf recomputation; returns bad points."""
    lines = text.splitlines()
    expected = [(m, s) for m in mu_axis for s in sigma_axis]
    if not lines or lines[0] != "mu,sigma,are" or len(lines) != 1 + len(expected):
        errors.append("grid: bad schema or row count")
        return 1
    bad = 0
    for (m, s), line in zip(expected, lines[1:]):
        mu, sigma, value = line.split(",")
        if mu != fmt(m) or sigma != fmt(s) or not math.isclose(
            float(value), are_erf(float(m), float(s)), rel_tol=1e-7
        ):
            bad += 1
    if bad:
        errors.append(f"grid: {bad} values disagree with the erf recomputation")
    return 1 if bad else 0


def check_boundary(sigma, mu_star, errors):
    """dominance_boundary: None iff the mu -> 0 limit is at most 1, else are(mu*) = 1."""
    if are_erf(0.0, sigma) <= 1.0:
        ok = mu_star is None
    else:
        ok = mu_star is not None and mu_star > 0.0 and abs(are_erf(mu_star, sigma) - 1.0) <= 1e-8
    if not ok:
        errors.append(f"dominance_boundary({sigma}) = {mu_star}")
    return ok


SIDES = (rank_tests.Sidedness.GREATER, rank_tests.Sidedness.LESS, rank_tests.Sidedness.TWO_SIDED)


def make_samples(rng, count):
    """Contaminated-Gaussian samples, n in 5..200, rounded to 0.1.

    Rounding makes tied magnitudes and exact zeros as common as in recorded
    data, and locations span both signs; both matter to the oracle count.
    Samples on which both tests are undefined (constant or all zero) are
    redrawn, since the tests rightly refuse them.
    """
    samples = []
    while len(samples) < count:
        n = int(rng.integers(5, 201))
        theta, mu, sigma = rng.uniform(0.0, 1.0), rng.uniform(-3.0, 3.0), rng.uniform(0.3, 2.0)
        z = rng.standard_normal(n)
        x = np.where(rng.random(n) < theta, mu + sigma * z, z) + rng.uniform(-1.5, 1.5)
        x = np.round(x, 1)
        if np.ptp(x) > 0.0 and (x != 0.0).any():
            samples.append(x)
    return samples


class Scalar:
    """Cold null-dist, a fine grid, a boundary sweep and scalar tests; no Monte Carlo."""

    name = "scalar"
    threads = 1
    resets_pmf_cache = True

    def __init__(self, workdir, max_n=60, grid_steps=100, boundaries=100, samples=600):
        self.workdir = workdir
        self.max_n = max_n
        self.grid_steps = grid_steps
        self.boundaries = boundaries
        self.samples = samples
        self.last_tests = None  # (samples, sides, outcomes) of the latest iteration
        self.after_pmf_reset = lambda: None

    def warm_up(self):
        errors = []
        out = self.workdir / "warm-up.csv"
        for argv, sub in (
            (["null-dist", "--n", "3", "--out", str(out)], "null-dist"),
            (["grid", "--mu-range", "0,1", "--sigma-range", "0.5,1", "--steps-mu", "3",
              "--steps-sigma", "3", "--out", str(out)], "grid"),
        ):
            rc, _ = run_cli(argv, errors)
            take_output(out, rc, sub, errors)
        efficiency.dominance_boundary(0.5)
        x = np.array([0.3, -0.1, 1.2, 0.7, 0.7])
        rank_tests.t_test(x, SIDES[0])
        rank_tests.wilcoxon_test(x, SIDES[0])
        if errors:
            raise RuntimeError(f"warm-up failed: {errors}")

    def iteration(self, seed):
        rng = np.random.default_rng([seed, 7])
        mu_hi = 3.0 + rng.uniform(0.0, 0.5)
        sigma_lo, sigma_hi = 0.2 + rng.uniform(0.0, 0.05), 3.0 + rng.uniform(0.0, 0.5)
        sigmas = [float(s) for s in np.sort(rng.uniform(0.05, 1.6, self.boundaries))]
        samples = make_samples(rng, self.samples)
        sides = [SIDES[i % 3] for i in range(len(samples))]
        steps = self.grid_steps
        grid_argv_axes = ["--mu-range", f"0,{mu_hi!r}", "--sigma-range", f"{sigma_lo!r},{sigma_hi!r}"]

        it = Iteration(0.0, len(samples), sum(x.size for x in samples), 0.0,
                       attempted=self.max_n + 1 + len(sigmas) + 2 * len(samples))
        errors = it.errors
        pmf_runs = []
        start = clock()
        reset_pmf_cache()
        self.after_pmf_reset()
        for n in range(1, self.max_n + 1):
            out = self.workdir / f"pmf{n}.csv"
            pmf_runs.append((n, out, run_cli(["null-dist", "--n", str(n), "--out", str(out)], errors)[0]))
        grid_out = self.workdir / "grid.csv"
        grid_rc, _ = run_cli(
            ["grid", *grid_argv_axes, "--steps-mu", str(steps), "--steps-sigma", str(steps),
             "--out", str(grid_out)], errors,
        )
        boundary = []
        for s in sigmas:
            try:
                boundary.append(efficiency.dominance_boundary(s))
            except Exception as exc:
                errors.append(f"dominance_boundary({s}) raised {exc!r}")
                boundary.append(exc)
        tests_start = clock()
        outcomes = []
        for x, side in zip(samples, sides):
            try:
                outcomes.append((rank_tests.t_test(x, side), rank_tests.wilcoxon_test(x, side)))
            except Exception as exc:
                errors.append(f"scalar test raised {exc!r}")
                outcomes.append(None)
        end = clock()
        it.wall_s, it.rate_s = end - start, end - tests_start

        failed = 0
        for n, out, rc in pmf_runs:
            payload, written = take_output(out, rc, "null-dist", errors)
            it.bytes_written += written
            if payload is None or not check_null_dist(payload.decode("utf-8"), n, errors):
                failed += 1
        payload, written = take_output(grid_out, grid_rc, "grid", errors)
        it.bytes_written += written
        mu_axis = np.linspace(0.0, mu_hi, steps)
        sigma_axis = np.linspace(sigma_lo, sigma_hi, steps)
        failed += 1 if payload is None else check_grid(payload.decode("utf-8"), mu_axis, sigma_axis, errors)
        for s, mu_star in zip(sigmas, boundary):
            if isinstance(mu_star, Exception) or not check_boundary(s, mu_star, errors):
                failed += 1
        for x, pair in zip(samples, outcomes):
            if pair is None:
                failed += 2
                continue
            nonzero = int(np.count_nonzero(x))
            for outcome, n_eff in zip(pair, (x.size, nonzero)):
                if not 0.0 <= outcome.p_value <= 1.0 or outcome.n_effective != n_eff:
                    errors.append(f"scalar test: p={outcome.p_value}, n_effective={outcome.n_effective}")
                    failed += 1
        it.failed = failed
        self.last_tests = (samples, sides, outcomes)
        return it

    def verify(self):
        return 0, 0, []


def oracle_mismatches(samples, sides, outcomes):
    """Count scalar p-values that disagree with ``scipy.stats``; returns (checked, mismatched).

    The oracle matches mixrank's method per sample: ``ttest_1samp``, and
    ``wilcoxon`` with continuity correction, exact or normal as mixrank
    chose.  Known disagreements are counted, not hidden: the LESS-side t
    p-value loses its tail to cancellation, and the normal approximation
    ignores the tie correction of the variance.
    """
    import warnings

    from scipy import stats

    alternative = {SIDES[0]: "greater", SIDES[1]: "less", SIDES[2]: "two-sided"}
    checked = mismatched = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x, side, pair in zip(samples, sides, outcomes):
            if pair is None:
                continue
            t_out, w_out = pair
            q_t = stats.ttest_1samp(x, 0.0, alternative=alternative[side]).pvalue
            method = "exact" if w_out.method is rank_tests.Method.EXACT else "asymptotic"
            q_w = stats.wilcoxon(
                x, alternative=alternative[side], method=method, correction=True,
                zero_method="wilcox",
            ).pvalue
            for p, q in ((t_out.p_value, q_t), (w_out.p_value, q_w)):
                checked += 1
                if not math.isclose(p, float(q), rel_tol=1e-6, abs_tol=1e-300):
                    mismatched += 1
    return checked, mismatched


WORKLOADS = {cls.name: cls for cls in (Surface, Search, Scalar)}
