"""Acceptance gate: every contract criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE C<k> PASS`` line on success (visible with
``pytest -s`` / ``-v``); a failed criterion fails its test.  Replication
budgets follow the criteria; the whole module takes about 22 s on a 2-vCPU
Linux host, most of it in C7 (~14 s) and C3 (~6 s, its cells on two threads).
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mixrank as mx
from mixrank.mixture import _xi_w_value
from mixrank.streams import seeded_rng


def ok(k: int, message: str) -> None:
    print(f"ACCEPTANCE C{k} PASS: {message}")


# ---------------------------------------------------------------------------
# C1: W+ = C(n,2) U + #positives, exactly, 1000 random tie-free samples
# ---------------------------------------------------------------------------

def test_c01_identity_suite():
    rng = seeded_rng(101, "acceptance-identity")
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        x = rng.normal(rng.uniform(-0.5, 0.5), 1.0, n)
        while np.unique(np.abs(x)).size < n or (x == 0.0).any():
            x = rng.normal(rng.uniform(-0.5, 0.5), 1.0, n)
        assert mx.identity_check(x)
        checked += 1
    assert checked == 1000
    ok(1, "signed-rank/U decomposition exact on 1000 tie-free samples, n in [2, 200]")


# ---------------------------------------------------------------------------
# C2: exact null pmf equals 2^n enumeration (n <= 12); moments exact (n <= 60)
# ---------------------------------------------------------------------------

def test_c02_exact_null_oracle():
    from fractions import Fraction

    for n in range(1, 13):
        counts = [0] * (n * (n + 1) // 2 + 1)
        for pattern in range(1 << n):
            w = 0
            for i in range(n):
                if pattern >> i & 1:
                    w += i + 1
            counts[w] += 1
        assert list(mx.exact_null_pmf(n).counts) == counts, n

    for n in range(1, 61):
        pmf = mx.exact_null_pmf(n)
        assert pmf.exact_mean() == Fraction(n * (n + 1), 4)
        assert pmf.exact_variance() == Fraction(n * (n + 1) * (2 * n + 1), 24)
        assert sum(pmf.counts) == 1 << n
        assert pmf.counts == tuple(reversed(pmf.counts))
    ok(2, "exact pmf equals sign-vector enumeration (n<=12); exact moments (n<=60)")


# ---------------------------------------------------------------------------
# C3: xi_w closed form vs Monte Carlo pair sums, 3x3x3 grid, 1e7 pairs
# ---------------------------------------------------------------------------

def test_c03_xi_w_formula_vs_monte_carlo():
    npairs = 10**7
    chunk = 2 * 10**6
    cells = [(t, m, s) for t in (0.1, 0.4, 0.8) for m in (-1.0, 0.3, 2.0) for s in (0.5, 1.0, 2.0)]

    def count_positive(cell):
        params = mx.MixtureParams(*cell)
        rng = seeded_rng(103, "acceptance-xi-w", *cell)
        positive = 0
        done = 0
        while done < npairs:
            m = min(chunk, npairs - done)
            x1 = mx.sample(params, m, rng)
            x2 = mx.sample(params, m, rng)
            positive += int((x1 + x2 > 0.0).sum())
            done += m
        return positive

    # Each cell has its own stream, so running them on threads (numpy draws
    # without the GIL) leaves every count unchanged.  Two workers, because
    # each cell in flight holds ~50 MB of chunks.
    with ThreadPoolExecutor(max_workers=2) as pool:
        counts = list(pool.map(count_positive, cells))
    for cell, positive in zip(cells, counts):
        p_hat = positive / npairs
        se = math.sqrt(p_hat * (1.0 - p_hat) / npairs)
        assert abs(mx.xi_w(mx.MixtureParams(*cell)) - p_hat) <= 4.0 * se, cell
    ok(3, "pair-sum probability matches closed form within 4 MC se on the 3x3x3 grid")


# ---------------------------------------------------------------------------
# C4: central difference of xi_w at theta=0 matches the slope formula
# ---------------------------------------------------------------------------

def test_c04_slope_at_null():
    rng = seeded_rng(107, "acceptance-slope")
    h = 1e-5
    for _ in range(20):
        mu = float(rng.normal(0.0, 2.0))
        sigma = float(rng.uniform(0.1, 3.0))
        fd = (_xi_w_value(h, mu, sigma) - _xi_w_value(-h, mu, sigma)) / (2.0 * h)
        assert abs(fd - mx.xi_w_slope_at_null(mu, sigma)) <= 1e-6
    ok(4, "central finite difference matches 2*Phi(mu/sqrt(1+sigma^2))-1 within 1e-6")


# ---------------------------------------------------------------------------
# C5: size calibration at alpha = 0.05 with 1e5 replications
# ---------------------------------------------------------------------------

def test_c05_size_calibration():
    cfg = mx.SimConfig(alpha=0.05, sidedness=mx.Sidedness.GREATER, nreps=100_000,
                       master_seed=5150, max_parallelism=8)
    for n in (10, 30, 100):
        est = mx.estimate_size(mx.TestKind.T, n, cfg)
        assert 0.045 <= est.power <= 0.055, (n, est.power)
        assert est.n_degenerate == 0
    # n = 30 also covers the null-calibration contract of the test module
    for n in (30, 50, 100):
        est = mx.estimate_size(mx.TestKind.WILCOXON, n, cfg)
        assert 0.045 <= est.power <= 0.055, (n, est.power)

    # exact mode at n = 10: the empirical size reproduces the attainable
    # discrete level of the exact null law, not the nominal 5%
    pmf = mx.exact_null_pmf(10)
    k_star = min(k for k in range(pmf.support_max + 1) if pmf.sf(k) <= 0.05)
    attainable = float(pmf.sf(k_star))
    est = mx.estimate_size(mx.TestKind.WILCOXON, 10, cfg)
    se = math.sqrt(attainable * (1.0 - attainable) / cfg.nreps)
    assert abs(est.power - attainable) <= 5.0 * se, (est.power, attainable)
    ok(5, f"sizes in [0.045, 0.055]; exact-mode size {est.power:.4f} matches "
          f"attainable level {attainable:.4f}")


# ---------------------------------------------------------------------------
# C6: the empirical sample-size oracle adjudicates the closed-form constant
# ---------------------------------------------------------------------------

def test_c06_constant_adjudication():
    cfg = mx.SimConfig(alpha=0.05, sidedness=mx.Sidedness.GREATER, nreps=20_000,
                       master_seed=20260810, max_parallelism=8)
    rows = mx.empirical_are(1.0, 0.5, [0.5, 0.4, 0.3], 0.8, cfg)
    trailing = [row.ratio for row in rows[-2:]]
    for ratio in trailing:
        assert 0.9 <= ratio <= 1.5, rows

    derived = mx.are(1.0, 0.5, mx.AreVariant.EFFICACY_DERIVED)   # ~1.187
    printed = mx.are(1.0, 0.5, mx.AreVariant.AS_PRINTED)         # ~3.560
    assert abs(trailing[-1] - derived) < abs(trailing[-1] - printed)
    ok(6, f"trailing n_t/n_w ratios {[round(r, 3) for r in trailing]} select the "
          f"derived constant ({derived:.3f}), excluding the printed one ({printed:.3f})")


# ---------------------------------------------------------------------------
# C7: classical small-shift limit recovered by the oracle
# ---------------------------------------------------------------------------

def test_c07_classical_limit():
    cfg = mx.SimConfig(alpha=0.05, sidedness=mx.Sidedness.GREATER, nreps=20_000,
                       master_seed=20260810, max_parallelism=8)
    rows = mx.empirical_are(0.2, 1.0, [0.5, 0.4, 0.3], 0.8, cfg)
    target = (6.0 / math.pi) / 2.0  # ~0.955
    trailing = rows[-1].ratio
    assert abs(trailing - target) <= 0.15, rows
    ok(7, f"trailing ratio {trailing:.3f} within +-0.15 of the small-shift value {target:.3f}")


# ---------------------------------------------------------------------------
# C8: concentrated contaminant (variance 0.1): signed-rank clearly dominant
# ---------------------------------------------------------------------------

def test_c08_concentrated_contaminant_surface():
    cfg = mx.SimConfig(alpha=0.05, sidedness=mx.Sidedness.GREATER, nreps=20_000,
                       master_seed=8675309, max_parallelism=8)
    thetas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    rows = mx.power_ratio_surface(0.2, math.sqrt(0.1), thetas, [20, 50, 100], cfg)
    dominant = [
        row for row in rows
        if not row.flagged
        and row.ratio > 1.0
        and row.power_w - row.power_t > math.hypot(row.se_w, row.se_t)
    ]
    assert len(dominant) >= 5, [round(r.ratio, 3) for r in rows]
    assert len({row.theta for row in dominant}) >= 3
    assert len({row.n for row in dominant}) >= 2
    ok(8, f"{len(dominant)}/{len(rows)} cells have ratio > 1 beyond combined MC error "
          "(wide dominance region)")


# ---------------------------------------------------------------------------
# C9: contaminant as wide as the null (variance 1): near-parity everywhere
# ---------------------------------------------------------------------------

def test_c09_wide_contaminant_surface():
    cfg = mx.SimConfig(alpha=0.05, sidedness=mx.Sidedness.GREATER, nreps=20_000,
                       master_seed=8675309, max_parallelism=8)
    thetas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    rows = mx.power_ratio_surface(0.2, 1.0, thetas, [20, 50, 100], cfg)
    for row in rows:
        assert not row.flagged, row
        assert 0.90 <= row.ratio <= 1.10, row
    worst = max(abs(row.ratio - 1.0) for row in rows)
    ok(9, f"all {len(rows)} ratios within 1 +- 0.10 (worst deviation {worst:.3f})")


# ---------------------------------------------------------------------------
# C10: CLI determinism across thread counts, byte-identical CSV
# ---------------------------------------------------------------------------

def test_c10_cli_thread_determinism(tmp_path, capsys):
    from mixrank.cli import main

    common = [
        "curve",
        "--mu", "0.2", "--sigma", "0.31622776601683794",
        "--theta", "0,0.4,0.8",
        "--n", "15,40",
        "--alpha", "0.05", "--sided", "greater",
        "--nreps", "5000", "--seed", "77",
    ]
    path_1 = tmp_path / "threads1.csv"
    path_32 = tmp_path / "threads32.csv"
    assert main([*common, "--threads", "1", "--out", str(path_1)]) == 0
    assert main([*common, "--threads", "32", "--out", str(path_32)]) == 0
    capsys.readouterr()
    assert path_1.read_bytes() == path_32.read_bytes()
    ok(10, "curve output byte-identical for --threads 1 vs --threads 32")


# ---------------------------------------------------------------------------
# C11: out-of-scope reproduction targets, recorded as exclusions
# ---------------------------------------------------------------------------

def test_c11_excluded_targets_documented():
    # The neuroimaging application behind this comparison (detection counts
    # from a specific group study and the efficiency value ~5.35 computed
    # from its unpublished nuisance-parameter estimates) cannot be reproduced
    # without that data and is deliberately out of scope: nothing in the
    # package claims it.  This placeholder keeps the exclusion visible in the
    # acceptance report.
    ok(11, "application-specific detection counts and e=5.35 excluded "
           "(unpublished data); no such surface exists in the package")
