"""Simulated power against exact laws: the draw, the evaluators and the p-value lookup together.

Two alternatives have a power known in closed form:

* the signed-rank test at alpha = 2^-n rejects only when every observation
  is positive (exact null pmf, n <= 25), so GREATER has power (1 - F(0))^n
  and LESS F(0)^n, with F the mixture CDF; TWO_SIDED at alpha = 2^(1-n)
  has their sum;
* at theta = 1 the sample is N(mu, sigma^2), so the t statistic follows a
  noncentral t law with n - 1 degrees of freedom and noncentrality
  mu * sqrt(n) / sigma.

Each cell must land within 4.5 binomial standard errors of the exact power,
the band fixed before any cell was run.  Parameter sets keep every expected
rejection count of a cell at 7 or more, where that band is a fair test.
"""

import math

import pytest
import scipy.stats

from mixrank.mixture import MixtureParams, cdf as mixture_cdf
from mixrank.power import SimConfig, TestKind, estimate_power
from mixrank.rank_tests import Sidedness

NREPS = 40_000
BAND_SE = 4.5


def _off_band(kind, params, n, sidedness, alpha, seed, exact):
    """The cell's description if its simulated power is outside the band, else None."""
    config = SimConfig(alpha=alpha, sidedness=sidedness, nreps=NREPS, master_seed=seed)
    simulated = estimate_power(kind, params, n, config).power
    z = (simulated - exact) / math.sqrt(exact * (1.0 - exact) / NREPS)
    if abs(z) <= BAND_SE:
        return None
    return f"{kind.value} {params} n={n} {sidedness.value} seed={seed}: {simulated} vs {exact} (z={z:.2f})"


@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize(
    "params",
    [MixtureParams(0.2, 1.0, 1.0), MixtureParams(0.5, 0.5, 2.0), MixtureParams(0.3, -1.0, 1.5)],
)
def test_signed_rank_power_at_smallest_level_is_all_one_sign(params, n):
    f0 = mixture_cdf(params, 0.0)
    cells = (
        (Sidedness.GREATER, 2.0**-n, (1.0 - f0) ** n),
        (Sidedness.LESS, 2.0**-n, f0**n),
        (Sidedness.TWO_SIDED, 2.0 ** (1 - n), f0**n + (1.0 - f0) ** n),
    )
    failures = [
        _off_band(TestKind.WILCOXON, params, n, sidedness, alpha, seed, exact)
        for sidedness, alpha, exact in cells
        for seed in (1, 2, 3)
    ]
    assert [f for f in failures if f] == []


@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize("mu, sigma, seed", [(0.3, 1.0, 4), (-0.2, 0.5, 5), (0.1, 2.0, 6)])
def test_t_power_under_normal_data_is_noncentral_t(mu, sigma, seed, n):
    alpha, df, nc = 0.05, n - 1, mu * math.sqrt(n) / sigma
    one_sided = scipy.stats.t.isf(alpha, df)
    two_sided = scipy.stats.t.isf(alpha / 2.0, df)
    cells = (
        (Sidedness.GREATER, scipy.stats.nct.sf(one_sided, df, nc)),
        (Sidedness.LESS, scipy.stats.nct.cdf(-one_sided, df, nc)),
        (
            Sidedness.TWO_SIDED,
            scipy.stats.nct.sf(two_sided, df, nc) + scipy.stats.nct.cdf(-two_sided, df, nc),
        ),
    )
    params = MixtureParams(1.0, mu, sigma)
    failures = [
        _off_band(TestKind.T, params, n, sidedness, alpha, seed, float(exact))
        for sidedness, exact in cells
    ]
    assert [f for f in failures if f] == []
