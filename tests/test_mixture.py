"""Mixture model: density, CDF, sampling, moments, and mean functions."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from mixrank.errors import DomainError
from mixrank.mixture import (
    MeanFunctionVariant,
    MixtureParams,
    _draw,
    _xi_t_value,
    _xi_w_value,
    cdf,
    moments,
    pdf,
    sample,
    xi_t,
    xi_w,
    xi_w_slope_at_null,
)
from mixrank.streams import seeded_rng

PARAMS_GRID = [
    MixtureParams(0.0, 0.0, 1.0),
    MixtureParams(0.1, -1.5, 0.4),
    MixtureParams(0.3, 1.0, 2.0),
    MixtureParams(0.5, 2.0, 1.0),
    MixtureParams(0.8, 0.2, 0.31622776601683794),
    MixtureParams(1.0, -0.7, 3.0),
]
STANDARD = MixtureParams(0.0, 0.0, 1.0)

# x -> Phi(x), frozen from 40-digit mpmath ncdf evaluations, so independent of
# the scipy routine under test
PHI_TABLE = {
    0.0: 0.5,
    0.5: 0.6914624612740131,
    1.0: 0.8413447460685429,
    1.959963985: 0.9750000000268816,
    -3.0: 0.001349898031630095,
    6.0: 0.9999999990134124,
    -8.5: 9.479534822203318e-18,
    2.5: 0.9937903346742239,
}


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(DomainError):
        MixtureParams(-0.01, 0.0, 1.0)
    with pytest.raises(DomainError):
        MixtureParams(1.01, 0.0, 1.0)
    with pytest.raises(DomainError):
        MixtureParams(0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        MixtureParams(0.5, math.nan, 1.0)
    with pytest.raises(DomainError):
        MixtureParams(0.5, math.inf, 1.0)
    # Model arguments are real numbers: no strings, None or bools.
    for bad in ("0.5", None, True, np.bool_(True)):
        for args in ((bad, 0.0, 1.0), (0.5, bad, 1.0), (0.5, 0.0, bad)):
            with pytest.raises(DomainError):
                MixtureParams(*args)


def test_from_variance_stores_sd():
    p = MixtureParams.from_variance(0.4, 0.2, 0.1)
    assert p.sigma == pytest.approx(math.sqrt(0.1), abs=0)
    for variance in (0.0, -1.0, math.nan, math.inf, "1", None, True):
        with pytest.raises(DomainError):
            MixtureParams.from_variance(0.4, 0.2, variance)


def test_from_variance_accepts_numpy_scalars():
    assert MixtureParams.from_variance(0.5, 0.2, np.float32(0.1)).sigma == math.sqrt(
        float(np.float32(0.1))
    )
    assert MixtureParams.from_variance(0.5, 0.2, np.int64(2)).sigma == math.sqrt(2.0)


# ---------------------------------------------------------------------------
# pdf / cdf
# ---------------------------------------------------------------------------

def test_pdf_examples():
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    assert pdf(MixtureParams(0.0, 5.0, 1.0), 0.0) == pytest.approx(inv_sqrt_2pi, abs=1e-15)
    assert pdf(MixtureParams(1.0, 2.0, 1.0), 2.0) == pytest.approx(inv_sqrt_2pi, abs=1e-15)
    # frozen: 0.7*phi(0.5) + 0.15*phi(-0.25), mpmath 40 digits
    assert pdf(MixtureParams(0.3, 1.0, 2.0), 0.5) == pytest.approx(
        0.304445946255437, abs=1e-14
    )


def test_pdf_rejects_nonfinite_x():
    with pytest.raises(DomainError):
        pdf(MixtureParams(0.3, 1.0, 2.0), math.inf)
    with pytest.raises(DomainError):
        pdf(MixtureParams(0.3, 1.0, 2.0), np.array([0.0, math.nan]))


def test_normal_cdf_tabulated_values():
    for x, expected in PHI_TABLE.items():
        assert cdf(STANDARD, x) == pytest.approx(expected, abs=1e-12)
    # extreme tail is also relatively accurate, not just absolutely
    assert cdf(STANDARD, -8.5) == pytest.approx(9.479534822203318e-18, rel=1e-10)


def test_normal_cdf_sf_complementarity():
    # the package takes every normal upper tail as Phi(-x)
    xs = np.linspace(-6.0, 6.0, 41)
    np.testing.assert_allclose(cdf(STANDARD, xs) + ndtr(np.negative(xs)), 1.0, atol=1e-15)


def test_normal_cdf_vectorizes():
    xs = np.array([-1.0, 0.0, 2.5])
    vals = cdf(STANDARD, xs)
    assert vals.shape == (3,)
    assert vals[1] == 0.5


def test_cdf_examples():
    assert cdf(MixtureParams(0.0, 3.0, 2.0), 0.0) == 0.5
    assert cdf(MixtureParams(0.5, 0.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-15)
    # frozen: 0.7*Phi(1) + 0.15
    assert cdf(MixtureParams(0.3, 1.0, 2.0), 1.0) == pytest.approx(
        0.73894132224798, abs=1e-14
    )


def test_null_params_reproduce_standard_gaussian_exactly():
    p = MixtureParams(0.0, 4.0, 2.5)
    xs = np.linspace(-5.0, 5.0, 11)
    np.testing.assert_array_equal(cdf(p, xs), ndtr(xs))
    phi = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    np.testing.assert_array_equal(pdf(p, xs), phi)
    rng_a = seeded_rng(123, "null-vs-gauss")
    rng_b = seeded_rng(123, "null-vs-gauss")
    draws = sample(p, 1000, rng_a)
    rng_b.random(1000)  # component-selection draws, unused when theta = 0
    np.testing.assert_array_equal(draws, rng_b.standard_normal(1000))
    assert abs(draws.mean()) < 0.2


def test_pdf_integrates_to_one():
    for p in PARAMS_GRID:
        lim = 12.0 * (1.0 + p.sigma + abs(p.mu))
        total, err = quad(lambda x: pdf(p, x), -lim, lim, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8), p


def test_cdf_matches_pdf_quadrature():
    for p in [PARAMS_GRID[1], PARAMS_GRID[3], PARAMS_GRID[4]]:
        lim = 12.0 * (1.0 + p.sigma + abs(p.mu))
        checkpoints = np.linspace(-lim, lim, 100)
        acc = 0.0
        prev = -lim
        for x in checkpoints:
            seg, _ = quad(lambda t: pdf(p, t), prev, x, limit=200)
            acc += seg
            prev = x
            assert acc == pytest.approx(cdf(p, x), abs=1e-8)


def test_cdf_monotone_with_unit_range():
    xs = np.linspace(-40.0, 40.0, 400)
    for p in PARAMS_GRID:
        values = cdf(p, xs)
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[-1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_determinism_and_validation():
    p = MixtureParams(0.3, 1.0, 2.0)
    a = sample(p, 50, seeded_rng(7, "det"))
    b = sample(p, 50, seeded_rng(7, "det"))
    np.testing.assert_array_equal(a, b)
    for bad in (0, True):
        with pytest.raises(DomainError):
            sample(p, bad, seeded_rng(7, "det"))


@pytest.mark.parametrize(
    "params", [MixtureParams(0.5, 0.0, 1e308), MixtureParams(1.0, 1.7e308, 1e307)]
)
def test_sample_refuses_a_contaminant_whose_draws_overflow(params):
    # sigma * z overflows in the first, mu + sigma * z in the second.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="contaminant"):
            sample(params, 1000, seeded_rng(7, "wide"))
        with pytest.raises(DomainError, match="contaminant"):
            _draw(params, 1000, seeded_rng(7, "wide"), np.empty(2000))
        # Just inside the double range, the draws stay finite.
        narrower = MixtureParams(params.theta, params.mu / 10.0, params.sigma / 10.0)
        assert np.isfinite(sample(narrower, 1000, seeded_rng(7, "wide"))).all()


def test_sample_block_shape_and_draw_order():
    p = MixtureParams(0.3, 1.0, 2.0)
    block = sample(p, 35, seeded_rng(7, "block")).reshape(5, 7)
    # documented order: every uniform of the block, then every normal, row-major
    rng = seeded_rng(7, "block")
    u = rng.random(35).reshape(5, 7)
    z = rng.standard_normal(35).reshape(5, 7)
    np.testing.assert_array_equal(block, np.where(u < p.theta, p.mu + p.sigma * z, z))


def _where_draw(params, rng, shape):
    """The component select as ``sample`` once wrote it, from a twin generator."""
    u = rng.random(shape)
    z = rng.standard_normal(shape)
    return np.where(u < params.theta, params.mu + params.sigma * z, z)


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("mu, sigma", [(-1.5, 0.4), (2.0, 3.0)])
def test_sample_bit_identical_to_where_select(theta, mu, sigma):
    p = MixtureParams(theta, mu, sigma)
    for rows in (1, 6):
        want = _where_draw(p, seeded_rng(3, "bits"), (rows, 37))
        buffer = np.full(300, np.nan)  # a buffer's old contents must not reach the draw
        buffered = _draw(p, rows * 37, seeded_rng(3, "bits"), buffer)
        assert np.shares_memory(buffered, buffer)
        for got in (sample(p, rows * 37, seeded_rng(3, "bits")), buffered):
            got = got.reshape(rows, 37)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sample_null_mean_lln():
    draws = sample(MixtureParams(0.0, 0.0, 1.0), 10**6, seeded_rng(11, "lln-null"))
    assert abs(draws.mean()) <= 4.0 / 1000.0


def test_sample_mixture_mean_lln():
    p = MixtureParams(0.3, 1.0, 2.0)
    mean, variance = moments(p)
    draws = sample(p, 10**6, seeded_rng(13, "lln-mix"))
    se = math.sqrt(variance) / 1000.0
    assert abs(draws.mean() - mean) <= 4.0 * se
    assert mean == pytest.approx(0.3, abs=0)


def test_empirical_cdf_within_ks_band():
    p = MixtureParams(0.3, 1.0, 2.0)
    draws = np.sort(sample(p, 10**6, seeded_rng(17, "ks")))
    theory = cdf(p, draws)
    n = draws.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(grid - theory)), np.max(np.abs(grid - 1.0 / n - theory)))
    assert ks <= 0.002


def test_moments_examples_and_mc_agreement():
    assert moments(MixtureParams(0.0, 3.0, 2.0)) == (0.0, 1.0)
    mean, var = moments(MixtureParams(1.0, -0.7, 3.0))
    assert mean == pytest.approx(-0.7, abs=0)
    assert var == pytest.approx(9.0, abs=1e-12)
    assert moments(MixtureParams(0.5, 2.0, 1.0)) == (1.0, 2.0)

    p = MixtureParams(0.5, 2.0, 1.0)
    draws = sample(p, 10**6, seeded_rng(19, "moments"))
    m, v = moments(p)
    n = draws.size
    se_mean = math.sqrt(v / n)
    assert abs(draws.mean() - m) <= 5.0 * se_mean
    s2 = draws.var(ddof=1)
    m4 = np.mean((draws - draws.mean()) ** 4)
    se_var = math.sqrt((m4 - s2 * s2) / n)
    assert abs(s2 - v) <= 5.0 * se_var


# ---------------------------------------------------------------------------
# mean functions
# ---------------------------------------------------------------------------

def _exact_variance(params):
    """The mixture variance of the doubles in ``params``, in rational arithmetic."""
    theta, mu, sigma = (Fraction(v) for v in (params.theta, params.mu, params.sigma))
    return (1 - theta) + theta * sigma * sigma + theta * (1 - theta) * mu * mu


@pytest.mark.parametrize(
    "params",
    [
        MixtureParams(1.0, 1.0, 1e-7),
        MixtureParams(1.0, 1.0, 1e-8),
        MixtureParams(0.999, 1.0, 0.1),
        MixtureParams(0.999, 3.0, 1e-3),
        MixtureParams(0.3, 1.0, 2.0),
    ],
)
def test_variance_does_not_cancel(params):
    exact = _exact_variance(params)
    _, variance = moments(params)
    assert variance == pytest.approx(float(exact), rel=1e-15, abs=0)
    expected = Fraction(params.theta) * Fraction(params.mu) / math.sqrt(exact)
    assert xi_t(params) == pytest.approx(float(expected), rel=1e-15, abs=0)


def test_variance_past_the_square_overflow():
    # At theta = 1 there is no between-component term, so nothing overflows.
    pure = MixtureParams(1.0, 1e200, 1.0)
    assert moments(pure) == (1e200, 1.0)
    assert xi_t(pure) == 1e200
    # At theta = 0 the contaminant has no weight, however wide it is.
    null = MixtureParams(0.0, 1.0, 1e200)
    assert moments(null) == (0.0, 1.0)
    assert [xi_t(null, variant) for variant in MeanFunctionVariant] == [0.0, 0.0]
    wide = MixtureParams(0.5, 1e200, 1e200)
    assert moments(wide) == (5e199, math.inf)
    for variant in MeanFunctionVariant:
        with pytest.raises(DomainError, match="variance"):
            xi_t(wide, variant)


def test_xi_t_examples():
    null = MixtureParams(0.0, 2.0, 1.5)
    assert xi_t(null, MeanFunctionVariant.PRINTED) == 0.0
    assert xi_t(null, MeanFunctionVariant.EXACT) == 0.0
    pure = MixtureParams(1.0, 3.0, 2.0)
    assert xi_t(pure, MeanFunctionVariant.PRINTED) == pytest.approx(1.5, abs=1e-15)
    # the documented denominator discrepancy at (0.5, 2, 1)
    half = MixtureParams(0.5, 2.0, 1.0)
    assert xi_t(half, MeanFunctionVariant.PRINTED) == pytest.approx(1.0, abs=1e-15)
    assert xi_t(half, MeanFunctionVariant.EXACT) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    # default is the exact variant
    assert xi_t(half) == xi_t(half, MeanFunctionVariant.EXACT)


def test_xi_w_examples():
    assert xi_w(MixtureParams(0.0, 2.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    pure = MixtureParams(1.0, 1.5, 2.0)
    assert xi_w(pure) == pytest.approx(
        float(ndtr(math.sqrt(2.0) * 1.5 / 2.0)), abs=1e-14
    )
    # frozen mpmath value of the printed expression
    assert xi_w(MixtureParams(0.3, 1.0, 2.0)) == pytest.approx(
        0.5959311168376859, abs=1e-14
    )


def test_xi_w_matches_three_term_expansion():
    rng = seeded_rng(23, "xi-w-identity")
    for _ in range(200):
        theta = float(rng.random())
        mu = float(rng.normal(0.0, 2.0))
        sigma = float(rng.uniform(0.05, 4.0))
        expansion = (
            0.5 * (1.0 - theta) ** 2
            + 2.0 * theta * (1.0 - theta) * ndtr(mu / math.sqrt(1.0 + sigma * sigma))
            + theta * theta * ndtr(math.sqrt(2.0) * mu / sigma)
        )
        value = xi_w(MixtureParams(theta, mu, sigma))
        assert value == pytest.approx(expansion, abs=1e-12)
        assert 0.0 <= value <= 1.0


def test_xi_w_slope_examples():
    assert xi_w_slope_at_null(0.0, 1.7) == 0.0
    assert xi_w_slope_at_null(1.0, 1.0) == pytest.approx(0.5204998778130465, abs=1e-12)
    assert xi_w_slope_at_null(80.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert xi_w_slope_at_null(-2.0, 1.0) == -xi_w_slope_at_null(2.0, 1.0)
    with pytest.raises(DomainError):
        xi_w_slope_at_null(1.0, 0.0)


def test_xi_w_at_ordinary_sigma_keeps_its_bits():
    # Exact values of mixrank 0.2.0 at theta = 0.3; a guard against overflow
    # at huge sigma must not move them.
    table = {
        (0.2, 0.31622776601683794): (0.15123349898314453, 0.5600598331579388),
        (1.0, 1.0): (0.5204998778130465, 0.647226510023477),
        (1.0, 0.5): (0.6289066304773024, 0.6768598943260864),
        (-3.0, 7.5): (-0.30825727223316424, 0.4159883168539354),
        (1e-8, 1e-3): (7.978841618608843e-09, 0.5000005094461819),
        (2.5, 1e3): (0.001994708326832898, 0.5005458311404697),
    }
    for (mu, sigma), (slope, value) in table.items():
        assert xi_w_slope_at_null(mu, sigma) == slope
        assert xi_w(MixtureParams(0.3, mu, sigma)) == value
    rng = seeded_rng(37, "xi-w-slope-bits")
    for sigma in rng.uniform(1e-3, 1e3, 2000):
        plain = math.erf(1.0 / math.sqrt(2.0 * (1.0 + sigma * sigma)))
        assert xi_w_slope_at_null(1.0, sigma) == plain
    # The guard on sqrt(2) * mu keeps the plain formula wherever it is finite.
    for mu in np.concatenate([-np.geomspace(1e-300, 1e308, 61), np.geomspace(1e-300, 1e308, 61)]):
        for sigma in np.geomspace(1e-3, 1e3, 13):
            mu, sigma = float(mu), float(sigma)
            a = ndtr(math.sqrt(2.0) * mu / sigma)
            b = ndtr(mu / math.sqrt(1.0 + sigma * sigma))
            plain = 0.3 * 0.3 * a - 0.5 * (0.3 - 1.0) * (1.0 - 0.3 + 4.0 * 0.3 * b)
            assert xi_w(MixtureParams(0.3, mu, sigma)) == plain


def test_xi_w_at_huge_sigma():
    # sigma^2 overflows past ~1.3e154; with mu = sigma the slope stays
    # 2*Phi(1) - 1 = erf(1/sqrt(2)).
    assert xi_w_slope_at_null(1e200, 1e200) == pytest.approx(math.erf(math.sqrt(0.5)), rel=1e-15)
    expansion = 0.125 + 0.5 * ndtr(1.0) + 0.25 * ndtr(math.sqrt(2.0))
    assert xi_w(MixtureParams(0.5, 1e200, 1e200)) == pytest.approx(expansion, rel=1e-15)
    # sqrt(2) * mu overflows past ~1.27e308; the old form read 0.7957 here.
    assert xi_w(MixtureParams(0.5, 1.7e308, 1.7e308)) == pytest.approx(expansion, rel=1e-15)
    assert round(expansion, 4) == 0.7760


def test_xi_w_central_difference_matches_slope():
    rng = seeded_rng(29, "xi-w-slope-fd")
    h = 1e-5
    for _ in range(20):
        mu = float(rng.normal(0.0, 2.0))
        sigma = float(rng.uniform(0.1, 3.0))
        fd = (_xi_w_value(h, mu, sigma) - _xi_w_value(-h, mu, sigma)) / (2.0 * h)
        assert fd == pytest.approx(xi_w_slope_at_null(mu, sigma), abs=1e-6)


def test_xi_t_central_difference_is_mu_for_both_variants():
    rng = seeded_rng(31, "xi-t-slope-fd")
    h = 1e-5
    for _ in range(20):
        mu = float(rng.normal(0.0, 2.0))
        sigma = float(rng.uniform(0.1, 3.0))
        for variant in MeanFunctionVariant:
            fd = (
                _xi_t_value(h, mu, sigma, variant) - _xi_t_value(-h, mu, sigma, variant)
            ) / (2.0 * h)
            assert fd == pytest.approx(mu, abs=1e-6)
