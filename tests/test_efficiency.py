"""Closed-form relative efficiency, its grid, and the dominance boundary."""

import math

import numpy as np
import pytest

from mixrank.efficiency import (
    AreVariant,
    EfficiencyGrid,
    are,
    dominance_boundary,
    dominance_grid,
    efficacy_t,
    efficacy_w,
)
from mixrank.errors import DomainError
from mixrank.mixture import MixtureParams, xi_w_slope_at_null
from mixrank.streams import seeded_rng


def test_efficacy_t_examples():
    assert efficacy_t(0.0, 1.0).efficacy == 0.0
    assert efficacy_t(1.0, 2.0).efficacy == 1.0
    assert efficacy_t(-2.0, 0.5).efficacy == -2.0
    eff = efficacy_t(1.3, 1.0)
    assert eff.slope == 1.3
    assert eff.null_sd == 1.0
    with pytest.raises(DomainError):
        efficacy_t(1.0, 0.0)


def test_efficacy_w_examples():
    assert efficacy_w(0.0, 1.0).efficacy == 0.0
    eff = efficacy_w(1.0, 1.0)
    assert eff.null_sd == pytest.approx(math.sqrt(1.0 / 3.0), abs=0)
    assert eff.efficacy == pytest.approx(0.9015322337055892, abs=1e-12)


def test_efficacy_slope_single_source_of_truth():
    rng = seeded_rng(79, "efficacy-slope")
    for _ in range(100):
        mu = float(rng.normal(0.0, 2.0))
        sigma = float(rng.uniform(0.05, 4.0))
        assert efficacy_w(mu, sigma).slope == xi_w_slope_at_null(mu, sigma)


def test_efficacy_ratio_consistency():
    rng = seeded_rng(83, "efficacy-ratio")
    for _ in range(50):
        mu = float(rng.uniform(0.05, 3.0))
        sigma = float(rng.uniform(0.1, 3.0))
        ratio = efficacy_w(mu, sigma).efficacy / efficacy_t(mu, sigma).efficacy
        assert are(mu, sigma, AreVariant.EFFICACY_DERIVED) == pytest.approx(
            ratio * ratio, abs=1e-12
        )


def test_are_examples():
    assert are(1.0, 1.0, AreVariant.EFFICACY_DERIVED) == pytest.approx(
        0.8127603684101891, abs=1e-12
    )
    assert are(1.0, 1.0, AreVariant.AS_PRINTED) == pytest.approx(
        2.4382811052305673, abs=1e-12
    )
    # classical Gaussian-shift value recovered in the small-shift limit
    assert are(0.0, 1.0, AreVariant.EFFICACY_DERIVED) == pytest.approx(
        3.0 / math.pi, abs=1e-15
    )
    assert are(0.0, 2.0, AreVariant.EFFICACY_DERIVED) == pytest.approx(
        (6.0 / math.pi) / 5.0, abs=1e-15
    )


def test_are_variant_constants():
    assert AreVariant.EFFICACY_DERIVED.constant == 3.0
    assert AreVariant.AS_PRINTED.constant == 9.0


def test_are_printed_is_exactly_three_times_derived():
    rng = seeded_rng(89, "are-variants")
    for _ in range(100):
        mu = float(rng.normal(0.0, 2.0))
        sigma = float(rng.uniform(0.05, 4.0))
        assert are(mu, sigma, AreVariant.AS_PRINTED) == 3.0 * are(
            mu, sigma, AreVariant.EFFICACY_DERIVED
        )


def test_are_even_in_mu():
    rng = seeded_rng(97, "are-even")
    for _ in range(50):
        mu = float(rng.uniform(0.01, 4.0))
        sigma = float(rng.uniform(0.1, 3.0))
        assert are(mu, sigma) == are(-mu, sigma)


def test_are_continuous_at_zero():
    for sigma in [0.3, 1.0, 2.5]:
        for variant in AreVariant:
            assert are(1e-6, sigma, variant) == pytest.approx(
                are(0.0, sigma, variant), abs=1e-8
            )
    # Where erf's argument is subnormal, erf has lost bits or underflowed:
    # the value is the mu -> 0 limit itself.
    for sigma in [0.3, 1.0, 2.5, 1e150]:
        for mu in [5e-324, 1e-320, 1e-310]:
            for sign in (1.0, -1.0):
                for variant in AreVariant:
                    assert are(sign * mu, sigma, variant) == are(0.0, sigma, variant)
    assert are(1e-307, 2.65e25) == are(0.0, 2.65e25) == pytest.approx(2.72e-51, rel=1e-3)
    # Where it is normal, the value is the closed form itself, to the bit.
    for sigma in [0.3, 1.0, 2.5, 1e150]:
        for mu in [1e-300 * max(1.0, sigma), 1e-9]:
            slope = xi_w_slope_at_null(mu, sigma)
            assert are(mu, sigma) == 3.0 * (slope / mu) * (slope / mu)


@pytest.mark.parametrize("sigma", [1.35e154, 1e155, 1e200])
@pytest.mark.parametrize("variant", list(AreVariant))
def test_are_limit_at_mu_zero_past_the_square_overflow(sigma, variant):
    # sigma^2 overflows past ~1.34e154; the limit read 0.0 there, while a
    # tiny normal mu next to it read (6/pi)/sigma^2.  The values are
    # subnormal or zero, so the tolerance is wide against their lost bits.
    c = variant.constant / 3.0
    limit = c * (6.0 / math.pi) / sigma / sigma
    for mu in (0.0, 5e-324, -5e-324):
        assert are(mu, sigma, variant) == pytest.approx(limit, rel=1e-9, abs=0.0)
    assert are(0.0, sigma, variant) == pytest.approx(are(1e-100, sigma, variant), rel=1e-9, abs=0.0)


def test_are_upper_bound():
    rng = seeded_rng(101, "are-bound")
    for _ in range(100):
        mu = float(rng.uniform(0.01, 5.0)) * float(rng.choice([-1.0, 1.0]))
        sigma = float(rng.uniform(0.05, 4.0))
        for variant in AreVariant:
            assert are(mu, sigma, variant) <= variant.constant / (mu * mu) * (1.0 + 1e-12)


def test_dominance_grid_shape_and_consistency():
    grid = dominance_grid((0.5, 1.0), (0.5, 1.5), 2, 2)
    assert isinstance(grid, EfficiencyGrid)
    assert grid.values.shape == (2, 2)
    assert grid.values[1, 1] == are(1.0, 1.5)
    assert np.all(grid.values >= 0.0)

    fine = dominance_grid((1.0, 1.0), (0.2, 3.0), 2, 40)
    # monotone decreasing along sigma for fixed mu > 0
    assert np.all(np.diff(fine.values[0]) < 0.0)

    match = dominance_grid((1.0, 2.0), (1.0, 2.0), 3, 3)
    assert match.values[0, 0] == are(1.0, 1.0)


def test_dominance_grid_validation():
    with pytest.raises(DomainError):
        dominance_grid((0.0, 1.0), (0.5, 1.0), 1, 2)
    with pytest.raises(DomainError):
        dominance_grid((1.0, 0.0), (0.5, 1.0), 2, 2)
    with pytest.raises(DomainError):
        dominance_grid((0.0, 1.0), (0.0, 1.0), 2, 2)
    for mu_range, sigma_range in [
        ((0.0, math.inf), (0.5, 1.0)),
        ((-math.inf, 0.0), (0.5, 1.0)),
        ((0.0, 1.0), (0.5, math.inf)),
    ]:
        with pytest.raises(DomainError, match="finite"):
            dominance_grid(mu_range, sigma_range, 2, 2)
    # Range ends obey the real-number rule of are and MixtureParams.
    for bad in ("0.5", True, np.bool_(True), None):
        for mu_range, sigma_range in [
            ((bad, 1.0), (0.5, 1.0)),
            ((0.0, bad), (0.5, 1.0)),
            ((0.0, 1.0), (bad, 1.0)),
            ((0.0, 1.0), (0.5, bad)),
        ]:
            with pytest.raises(DomainError, match="real numbers"):
                dominance_grid(mu_range, sigma_range, 2, 2)
    with pytest.raises(DomainError, match="real numbers"):
        dominance_grid(("0", "1"), ("0.5", True), 2, 2)
    ints = dominance_grid((np.int64(0), 1), (np.float64(0.5), 1), 2, 2)
    np.testing.assert_array_equal(ints.values, dominance_grid((0.0, 1.0), (0.5, 1.0), 2, 2).values)
    # Step counts obey the one integer rule (see tests/test_errors.py).
    for steps in (2.5, 3.0, np.float64(3.0), True, "3"):
        for steps_mu, steps_sigma in ((steps, 2), (2, steps)):
            with pytest.raises(DomainError, match="integer"):
                dominance_grid((0.0, 1.0), (0.5, 1.0), steps_mu, steps_sigma)
    assert dominance_grid((0.0, 1.0), (0.5, 1.0), np.int64(3), 2).values.shape == (3, 2)


@pytest.mark.parametrize(
    "mu, sigma",
    [
        (math.nan, 1.0),
        (math.inf, 1.0),
        (-math.inf, 1.0),
        (1.0, math.nan),
        (1.0, math.inf),
        (1.0, 0.0),
        (1.0, -1.0),
        ("1", 1.0),
        (1.0, "1"),
        (None, 1.0),
        (True, 1.0),
        (1.0, True),
    ],
)
def test_every_entry_point_keeps_the_mixture_rule_on_mu_sigma(mu, sigma):
    calls = [efficacy_t, efficacy_w, are, xi_w_slope_at_null, lambda m, s: MixtureParams(0.5, m, s)]
    if isinstance(mu, float) and mu == 1.0:  # only sigma is out of the domain
        calls.append(lambda m, s: dominance_boundary(s))
    for call in calls:
        with pytest.raises(DomainError):
            call(mu, sigma)


def test_dominance_boundary_absent_when_limit_below_one():
    # derived limit at sigma=2 is (6/pi)/5 < 1 and the surface only decays
    assert dominance_boundary(2.0, AreVariant.EFFICACY_DERIVED) is None


def test_dominance_boundary_printed_sigma_one():
    mu_star = dominance_boundary(1.0, AreVariant.AS_PRINTED)
    assert mu_star is not None
    assert abs(are(mu_star, 1.0, AreVariant.AS_PRINTED) - 1.0) <= 1e-9
    eps = 1e-4
    assert are(mu_star - eps, 1.0, AreVariant.AS_PRINTED) > 1.0
    assert are(mu_star + eps, 1.0, AreVariant.AS_PRINTED) < 1.0


def test_dominance_boundary_derived_small_sigma():
    mu_star = dominance_boundary(0.5, AreVariant.EFFICACY_DERIVED)
    assert mu_star is not None
    assert abs(are(mu_star, 0.5) - 1.0) <= 1e-9
