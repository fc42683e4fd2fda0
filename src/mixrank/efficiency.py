"""Closed-form asymptotic relative efficiency of the signed-rank test vs. the t test.

Under the contaminated-Gaussian alternative the two statistics have
efficacies (mean-function slope at the null over null sd)

    t statistic:        slope = mu,                          null sd = 1
    signed-rank (via U): slope = 2*Phi(mu/sqrt(1+sigma^2))-1, null sd = sqrt(1/3)

and the relative efficiency is the squared efficacy ratio.  Squaring the
ratio puts constant 3 in front of (slope/mu)^2.  A variant with constant 9
is kept selectable so the alternative printed form of the closed formula
stays reproducible, even though it is inconsistent with the efficacy
ingredients above; the Monte Carlo sample-size oracle in
:mod:`mixrank.power` adjudicates empirically in favour of 3.
"""

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, _integers, _member
from .mixture import _check_mu_sigma, _over_root_one_plus_square, xi_w_slope_at_null

_NULL_SD_W = math.sqrt(1.0 / 3.0)
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Efficacy:
    """Slope of a statistic's mean function at the null, its null sd, and their ratio."""

    slope: float
    null_sd: float
    efficacy: float


class AreVariant(Enum):
    """Constant in front of the squared-slope ratio.

    ``EFFICACY_DERIVED`` (3) is what the efficacy ingredients imply and is
    the default; ``AS_PRINTED`` (9) reproduces the published closed form
    verbatim.
    """

    EFFICACY_DERIVED = "efficacy_derived"
    AS_PRINTED = "as_printed"

    @property
    def constant(self) -> float:
        return 3.0 if self is AreVariant.EFFICACY_DERIVED else 9.0


def efficacy_t(mu: float, sigma: float) -> Efficacy:
    """Efficacy of the t statistic: slope mu, null sd 1."""
    _check_mu_sigma(mu, sigma)
    return Efficacy(slope=float(mu), null_sd=1.0, efficacy=float(mu) / 1.0)


def efficacy_w(mu: float, sigma: float) -> Efficacy:
    """Efficacy of the signed-rank statistic via its U-statistic form."""
    slope = xi_w_slope_at_null(mu, sigma)
    return Efficacy(slope=slope, null_sd=_NULL_SD_W, efficacy=slope / _NULL_SD_W)


def are(mu: float, sigma: float, variant: AreVariant = AreVariant.EFFICACY_DERIVED) -> float:
    """Asymptotic relative efficiency of the signed-rank test over the t test.

    Returns c/mu^2 * (2*Phi(mu/sqrt(1+sigma^2)) - 1)^2 with c the variant's
    constant.  Where the erf argument mu/sqrt(2(1+sigma^2)) is 0 or
    subnormal, the analytic mu -> 0 limit (2c/pi)/(1+sigma^2) is returned:
    it keeps the surface continuous, and erf there has lost bits or
    underflowed.  Values above 1 mean the signed-rank test needs
    asymptotically fewer observations.

    The printed variant is computed as exactly three times the derived one,
    so the two surfaces stay in exact ratio.
    """
    _check_mu_sigma(mu, sigma)
    return _are(mu, sigma, _member(variant, AreVariant, "variant"))


def _are(mu: float, sigma: float, variant: AreVariant) -> float:
    # The grid and the boundary search check their (mu, sigma) once, not at each point.
    x = _over_root_one_plus_square(mu, sigma, 2.0)
    if abs(x) < sys.float_info.min:
        # Past 1e153 the square could overflow; 1 + sigma^2 rounds to sigma^2 there.
        if sigma < 1e153:
            derived = (6.0 / math.pi) / (1.0 + sigma * sigma)
        else:
            derived = (6.0 / math.pi) / sigma / sigma
    else:
        ratio = math.erf(x) / mu
        derived = 3.0 * ratio * ratio
    if variant is AreVariant.AS_PRINTED:
        return 3.0 * derived
    return derived


@dataclass(frozen=True)
class EfficiencyGrid:
    """Relative-efficiency values tabulated over a (mu, sigma) lattice.

    ``values[i, j]`` is the efficiency at ``(mu_axis[i], sigma_axis[j])``.
    """

    mu_axis: np.ndarray
    sigma_axis: np.ndarray
    values: np.ndarray
    variant: AreVariant


def dominance_grid(
    mu_range: tuple[float, float],
    sigma_range: tuple[float, float],
    steps_mu: int,
    steps_sigma: int,
    variant: AreVariant = AreVariant.EFFICACY_DERIVED,
) -> EfficiencyGrid:
    """Tabulate :func:`are` over an evenly spaced (mu, sigma) lattice."""
    for mu, sigma in zip(mu_range, sigma_range):
        _check_mu_sigma(mu, sigma)
    mu_lo, mu_hi = map(float, mu_range)
    sigma_lo, sigma_hi = map(float, sigma_range)
    for steps in (steps_mu, steps_sigma):
        _integers(steps, "lattice step counts must be integers >= 2, got {}", 2, scalar=True)
    if not (mu_lo <= mu_hi and sigma_lo <= sigma_hi):
        raise DomainError("axis ranges must be nonempty (lo <= hi)")
    variant = _member(variant, AreVariant, "variant")
    mu_axis = np.linspace(mu_lo, mu_hi, steps_mu)
    sigma_axis = np.linspace(sigma_lo, sigma_hi, steps_sigma)
    sigmas = sigma_axis.tolist()
    values = np.array([[_are(m, s, variant) for s in sigmas] for m in mu_axis.tolist()])
    values.flags.writeable = False
    mu_axis.flags.writeable = False
    sigma_axis.flags.writeable = False
    return EfficiencyGrid(mu_axis=mu_axis, sigma_axis=sigma_axis, values=values, variant=variant)


def dominance_boundary(
    sigma: float, variant: AreVariant = AreVariant.EFFICACY_DERIVED
) -> float | None:
    """Positive mu* where the efficiency crosses 1 for fixed sigma, if any.

    The efficiency is continuous, equals its mu -> 0 limit at 0, decreases
    in mu > 0, and vanishes as mu -> infinity, so a crossing exists exactly
    when the limit exceeds 1.  Bisection refines until |are - 1| <= 1e-9.
    Returns ``None`` when the signed-rank test never reaches parity.
    """
    if are(0.0, sigma, variant) <= 1.0:
        return None
    lo = 1e-8
    hi = 1.0
    while _are(hi, sigma, variant) >= 1.0:
        hi *= 2.0
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        value = _are(mid, sigma, variant)
        if abs(value - 1.0) <= _BOUNDARY_TOL:
            return mid
        if value > 1.0:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("dominance boundary bisection failed to converge")
