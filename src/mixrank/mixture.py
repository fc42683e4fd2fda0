"""Contaminated-Gaussian mixture model.

The sampling model draws each observation from N(0, 1) with probability
``1 - theta`` and from N(mu, sigma^2) with probability ``theta``; the null
hypothesis is ``theta = 0``.  This module provides the density, CDF, exact
moments, reproducible sampling, and the mean functions of the two test
statistics as the mixing proportion moves away from the null.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, _integers, _is_real, _member

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class MixtureParams:
    """Parameters (theta, mu, sigma) of the contaminated-Gaussian model.

    Parameters
    ----------
    theta : float
        Mixing proportion of the contaminating component, in [0, 1].
        ``theta = 0`` reproduces the standard Gaussian exactly.
    mu : float
        Mean of the contaminating component.
    sigma : float
        Standard deviation of the contaminating component (positive).
        When a source specifies the component by its *variance*, use
        :meth:`from_variance` instead of taking a square root by hand.
    """

    theta: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not (_is_real(self.theta) and math.isfinite(self.theta)):
            raise DomainError(f"mixing proportion must be a finite real number, got {self.theta}")
        _check_mu_sigma(self.mu, self.sigma)
        if not 0.0 <= self.theta <= 1.0:
            raise DomainError(f"mixing proportion must lie in [0, 1], got {self.theta}")
        for name in ("theta", "mu", "sigma"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def from_variance(cls, theta: float, mu: float, variance: float) -> "MixtureParams":
        """Build params for a contaminant specified as N(mu, variance)."""
        if not (_is_real(variance) and variance > 0.0):
            raise DomainError(f"component variance must be a positive real, got {variance}")
        return cls(theta, mu, math.sqrt(variance))


def _check_mu_sigma(mu: float, sigma: float) -> None:
    """The one rule on a contaminant's or grid corner's (mu, sigma): finite reals, sigma > 0."""
    if not (_is_real(mu) and _is_real(sigma)):
        raise DomainError(f"mixture parameters must be real numbers, got {mu}, {sigma}")
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise DomainError("mixture parameters must be finite")
    if not sigma > 0.0:
        raise DomainError(f"component sd must be positive, got {sigma}")


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


def pdf(params: MixtureParams, x):
    """Mixture density (1-theta)*phi(x) + (theta/sigma)*phi((x-mu)/sigma).

    ``x`` may be a scalar or an array; the result matches its shape.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("density evaluation point must be finite")
    theta, mu, sigma = params.theta, params.mu, params.sigma
    out = (1.0 - theta) * _phi(arr) + (theta / sigma) * _phi((arr - mu) / sigma)
    if np.ndim(x) == 0:
        return float(out)
    return out


def cdf(params: MixtureParams, x):
    """Mixture CDF (1-theta)*Phi(x) + theta*Phi((x-mu)/sigma)."""
    arr = np.asarray(x, dtype=float)
    theta, mu, sigma = params.theta, params.mu, params.sigma
    out = (1.0 - theta) * ndtr(arr) + theta * ndtr((arr - mu) / sigma)
    if np.ndim(x) == 0:
        return float(out)
    return out


def sample(params: MixtureParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent observations from the mixture.

    Each observation consumes exactly two values from ``rng``: a uniform for
    component selection and a standard normal scaled into the chosen
    component.  All the uniforms are drawn first, then all the normals, so
    the draw is ``rng.random(n)`` followed by ``rng.standard_normal(n)``, and
    a ``(rows, m)`` block of samples is one draw of ``rows * m`` values,
    reshaped.  Output is bit-reproducible given the generator state.  A
    contaminant so wide that a draw overflows the double range raises
    :class:`DomainError`.
    """
    n = _integers(n, "sample size must be a positive integer, got {}", 1, scalar=True)
    return _draw(params, n, rng)


def _draw(params: MixtureParams, n: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """The draw of :func:`sample`, into ``out[:n]`` or, when ``out`` is None, new memory.

    The uniforms fill the output first and the normals then overwrite them,
    since the component of each value is known before any normal is drawn.
    ``out=`` gives the generators' bits of a fresh array, so whatever the
    output held before does not matter.  ``n`` is not checked here;
    :func:`sample` checks it.
    """
    x = np.empty(n) if out is None else out[:n]
    hit = np.flatnonzero(rng.random(out=x) < params.theta)
    rng.standard_normal(out=x)
    with np.errstate(over="raise"):
        try:
            x[hit] = params.mu + params.sigma * x[hit]
        except FloatingPointError:
            contaminant = f"N({params.mu}, {params.sigma}^2)"
            raise DomainError(f"contaminant {contaminant} draws past the double range") from None
    return x


def _variance(theta: float, mu: float, sigma: float, between: bool = True) -> float:
    """The mixture variance by the law of total variance, a polynomial in theta.

    (1-theta) + theta*sigma^2 within the components, plus theta*(1-theta)*mu^2
    between them unless ``between`` is false.  No term cancels another.  theta
    multiplies first, so a weightless component adds 0 however wide it is,
    and a term that overflows reads inf.
    """
    within = (1.0 - theta) + theta * sigma * sigma
    return within + theta * (1.0 - theta) * mu * mu if between else within


def moments(params: MixtureParams) -> tuple[float, float]:
    """Exact (mean, variance) of the mixture.

    mean = theta*mu and variance = (1-theta) + theta*sigma^2
    + theta*(1-theta)*mu^2; the variance reads inf where it overflows.
    """
    return params.theta * params.mu, _variance(params.theta, params.mu, params.sigma)


class MeanFunctionVariant(Enum):
    """Which denominator the t-statistic mean function uses.

    ``PRINTED`` uses sqrt((1-theta) + theta*sigma^2), a common printed form
    that omits the theta*(1-theta)*mu^2 contribution to the mixture
    variance; ``EXACT`` divides by the true mixture standard deviation.  Both
    have derivative mu at theta = 0, which is all the asymptotics need, but
    finite-sample work should use ``EXACT``.
    """

    PRINTED = "printed"
    EXACT = "exact"


def _xi_t_value(theta: float, mu: float, sigma: float, variant: MeanFunctionVariant) -> float:
    # Valid for theta slightly outside [0, 1]; needed by derivative checks.
    exact = _member(variant, MeanFunctionVariant, "variant") is MeanFunctionVariant.EXACT
    denom_sq = _variance(theta, mu, sigma, between=exact)
    if not 0.0 < denom_sq < math.inf:
        raise DomainError(f"mixture variance {denom_sq} leaves the positive double range")
    return theta * mu / math.sqrt(denom_sq)


def xi_t(params: MixtureParams, variant: MeanFunctionVariant = MeanFunctionVariant.EXACT) -> float:
    """Mean function of the t statistic: E[X] over the sampling sd.

    ``variant`` selects between the printed-form denominator and the exact
    mixture standard deviation (the default); see
    :class:`MeanFunctionVariant`.
    """
    return _xi_t_value(params.theta, params.mu, params.sigma, variant)


def _over_root_one_plus_square(mu: float, sigma: float, k: float) -> float:
    """mu / sqrt(k * (1 + sigma^2)) for k = 1 or 2, finite for every finite sigma.

    Past 1e153 the square (times two) could overflow; 1 + sigma^2 rounds to
    sigma^2 there, so dividing by sigma first gives the same quantity.  Below
    it the plain formula is kept, so those values do not move by a bit.
    """
    if sigma < 1e153:
        return mu / math.sqrt(k * (1.0 + sigma * sigma))
    return mu / sigma / math.sqrt(k)


def _root_two_over(mu: float, sigma: float) -> float:
    """sqrt(2) * mu / sigma, finite wherever the quotient is.

    Past |mu| ~ 1.27e308 the product sqrt(2) * mu overflows, so there mu is
    divided by sigma first.  Wherever the product is finite the plain
    formula is kept, so those values do not move by a bit.
    """
    scaled = math.sqrt(2.0) * mu
    if math.isfinite(scaled):
        return scaled / sigma
    return math.sqrt(2.0) * (mu / sigma)


def _xi_w_value(theta: float, mu: float, sigma: float) -> float:
    # Quadratic polynomial in theta; valid for any real theta, which the
    # central-difference slope checks at theta = 0 rely on.
    a = ndtr(_root_two_over(mu, sigma))
    b = ndtr(_over_root_one_plus_square(mu, sigma, 1.0))
    return theta * theta * a - 0.5 * (theta - 1.0) * (1.0 - theta + 4.0 * theta * b)


def xi_w(params: MixtureParams) -> float:
    """P(X1 + X2 > 0) for two independent draws from the mixture.

    This is the mean function of the pairwise-sum U statistic that the
    signed-rank statistic is asymptotically equivalent to.  Expanding by the
    component pair (null/null, null/contaminant, contaminant/contaminant)
    gives the identical form
    (1-theta)^2/2 + 2*theta*(1-theta)*Phi(mu/sqrt(1+sigma^2))
    + theta^2*Phi(sqrt(2)*mu/sigma).
    """
    return _xi_w_value(params.theta, params.mu, params.sigma)


def xi_w_slope_at_null(mu: float, sigma: float) -> float:
    """Derivative of :func:`xi_w` in theta at the null: 2*Phi(mu/sqrt(1+sigma^2)) - 1.

    Evaluated as erf(mu / sqrt(2*(1+sigma^2))), which is the same quantity
    but free of cancellation for small ``mu``.
    """
    _check_mu_sigma(mu, sigma)
    return math.erf(_over_root_one_plus_square(mu, sigma, 2.0))
