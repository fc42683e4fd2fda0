"""One-sample location tests: t statistic and Wilcoxon signed-rank statistic.

Provides the two statistics, the pairwise-sum U statistic the signed-rank
statistic decomposes into, the exact null law of W+ under symmetry (integer
dynamic programming, exact for n <= 60), and p-values with the classical
zero/tie handling: exact zeros are dropped, tied magnitudes get midranks
and a tie-corrected normal-approximation variance, and exact mode refuses
ties.

One normal CDF, ``scipy.special.ndtr`` (absolute error well below 1e-12),
serves the whole package, here and in :mod:`mixrank.mixture`, so closed-form
efficiencies, p-values and Monte Carlo calibration can never drift apart;
its upper tail is taken as Phi(-z).
"""

import math
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.special import betainc, ndtr

from .errors import (
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    TiesUnsupportedError,
    _integers,
    _member,
)

EXACT_NULL_MAX_N = 60   # keeps the integer DP table comfortably exact
AUTO_EXACT_MAX_N = 25   # auto mode switches to the normal approximation here


class Sidedness(Enum):
    GREATER = "greater"
    LESS = "less"
    TWO_SIDED = "two_sided"


class Method(Enum):
    EXACT = "exact"
    NORMAL_APPROX = "normal_approx"
    STUDENT_T = "student_t"


class WilcoxonMode(Enum):
    EXACT = "exact"
    NORMAL_APPROX = "normal_approx"
    AUTO = "auto"


class Sample:
    """Immutable ordered sequence of finite observations."""

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.asarray(values)
        # A cast to float would drop imaginary parts and parse strings.
        if arr.dtype.kind in "cSU":
            raise DomainError("sample entries must be real")
        try:
            arr = np.array(arr, dtype=float, copy=True)
        except (TypeError, ValueError):  # entries such as None beside a complex number
            raise DomainError("sample entries must be real") from None
        if arr.ndim != 1:
            raise DomainError("sample must be one-dimensional")
        if arr.size < 1:
            raise DomainError("sample must contain at least one observation")
        if np.count_nonzero(np.isfinite(arr)) < arr.size:
            raise DomainError("sample entries must be finite")
        arr.flags.writeable = False
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"Sample(n={self._values.size})"


def as_sample(data) -> Sample:
    """Coerce an array-like into a validated :class:`Sample`."""
    return data if isinstance(data, Sample) else Sample(data)


@dataclass(frozen=True)
class TestOutcome:
    """Result of a single hypothesis test."""

    statistic: float
    n_effective: int
    p_value: float
    sidedness: Sidedness
    method: Method


# ---------------------------------------------------------------------------
# t statistic
# ---------------------------------------------------------------------------

# A square below 2**-1022 is subnormal and rounds to a multiple of 2**-1074.
# Where the squares of a row sum to at least 2**-960, that loses less than
# n * 2**-114 of the sum, far below a double's rounding; below it, as where a
# square overflows, the row is taken again at a scale where neither happens.
_T_SQUARES_MIN = 2.0**-960


def _t_statistics(x: np.ndarray):
    """The t statistics along the last axis of ``x`` (0.0 at zero variance), and which vary.

    ``x`` is a sample, which gives numpy scalars, or a block of rows.  t does
    not depend on scale, so a row whose squared deviations overflow or sum
    below ``_T_SQUARES_MIN`` is taken again scaled by 2**-e, where 2**e
    bounds its largest magnitude; powers of two scale exactly.  A sample out
    of that range is taken as a one-row block.  Other rows keep the bits of
    ``x.mean()`` and ``x.std(ddof=1)``.
    """
    n = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean, squares = _mean_and_squares(x)
        ok = (squares >= _T_SQUARES_MIN) & (squares < np.inf)
        if x.ndim == 1:  # numpy scalars, whose .all() would go through an array
            if not ok:
                stat, ok = _t_statistics(x[None])
                return stat[0], ok[0]
        elif not ok.all():
            rows = x[~ok]
            exponent = np.frexp(np.abs(rows).max(axis=1))[1]
            mean[~ok], squares[~ok] = _mean_and_squares(np.ldexp(rows, -exponent[:, None]))
            ok = squares != 0.0
        stat = mean / (np.sqrt(squares / (n - 1)) / math.sqrt(n))
    if x.ndim > 1:
        stat[~ok] = 0.0
    return stat, ok


def _mean_and_squares(x: np.ndarray):
    """Means along the last axis of ``x`` and the sums of squared deviations from them."""
    # The operations of x.mean(axis=-1) and x.std(axis=-1, ddof=1), so the
    # same bits, with the sums taken once instead of twice.
    mean = np.add.reduce(x, axis=-1) / x.shape[-1]
    dev = x - mean[..., None]
    np.square(dev, out=dev)
    return mean, np.add.reduce(dev, axis=-1)


def t_statistic(sample) -> float:
    """One-sample t statistic: mean / (unbiased sd / sqrt(n))."""
    x = as_sample(sample).values
    if x.size < 2:
        raise InsufficientDataError("t statistic needs at least two observations")
    stat, ok = _t_statistics(x)
    if not ok:
        raise DegenerateSampleError("sample has zero variance")
    return float(stat)


def _student_t_sf(t, df):
    """Upper tail P(T > t) of the Student-t law with ``df`` degrees of freedom.

    Uses the identity P(T > t) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2)
    for t >= 0, where I is the regularized incomplete beta function; the
    lower half follows by symmetry.  Absolute error is bounded by the
    incomplete-beta routine, comfortably below 1e-10.  Takes and returns
    arrays, or a scalar for a scalar ``t``.
    """
    t = np.asarray(t, dtype=float)
    tail = 0.5 * betainc(0.5 * df, 0.5, df / (df + t * t))
    if t.ndim == 0:
        return tail if t >= 0.0 else 1.0 - tail
    return np.where(t >= 0.0, tail, 1.0 - tail)


def _oriented(stat, mirror, sidedness: Sidedness):
    """``stat`` for GREATER, its ``mirror`` for LESS, the larger of the two for TWO_SIDED.

    Both null laws are symmetric about a known centre, ``mirror`` reflects
    about it (-t for t, n(n+1)/2 - W+ for W+), and every sidedness rejects
    on large values of the oriented statistic.
    """
    if sidedness is Sidedness.GREATER:
        return stat
    if sidedness is Sidedness.LESS:
        return mirror(stat)
    if sidedness is Sidedness.TWO_SIDED:
        return np.maximum(stat, mirror(stat))
    _member(sidedness, Sidedness, "sidedness")  # raises: every member has returned above


def _sided_p(upper, stat, mirror, sidedness: Sidedness):
    """The ``upper`` tail at the oriented statistic; two-sided doubles it, capped at 1."""
    p = upper(_oriented(stat, mirror, sidedness))
    return np.minimum(1.0, 2.0 * p) if sidedness is Sidedness.TWO_SIDED else p


def _t_p_value(stat, df, sidedness: Sidedness):
    """Student-t p-value for scalar or array statistics."""
    return _sided_p(lambda t: _student_t_sf(t, df), stat, np.negative, sidedness)


def t_test(sample, sidedness: Sidedness = Sidedness.TWO_SIDED) -> TestOutcome:
    """One-sample t test against location zero.

    The p-value comes from the Student-t law with n-1 degrees of freedom at
    every sample size (not a normal approximation), so small-n power
    simulations keep their nominal size.
    """
    data = as_sample(sample)
    stat = t_statistic(data)
    p = float(_t_p_value(stat, len(data) - 1, sidedness))
    return TestOutcome(
        statistic=stat,
        n_effective=len(data),
        p_value=p,
        sidedness=sidedness,
        method=Method.STUDENT_T,
    )


# ---------------------------------------------------------------------------
# signed-rank and U statistics
# ---------------------------------------------------------------------------

def _signed_rank(x: np.ndarray) -> tuple[float, int, float]:
    """W+, the effective sample size and the tie term, from one sort of |x|.

    Exact zeros are dropped and tied magnitudes receive midranks.  The tie
    term is the sum of (t^3 - t) / 48 over groups of t tied magnitudes
    (0.0 without ties): what ties take off the null variance of W+
    (Lehmann 1975).  Both sums are exact integers before the last division.
    """
    nz = x[x.nonzero()]
    n = nz.size
    if n == 0:
        raise DegenerateSampleError("all observations are exactly zero")
    magnitude = np.abs(nz)
    order = np.argsort(magnitude)
    magnitude = magnitude[order]
    # The sorted positions where a group of tied magnitudes starts, then n.
    new_group = np.empty(n + 1, dtype=bool)
    new_group[0] = new_group[n] = True
    np.not_equal(magnitude[1:], magnitude[:-1], out=new_group[1:n])
    edges = new_group.nonzero()[0]
    starts, ends = edges[:-1], edges[1:]
    # A group at sorted positions s..e-1 holds ranks s+1..e, midrank (s+e+1)/2.
    positives = np.add.reduceat(nz[order] > 0.0, starts)
    w_plus = float(np.dot(starts + ends + 1, positives)) / 2.0
    # The sum of t^3 - t is below n^3, which int64 holds below n = 2^21; above
    # it the sizes of the tied groups are summed as Python ints.
    t = ends - starts
    if n >= 2**21:
        t = t[t > 1].astype(object)
    return w_plus, n, float(np.dot(t, t * t - 1)) / 48.0


def wilcoxon_statistic(sample) -> tuple[float, int]:
    """Signed-rank statistic W+ and the effective sample size.

    Exact zeros are dropped (their count is reflected in ``n_effective``),
    and tied magnitudes receive midranks.  W+ is the sum of the ranks of
    |X_i| over the positive observations.
    """
    w_plus, n_eff, _ = _signed_rank(as_sample(sample).values)
    return w_plus, n_eff


def _positive_pair_count(x: np.ndarray) -> int:
    """Number of index pairs i < j with x[i] + x[j] > 0 (exact integer).

    For finite doubles fl(a + b) > 0 iff a > -b, so in the sorted sample each
    value sums positively with the values above its negation.  That counts
    every pair twice and each positive value once more, with itself.
    """
    s = np.sort(x)
    above = s.size - np.searchsorted(s, -s, side="right")
    return (int(above.sum()) - int(np.count_nonzero(s > 0.0))) // 2


def u_statistic(sample) -> float:
    """Fraction of distinct observation pairs with a positive sum."""
    x = as_sample(sample).values
    n = x.size
    if n < 2:
        raise InsufficientDataError("U statistic needs at least two observations")
    return _positive_pair_count(x) / (n * (n - 1) // 2)


def identity_check(sample) -> bool:
    """Verify W+ = C(n,2)*U + #{X_i > 0} exactly on tie-free data.

    The decomposition holds for continuous data only, so zeros or tied
    magnitudes are rejected rather than fudged.
    """
    x = as_sample(sample).values
    if x.size < 2:
        raise InsufficientDataError("identity needs at least two observations")
    if (x != 0.0).all():
        w_plus, _, tie_term = _signed_rank(x)
        if tie_term == 0.0:
            return w_plus == float(_positive_pair_count(x) + int((x > 0.0).sum()))
    raise TiesUnsupportedError("identity requires tie-free data without zeros")


# ---------------------------------------------------------------------------
# exact null distribution of W+
# ---------------------------------------------------------------------------

def _null_n(n) -> int:
    """``n`` as an int, if it is an integer (no bool) in 1..``EXACT_NULL_MAX_N``."""
    message = f"exact null pmf requires 1 <= n <= {EXACT_NULL_MAX_N}, got {{}}"
    return int(_integers(n, message, 1, EXACT_NULL_MAX_N, scalar=True))


class NullPmf:
    """Exact null law of W+ for a continuous sample symmetric about zero.

    ``table[k]`` is the number of the 2^n equiprobable sign patterns whose
    rank sum equals k, held once as the instance's own read-only int64
    array; the support is 0..n(n+1)/2.  ``counts`` may be any integer
    sequence or integer array, such as the one :func:`exact_null_pmf`
    builds, and must be such a table: n(n+1)/2 + 1 counts in 0..2^n,
    summing to 2^n and symmetric about n(n+1)/4.  The ``counts`` attribute
    is the same table as a tuple of Python ints, built on first access and
    kept; lookups, moments and ``null-dist`` read ``table`` and never build
    it.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("n", "table", "_counts", "_cdf")

    def __init__(self, n: int, counts):
        self.n = _null_n(n)
        total = 1 << self.n
        # The message names no value: for a table of floats that would be the whole table.
        message = f"the counts of a null pmf must be integers in 0..2^{self.n}"
        table = np.array(_integers(counts, message, 0, total), dtype=np.int64)  # a copy no caller can change
        if table.shape != (self.support_max + 1,):
            raise DomainError(f"a null pmf for n = {self.n} needs {self.support_max + 1} counts")
        # Exact int64 prefix sums (each count is at most 2^n <= 2^60, so a sum
        # past int64 wraps negative), then one division by a power of two, so
        # each float is correctly rounded.
        prefix = np.cumsum(table)
        if prefix[-1] != total or prefix.min() < 0:
            raise DomainError(f"the counts of a null pmf must sum to 2^{self.n}")
        if not np.array_equal(table, table[::-1]):
            raise DomainError("the counts of a null pmf must be symmetric")
        table.flags.writeable = False
        self.table = table
        self._counts = None
        self._cdf = prefix / total

    @property
    def counts(self) -> tuple:
        """The table as a tuple of Python ints; every thread that builds it builds an equal one."""
        if self._counts is None:
            self._counts = tuple(self.table.tolist())
        return self._counts

    @property
    def support_max(self) -> int:
        return self.n * (self.n + 1) // 2

    def _support_index(self, k, scalar=False):
        """``k`` as an index, once every entry of it lies inside the support."""
        top = self.support_max
        return _integers(k, f"{{}} is outside the support 0..{top}", 0, top, scalar=scalar)

    def mass(self, k: int) -> Fraction:
        """Exact probability P(W+ = k) as a rational number."""
        return Fraction(int(self.table[self._support_index(k, scalar=True)]), 1 << self.n)

    def probability(self, k: int) -> float:
        """P(W+ = k) as a correctly rounded float."""
        return int(self.table[self._support_index(k, scalar=True)]) / (1 << self.n)

    def cdf(self, k):
        """P(W+ <= k); accepts integer scalars or arrays inside the support."""
        return self._cdf[self._support_index(k)]

    def sf(self, k):
        """P(W+ >= k); accepts integer scalars or arrays inside the support.

        The counts are symmetric about n(n+1)/4, so this is exactly P(W+ <= n(n+1)/2 - k).
        """
        return self._cdf[self.support_max - self._support_index(k)]

    # The moments sum k * count and k * k * count, which pass int64's range at
    # n = 60, over a transient list of Python ints.
    def exact_mean(self) -> Fraction:
        total = sum(k * c for k, c in enumerate(self.table.tolist()))
        return Fraction(total, 1 << self.n)

    def exact_variance(self) -> Fraction:
        mean = self.exact_mean()
        second = Fraction(sum(k * k * c for k, c in enumerate(self.table.tolist())), 1 << self.n)
        return second - mean * mean


_pmf_cache: dict[int, NullPmf] = {}
_pmf_lock = threading.Lock()


def exact_null_pmf(n: int) -> NullPmf:
    """Exact null pmf of W+ for 1 <= n <= 60, computed once and memoized.

    The counts are the coefficients of prod_{i=1..n} (1 + z^i), accumulated
    in int64, which is exact because every count is at most 2^n <= 2^60; the
    table's mean and variance recover n(n+1)/4 and n(n+1)(2n+1)/24 as
    rationals.
    """
    n = _null_n(n)
    with _pmf_lock:
        pmf = _pmf_cache.get(n)
        if pmf is None:
            counts = np.zeros(n * (n + 1) // 2 + 1, dtype=np.int64)
            counts[0] = 1
            for i in range(1, n + 1):
                counts[i:] += counts[:-i].copy()
            pmf = NullPmf(n, counts)
            _pmf_cache[n] = pmf
        return pmf


# ---------------------------------------------------------------------------
# Wilcoxon p-values
# ---------------------------------------------------------------------------

def _wilcoxon_p_exact(w, n: int, sidedness: Sidedness):
    """Exact p-value from the null pmf; ``w`` may be an integer array."""
    pmf = exact_null_pmf(n)
    top = pmf.support_max
    return _sided_p(pmf.sf, np.asarray(w, dtype=np.int64), lambda k: top - k, sidedness)


def _wilcoxon_p_normal(w, n: int, sidedness: Sidedness, tie_term: float = 0.0):
    """Normal approximation with +-0.5 continuity correction.

    ``tie_term`` (see :func:`_signed_rank`) is subtracted from the untied null
    variance n(n+1)(2n+1)/24.  W+ and the centre are multiples of 1/4, so
    the mirror n(n+1)/2 - W+ and the arguments of ``ndtr`` are exact.
    """
    mean = n * (n + 1) / 4.0
    sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    return _sided_p(
        lambda w: ndtr(np.negative((w - 0.5 - mean) / sd)),
        np.asarray(w, dtype=float),
        lambda w: 2.0 * mean - w,
        sidedness,
    )


def wilcoxon_test(
    sample,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
    mode: WilcoxonMode = WilcoxonMode.AUTO,
) -> TestOutcome:
    """Wilcoxon signed-rank test against a symmetric-about-zero null.

    ``mode=EXACT`` uses the exact null pmf and refuses tied magnitudes
    (the count table assumes distinct ranks); ``mode=NORMAL_APPROX`` uses the
    continuity- and tie-corrected Gaussian approximation; ``mode=AUTO`` picks
    exact for tie-free samples with at most 25 nonzero observations, the
    approximation otherwise.
    """
    x = as_sample(sample).values
    w_plus, n_eff, tie_term = _signed_rank(x)
    tied = tie_term > 0.0

    if mode is WilcoxonMode.AUTO:
        use_exact = not tied and n_eff <= AUTO_EXACT_MAX_N
    else:
        use_exact = _member(mode, WilcoxonMode, "mode") is WilcoxonMode.EXACT

    if use_exact:
        if tied:
            raise TiesUnsupportedError("exact mode requires untied magnitudes")
        p = float(_wilcoxon_p_exact(int(round(w_plus)), n_eff, sidedness))
        method = Method.EXACT
    else:
        p = float(_wilcoxon_p_normal(w_plus, n_eff, sidedness, tie_term))
        method = Method.NORMAL_APPROX

    return TestOutcome(
        statistic=w_plus,
        n_effective=n_eff,
        p_value=p,
        sidedness=sidedness,
        method=method,
    )
