"""Test statistics, exact null machinery, and p-value conventions."""

import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrank import rank_tests
from mixrank.errors import (
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    TiesUnsupportedError,
)
from mixrank.rank_tests import (
    Method,
    NullPmf,
    Sample,
    Sidedness,
    WilcoxonMode,
    _signed_rank,
    _student_t_sf,
    exact_null_pmf,
    identity_check,
    t_statistic,
    t_test,
    u_statistic,
    wilcoxon_statistic,
    wilcoxon_test,
)
from mixrank.streams import seeded_rng


def tie_free_sample(rng, n):
    """Random sample with mixed signs and (almost surely) untied magnitudes."""
    x = rng.normal(0.0, 1.0, n) + rng.uniform(-0.5, 0.5)
    while np.unique(np.abs(x)).size < n or (x == 0.0).any():
        x = rng.normal(0.0, 1.0, n)
    return x


# ---------------------------------------------------------------------------
# Sample container
# ---------------------------------------------------------------------------

def test_sample_validation_and_immutability():
    s = Sample([1.0, -2.0, 3.0])
    assert len(s) == 3
    with pytest.raises(ValueError):
        s.values[0] = 9.0
    with pytest.raises(DomainError):
        Sample([])
    with pytest.raises(DomainError):
        Sample([1.0, math.nan])
    with pytest.raises(DomainError):
        Sample([[1.0, 2.0]])
    # A cast to float would drop the imaginary parts, so complex input is refused,
    # even where every imaginary part is zero; so are entries that are no numbers.
    for values in (
        [1 + 5j, 2.0, 3.5],
        np.array([1 + 5j, 2.0, 3.5]),
        np.array([1.0, 2.0], dtype=complex),
        [1 + 5j, None],
        np.array([1 + 5j, None], dtype=object),
        ["a", 1.0],
        ["1.5", 2.0],
    ):
        with pytest.raises(DomainError, match="real"):
            Sample(values)
        with pytest.raises(DomainError, match="real"):
            t_test(values)


# ---------------------------------------------------------------------------
# t statistic / t test
# ---------------------------------------------------------------------------

def test_t_statistic_examples():
    assert t_statistic([1.0, -1.0]) == 0.0
    assert t_statistic([1.0, 2.0, 3.0]) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-14)
    with pytest.raises(DegenerateSampleError):
        t_statistic([5.0, 5.0, 5.0])
    with pytest.raises(InsufficientDataError):
        t_statistic([1.0])


def test_t_test_examples():
    out = t_test([1.0, -1.0], Sidedness.TWO_SIDED)
    assert out.statistic == 0.0
    assert out.p_value == 1.0
    assert out.method is Method.STUDENT_T
    assert out.n_effective == 2

    greater = t_test([1.0, 2.0, 3.0], Sidedness.GREATER)
    assert greater.p_value == pytest.approx(0.03708995011372427, abs=1e-10)
    for sidedness in Sidedness:
        assert type(t_test([1.0, 2.0, 4.0], sidedness).p_value) is float
    # A string that names a Sidedness is still no Sidedness.
    for sidedness in ("greater", "two_sided", None):
        with pytest.raises(DomainError, match="Sidedness"):
            t_test([1.0, 2.0, 4.0], sidedness)


def test_t_test_validates_its_sample_once(monkeypatch):
    built = []
    init = Sample.__init__

    def counting_init(self, values):
        built.append(values)
        init(self, values)

    monkeypatch.setattr(Sample, "__init__", counting_init)
    t_test([1.0, 2.0, 4.0])
    assert len(built) == 1
    given = Sample([1.0, 2.0, 4.0])
    built.clear()
    assert t_test(given) == t_test([1.0, 2.0, 4.0])
    assert len(built) == 1  # only the list is validated


def test_t_test_tail_complementarity():
    rng = seeded_rng(41, "t-tails")
    for _ in range(25):
        x = rng.normal(0.3, 1.0, int(rng.integers(2, 40)))
        p_g = t_test(x, Sidedness.GREATER).p_value
        p_l = t_test(x, Sidedness.LESS).p_value
        assert p_g + p_l == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= t_test(x, Sidedness.TWO_SIDED).p_value <= 1.0


def test_t_test_less_side_far_tail_matches_scipy():
    # t ~ -235 at n = 10: 1 - P(T > t) would cancel to 0.0 here
    x = np.linspace(-5.1, -4.9, 10)
    expected = scipy.stats.ttest_1samp(x, 0.0, alternative="less").pvalue
    assert 0.0 < expected < 1e-17
    assert t_test(x, Sidedness.LESS).p_value == pytest.approx(expected, rel=1e-9, abs=0.0)
    assert t_test(-x, Sidedness.GREATER).p_value == pytest.approx(expected, rel=1e-9, abs=0.0)


# (t, df) -> P(T_df > t), frozen from 40-digit mpmath evaluations of the
# regularized incomplete beta, so independent of the scipy routine under test
T_SF_TABLE = {
    (0.5, 1): 0.3524163823495667,
    (1.0, 2): 0.2113248654051871,
    (3.4641016151377544, 2): 0.03708995011372427,
    (2.0, 5): 0.05096973941492918,
    (-1.5, 10): 0.9177463367772799,
    (3.0, 29): 0.002749596066951703,
    (0.0, 7): 0.5,
    (10.0, 3): 0.001064199529207075,
    (1.2345, 99): 0.10996943362509816,
    (0.7, 59): 0.24333918412129793,
}


def test_student_t_sf_tabulated_values():
    for (t, df), expected in T_SF_TABLE.items():
        assert _student_t_sf(t, df) == pytest.approx(expected, abs=1e-10)


def test_student_t_sf_df2_closed_form():
    # P(T_2 > t) = (1 - t/sqrt(2 + t^2)) / 2
    for t in [0.1, 0.9, 2.0, 3.4641016151377544, 7.5]:
        closed = 0.5 * (1.0 - t / np.sqrt(2.0 + t * t))
        assert _student_t_sf(t, 2) == pytest.approx(closed, abs=1e-13)


def test_student_t_sf_symmetry_and_arrays():
    ts = np.array([-2.0, -0.3, 0.0, 0.3, 2.0])
    sf = _student_t_sf(ts, 7)
    assert sf.shape == ts.shape
    np.testing.assert_allclose(sf + _student_t_sf(-ts, 7), 1.0, atol=1e-14)


def test_t_statistic_scale_invariance():
    rng = seeded_rng(43, "t-scale")
    x = rng.normal(0.2, 1.0, 25)
    assert t_statistic(x * math.pi) == pytest.approx(t_statistic(x), rel=1e-12)


@pytest.mark.parametrize("k", [530, -530, 600, -600])
def test_t_test_keeps_its_bits_at_any_scale(k):
    # t does not depend on scale, and a power of two scales every value exactly.
    x = np.array([1.0, -0.3, 0.5, 2.0, 0.7])
    base = t_test(x, Sidedness.GREATER)
    assert base.statistic == 2.089119177621763
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = t_test(x * 2.0**k, Sidedness.GREATER)
    assert scaled == base


@pytest.mark.parametrize("k", [0, 530, -530, 600, -600, 1022, -1070, -1074])
def test_constant_sample_is_degenerate_at_every_scale(k):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateSampleError):
            t_statistic(np.full(5, 1.5 * 2.0**k))


# ---------------------------------------------------------------------------
# signed-rank statistic, U statistic, identity
# ---------------------------------------------------------------------------

def test_wilcoxon_statistic_examples():
    assert wilcoxon_statistic([1.0, 2.0, 3.0]) == (6.0, 3)
    assert wilcoxon_statistic([-3.0, 1.0, 2.0]) == (3.0, 3)
    assert wilcoxon_statistic([-1.0, -2.0]) == (0.0, 2)
    # zeros dropped, n_effective reflects it
    assert wilcoxon_statistic([0.0, 1.0, -2.0]) == (1.0, 2)
    with pytest.raises(DegenerateSampleError):
        wilcoxon_statistic([0.0, 0.0])


def test_wilcoxon_statistic_midranks():
    # |x| = (1, 1, 2): midranks 1.5, 1.5, 3; positives contribute 1.5 + 3
    w, n_eff = wilcoxon_statistic([1.0, -1.0, 2.0])
    assert w == 4.5
    assert n_eff == 3


def test_wilcoxon_sign_flip():
    rng = seeded_rng(47, "w-flip")
    for _ in range(50):
        x = tie_free_sample(rng, int(rng.integers(2, 60)))
        w_pos, n_eff = wilcoxon_statistic(x)
        w_neg, _ = wilcoxon_statistic(-x)
        assert w_pos + w_neg == n_eff * (n_eff + 1) / 2


def test_wilcoxon_and_u_scale_invariance():
    rng = seeded_rng(53, "wu-scale")
    x = tie_free_sample(rng, 30)
    assert wilcoxon_statistic(x * 7.25) == wilcoxon_statistic(x)
    assert u_statistic(x * 7.25) == u_statistic(x)


def test_u_statistic_examples():
    assert u_statistic([1.0, 2.0]) == 1.0
    assert u_statistic([-1.0, -2.0]) == 0.0
    assert u_statistic([-3.0, 1.0, 2.0]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(InsufficientDataError):
        u_statistic([4.0])


def test_u_statistic_matches_pair_enumeration():
    rng = seeded_rng(59, "u-brute")
    for _ in range(30):
        x = rng.normal(0.1, 1.0, int(rng.integers(2, 25)))
        brute = np.mean([xi + xj > 0 for xi, xj in combinations(x, 2)])
        assert u_statistic(x) == pytest.approx(brute, abs=1e-15)
    # Zeros, ties, pairs that sum to exactly 0, subnormals and sums that
    # overflow, and a rounded sample full of ties; Python floats add without
    # an overflow warning.
    edge = [0.0, -0.0, 1.5, -1.5, 1.5, 2.0, -3.0, 5e-324, -5e-324, -1e-310, 2e-310, 1e308, 1e308]
    for x in (edge, np.negative(edge), np.round(rng.normal(0.0, 1.0, 60), 1)):
        count = sum(xi + xj > 0 for xi, xj in combinations(map(float, x), 2))
        assert u_statistic(x) == count / (len(x) * (len(x) - 1) // 2)


def test_identity_examples():
    assert identity_check([-3.0, 1.0, 2.0]) is True
    assert identity_check([1.0, 2.0]) is True
    with pytest.raises(TiesUnsupportedError):
        identity_check([0.0, 1.0, 2.0])
    with pytest.raises(TiesUnsupportedError):
        identity_check([1.0, -1.0, 2.0])


def test_identity_random_suite():
    rng = seeded_rng(61, "identity")
    for _ in range(200):
        x = tie_free_sample(rng, int(rng.integers(2, 80)))
        assert identity_check(x)


# ---------------------------------------------------------------------------
# exact null pmf
# ---------------------------------------------------------------------------

def brute_force_counts(n):
    """Histogram of W+ over all 2^n sign assignments of ranks 1..n."""
    counts = [0] * (n * (n + 1) // 2 + 1)
    for pattern in range(1 << n):
        w = sum(i + 1 for i in range(n) if pattern >> i & 1)
        counts[w] += 1
    return counts


def test_exact_null_pmf_small_examples():
    one = exact_null_pmf(1)
    assert one.counts == (1, 1)
    assert one.probability(0) == 0.5
    three = exact_null_pmf(3)
    assert three.mass(6) == Fraction(1, 8)
    assert three.counts == (1, 1, 1, 2, 1, 1, 1)


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_exact_null_pmf_matches_enumeration(n):
    assert list(exact_null_pmf(n).counts) == brute_force_counts(n)


def test_exact_null_pmf_symmetry_total_and_moments():
    for n in [1, 2, 7, 20, 41, 60]:
        pmf = exact_null_pmf(n)
        top = pmf.support_max
        assert sum(pmf.counts) == 1 << n
        assert pmf.counts == tuple(reversed(pmf.counts))
        assert len(pmf.counts) == top + 1
        assert pmf.exact_mean() == Fraction(n * (n + 1), 4)
        assert pmf.exact_variance() == Fraction(n * (n + 1) * (2 * n + 1), 24)


def python_int_counts(n):
    """Coefficients of prod_{i=1..n} (1 + z^i) in Python ints, apart from the DP in int64."""
    counts = [1]
    for i in range(1, n + 1):
        counts = [a + b for a, b in zip(counts + [0] * i, [0] * i + counts)]
    return counts


@pytest.mark.parametrize("n", [1, 2, 7, 25, 60])
def test_null_pmf_takes_any_integer_table(n):
    counts = python_int_counts(n)
    built = [
        NullPmf(n, counts),
        NullPmf(n, tuple(counts)),
        NullPmf(n, np.array(counts, dtype=np.int64)),
        exact_null_pmf(n),
    ]
    for pmf in built:
        assert pmf.counts == tuple(counts)
        assert pmf.table.dtype == np.int64 and not pmf.table.flags.writeable
        assert pmf.table.tolist() == list(pmf.counts)
        # At n = 60 the terms k * k * count of the second moment pass int64's
        # range, so exact_variance is exact only over Python ints.
        assert all(type(c) is int for c in pmf.counts)
        assert pmf._cdf.tobytes() == built[0]._cdf.tobytes()
        assert pmf.exact_variance() == Fraction(n * (n + 1) * (2 * n + 1), 24)
        for k in (0, 1, pmf.support_max // 2, pmf.support_max):
            assert pmf.mass(k) == Fraction(counts[k], 1 << n)


def test_cold_null_tables_hold_each_count_once(monkeypatch):
    # Each table keeps its int64 counts and float CDF, 16 bytes an entry and
    # 0.58 MiB for n = 1..60; a Python int per count as well took 1.65 MiB.
    monkeypatch.setattr(rank_tests, "_pmf_cache", {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1, 61):
            exact_null_pmf(n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rank_tests._pmf_cache) == 60
    assert held < 1 << 20


def test_null_pmf_refuses_a_malformed_table():
    good = [1, 1, 1, 2, 1, 1, 1]
    for n, counts in [
        (3, [1, 1]),                          # too short for n = 3
        (3, good + [0]),                      # too long
        (3, [[1, 1, 1, 2, 1, 1, 1]]),         # two-dimensional
        (3, [2, 1, 1, 4, 1, 1, 2]),           # sums to 12, not 2^3
        (3, [2, 1, 1, 2, 1, 1, 0]),           # not symmetric
        (3, [2, 1, 1, 2, 1, 1, -1]),          # a negative count
        (3, [1, 1, 1.5, 2, 1.5, 1, 1]),       # a fractional count
        (3, [1, 1, 1, 2.0, 1, 1, 1]),         # a float, though integral
        (3, [True] * 7),                      # bools
        (3, [1, 1, 1, 2**70, 1, 1, 1]),       # past int64
        (3, [1, 1, 1, 9, 1, 1, 1]),           # a count above 2^n
        (3, []),
        (3.9, good),
        (True, [1, 1]),
        (0, [1]),
        (61, [1]),
        ("3", good),
    ]:
        with pytest.raises(DomainError):
            NullPmf(n, counts)
    # Sixteen counts of 2^60 and the rest summing to 2^60 wrap int64 back to 2^60.
    n = 60
    table = np.zeros(n * (n + 1) // 2 + 1, dtype=np.int64)
    table[:8] = table[-8:] = 1 << 60
    table[915] = 1 << 60
    with pytest.raises(DomainError, match="sum to 2\\^60"):
        NullPmf(n, table)
    assert NullPmf(np.int64(3), np.array(good, dtype=np.uint8)).counts == tuple(good)


def test_exact_null_pmf_domain():
    with pytest.raises(DomainError):
        exact_null_pmf(0)
    with pytest.raises(DomainError):
        exact_null_pmf(61)
    for n in (True, False, np.bool_(True), 20.0):
        with pytest.raises(DomainError):
            exact_null_pmf(n)
    assert exact_null_pmf(np.int64(20)) is exact_null_pmf(20)


def test_null_pmf_tail_lookups():
    pmf = exact_null_pmf(4)
    # P(W >= 8) = (1 + 1 + 1) / 16 from counts (1,1,1,2,2,2,2,2,1,1,1)
    assert pmf.sf(8) == pytest.approx(3 / 16, abs=0)
    assert pmf.cdf(2) == pytest.approx(3 / 16, abs=0)
    np.testing.assert_allclose(pmf.sf(np.array([0, 10])), [1.0, 1 / 16])


def test_null_pmf_tail_lookups_refuse_outside_support():
    pmf = exact_null_pmf(3)  # support 0..6
    assert pmf.sf(6) == pmf.cdf(0) == 1 / 8
    for lookup in (pmf.cdf, pmf.sf):
        for k in (-1, 7, np.int64(-1), np.array([0, 3, 7]), np.array([-1, 2])):
            with pytest.raises(DomainError, match="outside the support 0..6"):
                lookup(k)
        np.testing.assert_array_equal(lookup(np.array([0, 6])), [lookup(0), lookup(6)])
    for lookup in (pmf.mass, pmf.probability):
        for k in (-1, 7, np.int64(7)):
            with pytest.raises(DomainError, match=f"{k} is outside the support 0..6"):
                lookup(k)


def test_null_pmf_upper_tail_equals_summed_counts():
    for n in (1, 2, 7, 25, 60):
        pmf = exact_null_pmf(n)
        total = 1 << n
        tails = np.cumsum(np.array(pmf.counts[::-1], dtype=np.int64))[::-1] / total
        np.testing.assert_array_equal(pmf.sf(np.arange(pmf.support_max + 1)), tails)


# ---------------------------------------------------------------------------
# wilcoxon test
# ---------------------------------------------------------------------------

def test_wilcoxon_test_exact_examples():
    out = wilcoxon_test([1.0, 2.0, 3.0], Sidedness.GREATER, WilcoxonMode.EXACT)
    assert out.statistic == 6.0
    assert out.p_value == pytest.approx(0.125, abs=0)
    assert out.method is Method.EXACT

    low = wilcoxon_test([-1.0, -2.0, -3.0], Sidedness.GREATER, WilcoxonMode.EXACT)
    assert low.p_value == 1.0


def test_wilcoxon_exact_vs_normal_agreement_n50():
    x = tie_free_sample(seeded_rng(67, "w-agree"), 50)
    exact = wilcoxon_test(x, Sidedness.GREATER, WilcoxonMode.EXACT)
    approx = wilcoxon_test(x, Sidedness.GREATER, WilcoxonMode.NORMAL_APPROX)
    assert exact.method is Method.EXACT
    assert approx.method is Method.NORMAL_APPROX
    assert abs(exact.p_value - approx.p_value) <= 0.02


def test_wilcoxon_exact_tail_complementarity():
    rng = seeded_rng(71, "w-tails")
    for _ in range(25):
        x = tie_free_sample(rng, int(rng.integers(2, 20)))
        w, n_eff = wilcoxon_statistic(x)
        p_g = wilcoxon_test(x, Sidedness.GREATER, WilcoxonMode.EXACT).p_value
        p_l = wilcoxon_test(x, Sidedness.LESS, WilcoxonMode.EXACT).p_value
        point = exact_null_pmf(n_eff).probability(int(round(w)))
        assert p_g + p_l == pytest.approx(1.0 + point, abs=1e-12)


def test_wilcoxon_auto_mode_switch():
    rng = seeded_rng(73, "w-auto")
    small = tie_free_sample(rng, 25)
    large = tie_free_sample(rng, 26)
    assert wilcoxon_test(small).method is Method.EXACT
    assert wilcoxon_test(large).method is Method.NORMAL_APPROX
    tied = [1.0, -1.0, 2.0]
    assert wilcoxon_test(tied).method is Method.NORMAL_APPROX
    # Strings that name a mode or a sidedness are neither, on every branch.
    for x in (small, large, tied):
        for mode in ("normal_approx", "exact", None):
            with pytest.raises(DomainError, match="WilcoxonMode"):
                wilcoxon_test(x, Sidedness.GREATER, mode)
        for sidedness in ("greater", "two_sided", None):
            with pytest.raises(DomainError, match="Sidedness"):
                wilcoxon_test(x, sidedness)


def test_wilcoxon_exact_refuses_ties():
    with pytest.raises(TiesUnsupportedError):
        wilcoxon_test([1.0, -1.0, 2.0], Sidedness.GREATER, WilcoxonMode.EXACT)


def test_wilcoxon_zero_policy():
    out = wilcoxon_test([0.0, 1.0, 2.0, -3.0], Sidedness.GREATER, WilcoxonMode.EXACT)
    assert out.n_effective == 3
    with pytest.raises(DegenerateSampleError):
        wilcoxon_test([0.0, 0.0])


_SCIPY_ALTERNATIVE = {
    Sidedness.GREATER: "greater",
    Sidedness.LESS: "less",
    Sidedness.TWO_SIDED: "two-sided",
}


@settings(max_examples=200, deadline=None)
@given(
    tenths=st.lists(st.integers(-40, 40), min_size=26, max_size=119).filter(any),
    sidedness=st.sampled_from(list(Sidedness)),
)
def test_wilcoxon_normal_approx_tie_corrected_matches_scipy(tenths, sidedness):
    # Rounded data: tied magnitudes and zeros are the rule, not the exception.
    x = np.array(tenths) / 10.0
    outcome = wilcoxon_test(x, sidedness, mode=WilcoxonMode.NORMAL_APPROX)
    expected = scipy.stats.wilcoxon(
        x, alternative=_SCIPY_ALTERNATIVE[sidedness], method="asymptotic",
        correction=True, zero_method="wilcox",
    ).pvalue
    assert outcome.p_value == pytest.approx(float(expected), rel=1e-9, abs=1e-300)


# ---------------------------------------------------------------------------
# independent oracles and invariants
# ---------------------------------------------------------------------------

_rounded = st.lists(st.integers(-40, 40), min_size=1, max_size=150).filter(any)


@settings(max_examples=200, deadline=None)
@given(tenths=_rounded)
def test_signed_rank_matches_rankdata(tenths):
    # Rounded data: zeros and tied magnitudes in most samples.
    x = np.array(tenths) / 10.0
    nz = x[x != 0.0]
    w_plus, n_eff, tie_term = _signed_rank(x)
    assert (w_plus, n_eff) == wilcoxon_statistic(x)
    assert n_eff == nz.size
    assert w_plus == scipy.stats.rankdata(np.abs(nz))[nz > 0.0].sum()
    _, t = np.unique(np.abs(nz), return_counts=True)
    assert tie_term == float((t**3 - t).sum()) / 48.0


def test_tie_term_is_exact_past_int64():
    # One tie group of n values: the tie term is (n^3 - n) / 48, past 2^63 here.
    n = 2_200_000
    x = -np.ones(n)
    x[:1_101_000] = 1.0
    _, n_eff, tie_term = _signed_rank(x)
    assert n_eff == n
    assert tie_term == float(n**3 - n) / 48.0
    expected = scipy.stats.wilcoxon(x, method="asymptotic", correction=True).pvalue
    p = wilcoxon_test(x, Sidedness.TWO_SIDED).p_value
    assert p == pytest.approx(float(expected), rel=1e-9)
    assert p == pytest.approx(0.1775, abs=1e-4)


@settings(max_examples=200, deadline=None)
@given(
    hundredths=st.lists(st.integers(-500, 500), min_size=2, max_size=60).filter(
        lambda v: len(set(v)) > 1
    ),
    sidedness=st.sampled_from(list(Sidedness)),
)
def test_t_test_matches_scipy(hundredths, sidedness):
    x = np.array(hundredths) / 100.0
    outcome = t_test(x, sidedness)
    expected = scipy.stats.ttest_1samp(x, 0.0, alternative=_SCIPY_ALTERNATIVE[sidedness])
    assert outcome.statistic == pytest.approx(float(expected.statistic), rel=1e-12, abs=1e-12)
    assert outcome.p_value == pytest.approx(float(expected.pvalue), rel=1e-9, abs=1e-300)


_untied = st.lists(st.integers(1, 10**6), min_size=1, max_size=25, unique=True).flatmap(
    lambda mags: st.lists(st.sampled_from([-1, 1]), min_size=len(mags), max_size=len(mags)).map(
        lambda signs: np.array(mags) * np.array(signs) / 1000.0
    )
)


@settings(max_examples=200, deadline=None)
@given(x=_untied)
def test_wilcoxon_exact_matches_scipy(x):
    p = {}
    for side in Sidedness:
        p[side] = wilcoxon_test(x, side, WilcoxonMode.EXACT).p_value
        expected = scipy.stats.wilcoxon(x, alternative=_SCIPY_ALTERNATIVE[side], method="exact")
        assert p[side] == pytest.approx(float(expected.pvalue), rel=1e-12, abs=0.0)
    # the exact one-sided tails overlap in the point mass at the observed W+
    w, n_eff = wilcoxon_statistic(x)
    point = exact_null_pmf(n_eff).probability(int(w))
    assert p[Sidedness.GREATER] + p[Sidedness.LESS] == pytest.approx(1.0 + point, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    tenths=st.lists(st.integers(-40, 40), min_size=2, max_size=60).filter(
        lambda v: len(set(v)) > 1 and any(v)
    ),
    log2_scale=st.integers(-6, 6),
)
def test_p_value_invariants(tenths, log2_scale):
    x = np.array(tenths) / 10.0
    scale = 2.0**log2_scale  # exact, so ranks and ties are unchanged
    for test, exact in ((t_test, False), (wilcoxon_test, True)):
        p = {side: test(x, side).p_value for side in Sidedness}
        assert all(0.0 <= value <= 1.0 for value in p.values())
        # sign flip swaps the one-sided tails and keeps the two-sided p-value
        flipped = {side: test(-x, side).p_value for side in (Sidedness.LESS, Sidedness.TWO_SIDED)}
        assert flipped[Sidedness.LESS] == pytest.approx(p[Sidedness.GREATER], rel=1e-12)
        assert flipped[Sidedness.TWO_SIDED] == pytest.approx(p[Sidedness.TWO_SIDED], rel=1e-12)
        scaled = test(x * scale, Sidedness.GREATER).p_value
        if exact:
            assert scaled == p[Sidedness.GREATER]
        else:
            assert scaled == pytest.approx(p[Sidedness.GREATER], rel=1e-12)
    t_tails = t_test(x, Sidedness.GREATER).p_value + t_test(x, Sidedness.LESS).p_value
    assert t_tails == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# recorded bits of the scalar tests
# ---------------------------------------------------------------------------

def _sweep_samples():
    """Seeded samples of every size 1..300 in the shapes the scalar tests treat apart.

    Per size: continuous, rounded to 0.1 (tied magnitudes and zeros), a
    third zeroed, and constant; two of the first three scaled by 2^+-600 or
    2^+-1000, where t's squares overflow or underflow; all zeros at a few
    sizes.
    """
    rng = np.random.default_rng(1311_5354)
    scales = (2.0**600, 2.0**-600, 2.0**1000, 2.0**-1000)
    for n in range(1, 301):
        x = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.2, 3.0), n)
        rounded = np.round(x, 1)
        zeroed = np.where(rng.random(n) < 1 / 3, 0.0, x)
        yield from (x, rounded, zeroed, np.full(n, rng.uniform(-2.0, 2.0)))
        yield (x, rounded, zeroed)[n % 3] * scales[n % 4]
        yield (rounded, zeroed, x)[n % 3] * scales[(n + 1) % 4]
        if n % 50 == 1:
            yield np.zeros(n)


def _outcome_record(call):
    """The bits of one scalar test call: its outcome's fields, or its exception."""
    try:
        out = call()
    except Exception as exc:
        return f"{type(exc).__name__}:{exc}"
    return (
        f"{out.statistic.hex()}:{type(out.statistic).__name__}:{out.p_value.hex()}:"
        f"{type(out.p_value).__name__}:{out.n_effective}:{out.sidedness.value}:{out.method.value}"
    )


# Recorded when the scalar statistics were reduced along a one-row block.  The
# t and normal p-values rest on scipy's betainc / ndtr bits.
_SCALAR_SWEEP_DIGEST = "af17a49646f8f9e6acb489b427e1c35e6a8565c69e291fa9b64f73188919b009"


def test_scalar_tests_keep_their_bits():
    digest = hashlib.sha256()
    calls = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in _sweep_samples():
            for side in Sidedness:
                records = [_outcome_record(lambda: t_test(x, side))]
                records += [
                    _outcome_record(lambda: wilcoxon_test(x, side, mode)) for mode in WilcoxonMode
                ]
                digest.update("\n".join(records).encode("utf-8") + b"\n")
                calls += len(records)
    assert calls == 21_672
    assert digest.hexdigest() == _SCALAR_SWEEP_DIGEST
