"""The argument rules: the table integer rule, and one enum-member rule for every enum argument."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mixrank import power
from mixrank.efficiency import AreVariant, are, dominance_boundary, dominance_grid
from mixrank.errors import DomainError
from mixrank.mixture import MeanFunctionVariant, MixtureParams, sample, xi_t
from mixrank.power import SimConfig, TestKind, estimate_power, estimate_size, min_sample_size
from mixrank.rank_tests import (
    Method,
    Sidedness,
    WilcoxonMode,
    exact_null_pmf,
    t_test,
    wilcoxon_test,
)

_PMF = exact_null_pmf(5)

# Each entry point that takes one integer, as a call on that integer.
SIZES = {
    "exact_null_pmf": exact_null_pmf,
    "mass": _PMF.mass,
    "probability": _PMF.probability,
    "sample": lambda n: sample(MixtureParams(0.3, 1.0, 1.0), n, np.random.default_rng(1)),
    "steps_mu": lambda steps: dominance_grid((0.0, 1.0), (0.5, 1.0), steps, 2),
    "steps_sigma": lambda steps: dominance_grid((0.0, 1.0), (0.5, 1.0), 2, steps),
}
# The lookups that take integer scalars or arrays.
INDEXES = {"cdf": _PMF.cdf, "sf": _PMF.sf}

NOT_INTEGERS = [
    True,
    np.bool_(True),
    20.0,
    1.5,
    "3",
    None,
    2**70,
    np.array([1.5]),
    np.array([True]),
]


# A one-entry list is an integer array, which only cdf and sf take.
CASES = [(name, value) for name in SIZES for value in NOT_INTEGERS + [[5]]]
CASES += [(name, value) for name in INDEXES for value in NOT_INTEGERS]


@pytest.mark.parametrize(
    "name, value", [pytest.param(name, value, id=f"{name}-{value!r}") for name, value in CASES]
)
def test_every_entry_point_refuses_what_is_not_an_integer(name, value):
    with pytest.raises(DomainError):
        {**SIZES, **INDEXES}[name](value)


def _index_kinds(k):
    """``k`` as a Python int, numpy integer scalars of four widths and a 0-d array."""
    return [k, np.int64(k), np.uint8(k), np.uint64(k), np.array(k)]


@pytest.mark.parametrize("n, ks", [(5, (0, 3, 15)), (30, (0, 3, 200, 255))])
def test_lookups_keep_their_values_and_types_across_index_kinds(n, ks):
    pmf = exact_null_pmf(n)
    for k in ks:
        for lookup in (pmf.cdf, pmf.sf):
            want = lookup(k)
            assert type(want) is np.float64
            for index in _index_kinds(k):
                got = lookup(index)
                assert type(got) is np.float64 and got == want
            for dtype in (np.int64, np.uint8):
                got = lookup(np.array([k], dtype=dtype))
                assert got.dtype == np.float64 and got.tolist() == [want]
        for index in _index_kinds(k):
            mass = pmf.mass(index)
            assert type(mass) is Fraction and mass == Fraction(pmf.counts[k], 1 << n)
            probability = pmf.probability(index)
            assert type(probability) is float and probability == pmf.counts[k] / (1 << n)


_PARAMS = MixtureParams(0.5, 1.0, 1.0)
_CONFIG = SimConfig(nreps=64, master_seed=5)
_DATA = [0.3, -1.2, 2.5, 0.7, 1.9, -0.4, 1.1]

# Each entry point that takes an enum, as its enum and a call on one argument.
ENUM_ARGUMENTS = {
    "are": (AreVariant, lambda v: are(1.0, 1.0, v)),
    "dominance_grid": (AreVariant, lambda v: dominance_grid((0.0, 1.0), (0.5, 1.0), 2, 2, v)),
    "dominance_boundary": (AreVariant, lambda v: dominance_boundary(0.1, v)),
    "xi_t": (MeanFunctionVariant, lambda v: xi_t(_PARAMS, v)),
    "estimate_power": (TestKind, lambda v: estimate_power(v, _PARAMS, 10, _CONFIG)),
    "estimate_size": (TestKind, lambda v: estimate_size(v, 10, _CONFIG)),
    "min_sample_size": (TestKind, lambda v: min_sample_size(v, _PARAMS, 0.8, _CONFIG)),
    "SimConfig": (Sidedness, lambda v: SimConfig(sidedness=v)),
    "t_test": (Sidedness, lambda v: t_test(_DATA, v)),
    "wilcoxon_test": (Sidedness, lambda v: wilcoxon_test(_DATA, v)),
    "wilcoxon_test-mode": (WilcoxonMode, lambda v: wilcoxon_test(_DATA, mode=v)),
}


def _not_members(enum):
    """Each member's own value, None, and a member of another enum."""
    other = WilcoxonMode.EXACT if enum is Sidedness else Sidedness.GREATER
    return [member.value for member in enum] + [None, other]


ENUM_CASES = [
    (name, bad) for name, (enum, _) in ENUM_ARGUMENTS.items() for bad in _not_members(enum)
]


@pytest.mark.parametrize(
    "name, value", [pytest.param(name, value, id=f"{name}-{value!r}") for name, value in ENUM_CASES]
)
def test_every_enum_argument_refuses_what_is_not_its_member(monkeypatch, name, value):
    def refuse(*args):
        raise AssertionError("no draw before validation")

    monkeypatch.setattr(power, "draw_sample", refuse)
    enum, call = ENUM_ARGUMENTS[name]
    with pytest.raises(DomainError, match=f"must be a {enum.__name__}"):
        call(value)


def test_enum_members_keep_their_values():
    derived = are(1.0, 1.0, AreVariant.EFFICACY_DERIVED)
    assert are(1.0, 1.0) == derived and are(1.0, 1.0, AreVariant.AS_PRINTED) == 3.0 * derived
    grid = dominance_grid((0.0, 1.0), (0.5, 1.0), 2, 2, AreVariant.AS_PRINTED)
    assert grid.variant is AreVariant.AS_PRINTED and grid.values[1, 1] == 3.0 * derived
    # The printed constant crosses parity at a larger mu.
    assert dominance_boundary(0.1, AreVariant.AS_PRINTED) > dominance_boundary(0.1) > 1.0
    assert xi_t(_PARAMS, MeanFunctionVariant.PRINTED) == 0.5
    assert xi_t(_PARAMS, MeanFunctionVariant.EXACT) == 0.5 / math.sqrt(1.25) == xi_t(_PARAMS)
    for kind in TestKind:
        assert estimate_power(kind, _PARAMS, 10, _CONFIG).test_kind is kind
        assert estimate_size(kind, 10, _CONFIG).test_kind is kind
    for sidedness in Sidedness:
        assert SimConfig(sidedness=sidedness).sidedness is sidedness
        assert t_test(_DATA, sidedness).sidedness is sidedness
        assert wilcoxon_test(_DATA, sidedness).sidedness is sidedness
    for mode in WilcoxonMode:
        method = Method.NORMAL_APPROX if mode is WilcoxonMode.NORMAL_APPROX else Method.EXACT
        assert wilcoxon_test(_DATA, mode=mode).method is method
