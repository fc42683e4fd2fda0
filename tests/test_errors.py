"""The one integer rule: every size, step count and null-table index obeys it."""

from fractions import Fraction

import numpy as np
import pytest

from mixrank.efficiency import dominance_grid
from mixrank.errors import DomainError
from mixrank.mixture import MixtureParams, sample
from mixrank.rank_tests import exact_null_pmf

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
