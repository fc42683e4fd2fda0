"""Stream keys and the per-block generators of the Monte Carlo lab."""

import numpy as np
import pytest

from mixrank.mixture import MixtureParams, sample
from mixrank.streams import seeded_rng, stream_key


def test_stream_key_folds_negative_zero():
    assert stream_key(3, -0.0) == stream_key(3, 0.0)
    assert stream_key(np.float64(-0.0)) == stream_key(0.0)
    assert stream_key(0.0) != stream_key(0)  # floats and ints stay apart
    assert stream_key(1e-300) != stream_key(0.0)


@pytest.mark.parametrize(
    "part, message",
    [(True, "booleans"), (np.True_, "booleans"), (None, "unsupported"), (b"1", "unsupported")],
)
def test_stream_key_refuses_ambiguous_and_unknown_parts(part, message):
    with pytest.raises(TypeError, match=message):
        stream_key(7, part)


def test_block_streams_are_distinct_and_regenerable():
    a = seeded_rng(5, 11, 0).random(8)
    np.testing.assert_array_equal(a, seeded_rng(5, 11, 0).random(8))
    assert not np.array_equal(a, seeded_rng(5, 11, 1).random(8))
    assert not np.array_equal(a, seeded_rng(5, 12, 0).random(8))


def test_stream_family_and_first_draws_are_pinned():
    # Every Monte Carlo number follows from these bits: a change of generator,
    # of numpy's seeding or of the draw order fails here first.
    assert isinstance(seeded_rng(7, "any label").bit_generator, np.random.SFC64)
    x = sample(MixtureParams(0.5, 1.0, 2.0), 6, seeded_rng(7, 11, 2)).reshape(2, 3)
    bits = np.array(
        [
            [0x3FC36A93FE178BF2, 0x3FB5155434262D80, 0xBFD8D5F584E94E8C],
            [0x4000EC4E7B5720F6, 0x3FE0E682B6FD5FBF, 0xBFBE33FEE19E0DB0],
        ],
        dtype=np.uint64,
    )
    np.testing.assert_array_equal(x.view(np.uint64), bits)
