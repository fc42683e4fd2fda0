"""Stream keys and the per-block generators of the Monte Carlo lab."""

import numpy as np

from mixrank.streams import replication_rng, stream_key


def test_stream_key_folds_negative_zero():
    assert stream_key(3, -0.0) == stream_key(3, 0.0)
    assert stream_key(np.float64(-0.0)) == stream_key(0.0)
    assert stream_key(0.0) != stream_key(0)  # floats and ints stay apart
    assert stream_key(1e-300) != stream_key(0.0)


def test_block_streams_are_distinct_and_regenerable():
    a = replication_rng(5, 11, 0).random(8)
    np.testing.assert_array_equal(a, replication_rng(5, 11, 0).random(8))
    assert not np.array_equal(a, replication_rng(5, 11, 1).random(8))
    assert not np.array_equal(a, replication_rng(5, 12, 0).random(8))
