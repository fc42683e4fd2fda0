"""Deterministic, splittable random streams for parallel Monte Carlo.

Every block of consecutive simulation replications owns an SFC64 stream
seeded with a 128-bit hash of ``(master seed, cell key, block index)``; the
Monte Carlo lab sizes a block by the cell's sample size alone, never by its
worker count.  Any block can therefore be regenerated in isolation, and
results cannot depend on worker count or scheduling order.

SFC64 is chosen by measurement: a mixture block takes about a third less
time to draw than under Philox.  The price is how streams are kept apart.
Philox streams are distinct by key, by construction of the counter-based
generator; SFC64 streams are separated by numpy's SeedSequence hashing of
the key into the generator's state, so two keys give unrelated but not
provably disjoint streams.
"""

import hashlib
import struct

import numpy as np


def stream_key(*parts) -> int:
    """Hash a tuple of ints/floats/strings into a 128-bit stream key.

    Floats are keyed by their IEEE-754 bit pattern, with ``-0.0`` folded
    into ``0.0`` so that equal parameters always share a stream; integers by
    their decimal digits (so arbitrary-precision seeds are fine).  The
    encoding is platform-independent.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, (bool, np.bool_)):
            raise TypeError("booleans are ambiguous stream-key parts")
        if isinstance(part, (int, np.integer)):
            h.update(b"i%d;" % int(part))
        elif isinstance(part, (float, np.floating)):
            h.update(b"f" + struct.pack("<d", float(part) + 0.0))  # -0.0 + 0.0 == +0.0
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8") + b";")
        else:
            raise TypeError(f"unsupported stream-key part: {part!r}")
    return int.from_bytes(h.digest(), "little")


def seeded_rng(master_seed: int, *labels) -> np.random.Generator:
    """Generator keyed by ``(master_seed, *labels)``; every mixrank stream is built here."""
    return np.random.Generator(np.random.SFC64(stream_key(master_seed, *labels)))
