"""Deterministic random-number streams.

Every stochastic component of the simulation (network jitter, sortition,
Avalanche sampling, workload arrival times) draws from its own named stream
derived from a single experiment seed. Runs are therefore reproducible
bit-for-bit, and changing one component's consumption pattern does not
perturb the others.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable

import numpy as np


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from a root seed and a path of stream names."""
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode())
    for name in names:
        digest.update(b"/")
        digest.update(name.encode())
    return int.from_bytes(digest.digest()[:8], "big")


class RngFactory:
    """Factory handing out independent, named numpy Generators.

    >>> factory = RngFactory(42)
    >>> a = factory.stream("network")
    >>> b = factory.stream("network")   # same name -> same sequence start
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)

    def stream(self, *names: str) -> np.random.Generator:
        """Return a fresh Generator for the stream identified by *names*."""
        return np.random.default_rng(derive_seed(self.root_seed, *names))

    def child(self, *names: str) -> "RngFactory":
        """Return a factory whose streams are namespaced under *names*."""
        return RngFactory(derive_seed(self.root_seed, *names, "__child__"))


#: default pre-draw block size for :class:`BlockSampler`
BLOCK_DRAW = 4096


class BlockSampler:
    """Scalar draws from one distribution, served from pre-drawn blocks.

    numpy Generators fill vectorized requests by running the same
    underlying routine once per element, so ``gen.random(n)`` yields
    bit-for-bit the floats of ``n`` successive ``gen.random()`` calls
    (likewise for ``lognormal`` and the other fixed-parameter
    distributions). A hot path that draws one value per event can
    therefore pre-draw a block and serve Python floats from it — same
    sequence, a fraction of the per-call Generator overhead.

    The sampler must *own* its named stream: any other draw interleaved
    on the same Generator would land in the middle of a pre-drawn block
    and diverge from the scalar-call sequence. Distribution parameters
    are fixed at construction for the same reason.

    >>> factory = RngFactory(7)
    >>> fast = BlockSampler(factory.stream("jitter"), "random", block=8)
    >>> slow = factory.stream("jitter")
    >>> all(fast.next() == float(slow.random()) for _ in range(20))
    True
    """

    __slots__ = ("next",)

    def __init__(self, stream: np.random.Generator, distribution: str,
                 *params: float, block: int = BLOCK_DRAW) -> None:
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        method = getattr(stream, distribution)
        # ndarray.tolist() yields exact Python floats (no rounding); a
        # block is drawn when the one before it runs out
        blocks = iter(lambda: method(*params, block).tolist(), None)
        #: the next value of the stream, as a Python float: a C iterator's
        #: ``__next__``, so a draw runs no Python frame (and holds no
        #: reference back to the sampler)
        self.next: Callable[[], float] = (
            itertools.chain.from_iterable(blocks).__next__)
