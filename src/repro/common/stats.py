"""Order statistics of a sorted sequence, equal to numpy's default ones.

``np.quantile``, ``np.percentile`` and ``np.median`` reach ``np.unique``,
which on numpy 2.x asks ``np.ma.is_masked``: the first of them in a
process imports ``numpy.ma`` (about 9 ms and 1.3 MB), and that import
leaves reference cycles behind for the cyclic collector. What a run reads
is a handful of order statistics, so it takes them here instead, from
data it sorts once (``np.sort`` or ``sorted``), with the arithmetic of
numpy's default ``linear`` method, operation for operation: the results
are the same floats.
"""

from __future__ import annotations

from typing import Sequence


def quantile(ordered: Sequence[float], q: float) -> float:
    """The *q*-quantile (0 <= q <= 1) of the non-empty ascending *ordered*.

    ``float(np.quantile(values, q))``: the virtual index is ``(n - 1) q``;
    the two neighbours are blended by the index's fraction ``g``, from the
    lower one below one half and from the upper one at or above it. At or
    past the last element both neighbours are the last one, with numpy's
    ``g`` of the index plus one, which gives that element (a ``-0.0``
    among several reads ``0.0``, as in numpy).
    ``np.percentile(values, p)`` is ``quantile(ordered, p / 100)``.
    """
    last = len(ordered) - 1
    index = last * q
    if index >= last:
        low = high = ordered[last]
        gamma = index + 1
    else:
        below = int(index)
        gamma = index - below
        low, high = ordered[below], ordered[below + 1]
    step = high - low
    if gamma >= 0.5:
        return float(high - step * (1 - gamma))
    return float(low + step * gamma)


def median(ordered: Sequence[float]) -> float:
    """The median of the non-empty ascending *ordered*:
    ``float(np.median(values))``, the mean of the middle element or of
    the middle two, summed from ``0.0`` as numpy's mean is (so ``-0.0``
    reads ``0.0``)."""
    half, odd = divmod(len(ordered), 2)
    if odd:
        return float(0.0 + ordered[half])
    return float((0.0 + ordered[half - 1] + ordered[half]) / 2)
