"""``repro.common.stats`` gives numpy's default order statistics exactly.

A run reads its quantiles and medians from the helper instead of
``np.quantile`` / ``np.percentile`` / ``np.median``, whose first call in a
process imports ``numpy.ma``. The swap is sound only while every value is
the float numpy returns, so each statistic is compared with numpy on the
same data, bit for bit: NaN with NaN, and a zero's sign too, except for
a quantile of data holding both ``0.0`` and ``-0.0``, whose order among
themselves numpy's partition leaves unspecified (no run has a ``-0.0``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.common.stats import median, quantile

#: numpy warns where a difference or a sum of huge floats overflows; the
#: helper gives the same inf or NaN without a word
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
#: integers whose pairwise differences stay inside numpy's int64
INTS = st.integers(min_value=-2**61, max_value=2**61)
VALUES = st.one_of(st.lists(FLOATS, min_size=1, max_size=60),
                   st.lists(INTS, min_size=1, max_size=60),
                   # ties: a few distinct values, many repeats
                   st.lists(st.sampled_from([0.0, -0.0, 0.1, 2.5, 7.0]),
                            min_size=1, max_size=60))
QS = st.one_of(st.sampled_from([0.0, 0.5, 0.66, 0.9, 1.0]),
               st.floats(min_value=0.0, max_value=1.0))


def same(ours: float, theirs: float, either_zero: bool = False) -> bool:
    """*ours* is *theirs*; with *either_zero*, a zero of either sign."""
    if math.isnan(ours) or math.isnan(theirs):
        return math.isnan(ours) and math.isnan(theirs)
    return ours == theirs and (either_zero or math.copysign(1.0, ours)
                               == math.copysign(1.0, theirs))


def both_zeros(values) -> bool:
    signs = {math.copysign(1.0, value) for value in values if value == 0}
    return len(signs) == 2


@given(VALUES, QS)
@example([3.25], 0.0)
@example([3.25], 0.66)
@example([7], 1.0)
# ties; index 0.6 blends from the lower neighbour, 2.4 from the upper one
@example([4.0, 2.0, 1.0, 2.0], 0.2)
@example([4.0, 2.0, 1.0, 2.0], 0.8)
@example([-0.0, -0.0], 1.0)
@example([-0.0, -0.0, 1.0], 0.0)
def test_quantile_is_numpys(values, q):
    assert same(quantile(sorted(values), q), float(np.quantile(values, q)),
                both_zeros(values))


@given(VALUES, QS)
@example([3.25], 0.9)
@example([4, 2, 1, 2], 0.66)
def test_percentile_is_numpys(values, q):
    p = 100 * q
    assert same(quantile(sorted(values), p / 100),
                float(np.percentile(values, p)), both_zeros(values))


@given(VALUES)
@example([3.25])
@example([7])
@example([4.0, 2.0, 1.0, 2.0])
@example([-0.0])
@example([-0.0, -0.0])
def test_median_is_numpys(values):
    assert same(median(sorted(values)), float(np.median(values)))


@given(VALUES, QS)
def test_a_numpy_sorted_array_gives_the_same(values, q):
    # a Python float, not a numpy scalar: round() differs between them
    ordered = np.sort(np.asarray(values))
    assert type(quantile(ordered, q)) is type(median(ordered)) is float
    assert same(quantile(ordered, q), quantile(sorted(values), q),
                both_zeros(values))
    assert same(median(ordered), median(sorted(values)))

