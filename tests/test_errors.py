import math

import pytest

from k3zeta.errors import _within


@pytest.mark.parametrize(
    "deviation, tol, scale, ok",
    [
        (1e-10, 1e-10, 0.0, True),
        (2e-10, 1e-10, 0.0, False),
        (2e-10, 1e-10, 1.0, True),  # 1e-9 * scale is the larger bound
        (2e-9, 1e-10, 1.0, False),
        (5e-7, 0.0, 1000.0, True),
        (0.0, 0.0, 0.0, True),
        (math.inf, 1e-10, 0.0, False),
        (math.nan, 1e-10, 0.0, False),
        (math.nan, math.inf, math.inf, False),
    ],
)
def test_within_is_the_larger_of_the_absolute_and_relative_bound(deviation, tol, scale, ok):
    assert _within(deviation, tol, scale) is ok
