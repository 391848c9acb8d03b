"""Physical constants: every scale finite and strictly positive."""

import math

import pytest

from diracfock.constants import PhysicalConstants


@pytest.mark.parametrize("name", ["hbar", "c", "kappa", "q", "ell"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_rejects_non_finite_or_non_positive(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        PhysicalConstants(**{name: value})
