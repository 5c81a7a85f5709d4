"""Oracles shared by several test modules."""

import math

import numpy as np
import pytest
from scipy import special


@pytest.fixture
def chi_mean():
    """E[chi_k] = sqrt(2) Gamma((k+1)/2) / Gamma(k/2), as a function of k."""
    return lambda k: math.sqrt(2.0) * np.exp(special.gammaln((k + 1.0) / 2.0) - special.gammaln(k / 2.0))
