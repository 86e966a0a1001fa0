"""Shared test models."""

import cmath
import math

import numpy as np
import pytest

from lensdist.poly import MAX_DEGREE, ComplexPoly


@pytest.fixture
def high_degree_poly():
    """Two monomials of every degree 2..16 with |gamma| <= 0.015 / n.

    sum n |gamma| <= 0.45 on the unit disc, so F = z + f is injective there
    and Newton from the target converges to the source point.
    """
    rng = np.random.default_rng(16)
    terms = {}
    for n in range(2, MAX_DEGREE + 1):
        for k in rng.choice(n + 1, size=2, replace=False):
            mag = rng.uniform(0.5, 1.0) * 0.015 / n
            terms[(int(k), n - int(k))] = mag * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return ComplexPoly(terms)
