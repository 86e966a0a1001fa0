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


def conjugated(f: ComplexPoly) -> ComplexPoly:
    """f under the mirror (x, y) -> (x, -y): every coefficient conjugated."""
    return ComplexPoly({key: c.conjugate() for key, c in f.terms.items()})


def blocks_close(a, b, tol: float) -> bool:
    """True when two RealPolyModels' blocks match entrywise within absolute tol.

    A degree that only one of them stores compares against zeros.
    """
    return all(
        np.allclose(
            a.blocks.get(n, np.zeros((2, n + 1))), b.blocks.get(n, np.zeros((2, n + 1))),
            rtol=0.0, atol=tol,
        )
        for n in set(a.blocks) | set(b.blocks)
    )
