"""Algebraic verifiers for the geometric properties of distortion models.

Every verdict reads complex coefficients scaled as ``ModelSpace.unit`` and
passes when its residual, measured per coefficient of a unit row or of a
distance from a row span, is at most tol (``DEFAULT_TOL`` for a space); rank
decisions use ``INDEPENDENCE_RTOL``.  So no verdict depends on scale, and a
function gets the verdicts of its one-row span, which is isotropic exactly
when it is rotation invariant.  Axes are lines: angles lie in [0, pi).

* ``reflection_symmetry`` decides whether a single displacement is mirror
  symmetric about some axis through the origin and recovers the axis:
  gamma_kl * exp(i m theta) must be real for every stored monomial, where
  m = k - l - 1 is the winding number.
* ``pairwise_conditions`` checks the necessary two-term phase relations
  Im[gamma^m' conj(gamma')^m] = 0.  They are not sufficient: z^3 + i z zbar^2
  passes them but is not symmetric about any axis.
* ``is_isotropic`` decides whether a linear space is closed under rotations:
  each |m| block of its rows, turned by i sign(m) or not, must stay in the
  row span.
* ``classify`` aggregates the predicates for a space.  The "every member is
  reflection-symmetric" flag (rsf) holds exactly when one of two exact
  certificates does: all basis functions share one mirror axis, or the space
  has the structural normal form of ``structural_rsf``.
"""

from __future__ import annotations

import math
from cmath import exp as cexp
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .families import INDEPENDENCE_RTOL, ModelSpace, _modulus, _unit_rows
from .poly import DEFAULT_TOL, ComplexPoly

__all__ = [
    "SymmetryReport",
    "ClassReport",
    "reflection_symmetry",
    "pairwise_conditions",
    "is_rotation_invariant",
    "is_isotropic",
    "structural_rsf",
    "classify",
    "radial_tangential_at",
    "in_radial_tangential_span",
    "sphere_point",
]


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the reflection-symmetry check for one displacement.

    ``axis`` is an angle in [0, pi) when the function is symmetric and has at
    least one monomial of nonzero winding, the string "any" when every stored
    monomial is rotation invariant (then every axis works, including for the
    zero function), and None when the function is not symmetric.
    """

    symmetric: bool
    axis: float | str | None
    pairwise_ok: bool
    residual: float


@dataclass(frozen=True)
class ClassReport:
    """Aggregated geometric classification of a linear model space.

    ``details`` reads ``structural_normal_form=<bool>; common_axis=<axis>``,
    where the axis is an angle in [0, pi), "any" or None.
    """

    dimension: int
    isotropic: bool
    rotation_invariant: bool
    rsf: bool
    details: str


def _axis_mod_pi(theta: float) -> float:
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    if t >= math.pi or t == 0.0:  # also -0.0, which fmod gives for -pi
        t = 0.0
    return t


def _axis_residual(terms, theta: float) -> float:
    # Symmetric about theta iff gamma * exp(i m theta) is real for all terms.
    worst = 0.0
    for m, c in terms:
        worst = max(worst, abs((c * cexp(1j * m * theta)).imag))
    return worst


def _best_axis(terms, tol: float = DEFAULT_TOL) -> tuple[float | str, float]:
    """The axis that best fits a list of (winding m, gamma) terms, and its residual.

    Candidate axes come from the term of smallest nonzero |winding| above tol
    (of all terms when none is above it): its coefficient alone forces
    theta = (-arg gamma + j pi) / m, and j and j + |m| give the same axis
    modulo pi, so j < |m| gives the |m| distinct candidates.  Every candidate
    is then scored against all terms.  The axis is "any" when no term winds.
    """
    swirling = [(m, c) for m, c in terms if m != 0]
    if not swirling:
        return "any", max((abs(c.imag) for _, c in terms), default=0.0)

    # Smallest |m| first; among those, the largest coefficient for a stable arg.
    m0, c0 = min([(m, c) for m, c in swirling if abs(c) > tol] or swirling,
                 key=lambda item: (abs(item[0]), -abs(item[1])))
    if (c0.real, c0.imag) < (0.0, 0.0):  # relabels j, so that -f gets the candidates of f
        c0 = -c0
    base = -math.atan2(c0.imag, c0.real) / m0
    candidates = sorted(_axis_mod_pi(base + j * math.pi / m0) for j in range(abs(m0)))
    # Tuples order ties by axis, so a tie goes to the smallest candidate.
    residual, axis = min((_axis_residual(terms, cand), cand) for cand in candidates)
    return axis, residual


def _unit_terms(func: ComplexPoly, tol: float) -> tuple[list, float]:
    """The ((k, l), gamma) terms of func on its span's unit row, and the power undoing it."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    unit, scale = _unit_rows(np.array([list(func.terms.values())], dtype=complex))
    return list(zip(func.terms, unit[0].tolist())), float(scale[0])


def reflection_symmetry(func: ComplexPoly, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Decide mirror symmetry of a displacement and recover the axis.

    The best axis of the unit terms, as ``classify`` reads span{func}, is
    reported when its residual is at most tol; the residual is in func's units.
    """
    terms, scale = _unit_terms(func, tol)
    axis, residual = _best_axis([(k - l - 1, c) for (k, l), c in terms], tol)
    symmetric = residual <= tol
    return SymmetryReport(
        symmetric,
        axis if symmetric else None,
        symmetric or pairwise_conditions(func, tol),
        residual * scale,
    )


def pairwise_conditions(func: ComplexPoly, tol: float = DEFAULT_TOL) -> bool:
    """Necessary two-term conditions Im[gamma^m' conj(gamma')^m] = 0.

    Evaluated in phase form, |sin(m' arg gamma - m arg gamma')| <= tol, which
    is the same inequality scaled by the coefficient magnitudes and immune to
    overflow from the integer powers.  Necessary but not sufficient.
    """
    items, _ = _unit_terms(func, tol)
    for ((k1, l1), c1), ((k2, l2), c2) in combinations(items, 2):
        m1 = k1 - l1 - 1
        m2 = k2 - l2 - 1
        if abs(math.sin(m2 * math.atan2(c1.imag, c1.real) - m1 * math.atan2(c2.imag, c2.real))) > tol:
            return False
    return True


def is_rotation_invariant(func: ComplexPoly, tol: float = DEFAULT_TOL) -> bool:
    """True when every unit-row coefficient above tol sits on a winding-zero monomial."""
    return all(abs(c) <= tol or k - l - 1 == 0 for (k, l), c in _unit_terms(func, tol)[0])


def _rotation_closed(rows: np.ndarray, windings: np.ndarray, span: np.ndarray) -> bool:
    """True when the real span of the complex ``rows`` (orthonormal real rows
    ``span``) is closed under rotations, within DEFAULT_TOL per coefficient.

    The rotation generator G multiplies the column of winding m by i m: it is
    |m| times the quarter turn i sign(m) on each block of columns of one |m|,
    and the projections onto the blocks, the spectral projectors of G^2, are
    polynomials in G.  So the span is closed under G, and under the rotations
    exp(theta G), exactly when it holds each block of its rows, turned or not.
    """
    sizes = np.abs(windings)
    # The |m| present, by bincount: np.unique would import numpy.ma on first use (~6 ms).
    blocks = rows * (sizes == np.flatnonzero(np.bincount(sizes))[:, None])[:, None, :]
    vectors = np.concatenate([blocks, blocks * (1j * np.sign(windings))]).view(float)
    off = (vectors - (vectors @ span.T) @ span).view(complex)
    return bool(np.all(_modulus(off) <= DEFAULT_TOL))


def is_isotropic(space: ModelSpace) -> bool:
    """True when the real span is closed under every coordinate rotation."""
    return _rotation_closed(space.unit, space.windings, space.span)


def structural_rsf(space: ModelSpace) -> bool:
    """Certificate that every member is mirror symmetric, by the normal form.

    The normal form: winding-zero coefficients real in every basis function,
    at most one |m| among the other windings, and +/-m content spanning a
    plane that the generator G maps into itself and that holds a nonzero
    symmetric element w.  G multiplies winding +/-m coefficient columns by
    +/-i m, so G^2 is -m^2 on the plane, which is therefore {r exp(phi G) w}:
    the multiples of w rotated by phi.  A rotated symmetric function is
    symmetric about the rotated axis, and real winding-zero content is
    symmetric about every axis, so every member is symmetric.  The test reads
    the +/-m columns of ``space.unit``, so it is invariant to basis scale.
    """
    unit, windings = space.unit, space.windings
    if np.any(np.abs(unit[:, windings == 0].imag) > DEFAULT_TOL):
        return False
    swirling = set(np.abs(windings[(_modulus(unit) > DEFAULT_TOL).any(axis=0) & (windings != 0)]))
    if len(swirling) != 1:  # all content winds 0, or two |m| turn at two rates
        return not swirling

    plane = np.abs(windings) == swirling.pop()
    proj = np.ascontiguousarray(unit[:, plane])
    _, svals, vt = np.linalg.svd(proj.view(float), full_matrices=False)
    if int(np.sum(svals > svals[0] * INDEPENDENCE_RTOL)) != 2:
        return False
    # Each nonzero element of the plane is a multiple of w rotated, so vt[0] may stand for w.
    return (_rotation_closed(proj, windings[plane], vt[:2])
            and _common_axis(vt[:1].view(complex), windings[plane]) is not None)


def _common_axis(unit: np.ndarray, windings: np.ndarray) -> float | str | None:
    """An axis that every coefficient row of ``unit`` is mirror symmetric about, else None.

    The functions symmetric about one axis form a real subspace, so when the
    basis lies in it the whole span does.
    """
    terms = [(m, c) for row in unit.tolist() for m, c in zip(windings.tolist(), row) if c]
    axis, residual = _best_axis(terms)
    return axis if residual <= DEFAULT_TOL else None


def classify(space: ModelSpace) -> ClassReport:
    """Aggregate isotropy, rotation invariance and the mirror-symmetry flag.

    rsf is true exactly when the basis has a common axis (``_common_axis``)
    or the space has the normal form of ``structural_rsf``.  ``details``
    records both certificates.  Every flag reads ``space.unit``, so none
    depends on the scale of a basis function.

    The two are exhaustive.  Suppose every member of the span V is
    symmetric.  Then its winding-zero content is real; let Q be the
    projection of V onto the other windings.  Each axis serves a linear
    subspace of Q (the members symmetric about it), and two axes whose
    difference is not a rational multiple of pi serve only 0 together (a
    function symmetric about both is fixed by an irrational rotation).  A
    real vector space is no countable union of proper subspaces, so either
    one axis serves all of Q, or a continuum of axes each serve a proper
    subspace; counting dimensions, Q is then a plane whose lines have
    distinct axes.  Two such lines force the +/-m content of Q into
    {gamma p + conj(gamma) n} with p and n real, for every m; and two
    different |m| would make the axis turn at two rates as gamma turns
    once.  That is the normal form.
    """
    structural = structural_rsf(space)
    common = _common_axis(space.unit, space.windings)
    return ClassReport(
        space.dimension,
        is_isotropic(space),
        not np.any(_modulus(space.unit[:, space.windings != 0]) > DEFAULT_TOL),
        structural or common is not None,
        f"structural_normal_form={structural}; common_axis={common}",
    )


def radial_tangential_at(func: ComplexPoly, p) -> tuple[float, float]:
    """Pointwise radial/tangential split: displacement = (x,y) g_r + (-y,x) g_t."""
    x, y = float(p[0]), float(p[1])
    r2 = x * x + y * y
    if r2 == 0.0:
        raise ValueError("the radial/tangential split is undefined at the origin")
    dx, dy = func.displacement(x, y)
    g_r = (x * dx + y * dy) / r2
    g_t = (x * dy - y * dx) / r2
    return g_r, g_t


def in_radial_tangential_span(func: ComplexPoly, tol: float = DEFAULT_TOL) -> bool:
    """True when the function lies in the span of radial and tangential fields.

    Those are exactly the multiples of z, so the test is that every unit
    term with k = 0 (the pure zbar^n terms) has magnitude at most tol.
    """
    return all(abs(c) <= tol for (k, l), c in _unit_terms(func, tol)[0] if k == 0)


def sphere_point(mu: complex, nu: complex) -> tuple[float, float, float]:
    """Unit-sphere embedding of the ratio (mu : nu).

    After normalizing |mu|^2 + |nu|^2 = 1 the point is
    (Re 2 mu conj(nu), Im 2 mu conj(nu), |mu|^2 - |nu|^2).  Where that sum
    could overflow or underflow, (mu, nu) is first divided by its largest part.
    """
    mu, nu = complex(mu), complex(nu)
    parts = (mu.real, mu.imag, nu.real, nu.imag)
    if not all(map(math.isfinite, parts)):
        raise ValueError("(mu, nu) must be finite")
    largest = max(map(abs, parts))
    if largest == 0.0:
        raise ValueError("(mu, nu) must not both be zero")
    if not 1e-150 < largest < 1e150:
        mu, nu = mu / largest, nu / largest
    scale = 1.0 / math.sqrt(abs(mu) ** 2 + abs(nu) ** 2)
    mu *= scale
    nu *= scale
    w = 2.0 * mu * np.conj(nu)
    return float(w.real), float(w.imag), float(abs(mu) ** 2 - abs(nu) ** 2)
