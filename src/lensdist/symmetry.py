"""Algebraic verifiers for the geometric properties of distortion models.

Checks provided here, all working directly on complex coefficients:

* ``reflection_symmetry`` decides whether a single displacement is mirror
  symmetric about some axis through the origin and recovers the axis.  The
  definitional test is that gamma_kl * exp(i m theta) is real for every
  stored monomial, where m = k - l - 1 is the winding number; equivalently
  gamma_kl = conj(gamma_kl) * exp(-2 i m theta).
* ``pairwise_conditions`` checks the necessary two-term phase relations
  Im[gamma^m' conj(gamma')^m] = 0.  They are not sufficient: z^3 + i z zbar^2
  passes them but is not symmetric about any axis.
* ``is_isotropic`` decides whether a linear space is closed under rotations,
  combining the infinitesimal generator test (each coefficient multiplied by
  i m must stay in the span) with confirmation at a few finite angles.
* ``classify`` aggregates the predicates for a space.  The "every member is
  reflection-symmetric" flag (rsf) is certified two ways at once: a seeded
  sample of members must pass the definitional check, and the space must have
  the structural normal form (at most one +/-m winding pair outside winding
  zero, carried by a conjugate-paired complex line over real polynomials,
  plus invariant monomials with real coefficients).

Axis angles are reported in [0, pi); axes are lines, defined modulo pi.
"""

from __future__ import annotations

import math
from cmath import exp as cexp, phase
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .families import (
    DistortionFunction,
    ModelSpace,
    coefficient_keys,
    coefficient_matrix,
)
from .poly import ComplexPoly, DEFAULT_TOL

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

ISOTROPY_TOL = 1e-9
SAMPLE_SEED = 0

# Finite rotation angles used to confirm the generator-based isotropy test.
_CONFIRM_ANGLES = (math.pi / 7, math.pi / 3, 2.0)


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

    def to_json_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "axis": self.axis,
            "pairwise_ok": self.pairwise_ok,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class ClassReport:
    """Aggregated geometric classification of a linear model space."""

    dimension: int
    isotropic: bool
    rotation_invariant: bool
    rsf: bool
    details: str

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "isotropic": self.isotropic,
            "rotation_invariant": self.rotation_invariant,
            "rsf": self.rsf,
            "details": self.details,
        }


def _axis_mod_pi(theta: float) -> float:
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    if t >= math.pi:
        t = 0.0
    return t


def _axis_residual(terms, theta: float) -> float:
    # Symmetric about theta iff gamma * exp(i m theta) is real for all terms.
    worst = 0.0
    for (k, l), c in terms:
        m = k - l - 1
        worst = max(worst, abs((c * cexp(1j * m * theta)).imag))
    return worst


def reflection_symmetry(func: DistortionFunction, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Decide mirror symmetry of a displacement and recover the axis.

    Candidate axes come from the stored monomial with the smallest nonzero
    |winding|: its coefficient alone forces theta = (-arg gamma + j pi) / m,
    giving at most 2|m| distinct candidates modulo pi.  Every candidate is
    then scored against all coefficients and the best residual reported.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    terms = list(func.poly.terms.items())
    pairwise_ok = pairwise_conditions(func, tol)
    if not terms:
        return SymmetryReport(True, "any", True, 0.0)

    swirling = [(kl, c) for kl, c in terms if kl[0] - kl[1] - 1 != 0]
    if not swirling:
        residual = max(abs(c.imag) for _, c in terms)
        symmetric = residual < tol
        return SymmetryReport(
            symmetric, "any" if symmetric else None, pairwise_ok or symmetric, residual
        )

    # Smallest |m| first; among those, the largest coefficient for a stable arg.
    (k0, l0), c0 = min(
        swirling, key=lambda item: (abs(item[0][0] - item[0][1] - 1), -abs(item[1]))
    )
    m0 = k0 - l0 - 1
    base = -phase(c0) / m0
    candidates: list[float] = []
    for j in range(2 * abs(m0)):
        cand = _axis_mod_pi(base + j * math.pi / m0)
        if all(
            min(abs(cand - seen), math.pi - abs(cand - seen)) > 1e-12
            for seen in candidates
        ):
            candidates.append(cand)
    candidates.sort()

    best_axis = candidates[0]
    best_residual = math.inf
    for cand in candidates:
        res = _axis_residual(terms, cand)
        if res < best_residual:
            best_residual = res
            best_axis = cand
    symmetric = best_residual < tol
    return SymmetryReport(
        symmetric,
        best_axis if symmetric else None,
        pairwise_ok or symmetric,
        best_residual,
    )


def pairwise_conditions(func: DistortionFunction, tol: float = DEFAULT_TOL) -> bool:
    """Necessary two-term conditions Im[gamma^m' conj(gamma')^m] = 0.

    Evaluated in phase form, |sin(m' arg gamma - m arg gamma')| < tol, which
    is the same inequality scaled by the coefficient magnitudes and immune to
    overflow from the integer powers.  Necessary but not sufficient.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    items = list(func.poly.terms.items())
    for ((k1, l1), c1), ((k2, l2), c2) in combinations(items, 2):
        m1 = k1 - l1 - 1
        m2 = k2 - l2 - 1
        if abs(math.sin(m2 * phase(c1) - m1 * phase(c2))) >= tol:
            return False
    return True


def is_rotation_invariant(func: DistortionFunction, tol: float = DEFAULT_TOL) -> bool:
    """True when every coefficient above tol sits on a winding-zero monomial."""
    return all(
        abs(c) <= tol or kl[0] - kl[1] - 1 == 0 for kl, c in func.poly.terms.items()
    )


def _span_residual(basis_matrix: np.ndarray, vector: np.ndarray) -> float:
    sol, *_ = np.linalg.lstsq(basis_matrix.T, vector, rcond=None)
    return float(np.linalg.norm(basis_matrix.T @ sol - vector))


def _vectorize(polys, keys) -> np.ndarray:
    funcs = [DistortionFunction.from_poly(p) for p in polys]
    return coefficient_matrix(funcs, keys)


def is_isotropic(space: ModelSpace, tol: float = ISOTROPY_TOL) -> bool:
    """True when the real span is closed under conjugation by all rotations.

    The rotation derivative at angle zero multiplies each coefficient by
    i m; membership of that generator image for every basis function is
    sufficient for the connected rotation group, and membership of a few
    finite-angle rotations confirms it numerically.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    keys = coefficient_keys(space.basis)
    basis_mat = coefficient_matrix(space.basis, keys)
    probes: list[ComplexPoly] = []
    for f in space.basis:
        probes.append(
            ComplexPoly(
                {kl: 1j * (kl[0] - kl[1] - 1) * c for kl, c in f.poly.terms.items()}
            )
        )
        probes.extend(f.poly.rotated(theta) for theta in _CONFIRM_ANGLES)
    probe_mat = _vectorize(probes, keys)
    return all(
        _span_residual(basis_mat, probe_mat[i]) <= tol for i in range(probe_mat.shape[0])
    )


def _common_phase_ok(vec: np.ndarray, tol: float) -> bool:
    # All nonzero components share one phase modulo pi, i.e. vec is a complex
    # multiple of a real vector: Im(v_i conj(v_j)) = 0 for all pairs.
    for i in range(len(vec)):
        for j in range(i + 1, len(vec)):
            if abs((vec[i] * np.conj(vec[j])).imag) > tol * max(
                abs(vec[i]) * abs(vec[j]), 1e-300
            ):
                return False
    return True


def _conjugate_pairing_ok(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    # Phases of u and v must be opposite modulo pi: Im(u_i v_j) = 0.
    for ui in u:
        for vj in v:
            if abs((ui * vj).imag) > tol * max(abs(ui) * abs(vj), 1e-300):
                return False
    return True


def structural_rsf(space: ModelSpace, tol: float = ISOTROPY_TOL) -> bool:
    """Structural certificate that every member of the space is mirror symmetric.

    Requires the normal form: winding-zero coefficients real throughout, at
    most one +/-m winding pair elsewhere, and the +/-m content forming the
    conjugate-paired complex line {gamma f + conj(gamma) g} over real f, g.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    keys = coefficient_keys(space.basis)

    # Invariant (winding 0) content must be real in every basis function.
    for f in space.basis:
        for (k, l), c in f.poly.terms.items():
            if k - l - 1 == 0 and abs(c.imag) > tol:
                return False

    windings = set()
    for f in space.basis:
        for (k, l), c in f.poly.terms.items():
            m = k - l - 1
            if m != 0 and abs(c) > tol:
                windings.add(m)
    if not windings:
        return True
    if len({abs(m) for m in windings}) > 1:
        return False
    m = max(abs(w) for w in windings)

    plus_keys = [kl for kl in keys if kl[0] - kl[1] - 1 == m]
    minus_keys = [kl for kl in keys if kl[0] - kl[1] - 1 == -m]
    pair_keys = plus_keys + minus_keys

    projections = [f.poly.winding_part(m) + f.poly.winding_part(-m) for f in space.basis]
    proj_mat = _vectorize(projections, pair_keys)
    svals = np.linalg.svd(proj_mat, compute_uv=False)
    rank = int(np.sum(svals > max(svals) * 1e-9)) if svals.size and max(svals) > 0 else 0
    if rank == 0:
        return True
    if rank != 2:
        # The conjugate-paired line is 2-dimensional over the reals; a
        # 1-dimensional or wider projection cannot be of that form.
        return False

    # A representative nonzero element w1 and the companion with gamma -> i gamma.
    idx = int(np.argmax(np.linalg.norm(proj_mat, axis=1)))
    w1 = projections[idx]
    u = np.array([w1.terms.get(kl, 0j) for kl in plus_keys])
    v = np.array([w1.terms.get(kl, 0j) for kl in minus_keys])
    if not _common_phase_ok(u, tol) or not _common_phase_ok(v, tol):
        return False
    if not _conjugate_pairing_ok(u, v, tol):
        return False
    companion = (1j * w1.winding_part(m)) + (-1j * w1.winding_part(-m))
    target_mat = _vectorize([w1, companion], pair_keys)
    if not _independent_rank2(target_mat):
        return False
    # The basis projections must lie inside span{w1, companion}.
    return all(
        _span_residual(target_mat, proj_mat[i]) <= tol * max(1.0, np.linalg.norm(proj_mat[i]))
        for i in range(proj_mat.shape[0])
    )


def _independent_rank2(matrix: np.ndarray) -> bool:
    s = np.linalg.svd(matrix, compute_uv=False)
    return s.size >= 2 and s[0] > 0 and s[1] / s[0] > 1e-9


def classify(
    space: ModelSpace,
    tol: float = ISOTROPY_TOL,
    n_samples: int = 50,
    seed: int = SAMPLE_SEED,
) -> ClassReport:
    """Aggregate isotropy, rotation invariance and the mirror-symmetry flag.

    rsf combines two certificates: every basis function plus ``n_samples``
    seeded random combinations must pass the definitional symmetry check, and
    the space must match the structural normal form.  The details string
    records both, since sampling alone cannot certify every member and the
    structural test alone presumes the normal form is exhaustive.
    """
    iso = is_isotropic(space, tol)
    rot = all(is_rotation_invariant(f, DEFAULT_TOL) for f in space.basis)
    structural = structural_rsf(space, tol)

    rng = np.random.default_rng(seed)
    sampled = list(space.basis) + [
        space.member(rng.standard_normal(space.dimension)) for _ in range(n_samples)
    ]
    worst = 0.0
    sampled_ok = True
    for f in sampled:
        report = reflection_symmetry(f, DEFAULT_TOL)
        worst = max(worst, report.residual)
        if not report.symmetric:
            sampled_ok = False
    details = (
        f"structural_normal_form={structural}; "
        f"sampled={len(sampled)} symmetric={sampled_ok} max_residual={worst:.3e}"
    )
    return ClassReport(space.dimension, iso, rot, sampled_ok and structural, details)


def radial_tangential_at(func: DistortionFunction, p) -> tuple[float, float]:
    """Pointwise radial/tangential split: displacement = (x,y) g_r + (-y,x) g_t."""
    x, y = float(p[0]), float(p[1])
    r2 = x * x + y * y
    if r2 == 0.0:
        raise ValueError("the radial/tangential split is undefined at the origin")
    dx, dy = func.displacement(x, y)
    g_r = (x * dx + y * dy) / r2
    g_t = (x * dy - y * dx) / r2
    return g_r, g_t


def in_radial_tangential_span(func: DistortionFunction, tol: float = DEFAULT_TOL) -> bool:
    """True when the function lies in the span of radial and tangential fields.

    Those are exactly the multiples of z, so the test is that every monomial
    with k = 0 (the pure zbar^n terms) has magnitude below tol.
    """
    return all(abs(c) <= tol for (k, l), c in func.poly.terms.items() if k == 0)


def sphere_point(mu: complex, nu: complex) -> tuple[float, float, float]:
    """Unit-sphere embedding of the ratio (mu : nu).

    After normalizing |mu|^2 + |nu|^2 = 1 the point is
    (Re 2 mu conj(nu), Im 2 mu conj(nu), |mu|^2 - |nu|^2).
    """
    mu = complex(mu)
    nu = complex(nu)
    norm2 = abs(mu) ** 2 + abs(nu) ** 2
    if norm2 == 0.0:
        raise ValueError("(mu, nu) must not both be zero")
    scale = 1.0 / math.sqrt(norm2)
    mu *= scale
    nu *= scale
    w = 2.0 * mu * np.conj(nu)
    return float(w.real), float(w.imag), float(abs(mu) ** 2 - abs(nu) ** 2)
