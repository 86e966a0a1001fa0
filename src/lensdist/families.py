"""Constructors for the named distortion model families.

Each constructor returns a concrete ``DistortionFunction``: a displacement
stored as one ``ComplexPoly``, with the real block form derived on access.
Linear models are represented as a ``ModelSpace``: an ordered, linearly
independent list of basis displacement functions whose real span is the
model.

The quadratic catalog and its identities:

* decentering(s1, s2) has real block [[3 s1, 2 s2, s1], [s2, 2 s1, 3 s2]] and
  equals mixed_quadratic(3, 1, s1, -s2).
* thin_prism(u1, u2) has block [[u1, 0, u1], [u2, 0, u2]], displacement always
  parallel to (u1, u2), and equals mixed_quadratic(1, 1, u1, -u2).
* mixed_quadratic(p, q, t1, t2) blends an axis-aligned radial and tangential
  quadratic: p [[t1, -t2, 0], [0, t1, -t2]] + q [[0, t2, t1], [-t2, -t1, 0]].
* conjugate_quadratic(t1, t2) is (t1 + i t2) zbar^2.

``symmetric_quadratic`` / ``symmetric_cubic`` build the mirror-symmetric
functions for an explicit axis angle; the union over all axes is not a linear
space, so they return functions, not spaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .poly import (
    ComplexPoly,
    MonomialKey,
    RealPolyModel,
    model_from_json,
    model_to_json,
)

__all__ = [
    "DistortionFunction",
    "ModelSpace",
    "IrreducibleSpec",
    "rri",
    "radial_homogeneous",
    "tangential_homogeneous",
    "decentering",
    "thin_prism",
    "mixed_quadratic",
    "conjugate_quadratic",
    "symmetric_quadratic",
    "symmetric_cubic",
    "opencv_thin_prism",
    "irreducible_space",
    "space_sum",
    "named_space",
    "rri_space",
    "full_poly_space",
    "CATALOG_NAMES",
    "coefficient_keys",
    "coefficient_matrix",
    "space_to_json",
    "space_from_json",
    "load_space",
    "save_space",
]

# Relative singular-value threshold for "linearly independent".
INDEPENDENCE_RTOL = 1e-9

SPACE_FORMAT = "lensdist-space"
SPACE_VERSION = 1


@dataclass(frozen=True)
class DistortionFunction:
    """A concrete displacement, stored as its complex coefficients only.

    ``real_form`` is the equivalent per-degree real block form, derived from
    ``poly`` on first access and cached.
    """

    poly: ComplexPoly

    @cached_property
    def real_form(self) -> RealPolyModel:
        return self.poly.to_real()

    @classmethod
    def from_poly(cls, poly: ComplexPoly) -> "DistortionFunction":
        return cls(poly)

    @classmethod
    def from_real(cls, model: RealPolyModel) -> "DistortionFunction":
        return cls(model.to_complex())

    @classmethod
    def zero(cls) -> "DistortionFunction":
        return cls.from_poly(ComplexPoly.zero())

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    @property
    def degree(self) -> int:
        return self.poly.degree

    def displacement(self, x, y):
        """Displacement (dx, dy) at (x, y); accepts scalars or arrays."""
        w = self.poly.evaluate(np.asarray(x, float) + 1j * np.asarray(y, float))
        return w.real, w.imag

    def rotated(self, theta: float) -> "DistortionFunction":
        return DistortionFunction.from_poly(self.poly.rotated(theta))

    def __add__(self, other: "DistortionFunction") -> "DistortionFunction":
        if not isinstance(other, DistortionFunction):
            return NotImplemented
        return DistortionFunction.from_poly(self.poly + other.poly)

    def __sub__(self, other: "DistortionFunction") -> "DistortionFunction":
        if not isinstance(other, DistortionFunction):
            return NotImplemented
        return DistortionFunction.from_poly(self.poly - other.poly)

    def __neg__(self) -> "DistortionFunction":
        return DistortionFunction.from_poly(-self.poly)

    def __mul__(self, scalar) -> "DistortionFunction":
        return DistortionFunction.from_poly(self.poly * scalar)

    __rmul__ = __mul__

    def isclose(self, other: "DistortionFunction", tol: float = 1e-10) -> bool:
        return self.poly.isclose(other.poly, tol)


# --------------------------------------------------------------------------
# Concrete families
# --------------------------------------------------------------------------


def rri(alphas: Sequence[float]) -> DistortionFunction:
    """Radial rotationally invariant model (x, y) * sum_j alpha_j r^(2j).

    Coefficient j (1-based) multiplies the invariant monomial z^(j+1) zbar^j.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("rri needs at least one coefficient")
    return DistortionFunction.from_poly(
        ComplexPoly({(j + 1, j): a for j, a in enumerate(alphas, start=1)})
    )


def radial_homogeneous(degree: int, weights: Sequence[float]) -> DistortionFunction:
    """Degree-n radial displacement (x, y) * (w . monomials of degree n-1)."""
    w = np.asarray(weights, dtype=float)
    if degree < 2:
        raise ValueError(f"homogeneous degree must be >= 2, got {degree}")
    if w.shape != (degree,):
        raise ValueError(f"need {degree} weights for degree {degree}, got {w.shape}")
    block = np.zeros((2, degree + 1))
    block[0, :degree] = w
    block[1, 1:] = w
    return DistortionFunction.from_real(RealPolyModel({degree: block}))


def tangential_homogeneous(degree: int, weights: Sequence[float]) -> DistortionFunction:
    """Degree-n tangential displacement (-y, x) * (w . monomials of degree n-1)."""
    w = np.asarray(weights, dtype=float)
    if degree < 2:
        raise ValueError(f"homogeneous degree must be >= 2, got {degree}")
    if w.shape != (degree,):
        raise ValueError(f"need {degree} weights for degree {degree}, got {w.shape}")
    block = np.zeros((2, degree + 1))
    block[0, 1:] = -w
    block[1, :degree] = w
    return DistortionFunction.from_real(RealPolyModel({degree: block}))


def decentering(s1: float, s2: float) -> DistortionFunction:
    """Classical decentering distortion for misaligned lens-surface axes.

    dx = s1 (3x^2 + y^2) + 2 s2 x y, dy = 2 s1 x y + s2 (x^2 + 3y^2).
    """
    s1, s2 = float(s1), float(s2)
    block = np.array([[3 * s1, 2 * s2, s1], [s2, 2 * s1, 3 * s2]])
    return DistortionFunction.from_real(RealPolyModel({2: block}))


def thin_prism(u1: float, u2: float) -> DistortionFunction:
    """Thin prism distortion: displacement (u1, u2) * (x^2 + y^2)."""
    u1, u2 = float(u1), float(u2)
    block = np.array([[u1, 0.0, u1], [u2, 0.0, u2]])
    return DistortionFunction.from_real(RealPolyModel({2: block}))


def mixed_quadratic(p: float, q: float, t1: float, t2: float) -> DistortionFunction:
    """Axis-sharing blend of radial (weight p) and tangential (weight q) quadratics."""
    p, q, t1, t2 = float(p), float(q), float(t1), float(t2)
    if p == 0.0 and q == 0.0:
        raise ValueError("(p, q) must not both be zero")
    # Entrywise-factored form of p [[t1,-t2,0],[0,t1,-t2]] + q [[0,t2,t1],[-t2,-t1,0]],
    # so each entry rounds once and the decentering / thin prism identities
    # (p:q) = (3:1) and (1:1) hold bit for bit.
    block = np.array(
        [
            [p * t1, (q - p) * t2, q * t1],
            [-q * t2, (p - q) * t1, -p * t2],
        ]
    )
    return DistortionFunction.from_real(RealPolyModel({2: block}))


def conjugate_quadratic(t1: float, t2: float) -> DistortionFunction:
    """The conjugate-square displacement (t1 + i t2) zbar^2."""
    t1, t2 = float(t1), float(t2)
    return DistortionFunction.from_poly(ComplexPoly({(0, 2): complex(t1, t2)}))


def symmetric_quadratic(axis: float, a: float, b: float, c: float) -> DistortionFunction:
    """Quadratic displacement reflection-symmetric about the given axis angle.

    At axis 0 the three amplitude terms are a [[1,0,0],[0,1,0]] (radial),
    b [[0,0,1],[0,-1,0]] (tangential) and c [[1,0,-1],[0,-2,0]] (conjugate
    square); a general axis rotates that base function rigidly.
    """
    base = ComplexPoly(
        {
            (2, 0): (float(a) - float(b)) / 2.0,
            (1, 1): (float(a) + float(b)) / 2.0,
            (0, 2): float(c),
        }
    )
    return DistortionFunction.from_poly(base.rotated(-float(axis)))


def symmetric_cubic(axis: float, d: float, e: float, f: float, g: float) -> DistortionFunction:
    """Cubic displacement reflection-symmetric about the given axis angle.

    The d term is the invariant radial cubic rri([d]); e is radial, f is
    tangential, g is the conjugate cube, all rotated rigidly to the axis.
    """
    base = ComplexPoly(
        {
            (2, 1): float(d),
            (3, 0): (float(e) - float(f)) / 2.0,
            (1, 2): (float(e) + float(f)) / 2.0,
            (0, 3): float(g),
        }
    )
    return DistortionFunction.from_poly(base.rotated(-float(axis)))


def opencv_thin_prism(s1: float, s2: float, s3: float, s4: float) -> DistortionFunction:
    """OpenCV's quartic thin-prism term: dx = s1 r^2 + s2 r^4, dy = s3 r^2 + s4 r^4."""
    return DistortionFunction.from_poly(
        ComplexPoly(
            {
                (1, 1): complex(float(s1), float(s3)),
                (2, 2): complex(float(s2), float(s4)),
            }
        )
    )


# --------------------------------------------------------------------------
# Linear model spaces
# --------------------------------------------------------------------------


def coefficient_keys(funcs: Iterable[DistortionFunction]) -> tuple[MonomialKey, ...]:
    """Sorted union of the monomials appearing in the given functions."""
    keys: set[MonomialKey] = set()
    for f in funcs:
        keys.update(f.poly.terms)
    return tuple(sorted(keys, key=lambda kl: (kl[0] + kl[1], -kl[0])))


def coefficient_matrix(
    funcs: Sequence[DistortionFunction],
    keys: Sequence[MonomialKey] | None = None,
) -> np.ndarray:
    """Stack real coefficient vectors (Re, Im per monomial), one row per function."""
    if keys is None:
        keys = coefficient_keys(funcs)
    rows = np.zeros((len(funcs), max(2 * len(keys), 1)))
    for i, f in enumerate(funcs):
        for j, key in enumerate(keys):
            c = f.poly.terms.get(key, 0j)
            rows[i, 2 * j] = c.real
            rows[i, 2 * j + 1] = c.imag
    return rows


def _independent(matrix: np.ndarray) -> bool:
    rows = matrix.shape[0]
    if rows == 0:
        return True
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size < rows or s[0] == 0.0:
        return False
    return s[rows - 1] / s[0] > INDEPENDENCE_RTOL


@dataclass(frozen=True)
class ModelSpace:
    """Real span of an ordered, linearly independent basis of displacements."""

    basis: tuple[DistortionFunction, ...]
    label: str

    def __post_init__(self):
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise ValueError("a model space needs at least one basis function")
        if any(f.is_zero() for f in basis):
            raise ValueError("the zero function cannot be a basis element")
        if not _independent(coefficient_matrix(basis)):
            raise ValueError(f"basis of {self.label!r} is linearly dependent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def member(self, coeffs: Sequence[float]) -> DistortionFunction:
        """Real linear combination sum c_i basis_i."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.basis),):
            raise ValueError(
                f"expected {len(self.basis)} coefficients, got shape {coeffs.shape}"
            )
        # The products and sums of the chain sum(f.poly * c), in the same
        # order, so the result matches it bit for bit.
        total: dict[MonomialKey, complex] = {}
        for c, f in zip(coeffs, self.basis):
            scale = complex(float(c))
            for key, gamma in f.poly.terms.items():
                total[key] = total.get(key, 0j) + gamma * scale
        return DistortionFunction.from_poly(ComplexPoly(total))

    def relabeled(self, label: str) -> "ModelSpace":
        return ModelSpace(self.basis, label)


@dataclass(frozen=True)
class IrreducibleSpec:
    """Data for one 2-dimensional rotation-invariant subspace.

    ``plus`` collects the winding +m content and ``minus`` the winding -m
    content; the space is {gamma * plus + conj(gamma) * minus}.
    """

    m: int
    plus: ComplexPoly
    minus: ComplexPoly

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("winding number m must be nonzero")
        if self.plus.windings() - {self.m}:
            raise ValueError(f"plus part must have winding {self.m} only")
        if self.minus.windings() - {-self.m}:
            raise ValueError(f"minus part must have winding {-self.m} only")
        if self.plus.is_zero() and self.minus.is_zero():
            raise ValueError("plus and minus parts cannot both be zero")


def irreducible_space(spec: IrreducibleSpec, label: str | None = None) -> ModelSpace:
    """The 2-dim real space {gamma f + conj(gamma) g}, basis at gamma = 1 and i."""
    f, g = spec.plus, spec.minus
    b1 = f + g
    b2 = (1j * f) + (-1j * g)
    if label is None:
        label = f"irreducible(m={spec.m})"
    return ModelSpace(
        (DistortionFunction.from_poly(b1), DistortionFunction.from_poly(b2)), label
    )


def space_sum(a: ModelSpace, b: ModelSpace, label: str | None = None) -> ModelSpace:
    """Span of the union, reduced to a maximal independent subset.

    Earlier basis vectors win ties, so the result is deterministic and the
    basis of ``a`` survives unchanged.
    """
    keys = coefficient_keys(list(a.basis) + list(b.basis))
    kept: list[DistortionFunction] = []
    for f in list(a.basis) + list(b.basis):
        if f.is_zero():
            continue
        if _independent(coefficient_matrix(kept + [f], keys)):
            kept.append(f)
    return ModelSpace(tuple(kept), label if label is not None else f"{a.label}+{b.label}")


def rri_space(n: int) -> ModelSpace:
    """n-dimensional space of radial rotationally invariant models (degrees 3, 5, ...)."""
    if n < 1:
        raise ValueError("rri space needs n >= 1")
    basis = []
    for j in range(1, n + 1):
        coeffs = [0.0] * n
        coeffs[j - 1] = 1.0
        basis.append(rri(coeffs))
    return ModelSpace(tuple(basis), f"rri{n}")


def full_poly_space(degrees: Iterable[int], label: str | None = None) -> ModelSpace:
    """All displacements with monomials of the given total degrees (real span)."""
    degrees = sorted(set(int(n) for n in degrees))
    if not degrees:
        raise ValueError("need at least one degree")
    basis: list[DistortionFunction] = []
    for n in degrees:
        for k in range(n, -1, -1):
            basis.append(DistortionFunction.from_poly(ComplexPoly({(k, n - k): 1.0})))
            basis.append(DistortionFunction.from_poly(ComplexPoly({(k, n - k): 1j})))
    name = label if label is not None else "full_" + "_".join(map(str, degrees))
    return ModelSpace(tuple(basis), name)


def _decentering_space() -> ModelSpace:
    return ModelSpace((decentering(1, 0), decentering(0, 1)), "decentering")


def _thin_prism_space() -> ModelSpace:
    return ModelSpace((thin_prism(1, 0), thin_prism(0, 1)), "thin_prism")


_CATALOG = {
    "rri3": lambda: rri_space(3),
    "decentering": _decentering_space,
    "thin_prism": _thin_prism_space,
    "radial_quad": lambda: ModelSpace(
        (radial_homogeneous(2, (1, 0)), radial_homogeneous(2, (0, 1))), "radial_quad"
    ),
    "tangential_quad": lambda: ModelSpace(
        (tangential_homogeneous(2, (1, 0)), tangential_homogeneous(2, (0, 1))),
        "tangential_quad",
    ),
    "conj_quad": lambda: ModelSpace(
        (conjugate_quadratic(1, 0), conjugate_quadratic(0, 1)), "conj_quad"
    ),
    "weng": lambda: space_sum(_decentering_space(), _thin_prism_space(), label="weng"),
    "matlab": lambda: space_sum(_decentering_space(), rri_space(3), label="matlab"),
    "opencv_prism4": lambda: ModelSpace(
        (
            opencv_thin_prism(1, 0, 0, 0),
            opencv_thin_prism(0, 0, 1, 0),
            opencv_thin_prism(0, 1, 0, 0),
            opencv_thin_prism(0, 0, 0, 1),
        ),
        "opencv_prism4",
    ),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def named_space(name: str) -> ModelSpace:
    """Catalog lookup for the named model spaces (see CATALOG_NAMES)."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown model space {name!r}; known names: {', '.join(CATALOG_NAMES)}"
        ) from None
    return builder()


# --------------------------------------------------------------------------
# Space file schema
# --------------------------------------------------------------------------


def space_to_json(space: ModelSpace) -> dict:
    return {
        "format": SPACE_FORMAT,
        "version": SPACE_VERSION,
        "label": space.label,
        "basis": [model_to_json(f.poly, form="complex") for f in space.basis],
    }


def space_from_json(data) -> ModelSpace:
    if not isinstance(data, dict):
        raise ValueError("space JSON must be an object")
    if data.get("format") != SPACE_FORMAT:
        raise ValueError(f"expected format {SPACE_FORMAT!r}, got {data.get('format')!r}")
    if data.get("version") != SPACE_VERSION:
        raise ValueError(f"unsupported space version {data.get('version')!r}")
    basis_data = data.get("basis")
    if not isinstance(basis_data, list) or not basis_data:
        raise ValueError("'basis' must be a nonempty list of models")
    basis = tuple(
        DistortionFunction.from_poly(model_from_json(entry)) for entry in basis_data
    )
    label = data.get("label")
    if not isinstance(label, str):
        raise ValueError("'label' must be a string")
    return ModelSpace(basis, label)


def load_space(path) -> ModelSpace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON ({err})") from err
    return space_from_json(data)


def save_space(path, space: ModelSpace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_json(space), fh, indent=2)
        fh.write("\n")
