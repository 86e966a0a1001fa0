"""Constructors for the named distortion model families.

Each constructor returns a concrete displacement: one ``ComplexPoly``, whose
real block form ``real_form`` is derived on access.
Linear models are represented as a ``ModelSpace``: an ordered, linearly
independent list of basis displacement functions whose real span is the
model.

The quadratic catalog in complex coefficients, and its identities:

* decentering(s1, s2) is conj(s) z^2 + 2 s z zbar with s = s1 + i s2 (real
  block [[3 s1, 2 s2, s1], [s2, 2 s1, 3 s2]]) and equals
  mixed_quadratic(3, 1, s1, -s2).
* thin_prism(u1, u2) is u z zbar with u = u1 + i u2, a displacement always
  parallel to (u1, u2), and equals mixed_quadratic(1, 1, u1, -u2).
* mixed_quadratic(p, q, t1, t2) is (p - q)/2 t z^2 + (p + q)/2 conj(t) z zbar
  with t = t1 + i t2: p times the radial quadratic z Re(t z) plus q times the
  tangential one -i z Im(t z).
* conjugate_quadratic(t1, t2) is (t1 + i t2) zbar^2.

``symmetric_quadratic`` / ``symmetric_cubic`` build the mirror-symmetric
functions for an explicit axis angle; the union over all axes is not a linear
space, so they return functions, not spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ._io import check_header, load_json, save_json
from .poly import (
    MAX_DEGREE,
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

# A basis is independent when the smallest over the largest singular value of
# its power-of-two-scaled rows (``ModelSpace.unit``) exceeds this.
INDEPENDENCE_RTOL = 1e-9

SPACE_FORMAT = "lensdist-space"
SPACE_VERSION = 1


# The former name of a displacement, kept for the acceptance tests and the
# perfbench workloads, which still spell it.
DistortionFunction = ComplexPoly


# --------------------------------------------------------------------------
# Concrete families
# --------------------------------------------------------------------------


def rri(alphas: Sequence[float]) -> ComplexPoly:
    """Radial rotationally invariant model (x, y) * sum_j alpha_j r^(2j).

    Coefficient j (1-based) multiplies the invariant monomial z^(j+1) zbar^j.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("rri needs at least one coefficient")
    return ComplexPoly({(j + 1, j): a for j, a in enumerate(alphas, start=1)})


def radial_homogeneous(degree: int, weights: Sequence[float]) -> ComplexPoly:
    """Degree-n radial displacement (x, y) * (w . monomials of degree n-1)."""
    w = np.asarray(weights, dtype=float)
    if degree < 2:
        raise ValueError(f"homogeneous degree must be >= 2, got {degree}")
    if w.shape != (degree,):
        raise ValueError(f"need {degree} weights for degree {degree}, got {w.shape}")
    block = np.zeros((2, degree + 1))
    block[0, :degree] = w
    block[1, 1:] = w
    return RealPolyModel({degree: block}).to_complex()


def tangential_homogeneous(degree: int, weights: Sequence[float]) -> ComplexPoly:
    """Degree-n tangential displacement (-y, x) * (w . monomials of degree n-1):
    i times the radial one."""
    return 1j * radial_homogeneous(degree, weights)


def decentering(s1: float, s2: float) -> ComplexPoly:
    """Classical decentering distortion for misaligned lens-surface axes.

    dx = s1 (3x^2 + y^2) + 2 s2 x y, dy = 2 s1 x y + s2 (x^2 + 3y^2), that is
    conj(s) z^2 + 2 s z zbar with s = s1 + i s2.
    """
    s = complex(float(s1), float(s2))
    return ComplexPoly({(2, 0): s.conjugate(), (1, 1): 2 * s})


def thin_prism(u1: float, u2: float) -> ComplexPoly:
    """Thin prism distortion: displacement (u1, u2) * (x^2 + y^2), that is u z zbar
    with u = u1 + i u2."""
    return ComplexPoly({(1, 1): complex(float(u1), float(u2))})


def mixed_quadratic(p: float, q: float, t1: float, t2: float) -> ComplexPoly:
    """Axis-sharing blend of radial (weight p) and tangential (weight q) quadratics:
    (p - q)/2 t z^2 + (p + q)/2 conj(t) z zbar with t = t1 + i t2."""
    p, q, t = float(p), float(q), complex(float(t1), float(t2))
    if p == 0.0 and q == 0.0:
        raise ValueError("(p, q) must not both be zero")
    return ComplexPoly({(2, 0): (p - q) / 2 * t, (1, 1): (p + q) / 2 * t.conjugate()})


def conjugate_quadratic(t1: float, t2: float) -> ComplexPoly:
    """The conjugate-square displacement (t1 + i t2) zbar^2."""
    t1, t2 = float(t1), float(t2)
    return ComplexPoly({(0, 2): complex(t1, t2)})


def symmetric_quadratic(axis: float, a: float, b: float, c: float) -> ComplexPoly:
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
    return base.rotated(-float(axis))


def symmetric_cubic(axis: float, d: float, e: float, f: float, g: float) -> ComplexPoly:
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
    return base.rotated(-float(axis))


def opencv_thin_prism(s1: float, s2: float, s3: float, s4: float) -> ComplexPoly:
    """OpenCV's quartic thin-prism term: dx = s1 r^2 + s2 r^4, dy = s3 r^2 + s4 r^4."""
    return ComplexPoly(
        {
            (1, 1): complex(float(s1), float(s3)),
            (2, 2): complex(float(s2), float(s4)),
        }
    )


# --------------------------------------------------------------------------
# Linear model spaces
# --------------------------------------------------------------------------


def coefficient_keys(funcs: Iterable[ComplexPoly]) -> tuple[MonomialKey, ...]:
    """Sorted union of the monomials appearing in the given functions."""
    keys: set[MonomialKey] = set()
    for f in funcs:
        keys.update(f.terms)
    return tuple(sorted(keys, key=lambda kl: (kl[0] + kl[1], -kl[0])))


def coefficient_matrix(
    funcs: Sequence[ComplexPoly],
    keys: Sequence[MonomialKey] | None = None,
) -> np.ndarray:
    """Stack real coefficient vectors (Re, Im per monomial), one row per function."""
    if keys is None:
        keys = coefficient_keys(funcs)
    if not keys:
        return np.zeros((len(funcs), 1))
    rows = [[f.terms.get(key, 0j) for key in keys] for f in funcs]
    return np.array(rows, dtype=complex).reshape(len(funcs), len(keys)).view(float)


def _unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the complex ``matrix`` scaled exactly by a power of two to a
    largest modulus in [1, 2) (zero rows stay zero), and the powers undoing it.

    The moduli are np.hypot's, the libm hypot of Python's abs: numpy's complex
    abs can round a modulus of 1 down to 1 - 2^-53, which doubles the row."""
    _, exponents = np.frexp(np.hypot(matrix.real, matrix.imag).max(axis=1, initial=0.0))
    unit = np.ldexp(matrix.view(float), 1 - exponents[:, None]).view(complex)
    return unit, np.ldexp(1.0, exponents - 1)


def _row_span(rows: np.ndarray) -> np.ndarray | None:
    """Orthonormal real rows spanning the complex ``rows`` read as real ones (their
    right singular vectors), or None when ``rows`` are linearly dependent."""
    _, s, vt = np.linalg.svd(rows.view(float), full_matrices=False)
    if s.size < len(rows) or s[-1] / s[0] <= INDEPENDENCE_RTOL:
        return None
    return vt


@dataclass(frozen=True)
class ModelSpace:
    """Real span of an ordered, linearly independent basis of displacements.

    ``keys`` is the sorted union of the basis monomials (``coefficient_keys``)
    and ``matrix`` the complex (dimension, len(keys)) coefficient array over
    them, one row per basis function, and ``windings`` the winding number
    k - l - 1 of each key.  ``unit`` is ``matrix`` scaled by ``_unit_rows``, so
    nothing read from it depends on basis scale, and ``span`` holds the
    orthonormal right singular vectors of its real rows.  All are built
    once; the arrays are read-only.
    """

    basis: tuple[ComplexPoly, ...]
    label: str
    keys: tuple[MonomialKey, ...] = field(init=False, repr=False, compare=False)
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    windings: np.ndarray = field(init=False, repr=False, compare=False)
    unit: np.ndarray = field(init=False, repr=False, compare=False)
    span: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise ValueError("a model space needs at least one basis function")
        if any(f.is_zero() for f in basis):
            raise ValueError("the zero function cannot be a basis element")
        keys = coefficient_keys(basis)
        matrix = coefficient_matrix(basis, keys).view(complex)
        windings = np.array([k - l - 1 for k, l in keys])
        unit, _ = _unit_rows(matrix)
        span = _row_span(unit)
        if span is None:
            raise ValueError(f"basis of {self.label!r} is linearly dependent")
        for array in (matrix, windings, unit, span):
            array.flags.writeable = False
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "windings", windings)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "span", span)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def member(self, coeffs: Sequence[float]) -> ComplexPoly:
        """Real linear combination sum c_i basis_i."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.basis),):
            raise ValueError(
                f"expected {len(self.basis)} coefficients, got shape {coeffs.shape}"
            )
        # The products and sums of the chain sum(f * c), in the same
        # order, so the result matches it bit for bit.
        total: dict[MonomialKey, complex] = {}
        for c, f in zip(coeffs, self.basis):
            scale = complex(float(c))
            for key, gamma in f.terms.items():
                total[key] = total.get(key, 0j) + gamma * scale
        return ComplexPoly(total)


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


def irreducible_space(spec: IrreducibleSpec) -> ModelSpace:
    """The 2-dim real space {gamma f + conj(gamma) g}, basis at gamma = 1 and i."""
    f, g = spec.plus, spec.minus
    b1 = f + g
    b2 = (1j * f) + (-1j * g)
    return ModelSpace((b1, b2), f"irreducible(m={spec.m})")


def space_sum(a: ModelSpace, b: ModelSpace, label: str | None = None) -> ModelSpace:
    """Span of the union, reduced to a maximal independent subset.

    The basis of ``a`` survives unchanged; each function of ``b`` is kept, in
    order, when its ``unit`` row is independent of the rows kept before it.
    """
    candidates = a.basis + b.basis
    keys = coefficient_keys(candidates)
    column = {key: j for j, key in enumerate(keys)}
    stacked = np.zeros((len(candidates), len(keys)), dtype=complex)
    stacked[: a.dimension, [column[key] for key in a.keys]] = a.unit
    stacked[a.dimension :, [column[key] for key in b.keys]] = b.unit
    kept = list(range(a.dimension))
    for i in range(a.dimension, len(candidates)):
        if _row_span(stacked[kept + [i]]) is not None:
            kept.append(i)
    basis = tuple(candidates[i] for i in kept)
    return ModelSpace(basis, label if label is not None else f"{a.label}+{b.label}")


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
    basis: list[ComplexPoly] = []
    for n in degrees:
        for k in range(n, -1, -1):
            basis.append(ComplexPoly({(k, n - k): 1.0}))
            basis.append(ComplexPoly({(k, n - k): 1j}))
    name = label if label is not None else "full_" + "_".join(map(str, degrees))
    return ModelSpace(tuple(basis), name)


_CATALOG = {
    "rri3": lambda: rri_space(3),
    "decentering": lambda: ModelSpace((decentering(1, 0), decentering(0, 1)), "decentering"),
    "thin_prism": lambda: ModelSpace((thin_prism(1, 0), thin_prism(0, 1)), "thin_prism"),
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
    # The sums reuse the memoized parts, so they share their basis functions.
    "weng": lambda: space_sum(named_space("decentering"), named_space("thin_prism"), label="weng"),
    "matlab": lambda: space_sum(named_space("decentering"), named_space("rri3"), label="matlab"),
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

_FULL_DEGREES = {"full_quad": [2], "full_cubic": [3], "full_quad_cubic": [2, 3]}
# rriN for each N whose top monomial z^(N+1) zbar^N has degree 2N + 1 <= MAX_DEGREE.
_RRI_NAMES = {f"rri{n}": n for n in range(1, (MAX_DEGREE + 1) // 2)}


@lru_cache(maxsize=64)
def named_space(name: str) -> ModelSpace:
    """The model space of one name (memoized, immutable): a CATALOG_NAMES
    entry, rri1..rri7, or full_quad, full_cubic and full_quad_cubic."""
    if name in _CATALOG:
        return _CATALOG[name]()
    if name in _FULL_DEGREES:
        return full_poly_space(_FULL_DEGREES[name], label=name)
    if name in _RRI_NAMES:
        return rri_space(_RRI_NAMES[name])
    known = ", ".join(CATALOG_NAMES + (f"rri1..rri{len(_RRI_NAMES)}",) + tuple(_FULL_DEGREES))
    raise ValueError(f"unknown model space {name!r}; known names: {known}")


# --------------------------------------------------------------------------
# Space file schema
# --------------------------------------------------------------------------


def space_to_json(space: ModelSpace) -> dict:
    return {
        "format": SPACE_FORMAT,
        "version": SPACE_VERSION,
        "label": space.label,
        "basis": [model_to_json(f, form="complex") for f in space.basis],
    }


def space_from_json(data) -> ModelSpace:
    check_header(data, "space", SPACE_FORMAT, SPACE_VERSION)
    basis_data = data.get("basis")
    if not isinstance(basis_data, list) or not basis_data:
        raise ValueError("'basis' must be a nonempty list of models")
    basis = tuple(model_from_json(entry) for entry in basis_data)
    label = data.get("label")
    if not isinstance(label, str):
        raise ValueError("'label' must be a string")
    return ModelSpace(basis, label)


def load_space(path) -> ModelSpace:
    return space_from_json(load_json(path))


def save_space(path, space: ModelSpace) -> None:
    save_json(path, space_to_json(space))
