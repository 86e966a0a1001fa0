"""Sparse polynomial displacement fields and their two coefficient forms.

A lens distortion map is F(p) = p + G(p), where the displacement G vanishes
at the origin together with its Jacobian, so G carries no constant or linear
terms.  The package has one coefficient representation and a real view of it:

``ComplexPoly``
    G written as one complex polynomial f(z, zbar) = sum gamma_kl z^k zbar^l
    over exponent pairs with k + l >= 2.  The displacement at (x, y) is
    f(x + iy), read as dx + i dy.  This form makes rotation behaviour
    trivial: a coordinate rotation by theta multiplies gamma_kl by
    exp(i * theta * (k - l - 1)).  The exponent k - l - 1 is the monomial's
    winding number; monomials with winding 0 (z^(k+1) zbar^k) are fixed by
    every rotation.  Every layer takes it; model files are written from it.

``RealPolyModel``
    The same field as one real 2 x (n+1) coefficient block per homogeneous
    degree n, acting on the monomial vector (x^n, x^(n-1) y, ..., y^n); row
    0 produces dx, row 1 produces dy.  It offers only its ``blocks``,
    ``evaluate`` and ``to_complex``; its algebra is that of ``ComplexPoly``.

Conversions between the forms expand binomials with dyadic-rational weights,
so round trips are exact up to the final rounding of coefficient sums.
Coordinates are normalized image coordinates with the distortion center at
the origin; the intended working domain is the unit disc.  Total degree is
capped at ``MAX_DEGREE``.

Zero coefficients are never stored (pruning happens at exactly zero, never at
a tolerance), so the set of monomials present in a ``ComplexPoly`` is
meaningful structure.  Use ``isclose`` for tolerance-based comparison.  All
types are immutable after construction, safe to share between threads, and
pickle by their terms or blocks alone.  A ``ComplexPoly`` evaluates a Python
complex in straight-line code generated per monomial pattern (see
``evaluate``), and ``warp.invert`` runs a Newton routine generated the same
way.  Each is compiled once per pattern into one cache of bounded size, and a
model binds its coefficients to it on first use.
"""

from __future__ import annotations

import math
import operator
from cmath import exp as cexp
from cmath import isfinite as cisfinite
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from ._io import check_header, load_json, save_json

__all__ = [
    "MAX_DEGREE",
    "DEFAULT_TOL",
    "MODEL_FORMAT",
    "MonomialKey",
    "winding_number",
    "winding_table",
    "ComplexPoly",
    "RealPolyModel",
    "monomial_vector",
    "monomial_rotation",
    "model_to_json",
    "model_from_json",
    "load_model",
    "save_model",
]

MAX_DEGREE = 16
DEFAULT_TOL = 1e-10

MODEL_FORMAT = "lensdist-model"
MODEL_VERSION = 1

MonomialKey = tuple[int, int]

# i**j and (-i)**j without complex pow rounding.
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)
_NEG_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)

# Points per block of an array sum: a degree-16 power table stays near 1 MB,
# and as much again for its conjugates.
# numpy rounds an in-place complex product of one element without the fused
# multiply-add of every other product, so no product here is in place and a
# point rounds alike in every batch, at any block size.
_EVAL_BLOCK = 4096

# z**0 as CPython returns it for a complex z.
_ONE = 1 + 0j


def _check_key(key) -> MonomialKey:
    try:
        k, l = key
        k = operator.index(k)
        l = operator.index(l)
    except (TypeError, ValueError) as err:
        raise TypeError(f"monomial key must be a pair of integers, got {key!r}") from err
    if k < 0 or l < 0:
        raise ValueError(f"monomial exponents must be nonnegative, got ({k}, {l})")
    if k + l < 2:
        raise ValueError(
            f"displacement monomials need total degree >= 2, got z^{k} zbar^{l}"
        )
    if k + l > MAX_DEGREE:
        raise ValueError(f"total degree {k + l} exceeds the supported maximum {MAX_DEGREE}")
    return (k, l)


def _key_order(key: MonomialKey):
    k, l = key
    return (k + l, -k)


def winding_number(k: int, l: int) -> int:
    """Rotation phase exponent k - l - 1 of the monomial z^k zbar^l."""
    _check_key((k, l))
    return k - l - 1


def winding_table(degrees: Iterable[int]) -> dict[MonomialKey, int]:
    """Winding number of every monomial of the given total degrees."""
    table: dict[MonomialKey, int] = {}
    for n in degrees:
        n = operator.index(n)
        if n < 2 or n > MAX_DEGREE:
            raise ValueError(f"degree must be in [2, {MAX_DEGREE}], got {n}")
        for k in range(n, -1, -1):
            table[(k, n - k)] = k - (n - k) - 1
    return table


@lru_cache(maxsize=None)
def _monomial_xy(k: int, l: int) -> tuple[complex, ...]:
    # Column of z^k zbar^l over (x^n, x^(n-1) y, ..., y^n), n = k + l.
    # Coefficient of x^(n-j) y^j is i^j * sum_{a+b=j} C(k,a) C(l,b) (-1)^b,
    # an exact Gaussian-integer value.
    n = k + l
    col = []
    for j in range(n + 1):
        s = 0
        for a in range(max(0, j - l), min(k, j) + 1):
            s += math.comb(k, a) * math.comb(l, j - a) * (-1) ** (j - a)
        col.append(_I_POW[j % 4] * s)
    return tuple(col)


@lru_cache(maxsize=None)
def _xy_monomial(n: int, j: int) -> tuple[complex, ...]:
    # Column of x^(n-j) y^j over (z^0 zbar^n, ..., z^n zbar^0), indexed by k.
    # x = (z + zbar)/2 and y = -i (z - zbar)/2, so the coefficient of
    # z^k zbar^(n-k) is 2^-n (-i)^j sum_{a+b=k} C(n-j,a) C(j,b) (-1)^(j-b),
    # an exact dyadic rational.
    scale = 0.5**n
    phase = _NEG_I_POW[j % 4]
    col = []
    for k in range(n + 1):
        s = 0
        for a in range(max(0, k - j), min(n - j, k) + 1):
            b = k - a
            s += math.comb(n - j, a) * math.comb(j, b) * (-1) ** (j - b)
        col.append(phase * (scale * s))
    return tuple(col)


class _Plan(NamedTuple):
    # Terms (i, j, c) for c z^i zbar^j of one polynomial: of the value,
    # (k, l, gamma), of f_z, (k - 1, l, gamma k), and of f_zbar,
    # (k, l - 1, gamma l).  A model's pattern is its plan of pairs (i, j).
    value: tuple
    d_z: tuple
    d_zbar: tuple


@lru_cache(maxsize=None)
def _power_steps(top: int) -> tuple[tuple[int, bool], ...]:
    # (e - h, whether z^h is a new square) for e = 1 .. top, h the top bit of e.
    return tuple(
        (e - (1 << (e.bit_length() - 1)), e > 1 and e & (e - 1) == 0)
        for e in range(1, top + 1)
    )


def _ladder(z, steps) -> list:
    # [z^0, z^1, ..., z^len(steps)] for a complex scalar or array, one
    # product per power: z^e = z^(e - h) * z^h with h the top bit of e.
    pw, sq = [_ONE], z
    for rest, new in steps:
        if new:
            sq = sq * sq
        pw.append(pw[rest] * sq)
    return pw


def _raise_on_overflow(z: complex, pairs) -> None:
    # A Python complex product overflows to inf where z**e raises
    # OverflowError.  Take the powers the z**i * zbar**j form takes, so the
    # same inputs raise.
    zc = z.conjugate()
    for i, j in pairs:
        z**i, zc**j


# The scalar kernels of one monomial pattern, each compiled on its own so that
# a model compiles only what it runs: one line per step of the loops they
# replace.  Only names and integer exponents
# are written; the coefficients a<n> of the value, b<n> of f_z and c<n> of
# f_zbar are arguments, since the repr of a -0.0 imaginary part does not
# round-trip, and so are newton's tolerances.  ``newton`` is ``warp.invert``'s
# loop: the value code once, at the target and at each line-search trial, and
# an accepted iterate's derivatives on the powers its value left behind.  k
# counts accepted steps, from -1 before the target is taken as the first iterate.
_BIND = "def bind(one, zero, unit, isfinite, overflow, value_terms, d_terms, {coeffs}):\n"
_KERNELS = {
    "value": _BIND + """\
    def value(z):
{value}
        return v
    return value
""",
    "wirtinger": _BIND + """\
    def wirtinger(z):
{wirtinger}
        return f_z, f_zc
    return wirtinger
""",
    "newton": _BIND + """\
    def newton(t, max_iter, residual_tol, step_tol, singular_det, min_step_scale, max_step):
        q = z = t
        k = -1
        try:
            while True:
{newton_value}
                r_try = z + v - t
                rnorm_try = abs(r_try)
                if k < 0 or rnorm_try < rnorm:
                    k += 1
                    q, r, rnorm = z, r_try, rnorm_try
                    if rnorm < residual_tol:
                        return "solved", q, k, rnorm
                    if k == max_iter:
                        return "budget", q, k, rnorm
{newton_derivatives}
                    a = unit + f_z
                    det = a.real**2 + a.imag**2 - f_zc.real**2 - f_zc.imag**2
                    if abs(det) < singular_det:
                        return "singular", q, k, abs(det)
                    step = (a.conjugate() * r - f_zc * r.conjugate()) / det
                    step_norm = abs(step)
                    if step_norm < step_tol:
                        return "step", q, k, rnorm
                    if step_norm > max_step:
                        step = step * (max_step / step_norm)
                    alpha = unit
                else:
                    alpha = alpha / 2
                    if alpha < min_step_scale:
                        return "stalled", q, k, rnorm
                z = q - alpha * step
        except OverflowError as err:
            return "overflow", q, k, err
    return newton
""",
}

# Compiled kernels kept, one per pattern and routine: about 1 ms to compile a
# 30-term ``newton``, 17 kB to keep it, and 30 us to bind a model's coefficients.
_KERNEL_CACHE = 64


def _powers(pairs) -> list[str]:
    # p<e> = z**e and q<e> = zbar**e, bit for bit: CPython's complex ** int
    # starts from 1 + 0j and multiplies in z^h for each set bit h of e, low
    # bit first, squaring as it goes, and ``_ladder`` takes the same products.
    # zbar runs its own chain, since conj(z**e) can differ from zbar**e in the
    # sign of a zero.  Each chain stops at the largest exponent the pairs read,
    # and a longer chain starts with the same products.
    lines = []
    for name, base, side in (("p", "z", 0), ("q", "z.conjugate()", 1)):
        lines += [f"{name}0 = one", f"s = {base}"]
        for e, (rest, new) in enumerate(_power_steps(max((t[side] for t in pairs), default=0)), 1):
            lines += ["s = s * s"] * new + [f"{name}{e} = {name}{rest} * s"]
    return lines


def _sum(start: str, coeff: str, pairs) -> str:
    # start + coeff0 * p<i> * q<j> + ..., added left to right in term order.
    return " + ".join([start] + [f"{coeff}{n} * p{i} * q{j}" for n, (i, j) in enumerate(pairs)])


def _block(lines, depth: int) -> str:
    return "\n".join(" " * depth + line for line in lines)


def _kernel_source(pattern: _Plan, routine: str) -> str:
    value = _powers(pattern.value) + [
        f"v = {_sum('zero', 'a', pattern.value)}",
        "if not isfinite(v):",
        "    overflow(z, value_terms)",
    ]
    derivatives = [
        "o = 0 * z",
        f"f_z = {_sum('o', 'b', pattern.d_z)}",
        f"f_zc = {_sum('o', 'c', pattern.d_zbar)}",
        "if not (isfinite(f_z) and isfinite(f_zc)):",
        "    overflow(z, d_terms)",
    ]
    return _KERNELS[routine].format(
        coeffs=", ".join(f"{a}{n}" for a, pairs in zip("abc", pattern) for n in range(len(pairs))),
        value=_block(value, 8),
        wirtinger=_block(_powers(pattern.d_z + pattern.d_zbar) + derivatives, 8),
        newton_value=_block(value, 16),
        newton_derivatives=_block(derivatives, 20),
    )


@lru_cache(maxsize=_KERNEL_CACHE)
def _kernel_factory(pattern: _Plan, routine: str):
    # The compiled ``routine`` of every model with this pattern; a call binds
    # one model's coefficients.
    namespace: dict = {}
    exec(_kernel_source(pattern, routine), namespace)
    return namespace["bind"]


def _array_sums(z, steps, *term_lists) -> tuple:
    # Sums of c z^i zbar^j over each list of (i, j, c) terms at an array-like
    # z, in term order from zero, in blocks of _EVAL_BLOCK points with z^e on
    # one ladder and zbar^j as conj(z^j), taken once per block for each j the
    # terms read.  A 0-d z gives Python complex sums.
    zarr = np.asarray(z, dtype=complex)
    flat = zarr.reshape(-1)
    sums = np.full((len(term_lists), flat.size), 0j)
    conj_exponents = {j for terms in term_lists for _, j, _ in terms}
    for start in range(0, flat.size, _EVAL_BLOCK):
        block = slice(start, start + _EVAL_BLOCK)
        pw = _ladder(flat[block], steps)
        pc = {j: np.conjugate(pw[j]) for j in conj_exponents}
        t = np.empty_like(flat[block])
        for acc, terms in zip(sums[:, block], term_lists):
            for i, j, c in terms:
                np.multiply(c, pw[i], out=t)
                acc += t * pc[j]
    return tuple(complex(s[0]) if zarr.ndim == 0 else s.reshape(zarr.shape) for s in sums)


@dataclass(frozen=True)
class ComplexPoly:
    """Sparse complex displacement polynomial sum gamma_kl z^k zbar^l.

    ``terms`` maps exponent pairs (k, l) to complex coefficients.  Keys must
    satisfy k, l >= 0 and 2 <= k + l <= MAX_DEGREE.  Exactly-zero
    coefficients are dropped on construction.  This is the package's one type
    of displacement: the constructors return it and every layer takes it.
    """

    terms: Mapping[MonomialKey, complex]

    def __post_init__(self):
        clean: dict[MonomialKey, complex] = {}
        for key, coeff in self.terms.items():
            key = _check_key(key)
            c = complex(coeff)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient for monomial {key}")
            if c != 0:
                clean[key] = clean.get(key, 0j) + c
        clean = {k: v for k, v in clean.items() if v != 0}
        ordered = dict(sorted(clean.items(), key=lambda item: _key_order(item[0])))
        object.__setattr__(self, "terms", MappingProxyType(ordered))

    @classmethod
    def zero(cls) -> "ComplexPoly":
        return cls({})

    # Spellings of the former ``DistortionFunction`` wrapper around one
    # ComplexPoly, kept because the acceptance tests and the perfbench
    # workloads still use them; nothing in the package calls them.
    @classmethod
    def from_poly(cls, poly: "ComplexPoly") -> "ComplexPoly":
        return poly

    @property
    def poly(self) -> "ComplexPoly":
        return self

    @property
    def degree(self) -> int:
        """Maximum total degree of the stored monomials (0 for the zero poly)."""
        return max((k + l for k, l in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def windings(self) -> set[int]:
        """Winding numbers of all stored monomials."""
        return {k - l - 1 for k, l in self.terms}

    def __reduce__(self):
        # Rebuilt from its terms: no cached table or kernel travels.
        return ComplexPoly, (dict(self.terms),)

    def __hash__(self):
        # Terms are stored pruned and sorted, so equal models give equal tuples.
        return hash(tuple(self.terms.items()))

    @cached_property
    def _steps(self) -> tuple:
        # The array kernel's power ladder, up to the largest exponent.
        return _power_steps(max((max(key) for key in self.terms), default=0))

    @cached_property
    def _plan(self) -> _Plan:
        terms = self.terms.items()
        return _Plan(
            tuple((k, l, c) for (k, l), c in terms),
            tuple((k - 1, l, c * k) for (k, l), c in terms if k),
            tuple((k, l - 1, c * l) for (k, l), c in terms if l),
        )

    def _bind(self, routine: str):
        # The compiled ``routine`` of this model's pattern, bound to its coefficients.
        pattern = _Plan(*(tuple((i, j) for i, j, _ in terms) for terms in self._plan))
        coeffs = (c for terms in self._plan for _, _, c in terms)
        return _kernel_factory(pattern, routine)(
            _ONE, 0j, 1.0, cisfinite, _raise_on_overflow,
            pattern.value, pattern.d_z + pattern.d_zbar, *coeffs,
        )

    # The scalar kernels, each bound on first use.
    _value = cached_property(lambda self: self._bind("value"))
    _wirtinger = cached_property(lambda self: self._bind("wirtinger"))
    _newton = cached_property(lambda self: self._bind("newton"))

    def evaluate(self, z):
        """Value sum gamma_kl z^k zbar^l at a complex scalar or array.

        A Python complex stays in Python arithmetic, in straight-line code
        compiled once per monomial pattern and bound to this model on its
        first scalar call: z**e on CPython's products (z^0 = 1 + 0j), zbar**e
        on a chain of its own, and the terms added in order.  So the value
        is bit for bit the sum of gamma_kl * z**k * zbar**l in term order,
        and where one of those powers raises OverflowError, so does this
        (checked only when the value is not finite).  Anything else is summed as an array, as in
        ``wirtinger``.
        """
        if type(z) is complex:
            return self._value(z)
        return _array_sums(z, self._steps, self._plan.value)[0]

    def displacement(self, x, y):
        """Displacement (dx, dy) at (x, y); accepts scalars or arrays."""
        w = self.evaluate(np.asarray(x, float) + 1j * np.asarray(y, float))
        return w.real, w.imag

    def wirtinger(self, z):
        """Wirtinger derivatives (f_z, f_zbar) at a complex scalar or array.

        A step dz moves the value by f_z dz + f_zbar conj(dz).  Each sums, in
        term order, gamma_kl k z^(k-1) zbar^l (f_z) or gamma_kl l z^k
        zbar^(l-1) (f_zbar).  A Python complex runs the generated code on the
        powers of ``evaluate``, bit for bit, and raises OverflowError where
        those powers do.  Anything else, here and in ``evaluate``, takes z^e
        on one ladder per 4,096 points and zbar^l as conj(z^l), taken once per
        exponent: a point's result does not depend on its batch, even of one,
        and differs from the z**k form by rounding only.  Other scalars give
        Python complex; arrays give arrays.
        """
        if type(z) is complex:
            return self._wirtinger(z)
        return _array_sums(z, self._steps, self._plan.d_z, self._plan.d_zbar)

    def rotated(self, theta: float) -> "ComplexPoly":
        """Coefficients after a coordinate rotation by theta (radians).

        Each gamma_kl picks up the phase exp(i theta (k - l - 1)), giving
        z -> exp(-i theta) f(exp(i theta) z): the field of f turned by -theta,
        so a camera roll that turns the image by phi maps f to rotated(-phi).
        Monomials with winding number 0 are unchanged for every theta.
        """
        return ComplexPoly(
            {
                (k, l): coeff * cexp(1j * theta * (k - l - 1))
                for (k, l), coeff in self.terms.items()
            }
        )

    @cached_property
    def real_form(self) -> "RealPolyModel":
        """``to_real()``, derived on first access and cached."""
        return self.to_real()

    def to_real(self) -> "RealPolyModel":
        """Equivalent per-degree real coefficient blocks; an entry that overflows raises ValueError."""
        blocks: dict[int, np.ndarray] = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for (k, l), coeff in self.terms.items():
                n = k + l
                block = blocks.setdefault(n, np.zeros((2, n + 1)))
                col = np.asarray(_monomial_xy(k, l)) * coeff
                block[0] += col.real
                block[1] += col.imag
        return RealPolyModel(blocks)

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0j) + c
        return ComplexPoly(merged)

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ComplexPoly":
        return ComplexPoly({key: -c for key, c in self.terms.items()})

    def __mul__(self, scalar) -> "ComplexPoly":
        if not isinstance(scalar, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return NotImplemented
        return ComplexPoly({key: c * complex(scalar) for key, c in self.terms.items()})

    __rmul__ = __mul__

    def isclose(self, other: "ComplexPoly", tol: float = DEFAULT_TOL) -> bool:
        """True when every coefficient matches within absolute tolerance tol."""
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(key, 0j) - other.terms.get(key, 0j)) <= tol for key in keys
        )


@dataclass(frozen=True, eq=False)
class RealPolyModel:
    """Per-degree real coefficient blocks of a polynomial displacement.

    ``blocks`` maps each homogeneous degree n present to a 2 x (n+1) real
    matrix; all-zero blocks are dropped so the representation is canonical.
    A view of ``ComplexPoly.to_real()``: rotate, compare and save the
    ``ComplexPoly`` that ``to_complex`` returns.
    """

    blocks: Mapping[int, np.ndarray]

    def __post_init__(self):
        clean: dict[int, np.ndarray] = {}
        for degree, block in self.blocks.items():
            n = operator.index(degree)
            if n < 2 or n > MAX_DEGREE:
                raise ValueError(f"block degree must be in [2, {MAX_DEGREE}], got {n}")
            arr = np.array(block, dtype=float)
            if arr.shape != (2, n + 1):
                raise ValueError(
                    f"degree-{n} block must have shape (2, {n + 1}), got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in degree-{n} block")
            if np.any(arr != 0.0):
                arr.setflags(write=False)
                clean[n] = arr
        object.__setattr__(
            self, "blocks", MappingProxyType(dict(sorted(clean.items())))
        )

    def __reduce__(self):
        # Rebuilt from its blocks, which come back read-only.
        return RealPolyModel, (dict(self.blocks),)

    def evaluate(self, x, y):
        """Displacement (dx, dy) at (x, y); accepts scalars or arrays."""
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        shape = np.broadcast(xa, ya).shape
        dx = np.zeros(shape)
        dy = np.zeros(shape)
        for n, block in self.blocks.items():
            v = monomial_vector(n, xa, ya)
            # Elementwise, in index order: a point rounds alike alone and in a batch.
            for j in range(n + 1):
                dx = dx + block[0, j] * v[j]
                dy = dy + block[1, j] * v[j]
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            return float(dx), float(dy)
        return dx, dy

    def to_complex(self) -> ComplexPoly:
        """Equivalent sparse complex polynomial."""
        acc: dict[MonomialKey, complex] = {}
        for n, block in self.blocks.items():
            col = block[0] + 1j * block[1]
            for j in range(n + 1):
                cj = col[j]
                if cj == 0:
                    continue
                for k, w in enumerate(_xy_monomial(n, j)):
                    if w != 0:
                        key = (k, n - k)
                        acc[key] = acc.get(key, 0j) + cj * w
        return ComplexPoly(acc)


def monomial_vector(n: int, x, y) -> np.ndarray:
    """Degree-n monomial vector (x^n, x^(n-1) y, ..., y^n).

    Scalars give shape (n+1,); arrays are broadcast along a leading axis.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    return np.stack([xa ** (n - i) * ya**i for i in range(n + 1)])


def _lin_pow(c0: float, c1: float, e: int) -> np.ndarray:
    out = np.array([1.0])
    base = np.array([c0, c1])
    for _ in range(e):
        out = np.convolve(out, base)
    return out


def monomial_rotation(n: int, theta: float) -> np.ndarray:
    """Matrix V with monomial_vector(n, R_theta p) = V @ monomial_vector(n, p).

    Row i holds the expansion of (x cos t - y sin t)^(n-i) (x sin t + y cos t)^i
    by exact binomial convolution.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    c, s = math.cos(theta), math.sin(theta)
    rows = [
        np.convolve(_lin_pow(c, -s, n - i), _lin_pow(s, c, i)) for i in range(n + 1)
    ]
    return np.vstack(rows)


# --------------------------------------------------------------------------
# Model file schema: {"format": "lensdist-model", "version": 1, ...} with
# exactly one of "complex" (list of {k, l, re, im}) or "real" (list of
# {degree, rows}).  Loading always normalizes to a ComplexPoly.
# --------------------------------------------------------------------------


def model_to_json(model: ComplexPoly, form: str = "complex") -> dict:
    """JSON-serializable dict for a displacement model, in the chosen form."""
    if not isinstance(model, ComplexPoly):
        raise TypeError(f"models are written from ComplexPoly, got {type(model).__name__}")
    if form == "complex":
        body = [{"k": k, "l": l, "re": c.real, "im": c.imag} for (k, l), c in model.terms.items()]
    elif form == "real":
        body = [
            {"degree": n, "rows": [list(map(float, row)) for row in block]}
            for n, block in model.to_real().blocks.items()
        ]
    else:
        raise ValueError(f"form must be 'complex' or 'real', got {form!r}")
    return {"format": MODEL_FORMAT, "version": MODEL_VERSION, form: body}


def model_from_json(data) -> ComplexPoly:
    """Parse a model dict (either form) into a ComplexPoly."""
    check_header(data, "model", MODEL_FORMAT, MODEL_VERSION)
    has_complex = "complex" in data
    has_real = "real" in data
    if has_complex == has_real:
        raise ValueError("model JSON must contain exactly one of 'complex' or 'real'")
    if has_complex:
        entries = data["complex"]
        if not isinstance(entries, list):
            raise ValueError("'complex' must be a list of terms")
        terms: dict[MonomialKey, complex] = {}
        for entry in entries:
            try:
                key = _check_key((entry["k"], entry["l"]))
                coeff = complex(float(entry["re"]), float(entry["im"]))
            except (KeyError, TypeError, ValueError) as err:
                raise ValueError(f"malformed complex term {entry!r}") from err
            if key in terms:
                raise ValueError(f"duplicate monomial {key} in complex terms")
            terms[key] = coeff
        return ComplexPoly(terms)
    entries = data["real"]
    if not isinstance(entries, list):
        raise ValueError("'real' must be a list of degree blocks")
    blocks: dict[int, np.ndarray] = {}
    for entry in entries:
        try:
            degree = operator.index(entry["degree"])
            rows = np.asarray(entry["rows"], dtype=float)
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"malformed real block {entry!r}") from err
        if degree in blocks:
            raise ValueError(f"duplicate degree {degree} in real blocks")
        blocks[degree] = rows
    return RealPolyModel(blocks).to_complex()


def load_model(path) -> ComplexPoly:
    """Load a model JSON file, normalizing to ComplexPoly."""
    return model_from_json(load_json(path))


def save_model(path, model: ComplexPoly, form: str = "complex") -> None:
    save_json(path, model_to_json(model, form=form))
