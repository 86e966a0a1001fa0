"""Apply distortion functions to point sets, invert them, and sample fields.

The forward map is F(p) = p + G(p).  Inversion is a damped Newton iteration
with the analytic Jacobian, starting from the target point (valid because F
has identity Jacobian at the origin and practical coefficients are small).
Step acceptance is monotone in the residual norm, so the iteration reports
failure instead of jumping to a far-away preimage when the target leaves the
local invertibility region.

The working domain is the unit disc in normalized coordinates; callers own
domain validity, nothing is clamped.
"""

from __future__ import annotations

import math
import operator
from cmath import isfinite as cisfinite
from typing import NamedTuple, Sequence

import numpy as np

from ._io import read_csv, write_csv
from .poly import ComplexPoly, _derivatives, _power_tables, _value

__all__ = [
    "NoConvergence",
    "SingularJacobian",
    "apply_distortion",
    "jacobian",
    "invert",
    "circle_points",
    "grid_points",
    "FieldSample",
    "sample_field",
    "write_points_csv",
    "read_points_csv",
    "write_field_csv",
    "read_field_csv",
]

Point = tuple[float, float]

_MAX_ITER = 50
_RESIDUAL_TOL = 1e-12
_STEP_TOL = 1e-14
_SINGULAR_DET = 1e-14
_MIN_STEP_SCALE = 2.0**-40
# Newton steps are capped at the working-domain scale (the unit disc).  Near a
# fold the raw step explodes and can land on a far preimage branch; the cap
# keeps the iteration local, so those targets fail loudly instead.
_MAX_STEP = 1.0


class NoConvergence(RuntimeError):
    """Newton iteration stopped without meeting the residual tolerance."""


class SingularJacobian(RuntimeError):
    """The forward Jacobian became singular at an iterate."""


def apply_distortion(func: ComplexPoly, points: Sequence[Point]) -> list[Point]:
    """Forward-map each point: output = input + displacement, order preserved."""
    if len(points) == 0:
        return []
    pts = np.asarray(points, dtype=float)
    dx, dy = func.displacement(pts[:, 0], pts[:, 1])
    out = pts + np.stack([dx, dy], axis=1)
    return list(zip(out[:, 0].tolist(), out[:, 1].tolist()))


def jacobian(func: ComplexPoly, p) -> np.ndarray:
    """Analytic 2x2 Jacobian of F = id + G at p.

    Uses the Wirtinger derivatives of the complex form; every term has total
    degree >= 2, so the result is exactly the identity at the origin.
    """
    fz, fzb = func.wirtinger(complex(float(p[0]), float(p[1])))
    wx = fz + fzb
    wy = 1j * (fz - fzb)
    return np.array([[1.0 + wx.real, wy.real], [wx.imag, 1.0 + wy.imag]])


def invert(func: ComplexPoly, target) -> Point:
    """Solve F(q) = target by damped Newton from q0 = target.

    The iteration runs in complex arithmetic.  With r = q + f(q) - target,
    a = 1 + f_z and b = f_zbar, the Newton step solves a s + b conj(s) = r:
    s = (conj(a) r - b conj(r)) / det J, where det J = |a|^2 - |b|^2.

    The budget is fixed: at most 50 Newton iterations, success once the
    residual norm is below 1e-12, and a stop when the Newton step is below
    1e-14.  Each line search starts at the full (capped) step and halves it
    down to 2^-40.  Raises SingularJacobian when |det J| < 1e-14 at an
    iterate and NoConvergence when the iteration budget or the monotone line
    search is exhausted, when the Newton step falls below 1e-14 first, or
    when the iterate overflows; all mean the target is outside the local
    invertibility region.  A target that is not a finite (x, y) pair raises
    ValueError.
    """
    pair = np.asarray(target, dtype=float)
    if pair.shape != (2,) or not cisfinite(t := complex(*pair.tolist())):
        raise ValueError(f"target must be a finite (x, y) pair, got {target!r}")
    plan, steps = func._plan, func._steps
    q = t
    try:
        table = _power_tables(q, steps)
        r = q + _value(plan, q, *table) - t
        rnorm = abs(r)
        for k in range(_MAX_ITER):
            if rnorm < _RESIDUAL_TOL:
                return q.real, q.imag
            f_z, b = _derivatives(plan, q, *table)  # the accepted iterate's table
            a = 1.0 + f_z
            det = a.real**2 + a.imag**2 - b.real**2 - b.imag**2
            if abs(det) < _SINGULAR_DET:
                raise SingularJacobian(f"|det J| = {abs(det):.3e} at iterate {q}")
            step = (a.conjugate() * r - b * r.conjugate()) / det
            step_norm = abs(step)
            if step_norm < _STEP_TOL:
                raise NoConvergence(
                    f"Newton step below {_STEP_TOL:g} after {k} iterations (residual {rnorm:.3e})"
                )
            if step_norm > _MAX_STEP:
                step *= _MAX_STEP / step_norm
            alpha = 1.0
            while True:
                q_try = q - alpha * step
                table_try = _power_tables(q_try, steps)
                r_try = q_try + _value(plan, q_try, *table_try) - t
                rnorm_try = abs(r_try)
                if rnorm_try < rnorm:
                    q, r, rnorm, table = q_try, r_try, rnorm_try, table_try
                    break
                alpha *= 0.5
                if alpha < _MIN_STEP_SCALE:
                    raise NoConvergence(
                        f"line search stalled with residual {rnorm:.3e}"
                    )
    except OverflowError as err:
        raise NoConvergence(f"iterate overflowed near {q}") from err
    if rnorm < _RESIDUAL_TOL:
        return q.real, q.imag
    raise NoConvergence(
        f"no convergence after {_MAX_ITER} iterations (residual {rnorm:.3e})"
    )


def circle_points(radius: float, count: int) -> list[Point]:
    """count points on the origin-centered circle, angle ascending from 0."""
    count = operator.index(count)
    if not 0 < radius < math.inf:
        raise ValueError("radius must be finite and positive")
    if count < 3:
        raise ValueError("count must be >= 3")
    angles = 2.0 * math.pi * np.arange(count) / count
    return [(float(radius * math.cos(a)), float(radius * math.sin(a))) for a in angles]


def grid_points(half_extent: float, per_side: int) -> list[Point]:
    """per_side x per_side grid on [-half_extent, half_extent]^2, row-major."""
    per_side = operator.index(per_side)
    if not 0 < half_extent < math.inf:
        raise ValueError("half_extent must be finite and positive")
    if per_side < 2:
        raise ValueError("per_side must be >= 2")
    coords = np.linspace(-half_extent, half_extent, per_side)
    return [(float(x), float(y)) for y in coords for x in coords]


class FieldSample(NamedTuple):
    source: Point
    displaced: Point


def sample_field(func: ComplexPoly, points: Sequence[Point]) -> list[FieldSample]:
    """Pair each point with its forward image."""
    displaced = apply_distortion(func, points)
    return [FieldSample((float(p[0]), float(p[1])), d) for p, d in zip(points, displaced)]


def write_points_csv(path, points: Sequence[Point]) -> None:
    write_csv(path, ["x", "y"], points)


def read_points_csv(path) -> list[Point]:
    return [(float(x), float(y)) for x, y in read_csv(path, ["x", "y"])]


def write_field_csv(path, samples: Sequence[FieldSample]) -> None:
    write_csv(path, ["x", "y", "xd", "yd"], ((*s.source, *s.displaced) for s in samples))


def read_field_csv(path) -> list[FieldSample]:
    return [
        FieldSample((float(x), float(y)), (float(xd), float(yd)))
        for x, y, xd, yd in read_csv(path, ["x", "y", "xd", "yd"])
    ]
