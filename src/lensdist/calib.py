"""Synthetic camera calibration for comparing distortion model families.

Pipeline conventions: a 3D target point X is moved into the camera frame by
an axis-angle pose (X_cam = R X + t, positive depth required), projected to
normalized pinhole coordinates, distorted there (the distortion center
coincides with the principal point), and scaled into pixels:

    u = fx * Fx(xn, yn) + cx,   v = fy * Fy(xn, yn) + cy.

``synthesize`` renders a planar-grid scene under a ground-truth distortion
with seeded Gaussian pixel noise; the same seed always reproduces the same
observations bit for bit.

``fit`` estimates family coefficients (optionally refining poses) by
minimizing the summed squared reprojection residuals.  A family is a linear
``ModelSpace`` or the nonlinear ``SharedAxisFamily``, and a fit reads it
only as rows over its monomials z^k zbar^l (``keys``): its coefficients
``weights(x)`` and their derivatives ``coefficients(x)``, times one monomial
table per point set on ``poly._ladder``.  So with frozen poses the residuals
are rhs + M w, M the scene's monomial design (``_FrozenDesign``).  Linear fits
solve on one QR of M (Bjorck, 1996) with a truncated SVD of the reduced problem;
the shared-axis scan ranks its axes by one batched QR of their reduced designs
and solves only the best.  The rest is one Levenberg-Marquardt run with an
analytic Jacobian (initial lambda 1e-3, times 10 on reject, divided by 10 on
accept, stop at relative cost decrease below 1e-12 or 200 iterations), on M
with frozen poses or on ``_Reprojection`` with refined ones, from zero
coefficients or from the best scanned axis of ``SharedAxisFamily``.
Damped steps solve J^T J + lambda I directly; the truncated SVD serves the
rank-deficient solves: the frozen solves and the standard errors, where each
view's refined pose columns are first eliminated (Triggs et al., 2000).
Non-convergence is reported through ``converged=False``, never silently.  A coefficient
along a dropped direction has the standard error inf.
With frozen poses, ``compare`` solves its linear families on one ``_FrozenDesign`` over
their monomials' union, ``sweep_axis_ratio`` every phi on one over its five monomials.
Same-size problems share one stacked truncated SVD (one per dimension, one per
``_SWEEP_CHUNK`` phi), which solves each member bit for bit as alone; each rms comes from
that member's own residual.

Residual evaluation is sequential with a fixed accumulation order, so a fit
is reproducible bit for bit on one host, BLAS kernel and numpy dispatch level.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields
from functools import cached_property, partial, reduce
from typing import Sequence

import numpy as np

from ._io import check_header, load_json, read_csv, save_json, write_csv
from .families import (
    ModelSpace,
    coefficient_keys,
    coefficient_matrix,
    mixed_quadratic,
    named_space,
    rri,
    space_sum,
    symmetric_cubic,
    symmetric_quadratic,
)
from .poly import ComplexPoly, _ladder, _power_steps, model_from_json, model_to_json

__all__ = [
    "Intrinsics",
    "Pose",
    "Scene",
    "Observations",
    "FitReport",
    "FitOptions",
    "CompareRow",
    "rotation_matrix",
    "target_grid",
    "default_scene",
    "project",
    "project_points",
    "synthesize",
    "SharedAxisFamily",
    "parse_family",
    "TABLE_FAMILIES",
    "fit",
    "compare",
    "sweep_axis_ratio",
    "scene_to_json",
    "scene_from_json",
    "load_scene",
    "save_scene",
    "write_observations_csv",
    "read_observations_csv",
]

SCENE_FORMAT = "lensdist-scene"
SCENE_VERSION = 1

# Relative singular-value cutoff for rank-deficient least squares.
_SVD_RCOND = 1e-10
# A coefficient whose row of the dropped right singular vectors has a larger norm is not
# determined, and its standard error is inf; rounding leaves about 1e-15 there.
_UNDETERMINED = 1e-8
# Levenberg-Marquardt budget and damping schedule.
_MAX_ITER = 200
_LAMBDA0 = 1e-3
_COST_TOL = 1e-12
# Axes scanned for the shared-axis start; 16 miss the best minimum of rri([0.1]), seed 2.
_AXIS_SCAN = 32


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


@dataclass(frozen=True)
class Pose:
    """Camera pose as axis-angle rotation plus translation: X_cam = R X + t."""

    axis_angle: tuple[float, float, float]
    translation: tuple[float, float, float]

    def __post_init__(self):
        aa = tuple(float(v) for v in self.axis_angle)
        tr = tuple(float(v) for v in self.translation)
        if len(aa) != 3 or len(tr) != 3:
            raise ValueError("axis_angle and translation must have 3 components")
        if not all(math.isfinite(v) for v in aa + tr):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "axis_angle", aa)
        object.__setattr__(self, "translation", tr)


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x (..., 3, 3) of float arrays v (..., 3): [v]x u = v x u."""
    out = np.zeros((*v.shape[:-1], 9))  # row-major [[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]]
    out[..., [7, 2, 3]], out[..., [5, 6, 1]] = v, -v
    return out.reshape(*v.shape[:-1], 3, 3)


_UNIT_SKEWS = _skew(np.eye(3))  # [e_i]x: the rotation derivatives where Rodrigues is a series


def rotation_matrix(axis_angle) -> np.ndarray:
    """Rodrigues matrices (..., 3, 3) of axis-angle vectors (..., 3) in one pass, angles one by one."""
    rvec = np.asarray(axis_angle, dtype=float)
    ab = []
    for r in rvec.reshape(-1, 3):
        theta = math.sqrt(r @ r)  # the ddot and correctly rounded root of np.linalg.norm
        if theta < 1e-8:  # series expansion keeps the zero-rotation case exact
            ab.append((1.0 - theta**2 / 6.0, 0.5 - theta**2 / 24.0))
        else:
            ab.append((math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta**2))
    a, b = np.array(ab).T.reshape(2, *rvec.shape[:-1], 1, 1)
    skew = _skew(rvec)
    return np.eye(3) + a * skew + b * (skew @ skew)


def target_grid(rows: int, cols: int, spacing: float) -> np.ndarray:
    """Planar rows x cols grid on z = 0, centered at the origin, row-major."""
    if rows < 2 or cols < 2:
        raise ValueError("target needs at least 2 rows and 2 columns")
    if not (spacing > 0 and math.isfinite((max(rows, cols) - 1) / 2 * spacing)):
        raise ValueError("spacing must be positive, and (max(rows, cols) - 1) / 2 * spacing finite")
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    pts = np.zeros((rows, cols, 3))
    pts[..., 0], pts[..., 1] = xs, ys[:, None]
    return pts.reshape(-1, 3)


@dataclass(frozen=True)
class Scene:
    """Synthetic capture setup: planar target, poses, camera, truth, noise."""

    rows: int
    cols: int
    spacing: float
    poses: tuple[Pose, ...]
    intrinsics: Intrinsics
    truth: ComplexPoly
    noise_sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))
        if len(self.poses) < 4:
            raise ValueError("need at least 4 poses for fitting")
        if self.rows * self.cols < 12:
            raise ValueError("need at least 12 target points")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        if isinstance(self.seed, bool):
            raise ValueError("seed must be an integer, not a boolean")
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for i, cam in enumerate(self.camera_points):
            if np.any(cam[:, 2] <= 0):
                raise ValueError(f"pose {i} places target points behind the camera")

    def __reduce__(self):
        # Rebuilt by the constructor: ``camera_points`` is not carried.
        return Scene, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def target_points(self) -> np.ndarray:
        return target_grid(self.rows, self.cols, self.spacing)

    @property
    def n_points(self) -> int:
        return self.rows * self.cols

    @cached_property
    def camera_points(self) -> np.ndarray:
        """The target points in each pose's camera frame, read-only (views, N, 3)."""
        cam, _ = _to_camera(self.target_points, _pack_poses(self.poses).reshape(-1, 6))
        cam.setflags(write=False)
        return cam


@dataclass(frozen=True, eq=False)
class Observations:
    """Measured pixels per view; every target point observed in every view."""

    pixels: np.ndarray  # shape (n_views, n_points, 2)

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError(f"pixels must have shape (views, points, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pixels must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def n_views(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_points(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class FitReport:
    rms_px: float
    coefficients: tuple[float, ...]
    iterations: int
    converged: bool
    per_view_rms: tuple[float, ...]
    std_errors: tuple[float, ...]


@dataclass(frozen=True)
class FitOptions:
    refine_poses: bool = False


@dataclass(frozen=True)
class CompareRow:
    label: str
    n_params: int
    linear: bool
    rri: bool
    rsf: bool
    rms_px: float
    converged: bool


# --------------------------------------------------------------------------
# Projection and synthesis
# --------------------------------------------------------------------------


def _to_camera(points: np.ndarray, poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Camera-frame points R X + t (V, N, 3) of (N, 3) points X under packed (V, 6) poses, and R."""
    rot = rotation_matrix(poses[:, :3])
    return points @ np.swapaxes(rot, -1, -2) + poses[:, None, 3:], rot


def _pixels(intrinsics: Intrinsics, xn, yn, d) -> np.ndarray:
    """(..., 2) pixels u = fx (xn + Re d) + cx, v = fy (yn + Im d) + cy of the displacements d."""
    u = intrinsics.fx * (xn + d.real) + intrinsics.cx
    v = intrinsics.fy * (yn + d.imag) + intrinsics.cy
    return np.stack([u, v], axis=-1)


def project_points(
    intrinsics: Intrinsics, pose: Pose, func: ComplexPoly, points3
) -> np.ndarray:
    """Pixel projections of an (N, 3) array of target points."""
    pts = np.asarray(points3, dtype=float).reshape(-1, 3)
    (cam,), _ = _to_camera(pts, _pack_poses([pose]).reshape(1, 6))
    if np.any(cam[:, 2] <= 0):
        raise ValueError("point behind camera (nonpositive depth)")
    xn, yn = cam[:, 0] / cam[:, 2], cam[:, 1] / cam[:, 2]
    return _pixels(intrinsics, xn, yn, func.evaluate(xn + 1j * yn))


def project(intrinsics: Intrinsics, pose: Pose, func: ComplexPoly, point3):
    """Pixel projection of a single 3D point."""
    uv = project_points(intrinsics, pose, func, np.asarray(point3, float).reshape(1, 3))
    return float(uv[0, 0]), float(uv[0, 1])


def synthesize(scene: Scene) -> Observations:
    """Noisy observations of the scene, the same for the same seed; overflow raises ValueError."""
    cam = scene.camera_points
    xn, yn = cam[..., 0] / cam[..., 2], cam[..., 1] / cam[..., 2]
    with np.errstate(over="ignore", invalid="ignore"):
        views = _pixels(scene.intrinsics, xn, yn, scene.truth.evaluate(xn + 1j * yn))
        rng = np.random.default_rng(scene.seed)
        noise = rng.normal(0.0, 1.0, size=views.shape) * scene.noise_sigma
        return Observations(views + noise)


def default_scene(
    truth: ComplexPoly | None = None,
    noise_sigma: float = 0.2,
    seed: int = 0,
) -> Scene:
    """Desk-scale default: 9x6 target, 8 varied poses, fx = fy = 800, 1280x720."""
    poses = (
        Pose((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        Pose((0.25, 0.0, 0.0), (0.0, 0.02, 1.05)),
        Pose((-0.22, 0.1, 0.0), (0.03, -0.02, 0.95)),
        Pose((0.0, 0.3, 0.0), (-0.05, 0.0, 1.1)),
        Pose((0.15, -0.25, 0.05), (0.06, 0.03, 1.2)),
        Pose((-0.1, -0.2, -0.1), (-0.04, 0.04, 0.9)),
        Pose((0.05, 0.15, 0.3), (0.02, -0.05, 1.15)),
        Pose((-0.3, 0.2, 0.15), (0.0, 0.05, 1.25)),
    )
    return Scene(
        rows=6,
        cols=9,
        spacing=0.08,
        poses=poses,
        intrinsics=Intrinsics(800.0, 800.0, 640.0, 360.0),
        truth=truth if truth is not None else ComplexPoly.zero(),
        noise_sigma=noise_sigma,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Model families for fitting
# --------------------------------------------------------------------------


# The shared-axis amplitudes at axis 0: symmetric_quadratic's 3 and
# symmetric_cubic's 4 unit members, then the degree-5 and -7 radial terms.
_SYMMETRIC_BASE = ModelSpace(
    tuple(symmetric_quadratic(0.0, *unit) for unit in np.eye(3))
    + tuple(symmetric_cubic(0.0, *unit) for unit in np.eye(4))
    + (rri([0.0, 1.0]), rri([0.0, 0.0, 1.0])),
    "sym_quad_cubic_rri3 at axis 0",
)


class SharedAxisFamily:
    """Nonlinear mirror-symmetric family with one shared axis angle.

    Parameters (10): axis angle theta, quadratic amplitudes (a, b, c), cubic
    amplitudes (d, e, f, g), and two higher invariant radial coefficients
    (degrees 5 and 7); d doubles as the degree-3 radial coefficient, so the
    radial rotationally invariant part has three coefficients in total.

    The member at theta is the member of the fixed 9-dimensional space
    ``_SYMMETRIC_BASE`` (axis 0) with the same amplitudes, rotated by -theta.

    Quadratic monomials have odd winding numbers and cubic ones even, so
    (theta + pi, -a, -b, -c, d, ..., a3) is the same function as
    (theta, a, b, c, d, ..., a3).  Fits report the canonical form with theta
    in [0, pi).

    Its ``keys`` are the 9 base monomials.  By the phase law its amplitude
    rows at theta are the base rows with each monomial's column times
    exp(-i theta m), m its winding number; ``weights`` are the amplitudes
    times those rows, and the axis row is -i m times the weights.

    At a fixed theta the family is a linear space, so a fit starts from the
    best of ``_AXIS_SCAN`` axes evenly spaced over [0, pi), with the poses
    frozen (also when poses are refined): one batched QR ranks the axes by
    their least-squares costs, and only the best axis's amplitudes are solved.
    """

    linear = False
    label = "sym_quad_cubic_rri3"
    dimension = 10
    # Declared classification (the family is not a vector space).
    rri = False
    rsf = True
    keys = _SYMMETRIC_BASE.keys
    windings = _SYMMETRIC_BASE.windings

    def member(self, coeffs) -> ComplexPoly:
        return _SYMMETRIC_BASE.member(coeffs[1:]).rotated(-float(coeffs[0]))

    def _rows(self, theta) -> np.ndarray:
        """The amplitude rows (..., 9, 9) at the axes theta (...)."""
        turns = np.exp(-1j * np.multiply.outer(theta, self.windings))
        return _SYMMETRIC_BASE.matrix * turns[..., None, :]

    def weights(self, coeffs) -> np.ndarray:
        """The member's complex coefficients over ``keys``."""
        return np.asarray(coeffs[1:], dtype=float) @ self._rows(float(coeffs[0]))

    def coefficients(self, coeffs) -> np.ndarray:
        """The model's derivatives in the axis, then in each amplitude, over ``keys``."""
        return np.vstack([-1j * self.windings * self.weights(coeffs), self._rows(float(coeffs[0]))])

    def canonical(self, coeffs) -> np.ndarray:
        """The equivalent coefficient vector with theta in [0, pi)."""
        out = np.array(coeffs, dtype=float)
        turns, theta = divmod(float(out[0]), math.pi)
        if theta == math.pi:  # a tiny negative theta rounds up to pi
            turns, theta = turns + 1, 0.0
        out[0] = theta
        if int(turns) % 2:
            out[1:4] = -out[1:4]
        return out

    def scan(self, design) -> tuple[np.ndarray, np.ndarray]:
        """The scanned axes and the frozen-pose cost at each: |rhs - Q Q^T rhs|^2 plus the
        part of Q^T rhs off the span of the axis's reduced design, from one batched QR."""
        thetas = np.linspace(0.0, math.pi, _AXIS_SCAN, endpoint=False)
        span, _ = np.linalg.qr(design.reduced(self._rows(thetas)))
        off = design.q_rhs - (span @ (design.q_rhs @ span)[..., None])[..., 0]
        rest = design.rhs - design.q @ design.q_rhs
        return thetas, rest @ rest + np.einsum("ij,ij->i", off, off)

    def start(self, design) -> np.ndarray:
        """The best scanned axis and its amplitudes, solved as ``design.solve`` solves one axis."""
        thetas, costs = self.scan(design)
        theta = thetas[int(np.argmin(costs))]
        return np.r_[theta, design.solve(self._rows(theta))[0]]


def _as_family(family):
    """The ModelSpace or SharedAxisFamily named by a string, or the family itself."""
    return parse_family(family) if isinstance(family, str) else family


def parse_family(name: str):
    """Resolve a family name: catalog spaces, rriN, full_* spaces, '+' sums,
    and the nonlinear shared-axis family 'sym_quad_cubic_rri3'."""
    if name == SharedAxisFamily.label:
        return SharedAxisFamily()
    parts = name.split("+")
    if not all(parts):
        raise ValueError(f"malformed family name {name!r}")
    return reduce(space_sum, map(named_space, parts))


# The model comparison catalog: nested radial chain, the classical quadratic
# extensions, and the two large references.
TABLE_FAMILIES = (
    "rri1",
    "rri2",
    "rri3",
    "rri4",
    "rri5",
    "decentering+rri3",
    "thin_prism+rri3",
    "radial_quad+rri3",
    "weng+rri3",
    "sym_quad_cubic_rri3",
    "full_quad_cubic+rri3",
)


# --------------------------------------------------------------------------
# Least squares
# --------------------------------------------------------------------------


def _solve_truncated(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares by SVD M = U diag(s) V^T without the singular values at or below
    _SVD_RCOND times the largest: the solution, V and inv, 1/s where kept and 0 where
    dropped, so F = V diag(inv) has F F^T the truncated pinv(M^T M) of M = ``matrix``.
    A stack of matrices sharing ``rhs`` gives each member's solve bit for bit."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    inv = np.zeros_like(s)
    keep = s > _SVD_RCOND * s[..., :1]
    inv[keep] = 1.0 / s[keep]
    weights = (np.swapaxes(u, -1, -2) @ rhs) * inv
    v = np.swapaxes(vt, -1, -2)
    return (v @ weights[..., None])[..., 0], v, inv


def _pose_eliminated(jac: np.ndarray, p: int) -> np.ndarray:
    """The p coefficient columns of a refined-pose J, each view's rows projected off the span
    of its own pose block (truncated as in _solve_truncated): the pinv of their Gram matrix is
    pinv(J^T J)'s coefficient block (Triggs, McLauchlan, Hartley and Fitzgibbon, 2000, §6)."""
    n_views = (jac.shape[1] - p) // 6
    coef = jac[:, :p].reshape(n_views, -1, p)
    blocks = jac[:, p:].reshape(n_views, -1, n_views, 6)[range(n_views), :, range(n_views)]
    u, s, _ = np.linalg.svd(blocks, full_matrices=False)
    u *= (s > _SVD_RCOND * s[..., :1])[..., None, :]
    return (coef - u @ (np.swapaxes(u, -1, -2) @ coef)).reshape(-1, p)


def _monomials(z: np.ndarray, keys) -> np.ndarray:
    """The monomials z^k conj(z^l) (K, N) at the points z, one row per key,
    from one table of powers on ``poly._ladder``."""
    powers = _ladder(z, _power_steps(max(max(key) for key in keys)))
    return np.array([powers[k] * np.conj(powers[l]) for k, l in keys])


def _jacobian_rows(intrinsics: Intrinsics, columns: np.ndarray) -> np.ndarray:
    """Jacobian rows (..., 2N, p) of complex displacement derivatives
    (..., p, N): each (Re, Im) pair times (-fx, -fy), in (u, v) order."""
    scale = np.tile((-intrinsics.fx, -intrinsics.fy), columns.shape[-1])
    return (np.ascontiguousarray(columns).view(float) * scale).swapaxes(-1, -2)


class _FrozenDesign:
    """The frozen-pose problem over the monomials ``keys``, affine in a
    family's coefficients: residuals rhs + M w(x) and Jacobian M W(x).

    rhs is the measured minus the undistorted pixels and M the monomial
    design: ``_jacobian_rows`` of the monomials over ``keys`` and i times
    them.  w and W hold the real and imaginary parts of ``family.weights(x)``
    and ``family.coefficients(x)``, so no residual builds the model.
    """

    def __init__(self, scene: Scene, obs: Observations, keys):
        cam = scene.camera_points.reshape(-1, 3)
        xn, yn = cam[:, 0] / cam[:, 2], cam[:, 1] / cam[:, 2]
        zero = _pixels(scene.intrinsics, xn, yn, 0j)
        self.rhs = (obs.pixels.reshape(-1, 2) - zero).ravel()
        monomials = _monomials(xn + 1j * yn, keys)
        self.matrix = _jacobian_rows(scene.intrinsics, np.concatenate([monomials, 1j * monomials]))
        self.q, self.r = np.linalg.qr(self.matrix)
        self.q_rhs = self.q.T @ self.rhs

    def reduced(self, coefficients: np.ndarray) -> np.ndarray:
        """R W, the design M W reduced by M = QR, for complex (p, K) rows W or a stack of them."""
        return self.r @ -np.concatenate([coefficients.real, coefficients.imag], -1).swapaxes(-1, -2)

    def solve(self, coefficients: np.ndarray):
        """Least squares on ``reduced`` of a complex (p, K) coefficient matrix or a stack of
        them, in one ``_solve_truncated``: the amplitudes, full residuals and its (V, inv)."""
        designs = self.reduced(coefficients)
        amplitudes, v, inv = _solve_truncated(designs, self.q_rhs)
        fitted = (designs @ amplitudes[..., None])[..., 0]
        # Each member's residual on its own: one stacked product rounds some of them apart.
        members = fitted.reshape(-1, fitted.shape[-1])
        residuals = np.array([self.rhs - f @ self.q.T for f in members])
        return amplitudes, residuals.reshape(*fitted.shape[:-1], -1), (v, inv)

    def __call__(self, family, x: np.ndarray) -> np.ndarray:
        w = family.weights(x)
        return self.rhs + self.matrix @ np.concatenate([w.real, w.imag])

    def jacobian(self, family, x: np.ndarray) -> np.ndarray:
        c = family.coefficients(x)
        return self.matrix @ np.concatenate([c.real, c.imag], -1).T


def _levenberg_marquardt(fun, x0, jacobian):
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(fun(x), dtype=float)
    cost = float(r @ r)
    lam = _LAMBDA0
    for iterations in range(1, _MAX_ITER + 1):
        jac = jacobian(x)
        grad = jac.T @ r
        hess = jac.T @ jac
        while lam <= 1e12:
            # lam > 0 makes the damped normal matrix positive definite.
            delta = np.linalg.solve(hess + lam * np.eye(x.size), grad)
            x_try = x - delta
            r_try = np.asarray(fun(x_try), dtype=float)
            cost_try = float(r_try @ r_try)
            if math.isfinite(cost_try) and cost_try < cost:
                rel_decrease = (cost - cost_try) / max(cost, 1e-300)
                x, r, cost = x_try, r_try, cost_try
                lam = max(lam / 10.0, 1e-15)
                if rel_decrease < _COST_TOL:
                    return x, r, iterations, True
                break
            lam *= 10.0
        else:
            # No descent direction at available precision: at a minimum.
            return x, r, iterations, True
    return x, r, _MAX_ITER, False


def _rms(residuals: np.ndarray) -> float:
    return math.sqrt(float(residuals @ residuals) / residuals.size)


def _report_from_residuals(
    residuals: np.ndarray,
    obs: Observations,
    x: np.ndarray,
    p: int,
    iterations: int,
    converged: bool,
    v: np.ndarray,
    inv: np.ndarray,
) -> FitReport:
    m = residuals.size
    per_view = residuals.reshape(obs.n_views, obs.n_points, 2)
    per_view_rms = tuple(float(math.sqrt(np.mean(r**2))) for r in per_view)
    # sigma^2 F F^T, F = V diag(inv), is the covariance of x[:p], marginal over any refined
    # poses in x[p:], except along the dropped directions, where the variance is unbounded.
    sigma2 = float(residuals @ residuals) / max(m - x.size, 1)
    std = np.sqrt(sigma2 * np.sum((v * inv) ** 2, axis=1))
    std[np.linalg.norm(v[:, inv == 0], axis=1) > _UNDETERMINED] = math.inf
    return FitReport(
        rms_px=_rms(residuals),
        coefficients=tuple(float(c) for c in x[:p]),
        iterations=iterations,
        converged=converged,
        per_view_rms=per_view_rms,
        std_errors=tuple(map(float, std)),
    )


def _pack_poses(poses: Sequence[Pose]) -> np.ndarray:
    return np.concatenate([np.concatenate([p.axis_angle, p.translation]) for p in poses])


def _rotation_derivatives(w: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """The matrices G_i (V, 3, 3, 3) with dR/dw_i = G_i R for (V, 3) vectors w and
    their R = rotation_matrix(w): G_i = (w_i [w]x + [w x (I - R) e_i]x) / |w|^2
    (Gallego and Yezzi, 2015), and [e_i]x where rotation_matrix uses its series."""
    theta2 = np.array([float(v @ v) for v in w])[:, None, None, None]
    series = np.sqrt(theta2) < 1e-8
    w_cross = _skew(w)
    v = np.swapaxes(w_cross @ (np.eye(3) - rot), -1, -2)  # row i is w x (I - R) e_i
    g = (w[..., None, None] * w_cross[:, None] + _skew(v)) / np.where(series, 1.0, theta2)
    return np.where(series, _UNIT_SKEWS, g)


class _Reprojection:
    """Reprojection residuals with refined poses and their analytic Jacobian.

    Parameters are the family coefficients, then each view's (axis_angle,
    translation).  Residuals are measured minus projected pixels, ordered
    (view, point, u/v), infinite behind the camera.  A state holds all views
    at once, their R and one monomial table, whose product with ``weights``
    is the displacements.  The last one is kept: the Jacobian, asked for only
    at the start and at accepted steps, reuses it for ``coefficients`` times
    the table and one polynomial of the weights.  Frozen poses are the affine
    ``_FrozenDesign`` instead.
    """

    def __init__(self, scene: Scene, obs: Observations, family):
        self.family = family
        self.intrinsics = scene.intrinsics
        self.points = scene.target_points
        self.meas = obs.pixels
        self._last = None  # (x, state) of the last evaluated vector

    def _state(self, x: np.ndarray):
        if self._last is not None and np.array_equal(self._last[0], x):
            return self._last[1]
        p = self.family.dimension
        cam, rot = _to_camera(self.points, x[p:].reshape(-1, 6))
        state = None
        if np.all(cam[..., 2] > 0):
            xn, yn = cam[..., 0] / cam[..., 2], cam[..., 1] / cam[..., 2]
            z = xn + 1j * yn
            table = _monomials(z.ravel(), self.family.keys)
            w = self.family.weights(x[:p])
            r = (self.meas - _pixels(self.intrinsics, xn, yn, (w @ table).reshape(z.shape))).ravel()
            state = (w, table, rot, cam, z, r)
        self._last = (x.copy(), state)
        return state

    def __call__(self, x: np.ndarray) -> np.ndarray:
        state = self._state(x)
        return np.full(self.meas.size, math.inf) if state is None else state[-1]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        w, table, rot, cam, z, _ = self._state(x)
        p, (n_views, n, _) = self.family.dimension, cam.shape
        jac = np.zeros((self.meas.size, x.size))
        jac[:, :p] = _jacobian_rows(self.intrinsics, self.family.coefficients(x[:p]) @ table)
        # A step dz of the normalized point moves the distorted point
        # by dz + f_z dz + f_zbar conj(dz).
        f_z, f_zc = (f[:, None] for f in ComplexPoly(dict(zip(self.family.keys, w))).wirtinger(z))
        poses = x[p:].reshape(n_views, 6)
        # Camera-frame point velocities (view, parameter, point, xyz): G_i R X
        # per rotation parameter, the unit vector e_i per translation parameter.
        vel = np.empty((n_views, 6, n, 3))
        rx = cam - poses[:, None, 3:]  # R X
        vel[:, :3] = rx[:, None] @ np.swapaxes(_rotation_derivatives(poses[:, :3], rot), -1, -2)
        vel[:, 3:] = np.eye(3)[:, None, :]
        dz = (vel[..., 0] + 1j * vel[..., 1] - z[:, None] * vel[..., 2]) / cam[:, None, :, 2]
        # Each entry rounds as in a one-view pass: numpy's reuse of temporaries may make a
        # product in place, which rounds apart only on a lone element (see poly._EVAL_BLOCK).
        dw = dz + f_z * dz + f_zc * np.conj(dz)
        blocks = jac[:, p:].reshape(n_views, 2 * n, n_views, 6)  # a view; zero off the diagonal
        blocks[range(n_views), :, range(n_views)] = _jacobian_rows(self.intrinsics, dw)
        return jac


def _check_geometry(scene: Scene, obs: Observations) -> None:
    if obs.n_views != len(scene.poses) or obs.n_points != scene.n_points:
        raise ValueError("observations do not match the scene geometry")


def fit(scene: Scene, obs: Observations, family, options: FitOptions | None = None) -> FitReport:
    """Fit one model family to the observations.

    ``family`` may be a ModelSpace, a SharedAxisFamily, or a family name
    accepted by ``parse_family``.  Poses stay frozen at the scene geometry
    unless ``options.refine_poses`` is set; intrinsics are always frozen.
    """
    refine_poses = options is not None and options.refine_poses
    family = _as_family(family)
    _check_geometry(scene, obs)
    p = family.dimension
    if refine_poses:
        problem = _Reprojection(scene, obs, family)
        start = np.zeros(p) if family.linear else family.start(_FrozenDesign(scene, obs, family.keys))
        x0 = np.concatenate([start, _pack_poses(scene.poses)])
        fun, jacobian = problem, problem.jacobian
    else:
        design = _FrozenDesign(scene, obs, family.keys)
        if family.linear:
            coeffs, residuals, (v, inv) = design.solve(family.matrix)
            return _report_from_residuals(residuals, obs, coeffs, p, 1, True, v, inv)
        x0 = family.start(design)
        fun, jacobian = partial(design, family), partial(design.jacobian, family)
    x, r, iterations, converged = _levenberg_marquardt(fun, x0, jacobian)
    x = np.concatenate([family.canonical(x[:p]), x[p:]])
    # Frozen: R of J = QR has J's singular values and vectors. Refined: poses eliminated per view.
    jac = _pose_eliminated(jacobian(x), p) if refine_poses else np.linalg.qr(jacobian(x), mode="r")
    _, v, inv = _solve_truncated(jac, np.zeros(len(jac)))
    return _report_from_residuals(r, obs, x, p, iterations, converged, v, inv)


def compare(
    scene: Scene,
    obs: Observations,
    families: Sequence,
    options: FitOptions | None = None,
) -> list[CompareRow]:
    """Fit every family, frozen linear ones on one design, and tabulate rms and property columns."""
    from .symmetry import classify

    families = [_as_family(entry) for entry in families]
    _check_geometry(scene, obs)
    groups = {}  # the frozen linear families' indices by dimension, one stacked solve each
    for i, family in enumerate(families):
        if family.linear and not (options and options.refine_poses):
            groups.setdefault(family.dimension, []).append(i)
    rms_of = {}
    if groups:
        keys = coefficient_keys(f for g in groups.values() for i in g for f in families[i].basis)
        design = _FrozenDesign(scene, obs, keys)
        for group in groups.values():
            bases = [coefficient_matrix(families[i].basis, keys).view(complex) for i in group]
            rms_of.update(zip(group, map(_rms, design.solve(np.array(bases))[1])))
    rows = []
    for i, family in enumerate(families):
        if i in rms_of:
            rms, converged = rms_of[i], True
        else:
            report = fit(scene, obs, family, options)
            rms, converged = report.rms_px, report.converged
        if family.linear:
            cls = classify(family)
            rri_flag, rsf_flag = cls.rotation_invariant, cls.rsf
        else:
            rri_flag, rsf_flag = family.rri, family.rsf
        rows.append(
            CompareRow(
                label=family.label,
                n_params=family.dimension,
                linear=family.linear,
                rri=rri_flag,
                rsf=rsf_flag,
                rms_px=rms,
                converged=converged,
            )
        )
    return rows


# The sweep space's (5, 5) coefficients at phi: cos phi A + sin phi B over z^2 and z zbar, A and
# B mixed_quadratic's rows at (p, q) = (1, 0) and (0, 1), each at t = 1 and i; rri3 follows.
_SWEEP_KEYS = ((2, 0), (1, 1), (2, 1), (3, 2), (4, 3))
_SWEEP_A, _SWEEP_B = (
    coefficient_matrix([mixed_quadratic(p, q, *t) for t in np.eye(2)], _SWEEP_KEYS[:2]).view(complex)
    for p, q in np.eye(2)
)
# A frozen sweep solves its phi in stacks of at most this many, so its memory stays
# bounded at any step count.
_SWEEP_CHUNK = 64


def _sweep_matrix(phi: float) -> np.ndarray:
    matrix = np.eye(5, dtype=complex)
    matrix[:2, :2] = math.cos(phi) * _SWEEP_A + math.sin(phi) * _SWEEP_B
    return matrix


def _mixed_rri_space(phi: float) -> ModelSpace:
    basis = (ComplexPoly(dict(zip(_SWEEP_KEYS, row))) for row in _sweep_matrix(phi))
    return ModelSpace(tuple(basis), f"mixed_quadratic(phi={phi:.12g})+rri3")


def sweep_axis_ratio(
    scene: Scene,
    obs: Observations,
    phis: Sequence[float],
    options: FitOptions | None = None,
) -> list[tuple[float, float]]:
    """(phi, rms) per finite phi: the radial/tangential blend (cos phi : sin phi) plus
    rri3, each row that phi's own ``fit``, frozen ones on one design over ``_SWEEP_KEYS``."""
    phis = [float(phi) for phi in phis]
    if not phis:
        raise ValueError("need at least one phi value")
    if bad := [phi for phi in phis if not math.isfinite(phi)]:
        raise ValueError(f"phi must be finite, got {bad[0]}")
    if options is not None and options.refine_poses:
        return [(phi, fit(scene, obs, _mixed_rri_space(phi), options).rms_px) for phi in phis]
    _check_geometry(scene, obs)
    # No rank check: the quadratic rows are orthogonal, of norm 1/sqrt(2), off rri3's monomials.
    design = _FrozenDesign(scene, obs, _SWEEP_KEYS)
    rows = []
    for start in range(0, len(phis), _SWEEP_CHUNK):
        chunk = phis[start:start + _SWEEP_CHUNK]
        residuals = design.solve(np.array([_sweep_matrix(phi) for phi in chunk]))[1]
        rows += zip(chunk, map(_rms, residuals))
    return rows


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def scene_to_json(scene: Scene) -> dict:
    return {
        "format": SCENE_FORMAT,
        "version": SCENE_VERSION,
        "target": {"rows": scene.rows, "cols": scene.cols, "spacing": scene.spacing},
        "poses": [
            {"axis_angle": list(p.axis_angle), "t": list(p.translation)}
            for p in scene.poses
        ],
        "intrinsics": asdict(scene.intrinsics),
        "truth": model_to_json(scene.truth, form="complex"),
        "sigma": scene.noise_sigma,
        "seed": scene.seed,
    }


def scene_from_json(data) -> Scene:
    check_header(data, "scene", SCENE_FORMAT, SCENE_VERSION)
    try:
        target = data["target"]
        poses = tuple(
            Pose(tuple(entry["axis_angle"]), tuple(entry["t"])) for entry in data["poses"]
        )
        intr = data["intrinsics"]
        return Scene(
            rows=operator.index(target["rows"]),
            cols=operator.index(target["cols"]),
            spacing=float(target["spacing"]),
            poses=poses,
            intrinsics=Intrinsics(
                float(intr["fx"]), float(intr["fy"]), float(intr["cx"]), float(intr["cy"])
            ),
            truth=model_from_json(data["truth"]),
            noise_sigma=float(data["sigma"]),
            seed=data["seed"],
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed scene JSON: {err}") from err


def load_scene(path) -> Scene:
    return scene_from_json(load_json(path))


def save_scene(path, scene: Scene) -> None:
    save_json(path, scene_to_json(scene))


_OBSERVATION_HEADER = ["view", "point", "u", "v"]


def write_observations_csv(path, obs: Observations) -> None:
    write_csv(
        path,
        _OBSERVATION_HEADER,
        ((v, i, u, w) for v in range(obs.n_views) for i, (u, w) in enumerate(obs.pixels[v])),
    )


def read_observations_csv(path) -> Observations:
    rows: dict[tuple[int, int], tuple[float, float]] = {}
    for view, point, u, v in read_csv(path, _OBSERVATION_HEADER):
        key = (int(view), int(point))
        if min(key) < 0 or key in rows:
            raise ValueError(f"{path}: negative or repeated index in row {key}")
        rows[key] = (float(u), float(v))
    if not rows:
        raise ValueError(f"{path}: no observations")
    n_views = max(k[0] for k in rows) + 1
    n_points = max(k[1] for k in rows) + 1
    if len(rows) != n_views * n_points:
        raise ValueError(f"{path}: incomplete observation table")
    pixels = np.empty((n_views, n_points, 2))
    for (v, i), uv in rows.items():
        pixels[v, i] = uv
    return Observations(pixels)
