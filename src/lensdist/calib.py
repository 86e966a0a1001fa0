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
minimizing the summed squared reprojection residuals.  Linear families with
frozen poses have residuals affine in the coefficients and are solved
directly by a truncated SVD least squares; everything else goes through
Levenberg-Marquardt with a central-difference Jacobian (relative step 1e-6,
initial lambda 1e-3, times 10 on reject, divided by 10 on accept, stop at
relative cost decrease below 1e-12 or 200 iterations).  Non-convergence is
reported through ``converged=False``, never silently.

Residual evaluation is sequential with a fixed accumulation order, so every
fit is reproducible regardless of environment.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .families import (
    DistortionFunction,
    ModelSpace,
    full_poly_space,
    mixed_quadratic,
    named_space,
    rri,
    rri_space,
    space_sum,
    symmetric_cubic,
    symmetric_quadratic,
    CATALOG_NAMES,
)
from .poly import model_from_json, model_to_json

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
    "LinearFamily",
    "SharedAxisFamily",
    "parse_family",
    "TABLE_FAMILIES",
    "fit",
    "compare",
    "sweep_axis_ratio",
    "numeric_jacobian",
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
_BAD_RESIDUAL = 1e6


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
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


def rotation_matrix(axis_angle) -> np.ndarray:
    """Rodrigues rotation matrix for an axis-angle vector."""
    rvec = np.asarray(axis_angle, dtype=float)
    theta = float(np.linalg.norm(rvec))
    kx, ky, kz = rvec
    skew = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    if theta < 1e-8:
        # Series expansion keeps the zero-rotation case exact.
        a = 1.0 - theta**2 / 6.0
        b = 0.5 - theta**2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta**2
    return np.eye(3) + a * skew + b * (skew @ skew)


def target_grid(rows: int, cols: int, spacing: float) -> np.ndarray:
    """Planar rows x cols grid on z = 0, centered at the origin, row-major."""
    if rows < 2 or cols < 2:
        raise ValueError("target needs at least 2 rows and 2 columns")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    pts = [(x, y, 0.0) for y in ys for x in xs]
    return np.asarray(pts, dtype=float)


@dataclass(frozen=True)
class Scene:
    """Synthetic capture setup: planar target, poses, camera, truth, noise."""

    rows: int
    cols: int
    spacing: float
    poses: tuple[Pose, ...]
    intrinsics: Intrinsics
    truth: DistortionFunction
    noise_sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))
        if len(self.poses) < 4:
            raise ValueError("need at least 4 poses for fitting")
        if self.rows * self.cols < 12:
            raise ValueError("need at least 12 target points")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        pts = self.target_points
        for i, pose in enumerate(self.poses):
            depths = pts @ rotation_matrix(pose.axis_angle).T[:, 2] + pose.translation[2]
            if np.any(depths <= 0):
                raise ValueError(f"pose {i} places target points behind the camera")

    @property
    def target_points(self) -> np.ndarray:
        return target_grid(self.rows, self.cols, self.spacing)

    @property
    def n_points(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class Observations:
    """Measured pixels per view; every target point observed in every view."""

    pixels: np.ndarray  # shape (n_views, n_points, 2)

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError(f"pixels must have shape (views, points, 2), got {arr.shape}")
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

    def to_json_dict(self) -> dict:
        return {
            "rms_px": self.rms_px,
            "coefficients": list(self.coefficients),
            "iterations": self.iterations,
            "converged": self.converged,
            "per_view_rms": list(self.per_view_rms),
            "std_errors": list(self.std_errors),
        }


@dataclass(frozen=True)
class FitOptions:
    refine_poses: bool = False
    max_iter: int = 200
    lambda0: float = 1e-3
    cost_tol: float = 1e-12
    jac_rel_step: float = 1e-6
    force_lm: bool = False


@dataclass(frozen=True)
class CompareRow:
    label: str
    n_params: int
    linear: bool
    rri: bool
    rsf: bool
    rms_px: float
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "n_params": self.n_params,
            "linear": self.linear,
            "rri": self.rri,
            "rsf": self.rsf,
            "rms_px": self.rms_px,
            "converged": self.converged,
        }


# --------------------------------------------------------------------------
# Projection and synthesis
# --------------------------------------------------------------------------


def _normalized_view(pose: Pose, points3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cam = points3 @ rotation_matrix(pose.axis_angle).T + np.asarray(pose.translation)
    depths = cam[:, 2]
    if np.any(depths <= 0):
        raise ValueError("point behind camera (nonpositive depth)")
    return cam[:, 0] / depths, cam[:, 1] / depths


def project_points(
    intrinsics: Intrinsics, pose: Pose, func: DistortionFunction, points3
) -> np.ndarray:
    """Pixel projections of an (N, 3) array of target points."""
    pts = np.asarray(points3, dtype=float).reshape(-1, 3)
    xn, yn = _normalized_view(pose, pts)
    dx, dy = func.displacement(xn, yn)
    u = intrinsics.fx * (xn + dx) + intrinsics.cx
    v = intrinsics.fy * (yn + dy) + intrinsics.cy
    return np.stack([u, v], axis=1)


def project(intrinsics: Intrinsics, pose: Pose, func: DistortionFunction, point3):
    """Pixel projection of a single 3D point."""
    uv = project_points(intrinsics, pose, func, np.asarray(point3, float).reshape(1, 3))
    return float(uv[0, 0]), float(uv[0, 1])


def synthesize(scene: Scene) -> Observations:
    """Noisy observations of the scene; identical seeds give identical output."""
    pts = scene.target_points
    views = np.stack(
        [project_points(scene.intrinsics, pose, scene.truth, pts) for pose in scene.poses]
    )
    rng = np.random.default_rng(scene.seed)
    noise = rng.normal(0.0, 1.0, size=views.shape) * scene.noise_sigma
    return Observations(views + noise)


def default_scene(
    truth: DistortionFunction | None = None,
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
        truth=truth if truth is not None else DistortionFunction.zero(),
        noise_sigma=noise_sigma,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Model families for fitting
# --------------------------------------------------------------------------


class LinearFamily:
    """Fit wrapper for a linear model space; coefficients are basis weights."""

    linear = True

    def __init__(self, space: ModelSpace):
        self.space = space
        self.label = space.label
        self.n_params = space.dimension

    def build(self, coeffs) -> DistortionFunction:
        return self.space.member(coeffs)

    def starts(self) -> list[np.ndarray]:
        return [np.zeros(self.n_params)]


class SharedAxisFamily:
    """Nonlinear mirror-symmetric family with one shared axis angle.

    Parameters (10): axis angle theta, quadratic amplitudes (a, b, c), cubic
    amplitudes (d, e, f, g), and two higher invariant radial coefficients
    (degrees 5 and 7); d doubles as the degree-3 radial coefficient, so the
    radial rotationally invariant part has three coefficients in total.
    """

    linear = False
    label = "sym_quad_cubic_rri3"
    n_params = 10
    # Declared classification (the family is not a vector space).
    rri = False
    rsf = True

    def build(self, coeffs) -> DistortionFunction:
        theta, a, b, c, d, e, f, g, a2, a3 = (float(v) for v in coeffs)
        return (
            symmetric_quadratic(theta, a, b, c)
            + symmetric_cubic(theta, d, e, f, g)
            + rri([0.0, a2, a3])
        )

    def starts(self) -> list[np.ndarray]:
        starts = []
        for theta in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            x0 = np.zeros(self.n_params)
            x0[0] = theta
            starts.append(x0)
        return starts


_RRI_PATTERN = re.compile(r"rri(\d+)")

_PART_BUILDERS: dict[str, Callable[[], ModelSpace]] = {
    "full_quad": lambda: full_poly_space([2], label="full_quad"),
    "full_cubic": lambda: full_poly_space([3], label="full_cubic"),
    "full_quad_cubic": lambda: full_poly_space([2, 3], label="full_quad_cubic"),
}


def _part_space(part: str) -> ModelSpace:
    if part in CATALOG_NAMES:
        return named_space(part)
    if part in _PART_BUILDERS:
        return _PART_BUILDERS[part]()
    match = _RRI_PATTERN.fullmatch(part)
    if match:
        return rri_space(int(match.group(1)))
    raise ValueError(f"unknown model family part {part!r}")


def parse_family(name: str):
    """Resolve a family name: catalog spaces, rriN, full_* spaces, '+' sums,
    and the nonlinear shared-axis family 'sym_quad_cubic_rri3'."""
    if name == SharedAxisFamily.label:
        return SharedAxisFamily()
    parts = name.split("+")
    if not all(parts):
        raise ValueError(f"malformed family name {name!r}")
    space = reduce(space_sum, (_part_space(p) for p in parts))
    if space.label != name:
        space = space.relabeled(name)
    return LinearFamily(space)


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


def numeric_jacobian(fun, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-parameter step rel_step * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp = np.asarray(fun(xp), dtype=float)
        cols.append((fp - np.asarray(fun(xm), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


def _solve_truncated(matrix: np.ndarray, rhs: np.ndarray, rcond: float = _SVD_RCOND) -> np.ndarray:
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(matrix.shape[1])
    inv = np.zeros_like(s)
    keep = s > rcond * s[0]
    inv[keep] = 1.0 / s[keep]
    return vt.T @ ((u.T @ rhs) * inv)


def _levenberg_marquardt(fun, x0, options: FitOptions):
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(fun(x), dtype=float)
    cost = float(r @ r)
    lam = options.lambda0
    iterations = 0
    converged = False
    n = x.size
    while iterations < options.max_iter:
        iterations += 1
        jac = numeric_jacobian(fun, x, options.jac_rel_step)
        grad = jac.T @ r
        hess = jac.T @ jac
        improved = False
        while lam <= 1e12:
            delta = _solve_truncated(hess + lam * np.eye(n), grad)
            x_try = x - delta
            r_try = np.asarray(fun(x_try), dtype=float)
            cost_try = float(r_try @ r_try)
            if math.isfinite(cost_try) and cost_try < cost:
                rel_decrease = (cost - cost_try) / max(cost, 1e-300)
                x, r, cost = x_try, r_try, cost_try
                lam = max(lam / 10.0, 1e-15)
                improved = True
                if rel_decrease < options.cost_tol:
                    converged = True
                break
            lam *= 10.0
        if not improved:
            # No descent direction at available precision: at a minimum.
            converged = True
            break
        if converged:
            break
    return x, r, iterations, converged


def _report_from_residuals(
    residuals: np.ndarray,
    n_views: int,
    n_points: int,
    coeffs: np.ndarray,
    iterations: int,
    converged: bool,
    jac: np.ndarray,
) -> FitReport:
    m = residuals.size
    rms = float(math.sqrt(float(residuals @ residuals) / m))
    per_view = residuals.reshape(n_views, n_points, 2)
    per_view_rms = tuple(
        float(math.sqrt(np.mean(per_view[v] ** 2))) for v in range(n_views)
    )
    dof = max(m - coeffs.size, 1)
    sigma2 = float(residuals @ residuals) / dof
    cov = sigma2 * np.linalg.pinv(jac.T @ jac, rcond=_SVD_RCOND)
    std = tuple(float(v) for v in np.sqrt(np.clip(np.diag(cov), 0.0, None)))
    return FitReport(
        rms_px=rms,
        coefficients=tuple(float(c) for c in coeffs),
        iterations=iterations,
        converged=converged,
        per_view_rms=per_view_rms,
        std_errors=std,
    )


def _fit_linear_frozen(scene: Scene, obs: Observations, family: LinearFamily) -> FitReport:
    pts = scene.target_points
    intr = scene.intrinsics
    norm_views = [_normalized_view(pose, pts) for pose in scene.poses]
    xn = np.concatenate([v[0] for v in norm_views])
    yn = np.concatenate([v[1] for v in norm_views])

    u0 = intr.fx * xn + intr.cx
    v0 = intr.fy * yn + intr.cy
    meas = obs.pixels.reshape(-1, 2)
    rhs = np.stack([meas[:, 0] - u0, meas[:, 1] - v0], axis=1).ravel()

    columns = []
    for basis_func in family.space.basis:
        dx, dy = basis_func.displacement(xn, yn)
        columns.append(np.stack([intr.fx * dx, intr.fy * dy], axis=1).ravel())
    design = np.column_stack(columns)

    coeffs = _solve_truncated(design, rhs)
    residuals = rhs - design @ coeffs
    return _report_from_residuals(
        residuals,
        obs.n_views,
        obs.n_points,
        coeffs,
        iterations=1,
        converged=True,
        jac=design,
    )


def _pack_poses(poses: Sequence[Pose]) -> np.ndarray:
    return np.concatenate([np.concatenate([p.axis_angle, p.translation]) for p in poses])


def _unpack_poses(vec: np.ndarray, n_views: int) -> list[Pose]:
    out = []
    for v in range(n_views):
        chunk = vec[6 * v : 6 * v + 6]
        out.append(Pose(tuple(chunk[:3]), tuple(chunk[3:])))
    return out


def _fit_lm(scene: Scene, obs: Observations, family, options: FitOptions) -> FitReport:
    pts = scene.target_points
    intr = scene.intrinsics
    meas = obs.pixels
    n_views = obs.n_views
    p = family.n_params

    def residual_fn(x):
        func = family.build(x[:p])
        poses = _unpack_poses(x[p:], n_views) if options.refine_poses else scene.poses
        out = np.empty((n_views, pts.shape[0], 2))
        for v, pose in enumerate(poses):
            try:
                out[v] = meas[v] - project_points(intr, pose, func, pts)
            except ValueError:
                return np.full(n_views * pts.shape[0] * 2, _BAD_RESIDUAL)
        return out.ravel()

    pose_init = _pack_poses(scene.poses) if options.refine_poses else np.zeros(0)
    best = None
    for start in family.starts():
        x0 = np.concatenate([start, pose_init])
        x, r, iterations, converged = _levenberg_marquardt(residual_fn, x0, options)
        cost = float(r @ r)
        if best is None or cost < best[0]:
            best = (cost, x, r, iterations, converged)
    _, x, r, iterations, converged = best
    jac = numeric_jacobian(residual_fn, x, options.jac_rel_step)
    return _report_from_residuals(
        r, n_views, obs.n_points, x[:p], iterations, converged, jac[:, :p]
    )


def fit(scene: Scene, obs: Observations, family, options: FitOptions | None = None) -> FitReport:
    """Fit one model family to the observations.

    ``family`` may be a ModelSpace, a LinearFamily/SharedAxisFamily, or a
    family name accepted by ``parse_family``.  Poses stay frozen at the scene
    geometry unless ``options.refine_poses`` is set; intrinsics are always
    frozen.
    """
    opts = options if options is not None else FitOptions()
    if isinstance(family, str):
        family = parse_family(family)
    elif isinstance(family, ModelSpace):
        family = LinearFamily(family)
    if obs.n_views != len(scene.poses) or obs.n_points != scene.n_points:
        raise ValueError("observations do not match the scene geometry")
    if family.linear and not opts.refine_poses and not opts.force_lm:
        return _fit_linear_frozen(scene, obs, family)
    return _fit_lm(scene, obs, family, opts)


def compare(
    scene: Scene,
    obs: Observations,
    families: Sequence,
    options: FitOptions | None = None,
) -> list[CompareRow]:
    """Fit every family and tabulate rms with the geometric property columns."""
    from .symmetry import classify

    rows = []
    for entry in families:
        family = parse_family(entry) if isinstance(entry, str) else entry
        if isinstance(family, ModelSpace):
            family = LinearFamily(family)
        report = fit(scene, obs, family, options)
        if family.linear:
            cls = classify(family.space)
            rri_flag, rsf_flag = cls.rotation_invariant, cls.rsf
        else:
            rri_flag, rsf_flag = family.rri, family.rsf
        rows.append(
            CompareRow(
                label=family.label,
                n_params=family.n_params,
                linear=family.linear,
                rri=rri_flag,
                rsf=rsf_flag,
                rms_px=report.rms_px,
                converged=report.converged,
            )
        )
    return rows


def _mixed_rri_space(phi: float) -> ModelSpace:
    p, q = math.cos(phi), math.sin(phi)
    quad = ModelSpace(
        (mixed_quadratic(p, q, 1.0, 0.0), mixed_quadratic(p, q, 0.0, 1.0)),
        f"mixed_quadratic(phi={phi:.12g})",
    )
    return space_sum(quad, rri_space(3), label=f"mixed_quadratic(phi={phi:.12g})+rri3")


def sweep_axis_ratio(
    scene: Scene,
    obs: Observations,
    phis: Sequence[float],
    options: FitOptions | None = None,
) -> list[tuple[float, float]]:
    """Fit the radial/tangential blend (cos phi : sin phi) plus 3-coefficient
    invariant radial model for each phi; returns (phi, rms) pairs."""
    if len(phis) == 0:
        raise ValueError("need at least one phi value")
    out = []
    for phi in phis:
        report = fit(scene, obs, LinearFamily(_mixed_rri_space(float(phi))), options)
        out.append((float(phi), report.rms_px))
    return out


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
        "intrinsics": {
            "fx": scene.intrinsics.fx,
            "fy": scene.intrinsics.fy,
            "cx": scene.intrinsics.cx,
            "cy": scene.intrinsics.cy,
        },
        "truth": model_to_json(scene.truth.poly, form="complex"),
        "sigma": scene.noise_sigma,
        "seed": scene.seed,
    }


def scene_from_json(data) -> Scene:
    if not isinstance(data, dict):
        raise ValueError("scene JSON must be an object")
    if data.get("format") != SCENE_FORMAT:
        raise ValueError(f"expected format {SCENE_FORMAT!r}, got {data.get('format')!r}")
    if data.get("version") != SCENE_VERSION:
        raise ValueError(f"unsupported scene version {data.get('version')!r}")
    try:
        target = data["target"]
        poses = tuple(
            Pose(tuple(entry["axis_angle"]), tuple(entry["t"])) for entry in data["poses"]
        )
        intr = data["intrinsics"]
        return Scene(
            rows=int(target["rows"]),
            cols=int(target["cols"]),
            spacing=float(target["spacing"]),
            poses=poses,
            intrinsics=Intrinsics(
                float(intr["fx"]), float(intr["fy"]), float(intr["cx"]), float(intr["cy"])
            ),
            truth=DistortionFunction.from_poly(model_from_json(data["truth"])),
            noise_sigma=float(data["sigma"]),
            seed=int(data["seed"]),
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed scene JSON: {err}") from err


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON ({err})") from err
    return scene_from_json(data)


def save_scene(path, scene: Scene) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_json(scene), fh, indent=2)
        fh.write("\n")


def write_observations_csv(path, obs: Observations) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view", "point", "u", "v"])
        for v in range(obs.n_views):
            for i in range(obs.n_points):
                writer.writerow(
                    [
                        v,
                        i,
                        format(obs.pixels[v, i, 0], ".17g"),
                        format(obs.pixels[v, i, 1], ".17g"),
                    ]
                )


def read_observations_csv(path) -> Observations:
    rows: dict[tuple[int, int], tuple[float, float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["view", "point", "u", "v"]:
            raise ValueError(f"{path}: expected header 'view,point,u,v', got {header!r}")
        for row in reader:
            if not row:
                continue
            rows[(int(row[0]), int(row[1]))] = (float(row[2]), float(row[3]))
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
