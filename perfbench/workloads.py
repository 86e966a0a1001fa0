"""Seeded inputs, jobs and oracles of the benchmark workloads.

Job ``j`` of a run draws its inputs from ``numpy.random.default_rng([seed, j])``,
so a seed fixes the whole job stream.  Job 0 is the warm-up job of set-up; the
timed and traced phases start at job 1.

Jobs reach the program only through module attributes (``calib.fit``,
``warp.invert``, ...), so the tracer's wrappers see every call.  Oracles never
call the program: they recompute what they need with numpy from the generated
inputs, and return a list of reasons, empty when the job is correct.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import dataclasses
import io
import json
import math
import os

import numpy as np

from lensdist import calib, cli, families, poly, warp


# --------------------------------------------------------------------------
# Independent model evaluation and projection (oracle side)
# --------------------------------------------------------------------------


def truth_terms(s1: float, s2: float, alphas) -> dict:
    """Complex coefficients of decentering(s1, s2) + rri(alphas).

    decentering is conj(s) z^2 + 2 s z zbar with s = s1 + i s2; rri
    coefficient j multiplies z^(j+1) zbar^j.
    """
    s = complex(s1, s2)
    terms = {(2, 0): s.conjugate(), (1, 1): 2 * s}
    for j, a in enumerate(alphas, start=1):
        terms[(j + 1, j)] = complex(a)
    return terms


def forward(terms: dict, xy: np.ndarray) -> np.ndarray:
    """Forward image p + G(p) of an (N, 2) array under a complex coefficient dict."""
    z = xy[:, 0] + 1j * xy[:, 1]
    zc = np.conj(z)
    w = z.copy()
    for (k, l), c in terms.items():
        w += c * z**k * zc**l
    return np.stack([w.real, w.imag], axis=1)


def _rotation(axis_angle) -> np.ndarray:
    r = np.asarray(axis_angle, dtype=float)
    theta = float(np.linalg.norm(r))
    if theta == 0.0:
        return np.eye(3)
    kx, ky, kz = r / theta
    k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def truth_rms(scene, terms: dict, pixels: np.ndarray) -> float:
    """Reprojection rms of the ground-truth model at the true poses."""
    xs = (np.arange(scene.cols) - (scene.cols - 1) / 2.0) * scene.spacing
    ys = (np.arange(scene.rows) - (scene.rows - 1) / 2.0) * scene.spacing
    gx, gy = np.meshgrid(xs, ys)
    target = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    intr = scene.intrinsics
    residuals = []
    for pose, meas in zip(scene.poses, pixels):
        cam = target @ _rotation(pose.axis_angle).T + np.asarray(pose.translation)
        xy = forward(terms, cam[:, :2] / cam[:, 2:3])
        uv = np.stack([intr.fx * xy[:, 0] + intr.cx, intr.fy * xy[:, 1] + intr.cy], axis=1)
        residuals.append(meas - uv)
    r = np.concatenate(residuals).ravel()
    return math.sqrt(float(r @ r) / r.size)


def _draw_truth(rng) -> tuple[float, float, tuple[float, float, float]]:
    s1, s2 = (float(v) for v in rng.uniform(-0.03, 0.03, size=2))
    alphas = (
        float(rng.uniform(-0.15, 0.15)),
        float(rng.uniform(-0.05, 0.05)),
        float(rng.uniform(-0.01, 0.01)),
    )
    return s1, s2, alphas


def _build_truth(s1, s2, alphas):
    return families.decentering(s1, s2) + families.rri(alphas)


def _scene_job(seed: int, job: int) -> dict:
    """Truth coefficients and noise seed of one calibration scene."""
    rng = np.random.default_rng([seed, job])
    s1, s2, alphas = _draw_truth(rng)
    return {"s1": s1, "s2": s2, "alphas": alphas, "noise_seed": int(rng.integers(2**31))}


# --------------------------------------------------------------------------
# calibrate: the Levenberg-Marquardt path
# --------------------------------------------------------------------------


class Calibrate:
    """One truth in decentering+rri3 on the default rig, sigma = 0.2 px, fitted
    by the 53-parameter refine-poses fit and the 10-parameter shared-axis fit."""

    trace_jobs = 3
    fits = (
        ("decentering+rri3", True, 5),
        ("sym_quad_cubic_rri3", False, 10),
    )

    def make_job(self, seed: int, job: int) -> dict:
        return _scene_job(seed, job)

    def run(self, job: dict) -> dict:
        truth = _build_truth(job["s1"], job["s2"], job["alphas"])
        scene = calib.default_scene(truth, noise_sigma=0.2, seed=job["noise_seed"])
        obs = calib.synthesize(scene)
        reports = [
            calib.fit(scene, obs, family, calib.FitOptions(refine_poses=refine))
            for family, refine, _ in self.fits
        ]
        return {"scene": scene, "pixels": obs.pixels, "reports": reports}

    def check(self, job: dict, out: dict) -> list[str]:
        limit = truth_rms(
            out["scene"], truth_terms(job["s1"], job["s2"], job["alphas"]), out["pixels"]
        )
        reasons = []
        for (family, _, n_coeffs), report in zip(self.fits, out["reports"]):
            if len(report.coefficients) != n_coeffs:
                reasons.append(f"{family}: {len(report.coefficients)} coefficients")
            if not report.rms_px <= limit:
                reasons.append(f"{family}: rms {report.rms_px:.9g} above truth rms {limit:.9g}")
        return reasons

    def perturb(self, job: dict, out: dict) -> dict:
        worse = dataclasses.replace(out["reports"][0], rms_px=out["reports"][0].rms_px * 1.1)
        return {**out, "reports": [worse] + out["reports"][1:]}


# --------------------------------------------------------------------------
# survey: the CLI over linear fits, classification and space construction
# --------------------------------------------------------------------------

# TABLE_FAMILIES without the nonlinear shared-axis family, with the
# (n_params, linear, rri, rsf) columns the CLI printed for them when the
# benchmark was defined.  These columns do not depend on the scene.
SURVEY_TABLE = {
    "rri1": (1, True, True, True),
    "rri2": (2, True, True, True),
    "rri3": (3, True, True, True),
    "rri4": (4, True, True, True),
    "rri5": (5, True, True, True),
    "decentering+rri3": (5, True, False, True),
    "thin_prism+rri3": (5, True, False, True),
    "radial_quad+rri3": (5, True, False, True),
    "weng+rri3": (7, True, False, False),
    "full_quad_cubic+rri3": (16, True, False, False),
}
SWEEP_STEPS = 12
NEST_RTOL = 1e-9


class Survey:
    """Write a seeded scene, then run the CLI ``bench`` over the 10 linear
    table families and ``sweep`` in-process with stdout captured."""

    trace_jobs = 20

    def __init__(self, workdir: str):
        self.scene_path = os.path.join(workdir, "scene.json")
        self.bench_path = os.path.join(workdir, "bench.json")
        self.sweep_path = os.path.join(workdir, "sweep.csv")

    def make_job(self, seed: int, job: int) -> dict:
        return _scene_job(seed, job)

    def run(self, job: dict) -> dict:
        truth = _build_truth(job["s1"], job["s2"], job["alphas"])
        calib.save_scene(self.scene_path, calib.default_scene(truth, 0.2, job["noise_seed"]))
        with contextlib.redirect_stdout(io.StringIO()):
            bench_rc = cli.main(
                ["bench", "--scene", self.scene_path, "--families", ",".join(SURVEY_TABLE),
                 "--out", self.bench_path]
            )
            sweep_rc = cli.main(
                ["sweep", "--scene", self.scene_path, "--steps", str(SWEEP_STEPS),
                 "--out", self.sweep_path]
            )
        with open(self.bench_path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        with open(self.sweep_path, encoding="utf-8", newline="") as fh:
            sweep = list(csv.reader(fh))
        return {"rc": (bench_rc, sweep_rc), "rows": rows, "sweep": sweep}

    def check(self, job: dict, out: dict) -> list[str]:
        reasons = []
        if out["rc"] != (0, 0):
            reasons.append(f"exit codes {out['rc']}")
        got = {
            row["label"]: (row["n_params"], row["linear"], row["rri"], row["rsf"])
            for row in out["rows"]
        }
        if got != SURVEY_TABLE:
            diff = sorted(k for k in set(got) | set(SURVEY_TABLE) if got.get(k) != SURVEY_TABLE.get(k))
            reasons.append(f"bench columns differ from the pinned table for {diff}")
        rms = {row["label"]: row["rms_px"] for row in out["rows"]}
        chain = [rms.get(f"rri{n}", math.nan) for n in range(1, 6)]
        for n, (a, b) in enumerate(zip(chain, chain[1:]), start=1):
            if not b <= a * (1.0 + NEST_RTOL):
                reasons.append(f"rms rises from rri{n} ({a!r}) to rri{n + 1} ({b!r})")
        sweep = out["sweep"]
        if not sweep or sweep[0] != ["phi", "rms"]:
            reasons.append("sweep CSV header is not phi,rms")
        finite = [
            r for r in sweep[1:]
            if len(r) == 2 and all(math.isfinite(float(v)) for v in r)
        ]
        if len(finite) != SWEEP_STEPS or len(sweep) != SWEEP_STEPS + 1:
            reasons.append(f"sweep has {len(finite)} finite rows, want {SWEEP_STEPS}")
        return reasons

    def perturb(self, job: dict, out: dict) -> dict:
        rows = [dict(row) for row in out["rows"]]
        rows[-1]["rsf"] = not rows[-1]["rsf"]
        return {**out, "rows": rows}


# --------------------------------------------------------------------------
# undistort: batch inversion and a large forward map
# --------------------------------------------------------------------------

INVERT_POINTS = 400
GRID_SIDE = 256
GRID_HALF = 0.63  # grid corners at radius 0.89
ROUND_TRIP_TOL = 1e-9
FORWARD_TOL = 1e-12
FORWARD_SAMPLES = 256


def _disc_points(rng, n: int, radius: float = 0.9) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _high_degree_terms(rng) -> dict:
    # Two monomials of every degree 2..16 with |gamma| <= 0.015 / n, so
    # sum n |gamma| <= 0.45 on the unit disc: |DG| < 1 there, F is injective
    # and Newton from the target converges to the drawn source point.
    terms = {}
    for n in range(2, poly.MAX_DEGREE + 1):
        for k in rng.choice(n + 1, size=2, replace=False):
            mag = rng.uniform(0.5, 1.0) * 0.015 / n
            terms[(int(k), n - int(k))] = mag * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return terms


class Undistort:
    """Invert a batch of targets through a degree-7 and a degree-16 model and
    forward-map a 256 x 256 grid through the degree-16 model."""

    trace_jobs = 20

    def make_job(self, seed: int, job: int) -> dict:
        rng = np.random.default_rng([seed, job])
        s1, s2, alphas = _draw_truth(rng)
        low_terms = truth_terms(s1, s2, alphas)
        high_terms = _high_degree_terms(rng)
        low_src = _disc_points(rng, INVERT_POINTS)
        high_src = _disc_points(rng, INVERT_POINTS)
        coords = np.linspace(-GRID_HALF, GRID_HALF, GRID_SIDE) + rng.uniform(-1e-3, 1e-3)
        gx, gy = np.meshgrid(coords, coords)
        return {
            "low": (s1, s2, alphas),
            "low_terms": low_terms,
            "high_terms": high_terms,
            "low_src": low_src,
            "high_src": high_src,
            "low_targets": forward(low_terms, low_src),
            "high_targets": forward(high_terms, high_src),
            "grid": np.stack([gx.ravel(), gy.ravel()], axis=1),
        }

    @staticmethod
    def _invert_all(func, targets) -> list:
        out = []
        for t in targets:
            try:
                out.append(warp.invert(func, t))
            except (warp.NoConvergence, warp.SingularJacobian):
                out.append(None)
        return out

    def run(self, job: dict) -> dict:
        low = _build_truth(*job["low"])
        high = families.DistortionFunction.from_poly(poly.ComplexPoly(job["high_terms"]))
        return {
            "low": self._invert_all(low, job["low_targets"]),
            "high": self._invert_all(high, job["high_targets"]),
            "image": warp.apply_distortion(high, job["grid"]),
        }

    def check(self, job: dict, out: dict) -> list[str]:
        reasons = []
        for name in ("low", "high"):
            solved = out[name]
            ok = np.array([q is not None for q in solved])
            q = np.array([p if p is not None else (math.nan, math.nan) for p in solved])
            residual = np.hypot(*(forward(job[f"{name}_terms"], q) - job[f"{name}_targets"]).T)
            error = np.hypot(*(q - job[f"{name}_src"]).T)
            bad = ~(ok & (residual <= ROUND_TRIP_TOL) & (error <= ROUND_TRIP_TOL))
            if bad.any():
                reasons.append(f"{name}: {int(bad.sum())} of {len(solved)} inverted points fail")
        image = out["image"]
        grid = job["grid"]
        if len(image) != len(grid):
            reasons.append(f"forward map returned {len(image)} of {len(grid)} points")
        else:
            idx = np.random.default_rng(len(grid)).choice(len(grid), FORWARD_SAMPLES, replace=False)
            got = np.array([image[i] for i in idx])
            want = forward(job["high_terms"], grid[idx])
            if not np.all(np.abs(got - want) <= FORWARD_TOL):
                reasons.append("forward map differs from the oracle")
        return reasons

    def perturb(self, job: dict, out: dict) -> dict:
        low = list(out["low"])
        x, y = low[0]
        low[0] = (x + 1e-7, y)
        return {**out, "low": low}


def make(name: str, workdir: str):
    if name == "calibrate":
        return Calibrate()
    if name == "survey":
        return Survey(workdir)
    if name == "undistort":
        return Undistort()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("calibrate", "survey", "undistort")
