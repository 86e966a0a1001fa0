"""Synthetic calibration: projection, synthesis, fitting, comparison, sweep."""

import copy
import json
import math
import operator
import pickle
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, replace
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lensdist import calib
from lensdist.calib import (
    FitOptions,
    Intrinsics,
    Observations,
    Pose,
    Scene,
    default_scene,
    parse_family,
    project,
    read_observations_csv,
    rotation_matrix,
    scene_from_json,
    scene_to_json,
    synthesize,
    target_grid,
    write_observations_csv,
)
from lensdist.families import (
    CATALOG_NAMES,
    IrreducibleSpec,
    ModelSpace,
    coefficient_keys,
    coefficient_matrix,
    decentering,
    irreducible_space,
    mixed_quadratic,
    named_space,
    rri,
    rri_space,
    space_sum,
    symmetric_cubic,
    symmetric_quadratic,
)
from lensdist.poly import ComplexPoly
from lensdist.symmetry import classify

TRUTH = decentering(0.02, -0.01) + rri([0.08, -0.02, 0.005])
TRUE_COEFFS = np.array([0.02, -0.01, 0.08, -0.02, 0.005])

from conftest import conjugated


@pytest.fixture(scope="module")
def noisy_setup():
    scene = default_scene(truth=TRUTH, noise_sigma=0.2, seed=0)
    return scene, synthesize(scene)


def numeric_jacobian(fun, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-parameter step rel_step * max(1, |x_i|);
    the oracle for the analytic Jacobians of the fits."""
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


# -- geometry -------------------------------------------------------------------


def test_rotation_matrix_properties():
    rng = np.random.default_rng(60)
    assert np.array_equal(rotation_matrix([0, 0, 0]), np.eye(3))
    for _ in range(20):
        rvec = rng.normal(size=3)
        r = rotation_matrix(rvec)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_target_grid_centered():
    pts = target_grid(6, 9, 0.08)
    assert pts.shape == (54, 3)
    assert np.allclose(pts.mean(axis=0), 0.0, atol=1e-15)
    assert np.all(pts[:, 2] == 0.0)


def test_target_grid_is_the_list_of_points_bit_for_bit():
    for rows, cols, spacing in ((6, 9, 0.08), (2, 2, 1.0), (5, 4, 0.3), (7, 3, 1e-3)):
        xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing
        ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing
        want = np.asarray([(x, y, 0.0) for y in ys for x in xs], dtype=float)
        got = target_grid(rows, cols, spacing)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_target_grid_rejects_a_spacing_that_overflows():
    # The 2 x 5 grid reaches 2 * 1e308 from its center; the 2 x 2 one only 5e307.
    with pytest.raises(ValueError, match="spacing"):
        target_grid(2, 5, 1e308)
    assert target_grid(2, 2, 1e308)[0, 0] == -5e307
    data = scene_to_json(default_scene(truth=TRUTH))
    data["target"]["spacing"] = 1e308
    with pytest.raises(ValueError, match="spacing"):
        scene_from_json(data)


def test_project_examples():
    intr = Intrinsics(1000, 1000, 640, 360)
    pose = Pose((0, 0, 0), (0, 0, 0))
    ident = ComplexPoly.zero()
    assert project(intr, pose, ident, (0, 0, 1)) == pytest.approx((640, 360))
    assert project(intr, pose, ident, (0.1, 0, 1)) == pytest.approx((740, 360))
    u, v = project(intr, pose, rri([0.1]), (0.1, 0, 1))
    assert u == pytest.approx(740.1, abs=1e-9)
    assert v == pytest.approx(360.0, abs=1e-9)


def test_project_rejects_nonpositive_depth():
    intr = Intrinsics(1000, 1000, 640, 360)
    pose = Pose((0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        project(intr, pose, ComplexPoly.zero(), (0, 0, -1))


def test_scene_validation():
    with pytest.raises(ValueError):
        default_scene(noise_sigma=-0.1)
    poses = (Pose((0, 0, 0), (0, 0, 1.0)),) * 3
    with pytest.raises(ValueError):
        Scene(6, 9, 0.08, poses, Intrinsics(800, 800, 640, 360),
              ComplexPoly.zero(), 0.0, 0)
    behind = (Pose((0, 0, 0), (0, 0, -1.0)),) * 4
    with pytest.raises(ValueError):
        Scene(6, 9, 0.08, behind, Intrinsics(800, 800, 640, 360),
              ComplexPoly.zero(), 0.0, 0)
    # A negative seed would fail only later, in np.random.default_rng, and a
    # boolean one would be read as 0 or 1.
    for seed in (-1, True, False):
        with pytest.raises(ValueError):
            default_scene(truth=TRUTH, seed=seed)


def test_scene_names_the_first_pose_behind_the_camera():
    poses = list(default_scene().poses)
    poses[5] = Pose(poses[5].axis_angle, (*poses[5].translation[:2], -1.0))
    with pytest.raises(ValueError, match="^pose 5 places target points behind the camera$"):
        replace(default_scene(), poses=tuple(poses))
    # Tilted 1.4 rad, the target's far edge passes behind the camera.
    poses[2] = Pose((0.0, 1.4, 0.0), (*poses[2].translation[:2], 0.1))
    with pytest.raises(ValueError, match="^pose 2 places target points behind the camera$"):
        replace(default_scene(), poses=tuple(poses))


def test_scene_camera_points_are_the_projection_transform():
    scene = default_scene(truth=TRUTH, noise_sigma=0.0, seed=5)
    cam = scene.camera_points
    assert cam.shape == (len(scene.poses), scene.n_points, 3)
    assert scene.camera_points is cam
    with pytest.raises(ValueError, match="read-only"):
        cam[0, 0, 0] = 1.0
    pts = scene.target_points
    for pose, view in zip(scene.poses, cam, strict=True):
        want = pts @ rotation_matrix(pose.axis_angle).T + np.asarray(pose.translation)
        assert view.tobytes() == want.tobytes()
    # synthesize reads them, and its pixels are project_points' bit for bit.
    pixels = synthesize(scene).pixels
    for pose, view in zip(scene.poses, pixels, strict=True):
        want = calib.project_points(scene.intrinsics, pose, TRUTH, pts)
        assert view.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
)
def test_models_spaces_and_scenes_pickle_and_copy(clone):
    # Each is rebuilt by its constructor: caches stay behind and arrays stay read-only.
    model = ComplexPoly({(2, 0): 1.0, (1, 1): -0.25j, (9, 7): 0.5 - 2e-3j})
    points = [0.3 - 0.4j, complex(-0.0, 0.7), complex(0.6, -0.0)]
    bits = [np.array([model.evaluate(z), *model.wirtinger(z)]).tobytes() for z in points]
    copied = clone(model)
    assert copied == model
    assert [np.array([copied.evaluate(z), *copied.wirtinger(z)]).tobytes() for z in points] == bits
    real = model.to_real()
    copied = clone(real)
    assert list(copied.blocks) == list(real.blocks)
    for n, block in copied.blocks.items():
        assert block.tobytes() == real.blocks[n].tobytes() and not block.flags.writeable
    space = parse_family("decentering+rri3")
    copied = clone(space)
    assert copied == space and copied.keys == space.keys
    for name in ("matrix", "windings", "unit", "span"):
        assert getattr(copied, name).tobytes() == getattr(space, name).tobytes()
        assert not getattr(copied, name).flags.writeable
    scene = default_scene(truth=TRUTH, noise_sigma=0.2, seed=5)
    cam = scene.camera_points
    copied = clone(scene)
    assert copied == scene
    assert copied.camera_points.tobytes() == cam.tobytes()
    assert not copied.camera_points.flags.writeable
    assert synthesize(copied).pixels.tobytes() == synthesize(scene).pixels.tobytes()


def test_models_spaces_and_scenes_hash_and_observations_compare():
    # Terms are stored sorted, so equal models hash alike whatever order they came in.
    model = ComplexPoly({(2, 0): 1.0, (1, 1): -0.25j, (3, 2): 0.5})
    reordered = ComplexPoly({(3, 2): 0.5, (1, 1): -0.25j, (2, 0): 1.0})
    assert model == reordered and len({model, reordered}) == 1
    table = {parse_family("rri3"): "space", default_scene(): "scene"}
    assert table[rri_space(3)] == "space" and table[default_scene()] == "scene"
    # Observations compare by identity: an array has no single truth value.
    obs = synthesize(default_scene())
    copied = Observations(obs.pixels.copy())
    assert obs == obs and obs != copied and len({obs, copied}) == 2


# -- synthesis -------------------------------------------------------------------


def test_synthesize_zero_noise_exact():
    scene = default_scene(truth=TRUTH, noise_sigma=0.0, seed=5)
    obs = synthesize(scene)
    expected = calib.project_points(
        scene.intrinsics, scene.poses[0], TRUTH, scene.target_points
    )
    assert np.array_equal(obs.pixels[0], expected)


def test_synthesize_deterministic():
    scene = default_scene(truth=TRUTH, noise_sigma=0.2, seed=7)
    a = synthesize(scene)
    b = synthesize(scene)
    assert np.array_equal(a.pixels, b.pixels)
    c = synthesize(default_scene(truth=TRUTH, noise_sigma=0.2, seed=8))
    assert not np.array_equal(a.pixels, c.pixels)


def test_synthesize_noise_statistics():
    scene = default_scene(truth=TRUTH, noise_sigma=0.2, seed=11)
    obs = synthesize(scene)
    clean = synthesize(default_scene(truth=TRUTH, noise_sigma=0.0, seed=11))
    noise = obs.pixels - clean.pixels
    assert abs(noise.std() - 0.2) < 0.02


# -- fitting ---------------------------------------------------------------------


def test_fit_zero_truth_recovers_zero():
    scene = default_scene(truth=ComplexPoly.zero(), noise_sigma=0.0, seed=0)
    obs = synthesize(scene)
    report = calib.fit(scene, obs, "rri3")
    assert report.rms_px < 1e-8
    assert np.max(np.abs(report.coefficients)) < 1e-8
    assert report.converged


def test_fit_exact_family_zero_noise_identifiability():
    scene = default_scene(truth=TRUTH, noise_sigma=0.0, seed=0)
    obs = synthesize(scene)
    report = calib.fit(scene, obs, "decentering+rri3")
    assert report.rms_px < 1e-7
    assert np.max(np.abs(np.array(report.coefficients) - TRUE_COEFFS)) < 1e-6


def test_fit_recovery_within_three_standard_errors(noisy_setup):
    scene, obs = noisy_setup
    report = calib.fit(scene, obs, "decentering+rri3")
    assert 0.18 <= report.rms_px <= 0.22
    err = np.array(report.coefficients) - TRUE_COEFFS
    assert np.all(np.abs(err) <= 3.0 * np.array(report.std_errors))
    assert len(report.per_view_rms) == 8


@pytest.mark.parametrize(
    "chain, refine_poses",
    [(["rri1", "rri2", "rri3", "decentering+rri3"], False), (["rri3", "rri4", "rri5"], True)],
    ids=["frozen", "refine_poses"],
)
def test_fit_nested_chain_monotone(noisy_setup, chain, refine_poses):
    scene, obs = noisy_setup
    options = FitOptions(refine_poses=refine_poses)
    rms = [calib.fit(scene, obs, name, options).rms_px for name in chain]
    for smaller, larger_family in zip(rms, rms[1:]):
        assert larger_family <= smaller + 1e-9
    if refine_poses:
        # Nesting holds at stationary points; cond(J) is about 1e5 (rri4)
        # and 2e6 (rri5), so a step that drops J's weak directions stops early.
        for name in chain[1:]:
            family = parse_family(name)
            p = family.dimension
            problem = calib._Reprojection(scene, obs, family)
            x0 = np.concatenate([np.zeros(p), calib._pack_poses(scene.poses)])
            x, r, _, _ = calib._levenberg_marquardt(problem, x0, problem.jacobian)
            jac = problem.jacobian(x)
            scaled = np.abs(jac.T @ r) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(r))
            assert np.max(scaled) < 1e-6, name


def test_fit_deterministic(noisy_setup):
    scene, obs = noisy_setup
    a = calib.fit(scene, obs, "decentering+rri3")
    b = calib.fit(scene, obs, "decentering+rri3")
    assert a == b


def _lm_problem(scene, obs, family, refine_poses: bool):
    """The residual function and Jacobian that ``fit``'s Levenberg-Marquardt
    runs on: the refined reprojection, or the frozen design bound to the family."""
    if refine_poses:
        problem = calib._Reprojection(scene, obs, family)
        return problem, problem.jacobian
    design = calib._FrozenDesign(scene, obs, family.keys)
    return partial(design, family), partial(design.jacobian, family)


def test_fast_path_matches_generic_lm(noisy_setup):
    scene, obs = noisy_setup
    fam = parse_family("decentering+rri3")
    fast = calib.fit(scene, obs, fam)
    fun, jacobian = _lm_problem(scene, obs, fam, False)
    _, r, _, converged = calib._levenberg_marquardt(fun, np.zeros(5), jacobian)
    assert converged
    assert abs(fast.rms_px - math.sqrt(r @ r / r.size)) < 1e-8


def _counted(fun):
    """fun, and the list that gets one entry per call of it."""
    calls = []

    def counted(x):
        calls.append(x)
        return fun(x)

    return counted, calls


def test_lm_stops_when_lambda_passes_its_cap_without_descent():
    fun, calls = _counted(lambda x: np.ones(1))
    x, r, iterations, converged = calib._levenberg_marquardt(fun, np.zeros(1), lambda x: np.eye(1))
    # One iteration whose 16 trials, lambda 1e-3 to 1e12, all fail to descend.
    assert (iterations, converged, len(calls)) == (1, True, 17)
    assert x.tolist() == [0.0] and r.tolist() == [1.0]


def test_lm_stops_on_the_cost_test_at_the_least_squares_solution():
    a = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0]])
    b = np.array([1.0, -2.0, 3.0])
    fun, calls = _counted(lambda x: a @ x - b)
    x, r, iterations, converged = calib._levenberg_marquardt(fun, np.zeros(2), lambda x: a)
    # Every trial is accepted; the third decreases the cost by less than _COST_TOL.
    assert (iterations, converged, len(calls)) == (3, True, 4)
    np.testing.assert_allclose(x, np.linalg.lstsq(a, b, rcond=None)[0], rtol=0, atol=1e-14)


def test_lm_stops_after_max_iter_iterations_without_converging():
    # The Jacobian overstates the slope 1e6 times, so each step closes about 1e-6 of the gap.
    fun, calls = _counted(lambda x: x - 1)
    x, _, iterations, converged = calib._levenberg_marquardt(
        fun, np.zeros(1), lambda x: 1e6 * np.eye(1)
    )
    assert (iterations, converged, len(calls)) == (calib._MAX_ITER, False, calib._MAX_ITER + 1)
    assert 0 < x[0] < 1e-3


def test_fit_with_pose_refinement():
    scene = default_scene(truth=TRUTH, noise_sigma=0.05, seed=3)
    obs = synthesize(scene)
    report = calib.fit(scene, obs, "decentering+rri3", FitOptions(refine_poses=True))
    assert report.converged
    assert report.rms_px <= 0.06


def test_fit_accepts_model_space_directly(noisy_setup):
    scene, obs = noisy_setup
    report = calib.fit(scene, obs, named_space("rri3"))
    assert report.converged


def test_fit_rejects_mismatched_observations(noisy_setup):
    scene, obs = noisy_setup
    with pytest.raises(ValueError):
        calib.fit(scene, Observations(obs.pixels[:4]), "rri3")


def _reprojection_residuals(scene, obs, func) -> np.ndarray:
    """Measured minus projected pixels at the scene's poses, view by view
    through project_points: the oracle of the frozen-pose residuals."""
    pts, intr = scene.target_points, scene.intrinsics
    return np.concatenate(
        [(meas - calib.project_points(intr, pose, func, pts)).ravel()
         for meas, pose in zip(obs.pixels, scene.poses, strict=True)]
    )


def _basis_design(scene, obs, basis) -> tuple[np.ndarray, np.ndarray]:
    """The uncompressed frozen-pose design, one column per basis function
    evaluated on its own, and the residuals at zero: the residuals at c are
    rhs - design @ c.  The oracle of the frozen solves."""
    intr = scene.intrinsics
    rhs = _reprojection_residuals(scene, obs, ComplexPoly.zero())
    cam = np.concatenate([scene.target_points @ rotation_matrix(p.axis_angle).T + p.translation
                          for p in scene.poses])
    z = cam[:, 0] / cam[:, 2] + 1j * cam[:, 1] / cam[:, 2]
    columns = np.array([f.evaluate(z) for f in basis])
    design = np.stack([intr.fx * columns.real, intr.fy * columns.imag], axis=-1)
    return design.reshape(len(basis), -1).T, rhs


def test_numeric_jacobian_matches_exact_linear_jacobian(noisy_setup):
    # With poses frozen the residuals are affine in the coefficients, so the
    # exact Jacobian is minus the basis design -[fx dx_i, fy dy_i].
    scene, obs = noisy_setup
    fam = parse_family("decentering+rri3")
    exact = -_basis_design(scene, obs, fam.basis)[0]
    x = np.random.default_rng(61).normal(scale=0.01, size=5)
    numeric = numeric_jacobian(lambda c: _reprojection_residuals(scene, obs, fam.member(c)), x)
    assert numeric.shape == exact.shape
    scale = np.maximum(np.abs(exact), 1.0)
    assert np.max(np.abs(numeric - exact) / scale) < 1e-6


LINEAR_TABLE_FAMILIES = tuple(n for n in calib.TABLE_FAMILIES if parse_family(n).linear)


@st.composite
def linear_families(draw):
    """Catalog spaces, the linear table families, sweep spaces and '+' sums."""
    kind = draw(st.sampled_from(["catalog", "table", "sweep", "sum"]))
    if kind == "catalog":
        return draw(st.sampled_from(CATALOG_NAMES))
    if kind == "table":
        return draw(st.sampled_from(LINEAR_TABLE_FAMILIES))
    if kind == "sweep":
        return calib._mixed_rri_space(draw(st.floats(0.0, math.pi)))
    names = CATALOG_NAMES + ("rri1", "rri2", "rri5", "full_quad", "full_cubic")
    return "+".join(draw(st.lists(st.sampled_from(names), min_size=2, max_size=3, unique=True)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=linear_families())
def test_frozen_linear_fit_matches_lstsq_on_the_basis_design(noisy_setup, family):
    # The oracle is the uncompressed design, one column per basis function
    # evaluated on its own, solved by np.linalg.lstsq.
    scene, obs = noisy_setup
    family = calib._as_family(family)
    report = calib.fit(scene, obs, family)
    design, rhs = _basis_design(scene, obs, family.basis)
    coeffs = np.linalg.lstsq(design, rhs, rcond=None)[0]
    residuals = rhs - design @ coeffs
    rms = math.sqrt(residuals @ residuals / rhs.size)
    sigma2 = residuals @ residuals / (rhs.size - family.dimension)
    std = np.sqrt(sigma2 * np.sum(np.linalg.pinv(design) ** 2, axis=1))
    assert abs(report.rms_px - rms) <= 1e-12 * rms
    got = np.array(report.coefficients)
    assert np.max(np.abs(got - coeffs)) <= 1e-9 * np.max(np.abs(coeffs))
    assert np.max(np.abs(report.std_errors - std)) <= 1e-9 * np.max(std)


@st.composite
def frozen_problems(draw):
    """A catalog space, a linear table family or the shared-axis family at a
    drawn axis, with drawn coefficients."""
    kind = draw(st.sampled_from(["catalog", "table", "shared_axis"]))
    if kind == "shared_axis":
        family = calib.SharedAxisFamily()
    else:
        family = parse_family(draw(st.sampled_from(CATALOG_NAMES if kind == "catalog"
                                                   else LINEAR_TABLE_FAMILIES)))
    size = family.dimension
    x = np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=size, max_size=size)))
    if not family.linear:
        x[0] = draw(st.floats(-10.0, 10.0))
    return family, x


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(problem=frozen_problems())
def test_frozen_design_matches_the_reprojection_oracle(noisy_setup, problem):
    # rhs + M w(x) on the scene's monomial design is measured minus projected
    # pixels of the built model.
    scene, obs = noisy_setup
    family, x = problem
    want = _reprojection_residuals(scene, obs, family.member(x))
    got = calib._FrozenDesign(scene, obs, family.keys)(family, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    theta=st.floats(-10.0, 10.0),
    phi=st.floats(-10.0, 10.0),
    amplitudes=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
)
def test_shared_axis_members_obey_the_phase_law(theta, phi, amplitudes):
    # Turning the axis by phi turns the member by phi: rotated(-phi).
    family = calib.SharedAxisFamily()
    turned = family.member(np.array([theta + phi, *amplitudes]))
    want = family.member(np.array([theta, *amplitudes])).rotated(-phi)
    assert turned.isclose(want, tol=1e-12)


def test_rotation_derivatives_match_central_differences():
    rng = np.random.default_rng(62)
    for w in [np.zeros(3)] + [rng.normal(scale=0.5, size=3) for _ in range(5)]:
        rot = rotation_matrix(w)
        exact = calib._rotation_derivatives(w[None], rot[None])[0] @ rot
        for i, e in enumerate(np.eye(3)):
            numeric = numeric_jacobian(lambda t: rotation_matrix(w + t[0] * e).ravel(), [0.0])
            assert np.max(np.abs(numeric[:, 0] - exact[i].ravel())) < 1e-8


def _skew_one(v) -> np.ndarray:
    kx, ky, kz = v
    return np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])


def _rotation_one(w) -> np.ndarray:
    """Rodrigues for one axis-angle vector, with the series below 1e-8: the
    oracle of the batched rotation_matrix."""
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    skew = _skew_one(w)
    if theta < 1e-8:
        a, b = 1.0 - theta**2 / 6.0, 0.5 - theta**2 / 24.0
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta**2
    return np.eye(3) + a * skew + b * (skew @ skew)


def _rotation_derivatives_one(w) -> np.ndarray:
    """G_i of one vector (Gallego and Yezzi, 2015), [e_i]x in the series
    case: the oracle of the batched rotation derivatives."""
    w = np.asarray(w, dtype=float)
    theta2 = float(w @ w)
    if math.sqrt(theta2) < 1e-8:
        return np.stack([_skew_one(e) for e in np.eye(3)])
    w_cross = _skew_one(w)
    v = w_cross @ (np.eye(3) - _rotation_one(w))
    return np.stack([(w[i] * w_cross + _skew_one(v[:, i])) / theta2 for i in range(3)])


def test_batched_pose_math_is_the_one_vector_math_bit_for_bit():
    rng = np.random.default_rng(64)
    stack = np.array(
        [[0.0, 0.0, 0.0], [3e-9, 0.0, 0.0], [0.0, -2e-9, 2e-9]]
        + [rng.normal(scale=scale, size=3).tolist() for scale in (1e-3, 0.3, 2.0) for _ in range(7)]
    )
    stack = stack[rng.permutation(len(stack))]
    rot = rotation_matrix(stack)
    derivatives = calib._rotation_derivatives(stack, rot)
    assert rot.shape == (len(stack), 3, 3)
    assert derivatives.shape == (len(stack), 3, 3, 3)
    for w, r, g in zip(stack, rot, derivatives, strict=True):
        assert r.tobytes() == _rotation_one(w).tobytes()
        assert g.tobytes() == _rotation_derivatives_one(w).tobytes()
    for w in stack[:3]:
        assert rotation_matrix(w).shape == (3, 3)
        assert rotation_matrix(tuple(w)).tobytes() == _rotation_one(w).tobytes()
    assert rotation_matrix(stack.reshape(3, -1, 3)).tobytes() == rot.tobytes()


def _per_view_jacobian(problem, x) -> np.ndarray:
    """The refined-pose Jacobian built one view at a time from the one-vector
    rotation math, its Wirtinger derivatives from the polynomial of the
    family's weights: the oracle of ``_Reprojection.jacobian``."""
    family, intr, pts = problem.family, problem.intrinsics, problem.points
    p, n = family.dimension, len(pts)
    poses = x[p:].reshape(-1, 6)
    cam = np.concatenate([pts @ _rotation_one(c[:3]).T + c[3:] for c in poses])
    z = cam[:, 0] / cam[:, 2] + 1j * (cam[:, 1] / cam[:, 2])
    jac = np.zeros((2 * len(cam), x.size))
    columns = family.coefficients(x[:p]) @ calib._monomials(z, family.keys)
    jac[:, :p] = calib._jacobian_rows(intr, columns)
    f_z, f_zc = ComplexPoly(dict(zip(family.keys, family.weights(x[:p])))).wirtinger(z)
    for v, pose in enumerate(poses):
        rows, cols = slice(v * n, (v + 1) * n), slice(p + 6 * v, p + 6 * v + 6)
        vel = np.empty((6, n, 3))
        vel[:3] = (cam[rows] - pose[3:]) @ _rotation_derivatives_one(pose[:3]).transpose(0, 2, 1)
        vel[3:] = np.eye(3)[:, None, :]
        dz = (vel[..., 0] + 1j * vel[..., 1] - z[rows] * vel[..., 2]) / cam[rows, 2]
        dw = dz + f_z[rows] * dz + f_zc[rows] * np.conj(dz)
        jac[2 * v * n : 2 * (v + 1) * n, cols] = calib._jacobian_rows(intr, dw)
    return jac


@pytest.mark.parametrize("name", ["decentering+rri3", "sym_quad_cubic_rri3"])
def test_refined_jacobian_is_the_per_view_jacobian_bit_for_bit(name):
    poses = list(default_scene().poses)
    # Exact zero rotation (pose 0), and one that takes the series branch.
    poses[3] = Pose((3e-9, 0.0, 0.0), poses[3].translation)
    scene = replace(default_scene(truth=TRUTH, noise_sigma=0.2, seed=4), poses=tuple(poses))
    obs = synthesize(scene)
    family = parse_family(name)
    p, n_views, n = family.dimension, len(poses), scene.n_points
    rng = np.random.default_rng(65)
    x0 = np.concatenate([rng.normal(scale=0.02, size=p), calib._pack_poses(poses)])
    problem = calib._Reprojection(scene, obs, family)
    x_fit, _, _, _ = calib._levenberg_marquardt(problem, x0, problem.jacobian)
    for x in (x0, x_fit):
        jac = problem.jacobian(x)
        assert jac.tobytes() == _per_view_jacobian(problem, x).tobytes()
        blocks = jac[:, p:].reshape(n_views, 2 * n, n_views, 6)
        for v in range(n_views):
            assert np.any(blocks[v, :, v] != 0.0)
            assert not np.any(np.delete(blocks[v], v, axis=1))


def test_a_refined_fit_takes_one_rodrigues_pass_per_state(noisy_setup, monkeypatch):
    scene, obs = noisy_setup
    calls, states = [], set()
    rotation = calib.rotation_matrix
    monkeypatch.setattr(calib, "rotation_matrix", lambda w: calls.append(w) or rotation(w))
    for method in ("__call__", "jacobian"):
        def recording(self, x, _bound=getattr(calib._Reprojection, method)):
            states.add(x.tobytes())
            return _bound(self, x)
        monkeypatch.setattr(calib._Reprojection, method, recording)
    report = calib.fit(scene, obs, "decentering+rri3", FitOptions(refine_poses=True))
    assert report.converged
    assert len(states) > 1
    assert len(calls) == len(states)
    assert all(np.shape(w) == (len(scene.poses), 3) for w in calls)


@pytest.mark.parametrize(
    "name, refine_poses",
    [("sym_quad_cubic_rri3", False), ("sym_quad_cubic_rri3", True), ("decentering+rri3", True)],
)
def test_a_fit_builds_one_polynomial_per_refined_jacobian(noisy_setup, monkeypatch, name, refine_poses):
    # Residuals are the family's weights times a monomial table; only a refined
    # Jacobian makes the weights a ComplexPoly, for its Wirtinger derivatives.
    scene, obs = noisy_setup
    built = []
    init = ComplexPoly.__post_init__
    monkeypatch.setattr(ComplexPoly, "__post_init__", lambda self: built.append(self) or init(self))
    report = calib.fit(scene, obs, name, FitOptions(refine_poses=refine_poses))
    # One Jacobian per iteration, and the report's.
    assert len(built) == (report.iterations + 1 if refine_poses else 0)


def test_a_refined_fit_rejects_a_trial_behind_the_camera(monkeypatch):
    # The zero start costs more than 864 residuals of 1e6 px would, so only an
    # infinite residual makes the LM reject a trial that puts a point behind
    # the camera.
    scene = default_scene(rri([1e5]) + decentering(1e5 / 3, -2e4), 0.2, 1)
    residuals = []
    call = calib._Reprojection.__call__
    monkeypatch.setattr(
        calib._Reprojection, "__call__", lambda self, x: residuals.append(call(self, x)) or residuals[-1]
    )
    report = calib.fit(scene, synthesize(scene), "rri1", FitOptions(refine_poses=True))
    assert any(np.all(np.isinf(r)) for r in residuals)
    # The report is the best state evaluated, in front of the camera.
    assert math.isfinite(report.rms_px)
    assert report.rms_px == min(calib._rms(r) for r in residuals)


@pytest.mark.parametrize(
    "name, refine_poses",
    [("decentering+rri3", True), ("sym_quad_cubic_rri3", False)],
)
def test_analytic_jacobian_matches_central_differences(noisy_setup, name, refine_poses):
    scene, obs = noisy_setup
    # Pose 0 is exactly the zero rotation, where the rotation derivative
    # takes its special form.
    assert scene.poses[0].axis_angle == (0.0, 0.0, 0.0)
    family = parse_family(name)
    rng = np.random.default_rng(63)
    coeffs = rng.normal(scale=0.02, size=family.dimension)
    if not family.linear:
        coeffs[0] = 0.37  # a generic axis, off the scanned grid
    poses = calib._pack_poses(scene.poses) if refine_poses else np.zeros(0)
    x = np.concatenate([coeffs, poses])
    fun, jacobian = _lm_problem(scene, obs, family, refine_poses)
    analytic = jacobian(x)
    numeric = numeric_jacobian(fun, x)
    assert analytic.shape == numeric.shape == (obs.pixels.size, x.size)
    scale = np.maximum(np.abs(analytic), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-6


def test_refine_poses_std_errors_are_marginal_over_the_poses(noisy_setup):
    scene, obs = noisy_setup
    family = parse_family("decentering+rri3")
    report = calib.fit(scene, obs, family, FitOptions(refine_poses=True))
    # The same single-start solve, to recover the refined poses.
    problem = calib._Reprojection(scene, obs, family)
    x0 = np.concatenate([np.zeros(5), calib._pack_poses(scene.poses)])
    x, r, _, _ = calib._levenberg_marquardt(problem, x0, problem.jacobian)
    assert tuple(x[:5]) == report.coefficients
    jac = numeric_jacobian(problem, x)
    m, n = jac.shape
    assert n == 5 + 6 * len(scene.poses)
    cov = float(r @ r) / (m - n) * np.linalg.pinv(jac.T @ jac, rcond=1e-10)
    marginal = np.sqrt(np.diag(cov)[:5])
    assert np.allclose(report.std_errors, marginal, rtol=1e-6, atol=0.0)
    # Conditioning on known poses, as a frozen-pose fit does, understates them.
    coef = jac[:, :5]
    conditional = np.sqrt(np.diag(float(r @ r) / (m - 5) * np.linalg.pinv(coef.T @ coef)))
    assert np.all(marginal > 1.5 * conditional)


@pytest.mark.parametrize("name", ["rri4", "rri5"])
def test_refine_poses_std_errors_of_ill_conditioned_fits(noisy_setup, name):
    # cond(J) is about 1e5 (rri4) and 2e6 (rri5): squaring it in J^T J
    # loses the digits that these standard errors need.
    scene, obs = noisy_setup
    family = parse_family(name)
    p = family.dimension
    report = calib.fit(scene, obs, family, FitOptions(refine_poses=True))
    problem = calib._Reprojection(scene, obs, family)
    x0 = np.concatenate([np.zeros(p), calib._pack_poses(scene.poses)])
    x, r, _, _ = calib._levenberg_marquardt(problem, x0, problem.jacobian)
    assert tuple(x[:p]) == report.coefficients
    jac = numeric_jacobian(problem, x)
    m, n = jac.shape
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    assert s[-1] > 1e-10 * s[0]
    cov = float(r @ r) / (m - n) * (vt.T / s**2) @ vt
    assert np.allclose(report.std_errors, np.sqrt(np.diag(cov)[:p]), rtol=1e-5, atol=0.0)


def _dense_refined_report(scene, obs, family) -> calib.FitReport:
    """The refined fit reported from the truncated SVD of R in the dense QR of all
    p + 6 V Jacobian columns: the oracle for the report's per-view pose elimination."""
    p = family.dimension
    problem = calib._Reprojection(scene, obs, family)
    start = np.zeros(p) if family.linear else family.start(calib._FrozenDesign(scene, obs, family.keys))
    x0 = np.concatenate([start, calib._pack_poses(scene.poses)])
    x, r, iterations, converged = calib._levenberg_marquardt(problem, x0, problem.jacobian)
    x = np.concatenate([family.canonical(x[:p]), x[p:]])
    _, v, inv = calib._solve_truncated(np.linalg.qr(problem.jacobian(x), mode="r"), np.zeros(x.size))
    factor = v * inv
    sigma2 = float(r @ r) / (r.size - x.size)
    return calib.FitReport(
        rms_px=math.sqrt(float(r @ r) / r.size),
        coefficients=tuple(float(c) for c in x[:p]),
        iterations=iterations,
        converged=converged,
        per_view_rms=tuple(math.sqrt(np.mean(v**2)) for v in r.reshape(obs.n_views, -1, 2)),
        std_errors=tuple(np.sqrt(sigma2 * np.sum(factor[:p] ** 2, axis=1))),
    )


@pytest.mark.parametrize("name", calib.TABLE_FAMILIES)
def test_refine_poses_std_errors_equal_the_dense_factor(noisy_setup, name):
    # Eliminating each view's pose block leaves the coefficient block of the
    # dense pinv(J^T J); rri4 and rri5 (cond(J) about 1e5 and 2e6) keep fewer
    # digits.  Every other field is the same run of the same LM.
    family = parse_family(name)
    report = calib.fit(*noisy_setup, family, FitOptions(refine_poses=True))
    dense = _dense_refined_report(*noisy_setup, family)
    assert replace(report, std_errors=()) == replace(dense, std_errors=())
    rtol = 1e-9 if name in ("rri4", "rri5") else 1e-12
    assert np.allclose(report.std_errors, dense.std_errors, rtol=rtol, atol=0.0)


# The truths of the noise-model test, each in the family fitted to it: the
# README truth, and a shared-axis member with its axis well inside (0, pi).
NOISE_TRUTHS = {
    "decentering+rri3": TRUE_COEFFS,
    "sym_quad_cubic_rri3": np.array([0.6, 0.01, -0.008, 0.012, 0.08, 0.01, -0.006, 0.008, -0.02, 0.005]),
}
NOISE_SEEDS = 128


@pytest.mark.parametrize("refine", [False, True], ids=["frozen", "refined"])
@pytest.mark.parametrize("name", NOISE_TRUTHS)
def test_refine_poses_std_errors_match_the_noise(name, refine):
    # Refit NOISE_SEEDS seeded scenes at sigma = 0.2.  Each bound is 4 standard
    # deviations of sampling theory, fixed before the runs: the sample spread s of
    # N Gaussian estimates has sd(s) / sigma_c = 1 / sqrt(2 (N - 1)), their mean has
    # sd sigma_c / sqrt(N), and the estimated sigma over m - n degrees of freedom has
    # sd sigma / sqrt(2 (m - n)) per scene.
    family = parse_family(name)
    truth = NOISE_TRUTHS[name]
    reports = []
    for seed in range(NOISE_SEEDS):
        scene = default_scene(truth=family.member(truth), noise_sigma=0.2, seed=seed)
        reports.append(calib.fit(scene, synthesize(scene), family, FitOptions(refine_poses=refine)))
    coeffs = np.array([r.coefficients for r in reports])
    std_errors = np.array([r.std_errors for r in reports])
    reported = np.sqrt(np.mean(std_errors**2, axis=0))
    ratio = np.std(coeffs, axis=0, ddof=1) / reported
    assert np.all(np.abs(ratio - 1.0) <= 4.0 / math.sqrt(2 * (NOISE_SEEDS - 1))), ratio
    assert np.all(np.abs(coeffs.mean(axis=0) - truth) <= 4.0 * reported / math.sqrt(NOISE_SEEDS))
    # The sigma that the standard errors imply: over sqrt(diag(pinv(J^T J))) of J at the
    # truth, which every scene shares; each fit's own J differs by a zero-mean first-order term.
    if refine:
        problem = calib._Reprojection(scene, synthesize(scene), family)
        jac = problem.jacobian(np.concatenate([truth, calib._pack_poses(scene.poses)]))
    else:
        jac = calib._FrozenDesign(scene, synthesize(scene), family.keys).jacobian(family, truth)
    (m, n), p = jac.shape, truth.size
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    sigma = np.mean(std_errors / np.sqrt(np.sum((vt[:, :p] / s[:, None]) ** 2, axis=0)))
    assert abs(sigma / 0.2 - 1.0) <= 4.0 / math.sqrt(2 * (m - n) * NOISE_SEEDS), sigma


# -- family parsing -----------------------------------------------------------------


def test_parse_family_table_counts():
    expected = {
        "rri1": 1,
        "rri2": 2,
        "rri3": 3,
        "rri4": 4,
        "rri5": 5,
        "decentering+rri3": 5,
        "thin_prism+rri3": 5,
        "radial_quad+rri3": 5,
        "weng+rri3": 7,
        "sym_quad_cubic_rri3": 10,
        "full_quad_cubic+rri3": 16,
    }
    assert set(calib.TABLE_FAMILIES) == set(expected)
    for name, n in expected.items():
        assert parse_family(name).dimension == n, name


def test_parse_family_unknown():
    with pytest.raises(ValueError):
        parse_family("bogus")
    with pytest.raises(ValueError):
        parse_family("rri3+bogus")


def test_nonlinear_family_fit_recovers_symmetric_truth():
    from lensdist.families import symmetric_cubic, symmetric_quadratic

    truth = (
        symmetric_quadratic(0.6, 0.01, -0.004, 0.002)
        + symmetric_cubic(0.6, 0.08, 0.01, -0.005, 0.003)
        + rri([0.0, -0.02, 0.005])
    )
    scene = default_scene(truth=truth, noise_sigma=0.2, seed=1)
    obs = synthesize(scene)
    report = calib.fit(scene, obs, "sym_quad_cubic_rri3")
    assert report.converged
    assert report.rms_px < 0.22


def _shared_axis_reference(theta, a, b, c, d, e, f, g, a2, a3) -> ComplexPoly:
    # The shared-axis member assembled from its three families at the axis:
    # the oracle for SharedAxisFamily.member and its amplitude derivatives.
    return (
        symmetric_quadratic(theta, a, b, c)
        + symmetric_cubic(theta, d, e, f, g)
        + rri([0.0, a2, a3])
    )


def _bits(poly: ComplexPoly) -> list:
    return [(key, c.real.hex(), c.imag.hex()) for key, c in poly.terms.items()]


def test_shared_axis_build_matches_the_three_family_sum_bit_for_bit():
    family = calib.SharedAxisFamily()
    disc = np.random.default_rng(66)
    z = np.sqrt(disc.random(64)) * np.exp(2j * math.pi * disc.random(64))
    rng = np.random.default_rng(65)
    table = np.array([ComplexPoly({kl: 1.0}).evaluate(z) for kl in family.keys])
    edge_thetas = (0.0, -0.0, 1e3, -1e3, 999.9, -1000.3)
    for i in range(1200):
        coeffs = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=10)
        if i % 3 == 0:
            coeffs[0] = edge_thetas[(i // 3) % len(edge_thetas)]
        coeffs[1:][rng.random(9) < 0.2] = 0.0
        if i % 5 == 0:  # equal amplitudes cancel the (2, 0) and (3, 0) terms
            coeffs[2], coeffs[6] = coeffs[1], coeffs[5]
        if i % 97 == 0:
            coeffs[1:] = 0.0
        values = [float(v) for v in coeffs]
        want = _shared_axis_reference(*values)
        got = family.member(coeffs)
        assert _bits(got) == _bits(want), coeffs
        # The axis column is minus the rotation generator: gamma_kl times -i (k - l - 1).
        turn = ComplexPoly({(k, l): -1j * (k - l - 1) * c for (k, l), c in want.terms.items()})
        derivs = [turn] + [
            _shared_axis_reference(values[0], *unit) for unit in np.eye(9)
        ]
        # The columns follow the phase law, so they match to rounding.
        columns = family.coefficients(coeffs) @ table
        for column, poly in zip(columns, derivs, strict=True):
            reference = poly.evaluate(z)
            assert np.linalg.norm(column - reference) <= 1e-12 * np.linalg.norm(reference), coeffs


def test_shared_axis_canonical_form_is_the_same_function():
    family = calib.SharedAxisFamily()
    rng = np.random.default_rng(64)
    for theta in (-7.0, -0.464, 0.0, 1.2, math.pi, 2.677, 9.5):
        coeffs = np.concatenate([[theta], rng.normal(scale=0.02, size=9)])
        canon = family.canonical(coeffs)
        assert 0.0 <= canon[0] < math.pi
        assert np.array_equal(canon[4:], coeffs[4:])
        assert family.member(canon).isclose(family.member(coeffs), tol=1e-14)
    shifted = np.array([0.5 + math.pi, -1.0, -2.0, -3.0, 4, 5, 6, 7, 8, 9])
    assert np.allclose(family.canonical(shifted), [0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    # divmod(-1e-300, pi) is (-1.0, pi): that axis is axis 0 with the amplitudes as they are.
    assert divmod(-1e-300, math.pi) == (-1.0, math.pi)
    amplitudes = [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert family.canonical([-1e-300, *amplitudes]).tolist() == [0.0, *amplitudes]


def _four_start_fit(scene, obs, refine_poses: bool):
    """The shared-axis fit by one LM from each of the axes 0, pi/4, pi/2 and
    3 pi/4, keeping the lowest cost: the oracle for the axis-scan start.
    Returns the rms and whether the kept LM converged."""
    family = calib.SharedAxisFamily()
    fun, jacobian = _lm_problem(scene, obs, family, refine_poses)
    poses = calib._pack_poses(scene.poses) if refine_poses else np.zeros(0)
    fits = []
    for k in range(4):
        x0 = np.concatenate([[k * math.pi / 4], np.zeros(9), poses])
        _, r, _, converged = calib._levenberg_marquardt(fun, x0, jacobian)
        fits.append((float(r @ r), converged))
    cost, converged = min(fits, key=lambda f: f[0])
    return math.sqrt(cost / obs.pixels.size), converged


@pytest.mark.parametrize(
    "truth, seed, refine_poses",
    [
        # Two minima in the axis profile; rms 0.19687941247136928.
        (
            symmetric_quadratic(0.6, 0.01, -0.02, 0.005)
            + symmetric_cubic(0.6, 0.05, 0.01, -0.01, 0.003),
            1,
            False,
        ),
        # Three minima; a 16-axis scan lands in a worse one (rms +1.2e-4).
        (rri([0.1]), 2, False),
        (
            symmetric_quadratic(0.6, 0.01, -0.004, 0.002)
            + symmetric_cubic(0.6, 0.08, 0.01, -0.005, 0.003)
            + rri([0.0, -0.02, 0.005]),
            1,
            False,
        ),
        (TRUTH, 0, True),
    ],
    ids=["two_minima", "three_minima", "symmetric_truth", "refine_poses"],
)
def test_shared_axis_fit_is_no_worse_than_four_starts(truth, seed, refine_poses):
    scene = default_scene(truth, 0.2, seed)
    obs = synthesize(scene)
    report = calib.fit(scene, obs, "sym_quad_cubic_rri3", FitOptions(refine_poses=refine_poses))
    rms, converged = _four_start_fit(scene, obs, refine_poses)
    assert report.rms_px <= rms * (1 + 1e-10)
    assert report.converged or not converged


def _per_axis_scan_costs(scene, obs) -> np.ndarray:
    """The frozen-pose cost at each scanned axis, solved one axis at a time
    over the reference amplitude derivatives: the oracle for the batched
    scan of SharedAxisFamily."""
    costs = []
    for theta in np.linspace(0.0, math.pi, 32, endpoint=False):
        units = [_shared_axis_reference(theta, *unit) for unit in np.eye(9)]
        design, rhs = _basis_design(scene, obs, units)
        residuals = rhs - design @ np.linalg.lstsq(design, rhs, rcond=None)[0]
        costs.append(float(residuals @ residuals))
    return np.array(costs)


@pytest.mark.parametrize(
    "truth, seed",
    [
        (
            symmetric_quadratic(0.6, 0.01, -0.02, 0.005)
            + symmetric_cubic(0.6, 0.05, 0.01, -0.01, 0.003),
            1,
        ),
        (rri([0.1]), 2),
        (
            symmetric_quadratic(0.6, 0.01, -0.004, 0.002)
            + symmetric_cubic(0.6, 0.08, 0.01, -0.005, 0.003)
            + rri([0.0, -0.02, 0.005]),
            1,
        ),
        (TRUTH, 0),
    ],
    ids=["two_minima", "three_minima", "symmetric_truth", "readme"],
)
def test_batched_axis_scan_matches_per_axis_solves(truth, seed):
    scene = default_scene(truth, 0.2, seed)
    obs = synthesize(scene)
    family = calib.SharedAxisFamily()
    thetas, costs = family.scan(calib._FrozenDesign(scene, obs, family.keys))
    assert np.array_equal(thetas, np.linspace(0.0, math.pi, 32, endpoint=False))
    want = _per_axis_scan_costs(scene, obs)
    assert np.max(np.abs(costs - want) / want) <= 1e-10
    assert np.argmin(costs) == np.argmin(want)


def test_axis_scan_costs_are_nonnegative():
    # Without noise rri([a]) fits every axis to rounding, so each cost is a sum of squares
    # of rounding noise; taken as |rhs|^2 - |Q^T rhs|^2 it dipped below zero on 39 of these.
    family = calib.SharedAxisFamily()
    for a in np.linspace(0.01, 0.3, 30):
        for seed in range(3):
            scene = default_scene(rri([float(a)]), 0.0, seed)
            _, costs = family.scan(calib._FrozenDesign(scene, synthesize(scene), family.keys))
            assert np.all(costs >= 0.0), (a, seed, costs.min())


# The four scan scenes above, at sigma 0.2: (truth, seed).
SCAN_SCENES = (
    (
        symmetric_quadratic(0.6, 0.01, -0.02, 0.005)
        + symmetric_cubic(0.6, 0.05, 0.01, -0.01, 0.003),
        1,
    ),
    (rri([0.1]), 2),
    (
        symmetric_quadratic(0.6, 0.01, -0.004, 0.002)
        + symmetric_cubic(0.6, 0.08, 0.01, -0.005, 0.003)
        + rri([0.0, -0.02, 0.005]),
        1,
    ),
    (TRUTH, 0),
)


def _calibrate_scene(seed: int, job: int) -> Scene:
    """Job ``job`` of the benchmark's calibrate stream: a decentering+rri3 truth and a
    noise seed drawn from default_rng([seed, job]), at sigma 0.2 (perfbench/workloads.py)."""
    rng = np.random.default_rng([seed, job])
    s1, s2 = (float(v) for v in rng.uniform(-0.03, 0.03, size=2))
    alphas = [float(rng.uniform(-bound, bound)) for bound in (0.15, 0.05, 0.01)]
    return default_scene(decentering(s1, s2) + rri(alphas), 0.2, int(rng.integers(2**31)))


def _stacked_svd_start(design) -> np.ndarray:
    """The shared-axis start from one stacked truncated-SVD solve of all 32 scanned axes,
    the lowest residual cost kept: the oracle for the ranked scan."""
    thetas = np.linspace(0.0, math.pi, 32, endpoint=False)
    amplitudes, residuals, _ = design.solve(calib.SharedAxisFamily()._rows(thetas))
    best = int(np.argmin(np.einsum("ij,ij->i", residuals, residuals)))
    return np.r_[thetas[best], amplitudes[best]]


def test_axis_scan_start_is_the_stacked_svd_start_bit_for_bit():
    family = calib.SharedAxisFamily()
    scenes = [default_scene(truth, 0.2, seed) for truth, seed in SCAN_SCENES]
    scenes += [_calibrate_scene(7, job) for job in range(40)]
    for i, scene in enumerate(scenes):
        design = calib._FrozenDesign(scene, synthesize(scene), family.keys)
        assert family.start(design).tobytes() == _stacked_svd_start(design).tobytes(), i
    # Without noise rri([0.1]) is rotation invariant: all 32 costs tie to rounding, and
    # either scan may pick any axis, so only the fits are pinned.
    scene = default_scene(rri([0.1]), 0.0, 2)
    for refine_poses in (False, True):
        report = calib.fit(scene, synthesize(scene), family, FitOptions(refine_poses))
        assert report.converged and report.rms_px <= 1e-12


@pytest.mark.parametrize("refine", [False, True], ids=["frozen", "refined"])
def test_an_undetermined_axis_has_no_finite_std_error(refine):
    # Without noise a radial truth leaves the fitted member no term of nonzero winding, so
    # every axis fits alike: the truncated SVD drops the axis direction, whose marginal
    # standard error is unbounded, not the 1e-29 that the kept directions would give it.
    truth = rri([-0.12, 0.03, -0.005])
    family, options = calib.SharedAxisFamily(), FitOptions(refine)
    scene = default_scene(truth, 0.0, 3)
    report = calib.fit(scene, synthesize(scene), family, options)
    assert report.std_errors[0] == math.inf
    assert all(math.isfinite(s) for s in report.std_errors[1:])
    # With noise the axis is determined, if poorly (about 0.2 rad).
    scene = default_scene(truth, 0.2, 3)
    assert all(map(math.isfinite, calib.fit(scene, synthesize(scene), family, options).std_errors))


def test_the_axis_scan_factors_one_matrix_by_svd(noisy_setup, monkeypatch):
    scene, obs = noisy_setup
    family = calib.SharedAxisFamily()
    design = calib._FrozenDesign(scene, obs, family.keys)
    factored = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        factored.append(math.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    family.start(design)
    # The 32 axes are ranked by QR; only the best one is solved.
    assert sum(factored) == 1


def test_shared_axis_fit_evaluates_its_base_table_once(noisy_setup, monkeypatch):
    scene, obs = noisy_setup
    tables = []
    monomials = calib._monomials

    def recording(z, keys):
        tables.append(monomials(z, keys))
        return tables[-1]

    monkeypatch.setattr(calib, "_monomials", recording)
    calib.fit(scene, obs, "sym_quad_cubic_rri3")
    # The scan and the LM share one frozen design: one table of the 9 base monomials.
    assert len(tables) == 1
    assert tables[0].shape == (len(calib.SharedAxisFamily.keys), len(scene.poses) * scene.n_points)


# -- camera roll ----------------------------------------------------------------------


def _rolled_axis_angle(axis_angle, theta: float) -> tuple:
    """Axis-angle of Rz(theta) R(axis_angle), by quaternion product."""
    w = np.asarray(axis_angle, dtype=float)
    angle = float(np.linalg.norm(w))
    q_w, q_v = math.cos(angle / 2), w / 2 * np.sinc(angle / (2 * math.pi))
    r_w, r_v = math.cos(theta / 2), np.array([0.0, 0.0, math.sin(theta / 2)])
    p_w, p_v = r_w * q_w - r_v @ q_v, r_w * q_v + q_w * r_v + np.cross(r_v, q_v)
    norm = float(np.linalg.norm(p_v))
    if norm == 0.0:  # no rotation
        return (0.0, 0.0, 0.0)
    return tuple(p_v * (2 * math.atan2(norm, p_w) / norm))


def _rolled(scene, obs, theta: float):
    """The scene and observations after a camera roll by theta: each pose is
    turned by Rz(theta) and each pixel by theta about (cx, cy)."""
    rz = rotation_matrix([0.0, 0.0, theta])
    poses = tuple(
        Pose(_rolled_axis_angle(p.axis_angle, theta), tuple(rz @ p.translation))
        for p in scene.poses
    )
    center = np.array([scene.intrinsics.cx, scene.intrinsics.cy])
    pixels = (obs.pixels - center) @ rz[:2, :2].T + center
    return replace(scene, poses=poses), Observations(pixels)


ROLL = 0.7


@pytest.mark.parametrize(
    "name, refine_poses, tol",
    [
        ("decentering+rri3", False, 1e-12),
        ("decentering+rri3", True, 1e-12),
        ("weng+rri3", False, 1e-12),
        ("sym_quad_cubic_rri3", False, 1e-7),
    ],
)
def test_fit_commutes_with_camera_roll(noisy_setup, name, refine_poses, tol):
    # fx = fy, so rolling the camera by theta turns the image by theta and
    # an isotropic family's fit into the original fit rotated(-theta).
    scene, obs = noisy_setup
    family = parse_family(name)
    if family.linear:
        assert classify(family).isotropic
    options = FitOptions(refine_poses=refine_poses)
    before = calib.fit(scene, obs, family, options)
    after = calib.fit(*_rolled(scene, obs, ROLL), family, options)
    assert abs(after.rms_px - before.rms_px) <= 1e-13 * before.rms_px
    want = family.member(np.array(before.coefficients)).rotated(-ROLL)
    got = family.member(np.array(after.coefficients))
    assert got.isclose(want, tol=tol)
    if not family.linear:  # the axis turns with the image
        turned = family.canonical([before.coefficients[0] + ROLL, *before.coefficients[1:]])
        assert np.max(np.abs(np.array(after.coefficients) - turned)) <= tol


ROLL_ANGLES = st.floats(-math.pi, math.pi)
ISOTROPIC_NAMES = tuple(f"rri{n}" for n in range(1, 8)) + (
    "full_quad", "full_cubic", "full_quad_cubic", "conj_quad")


def _winding_keys(m: int) -> list:
    """The monomials z^k zbar^l of total degree 2 to 5 with winding k - l - 1 = m."""
    return [(k, n - k) for n in range(2, 6) for k in range(n + 1) if 2 * k - n - 1 == m]


@st.composite
def irreducible_spaces(draw):
    """{gamma f + conj(gamma) g} for a drawn winding m, f of winding m, g of -m."""
    m = draw(st.sampled_from([m for m in range(-6, 5) if m]))
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)

    def part(winding: int, min_size: int) -> ComplexPoly:
        keys = _winding_keys(winding)
        chosen = draw(st.lists(st.sampled_from(keys), min_size=min_size, unique=True)) if keys else []
        return ComplexPoly({key: draw(coeff) for key in chosen})

    return irreducible_space(IrreducibleSpec(m, part(m, 1), part(-m, 0)))


@st.composite
def isotropic_spaces(draw):
    """rriN, a full_* space, conj_quad or an irreducible space, or a '+' sum of them."""
    part = st.one_of(st.sampled_from(ISOTROPIC_NAMES).map(named_space), irreducible_spaces())
    return reduce(space_sum, draw(st.lists(part, min_size=1, max_size=3)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(space=isotropic_spaces(), theta=ROLL_ANGLES)
def test_fits_of_drawn_isotropic_spaces_commute_with_camera_roll(noisy_setup, space, theta):
    # The roll test above over drawn spaces: any isotropic space's frozen fit
    # of the rolled scene is the original fit rotated(-theta).
    assert classify(space).isotropic
    scene, obs = noisy_setup
    before = calib.fit(scene, obs, space)
    after = calib.fit(*_rolled(scene, obs, theta), space)
    assert abs(after.rms_px - before.rms_px) <= 1e-13 * before.rms_px
    want = space.member(before.coefficients).rotated(-theta)
    scale = max(abs(c) for c in want.terms.values())
    assert space.member(after.coefficients).isclose(want, tol=1e-9 * scale)


@pytest.fixture(scope="module")
def shared_axis_fit(noisy_setup):
    return calib.fit(*noisy_setup, "sym_quad_cubic_rri3")


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(theta=ROLL_ANGLES)
def test_frozen_shared_axis_fit_turns_its_axis_with_camera_roll(
        noisy_setup, shared_axis_fit, theta):
    # Rolling the camera by theta turns the fitted axis by theta, reported
    # canonically in [0, pi), and the member by rotated(-theta).  The 1e-7
    # is the LM stop's slack (a relative cost decrease below 1e-12).
    family, before = calib.SharedAxisFamily(), shared_axis_fit
    after = calib.fit(*_rolled(*noisy_setup, theta), family)
    assert abs(after.rms_px - before.rms_px) <= 1e-13 * before.rms_px
    assert 0.0 <= after.coefficients[0] < math.pi
    turn = after.coefficients[0] - before.coefficients[0] - theta
    assert abs((turn + math.pi / 2) % math.pi - math.pi / 2) <= 1e-7
    want = family.member(np.array(before.coefficients)).rotated(-theta)
    assert family.member(np.array(after.coefficients)).isclose(want, tol=1e-7)


def test_roll_changes_the_fit_of_an_anisotropic_family(noisy_setup):
    # Real multiples of z^2 only: the control for the roll test above.
    re_z2 = ModelSpace((ComplexPoly({(2, 0): 1.0}),), "re_z2")
    space = space_sum(re_z2, named_space("rri3"))
    assert not classify(space).isotropic
    scene, obs = noisy_setup
    before = calib.fit(scene, obs, space)
    after = calib.fit(*_rolled(scene, obs, ROLL), space)
    assert abs(after.rms_px / before.rms_px - 1.0) > 0.05


# -- mirror ---------------------------------------------------------------------------


def _mirrored(scene, obs):
    """The scene and observations under the mirror (x, y) -> (x, -y), which maps
    z to conj(z): each pose (rx, ry, rz, tx, ty, tz) becomes (-rx, ry, -rz, tx, -ty, tz),
    the target's rows are reversed, each v becomes 2 cy - v and the truth is conjugated."""
    flip = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    poses = tuple(Pose(*np.split(flip * np.r_[p.axis_angle, p.translation], 2)) for p in scene.poses)
    pixels = obs.pixels.reshape(len(poses), scene.rows, scene.cols, 2)[:, ::-1]
    pixels = pixels * [1.0, -1.0] + [0.0, 2.0 * scene.intrinsics.cy]
    mirrored = replace(scene, poses=poses, truth=conjugated(scene.truth))
    return mirrored, Observations(pixels.reshape(obs.pixels.shape))


def test_synthesis_commutes_with_the_mirror(noisy_setup):
    scene = replace(noisy_setup[0], noise_sigma=0.0)
    mirrored, pixels = _mirrored(scene, synthesize(scene))
    assert np.allclose(synthesize(mirrored).pixels, pixels.pixels, rtol=0.0, atol=1e-12)


MIRROR_FITS = [
    *(pytest.param(name, False, id=f"frozen-{name}")
      for name in ("decentering+rri3", "weng+rri3", "full_quad_cubic+rri3", "sym_quad_cubic_rri3")),
    *(pytest.param(name, True, id=f"refined-{name}")
      for name in ("decentering+rri3", "sym_quad_cubic_rri3")),
]


@pytest.mark.parametrize("name, refine", MIRROR_FITS)
def test_fit_commutes_with_the_mirror(noisy_setup, name, refine):
    # The mirrored fit's weights are the conjugated weights, and its standard
    # errors the same: decentering's p2 and the shared axis's (a, b, c) only
    # change sign.  A frozen fit moves only by rounding: measured 7.1e-16
    # relative on the rms, 2.0e-14 on the weights, 1.4e-14 relative on the
    # standard errors and 6.7e-16 on the axis, so 1e-12 keeps a margin of 50
    # or more.  Refined, the 1e-11 is the LM stop's slack (a relative cost
    # decrease below 1e-12); the standard errors move by that slack in the
    # Jacobian, so 1e-10 relative, and the axis by it over its smallest
    # amplitude, so 1e-9.
    weights_tol, errors_rtol, axis_tol = (1e-11, 1e-10, 1e-9) if refine else (1e-12, 1e-12, 1e-12)
    family = parse_family(name)
    options = FitOptions(refine_poses=refine)
    before = calib.fit(*noisy_setup, family, options)
    after = calib.fit(*_mirrored(*noisy_setup), family, options)
    assert abs(after.rms_px - before.rms_px) <= 1e-13 * before.rms_px
    want = np.conj(family.weights(np.array(before.coefficients)))
    assert np.max(np.abs(family.weights(np.array(after.coefficients)) - want)) <= weights_tol
    assert np.allclose(after.std_errors, before.std_errors, rtol=errors_rtol, atol=0.0)
    if not family.linear:  # the axis theta turns to -theta, canonically pi - theta
        assert abs(after.coefficients[0] - (math.pi - before.coefficients[0])) <= axis_tol


def test_compare_and_sweep_rows_commute_with_the_mirror(noisy_setup):
    # Every TABLE_FAMILIES family and every sweep space is closed under the
    # mirror, so the frozen rows keep their flags and their rms; the rms moves
    # by rounding only: measured 2.8e-15 relative for compare and 3.8e-15 for
    # the 12-step sweep, so 1e-13 keeps a margin of 25 or more.
    mirrored = _mirrored(*noisy_setup)
    before = calib.compare(*noisy_setup, calib.TABLE_FAMILIES)
    after = calib.compare(*mirrored, calib.TABLE_FAMILIES)
    assert [replace(row, rms_px=0.0) for row in after] == [replace(row, rms_px=0.0) for row in before]
    for b, a in zip(before, after):
        assert abs(a.rms_px - b.rms_px) <= 1e-13 * b.rms_px, b.label
    phis = [k * math.pi / 12 for k in range(12)]
    before = calib.sweep_axis_ratio(*noisy_setup, phis)
    after = calib.sweep_axis_ratio(*mirrored, phis)
    assert [phi for phi, _ in after] == phis
    for (_, b), (_, a) in zip(before, after):
        assert abs(a - b) <= 1e-13 * b


# -- compare and sweep ----------------------------------------------------------------


def test_compare_single_family(noisy_setup):
    scene, obs = noisy_setup
    rows = calib.compare(scene, obs, ["decentering+rri3"])
    assert len(rows) == 1
    row = rows[0]
    direct = calib.fit(scene, obs, "decentering+rri3")
    assert row.rms_px == direct.rms_px
    assert row.n_params == 5 and row.linear


def test_compare_property_columns(noisy_setup):
    scene, obs = noisy_setup
    rows = calib.compare(scene, obs, ["rri3", "weng+rri3", "sym_quad_cubic_rri3"])
    by_label = {r.label: r for r in rows}
    assert [r.label for r in rows] == ["rri3", "weng+rri3", "sym_quad_cubic_rri3"]
    assert by_label["rri3"].rri and by_label["rri3"].rsf
    assert not by_label["weng+rri3"].rri and not by_label["weng+rri3"].rsf
    sym = by_label["sym_quad_cubic_rri3"]
    assert not sym.linear and not sym.rri and sym.rsf


def test_sweep_phi_and_phi_plus_pi_equal(noisy_setup):
    scene, obs = noisy_setup
    results = calib.sweep_axis_ratio(scene, obs, [0.7, 0.7 + math.pi])
    assert abs(results[0][1] - results[1][1]) < 1e-9


def test_sweep_single_phi_matches_direct_fit(noisy_setup):
    scene, obs = noisy_setup
    (phi, rms), = calib.sweep_axis_ratio(scene, obs, [0.0])
    assert phi == 0.0
    direct = calib.fit(scene, obs, calib._mixed_rri_space(0.0))
    assert rms == direct.rms_px


SWEEP_GRIDS = ([k * math.pi / 12 for k in range(12)], [k * math.pi / 32 for k in range(32)])


def test_sweep_space_is_the_space_sum():
    # The sweep's matrix at phi is mixed_quadratic's pair plus rri3 over the
    # five _SWEEP_KEYS at every phi, bit for bit: both round (c -/+ s)/2 once
    # and multiply it exactly by t = 1 and i.
    # Every space is full rank (ModelSpace checks), isotropic and rsf: this
    # grid stands in for the rank check the sweep does not make per phi.
    rng = np.random.default_rng(63)
    for phi in [*SWEEP_GRIDS[0], *SWEEP_GRIDS[1], *rng.uniform(-10.0, 10.0, 400)]:
        space = calib._mixed_rri_space(phi)
        assert space.label == f"mixed_quadratic(phi={phi:.12g})+rri3"
        assert coefficient_keys(space.basis) == calib._SWEEP_KEYS
        p, q = math.cos(phi), math.sin(phi)
        want = (mixed_quadratic(p, q, 1, 0), mixed_quadratic(p, q, 0, 1)) + rri_space(3).basis
        keys = coefficient_keys(space.basis + want)
        assert np.array_equal(coefficient_matrix(space.basis, keys), coefficient_matrix(want, keys))
        cls = classify(space)
        assert cls.isotropic and cls.rsf


def test_sweep_minimum_near_zero_for_radial_truth():
    truth = rri([0.08, -0.02, 0.005]) + mixed_quadratic(1, 0, 0.01, 0.004)
    scene = default_scene(truth=truth, noise_sigma=0.1, seed=0)
    obs = synthesize(scene)
    steps = 32
    phis = [k * math.pi / steps for k in range(steps)]
    rms = np.array([r for _, r in calib.sweep_axis_ratio(scene, obs, phis)])
    argmin = int(np.argmin(rms))
    assert argmin in (0, 1, steps - 1)


def test_sweep_rejects_empty(noisy_setup):
    scene, obs = noisy_setup
    with pytest.raises(ValueError):
        calib.sweep_axis_ratio(scene, obs, [])


# cos(phi) == sin(phi) in floating point: the space has no z^2 term.
SWEEP_PHI_WITHOUT_Z2 = 22.776546738526


def test_sweep_rows_equal_one_fit_per_phi(noisy_setup):
    # A frozen sweep solves every phi's matrix on one design over _SWEEP_KEYS,
    # the same design and matrix as that phi's own fit, so every row is its
    # fit bit for bit; refined rows are their refined fits.
    scene, obs = noisy_setup
    longer = 2 * calib._SWEEP_CHUNK + 1  # two whole stacks and one of a single phi
    for phis in (*SWEEP_GRIDS, [k * math.pi / longer for k in range(longer)], [0.0, math.pi / 2]):
        rows = calib.sweep_axis_ratio(scene, obs, phis)
        assert [phi for phi, _ in rows] == phis
        for phi, rms in rows:
            assert rms == calib.fit(scene, obs, calib._mixed_rri_space(phi)).rms_px
    refined = FitOptions(refine_poses=True)
    for phi, rms in calib.sweep_axis_ratio(scene, obs, [0.4, 2.0], refined):
        assert rms == calib.fit(scene, obs, calib._mixed_rri_space(phi), refined).rms_px
    # Where cos phi == sin phi the space drops z^2, so its own fit solves on
    # four monomials and the sweep's row matches it only to rounding.
    phi = SWEEP_PHI_WITHOUT_Z2
    space = calib._mixed_rri_space(phi)
    assert coefficient_keys(space.basis) == calib._SWEEP_KEYS[1:]
    ((_, rms),) = calib.sweep_axis_ratio(scene, obs, [phi])
    want = calib.fit(scene, obs, space).rms_px
    assert abs(rms - want) <= 1e-12 * want


@pytest.mark.parametrize("options", [None, FitOptions(refine_poses=True)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_a_non_finite_phi_before_building(noisy_setup, monkeypatch, bad, options):
    scene, obs = noisy_setup

    def no_build(*args, **kwargs):
        raise AssertionError("built a design or a fit")

    monkeypatch.setattr(calib, "_FrozenDesign", no_build)
    monkeypatch.setattr(calib, "fit", no_build)
    with pytest.raises(ValueError, match=f"phi must be finite, got {bad}"):
        calib.sweep_axis_ratio(scene, obs, np.array([0.0, bad, 1.0]), options)


def test_a_frozen_sweep_builds_no_space_per_phi(noisy_setup, monkeypatch):
    # Not one ComplexPoly, whatever the step count.
    scene, obs = noisy_setup
    built = Counter()
    for cls, method in ((ComplexPoly, "__post_init__"), (ModelSpace, "__post_init__")):
        def counting(self, *args, _cls=cls, _original=getattr(cls, method)):
            built[_cls.__name__] += 1
            _original(self, *args)
        monkeypatch.setattr(cls, method, counting)

    def builds(steps):
        built.clear()
        calib.sweep_axis_ratio(scene, obs, [k * math.pi / steps for k in range(steps)])
        return dict(built)

    assert builds(32) == builds(1) == {}


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6), theta=ROLL_ANGLES)
def test_sweep_rows_commute_with_camera_roll(noisy_setup, phis, theta):
    # Every sweep space is isotropic, so a camera roll leaves every row's rms.
    scene, obs = noisy_setup
    before = calib.sweep_axis_ratio(scene, obs, phis)
    after = calib.sweep_axis_ratio(*_rolled(scene, obs, theta), phis)
    for (_, want), (_, got) in zip(before, after, strict=True):
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("options", [None, FitOptions(refine_poses=True)])
def test_sweep_rejects_mismatched_observations(noisy_setup, options):
    # The same 432 pixels in a 6 x 72 layout would reshape into a design
    # without complaint, so only the geometry check catches them.
    scene, obs = noisy_setup
    swapped = Observations(obs.pixels.reshape(6, 72, 2))
    with pytest.raises(ValueError, match="geometry"):
        calib.sweep_axis_ratio(scene, swapped, [0.0, math.pi / 2], options)


def test_compare_classification_columns_are_classify(noisy_setup):
    scene, obs = noisy_setup
    for row in calib.compare(scene, obs, LINEAR_TABLE_FAMILIES):
        cls = classify(parse_family(row.label))
        assert (row.rri, row.rsf) == (cls.rotation_invariant, cls.rsf), row.label


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(parts=st.lists(st.sampled_from(CATALOG_NAMES + ("rri1", "rri5", "full_quad")),
                      min_size=2, max_size=3))
def test_compare_classification_columns_of_sums(noisy_setup, parts):
    scene, obs = noisy_setup
    name = "+".join(parts)
    (row,) = calib.compare(scene, obs, [name])
    cls = classify(reduce(space_sum, map(named_space, parts)))
    assert (row.rri, row.rsf) == (cls.rotation_invariant, cls.rsf)


UNION_NAMES = CATALOG_NAMES + tuple(f"rri{n}" for n in range(1, 8)) + (
    "full_quad", "full_cubic", "full_quad_cubic")


@st.composite
def union_families(draw):
    """A catalog space, rriN, a full_* space, a '+' sum of those, or a sweep space."""
    kind = draw(st.sampled_from(["name", "sum", "sweep"]))
    if kind == "name":
        return draw(st.sampled_from(UNION_NAMES))
    if kind == "sum":
        names = draw(st.lists(st.sampled_from(UNION_NAMES), min_size=2, max_size=3, unique=True))
        return "+".join(names)
    return calib._mixed_rri_space(draw(st.floats(0.0, math.pi)))


@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(families=st.lists(union_families(), min_size=1, max_size=4))
def test_compare_rows_on_the_union_design_are_each_own_fit(noisy_setup, families):
    # compare solves every frozen linear family on one design over the union
    # of their monomials, each basis placed into the union's columns.  A row
    # is the family's own fit to rounding, and bit for bit when the union is
    # that family's own keys.
    scene, obs = noisy_setup
    rows = calib.compare(scene, obs, families)
    for row, family in zip(rows, families, strict=True):
        want = calib.fit(scene, obs, family).rms_px
        if len(families) == 1:
            assert row.rms_px == want
        else:
            assert abs(row.rms_px - want) <= 1e-12 * want


def _single_union_solves(scene, obs, families) -> list:
    """Each linear family's rms from its own ``_FrozenDesign.solve`` on the design over
    the union of the linear families' monomials, None for the nonlinear family: the
    oracle for compare's stacked solves."""
    families = [calib._as_family(f) for f in families]
    keys = coefficient_keys(g for f in families if f.linear for g in f.basis)
    design = calib._FrozenDesign(scene, obs, keys)
    return [calib._rms(design.solve(coefficient_matrix(f.basis, keys).view(complex))[1])
            if f.linear else None for f in families]


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(families=st.lists(union_families(), min_size=1, max_size=6))
@example(families=list(calib.TABLE_FAMILIES))
def test_compare_rows_are_single_union_solves_bit_for_bit(noisy_setup, families):
    # compare solves the frozen linear families of one dimension in one stacked SVD,
    # and each row is still that family's single solve on the same union design.
    scene, obs = noisy_setup
    rows = calib.compare(scene, obs, families)
    for row, want in zip(rows, _single_union_solves(scene, obs, families), strict=True):
        if want is not None:
            assert row.rms_px == want, row.label


def test_frozen_compare_and_sweep_solve_each_size_in_one_stacked_svd(noisy_setup, monkeypatch):
    scene, obs = noisy_setup
    stacks = []
    solve = calib._solve_truncated

    def counting(matrix, rhs):
        stacks.append(matrix.shape[:-2])
        return solve(matrix, rhs)

    monkeypatch.setattr(calib, "_solve_truncated", counting)

    def solves(call, *args):
        stacks.clear()
        call(scene, obs, *args)
        return list(stacks)

    # One solve per distinct dimension (1, 2, 3, 4, 5 four times, 7 and 16), in order.
    sizes = Counter(parse_family(name).dimension for name in LINEAR_TABLE_FAMILIES)
    assert len(sizes) == 7
    assert solves(calib.compare, LINEAR_TABLE_FAMILIES) == [(n,) for n in sizes.values()]
    # The sweep solves its phi in stacks of at most _SWEEP_CHUNK.
    assert solves(calib.sweep_axis_ratio, [k * math.pi / 12 for k in range(12)]) == [(12,)]
    chunk = calib._SWEEP_CHUNK
    assert solves(calib.sweep_axis_ratio, [0.5] * (2 * chunk + 1)) == [(chunk,), (chunk,), (1,)]


def test_a_frozen_call_builds_one_design(noisy_setup, monkeypatch):
    scene, obs = noisy_setup
    built = []

    class Counting(calib._FrozenDesign):
        def __init__(self, scene, obs, keys):
            built.append(keys)
            super().__init__(scene, obs, keys)

    monkeypatch.setattr(calib, "_FrozenDesign", Counting)

    def designs(call, *args):
        built.clear()
        call(scene, obs, *args)
        return list(built)

    union = coefficient_keys(
        f for name in LINEAR_TABLE_FAMILIES for f in parse_family(name).basis)
    assert designs(calib.compare, LINEAR_TABLE_FAMILIES) == [union]
    # The nonlinear family keeps its own design, built by its fit.
    assert designs(calib.compare, calib.TABLE_FAMILIES) == [union, calib.SharedAxisFamily.keys]
    assert len(designs(calib.sweep_axis_ratio, [k * math.pi / 12 for k in range(12)])) == 1
    # Refined fits build no union design: a refined linear fit builds none,
    # the shared-axis fit one for its scanned start.
    refined = FitOptions(refine_poses=True)
    assert designs(calib.compare, ["rri3", "sym_quad_cubic_rri3"], refined) == [
        calib.SharedAxisFamily.keys]
    assert designs(calib.sweep_axis_ratio, [0.0, math.pi / 2], refined) == []


def test_compare_builds_at_most_one_polynomial_per_linear_family(monkeypatch):
    # Fits and classification read each space's coefficient matrix; none
    # rebuilds its basis as polynomials.
    scene = default_scene()
    obs = synthesize(scene)
    families = [parse_family(name) for name in LINEAR_TABLE_FAMILIES]
    built = []
    init = ComplexPoly.__post_init__
    monkeypatch.setattr(ComplexPoly, "__post_init__", lambda self: built.append(self) or init(self))
    calib.compare(scene, obs, families)
    assert len(families) == 10
    assert len(built) <= len(families)


def test_named_space_cache_is_bounded_and_immutable():
    # The cache holds at most one entry per valid name: an unknown name raises, and a
    # raised call stores nothing.
    names = set(CATALOG_NAMES) | {f"rri{n}" for n in range(1, 8)}
    names |= {"full_quad", "full_cubic", "full_quad_cubic"}
    for name in names:
        named_space(name)
    with pytest.raises(ValueError):
        named_space("rri8")
    assert len(names) == named_space.cache_info().currsize == 18
    space = named_space("rri3")
    assert named_space("rri3") is space
    with pytest.raises(FrozenInstanceError):
        space.label = "other"
    with pytest.raises(TypeError):
        space.basis[0].terms[(2, 1)] = 1.0


def test_compare_full_table_catalog(noisy_setup):
    scene, obs = noisy_setup
    rows = calib.compare(scene, obs, calib.TABLE_FAMILIES)
    assert [r.label for r in rows] == list(calib.TABLE_FAMILIES)
    assert all(r.converged for r in rows)
    rms = {r.label: r.rms_px for r in rows}
    nested_chains = [
        ["rri1", "rri2", "rri3", "rri4", "rri5"],
        ["rri3", "decentering+rri3", "weng+rri3", "full_quad_cubic+rri3"],
        ["rri3", "thin_prism+rri3", "weng+rri3"],
        ["rri3", "radial_quad+rri3", "full_quad_cubic+rri3"],
    ]
    for chain in nested_chains:
        for smaller, larger in zip(chain, chain[1:]):
            assert rms[larger] <= rms[smaller] + 1e-9, (smaller, larger)
    # The Y/N property columns of the comparison table.
    flags = {r.label: (r.linear, r.rri, r.rsf) for r in rows}
    assert flags["rri5"] == (True, True, True)
    assert flags["decentering+rri3"] == (True, False, True)
    assert flags["thin_prism+rri3"] == (True, False, True)
    assert flags["radial_quad+rri3"] == (True, False, True)
    assert flags["weng+rri3"] == (True, False, False)
    assert flags["sym_quad_cubic_rri3"] == (False, False, True)
    assert flags["full_quad_cubic+rri3"] == (True, False, False)


# -- serialization -----------------------------------------------------------------------


def test_scene_json_round_trip(tmp_path, noisy_setup):
    scene, obs = noisy_setup
    path = tmp_path / "scene.json"
    calib.save_scene(path, scene)
    loaded = calib.load_scene(path)
    assert loaded.rows == scene.rows and loaded.cols == scene.cols
    assert loaded.seed == scene.seed and loaded.noise_sigma == scene.noise_sigma
    assert loaded.truth.isclose(scene.truth, tol=1e-15)
    assert np.array_equal(synthesize(loaded).pixels, obs.pixels)


def test_scene_json_validation():
    with pytest.raises(ValueError):
        scene_from_json({"format": "other"})
    data = scene_to_json(default_scene())
    del data["poses"]
    with pytest.raises(ValueError):
        scene_from_json(data)


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("intrinsics", "fx", math.nan),
        ("intrinsics", "fy", math.inf),
        ("intrinsics", "cx", math.nan),
        ("intrinsics", "cy", -math.inf),
        ("target", "spacing", math.nan),
        (None, "sigma", math.nan),
        (None, "sigma", math.inf),
        ("target", "rows", 6.7),
        ("target", "cols", 9.5),
        (None, "seed", 2.9),
        (None, "seed", -5),
        (None, "seed", True),
    ],
)
def test_scene_json_rejects_non_finite_values(section, field, value):
    data = scene_to_json(default_scene(truth=TRUTH))
    (data[section] if section else data)[field] = value
    with pytest.raises(ValueError):
        scene_from_json(data)


def _number_paths(data, path=()):
    """The key paths of every number in a JSON document."""
    if isinstance(data, dict):
        data = data.items()
    elif isinstance(data, list):
        data = enumerate(data)
    else:
        return [path] if isinstance(data, (int, float)) else []
    return [p for key, value in data for p in _number_paths(value, path + (key,))]


def test_scene_json_rejects_booleans_for_numbers():
    data = scene_to_json(default_scene(truth=TRUTH))
    paths = _number_paths(data)
    # version, target (3), 8 poses (6 each), intrinsics (4), the truth's
    # version and 5 terms (k, l, re, im), sigma and seed.
    assert len(paths) == 1 + 3 + 48 + 4 + 1 + 20 + 2
    for path in paths:
        for value in (True, False):
            bad = json.loads(json.dumps(data))
            *parents, last = path
            reduce(operator.getitem, parents, bad)[last] = value
            with pytest.raises(ValueError):
                scene_from_json(bad)


def test_observations_csv_round_trip(tmp_path, noisy_setup):
    _, obs = noisy_setup
    path = tmp_path / "obs.csv"
    write_observations_csv(path, obs)
    loaded = read_observations_csv(path)
    assert np.array_equal(loaded.pixels, obs.pixels)
    assert path.read_text().splitlines()[0] == "view,point,u,v"


@pytest.mark.parametrize(
    "body",
    [
        "0,0,1,2\n0,1,3,4\n1,0,5,6\n-1,1,7,8\n",  # (1, 1) only through a wrapped index
        "0,0,1,2\n0,1,3\n",  # short row
        "0,0,1,2\n0,0,9,9\n0,1,3,4\n1,0,5,6\n1,1,7,8\n",  # repeated (0, 0)
    ],
)
def test_observations_csv_rejects_bad_rows(tmp_path, body):
    path = tmp_path / "obs.csv"
    path.write_text("view,point,u,v\n" + body)
    with pytest.raises(ValueError):
        read_observations_csv(path)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_synthesize_pixels_that_overflow_raise_value_error(action):
    # A valid scene whose noise overflows: ValueError under any warning filter.
    scene = default_scene(noise_sigma=1e308)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match="pixels must be finite"):
            synthesize(scene)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_observations_reject_non_finite_pixels(tmp_path, noisy_setup, value):
    _, obs = noisy_setup
    pixels = obs.pixels.copy()
    pixels[3, 7, 1] = value
    with pytest.raises(ValueError):
        Observations(pixels)
    path = tmp_path / "obs.csv"
    write_observations_csv(path, obs)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + f",{value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_observations_csv(path)


def test_report_json_fields(noisy_setup):
    scene, obs = noisy_setup
    report = calib.fit(scene, obs, "rri2")
    data = asdict(report)
    assert set(data) == {
        "rms_px",
        "coefficients",
        "iterations",
        "converged",
        "per_view_rms",
        "std_errors",
    }
    assert len(data["coefficients"]) == 2
    assert len(data["per_view_rms"]) == 8
