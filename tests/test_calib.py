"""Synthetic calibration: projection, synthesis, fitting, comparison, sweep."""

import math

import numpy as np
import pytest

from lensdist import calib
from lensdist.calib import (
    FitOptions,
    Intrinsics,
    Observations,
    Pose,
    Scene,
    default_scene,
    numeric_jacobian,
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
    DistortionFunction,
    decentering,
    mixed_quadratic,
    named_space,
    rri,
)

TRUTH = decentering(0.02, -0.01) + rri([0.08, -0.02, 0.005])
TRUE_COEFFS = np.array([0.02, -0.01, 0.08, -0.02, 0.005])


@pytest.fixture(scope="module")
def noisy_setup():
    scene = default_scene(truth=TRUTH, noise_sigma=0.2, seed=0)
    return scene, synthesize(scene)


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


def test_project_examples():
    intr = Intrinsics(1000, 1000, 640, 360)
    pose = Pose((0, 0, 0), (0, 0, 0))
    ident = DistortionFunction.zero()
    assert project(intr, pose, ident, (0, 0, 1)) == pytest.approx((640, 360))
    assert project(intr, pose, ident, (0.1, 0, 1)) == pytest.approx((740, 360))
    u, v = project(intr, pose, rri([0.1]), (0.1, 0, 1))
    assert u == pytest.approx(740.1, abs=1e-9)
    assert v == pytest.approx(360.0, abs=1e-9)


def test_project_rejects_nonpositive_depth():
    intr = Intrinsics(1000, 1000, 640, 360)
    pose = Pose((0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        project(intr, pose, DistortionFunction.zero(), (0, 0, -1))


def test_scene_validation():
    with pytest.raises(ValueError):
        default_scene(noise_sigma=-0.1)
    poses = (Pose((0, 0, 0), (0, 0, 1.0)),) * 3
    with pytest.raises(ValueError):
        Scene(6, 9, 0.08, poses, Intrinsics(800, 800, 640, 360),
              DistortionFunction.zero(), 0.0, 0)
    behind = (Pose((0, 0, 0), (0, 0, -1.0)),) * 4
    with pytest.raises(ValueError):
        Scene(6, 9, 0.08, behind, Intrinsics(800, 800, 640, 360),
              DistortionFunction.zero(), 0.0, 0)


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
    scene = default_scene(truth=DistortionFunction.zero(), noise_sigma=0.0, seed=0)
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


def test_fit_nested_chain_monotone(noisy_setup):
    scene, obs = noisy_setup
    chain = ["rri1", "rri2", "rri3", "decentering+rri3"]
    rms = [calib.fit(scene, obs, name).rms_px for name in chain]
    for smaller, larger_family in zip(rms, rms[1:]):
        assert larger_family <= smaller + 1e-9


def test_fit_deterministic(noisy_setup):
    scene, obs = noisy_setup
    a = calib.fit(scene, obs, "decentering+rri3")
    b = calib.fit(scene, obs, "decentering+rri3")
    assert a == b


def test_fast_path_matches_generic_lm(noisy_setup):
    scene, obs = noisy_setup
    fam = parse_family("decentering+rri3")
    fast = calib.fit(scene, obs, fam)
    lm = calib.fit(scene, obs, fam, FitOptions(force_lm=True))
    assert lm.converged
    assert abs(fast.rms_px - lm.rms_px) < 1e-8


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


def test_numeric_jacobian_matches_exact_linear_jacobian(noisy_setup):
    # With poses frozen the residuals are affine in the coefficients, so the
    # exact Jacobian is -[fx dx_i, fy dy_i] over the basis fields.
    scene, obs = noisy_setup
    fam = parse_family("decentering+rri3")
    pts = scene.target_points
    meas = obs.pixels
    intr = scene.intrinsics

    def residuals(x):
        func = fam.build(x)
        out = []
        for v, pose in enumerate(scene.poses):
            out.append(meas[v] - calib.project_points(intr, pose, func, pts))
        return np.concatenate([o.ravel() for o in out])

    columns = []
    for basis_func in fam.space.basis:
        per_view = []
        for pose in scene.poses:
            cam = pts @ rotation_matrix(pose.axis_angle).T + np.asarray(pose.translation)
            dx, dy = basis_func.displacement(cam[:, 0] / cam[:, 2], cam[:, 1] / cam[:, 2])
            per_view.append(np.stack([intr.fx * dx, intr.fy * dy], axis=1).ravel())
        columns.append(-np.concatenate(per_view))
    exact = np.column_stack(columns)

    x = np.random.default_rng(61).normal(scale=0.01, size=5)
    numeric = numeric_jacobian(residuals, x)
    assert numeric.shape == exact.shape
    scale = np.maximum(np.abs(exact), 1.0)
    assert np.max(np.abs(numeric - exact) / scale) < 1e-6


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
        assert parse_family(name).n_params == n, name


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


def test_observations_csv_round_trip(tmp_path, noisy_setup):
    _, obs = noisy_setup
    path = tmp_path / "obs.csv"
    write_observations_csv(path, obs)
    loaded = read_observations_csv(path)
    assert np.array_equal(loaded.pixels, obs.pixels)
    assert path.read_text().splitlines()[0] == "view,point,u,v"


def test_report_json_fields(noisy_setup):
    scene, obs = noisy_setup
    report = calib.fit(scene, obs, "rri2")
    data = report.to_json_dict()
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
