"""End-to-end CLI tests: outputs, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lensdist
from lensdist import calib
from lensdist.cli import main
from lensdist.families import decentering, rri
from lensdist.poly import ComplexPoly, load_model, save_model


REFINED = calib.FitOptions(refine_poses=True)


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "dec.json"
    save_model(path, decentering(0.02, -0.01))
    return str(path)


@pytest.fixture()
def rri_file(tmp_path):
    path = tmp_path / "rri.json"
    save_model(path, rri([1.0]), form="real")
    return str(path)


@pytest.fixture()
def scene_file(tmp_path):
    truth = decentering(0.02, -0.01) + rri([0.08, -0.02, 0.005])
    scene = calib.default_scene(truth=truth, noise_sigma=0.2, seed=0)
    path = tmp_path / "scene.json"
    calib.save_scene(path, scene)
    return str(path)


# -- render ------------------------------------------------------------------


def test_render_deterministic_bytes(tmp_path, rri_file):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    argv = ["render", "--model", rri_file, "--shape", "circle", "--count", "16"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.startswith(b"<?xml")
    assert data.count(b"<line") == 16
    assert data.count(b"<circle") == 32


def test_render_zero_model_zero_length_segments(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"format": "lensdist-model", "version": 1, "complex": []}')
    out = tmp_path / "zero.svg"
    assert main(["render", "--model", str(path), "--shape", "grid", "--out", str(out)]) == 0
    text = out.read_text()
    for line in text.splitlines():
        if line.startswith("<line"):
            parts = dict(
                item.split("=") for item in line[6:-2].split() if "=" in item
            )
            assert parts["x1"] == parts["x2"] and parts["y1"] == parts["y2"]


def test_render_bad_model_exit_2(tmp_path, rri_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = str(tmp_path / "x.svg")
    assert main(["render", "--model", str(bad), "--out", out]) == 2
    assert main(["render", "--model", str(tmp_path / "none.json"), "--out", "x.svg"]) == 2
    for radius in ("-1", "nan", "inf"):
        assert main(["render", "--model", rri_file, "--radius", radius, "--out", out]) == 2
    for extent in ("0", "nan", "inf"):
        argv = ["render", "--model", rri_file, "--shape", "grid", "--extent", extent]
        assert main(argv + ["--out", out]) == 2
    argv = ["render", "--model", rri_file, "--shape", "grid", "--count", "1", "--out", out]
    assert main(argv) == 2


def test_render_unwritable_output_exit_3(tmp_path, rri_file):
    target = tmp_path / "no_such_dir" / "fig.svg"
    assert main(["render", "--model", rri_file, "--out", str(target)]) == 3


# -- verify ------------------------------------------------------------------


def test_verify_model_json(capsys, model_file):
    assert main(["verify", "--model", model_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is True
    assert report["pairwise_ok"] is True
    assert isinstance(report["axis"], float)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_nonpositive_tol_exit_2(model_file, tol):
    assert main(["verify", "--model", model_file, "--tol", tol]) == 2


@pytest.mark.parametrize(
    "entries",
    [
        {"complex": [{"k": 2.5, "l": 0, "re": 1.0, "im": 0.0}]},
        {"complex": [{"k": "2", "l": 0, "re": 1.0, "im": 0.0}]},
        {"real": [{"degree": "2", "rows": [[1, 0, 0], [0, 1, 0]]}]},
        {
            "complex": [
                {"k": 2, "l": 0, "re": 1.0, "im": 0.0},
                {"k": 2, "l": 0, "re": 2.0, "im": 0.0},
            ]
        },
        {"complex": [{"k": True, "l": 1, "re": True, "im": 0}]},
    ],
)
def test_verify_malformed_model_exit_2(tmp_path, capsys, entries):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "lensdist-model", "version": 1, **entries}))
    assert main(["verify", "--model", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read model")


def test_verify_opencv_prism_not_symmetric(tmp_path, capsys):
    from lensdist.families import opencv_thin_prism

    path = tmp_path / "prism.json"
    save_model(path, opencv_thin_prism(1, 1, 2, 3))
    assert main(["verify", "--model", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is False
    assert report["axis"] is None


def test_verify_model_whose_angle_underflows(tmp_path, capsys):
    path = tmp_path / "tiny_angle.json"
    save_model(path, ComplexPoly({(2, 0): 2 + 5e-324j}))
    assert main(["verify", "--model", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is True and report["axis"] == 0.0


def test_verify_empty_model_axis_any(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text('{"format": "lensdist-model", "version": 1, "complex": []}')
    assert main(["verify", "--model", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is True and report["axis"] == "any"


def test_verify_space(tmp_path, capsys):
    from lensdist.families import named_space, save_space

    path = tmp_path / "weng.json"
    save_space(path, named_space("weng"))
    assert main(["verify", "--space", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 4
    assert report["isotropic"] is True
    assert report["rsf"] is False


@pytest.mark.parametrize("tol", ["-5", "1e-10"])
def test_verify_space_rejects_tol(tmp_path, capsys, tol):
    from lensdist.families import named_space, save_space

    path = tmp_path / "weng.json"
    save_space(path, named_space("weng"))
    assert main(["verify", "--space", str(path), "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert "--tol" in err and len(err.splitlines()) == 1


# -- convert -----------------------------------------------------------------


def test_convert_round_trip(tmp_path, model_file):
    real = tmp_path / "real.json"
    back = tmp_path / "back.json"
    assert main(["convert", "--in", model_file, "--to", "real", "--out", str(real)]) == 0
    data = json.loads(real.read_text())
    assert "real" in data and "complex" not in data
    assert main(["convert", "--in", str(real), "--to", "complex", "--out", str(back)]) == 0
    original = load_model(model_file)
    assert load_model(back).isclose(original, tol=1e-12)


def test_convert_decentering_gamma_values(tmp_path, model_file):
    out = tmp_path / "complex.json"
    assert main(["convert", "--in", model_file, "--to", "complex", "--out", str(out)]) == 0
    poly = load_model(out)
    s1, s2 = 0.02, -0.01
    significant = {kl for kl, c in poly.terms.items() if abs(c) > 1e-14}
    assert significant == {(2, 0), (1, 1)}
    assert poly.terms[(2, 0)] == pytest.approx(complex(s1, -s2), abs=1e-15)
    assert poly.terms[(1, 1)] == pytest.approx(2 * complex(s1, s2), abs=1e-15)


def test_convert_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["convert", "--in", str(bad), "--to", "real", "--out", "x.json"]) == 2


# -- fit / bench --------------------------------------------------------------


def test_fit_report(tmp_path, scene_file):
    out = tmp_path / "report.json"
    code = main(
        ["fit", "--scene", scene_file, "--family", "decentering+rri3", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert 0.18 <= report["rms_px"] <= 0.22
    assert len(report["coefficients"]) == 5
    assert report["converged"] is True


def test_bench_table_and_json(tmp_path, capsys, scene_file):
    out = tmp_path / "bench.json"
    code = main(
        [
            "bench",
            "--scene",
            scene_file,
            "--families",
            "rri1,rri2,rri3,decentering+rri3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "rri1" in table and "decentering+rri3" in table
    rows = json.loads(out.read_text())["rows"]
    assert [r["label"] for r in rows] == ["rri1", "rri2", "rri3", "decentering+rri3"]
    rms = [r["rms_px"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(rms, rms[1:]))


def test_bench_deterministic(tmp_path, capsys, scene_file):
    out1 = tmp_path / "b1.json"
    out2 = tmp_path / "b2.json"
    argv = ["bench", "--scene", scene_file, "--families", "rri2,decentering+rri3"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("family", ["decentering+rri3", "sym_quad_cubic_rri3"])
def test_fit_refine_poses_is_the_refined_fit(tmp_path, scene_file, family):
    out = tmp_path / "report.json"
    argv = ["fit", "--scene", scene_file, "--family", family, "--refine-poses", "--out", str(out)]
    assert main(argv) == 0
    scene = calib.load_scene(scene_file)
    report = calib.fit(scene, calib.synthesize(scene), family, REFINED)
    assert json.loads(out.read_text()) == json.loads(json.dumps(report.to_json_dict()))


def test_bench_refine_poses_rows_are_the_refined_compare(tmp_path, capsys, scene_file):
    out = tmp_path / "bench.json"
    names = ["rri2", "decentering+rri3", "sym_quad_cubic_rri3"]
    argv = ["bench", "--scene", scene_file, "--families", ",".join(names), "--refine-poses"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    scene = calib.load_scene(scene_file)
    rows = calib.compare(scene, calib.synthesize(scene), names, REFINED)
    assert json.loads(out.read_text())["rows"] == [row.to_json_dict() for row in rows]


@pytest.mark.parametrize(
    "section, field, value",
    [
        pytest.param("intrinsics", "fx", math.nan, id="intrinsics-fx"),
        pytest.param("target", "spacing", math.nan, id="target-spacing"),
        pytest.param(None, "sigma", math.nan, id="None-sigma"),
        pytest.param("target", "rows", 6.7, id="target-rows-fractional"),
        pytest.param(None, "seed", 2.9, id="None-seed-fractional"),
        pytest.param(None, "seed", True, id="None-seed-boolean"),
        pytest.param(None, "sigma", True, id="None-sigma-boolean"),
        pytest.param("intrinsics", "fx", True, id="intrinsics-fx-boolean"),
        pytest.param("intrinsics", "cx", False, id="intrinsics-cx-boolean"),
    ],
)
def test_fit_non_finite_scene_exit_2(tmp_path, capsys, scene_file, section, field, value):
    with open(scene_file) as fh:
        data = json.load(fh)
    (data[section] if section else data)[field] = value
    path = tmp_path / "nan_scene.json"
    path.write_text(json.dumps(data))
    assert main(["fit", "--scene", str(path), "--family", "rri1", "--strict"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read scene")


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--family", "rri1"],
        ["bench", "--families", "rri1"],
        ["sweep", "--steps", "2"],
    ],
    ids=["fit", "bench", "sweep"],
)
def test_negative_seed_exit_2(tmp_path, capsys, scene_file, argv):
    out = tmp_path / "out"
    code = main(argv + ["--scene", scene_file, "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --seed")
    assert not out.exists()


def test_bench_unknown_family_exit_2(scene_file):
    # rriN exists only for N = 1..7, written without leading zeros.
    for family in ("nope", "rri01", "rri8", "rri3+rri99"):
        assert main(["bench", "--scene", scene_file, "--families", family]) == 2


def test_fit_strict_nonconvergence_exit_4(monkeypatch, scene_file, capsys):
    bad = calib.FitReport(1.0, (0.0,), 200, False, (1.0,) * 8, (0.0,))
    monkeypatch.setattr(calib, "fit", lambda *a, **k: bad)
    assert main(["fit", "--scene", scene_file, "--family", "rri1", "--strict"]) == 4
    capsys.readouterr()


def test_bench_strict_nonconvergence_exit_4(monkeypatch, scene_file, capsys):
    row = calib.CompareRow("rri1", 1, True, True, True, 1.0, False)
    monkeypatch.setattr(calib, "compare", lambda *a, **k: [row])
    code = main(["bench", "--scene", scene_file, "--families", "rri1", "--strict"])
    assert code == 4
    capsys.readouterr()


# -- sweep ---------------------------------------------------------------------


def test_sweep_csv(tmp_path, scene_file):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scene", scene_file, "--steps", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,rms"
    assert len(lines) == 9
    phis = [float(line.split(",")[0]) for line in lines[1:]]
    assert phis == pytest.approx([k * math.pi / 8 for k in range(8)])


def test_sweep_single_step_matches_fit(tmp_path, scene_file, capsys):
    out = tmp_path / "one.csv"
    assert main(["sweep", "--scene", scene_file, "--steps", "1", "--out", str(out)]) == 0
    rms = float(out.read_text().splitlines()[1].split(",")[1])
    scene = calib.load_scene(scene_file)
    obs = calib.synthesize(scene)
    direct = calib.sweep_axis_ratio(scene, obs, [0.0])[0][1]
    assert rms == direct


def test_sweep_refine_poses_rows_are_the_refined_fits(tmp_path, scene_file):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scene", scene_file, "--steps", "2", "--refine-poses", "--out", str(out)]
    assert main(argv) == 0
    scene = calib.load_scene(scene_file)
    obs = calib.synthesize(scene)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(phi) for phi, _ in rows] == [0.0, math.pi / 2]
    for phi, rms in rows:
        family = calib.LinearFamily(calib._mixed_rri_space(float(phi)))
        assert float(rms) == calib.fit(scene, obs, family, REFINED).rms_px


def test_sweep_deterministic(tmp_path, scene_file):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    argv = ["sweep", "--scene", scene_file, "--steps", "4"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_and_sweep_bytes_do_not_depend_on_the_caches(tmp_path, scene_file):
    from lensdist import families

    def run(tag):
        bench, sweep = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        families_arg = ",".join(calib.TABLE_FAMILIES)
        assert main(["bench", "--scene", scene_file, "--families", families_arg,
                     "--out", str(bench)]) == 0
        assert main(["sweep", "--scene", scene_file, "--steps", "12", "--out", str(sweep)]) == 0
        return bench.read_bytes(), sweep.read_bytes()

    first, second = run("a"), run("b")
    families.named_space.cache_clear()
    assert first == second == run("c")


def test_sweep_rejects_strict(tmp_path, scene_file, capsys):
    # --strict belongs to fit and bench: a sweep's rows are linear solves
    # with nothing to converge, so argparse rejects the flag.
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scene", scene_file, "--steps", "2", "--strict", "--out", str(out)])
    assert exc.value.code == 2
    assert "--strict" in capsys.readouterr().err
    assert not out.exists()
    for command in ("fit", "bench"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--strict" in capsys.readouterr().out


def test_sweep_zero_steps_exit_2(scene_file):
    assert main(["sweep", "--scene", scene_file, "--steps", "0", "--out", "x.csv"]) == 2


# -- sphere --------------------------------------------------------------------


def test_sphere_csv(tmp_path):
    out = tmp_path / "sphere.csv"
    assert main(["sphere", "--samples", "12", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tag,mu_re,mu_im,nu_re,nu_im,x,y,z"
    rows = [line.split(",") for line in lines[1:]]
    tags = [r[0] for r in rows]
    assert tags.count("rsf_circle") == 12
    for name in ("radial", "tangential", "decentering", "thin_prism"):
        assert name in tags
    by_tag = {r[0]: tuple(map(float, r[5:])) for r in rows}
    assert by_tag["radial"] == pytest.approx((1, 0, 0), abs=1e-15)
    assert by_tag["tangential"] == pytest.approx((-1, 0, 0), abs=1e-15)
    assert by_tag["thin_prism"] == pytest.approx((0, 0, -1), abs=1e-15)
    assert by_tag["decentering"] == pytest.approx((0.8, 0, -0.6), abs=1e-12)
    for r in rows:
        x, y, z = map(float, r[5:])
        assert math.hypot(math.hypot(x, y), z) == pytest.approx(1.0, abs=1e-12)


def test_sphere_zero_samples_exit_2(tmp_path):
    assert main(["sphere", "--samples", "0", "--out", str(tmp_path / "x.csv")]) == 2


def test_sphere_deterministic(tmp_path):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    assert main(["sphere", "--samples", "6", "--out", str(out1)]) == 0
    assert main(["sphere", "--samples", "6", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_model_axis_of_minus_z2_prints_zero(tmp_path, capsys):
    path = tmp_path / "neg_z2.json"
    save_model(path, ComplexPoly({(2, 0): -1}))
    assert main(["verify", "--model", str(path)]) == 0
    assert "axis:        0.0\n" in capsys.readouterr().out


# -- parser ----------------------------------------------------------------------


def _reference_parser() -> argparse.ArgumentParser:
    """The whole parser, every subcommand with all its arguments, and stub
    handlers: the reference for help and usage bytes."""

    def stub(args):
        raise AssertionError("the reference parser runs no command")

    parser = argparse.ArgumentParser(
        prog="lensdist",
        description="Polynomial lens distortion models: rendering, verification, conversion, synthetic calibration.",
        epilog=(
            "Model spaces are named by the catalog (rri3, decentering, thin_prism, "
            "radial_quad, tangential_quad, conj_quad, weng, matlab, opencv_prism4), "
            "by rriN (N <= 7), full_quad, full_cubic, full_quad_cubic, by '+' sums of those, "
            "or by the nonlinear family sym_quad_cubic_rri3."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_render = sub.add_parser("render", help="render a distortion field as SVG")
    p_render.add_argument("--model", required=True, help="model JSON file")
    p_render.add_argument("--shape", choices=("circle", "grid"), default="circle")
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.add_argument("--radius", type=float, default=1.0, help="circle radius")
    p_render.add_argument("--extent", type=float, default=1.0, help="grid half extent")
    p_render.add_argument(
        "--count", type=int, default=None, help="circle point count / grid side count"
    )
    p_render.set_defaults(handler=stub)

    p_verify = sub.add_parser("verify", help="verify symmetry / classify a space")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model JSON file")
    group.add_argument("--space", help="space JSON file")
    p_verify.add_argument("--json", action="store_true", help="emit JSON")
    p_verify.add_argument("--tol", type=float, help="relative mirror tolerance for --model (1e-10)")
    p_verify.set_defaults(handler=stub)

    p_convert = sub.add_parser("convert", help="convert between coefficient forms")
    p_convert.add_argument("--in", required=True, help="input model JSON")
    p_convert.add_argument("--to", required=True, choices=("real", "complex"))
    p_convert.add_argument("--out", required=True, help="output model JSON")
    p_convert.set_defaults(handler=stub)

    def add_fit_args(p):
        p.add_argument("--scene", required=True, help="scene JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the scene seed")
        p.add_argument("--refine-poses", action="store_true", dest="refine_poses")

    p_fit = sub.add_parser("fit", help="fit one family to a synthetic scene")
    add_fit_args(p_fit)
    p_fit.add_argument("--strict", action="store_true", help="exit 4 on non-convergence")
    p_fit.add_argument("--family", required=True)
    p_fit.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_fit.set_defaults(handler=stub)

    p_bench = sub.add_parser("bench", help="compare families on a synthetic scene")
    add_fit_args(p_bench)
    p_bench.add_argument("--strict", action="store_true", help="exit 4 if any fit does not converge")
    p_bench.add_argument("--families", required=True, help="comma separated family names")
    p_bench.add_argument("--out", default=None, help="report JSON path")
    p_bench.set_defaults(handler=stub)

    p_sweep = sub.add_parser("sweep", help="rms versus blend angle phi")
    add_fit_args(p_sweep)
    p_sweep.add_argument("--steps", type=int, required=True, help="phi grid size on [0, pi)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(handler=stub)

    p_sphere = sub.add_parser("sphere", help="parameter-sphere embedding CSV")
    p_sphere.add_argument("--samples", type=int, required=True)
    p_sphere.add_argument("--out", required=True, help="output CSV path")
    p_sphere.set_defaults(handler=stub)

    return parser


# Arguments each subcommand accepts; no file is read before they are rejected.
_VALID_ARGS = {
    "render": ["--model", "m.json", "--out", "o.svg"],
    "verify": ["--model", "m.json"],
    "convert": ["--in", "m.json", "--to", "real", "--out", "o.json"],
    "fit": ["--scene", "s.json", "--family", "rri3"],
    "bench": ["--scene", "s.json", "--families", "rri3"],
    "sweep": ["--scene", "s.json", "--steps", "3", "--out", "o.csv"],
    "sphere": ["--samples", "2", "--out", "o.csv"],
}
_HELP_AND_USAGE_ARGVS = [
    [], ["-h"], ["-h", "bench"], ["bogus"], ["--bogus"], ["--", "sphere"],
    ["sweep", "--strict"], ["verify", "--model", "a", "--space", "b"],
] + [
    argv
    for cmd, valid in _VALID_ARGS.items()
    for argv in (
        [cmd, "-h"], [cmd], [cmd, "--bogus"], [cmd, "--out"], [cmd, *valid, "extra"],
        # The subcommand is not first: parsed as if every subcommand were built.
        ["--bogus", cmd], ["--bogus", cmd, "-h"], ["--bogus", cmd, *valid],
    )
]


def _outcome(run, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


@pytest.mark.parametrize("argv", _HELP_AND_USAGE_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_bytes_match_the_full_parser(argv, monkeypatch, capsys):
    # stdout, stderr and exit code; the width moves the line breaks of usage.
    for columns in ("60", "80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        expected = _outcome(_reference_parser().parse_args, argv, capsys)
        assert _outcome(main, argv, capsys) == expected


def test_main_builds_only_the_running_commands_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["sphere", "--samples", "2", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(built) == 2  # the top level and sphere


def test_call_without_leading_subcommand_builds_the_whole_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "sphere", "--samples", "2", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert len(built) == 8  # the top level and all 7 subcommands, once


def test_entry_points_write_the_same_csv(tmp_path, monkeypatch):
    def argv(name):
        return ["sphere", "--samples", "4", "--out", str(tmp_path / name)]

    assert main(argv("direct.csv")) == 0
    monkeypatch.setattr(sys, "argv", ["lensdist", *argv("sys_argv.csv")])
    assert main() == 0
    src = str(Path(lensdist.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "lensdist", *argv("module.csv")], env=env, check=True)
    expected = (tmp_path / "direct.csv").read_bytes()
    assert (tmp_path / "sys_argv.csv").read_bytes() == expected
    assert (tmp_path / "module.csv").read_bytes() == expected
