"""End-to-end CLI tests: outputs, determinism, exit codes."""

import json
import math

import pytest

from lensdist import calib
from lensdist.cli import main
from lensdist.families import decentering, rri
from lensdist.poly import load_model, save_model


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "dec.json"
    save_model(path, decentering(0.02, -0.01).poly)
    return str(path)


@pytest.fixture()
def rri_file(tmp_path):
    path = tmp_path / "rri.json"
    save_model(path, rri([1.0]).poly, form="real")
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
    assert main(["render", "--model", rri_file, "--radius", "-1", "--out", out]) == 2
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


def test_verify_nonpositive_tol_exit_2(model_file):
    assert main(["verify", "--model", model_file, "--tol", "0"]) == 2


def test_verify_opencv_prism_not_symmetric(tmp_path, capsys):
    from lensdist.families import opencv_thin_prism

    path = tmp_path / "prism.json"
    save_model(path, opencv_thin_prism(1, 1, 2, 3).poly)
    assert main(["verify", "--model", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is False
    assert report["axis"] is None


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


def test_bench_unknown_family_exit_2(scene_file):
    assert main(["bench", "--scene", scene_file, "--families", "nope"]) == 2


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


def test_sweep_deterministic(tmp_path, scene_file):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    argv = ["sweep", "--scene", scene_file, "--steps", "4"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
