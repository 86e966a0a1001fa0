"""File framing: every CSV the package writes has one dialect and reads back exactly."""

import math

import numpy as np
import pytest

from lensdist import calib, warp
from lensdist._io import read_csv, write_csv
from lensdist.cli import _SPHERE_TAGS, main
from lensdist.families import decentering, rri
from lensdist.symmetry import sphere_point

TRUTH = decentering(0.02, -0.01) + rri([0.08, -0.02, 0.005])


@pytest.fixture(scope="module")
def scene_obs():
    scene = calib.default_scene(truth=TRUTH, noise_sigma=0.2, seed=0)
    return scene, calib.synthesize(scene)


def _points(path, _scene_obs):
    pts = [(0.1234567890123456, -1.0), (2.0, 1e-300), (-0.0, 3.5)]
    warp.write_points_csv(path, pts)
    return warp.read_points_csv(path) == pts


def _field(path, _scene_obs):
    samples = warp.sample_field(TRUTH, warp.grid_points(0.7, 4))
    warp.write_field_csv(path, samples)
    return warp.read_field_csv(path) == samples


def _observations(path, scene_obs):
    _, obs = scene_obs
    calib.write_observations_csv(path, obs)
    return np.array_equal(calib.read_observations_csv(path).pixels, obs.pixels)


def _sweep(path, scene_obs):
    scene, obs = scene_obs
    scene_path = path.with_name("scene.json")
    calib.save_scene(scene_path, scene)
    assert main(["sweep", "--scene", str(scene_path), "--steps", "5", "--out", str(path)]) == 0
    phis = [k * math.pi / 5 for k in range(5)]
    rows = [tuple(map(float, row)) for row in read_csv(path, ["phi", "rms"])]
    return rows == [tuple(r) for r in calib.sweep_axis_ratio(scene, obs, phis)]


def _sphere(path, _scene_obs):
    assert main(["sphere", "--samples", "3", "--out", str(path)]) == 0
    header = ["tag", "mu_re", "mu_im", "nu_re", "nu_im", "x", "y", "z"]
    rows = read_csv(path, header)
    circle = [("rsf_circle", complex(math.cos(t)), complex(math.sin(t)))
              for t in (k * math.pi / 3 for k in range(3))]
    expected = [
        [tag, mu.real, mu.imag, nu.real, nu.imag, *sphere_point(mu, nu)]
        for tag, mu, nu in circle + list(_SPHERE_TAGS)
    ]
    return [[row[0], *map(float, row[1:])] for row in rows] == expected


@pytest.mark.parametrize("writer", [_points, _field, _observations, _sweep, _sphere])
def test_every_csv_has_lf_lines_and_reads_back_exactly(tmp_path, scene_obs, writer):
    path = tmp_path / "out.csv"
    assert writer(path, scene_obs)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")


def test_crlf_files_still_read_back(tmp_path, scene_obs):
    _, obs = scene_obs
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"x,y\r\n0.5,-1e-300\r\n2,3\r\n")
    assert warp.read_points_csv(path) == [(0.5, -1e-300), (2.0, 3.0)]
    path.write_bytes(b"x,y,xd,yd\r\n0,0.25,1,-2\r\n")
    assert warp.read_field_csv(path) == [warp.FieldSample((0.0, 0.25), (1.0, -2.0))]
    calib.write_observations_csv(path, obs)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert np.array_equal(calib.read_observations_csv(path).pixels, obs.pixels)


def test_write_csv_writes_text_cells_as_they_are(tmp_path):
    path = tmp_path / "tags.csv"
    write_csv(path, ["tag", "value"], [("rsf_circle", 1), ("1.50", 0.1), ("nan", math.inf)])
    assert path.read_bytes() == (
        b"tag,value\nrsf_circle,1\n1.50,0.10000000000000001\nnan,inf\n"
    )
