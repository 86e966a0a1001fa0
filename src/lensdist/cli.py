"""Command-line front end.

Subcommands:

* render  - draw a distortion field acting on a circle or grid as SVG
* verify  - report symmetry/classification properties of a model or space
* convert - switch a model file between complex and real coefficient forms
* fit     - fit a single family to a synthetic scene, write a report
* bench   - fit a list of families and tabulate rms with property columns
* sweep   - rms versus the radial/tangential blend angle phi
* sphere  - sphere embedding of the quadratic irreducible-model parameters

A call that starts with a subcommand builds only that subcommand's parser.
Any other call builds the whole parser once, so its help and usage texts are
the whole parser's.
All outputs are deterministic for fixed inputs and seeds (no timestamps).
Exit codes: 0 success, 2 input error, 3 output I/O error, 4 numerical
failure (fit non-convergence under ``fit --strict`` or ``bench --strict``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from . import calib, warp
from ._io import save_json, write_csv
from .families import load_space
from .poly import DEFAULT_TOL, load_model, save_model
from .symmetry import classify, reflection_symmetry, sphere_point

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class _InputError(Exception):
    pass


def _load_checked(loader, what: str, path):
    """loader(path), with unreadable or malformed input as an input error."""
    try:
        return loader(path)
    except (OSError, ValueError) as err:
        raise _InputError(f"cannot read {what} {path}: {err}") from err


@contextmanager
def _input_error(context: str = ""):
    """Run the block with a ValueError raised as an input error, its message after ``context``."""
    try:
        yield
    except ValueError as err:
        raise _InputError(context + str(err)) from err


# --------------------------------------------------------------------------
# SVG rendering
# --------------------------------------------------------------------------


_SVG_SIZE = 640  # the square canvas, px
_SVG_MARGIN = 30  # px left clear on each side


def _svg_field(samples) -> str:
    xs = [s.source[0] for s in samples] + [s.displaced[0] for s in samples]
    ys = [s.source[1] for s in samples] + [s.displaced[1] for s in samples]
    lo = min(min(xs), min(ys))
    hi = max(max(xs), max(ys))
    span = max(hi - lo, 1e-9)
    pad = 0.05 * span
    lo -= pad
    span += 2 * pad
    scale = (_SVG_SIZE - 2 * _SVG_MARGIN) / span

    def sx(x: float) -> str:
        return f"{_SVG_MARGIN + (x - lo) * scale:.3f}"

    def sy(y: float) -> str:
        return f"{_SVG_SIZE - _SVG_MARGIN - (y - lo) * scale:.3f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">\n',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="#ffffff"/>\n',
        '<g stroke="#808080" stroke-width="1">\n',
    ]
    for s in samples:
        parts.append(
            f'<line x1="{sx(s.source[0])}" y1="{sy(s.source[1])}" '
            f'x2="{sx(s.displaced[0])}" y2="{sy(s.displaced[1])}"/>\n'
        )
    parts.append("</g>\n")
    parts.append('<g fill="#b0b0b0">\n')
    for s in samples:
        parts.append(f'<circle cx="{sx(s.source[0])}" cy="{sy(s.source[1])}" r="2.5"/>\n')
    parts.append("</g>\n")
    parts.append('<g fill="#000000">\n')
    for s in samples:
        parts.append(
            f'<circle cx="{sx(s.displaced[0])}" cy="{sy(s.displaced[1])}" r="2.5"/>\n'
        )
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------


def _cmd_render(args) -> int:
    func = _load_checked(load_model, "model", args.model)
    with _input_error():
        if args.shape == "circle":
            count = args.count if args.count is not None else 64
            points = warp.circle_points(args.radius, count)
        else:
            count = args.count if args.count is not None else 9
            points = warp.grid_points(args.extent, count)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = warp.sample_field(func, points)
    for s in samples:
        if not all(map(math.isfinite, s.displaced)):
            raise _InputError(f"the field is not finite at point {s.source}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_svg_field(samples))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.model:
        func = _load_checked(load_model, "model", args.model)
        tol = DEFAULT_TOL if args.tol is None else args.tol
        with _input_error():
            report = reflection_symmetry(func, tol=tol)
    elif args.tol is not None:
        raise _InputError("--tol applies only to --model")
    else:
        report = classify(_load_checked(load_space, "space", args.space))
    fields = asdict(report)
    if args.json:
        print(json.dumps(fields, indent=2))
    else:  # one "name: value" line per field, the values in one column
        width = max(map(len, fields)) + 2
        for name, value in fields.items():
            text = "-" if value is None else f"{value:.6e}" if name == "residual" else value
            print(f"{name + ':':<{width}}{text}")
    return EXIT_OK


def _cmd_convert(args) -> int:
    poly = _load_checked(load_model, "model", getattr(args, "in"))
    with _input_error(f"cannot convert {getattr(args, 'in')}: "):
        save_model(args.out, poly, form=args.to)
    return EXIT_OK


def _load_scene(args) -> tuple[calib.Scene, calib.Observations]:
    """The --scene file, with its noise seed replaced by --seed if given, and its observations."""
    scene = _load_checked(calib.load_scene, "scene", args.scene)
    if args.seed is not None:
        with _input_error("--seed: "):
            scene = replace(scene, seed=args.seed)
    with _input_error(f"cannot synthesize {args.scene}: "):
        return scene, calib.synthesize(scene)


def _cmd_fit(args) -> int:
    scene, obs = _load_scene(args)
    with _input_error():
        family = calib.parse_family(args.family)
    report = calib.fit(scene, obs, family, calib.FitOptions(args.refine_poses))
    # Strict JSON has no infinity: an undetermined coefficient's standard error is null.
    std_errors = [s if math.isfinite(s) else None for s in report.std_errors]
    fields = asdict(report) | {"std_errors": std_errors}
    if args.out:
        save_json(args.out, fields)
    else:
        print(json.dumps(fields, indent=2))
    if args.strict and not report.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_bench(args) -> int:
    scene, obs = _load_scene(args)
    names = [n for n in args.families.split(",") if n]
    if not names:
        raise _InputError("no families given")
    with _input_error():
        families = [calib.parse_family(n) for n in names]
    rows = calib.compare(scene, obs, families, calib.FitOptions(args.refine_poses))
    if args.out:
        save_json(args.out, {"rows": [asdict(row) for row in rows]})
    header = f"{'family':<28} {'np':>3} {'linear':>6} {'rri':>5} {'rsf':>5} {'rms_px':>12}"
    print(header)
    for row in rows:
        print(
            f"{row.label:<28} {row.n_params:>3} {str(row.linear):>6} "
            f"{str(row.rri):>5} {str(row.rsf):>5} {row.rms_px:>12.6f}"
        )
    if args.strict and not all(row.converged for row in rows):
        print("at least one fit did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise _InputError("--steps must be >= 1")
    scene, obs = _load_scene(args)
    phis = [k * math.pi / args.steps for k in range(args.steps)]
    results = calib.sweep_axis_ratio(scene, obs, phis, calib.FitOptions(args.refine_poses))
    write_csv(args.out, ["phi", "rms"], results)
    return EXIT_OK


_SPHERE_TAGS = (
    # (tag, mu, nu): radial and tangential at ratio (1, +/-1); decentering and
    # thin prism are the radial/tangential blends (p:q) = (3:1) and (1:1),
    # which sit at (mu:nu) = (1:2) and (0:1).
    ("radial", 1 + 0j, 1 + 0j),
    ("tangential", 1 + 0j, -1 + 0j),
    ("decentering", 1 + 0j, 2 + 0j),
    ("thin_prism", 0j, 1 + 0j),
)


def _cmd_sphere(args) -> int:
    if args.samples < 1:
        raise _InputError("--samples must be >= 1")
    # Real-ratio circle: the quadratic blend models whose members are all
    # reflection symmetric.
    circle = [
        ("rsf_circle", complex(math.cos(t)), complex(math.sin(t)))
        for t in (k * math.pi / args.samples for k in range(args.samples))
    ]
    rows = [
        (tag, mu.real, mu.imag, nu.real, nu.imag, *sphere_point(mu, nu))
        for tag, mu, nu in circle + list(_SPHERE_TAGS)
    ]
    write_csv(args.out, ["tag", "mu_re", "mu_im", "nu_re", "nu_im", "x", "y", "z"], rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


_COMMANDS = {
    "render": ("render a distortion field as SVG", _cmd_render),
    "verify": ("verify symmetry / classify a space", _cmd_verify),
    "convert": ("convert between coefficient forms", _cmd_convert),
    "fit": ("fit one family to a synthetic scene", _cmd_fit),
    "bench": ("compare families on a synthetic scene", _cmd_bench),
    "sweep": ("rms versus blend angle phi", _cmd_sweep),
    "sphere": ("parameter-sphere embedding CSV", _cmd_sphere),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with ``command``'s subparser alone, or with every subcommand
    when ``command`` is None."""
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
    if command is not None:
        # Usage lines list every subcommand, as when all are registered.
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name in _COMMANDS if command is None else (command,):
        text, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        if name == "render":
            p.add_argument("--model", required=True, help="model JSON file")
            p.add_argument("--shape", choices=("circle", "grid"), default="circle")
            p.add_argument("--out", required=True, help="output SVG path")
            p.add_argument("--radius", type=float, default=1.0, help="circle radius")
            p.add_argument("--extent", type=float, default=1.0, help="grid half extent")
            p.add_argument(
                "--count", type=int, default=None, help="circle point count / grid side count"
            )
        elif name == "verify":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--model", help="model JSON file")
            group.add_argument("--space", help="space JSON file")
            p.add_argument("--json", action="store_true", help="emit JSON")
            p.add_argument("--tol", type=float, help="relative mirror tolerance for --model (1e-10)")
        elif name == "convert":
            p.add_argument("--in", required=True, help="input model JSON")
            p.add_argument("--to", required=True, choices=("real", "complex"))
            p.add_argument("--out", required=True, help="output model JSON")
        elif name == "sphere":
            p.add_argument("--samples", type=int, required=True)
            p.add_argument("--out", required=True, help="output CSV path")
        else:  # fit, bench and sweep run on a scene
            p.add_argument("--scene", required=True, help="scene JSON file")
            p.add_argument("--seed", type=int, default=None, help="override the scene seed")
            p.add_argument("--refine-poses", action="store_true", dest="refine_poses")
            if name == "fit":
                p.add_argument("--strict", action="store_true", help="exit 4 on non-convergence")
                p.add_argument("--family", required=True)
                p.add_argument("--out", default=None, help="report JSON path (default stdout)")
            elif name == "bench":
                p.add_argument("--strict", action="store_true", help="exit 4 if any fit does not converge")
                p.add_argument("--families", required=True, help="comma separated family names")
                p.add_argument("--out", default=None, help="report JSON path")
            else:
                p.add_argument("--steps", type=int, required=True, help="phi grid size on [0, pi)")
                p.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return args.handler(args)
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
