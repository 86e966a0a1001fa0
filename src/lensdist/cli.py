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
from dataclasses import replace

from . import calib, warp
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


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# SVG rendering
# --------------------------------------------------------------------------


def _svg_field(samples, size: int = 640, margin: int = 30) -> str:
    xs = [s.source[0] for s in samples] + [s.displaced[0] for s in samples]
    ys = [s.source[1] for s in samples] + [s.displaced[1] for s in samples]
    lo = min(min(xs), min(ys))
    hi = max(max(xs), max(ys))
    span = max(hi - lo, 1e-9)
    pad = 0.05 * span
    lo -= pad
    span += 2 * pad
    scale = (size - 2 * margin) / span

    def sx(x: float) -> str:
        return f"{margin + (x - lo) * scale:.3f}"

    def sy(y: float) -> str:
        return f"{size - margin - (y - lo) * scale:.3f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>\n',
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
    try:
        if args.shape == "circle":
            count = args.count if args.count is not None else 64
            points = warp.circle_points(args.radius, count)
        else:
            count = args.count if args.count is not None else 9
            points = warp.grid_points(args.extent, count)
    except ValueError as err:
        raise _InputError(str(err)) from err
    samples = warp.sample_field(func, points)
    _write_text(args.out, _svg_field(samples))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.model:
        func = _load_checked(load_model, "model", args.model)
        tol = DEFAULT_TOL if args.tol is None else args.tol
        try:
            report = reflection_symmetry(func, tol=tol)
        except ValueError as err:
            raise _InputError(str(err)) from err
        payload = report.to_json_dict()
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"symmetric:   {report.symmetric}")
            axis = report.axis
            print(f"axis:        {axis if axis is not None else '-'}")
            print(f"pairwise_ok: {report.pairwise_ok}")
            print(f"residual:    {report.residual:.6e}")
    else:
        if args.tol is not None:
            raise _InputError("--tol applies only to --model")
        space = _load_checked(load_space, "space", args.space)
        report = classify(space)
        payload = report.to_json_dict()
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"dimension:          {report.dimension}")
            print(f"isotropic:          {report.isotropic}")
            print(f"rotation_invariant: {report.rotation_invariant}")
            print(f"rsf:                {report.rsf}")
            print(f"details:            {report.details}")
    return EXIT_OK


def _cmd_convert(args) -> int:
    poly = _load_checked(load_model, "model", getattr(args, "in"))
    save_model(args.out, poly, form=args.to)
    return EXIT_OK


def _load_scene(args) -> calib.Scene:
    """The --scene file, with its noise seed replaced by --seed if given."""
    scene = _load_checked(calib.load_scene, "scene", args.scene)
    if args.seed is None:
        return scene
    try:
        return replace(scene, seed=args.seed)
    except ValueError as err:
        raise _InputError(f"--seed: {err}") from err


def _cmd_fit(args) -> int:
    scene = _load_scene(args)
    try:
        family = calib.parse_family(args.family)
    except ValueError as err:
        raise _InputError(str(err)) from err
    obs = calib.synthesize(scene)
    report = calib.fit(scene, obs, family, calib.FitOptions(args.refine_poses))
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.strict and not report.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_bench(args) -> int:
    scene = _load_scene(args)
    names = [n for n in args.families.split(",") if n]
    if not names:
        raise _InputError("no families given")
    try:
        families = [calib.parse_family(n) for n in names]
    except ValueError as err:
        raise _InputError(str(err)) from err
    obs = calib.synthesize(scene)
    rows = calib.compare(scene, obs, families, calib.FitOptions(args.refine_poses))
    payload = {"rows": [row.to_json_dict() for row in rows]}
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
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
    scene = _load_scene(args)
    obs = calib.synthesize(scene)
    phis = [k * math.pi / args.steps for k in range(args.steps)]
    results = calib.sweep_axis_ratio(scene, obs, phis, calib.FitOptions(args.refine_poses))
    lines = ["phi,rms"]
    lines += [f"{phi:.17g},{rms:.17g}" for phi, rms in results]
    _write_text(args.out, "\n".join(lines) + "\n")
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
    lines = ["tag,mu_re,mu_im,nu_re,nu_im,x,y,z"]

    def row(tag, mu, nu):
        x, y, z = sphere_point(mu, nu)
        return (
            f"{tag},{mu.real:.17g},{mu.imag:.17g},{nu.real:.17g},{nu.imag:.17g},"
            f"{x:.17g},{y:.17g},{z:.17g}"
        )

    # Real-ratio circle: the quadratic blend models whose members are all
    # reflection symmetric.
    for k in range(args.samples):
        t = k * math.pi / args.samples
        lines.append(row("rsf_circle", complex(math.cos(t)), complex(math.sin(t))))
    for tag, mu, nu in _SPHERE_TAGS:
        lines.append(row(tag, mu, nu))
    _write_text(args.out, "\n".join(lines) + "\n")
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
