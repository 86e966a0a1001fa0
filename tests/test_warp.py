"""Forward warping, Jacobians, Newton inversion, and dataset generators."""

import io
import math
import struct
import tokenize

import numpy as np
import pytest

from lensdist import poly as poly_module
from lensdist import warp
from lensdist.families import decentering, rri
from lensdist.poly import ComplexPoly
from lensdist.warp import (
    FieldSample,
    NoConvergence,
    SingularJacobian,
    apply_distortion,
    circle_points,
    grid_points,
    invert,
    jacobian,
    read_field_csv,
    read_points_csv,
    sample_field,
    write_field_csv,
    write_points_csv,
)

from conftest import conjugated


def small_random_poly(rng, scale=0.05, max_degree=5):
    n_terms = int(rng.integers(1, 6))
    terms = {}
    for _ in range(n_terms):
        n = int(rng.integers(2, max_degree + 1))
        k = int(rng.integers(0, n + 1))
        terms[(k, n - k)] = scale * complex(rng.normal(), rng.normal())
    f = ComplexPoly(terms)
    total = sum(abs(c) for c in f.terms.values())
    if total > scale:
        f = f * (scale / total)
    return f


# -- apply ---------------------------------------------------------------------


def test_apply_zero_is_identity():
    pts = [(0.1, 0.2), (-0.5, 0.9), (0.0, 0.0)]
    assert apply_distortion(ComplexPoly.zero(), pts) == pts


def test_apply_rri_on_axis():
    out = apply_distortion(rri([0.1]), [(1.0, 0.0)])
    assert out[0] == pytest.approx((1.1, 0.0), abs=1e-14)


def test_apply_decentering_example():
    out = apply_distortion(decentering(0.01, 0.0), [(1.0, 1.0)])
    assert out[0] == pytest.approx((1.04, 1.02), abs=1e-14)


def test_apply_is_linear_in_the_function():
    rng = np.random.default_rng(50)
    f = small_random_poly(rng)
    g = small_random_poly(rng)
    alpha, beta = 1.7, -0.6
    pts = [tuple(rng.normal(size=2)) for _ in range(20)]
    combo = alpha * f + beta * g
    for (x, y) in pts:
        dxc, dyc = combo.displacement(x, y)
        dxf, dyf = f.displacement(x, y)
        dxg, dyg = g.displacement(x, y)
        assert dxc == pytest.approx(alpha * dxf + beta * dxg, abs=1e-13)
        assert dyc == pytest.approx(alpha * dyf + beta * dyg, abs=1e-13)


def test_points_must_be_xy_pairs():
    f = rri([0.1])
    for points in ([(0.1,)], [0.1, 0.2], [(1, 2, 3)], [(0.1, 0.2), (0.3,)], np.zeros((0, 3))):
        for fn in (apply_distortion, sample_field):
            with pytest.raises(ValueError, match=r"shape \(N, 2\)"):
                fn(f, points)
    # No points at all is an empty list or an empty (0, 2) array.
    for fn in (apply_distortion, sample_field):
        assert fn(f, []) == fn(f, np.zeros((0, 2))) == []
    for p in ((0.3, 0.2, 9.0), (0.3,)):
        with pytest.raises(ValueError, match=r"\(x, y\) pair"):
            jacobian(f, p)
    # Only the shape is checked: non-finite values pass through.
    with np.errstate(invalid="ignore"):
        out = apply_distortion(f, [(math.nan, 0.1), (math.inf, 0.0), (0.5, 0.0)])
    assert np.isnan(out[:2]).all() and out[2] == apply_distortion(f, [(0.5, 0.0)])[0]
    assert np.isnan(jacobian(f, (math.nan, 0.1))).all()
    # A non-numeric entry in an (N, 2) list keeps numpy's message, which names it.
    with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
        apply_distortion(f, [(0.1, 0.2), ("a", 0.3)])


# -- jacobian -------------------------------------------------------------------


def test_jacobian_identity_at_origin():
    rng = np.random.default_rng(51)
    for _ in range(20):
        f = small_random_poly(rng, scale=1.0)
        assert np.array_equal(jacobian(f, (0.0, 0.0)), np.eye(2))


def test_jacobian_rri_on_axis():
    k, r = 0.2, 0.7
    jac = jacobian(rri([k]), (r, 0.0))
    assert np.allclose(jac, np.diag([1 + 3 * k * r**2, 1 + k * r**2]), atol=1e-14)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(52)
    h = 1e-6
    for _ in range(100):
        f = small_random_poly(rng, scale=0.5)
        x, y = rng.uniform(-1, 1, size=2)
        jac = jacobian(f, (x, y))
        fd = np.empty((2, 2))
        for col, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
            pxp = np.add((x, y), (dx, dy))
            pxm = np.subtract((x, y), (dx, dy))
            fp = np.add(pxp, f.displacement(*pxp))
            fm = np.add(pxm, f.displacement(*pxm))
            fd[:, col] = (fp - fm) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6
        assert np.max(np.abs(jac - fd)) / max(1.0, np.max(np.abs(jac))) < 1e-5


# -- inversion ------------------------------------------------------------------


def test_invert_zero_function():
    q = invert(ComplexPoly.zero(), (0.3, -0.8))
    assert q == (0.3, -0.8)


def test_invert_round_trip_rri():
    f = rri([0.05])
    p = (0.5, 0.5)
    target = apply_distortion(f, [p])[0]
    q = invert(f, target)
    assert np.allclose(q, p, atol=1e-9)


def test_invert_failure_outside_local_region():
    f = rri([-3.0])
    with pytest.raises((NoConvergence, SingularJacobian)):
        invert(f, (1.0, 0.0))


FAILURE_CASES = [
    (rri([0.1]), (1e200, 0.0), NoConvergence, OverflowError, None),
    (ComplexPoly({(9, 7): 1e-3, (2, 0): 0.01}), (1e20, 0.0), NoConvergence, None, None),
    (rri([0.1]), (math.nan, 0.1), ValueError, None, None),
    (rri([0.1]), (0.2, math.inf), ValueError, None, None),
    (rri([0.1]), (0.1, 0.2, 0.3), ValueError, None, None),
    (rri([0.1]), (0.1,), ValueError, None, None),
    # f_zbar = -zbar = -1 and f_z = 0 at the target: |det J| = 1 - 1 = 0.
    (ComplexPoly({(0, 2): -0.5}), (1.0, 0.0), SingularJacobian, None, r"\|det J\| = 0\.000e\+00"),
    (ComplexPoly({(0, 2): 0.5}), (0.7, 0.7), NoConvergence, None, "after 50 iterations"),
    # |1 + f_z| is about 1.4e3 at the preimage, so a residual of 5e-12 takes
    # a Newton step below 1e-14 and the iteration stops after 15 steps.
    (
        ComplexPoly({(2, 0): 1e5}),
        (5.0, 0.0),
        NoConvergence,
        None,
        r"Newton step below 1e-14 after 15 iterations \(residual 5\.278e-12\)",
    ),
]


@pytest.mark.parametrize(
    "poly, target, error, cause, match",
    FAILURE_CASES,
    ids=[
        "overflow", "degree16-far", "nan", "inf", "three-values", "one-value",
        "singular-jacobian", "iteration-budget", "step-stop",
    ],
)
def test_invert_failures_are_typed(poly, target, error, cause, match):
    with pytest.raises(error, match=match) as info:
        invert(poly, target)
    if cause is not None:
        assert isinstance(info.value.__cause__, cause)


def _invert_reference(func, target):
    """Damped Newton on the real 2x2 system, solved with np.linalg.solve."""
    t = np.asarray(target, dtype=float)
    q = t.copy()

    def residual(point):
        dx, dy = func.displacement(point[0], point[1])
        return np.array([point[0] + dx - t[0], point[1] + dy - t[1]])

    r = residual(q)
    rnorm = math.hypot(r[0], r[1])
    for _ in range(50):
        if rnorm < 1e-12:
            return float(q[0]), float(q[1])
        jac = jacobian(func, q)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-14:
            raise SingularJacobian(f"|det J| = {abs(det):.3e}")
        step = np.linalg.solve(jac, r)
        step_norm = math.hypot(step[0], step[1])
        if step_norm < 1e-14:
            break
        if step_norm > 1.0:
            step *= 1.0 / step_norm
        alpha = 1.0
        while True:
            q_try = q - alpha * step
            r_try = residual(q_try)
            rnorm_try = math.hypot(r_try[0], r_try[1])
            if rnorm_try < rnorm:
                q, r, rnorm = q_try, r_try, rnorm_try
                break
            alpha *= 0.5
            if alpha < 2.0**-40:
                raise NoConvergence(f"line search stalled with residual {rnorm:.3e}")
    if rnorm < 1e-12:
        return float(q[0]), float(q[1])
    raise NoConvergence(f"no convergence (residual {rnorm:.3e})")


def _outcome(solve, func, target):
    """The solved point, or the class of the inversion error."""
    try:
        return solve(func, target)
    except (NoConvergence, SingularJacobian) as err:
        return type(err)


def _newton_cases(high_degree_poly):
    """A fold target and 1,000 disc targets each for a degree-7 and a degree-16 model."""
    rng = np.random.default_rng(55)
    low = decentering(0.01, -0.02) + rri([0.1, -0.05, 0.02])
    cases = [(rri([-3.0]), (1.0, 0.0))]
    for func in (low, high_degree_poly):
        r = 0.9 * np.sqrt(rng.uniform(size=1000))
        a = rng.uniform(0, 2 * math.pi, size=1000)
        cases += [(func, (x, y)) for x, y in zip(r * np.cos(a), r * np.sin(a))]
    return cases


def test_invert_matches_the_real_newton_reference(high_degree_poly):
    for func, target in _newton_cases(high_degree_poly):
        got = _outcome(invert, func, target)
        want = _outcome(_invert_reference, func, target)
        if isinstance(want, type):
            assert got is want, target
        else:
            assert isinstance(got, tuple), target
            assert math.hypot(got[0] - want[0], got[1] - want[1]) <= 1e-12, target


def _power_form_value(poly, z):
    zc = z.conjugate()
    out = 0j
    for (k, l), coeff in poly.terms.items():
        out = out + coeff * z**k * zc**l
    return out


def _power_form_wirtinger(poly, z):
    zc = z.conjugate()
    f_z = f_zc = 0 * z
    for (k, l), c in poly.terms.items():
        if k:
            f_z = f_z + c * k * z ** (k - 1) * zc**l
        if l:
            f_zc = f_zc + c * l * z**k * zc ** (l - 1)
    return f_z, f_zc


def _invert_power_form(poly, target):
    """``invert`` as it reads, on two Python powers per monomial and derivative."""
    pair = np.asarray(target, dtype=float)
    if pair.shape != (2,) or not np.isfinite(pair).all():
        raise ValueError(f"target must be a finite (x, y) pair, got {target!r}")
    t = complex(pair[0], pair[1])
    q = t
    try:
        r = q + _power_form_value(poly, q) - t
        rnorm = abs(r)
        for k in range(50):
            if rnorm < 1e-12:
                return q.real, q.imag
            f_z, b = _power_form_wirtinger(poly, q)
            a = 1.0 + f_z
            det = a.real**2 + a.imag**2 - b.real**2 - b.imag**2
            if abs(det) < 1e-14:
                raise SingularJacobian(f"|det J| = {abs(det):.3e} at iterate {q}")
            step = (a.conjugate() * r - b * r.conjugate()) / det
            step_norm = abs(step)
            if step_norm < 1e-14:
                raise NoConvergence(
                    f"Newton step below 1e-14 after {k} iterations (residual {rnorm:.3e})"
                )
            if step_norm > 1.0:
                step *= 1.0 / step_norm
            alpha = 1.0
            while True:
                q_try = q - alpha * step
                r_try = q_try + _power_form_value(poly, q_try) - t
                rnorm_try = abs(r_try)
                if rnorm_try < rnorm:
                    q, r, rnorm = q_try, r_try, rnorm_try
                    break
                alpha *= 0.5
                if alpha < 2.0**-40:
                    raise NoConvergence(f"line search stalled with residual {rnorm:.3e}")
    except OverflowError as err:
        raise NoConvergence(f"iterate overflowed near {q}") from err
    if rnorm < 1e-12:
        return q.real, q.imag
    raise NoConvergence(f"no convergence after 50 iterations (residual {rnorm:.3e})")


def _exact_outcome(solve, func, target):
    """Bits of the solved point, or the error's type, message and cause type."""
    try:
        return struct.pack("dd", *solve(func, target))
    except (NoConvergence, SingularJacobian, ValueError) as err:
        return type(err), str(err), type(err.__cause__)


def test_invert_is_bitwise_the_power_form(high_degree_poly):
    cases = _newton_cases(high_degree_poly)
    cases += [(p, t) for p, t, *_ in FAILURE_CASES]
    for func, target in cases:
        got = _exact_outcome(invert, func, target)
        assert got == _exact_outcome(_invert_power_form, func, target), target


def test_invert_commutes_with_the_mirror(high_degree_poly):
    # Complex products and sums commute with conjugation exactly, so inverting
    # the mirrored function at the mirrored target gives the mirrored point bit
    # for bit, or fails with the same error.
    cases = _newton_cases(high_degree_poly)
    cases += [(p, t) for p, t, error, *_ in FAILURE_CASES if error is not ValueError]
    for func, (x, y) in cases:
        want = _outcome(invert, func, (x, y))
        got = _outcome(invert, conjugated(func), (x, -y))
        if isinstance(want, type):
            assert got is want, (x, y)
        else:
            assert struct.pack("dd", *got) == struct.pack("dd", want[0], -want[1]), (x, y)


def _spy_on_kernels(monkeypatch, log: list, compiled: list) -> None:
    # Each model compiled from here on logs ("value", z) and ("wirtinger", z)
    # per scalar call, and its plan once per compilation.
    compile_kernels = poly_module._compile_kernels

    def compile_spy(plan):
        compiled.append(plan)
        value, wirtinger = compile_kernels(plan)

        def value_spy(z):
            log.append(("value", z))
            return value(z)

        def wirtinger_spy(z):
            log.append(("wirtinger", z))
            return wirtinger(z)

        return value_spy, wirtinger_spy

    monkeypatch.setattr(poly_module, "_compile_kernels", compile_spy)


def test_invert_evaluates_each_point_once(high_degree_poly, monkeypatch):
    # The value once at the target and once per line-search trial, each at a
    # new point.  The derivatives only at an accepted iterate, right after the
    # value that accepted it, and never at the solution.
    log = []
    _spy_on_kernels(monkeypatch, log, [])
    func = ComplexPoly(dict(high_degree_poly.terms))
    sources = np.random.default_rng(57).uniform(-0.6, 0.6, (100, 2))
    for target in apply_distortion(func, sources):
        log.clear()
        solved = invert(func, target)
        values = [z for kind, z in log if kind == "value"]
        assert len(set(values)) == len(values) >= 2, target
        assert log[0] == ("value", complex(*target)) and log[-1] == ("value", complex(*solved))
        for i, (kind, z) in enumerate(log):
            if kind == "wirtinger":
                assert log[i - 1] == ("value", z), target


def test_a_model_compiles_its_kernels_once(high_degree_poly, monkeypatch):
    compiled = []
    _spy_on_kernels(monkeypatch, [], compiled)
    func = ComplexPoly(dict(high_degree_poly.terms))
    sources = np.random.default_rng(58).uniform(-0.6, 0.6, (100, 2))
    for target in apply_distortion(func, sources):
        invert(func, target)
    assert compiled == [func._plan]
    # The coefficients are arguments: the source holds no float literal.
    source = poly_module._kernel_source(func._plan)
    numbers = [
        tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NUMBER
    ]
    assert numbers and all(n.isdigit() for n in numbers)


def test_invert_round_trip_many_small_functions():
    rng = np.random.default_rng(53)
    for _ in range(100):
        f = small_random_poly(rng)
        for _ in range(10):
            r = 0.8 * math.sqrt(rng.uniform())
            a = rng.uniform(0, 2 * math.pi)
            target = (r * math.cos(a), r * math.sin(a))
            q = invert(f, target)
            forward = apply_distortion(f, [q])[0]
            assert math.hypot(forward[0] - target[0], forward[1] - target[1]) < 1e-9


# -- composition closure -----------------------------------------------------------


def test_composition_fits_polynomial_of_product_degree():
    rng = np.random.default_rng(54)
    f = small_random_poly(rng, scale=0.04, max_degree=3)
    g = small_random_poly(rng, scale=0.04, max_degree=2)
    deg = max(f.degree, 2) * max(g.degree, 2)

    pts = grid_points(0.9, 12)
    zs = np.array([complex(x, y) for x, y in pts])
    after_g = zs + g.evaluate(zs)
    composed = after_g + f.evaluate(after_g)
    h = composed - zs  # displacement of F o G

    keys = [(k, n - k) for n in range(2, deg + 1) for k in range(n + 1)]
    design = np.column_stack([zs**k * np.conj(zs) ** l for k, l in keys])
    coeffs, *_ = np.linalg.lstsq(design, h, rcond=None)
    residual = np.max(np.abs(design @ coeffs - h))
    assert residual < 1e-6


# -- datasets -----------------------------------------------------------------------


def test_circle_points_examples():
    pts = circle_points(1.0, 4)
    assert np.allclose(pts, [(1, 0), (0, 1), (-1, 0), (0, -1)], atol=1e-15)
    with pytest.raises(ValueError):
        circle_points(1.0, 2)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            circle_points(radius, 8)
    with pytest.raises(TypeError):
        circle_points(1.0, 3.5)
    assert circle_points(1.0, np.int64(4)) == pts


def test_grid_points_examples():
    corners = grid_points(1.0, 2)
    assert set(corners) == {(-1, -1), (1, -1), (-1, 1), (1, 1)}
    assert (0.0, 0.0) in grid_points(1.0, 3)
    with pytest.raises(ValueError):
        grid_points(1.0, 1)
    # 1e308 is finite, but the grid's width 2 * 1e308 is not.
    for half_extent in (0.0, -1.0, math.nan, math.inf, 1e308):
        with pytest.raises(ValueError, match="half_extent"):
            grid_points(half_extent, 3)
    assert grid_points(8e307, 2)[0] == (-8e307, -8e307)
    with pytest.raises(TypeError):
        grid_points(0.5, 2.5)
    assert grid_points(1.0, np.int64(2)) == corners


def test_sample_field():
    f = rri([0.1])
    samples = sample_field(f, circle_points(1.0, 8))
    assert len(samples) == 8
    for s in samples:
        assert math.hypot(*s.displaced) == pytest.approx(1.1, abs=1e-12)
    assert sample_field(ComplexPoly.zero(), [(0.2, 0.3)]) == [
        FieldSample((0.2, 0.3), (0.2, 0.3))
    ]


def test_point_csv_round_trip(tmp_path):
    pts = [(0.1234567890123456, -1.0), (2.0, 3.5)]
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    assert path.read_text().splitlines()[0] == "x,y"
    assert read_points_csv(path) == pts


@pytest.mark.parametrize(
    "reader, text",
    [(read_points_csv, "x,y\n0.1,0.2\n0.3\n"), (read_field_csv, "x,y,xd,yd\n0,0,0\n")],
)
def test_csv_short_row_raises_value_error(tmp_path, reader, text):
    path = tmp_path / "short.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        reader(path)


def test_field_csv_round_trip(tmp_path):
    samples = sample_field(rri([0.07]), grid_points(0.5, 3))
    path = tmp_path / "field.csv"
    write_field_csv(path, samples)
    assert read_field_csv(path) == samples
