"""Reflection symmetry, isotropy, classification, and the pointwise split."""

import math

import numpy as np
import pytest

from lensdist.families import (
    DistortionFunction,
    IrreducibleSpec,
    ModelSpace,
    coefficient_keys,
    coefficient_matrix,
    conjugate_quadratic,
    decentering,
    irreducible_space,
    named_space,
    opencv_thin_prism,
    radial_homogeneous,
    rri,
    space_sum,
    symmetric_cubic,
    symmetric_quadratic,
    tangential_homogeneous,
    thin_prism,
)
from lensdist.poly import ComplexPoly
from lensdist.symmetry import (
    classify,
    in_radial_tangential_span,
    is_isotropic,
    is_rotation_invariant,
    pairwise_conditions,
    radial_tangential_at,
    reflection_symmetry,
    sphere_point,
    structural_rsf,
)


def func(terms) -> DistortionFunction:
    return DistortionFunction.from_poly(ComplexPoly(terms))


def axis_distance(a, b):
    d = abs((a - b) % math.pi)
    return min(d, math.pi - d)


COUNTEREXAMPLE = {(3, 0): 1.0, (1, 2): 1j}  # z^3 + i z zbar^2


# -- reflection symmetry --------------------------------------------------------


def test_zero_function_convention():
    report = reflection_symmetry(DistortionFunction.zero())
    assert report.symmetric and report.axis == "any"
    assert report.pairwise_ok and report.residual == 0.0


def test_decentering_always_symmetric():
    rng = np.random.default_rng(30)
    for _ in range(50):
        s1, s2 = rng.normal(size=2)
        report = reflection_symmetry(decentering(s1, s2))
        assert report.symmetric
        assert isinstance(report.axis, float)


def test_thin_prism_axis_is_displacement_direction():
    rng = np.random.default_rng(31)
    for _ in range(50):
        phi = rng.uniform(0, math.pi)
        report = reflection_symmetry(thin_prism(math.cos(phi), math.sin(phi)))
        assert report.symmetric
        assert axis_distance(report.axis, phi) < 1e-9


def test_counterexample_pairwise_passes_full_check_fails():
    f = func(COUNTEREXAMPLE)
    assert pairwise_conditions(f)
    report = reflection_symmetry(f)
    assert not report.symmetric
    assert report.axis is None
    assert report.pairwise_ok


def test_quad_sym_axis_recovery():
    report = reflection_symmetry(symmetric_quadratic(0.7, 1.0, 2.0, 3.0))
    assert report.symmetric
    assert axis_distance(report.axis, 0.7) < 1e-9


def test_axis_recovery_500_seeded_cases():
    # Quadratic terms have odd windings, so the axis is unique mod pi.  Cubic
    # terms have only even windings, so an axis at theta implies one at
    # theta + pi/2 as well; recovery may return either member of the orbit.
    rng = np.random.default_rng(32)
    for _ in range(500):
        theta = rng.uniform(0, math.pi)
        amps = rng.uniform(0.2, 1.5, size=7) * rng.choice([-1.0, 1.0], size=7)
        if rng.integers(2):
            f = symmetric_quadratic(theta, *amps[:3])
            expected = (theta,)
        else:
            f = symmetric_cubic(theta, *amps[3:])
            expected = (theta, theta + math.pi / 2)
        report = reflection_symmetry(f)
        assert report.symmetric
        assert min(axis_distance(report.axis, t) for t in expected) < 1e-8


def test_invariant_only_functions():
    report = reflection_symmetry(rri([0.3, -0.1]))
    assert report.symmetric and report.axis == "any"
    # Invariant tangential swirl: not symmetric about any axis.
    report = reflection_symmetry(func({(2, 1): 1j}))
    assert not report.symmetric and report.axis is None


def pointwise_symmetry_residual(f, theta, n=200, seed=99):
    # Independent oracle: the defining functional equation of a mirror
    # symmetry, exp(2 i t) conj(f(z, zbar)) == f(exp(2 i t) zbar, exp(-2 i t) z),
    # checked by direct evaluation on random points in the unit disc.
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0, 1, size=n))
    a = rng.uniform(0, 2 * math.pi, size=n)
    zs = r * np.exp(1j * a)
    lhs = np.exp(2j * theta) * np.conj(f.poly.evaluate(zs))
    rhs = f.poly.evaluate(np.exp(2j * theta) * np.conj(zs))
    return float(np.max(np.abs(lhs - rhs)))


def test_verifier_against_pointwise_functional_equation():
    rng = np.random.default_rng(42)
    # Symmetric constructions: the recovered axis must satisfy the pointwise
    # equation; non-symmetric draws must fail it on a dense axis grid.
    for _ in range(30):
        theta = rng.uniform(0, math.pi)
        f = symmetric_quadratic(theta, *rng.uniform(0.2, 1.0, size=3))
        report = reflection_symmetry(f)
        assert report.symmetric
        assert pointwise_symmetry_residual(f, report.axis) < 1e-10
    for _ in range(30):
        terms = {}
        for _ in range(4):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(0, n + 1))
            terms[(k, n - k)] = complex(rng.normal(), rng.normal())
        f = func(terms)
        report = reflection_symmetry(f)
        grid = np.linspace(0, math.pi, 360, endpoint=False)
        best = min(pointwise_symmetry_residual(f, t, n=60) for t in grid)
        if report.symmetric:
            assert pointwise_symmetry_residual(f, report.axis) < 1e-8
        else:
            # No grid axis should come close to satisfying the equation.
            assert best > 1e-4


def test_axis_reported_in_principal_range():
    rng = np.random.default_rng(33)
    for _ in range(100):
        theta = rng.uniform(-20, 20)
        report = reflection_symmetry(symmetric_quadratic(theta, 0.9, -0.4, 0.2))
        assert report.symmetric
        assert 0.0 <= report.axis < math.pi
        assert axis_distance(report.axis, theta) < 1e-8


# -- pairwise conditions ---------------------------------------------------------


def test_pairwise_single_monomial_vacuous():
    assert pairwise_conditions(func({(4, 0): 0.3 + 9j}))


def test_pairwise_opencv_prism():
    assert not pairwise_conditions(opencv_thin_prism(1, 1, 2, 3))
    assert pairwise_conditions(opencv_thin_prism(1, 1, 2, 2))


def test_opencv_prism_full_check():
    assert reflection_symmetry(opencv_thin_prism(1, 1, 2, 2)).symmetric
    assert not reflection_symmetry(opencv_thin_prism(1, 1, 2, 3)).symmetric


# -- rotation invariance ----------------------------------------------------------


def test_rotation_invariant_examples():
    rng = np.random.default_rng(34)
    assert is_rotation_invariant(rri(rng.normal(size=3)))
    assert is_rotation_invariant(func({(2, 1): 1j}))
    assert not is_rotation_invariant(decentering(1, 0))


# -- isotropy ----------------------------------------------------------------------


def test_isotropy_of_catalog_spaces():
    for name in (
        "decentering",
        "thin_prism",
        "radial_quad",
        "tangential_quad",
        "conj_quad",
        "rri3",
        "weng",
        "matlab",
        "opencv_prism4",
    ):
        assert is_isotropic(named_space(name)), name


def test_real_span_of_z2_not_isotropic():
    space = ModelSpace((func({(2, 0): 1.0}),), "span_z2")
    assert not is_isotropic(space)


def test_irreducible_spaces_are_isotropic():
    spec = IrreducibleSpec(1, ComplexPoly({(2, 0): 1}), ComplexPoly({(1, 1): 1}))
    assert is_isotropic(irreducible_space(spec))


def test_isotropy_closure_residuals():
    rng = np.random.default_rng(35)
    from lensdist.families import coefficient_keys, coefficient_matrix

    for name in ("decentering", "weng", "rri3", "opencv_prism4"):
        space = named_space(name)
        keys = coefficient_keys(space.basis)
        basis_mat = coefficient_matrix(space.basis, keys)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            for g in space.basis:
                rotated = DistortionFunction.from_poly(g.poly.rotated(theta))
                vec = coefficient_matrix([rotated], keys)[0]
                sol, *_ = np.linalg.lstsq(basis_mat.T, vec, rcond=None)
                assert np.linalg.norm(basis_mat.T @ sol - vec) < 1e-9


# -- classification -----------------------------------------------------------------


def test_classify_decentering():
    report = classify(named_space("decentering"))
    assert report.dimension == 2
    assert report.isotropic and report.rsf
    assert not report.rotation_invariant


def test_classify_opencv_prism4():
    report = classify(named_space("opencv_prism4"))
    assert report.isotropic
    assert not report.rsf


def test_classify_rri3():
    report = classify(named_space("rri3"))
    assert report.rotation_invariant and report.isotropic and report.rsf


def test_classify_weng_matches_structural_test():
    space = named_space("weng")
    report = classify(space)
    assert report.isotropic
    assert not report.rsf
    assert report.rsf == structural_rsf(space)


def test_classify_matlab():
    report = classify(named_space("matlab"))
    assert report.isotropic and report.rsf and not report.rotation_invariant


def test_classify_remaining_catalog():
    for name in ("thin_prism", "radial_quad", "tangential_quad", "conj_quad"):
        report = classify(named_space(name))
        assert report.isotropic and report.rsf, name


def test_theorem_normal_form_and_perturbation_flip():
    rng = np.random.default_rng(36)
    z3 = ComplexPoly({(3, 0): 0.8, (2, 1): 0.0})
    f_plus = ComplexPoly({(3, 0): 0.8})
    g_minus = ComplexPoly({(1, 2): -0.5})
    base = irreducible_space(IrreducibleSpec(2, f_plus, g_minus))
    space = space_sum(base, named_space("rri3"), label="irr+rri3")
    report = classify(space)
    assert report.isotropic and report.rsf

    # Multiplying the minus part by a phase breaks the real pairing.
    twisted = irreducible_space(
        IrreducibleSpec(2, f_plus, g_minus * np.exp(0.3j))
    )
    twisted_space = space_sum(twisted, named_space("rri3"), label="twisted+rri3")
    report = classify(twisted_space)
    assert report.isotropic
    assert not report.rsf
    assert not structural_rsf(twisted_space)


def test_random_real_irreducible_spaces_classify_symmetric():
    rng = np.random.default_rng(37)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        plus_keys = [(k, l) for (k, l) in _keys_up_to(6) if k - l - 1 == m]
        minus_keys = [(k, l) for (k, l) in _keys_up_to(6) if k - l - 1 == -m]
        plus = ComplexPoly({kl: rng.normal() for kl in plus_keys})
        minus = ComplexPoly({kl: rng.normal() for kl in minus_keys})
        if plus.is_zero() and minus.is_zero():
            continue
        space = irreducible_space(IrreducibleSpec(m, plus, minus))
        report = classify(space)
        assert report.isotropic and report.rsf


def _keys_up_to(max_degree):
    return [(k, n - k) for n in range(2, max_degree + 1) for k in range(n + 1)]


# -- radial / tangential decomposition ------------------------------------------------


def test_radial_tangential_at_examples():
    k = 0.37
    g_r, g_t = radial_tangential_at(rri([k]), (0.3, -0.4))
    assert g_r == pytest.approx(k * 0.25, abs=1e-14)
    assert g_t == pytest.approx(0.0, abs=1e-14)

    g_r, g_t = radial_tangential_at(tangential_homogeneous(2, (1.0, 0.0)), (1.0, 0.0))
    assert g_r == pytest.approx(0.0, abs=1e-15)
    assert g_t == pytest.approx(1.0, abs=1e-15)

    g_r, g_t = radial_tangential_at(conjugate_quadratic(1.0, 0.0), (0.0, 1.0))
    assert g_r == pytest.approx(0.0, abs=1e-15)
    assert g_t == pytest.approx(1.0, abs=1e-15)


def test_radial_tangential_reconstruction():
    rng = np.random.default_rng(38)
    for _ in range(200):
        terms = {
            (int(k), int(n - k)): complex(rng.normal(), rng.normal())
            for n, k in [(rng.integers(2, 7), 0) for _ in range(3)]
            for k in [rng.integers(0, n + 1)]
        }
        f = func(terms)
        r = rng.uniform(1e-3, 1.0)
        a = rng.uniform(0, 2 * math.pi)
        x, y = r * math.cos(a), r * math.sin(a)
        g_r, g_t = radial_tangential_at(f, (x, y))
        dx, dy = f.displacement(x, y)
        assert abs(x * g_r - y * g_t - dx) < 1e-12
        assert abs(y * g_r + x * g_t - dy) < 1e-12


def test_radial_tangential_at_origin_rejected():
    with pytest.raises(ValueError):
        radial_tangential_at(rri([1.0]), (0.0, 0.0))


def test_in_radial_tangential_span():
    rng = np.random.default_rng(39)
    assert in_radial_tangential_span(decentering(*rng.normal(size=2)))
    assert in_radial_tangential_span(rri(rng.normal(size=3)))
    assert not in_radial_tangential_span(conjugate_quadratic(1.0, 0.0))


def radial_tangential_span_residual(func: DistortionFunction) -> float:
    """Rank-test counterpart: residual of the function against the degreewise
    radial/tangential homogeneous bases.  Agrees with the coefficient test."""
    degrees = sorted({k + l for k, l in func.poly.terms})
    if not degrees:
        return 0.0
    basis: list[DistortionFunction] = []
    for n in degrees:
        for j in range(n):
            w = np.zeros(n)
            w[j] = 1.0
            basis.append(radial_homogeneous(n, w))
            basis.append(tangential_homogeneous(n, w))
    keys = coefficient_keys(basis + [func])
    basis_mat = coefficient_matrix(basis, keys)
    vec = coefficient_matrix([func], keys)[0]
    sol, *_ = np.linalg.lstsq(basis_mat.T, vec, rcond=None)
    return float(np.linalg.norm(basis_mat.T @ sol - vec))


def test_span_rank_test_agrees_with_coefficient_test():
    rng = np.random.default_rng(40)
    cases = [
        decentering(0.2, -0.4),
        rri([0.1, 0.2]),
        conjugate_quadratic(1.0, 0.0),
        func({(3, 0): 1.0, (0, 3): 0.5}),
        func({(2, 1): 1j, (1, 1): 2.0}),
    ]
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n + 1))
        cases.append(func({(k, n - k): complex(rng.normal(), rng.normal())}))
    for f in cases:
        residual = radial_tangential_span_residual(f)
        assert in_radial_tangential_span(f) == (residual < 1e-9)


# -- sphere embedding -------------------------------------------------------------------


def test_sphere_point_examples():
    assert sphere_point(1, 0) == pytest.approx((0.0, 0.0, 1.0))
    assert sphere_point(1, 1) == pytest.approx((1.0, 0.0, 0.0))
    assert sphere_point(1, -1) == pytest.approx((-1.0, 0.0, 0.0))


def test_sphere_point_unit_norm_and_scaling_invariance():
    rng = np.random.default_rng(41)
    for _ in range(100):
        mu = complex(rng.normal(), rng.normal())
        nu = complex(rng.normal(), rng.normal())
        p = sphere_point(mu, nu)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
        scale = complex(rng.normal(), rng.normal())
        if abs(scale) > 1e-6:
            q = sphere_point(scale * mu, scale * nu)
            assert np.allclose(p, q, atol=1e-9)


def test_sphere_point_rejects_zero():
    with pytest.raises(ValueError):
        sphere_point(0, 0)
