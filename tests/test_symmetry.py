"""Reflection symmetry, isotropy, classification, and the pointwise split."""

import cmath
import math
from functools import reduce
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lensdist import calib
from lensdist.families import (
    CATALOG_NAMES,
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
from lensdist.poly import DEFAULT_TOL, ComplexPoly
from lensdist.symmetry import (
    ClassReport,
    _axis_mod_pi,
    _axis_residual,
    _best_axis,
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

from conftest import conjugated


def axis_distance(a, b):
    d = abs((a - b) % math.pi)
    return min(d, math.pi - d)


COUNTEREXAMPLE = {(3, 0): 1.0, (1, 2): 1j}  # z^3 + i z zbar^2


# -- reflection symmetry --------------------------------------------------------


def test_zero_function_convention():
    report = reflection_symmetry(ComplexPoly.zero())
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
    f = ComplexPoly(COUNTEREXAMPLE)
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
    report = reflection_symmetry(ComplexPoly({(2, 1): 1j}))
    assert not report.symmetric and report.axis is None


def pointwise_symmetry_residual(f, theta, n=200, seed=99):
    # Independent oracle: the defining functional equation of a mirror
    # symmetry, exp(2 i t) conj(f(z, zbar)) == f(exp(2 i t) zbar, exp(-2 i t) z),
    # checked by direct evaluation on random points in the unit disc.
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0, 1, size=n))
    a = rng.uniform(0, 2 * math.pi, size=n)
    zs = r * np.exp(1j * a)
    lhs = np.exp(2j * theta) * np.conj(f.evaluate(zs))
    rhs = f.evaluate(np.exp(2j * theta) * np.conj(zs))
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
        f = ComplexPoly(terms)
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


@pytest.mark.parametrize("theta", [-2 * math.pi, -math.pi, -0.0, 0.0, math.pi])
def test_axis_of_a_multiple_of_pi_is_positive_zero(theta):
    axis = _axis_mod_pi(theta)
    assert axis == 0.0 and math.copysign(1.0, axis) == 1.0


def test_axis_of_minus_z2_is_positive_zero():
    # The candidate axis is -phase(-1) / 1 = -pi.
    func = ComplexPoly({(2, 0): -1})
    assert math.copysign(1.0, reflection_symmetry(func).axis) == 1.0
    details = classify(ModelSpace((func,), "neg_z2")).details
    assert details == "structural_normal_form=False; common_axis=0.0"


def test_a_coefficient_whose_angle_underflows_has_axis_zero():
    # arg(2 + 5e-324 i) underflows to 0.0, where cmath.phase raises OverflowError.
    report = reflection_symmetry(ComplexPoly({(2, 0): 2 + 5e-324j}))
    assert report.symmetric and report.axis == 0.0
    assert pairwise_conditions(ComplexPoly({(2, 0): 2 + 5e-324j, (0, 2): 1.0}))


# -- pairwise conditions ---------------------------------------------------------


def test_pairwise_single_monomial_vacuous():
    assert pairwise_conditions(ComplexPoly({(4, 0): 0.3 + 9j}))


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
    assert is_rotation_invariant(ComplexPoly({(2, 1): 1j}))
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
    space = ModelSpace((ComplexPoly({(2, 0): 1.0}),), "span_z2")
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
                rotated = g.rotated(theta)
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


# -- exact certificates against the sampled and finite-angle oracles -------------------


def _sampled_rsf(space, count=50, seed=0) -> bool:
    """Sampled oracle for rsf: the basis and ``count`` seeded random members
    all pass the definitional symmetry check."""
    rng = np.random.default_rng(seed)
    members = chain(
        space.basis, (space.member(rng.standard_normal(space.dimension)) for _ in range(count))
    )
    return all(reflection_symmetry(f).symmetric for f in members)


PROBE_ANGLES = (math.pi / 7, math.pi / 3, 2.0)


def _probed_isotropic(space, tol=1e-9) -> bool:
    """Finite-angle oracle for isotropy: the basis rotated by a few fixed
    angles stays in the span."""
    keys = coefficient_keys(space.basis)
    basis_mat = coefficient_matrix(space.basis, keys)
    for theta in PROBE_ANGLES:
        rotated = coefficient_matrix([f.rotated(theta) for f in space.basis], keys)
        sol, *_ = np.linalg.lstsq(basis_mat.T, rotated.T, rcond=None)
        if np.any(np.linalg.norm(basis_mat.T @ sol - rotated.T, axis=0) > tol):
            return False
    return True


def _span(funcs, label="drawn") -> ModelSpace:
    """Span of the given functions, dependent ones dropped."""
    lines = [ModelSpace((f,), label) for f in funcs]
    return reduce(lambda a, b: space_sum(a, b, label), lines)


def _random_key(rng, max_degree=5):
    n = int(rng.integers(2, max_degree + 1))
    k = int(rng.integers(0, n + 1))
    return k, n - k


def _common_axis_space(draw, rng):
    # Every basis function symmetric about one axis theta (often theta = 0,
    # which gives real spans such as span{z^2, z^3 zbar}).
    theta = 0.0 if draw(st.booleans()) else float(rng.uniform(0, math.pi))

    def symmetric_monomial():
        k, l = _random_key(rng)
        return ComplexPoly({(k, l): rng.normal() * np.exp(-1j * (k - l - 1) * theta)})

    makers = {
        "quad": lambda: symmetric_quadratic(theta, *rng.normal(size=3)),
        "cubic": lambda: symmetric_cubic(theta, *rng.normal(size=4)),
        "prism": lambda: thin_prism(math.cos(theta), math.sin(theta)) * rng.normal(),
        "rri": lambda: rri(rng.normal(size=2)),
        "monomial": symmetric_monomial,
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=1, max_size=3))
    return _span([makers[kind]() for kind in kinds])


def _irreducible_space(draw, rng):
    # {gamma plus + conj(gamma) minus}, optionally with a phase twist on the
    # minus part (which breaks the real pairing) and plus rri3.
    m = draw(st.integers(1, 3))
    keys = _keys_up_to(6)
    parts = draw(st.sampled_from(["both", "plus", "minus"]))
    plus = ComplexPoly(
        {kl: rng.normal() for kl in keys if kl[0] - kl[1] - 1 == m} if parts != "minus" else {}
    )
    minus = ComplexPoly(
        {kl: rng.normal() for kl in keys if kl[0] - kl[1] - 1 == -m} if parts != "plus" else {}
    )
    if draw(st.booleans()):
        minus = minus * np.exp(1j * rng.uniform(0.1, 3.0))
    space = irreducible_space(IrreducibleSpec(m, plus, minus))
    if draw(st.booleans()):
        space = space_sum(space, named_space("rri3"))
    return space


def _catalog_sum(draw, rng):
    names = draw(st.lists(st.sampled_from(CATALOG_NAMES), min_size=1, max_size=3))
    return reduce(space_sum, map(named_space, names))


def _sparse_monomial_space(draw, rng):
    # Basis functions of one or two monomials with phases 1, i or e^{i pi/4}.
    phases = st.sampled_from([1.0, 1j, np.exp(1j * math.pi / 4)])
    funcs = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            terms[_random_key(rng)] = draw(phases) * rng.uniform(0.5, 2.0)
        funcs.append(ComplexPoly(terms))
    return _span(funcs)


def _random_subspace(draw, rng):
    base = named_space(
        draw(st.sampled_from(["decentering", "thin_prism", "radial_quad", "matlab", "weng"]))
    )
    k = draw(st.integers(1, base.dimension))
    rows = rng.standard_normal((k, base.dimension))
    return _span([base.member(row) for row in rows])


SPACE_KINDS = (
    _common_axis_space,
    _irreducible_space,
    _catalog_sum,
    _sparse_monomial_space,
    _random_subspace,
)


@st.composite
def drawn_spaces(draw):
    kind = draw(st.sampled_from(SPACE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return kind(draw, rng)


ORACLE_SETTINGS = settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Spans whose members all share one mirror axis, so rsf holds although none
# of them has the isotropic normal form.
COMMON_AXIS_SPANS = {
    "sym_quad": (symmetric_quadratic(0.3, 1, 0.5, -0.2),),
    "sym_quad+sym_cubic": (
        symmetric_quadratic(0.3, 1, 0.5, -0.2),
        symmetric_cubic(0.3, 1, 0.5, -0.2, 0.1),
    ),
    "decentering_line": (decentering(0.02, -0.01),),
    "z2+z3zbar": (ComplexPoly({(2, 0): 1.0}), ComplexPoly({(3, 1): 1.0})),
}


@pytest.mark.parametrize("name", sorted(COMMON_AXIS_SPANS))
def test_common_axis_spans_are_rsf(name):
    space = ModelSpace(COMMON_AXIS_SPANS[name], name)
    assert _sampled_rsf(space)
    report = classify(space)
    assert report.rsf
    assert not structural_rsf(space)
    assert report.details.startswith("structural_normal_form=False; common_axis=")
    assert not report.details.endswith("common_axis=None")


def test_common_axis_is_reported():
    report = classify(ModelSpace(COMMON_AXIS_SPANS["sym_quad"], "sym_quad"))
    axis = float(report.details.rsplit("=", 1)[1])
    assert axis_distance(axis, 0.3) < 1e-12
    assert classify(named_space("rri3")).details.endswith("common_axis=any")
    assert classify(named_space("weng")).details == (
        "structural_normal_form=False; common_axis=None"
    )


def _mirror_spaces():
    # The catalog, rri1..rri7, the full_* spaces, the linear table families,
    # a 12-step sweep, the common-axis spans, and the swirl i z^2 zbar, whose
    # mirror image swirls the other way.
    spaces = [named_space(name) for name in CATALOG_NAMES]
    spaces += [named_space(f"rri{n}") for n in range(1, 8)]
    spaces += [named_space(name) for name in ("full_quad", "full_cubic", "full_quad_cubic")]
    families = [calib.parse_family(name) for name in calib.TABLE_FAMILIES]
    spaces += [family for family in families if family.linear]
    spaces += [calib._mixed_rri_space(k * math.pi / 12) for k in range(12)]
    spaces += [ModelSpace(basis, name) for name, basis in COMMON_AXIS_SPANS.items()]
    return spaces + [ModelSpace((tangential_homogeneous(3, (1, 0, 1)),), "swirl")]


def test_classify_commutes_with_the_mirror():
    # The mirror keeps every flag and the structural certificate, and turns a
    # common axis theta into (pi - theta) mod pi.
    for space in _mirror_spaces():
        mirrored = ModelSpace(tuple(conjugated(f) for f in space.basis), space.label)
        report, image = classify(space), classify(mirrored)
        flags = [(r.dimension, r.isotropic, r.rotation_invariant, r.rsf) for r in (report, image)]
        assert flags[0] == flags[1], space.label
        (structural, axis), (image_structural, image_axis) = (
            [part.split("=")[1] for part in r.details.split("; ")] for r in (report, image)
        )
        assert structural == image_structural, space.label
        if axis in ("any", "None"):
            assert image_axis == axis, space.label
        else:
            theta, image_theta = float(axis), float(image_axis)
            assert 0.0 <= theta < math.pi and 0.0 <= image_theta < math.pi, space.label
            assert axis_distance(image_theta, math.pi - theta) <= 1e-12, space.label


@ORACLE_SETTINGS
@given(space=drawn_spaces())
@example(space=ModelSpace((ComplexPoly({(3, 0): 1.0}), ComplexPoly({(1, 2): 1j})), "counterexample_span"))
def test_rsf_matches_sampled_oracle(space):
    assert classify(space).rsf == _sampled_rsf(space)


@ORACLE_SETTINGS
@given(space=drawn_spaces())
@example(space=ModelSpace((ComplexPoly({(2, 0): 1.0}),), "span_z2"))
@example(space=ModelSpace(COMMON_AXIS_SPANS["sym_quad+sym_cubic"], "sym_quad+sym_cubic"))
def test_isotropy_matches_finite_angle_oracle(space):
    assert is_isotropic(space) == _probed_isotropic(space)


# -- the per-basis classification: the reference for the matrix path -----------------


def _block(poly, size):
    """The terms of poly of winding +size or -size."""
    return ComplexPoly({kl: c for kl, c in poly.terms.items() if abs(kl[0] - kl[1] - 1) == size})


def _closure_images(polys):
    """Each |m| block of each poly, and each block of nonzero winding turned by
    i sign(m): the rotation generator is |m| times that quarter turn on it."""
    images = []
    for poly in polys:
        for size in {abs(k - l - 1) for k, l in poly.terms}:
            block = _block(poly, size)
            images.append(block)
            if size:
                images.append(ComplexPoly({(k, l): (1j if k - l - 1 > 0 else -1j) * c
                                           for (k, l), c in block.terms.items()}))
    return images


def _span_residuals(basis_mat, vectors):
    """The largest complex coefficient of each row of ``vectors`` minus its lstsq
    fit by the rows of ``basis_mat``: its distance from their span, per coefficient."""
    sol, *_ = np.linalg.lstsq(basis_mat.T, vectors.T, rcond=None)
    off = np.ascontiguousarray(vectors - (basis_mat.T @ sol).T)
    return np.abs(off.view(complex)).max(axis=1)


def _reference_isotropic(space):
    keys = coefficient_keys(space.basis)
    basis_mat = coefficient_matrix(space.basis, keys)
    images = coefficient_matrix(_closure_images(space.basis), keys)
    return bool(np.all(_span_residuals(basis_mat, images) <= DEFAULT_TOL))


def _reference_structural_rsf(space):
    windings = set()
    for f in space.basis:
        for (k, l), c in f.terms.items():
            m = k - l - 1
            if m == 0 and abs(c.imag) > DEFAULT_TOL:
                return False
            if m != 0 and abs(c) > DEFAULT_TOL:
                windings.add(abs(m))
    if not windings:
        return True
    if len(windings) > 1:
        return False
    (m,) = windings
    keys = [kl for kl in coefficient_keys(space.basis) if abs(kl[0] - kl[1] - 1) == m]
    projections = [_block(f, m) for f in space.basis]
    proj_mat = coefficient_matrix(projections, keys)
    svals = np.linalg.svd(proj_mat, compute_uv=False)
    if int(np.sum(svals > svals[0] * 1e-9)) != 2:
        return False
    images = coefficient_matrix(_closure_images(projections), keys)
    if np.any(_span_residuals(proj_mat, images) > DEFAULT_TOL):
        return False
    norms = np.linalg.norm(proj_mat, axis=1)
    idx = int(np.argmax(norms))
    w = projections[idx] * (1.0 / norms[idx])
    return reflection_symmetry(w).symmetric


def _reference_classify(space):
    structural = _reference_structural_rsf(space)
    terms = [(k - l - 1, c) for f in space.basis for (k, l), c in f.terms.items()]
    axis, residual = _best_axis(terms)
    common = axis if residual <= DEFAULT_TOL else None
    return ClassReport(
        space.dimension,
        _reference_isotropic(space),
        all(is_rotation_invariant(f, DEFAULT_TOL) for f in space.basis),
        structural or common is not None,
        f"structural_normal_form={structural}; common_axis={common}",
    )


def _flags(report):
    """The flags of a ClassReport: the axis itself is left out, only whether there is one."""
    return (
        report.isotropic,
        report.rotation_invariant,
        report.rsf,
        report.details.split(";")[0],
        report.details.endswith("common_axis=None"),
    )


def _unit_scaled(space):
    """The basis with each function times the power of two that brings its
    largest coefficient modulus into [1, 2), as the matrix path reads it."""
    exponents = (math.frexp(max(map(abs, f.terms.values())))[1] for f in space.basis)
    return ModelSpace(tuple(f * math.ldexp(1.0, 1 - e) for f, e in zip(space.basis, exponents)),
                      space.label)


@st.composite
def sparse_spaces(draw):
    """Spans of one to four functions, each one to three monomials of degree <= 7
    from a shared pool, with phases j pi / 4 and moduli 10^u, u in [-3, 3]."""
    pool = st.sampled_from(draw(st.lists(st.sampled_from(_keys_up_to(7)), min_size=1,
                                         max_size=4, unique=True)))
    coefficient = st.builds(lambda j, u: cmath.rect(10.0**u, j * math.pi / 4),
                            st.integers(0, 7), st.floats(-3.0, 3.0))
    bases = st.lists(st.dictionaries(pool, coefficient, min_size=1, max_size=3),
                     min_size=1, max_size=4)
    return _span([ComplexPoly(terms) for terms in draw(bases)])


@ORACLE_SETTINGS
@given(space=st.one_of(sparse_spaces(), drawn_spaces()))
def test_matrix_classification_matches_the_per_basis_reference(space):
    # The reference's absolute tolerances hold for unit-scale functions only.
    unit = _unit_scaled(space)
    assert is_isotropic(space) == _reference_isotropic(unit)
    assert structural_rsf(space) == _reference_structural_rsf(unit)
    assert _flags(classify(space)) == _flags(_reference_classify(unit))


@pytest.mark.parametrize(
    "name",
    sorted({*CATALOG_NAMES, *(n for n in calib.TABLE_FAMILIES if calib.parse_family(n).linear)}),
)
def test_named_spaces_classify_as_the_per_basis_reference(name):
    space = calib.parse_family(name)
    assert classify(space) == _reference_classify(space)


def test_two_scales_of_zbar2_classify_as_conj_quad():
    space = ModelSpace((ComplexPoly({(0, 2): 1.0}), ComplexPoly({(0, 2): 2.0**-30 * 1j})), "zbar2_pair")
    report = classify(space)
    assert (report.isotropic, report.rotation_invariant, report.rsf) == (True, False, True)
    assert report.details == "structural_normal_form=True; common_axis=None"
    assert report == classify(named_space("conj_quad"))


def test_classify_solves_no_least_squares(monkeypatch):
    names = {*CATALOG_NAMES, *(n for n in calib.TABLE_FAMILIES if calib.parse_family(n).linear)}
    spaces = [calib.parse_family(name) for name in sorted(names)]
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    for space in spaces:
        classify(space)
    assert calls == []


def test_classify_builds_no_polynomial(monkeypatch):
    names = {*CATALOG_NAMES, *(n for n in calib.TABLE_FAMILIES if calib.parse_family(n).linear)}
    spaces = [calib.parse_family(name) for name in sorted(names)]
    built = []
    init = ComplexPoly.__post_init__

    def counting_init(self):
        built.append(dict(self.terms))
        init(self)

    monkeypatch.setattr(ComplexPoly, "__post_init__", counting_init)
    for space in spaces:
        classify(space)
    assert built == []


@pytest.mark.parametrize("scale", [1.0, -1.0, 1e-6, 1e-9, 1e-10, 2.0**-40, 2.0**20, 1e6])
def test_span_of_z2_classifies_alike_at_every_scale(scale):
    report = classify(ModelSpace((ComplexPoly({(2, 0): scale}),), "span_z2"))
    assert (report.isotropic, report.rotation_invariant, report.rsf) == (False, False, True)
    assert report.details.startswith("structural_normal_form=False;")


@ORACLE_SETTINGS
@given(space=st.one_of(sparse_spaces(), drawn_spaces()), data=st.data())
def test_classify_flags_do_not_depend_on_basis_scale(space, data):
    # Each function times +/-2^k, k in [-40, 20]: ModelSpace judges independence
    # on the unit rows, so no spread of scales makes a basis dependent.
    scale = st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-40, 20))
    scales = data.draw(st.lists(scale, min_size=space.dimension, max_size=space.dimension))
    scaled = ModelSpace(tuple(f * s for f, s in zip(space.basis, scales)), space.label)
    assert _flags(classify(scaled)) == _flags(classify(space))


def _reference_best_axis(terms):
    """``_best_axis`` as it scored 2|m0| candidates, de-duplicated within 1e-12,
    from gamma taken into the right half-plane, m0 the smallest |winding| above
    DEFAULT_TOL (of all windings when none is above it)."""
    swirling = [(m, c) for m, c in terms if m != 0]
    if not swirling:
        return "any", max((abs(c.imag) for _, c in terms), default=0.0)
    above = [(m, c) for m, c in swirling if abs(c) > DEFAULT_TOL]
    m0, c0 = min(above or swirling, key=lambda item: (abs(item[0]), -abs(item[1])))
    if c0.real < 0 or (c0.real == 0 and c0.imag < 0):
        c0 = -c0
    base = -cmath.phase(c0) / m0
    candidates = []
    for j in range(2 * abs(m0)):
        cand = _axis_mod_pi(base + j * math.pi / m0)
        if all(
            min(abs(cand - seen), math.pi - abs(cand - seen)) > 1e-12
            for seen in candidates
        ):
            candidates.append(cand)
    candidates.sort()
    best_axis, best_residual = candidates[0], math.inf
    for cand in candidates:
        res = _axis_residual(terms, cand)
        if res < best_residual:
            best_axis, best_residual = cand, res
    return best_axis, best_residual


_COEFFICIENTS = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def axis_terms(draw):
    """(winding m, gamma) term lists over monomials of degree <= 16, so
    |m| <= 17; windings may repeat, as in the rows of a basis.  Half are
    symmetric about a drawn axis alpha: real coefficients times exp(-i m alpha)."""
    keys = draw(st.lists(st.sampled_from(_keys_up_to(16)), min_size=1, max_size=6))
    windings = [k - l - 1 for k, l in keys]
    if draw(st.booleans()):
        return [(m, draw(_COEFFICIENTS)) for m in windings]
    alpha = draw(st.floats(-2 * math.pi, 2 * math.pi))
    reals = st.floats(-1e3, 1e3, allow_subnormal=False)
    return [(m, draw(reals) * cmath.exp(-1j * m * alpha)) for m in windings]


def _axis_outcome(best_axis, terms):
    """The axis and residual as float.hex, or the type of the error raised
    (cmath.phase raises OverflowError where its angle underflows)."""
    try:
        return tuple(v if isinstance(v, str) else float.hex(v) for v in best_axis(terms))
    except ArithmeticError as err:
        return type(err)


@ORACLE_SETTINGS
@given(terms=axis_terms())
def test_best_axis_matches_the_deduplicated_reference_bit_for_bit(terms):
    assert _axis_outcome(_best_axis, terms) == _axis_outcome(_reference_best_axis, terms)


# -- single-function verdicts on the unit row of their span ----------------------------


def _line(f) -> ModelSpace:
    return ModelSpace((f,), "line")


def test_scaled_symmetric_quadratic_is_symmetric_like_its_span():
    f = symmetric_quadratic(0.7, 1.0, 2.0, 3.0)
    big = 2**20 * f
    report = reflection_symmetry(big)
    assert classify(_line(big)).rsf
    assert report.symmetric and axis_distance(report.axis, 0.7) < 1e-12
    assert report.residual == 2**20 * reflection_symmetry(f).residual


def test_small_counterexample_is_not_symmetric():
    g = 1e-11 * ComplexPoly(COUNTEREXAMPLE)
    report = reflection_symmetry(g)
    assert not classify(_line(g)).rsf
    assert (report.symmetric, report.axis, report.pairwise_ok) == (False, None, True)
    assert report.residual == 1e-11


def test_small_z2_is_not_rotation_invariant():
    h = ComplexPoly({(2, 0): 1e-11})
    assert not classify(_line(h)).rotation_invariant
    assert not is_rotation_invariant(h)


@pytest.mark.parametrize("tol", [-1.0, math.nan, 0.0, math.inf])
@pytest.mark.parametrize(
    "verdict",
    [reflection_symmetry, pairwise_conditions, is_rotation_invariant, in_radial_tangential_span],
)
def test_every_single_function_verdict_rejects_a_tol_that_is_not_finite_and_positive(verdict, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        verdict(ComplexPoly(COUNTEREXAMPLE), tol)


def test_small_zbar2_is_not_in_the_radial_tangential_span():
    assert not in_radial_tangential_span(ComplexPoly({(0, 2): 1e-11}))
    assert in_radial_tangential_span(ComplexPoly({(1, 1): 1e-11, (2, 0): 1e-11j}))


_NONZERO_REALS = st.floats(-1e3, 1e3).filter(lambda x: abs(x) >= 1e-3)
_UNIT_REALS = st.builds(lambda x, sign: sign * x, st.floats(1.0, 2.0, exclude_max=True),
                        st.sampled_from([1.0, -1.0]))
_INVARIANT_KEYS = [(k, k - 1) for k in range(2, 5)]


@st.composite
def verdict_functions(draw):
    """Nonzero functions of one to four monomials of degree <= 7: sparse ones
    with phases j pi / 4 and moduli 10^u, u in [-3, 3]; ones built symmetric
    about a drawn axis alpha (real coefficients times exp(-i m alpha)); ones
    with arbitrary complex coefficients; and band ones, a symmetric or
    rotation-invariant base with moduli in [1, 2), which is its own unit row,
    plus one or two terms of degree <= 16 and modulus 10^u, u in [-11, -8],
    about DEFAULT_TOL."""
    keys = draw(st.lists(st.sampled_from(_keys_up_to(7)), min_size=1, max_size=4, unique=True))
    kind = draw(st.sampled_from(("sparse", "symmetric", "complex", "band")))
    if kind == "sparse":
        modulus, phase = st.floats(-3.0, 3.0), st.integers(0, 7)
        coeffs = [cmath.rect(10.0 ** draw(modulus), draw(phase) * math.pi / 4) for _ in keys]
    elif kind == "symmetric":
        coeffs = _symmetric_coefficients(keys, draw(st.floats(0.0, math.pi)), draw)
    elif kind == "complex":
        coeffs = [complex(draw(_NONZERO_REALS), draw(st.floats(-1e3, 1e3))) for _ in keys]
    else:
        if draw(st.booleans()):
            keys = draw(st.lists(st.sampled_from(_INVARIANT_KEYS), min_size=1, unique=True))
        coeffs = _symmetric_coefficients(keys, draw(st.floats(0.0, math.pi)), draw, _UNIT_REALS)
        terms = dict(zip(keys, coeffs))
        for key in draw(st.lists(st.sampled_from(_keys_up_to(16)), min_size=1, max_size=2)):
            bump = cmath.rect(10.0 ** draw(st.floats(-11.0, -8.0)), draw(st.floats(0.0, 2 * math.pi)))
            terms[key] = terms.get(key, 0j) + bump
        return ComplexPoly(terms)
    return ComplexPoly(dict(zip(keys, coeffs)))


def _symmetric_coefficients(keys, alpha, draw, reals=_NONZERO_REALS):
    """Real coefficients times exp(-i m alpha): symmetric about alpha."""
    return [draw(reals) * cmath.exp(-1j * (k - l - 1) * alpha) for k, l in keys]


def _axis_period(f) -> float:
    """pi / g, g the gcd of the nonzero |windings| of f: the axes of a symmetric f
    form one orbit of that period."""
    return math.pi / math.gcd(*{abs(k - l - 1) for k, l in f.terms if k - l - 1})


def _orbit_distance(a, b, period) -> float:
    d = (a - b) % period
    return min(d, period - d)


def _verdicts(f):
    report = reflection_symmetry(f)
    return (report.symmetric, report.axis == "any", report.pairwise_ok,
            is_rotation_invariant(f), in_radial_tangential_span(f))


_POWERS_OF_TWO = st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-60, 39))


def _line_flags(f):
    """The flags of span{f}, once each has been checked against the verdict
    on f that must equal it; a line is isotropic when it is invariant."""
    report, cls = reflection_symmetry(f), classify(_line(f))
    assert report.symmetric == cls.rsf
    assert cls.details.endswith(f"; common_axis={report.axis}")
    assert is_rotation_invariant(f) == cls.rotation_invariant
    assert cls.isotropic == cls.rotation_invariant
    return cls.isotropic, cls.rsf


@ORACLE_SETTINGS
@given(f=verdict_functions(), s=_POWERS_OF_TWO)
def test_single_function_verdicts_are_those_of_its_span(f, s):
    _line_flags(s * f)


# Lines with terms about DEFAULT_TOL, with their (isotropic, rsf) flags: an
# imaginary part or winding terms of 5e-10, above it; a z^16 term of 1e-10,
# at it, whose generator image 1.5e-9 is not; an imaginary part of 1e-10; a
# winding term of 5e-11, below it, that must not choose the candidate axes.
BAND_CASES = {
    "z^4 + 5e-11 i z zbar": ({(4, 0): 1, (1, 1): 5e-11j}, (False, True)),
    "z^2 zbar (1 + 5e-10 i)": ({(2, 1): 1 + 5e-10j}, (True, False)),
    "z^2 zbar + 5e-10 (z^3 + i z zbar^2)": ({(2, 1): 1, (3, 0): 5e-10, (1, 2): 5e-10j}, (False, False)),
    "z^2 zbar + 1e-10 z^16": ({(2, 1): 1, (16, 0): 1e-10}, (True, True)),
    "z^2 zbar + 5e-10 z^3": ({(2, 1): 1, (3, 0): 5e-10}, (False, True)),
    "z^2 zbar (1 + 1e-10 i)": ({(2, 1): 1 + 1e-10j}, (True, True)),
}


@pytest.mark.parametrize("name", sorted(BAND_CASES))
def test_a_line_in_the_tolerance_band_has_flags_that_agree_at_every_scale(name):
    terms, flags = BAND_CASES[name]
    for k in range(-40, 21):
        for sign in (1.0, -1.0):
            assert _line_flags(math.ldexp(sign, k) * ComplexPoly(terms)) == flags, (k, sign)


@ORACLE_SETTINGS
@given(f=verdict_functions(), s=_POWERS_OF_TWO)
def test_the_residual_keeps_the_bits_of_the_raw_coefficients(f, s):
    # The unit row is the raw row times a power of two, so the residual read
    # back in the function's own units is the one the raw terms give when
    # their candidate threshold is the unit row's tol in those units.
    f = s * f
    _, exponent = math.frexp(max(map(abs, f.terms.values())))
    raw_terms = [(k - l - 1, c) for (k, l), c in f.terms.items()]
    _, raw = _best_axis(raw_terms, math.ldexp(DEFAULT_TOL, exponent - 1))
    assert float.hex(reflection_symmetry(f).residual) == float.hex(raw)


def test_a_largest_modulus_of_one_leaves_the_unit_row_unscaled():
    # numpy's complex abs can round these unit moduli down to 1 - 2^-53, where
    # Python's abs gives 1.  Read so, the unit row doubled, the 1e-10 zbar^2
    # term rose above tol, and its winding -3 chose the candidate axes.
    c = complex(-0.6536436208636119, -0.7568024953079282)
    d = complex(0.960170286650366, -0.27941549819892586)
    f = ComplexPoly({(0, 2): 1e-10, (1, 4): c, (0, 5): d})
    raw_terms = [(k - l - 1, gamma) for (k, l), gamma in f.terms.items()]
    assert reflection_symmetry(f).residual == _best_axis(raw_terms)[1]


@ORACLE_SETTINGS
@given(f=verdict_functions(), k=st.integers(-40, 20), sign=st.sampled_from([1.0, -1.0]))
def test_verdicts_do_not_depend_on_scale(f, k, sign):
    # Scaling by +/-2^k leaves the unit row as it is up to sign, and the
    # candidate axes come from gamma taken into the right half-plane, so the
    # axis keeps its bits and the residual scales exactly.
    s = math.ldexp(sign, k)
    assert _verdicts(s * f) == _verdicts(f)
    scaled, unscaled = reflection_symmetry(s * f), reflection_symmetry(f)
    assert float.hex(scaled.residual) == float.hex(abs(s) * unscaled.residual)
    assert repr(scaled.axis) == repr(unscaled.axis)


@ORACLE_SETTINGS
@given(f=verdict_functions(), theta=st.floats(-math.pi, math.pi))
def test_the_axis_of_a_rotated_function_turns_back_by_the_angle(f, theta):
    # rotated(theta) turns the field by -theta, so its axis is the axis of f
    # minus theta, modulo pi / g.
    report, turned = reflection_symmetry(f), reflection_symmetry(f.rotated(theta))
    assert _verdicts(f.rotated(theta)) == _verdicts(f)
    if report.symmetric and report.axis != "any":
        assert _orbit_distance(turned.axis, report.axis - theta, _axis_period(f)) <= 1e-12
    else:
        assert turned.axis == report.axis


@ORACLE_SETTINGS
@given(keys=st.lists(st.sampled_from(_keys_up_to(7)), min_size=1, max_size=4, unique=True),
       alpha=st.floats(-2 * math.pi, 2 * math.pi), data=st.data())
def test_a_function_built_symmetric_about_alpha_has_an_axis_in_its_orbit(keys, alpha, data):
    f = ComplexPoly(dict(zip(keys, _symmetric_coefficients(keys, alpha, data.draw))))
    report = reflection_symmetry(f)
    assert report.symmetric and classify(_line(f)).rsf
    if any(k - l - 1 for k, l in keys):
        assert _orbit_distance(report.axis, alpha, _axis_period(f)) <= 1e-12
    else:
        assert report.axis == "any"


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
        f = ComplexPoly(terms)
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


def radial_tangential_span_residual(func: ComplexPoly) -> float:
    """Rank-test counterpart: residual of the function against the degreewise
    radial/tangential homogeneous bases.  Agrees with the coefficient test."""
    degrees = sorted({k + l for k, l in func.terms})
    if not degrees:
        return 0.0
    basis: list[ComplexPoly] = []
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
        ComplexPoly({(3, 0): 1.0, (0, 3): 0.5}),
        ComplexPoly({(2, 1): 1j, (1, 1): 2.0}),
    ]
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n + 1))
        cases.append(ComplexPoly({(k, n - k): complex(rng.normal(), rng.normal())}))
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
    # Scales whose |mu|^2 + |nu|^2 overflows or underflows.
    assert sphere_point(1e200, 0) == (0.0, 0.0, 1.0)
    assert sphere_point(1e-170, 0) == (0.0, 0.0, 1.0)
    assert sphere_point(3e154, 4e154) == pytest.approx(sphere_point(3, 4), abs=1e-15)
    assert sphere_point(3e-170j, 4e-170) == pytest.approx(sphere_point(3j, 4), abs=1e-15)
    assert sphere_point(complex(1e308, -1e308), 1e308) == pytest.approx(
        sphere_point(1 - 1j, 1), abs=1e-15
    )


def test_sphere_point_rejects_zero():
    with pytest.raises(ValueError):
        sphere_point(0, 0)
    for bad in (math.nan, math.inf, -math.inf, complex(1, math.nan)):
        with pytest.raises(ValueError):
            sphere_point(bad, 1)
        with pytest.raises(ValueError):
            sphere_point(1, bad)
