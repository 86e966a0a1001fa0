"""Model family constructors, their identities, and linear space machinery."""

import dataclasses
import math

import numpy as np
import pytest

from lensdist import calib
from lensdist.families import (
    CATALOG_NAMES,
    DistortionFunction,
    IrreducibleSpec,
    ModelSpace,
    coefficient_matrix,
    conjugate_quadratic,
    decentering,
    full_poly_space,
    irreducible_space,
    load_space,
    mixed_quadratic,
    named_space,
    opencv_thin_prism,
    radial_homogeneous,
    rri,
    save_space,
    space_sum,
    symmetric_cubic,
    symmetric_quadratic,
    tangential_homogeneous,
    thin_prism,
)
from lensdist.poly import ComplexPoly, RealPolyModel


def block2(func):
    return func.real_form.blocks.get(2, np.zeros((2, 3)))


# -- rri ----------------------------------------------------------------------


def test_rri_single_coefficient_cubic():
    f = rri([1.0])
    assert dict(f.poly.terms) == {(2, 1): 1 + 0j}
    assert np.array_equal(f.real_form.blocks[3], [[1, 0, 1, 0], [0, 1, 0, 1]])


def test_rri_zero_coefficients():
    assert rri([0.0, 0.0]).is_zero()


def test_rri_on_axis_evaluation():
    k1, k2 = 0.11, -0.04
    f = rri([k1, k2])
    for r in (0.2, 0.5, 0.9):
        dx, dy = f.displacement(r, 0.0)
        assert dx == pytest.approx(k1 * r**3 + k2 * r**5, abs=1e-14)
        assert dy == pytest.approx(0.0, abs=1e-15)


def test_rri_rejects_empty():
    with pytest.raises(ValueError):
        rri([])


def test_rri_only_invariant_monomials():
    f = rri([0.3, -0.2, 0.1, 0.05])
    assert all(k - l - 1 == 0 for k, l in f.poly.terms)


# -- homogeneous radial / tangential ------------------------------------------


def test_radial_homogeneous_quadratic_block():
    t1, t2 = 0.7, -0.3
    f = radial_homogeneous(2, (t1, t2))
    assert np.array_equal(block2(f), [[t1, t2, 0], [0, t1, t2]])
    assert radial_homogeneous(2, (0, 0)).is_zero()


def test_radial_homogeneous_parallel_to_point():
    rng = np.random.default_rng(20)
    for _ in range(100):
        n = rng.integers(2, 6)
        f = radial_homogeneous(int(n), rng.normal(size=int(n)))
        x, y = rng.normal(size=2)
        dx, dy = f.displacement(x, y)
        assert abs(x * dy - y * dx) < 1e-12 * max(1.0, abs(dx) + abs(dy))


def test_tangential_homogeneous_quadratic_block():
    u1, u2 = 0.4, 0.9
    f = tangential_homogeneous(2, (u1, u2))
    assert np.array_equal(block2(f), [[0, -u1, -u2], [u1, u2, 0]])
    assert tangential_homogeneous(2, (0, 0)).is_zero()


def test_tangential_homogeneous_orthogonal_to_point():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = rng.integers(2, 6)
        f = tangential_homogeneous(int(n), rng.normal(size=int(n)))
        x, y = rng.normal(size=2)
        dx, dy = f.displacement(x, y)
        assert abs(x * dx + y * dy) < 1e-12 * max(1.0, abs(dx) + abs(dy))


def test_homogeneous_weight_length_checked():
    with pytest.raises(ValueError):
        radial_homogeneous(3, (1.0, 2.0))
    with pytest.raises(ValueError):
        tangential_homogeneous(1, (1.0,))


# -- quadratic catalog ----------------------------------------------------------


def test_decentering_block():
    assert np.array_equal(block2(decentering(1, 0)), [[3, 0, 1], [0, 2, 0]])
    assert decentering(0, 0).is_zero()


def test_thin_prism_block_and_direction():
    assert np.array_equal(block2(thin_prism(1, 0)), [[1, 0, 1], [0, 0, 0]])
    rng = np.random.default_rng(22)
    u1, u2 = 0.3, -0.8
    f = thin_prism(u1, u2)
    for _ in range(20):
        x, y = rng.normal(size=2)
        dx, dy = f.displacement(x, y)
        assert abs(dx * u2 - dy * u1) < 1e-12


def test_mixed_quadratic_blocks():
    p, q, t1, t2 = 1.3, -0.4, 0.6, 0.2
    expected = p * np.array([[t1, -t2, 0], [0, t1, -t2]]) + q * np.array(
        [[0, t2, t1], [-t2, -t1, 0]]
    )
    assert np.allclose(block2(mixed_quadratic(p, q, t1, t2)), expected, atol=1e-14)
    # Pure radial slice.
    f = mixed_quadratic(1, 0, t1, t2)
    assert f.isclose(radial_homogeneous(2, (t1, -t2)), tol=1e-15)
    with pytest.raises(ValueError):
        mixed_quadratic(0, 0, 1, 1)


def test_decentering_thin_prism_identifications():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s1, s2 = rng.normal(size=2)
        assert np.array_equal(
            block2(decentering(s1, s2)), block2(mixed_quadratic(3, 1, s1, -s2))
        )
        u1, u2 = rng.normal(size=2)
        assert np.allclose(
            block2(thin_prism(u1, u2)),
            block2(mixed_quadratic(1, 1, u1, -u2)),
            atol=1e-15,
        )


def test_conjugate_quadratic():
    assert np.array_equal(block2(conjugate_quadratic(1, 0)), [[1, 0, -1], [0, -2, 0]])
    assert conjugate_quadratic(0, 0).is_zero()
    f = DistortionFunction.from_real(conjugate_quadratic(0.4, -1.1).real_form)
    assert set(f.poly.terms) == {(0, 2)}
    assert f.poly.terms[(0, 2)] == pytest.approx(0.4 - 1.1j)


def test_opencv_thin_prism_terms():
    f = opencv_thin_prism(1.0, 2.0, 3.0, 4.0)
    assert f.poly.terms[(1, 1)] == 1 + 3j
    assert f.poly.terms[(2, 2)] == 2 + 4j
    assert opencv_thin_prism(1, 0, 0, 0).isclose(thin_prism(1, 0), tol=1e-15)


# -- axis-parameterized symmetric functions ------------------------------------


def quad_matrices(phi):
    c1, s1 = math.cos(phi), math.sin(phi)
    c3, s3 = math.cos(3 * phi), math.sin(3 * phi)
    return (
        np.array([[c1, -s1, 0], [0, c1, -s1]]),
        np.array([[0, s1, c1], [-s1, -c1, 0]]),
        np.array([[c3, -2 * s3, -c3], [-s3, -2 * c3, s3]]),
    )


def cubic_matrices(phi):
    c2, s2 = math.cos(2 * phi), math.sin(2 * phi)
    c4, s4 = math.cos(4 * phi), math.sin(4 * phi)
    return (
        np.array([[1, 0, 1, 0], [0, 1, 0, 1]]),
        np.array([[c2, -2 * s2, -c2, 0], [0, c2, -2 * s2, -c2]]),
        np.array([[0, s2, 2 * c2, -s2], [-s2, -2 * c2, s2, 0]]),
        np.array([[c4, -3 * s4, -3 * c4, s4], [-s4, -3 * c4, 3 * s4, c4]]),
    )


def test_symmetric_quadratic_matches_matrix_form():
    # The three amplitude matrices written for a rotated frame describe the
    # function with axis at minus the frame angle; evaluate them at -theta.
    rng = np.random.default_rng(24)
    for _ in range(50):
        theta = rng.uniform(-3, 3)
        a, b, c = rng.normal(size=3)
        ma, mb, mc = quad_matrices(-theta)
        expected = a * ma + b * mb + c * mc
        assert np.allclose(block2(symmetric_quadratic(theta, a, b, c)), expected, atol=1e-12)


def test_symmetric_quadratic_axis_zero_terms():
    a = 0.8
    f = symmetric_quadratic(0.0, a, 0.0, 0.0)
    assert np.allclose(block2(f), a * np.array([[1, 0, 0], [0, 1, 0]]), atol=1e-15)
    assert symmetric_quadratic(0.3, 0, 0, 0).is_zero()


def test_symmetric_cubic_matches_matrix_form():
    rng = np.random.default_rng(25)
    for _ in range(50):
        theta = rng.uniform(-3, 3)
        d, e, f_, g = rng.normal(size=4)
        md, me, mf, mg = cubic_matrices(-theta)
        expected = d * md + e * me + f_ * mf + g * mg
        block = symmetric_cubic(theta, d, e, f_, g).real_form.blocks.get(3, np.zeros((2, 4)))
        assert np.allclose(block, expected, atol=1e-12)


def test_symmetric_cubic_first_term_is_rri():
    theta = 1.234
    assert symmetric_cubic(theta, 1.0, 0, 0, 0).isclose(rri([1.0]), tol=1e-12)
    assert symmetric_cubic(theta, 0, 0, 0, 0).is_zero()


def test_symmetric_constructors_coefficient_phases():
    # gamma_kl = a_kl exp(-i m theta) with a_kl real, so gamma * exp(i m theta)
    # must be real for every term.
    rng = np.random.default_rng(26)
    for _ in range(50):
        theta = rng.uniform(0, math.pi)
        amps = rng.normal(size=7)
        f = symmetric_quadratic(theta, *amps[:3]) + symmetric_cubic(theta, *amps[3:])
        for (k, l), coeff in f.poly.terms.items():
            m = k - l - 1
            assert abs((coeff * np.exp(1j * m * theta)).imag) < 1e-12


# -- model spaces ----------------------------------------------------------------


def test_space_rejects_dependent_basis():
    with pytest.raises(ValueError):
        ModelSpace((decentering(1, 0), decentering(2, 0)), "dup")
    with pytest.raises(ValueError):
        ModelSpace((DistortionFunction.zero(),), "zero")


def test_member_combination():
    space = named_space("decentering")
    f = space.member([0.25, -1.5])
    assert f.isclose(decentering(0.25, -1.5), tol=1e-12)


def test_radial_tangential_direct_sum_dimensions():
    for n in range(2, 7):
        basis = []
        for j in range(n):
            w = np.zeros(n)
            w[j] = 1.0
            basis.append(radial_homogeneous(n, w))
            basis.append(tangential_homogeneous(n, w))
        mat = coefficient_matrix(basis)
        s = np.linalg.svd(mat, compute_uv=False)
        assert s.size >= 2 * n and s[2 * n - 1] / s[0] > 1e-9


def test_irreducible_space_radial_and_tangential():
    z2 = ComplexPoly({(2, 0): 1})
    zzb = ComplexPoly({(1, 1): 1})
    radial = irreducible_space(IrreducibleSpec(1, z2, zzb))
    assert radial.dimension == 2
    # Same span as the radial quadratics.
    combined = coefficient_matrix(
        list(radial.basis) + list(named_space("radial_quad").basis)
    )
    assert np.linalg.matrix_rank(combined, tol=1e-9) == 2

    tangential = irreducible_space(IrreducibleSpec(1, z2, -1 * zzb))
    combined = coefficient_matrix(
        list(tangential.basis) + list(named_space("tangential_quad").basis)
    )
    assert np.linalg.matrix_rank(combined, tol=1e-9) == 2


def test_irreducible_space_conjugate_model():
    spec = IrreducibleSpec(3, ComplexPoly({}), ComplexPoly({(0, 2): 1}))
    space = irreducible_space(spec)
    combined = coefficient_matrix(list(space.basis) + list(named_space("conj_quad").basis))
    assert np.linalg.matrix_rank(combined, tol=1e-9) == 2


def test_irreducible_spec_validation():
    with pytest.raises(ValueError):
        IrreducibleSpec(0, ComplexPoly({(2, 0): 1}), ComplexPoly({}))
    with pytest.raises(ValueError):
        IrreducibleSpec(1, ComplexPoly({(1, 1): 1}), ComplexPoly({}))
    with pytest.raises(ValueError):
        IrreducibleSpec(1, ComplexPoly({}), ComplexPoly({}))


def test_space_sum_dimensions():
    radial = named_space("radial_quad")
    tangential = named_space("tangential_quad")
    assert space_sum(radial, tangential).dimension == 4
    assert space_sum(radial, radial).dimension == 2

    weng = space_sum(named_space("decentering"), named_space("thin_prism"))
    assert weng.dimension == 4
    # Same 4-dim span as radial + tangential quadratics.
    combined = coefficient_matrix(
        list(weng.basis) + list(radial.basis) + list(tangential.basis)
    )
    assert np.linalg.matrix_rank(combined, tol=1e-9) == 4


def test_named_space_catalog():
    expected_dims = {
        "rri3": 3,
        "decentering": 2,
        "thin_prism": 2,
        "radial_quad": 2,
        "tangential_quad": 2,
        "conj_quad": 2,
        "weng": 4,
        "matlab": 5,
        "opencv_prism4": 4,
    }
    assert set(CATALOG_NAMES) == set(expected_dims)
    for name, dim in expected_dims.items():
        space = named_space(name)
        assert space.dimension == dim
        assert space.label == name
    with pytest.raises(ValueError):
        named_space("nope")


def test_rri3_degrees():
    space = named_space("rri3")
    degrees = sorted(d for f in space.basis for d in f.real_form.degrees)
    assert degrees == [3, 5, 7]


def test_full_poly_space_dimensions():
    assert full_poly_space([2]).dimension == 6
    assert full_poly_space([3]).dimension == 8
    assert full_poly_space([2, 3]).dimension == 14


def test_space_json_round_trip(tmp_path):
    space = named_space("matlab")
    path = tmp_path / "space.json"
    save_space(path, space)
    loaded = load_space(path)
    assert loaded.label == "matlab"
    assert loaded.dimension == 5
    for a, b in zip(loaded.basis, space.basis):
        assert a.isclose(b, tol=1e-12)


def test_distortion_function_stores_only_the_complex_form():
    assert [f.name for f in dataclasses.fields(DistortionFunction)] == ["poly"]


def test_from_real_derives_an_equivalent_real_form():
    rng = np.random.default_rng(62)
    for _ in range(50):
        degrees = rng.choice(range(2, 8), size=3, replace=False)
        model = RealPolyModel({int(n): rng.normal(size=(2, n + 1)) for n in degrees})
        assert DistortionFunction.from_real(model).real_form.isclose(model, tol=1e-12)


def _reference_member(space, coeffs):
    # The plain chain of ComplexPoly sums that ModelSpace.member must equal.
    total = ComplexPoly.zero()
    for c, f in zip(coeffs, space.basis):
        total = total + f.poly * float(c)
    return total


def test_member_matches_reference_sum_bit_for_bit():
    spaces = [named_space(name) for name in CATALOG_NAMES]
    for name in calib.TABLE_FAMILIES:
        family = calib.parse_family(name)
        if family.linear:
            spaces.append(family.space)
    rng = np.random.default_rng(63)
    # Dense random basis: every coefficient gets several summands, so the
    # summation order shows in the last bits.
    keys = [(k, n - k) for n in (2, 3) for k in range(n + 1)]
    dense = [
        DistortionFunction.from_poly(
            ComplexPoly({kl: complex(*rng.normal(size=2)) for kl in keys})
        )
        for _ in range(5)
    ]
    spaces.append(ModelSpace(tuple(dense), "dense"))
    for space in spaces:
        for _ in range(20):
            coeffs = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=space.dimension)
            coeffs[rng.random(space.dimension) < 0.2] = 0.0
            got = space.member(coeffs).poly.terms
            want = _reference_member(space, coeffs).terms
            assert list(got) == list(want), space.label
            assert all(
                got[key].real.hex() == want[key].real.hex()
                and got[key].imag.hex() == want[key].imag.hex()
                for key in want
            ), space.label
