"""Model family constructors, their identities, and linear space machinery."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lensdist import calib, families
from lensdist.families import (
    CATALOG_NAMES,
    INDEPENDENCE_RTOL,
    IrreducibleSpec,
    ModelSpace,
    coefficient_keys,
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
    space_from_json,
    space_sum,
    space_to_json,
    symmetric_cubic,
    symmetric_quadratic,
    tangential_homogeneous,
    thin_prism,
)
from lensdist.poly import (
    ComplexPoly,
    RealPolyModel,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from lensdist.symmetry import reflection_symmetry
from lensdist.warp import apply_distortion, invert

from conftest import blocks_close, conjugated


def block2(func):
    return func.real_form.blocks.get(2, np.zeros((2, 3)))


# -- rri ----------------------------------------------------------------------


def test_rri_single_coefficient_cubic():
    f = rri([1.0])
    assert dict(f.terms) == {(2, 1): 1 + 0j}
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
    assert all(k - l - 1 == 0 for k, l in f.terms)


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


def test_quadratic_constructors_are_their_paper_coefficients():
    # Each classical constructor stores exactly its z^2 and z zbar coefficients,
    # commutes with the mirror, and derives its classical real block, all
    # bit for bit; the tangential field is i times the radial one.  The draws
    # span the benchmark's decentering range and unit-scale values.
    rng = np.random.default_rng(28)
    for scale in (0.03, 1.0):
        for _ in range(500):
            s1, s2, u1, u2, t1, t2, p, q = map(float, rng.uniform(-scale, scale, size=8))
            s, u, t = complex(s1, s2), complex(u1, u2), complex(t1, t2)
            dec, prism, mixed = decentering(s1, s2), thin_prism(u1, u2), mixed_quadratic(p, q, t1, t2)
            assert dict(dec.terms) == {(2, 0): s.conjugate(), (1, 1): 2 * s}
            assert dict(prism.terms) == {(1, 1): u}
            assert dict(mixed.terms) == {
                (2, 0): (p - q) / 2 * t, (1, 1): (p + q) / 2 * t.conjugate()}
            assert dec == mixed_quadratic(3, 1, s1, -s2)
            assert prism == mixed_quadratic(1, 1, u1, -u2)
            assert conjugated(dec) == decentering(s1, -s2)
            assert conjugated(prism) == thin_prism(u1, -u2)
            assert conjugated(mixed) == mixed_quadratic(p, q, t1, -t2)
            assert np.array_equal(dec.real_form.blocks[2], [[3 * s1, 2 * s2, s1], [s2, 2 * s1, 3 * s2]])
            assert np.array_equal(prism.real_form.blocks[2], [[u1, 0, u1], [u2, 0, u2]])
    for n in range(2, 8):
        w = rng.normal(size=n)
        assert tangential_homogeneous(n, w) == 1j * radial_homogeneous(n, w)


def test_conjugate_quadratic():
    assert np.array_equal(block2(conjugate_quadratic(1, 0)), [[1, 0, -1], [0, -2, 0]])
    assert conjugate_quadratic(0, 0).is_zero()
    f = conjugate_quadratic(0.4, -1.1).real_form.to_complex()
    assert set(f.terms) == {(0, 2)}
    assert f.terms[(0, 2)] == pytest.approx(0.4 - 1.1j)


def test_opencv_thin_prism_terms():
    f = opencv_thin_prism(1.0, 2.0, 3.0, 4.0)
    assert f.terms[(1, 1)] == 1 + 3j
    assert f.terms[(2, 2)] == 2 + 4j
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
        for (k, l), coeff in f.terms.items():
            m = k - l - 1
            assert abs((coeff * np.exp(1j * m * theta)).imag) < 1e-12


# -- model spaces ----------------------------------------------------------------


def test_space_rejects_dependent_basis():
    with pytest.raises(ValueError):
        ModelSpace((decentering(1, 0), decentering(2, 0)), "dup")
    with pytest.raises(ValueError):
        ModelSpace((ComplexPoly.zero(),), "zero")


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


def _independent(matrix):
    """The raw-row independence test: the reference for space_sum's decisions."""
    rows = matrix.shape[0]
    if rows == 0:
        return True
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size < rows or s[0] == 0.0:
        return False
    return s[rows - 1] / s[0] > INDEPENDENCE_RTOL


def _space_sum_reference(a, b):
    """One coefficient matrix per candidate, over the kept set so far."""
    candidates = list(a.basis) + list(b.basis)
    keys = coefficient_keys(candidates)
    kept = []
    for f in candidates:
        if _independent(coefficient_matrix(kept + [f], keys)):
            kept.append(f)
    return kept


def _scaled(space, exponents):
    """The space with basis function j times 2**exponents[j % len(exponents)]."""
    return ModelSpace(tuple(f * 2.0 ** exponents[j % len(exponents)]
                            for j, f in enumerate(space.basis)), space.label)


def test_space_sum_keeps_the_per_candidate_decisions():
    names = list(CATALOG_NAMES) + ["rri1", "rri5", "full_quad", "full_cubic", "full_quad_cubic"]
    pairs = [(named_space(a), named_space(b)) for a in names for b in names]
    rri3 = named_space("rri3")
    for phi in np.linspace(0.0, math.pi, 40, endpoint=False):
        p, q = math.cos(phi), math.sin(phi)
        quad = ModelSpace((mixed_quadratic(p, q, 1.0, 0.0), mixed_quadratic(p, q, 0.0, 1.0)), "mq")
        pairs.append((quad, rri3))
    for a, b in pairs:
        got = space_sum(a, b).basis
        want = _space_sum_reference(a, b)
        assert len(got) == len(want) and all(f is g for f, g in zip(got, want)), (a.label, b.label)
        # Each basis function times a power of two, the powers mixed within a
        # space: the unit rows do not change, so neither do the kept positions.
        candidates = a.basis + b.basis
        positions = [next(i for i, f in enumerate(candidates) if f is g) for g in want]
        exponents = [-30, -1, 7, 20]
        for shift in range(len(exponents)):
            a2, b2 = (_scaled(s, exponents[shift:] + exponents[:shift]) for s in (a, b))
            scaled = a2.basis + b2.basis
            got = space_sum(a2, b2).basis
            assert [next(i for i, f in enumerate(scaled) if f is g) for g in got] == positions, (
                a.label, b.label, shift)


def test_space_of_two_scales_of_one_monomial_is_independent():
    # The rows (1, 0) and (0, 2^-30) of zbar^2 and 2^-30 i zbar^2 are orthogonal;
    # judged on unscaled rows, their singular-value ratio 2^-30 read as dependent.
    line = ComplexPoly({(0, 2): 1.0})
    turned = ComplexPoly({(0, 2): 2.0**-30 * 1j})
    assert ModelSpace((line, turned), "zbar2_pair").dimension == 2
    total = space_sum(ModelSpace((line,), "a"), ModelSpace((turned,), "b"))
    assert total.dimension == 2 and total.basis == (line, turned)


def test_space_sum_factors_only_the_candidates_of_its_second_space(monkeypatch):
    a, b = named_space("full_quad_cubic"), named_space("rri3")
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    # rri3's cubic z^2 zbar lies in full_cubic already.
    assert calib.parse_family("full_quad_cubic+rri3").dimension == a.dimension + 2
    # One factorization per candidate of b, and one for the sum's own ModelSpace.
    assert len(calls) <= b.dimension + 1


def _coefficient_matrix_reference(funcs, keys=None):
    """Entry by entry into a float array: the reference for coefficient_matrix."""
    if keys is None:
        keys = coefficient_keys(funcs)
    rows = np.zeros((len(funcs), max(2 * len(keys), 1)))
    for i, f in enumerate(funcs):
        for j, key in enumerate(keys):
            c = f.terms.get(key, 0j)
            rows[i, 2 * j] = c.real
            rows[i, 2 * j + 1] = c.imag
    return rows


_KEYS_5 = [(k, n - k) for n in range(2, 6) for k in range(n + 1)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    terms=st.lists(
        st.dictionaries(
            st.sampled_from(_KEYS_5),
            st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
        max_size=5,
    ),
    extra=st.lists(st.sampled_from(_KEYS_5), max_size=3),
    explicit=st.booleans(),
)
@example(terms=[], extra=[], explicit=False)
@example(terms=[{}, {}], extra=[], explicit=True)
@example(terms=[{(2, 0): complex(1.0, -0.0)}, {(1, 1): complex(-0.0, -2.0)}], extra=[], explicit=False)
def test_coefficient_matrix_matches_the_entry_loop_bit_for_bit(terms, extra, explicit):
    funcs = [ComplexPoly(t) for t in terms]
    # Explicit keys in another order, possibly repeated or absent from every function.
    keys = coefficient_keys(funcs)[::-1] + tuple(extra) if explicit else None
    got = coefficient_matrix(funcs, keys)
    want = _coefficient_matrix_reference(funcs, keys)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_space_matrix_is_the_coefficient_matrix_of_its_basis():
    names = list(CATALOG_NAMES) + ["rri5", "full_quad_cubic"]
    spaces = [space_sum(named_space(a), named_space(b)) for a in names for b in names]
    for m in (1, 2, 3):
        plus = ComplexPoly({(m + 1, 0): 0.5 - 2j, (m + 2, 1): 1e-3})
        minus = ComplexPoly({(1, m): -1.25 + 0.0j})
        spaces += [irreducible_space(IrreducibleSpec(m, plus, minus)),
                   irreducible_space(IrreducibleSpec(m, plus, ComplexPoly({})))]
    spaces += [space_from_json(json.loads(json.dumps(space_to_json(s)))) for s in spaces[::5]]
    for space in spaces:
        assert space.keys == coefficient_keys(space.basis)
        want = coefficient_matrix(space.basis, space.keys)
        assert space.matrix.dtype == complex
        assert space.matrix.shape == (space.dimension, len(space.keys))
        assert np.array_equal(space.matrix.view(float).view(np.uint64), want.view(np.uint64))
        assert not space.matrix.flags.writeable
        # unit: each row times the power of two that brings its largest modulus into [1, 2).
        _, exponents = np.frexp(np.abs(space.matrix).max(axis=1))
        unit = np.ldexp(space.matrix.view(float), 1 - exponents[:, None])
        assert space.unit.dtype == complex and space.unit.shape == space.matrix.shape
        assert np.array_equal(space.unit.view(float).view(np.uint64), unit.view(np.uint64))
        assert np.all((np.abs(space.unit).max(axis=1) >= 1) & (np.abs(space.unit).max(axis=1) < 2))
        # span: orthonormal real rows with the row space of matrix.
        assert space.span.shape == (space.dimension, 2 * len(space.keys))
        assert np.allclose(space.span @ space.span.T, np.eye(space.dimension), rtol=0, atol=1e-12)
        rows = space.unit.view(float)
        off = rows - (rows @ space.span.T) @ space.span
        assert np.all(np.linalg.norm(off, axis=1) <= 1e-12 * np.linalg.norm(rows, axis=1))
        assert not space.unit.flags.writeable and not space.span.flags.writeable
        # windings: k - l - 1 of each key, read-only.
        assert space.windings.tolist() == [k - l - 1 for k, l in space.keys]
        assert not space.windings.flags.writeable


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
    # Names outside the catalog: rriN and the full polynomial spaces.
    assert named_space("rri7").dimension == 7 and named_space("rri7").label == "rri7"
    assert named_space("full_cubic").dimension == 8
    assert named_space("full_cubic").label == "full_cubic"
    with pytest.raises(ValueError):
        named_space("nope")


def test_catalog_sums_reuse_the_named_parts():
    # weng and matlab are sums of the memoized spaces, not of fresh copies.
    weng, matlab = named_space("weng"), named_space("matlab")
    decentering_basis = named_space("decentering").basis
    assert all(a is b for a, b in zip(weng.basis[:2], decentering_basis, strict=True))
    assert all(a is b for a, b in zip(weng.basis[2:], named_space("thin_prism").basis, strict=True))
    assert all(a is b for a, b in zip(matlab.basis[:2], decentering_basis, strict=True))
    assert all(a is b for a, b in zip(matlab.basis[2:], named_space("rri3").basis, strict=True))


def test_named_space_rri_range(monkeypatch):
    # rri7's top monomial z^8 zbar^7 has degree 15; rri8's would exceed
    # MAX_DEGREE, so no rri member may be built for it or any larger N.
    calls = []

    def counting_rri(alphas):
        calls.append(len(alphas))
        return rri(alphas)

    monkeypatch.setattr(families, "rri", counting_rri)
    assert named_space.__wrapped__("rri7").label == "rri7"
    assert calls == [7] * 7
    calls.clear()
    # Each name is checked on its own, so a regression stops at rri8 before
    # the huge one would build its coefficient list.
    for name in ("rri8", "rri0", "rri01", "rri-1", "rri", "rri1000000000"):
        with pytest.raises(ValueError, match="unknown model space"):
            named_space(name)
        assert calls == [], name


def test_rri3_degrees():
    space = named_space("rri3")
    degrees = sorted(d for f in space.basis for d in f.real_form.blocks)
    assert degrees == [3, 5, 7]


def test_full_poly_space_dimensions():
    assert full_poly_space([2]).dimension == 6
    assert full_poly_space([3]).dimension == 8
    assert full_poly_space([2, 3]).dimension == 14


@pytest.mark.parametrize(
    "degrees, error",
    [([-1, 2], ValueError), ([1], ValueError), ([17], ValueError), ([], ValueError),
     ([2.7], TypeError)],
)
def test_full_poly_space_rejects_degrees_outside_the_table(degrees, error):
    # Every degree is an integer in [2, MAX_DEGREE], as winding_table takes it.
    with pytest.raises(error):
        full_poly_space(degrees)


def test_space_json_round_trip(tmp_path):
    space = named_space("matlab")
    path = tmp_path / "space.json"
    save_space(path, space)
    loaded = load_space(path)
    assert loaded.label == "matlab"
    assert loaded.dimension == 5
    for a, b in zip(loaded.basis, space.basis):
        assert a.isclose(b, tol=1e-12)


def test_one_type_flows_through_every_api(tmp_path):
    # A constructor's result, a bare ComplexPoly and a loaded model are one
    # type, so each goes wherever the others go.
    dec = decentering(0.02, -0.01)
    assert type(dec) is ComplexPoly
    assert model_from_json(model_to_json(dec)) == dec
    spec = IrreducibleSpec(1, plus=mixed_quadratic(1, -1, 1, 0), minus=thin_prism(1, 0))
    assert irreducible_space(spec).dimension == 2
    bare = ComplexPoly({(2, 0): 0.5})
    both = ComplexPoly({(2, 0): 0.5, (2, 1): 0.1})
    assert bare + rri([0.1]) == both and rri([0.1]) + bare == both
    assert ComplexPoly({(2, 1): 0.1}).isclose(rri([0.1]), tol=0.0)
    save_model(tmp_path / "dec.json", dec)
    loaded = load_model(tmp_path / "dec.json")
    (target,) = apply_distortion(loaded, [(0.3, -0.2)])
    x, y = invert(loaded, target)
    assert math.hypot(x - 0.3, y + 0.2) < 1e-12
    assert reflection_symmetry(loaded) == reflection_symmetry(dec)
    assert reflection_symmetry(loaded).symmetric


def test_from_real_derives_an_equivalent_real_form():
    rng = np.random.default_rng(62)
    for _ in range(50):
        degrees = rng.choice(range(2, 8), size=3, replace=False)
        model = RealPolyModel({int(n): rng.normal(size=(2, n + 1)) for n in degrees})
        assert blocks_close(model.to_complex().real_form, model, tol=1e-12)


def _reference_member(space, coeffs):
    # The plain chain of ComplexPoly sums that ModelSpace.member must equal.
    total = ComplexPoly.zero()
    for c, f in zip(coeffs, space.basis):
        total = total + f * float(c)
    return total


def _catalog_table_and_dense_spaces(rng):
    """Every catalog space, every linear table family and a dense random space."""
    spaces = [named_space(name) for name in CATALOG_NAMES]
    for name in calib.TABLE_FAMILIES:
        family = calib.parse_family(name)
        if family.linear:
            spaces.append(family)
    # Dense random basis: every coefficient gets several summands, so the
    # summation order shows in the last bits.
    keys = [(k, n - k) for n in (2, 3) for k in range(n + 1)]
    dense = [
        ComplexPoly({kl: complex(*rng.normal(size=2)) for kl in keys})
        for _ in range(5)
    ]
    return spaces + [ModelSpace(tuple(dense), "dense")]


def test_member_matches_reference_sum_bit_for_bit():
    rng = np.random.default_rng(63)
    spaces = _catalog_table_and_dense_spaces(rng)
    for space in spaces:
        for _ in range(20):
            coeffs = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=space.dimension)
            coeffs[rng.random(space.dimension) < 0.2] = 0.0
            got = space.member(coeffs).terms
            want = _reference_member(space, coeffs).terms
            assert list(got) == list(want), space.label
            assert all(
                got[key].real.hex() == want[key].real.hex()
                and got[key].imag.hex() == want[key].imag.hex()
                for key in want
            ), space.label


def test_weights_are_the_member_coefficients():
    # A fit reads a space through weights and coefficients over its keys,
    # never through member: both must describe the member.
    rng = np.random.default_rng(64)
    for space in _catalog_table_and_dense_spaces(rng):
        for _ in range(20):
            coeffs = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=space.dimension)
            coeffs[rng.random(space.dimension) < 0.2] = 0.0
            weights = space.weights(coeffs)
            assert weights.shape == (len(space.keys),), space.label
            scale = float(np.max(np.abs(coeffs) @ np.abs(space.matrix)))
            got = ComplexPoly(dict(zip(space.keys, weights)))
            assert got.isclose(space.member(coeffs), tol=1e-15 * scale), space.label
            assert np.array_equal(space.coefficients(coeffs), space.matrix), space.label
