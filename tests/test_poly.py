"""Core representation tests: winding numbers, conversions, rotation machinery."""

import cmath
import math
import os
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import lensdist
from conftest import blocks_close
from lensdist.poly import (
    MAX_DEGREE,
    ComplexPoly,
    RealPolyModel,
    load_model,
    model_from_json,
    model_to_json,
    monomial_rotation,
    monomial_vector,
    save_model,
    winding_number,
    winding_table,
)


def random_poly(rng, max_degree=7, max_terms=20):
    n_terms = rng.integers(1, max_terms + 1)
    terms = {}
    for _ in range(n_terms):
        n = rng.integers(2, max_degree + 1)
        k = rng.integers(0, n + 1)
        terms[(int(k), int(n - k))] = complex(rng.normal(), rng.normal())
    return ComplexPoly(terms)


# -- winding numbers --------------------------------------------------------


def test_winding_examples():
    assert winding_number(2, 0) == 1
    assert winding_number(1, 1) == -1
    assert winding_number(0, 2) == -3


def test_winding_invariant_monomials():
    for k in range(1, 8):
        assert winding_number(k + 1, k) == 0


TABLE_DEGREES_2_TO_5 = {
    (2, 0): 1, (1, 1): -1, (0, 2): -3,
    (3, 0): 2, (2, 1): 0, (1, 2): -2, (0, 3): -4,
    (4, 0): 3, (3, 1): 1, (2, 2): -1, (1, 3): -3, (0, 4): -5,
    (5, 0): 4, (4, 1): 2, (3, 2): 0, (2, 3): -2, (1, 4): -4, (0, 5): -6,
}


def test_winding_table_degrees_2_to_5():
    table = winding_table(range(2, 6))
    assert len(table) == 18
    assert table == TABLE_DEGREES_2_TO_5


# -- construction invariants -------------------------------------------------


def test_rejects_low_degree_keys():
    for bad in [(0, 0), (1, 0), (0, 1)]:
        with pytest.raises(ValueError):
            ComplexPoly({bad: 1.0})


def test_rejects_negative_and_oversized_keys():
    with pytest.raises(ValueError):
        ComplexPoly({(-1, 3): 1.0})
    with pytest.raises(ValueError):
        ComplexPoly({(MAX_DEGREE, 1): 1.0})


def test_zero_coefficients_pruned():
    f = ComplexPoly({(2, 0): 0.0, (1, 1): 2.0})
    assert set(f.terms) == {(1, 1)}
    assert ComplexPoly({(2, 0): 0.0}).is_zero()


def test_difference_and_negation_are_per_key_with_zeros_pruned():
    f = ComplexPoly({(2, 0): 1.5 - 2j, (1, 1): 0.25, (3, 2): -1j})
    g = ComplexPoly({(2, 0): 0.5 - 2j, (1, 1): 0.25, (0, 2): 3.0})
    # (1, 1) cancels exactly and is pruned; a key of one side alone keeps its sign.
    assert dict((f - g).terms) == {(2, 0): 1.0 + 0j, (3, 2): -1j, (0, 2): -3.0 + 0j}
    assert list((f - g).terms) == list(ComplexPoly(dict((f - g).terms)).terms)
    assert dict((-f).terms) == {key: -c for key, c in f.terms.items()}
    assert (f - f).is_zero() and -ComplexPoly.zero() == ComplexPoly.zero()


def test_real_model_shape_validation():
    with pytest.raises(ValueError):
        RealPolyModel({2: np.zeros((2, 4))})
    with pytest.raises(ValueError):
        RealPolyModel({1: np.zeros((2, 2))})
    assert not RealPolyModel({2: np.zeros((2, 3))}).blocks


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_to_real_that_overflows_raises_value_error(action):
    # (x^2 + y^2)^8 has coefficients up to 70, so the degree-16 block overflows.
    poly = ComplexPoly({(8, 8): 1e307})
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match="non-finite entries in degree-16 block"):
            poly.to_real()


# -- evaluation --------------------------------------------------------------


def test_eval_examples():
    assert ComplexPoly({(2, 0): 1}).evaluate(1 + 1j) == pytest.approx(2j)
    assert ComplexPoly({}).evaluate(0.3 - 0.7j) == 0
    assert ComplexPoly({(1, 1): 1}).evaluate(2 + 0j) == pytest.approx(4)
    # The zero polynomial keeps the return types of the others.
    for arg in (0.3 - 0.7j, np.complex128(0.5j)):
        value = ComplexPoly.zero().evaluate(arg)
        assert type(value) is complex and value == 0
    z = np.array([[0.1 + 0.2j, -0.3j, 0.0], [0.5, 0.0, 1.0]])
    for arg in (z, z.real, [[0.1, 0.2]], np.empty((0, 2), complex)):
        values = ComplexPoly.zero().evaluate(arg)
        assert isinstance(values, np.ndarray) and values.dtype == complex
        assert values.shape == np.shape(arg) and not values.any()


def test_eval_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    f = random_poly(rng)
    zs = rng.normal(size=10) + 1j * rng.normal(size=10)
    vec = f.evaluate(zs)
    for z, w in zip(zs, vec):
        assert abs(f.evaluate(complex(z)) - w) <= 1e-12 * max(1.0, abs(w))


def _evaluate_reference(f, z):
    """The unblocked expression on the scalar ladder, summed in term order.

    z^e = z^(e - h) * z^h with h the top bit of e and z^0 = 1, each square
    from the one before, and zbar^l = conj(z^l).
    """
    zarr = np.asarray(z, dtype=complex)
    squares = {1: zarr}
    pw = [np.ones_like(zarr)]
    for e in range(1, max(max(key) for key in f.terms) + 1):
        h = 1 << (e.bit_length() - 1)
        if h not in squares:
            squares[h] = squares[h // 2] * squares[h // 2]
        pw.append(pw[e - h] * squares[h])
    out = np.zeros_like(zarr)
    for (k, l), c in f.terms.items():
        out = out + c * pw[k] * np.conj(pw[l])
    return out


def _evaluate_power_form(f, z):
    """Two numpy powers per term, summed in term order."""
    zarr = np.asarray(z, dtype=complex)
    zc = np.conj(zarr)
    out = np.zeros_like(zarr)
    for (k, l), c in f.terms.items():
        out = out + c * zarr**k * zc**l
    return out


@pytest.mark.parametrize("size", [1, 54, 432, 4096, 4097, 16383])
def test_eval_bitwise_equals_unblocked_expression(high_degree_poly, size):
    # Below 16,384 points numpy never elides the temporaries of the reference
    # expression, so blocking with shared powers must not change a bit.
    rng = np.random.default_rng(size)
    z = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    got = high_degree_poly.evaluate(z)
    assert np.array_equal(got.view(float), _evaluate_reference(high_degree_poly, z).view(float))


def test_eval_agrees_with_the_power_form():
    # Both forms build a term as a product tree of gamma and its k + l <= 16
    # powers of z and zbar.  A complex product errs by at most sqrt(5) u
    # (u = 2^-53), and a sum of n terms by n u times their absolute sum, so
    # to first order the two differ by at most (32 sqrt(5) + 2 n) u times
    # sum |gamma| max(1, |z|)^16.  Both overflow and go NaN alike.
    rng = np.random.default_rng(93)
    special = np.array([complex(a, b) for a in _SPECIAL_PARTS for b in _SPECIAL_PARTS])
    for _ in range(40):
        f = random_poly(rng, max_degree=MAX_DEGREE, max_terms=40)
        z = rng.uniform(-1.5, 1.5, 500) + 1j * rng.uniform(-1.5, 1.5, 500)
        scale = sum(map(abs, f.terms.values())) * np.maximum(1.0, abs(z)) ** 16
        bound = (32 * math.sqrt(5) + 2 * len(f.terms)) * 2.0**-53 * scale
        assert np.all(abs(f.evaluate(z) - _evaluate_power_form(f, z)) <= bound)
        with np.errstate(all="ignore"):
            got, want = f.evaluate(special), _evaluate_power_form(f, special)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))


def test_eval_value_does_not_depend_on_the_batch(high_degree_poly):
    rng = np.random.default_rng(70)
    z = rng.uniform(-1, 1, 70_000) + 1j * rng.uniform(-1, 1, 70_000)
    whole = high_degree_poly.evaluate(z)
    pieces = np.concatenate(
        [high_degree_poly.evaluate(z[i : i + 1000]) for i in range(0, z.size, 1000)]
    )
    assert np.array_equal(whole.view(float), pieces.view(float))
    pieces = [high_degree_poly.wirtinger(z[i : i + 1000]) for i in range(0, z.size, 1000)]
    for d_whole, d_pieces in zip(high_degree_poly.wirtinger(z), zip(*pieces)):
        assert np.array_equal(d_whole.view(float), np.concatenate(d_pieces).view(float))


def _point_bits(values):
    return np.asarray(values, complex).reshape(-1).view(np.uint64).tolist()


def test_a_lone_point_rounds_as_in_its_batch(high_degree_poly):
    # numpy rounds an in-place complex product of one element without the fused
    # multiply-add of every other product, so no array sum may take one.
    from lensdist.families import decentering, rri
    from lensdist.warp import apply_distortion, grid_points

    rng = np.random.default_rng(71)
    polys = [high_degree_poly]
    polys += [random_poly(rng, max_degree=MAX_DEGREE, max_terms=40) for _ in range(4)]
    z = rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100)
    for f in polys:
        batch = [f.evaluate(z), *f.wirtinger(z)]
        for i in range(z.size):
            want = _point_bits([b[i] for b in batch])
            for one in (z[i : i + 1], z[i]):  # a 1-element array and a numpy scalar
                assert _point_bits([f.evaluate(one), *f.wirtinger(one)]) == want, (i, one)
    # A 4,097-point array ends in a block of one.
    z = rng.uniform(-1, 1, 4097) + 1j * rng.uniform(-1, 1, 4097)
    whole = [high_degree_poly.evaluate(z), *high_degree_poly.wirtinger(z)]
    for window in (1, 2, 7, 54, 4096):
        part = [high_degree_poly.evaluate(z[-window:]), *high_degree_poly.wirtinger(z[-window:])]
        assert _point_bits([p[-1] for p in part]) == _point_bits([w[-1] for w in whole]), window
    # wirtinger takes a list or a tuple, as evaluate does.
    for seq in ([0.1, 0.2j], (0.1, 0.2j)):
        for method in (high_degree_poly.evaluate, high_degree_poly.wirtinger):
            assert _point_bits(method(seq)) == _point_bits(method(np.array(seq)))
    f = decentering(0.02, -0.01) + rri([-0.12, 0.03, -0.005])
    points = grid_points(0.6, 20)
    xs, ys = np.array(points).T
    dx, dy = f.displacement(xs, ys)
    mapped = apply_distortion(f, points)
    for i, (x, y) in enumerate(points):
        one_dx, one_dy = f.displacement(x, y)
        assert type(one_dx) is float and (one_dx, one_dy) == (dx[i], dy[i]), (x, y)
        assert apply_distortion(f, [(x, y)])[0] == mapped[i], (x, y)


def test_eval_keeps_the_input_shape(high_degree_poly):
    rng = np.random.default_rng(5)
    z = rng.uniform(-1, 1, (3, 5000)) + 1j * rng.uniform(-1, 1, (3, 5000))
    got = high_degree_poly.evaluate(z)
    assert got.shape == (3, 5000)
    assert np.array_equal(got[1], high_degree_poly.evaluate(z[1]))
    assert high_degree_poly.evaluate(np.empty((0, 2), complex)).shape == (0, 2)
    assert type(high_degree_poly.evaluate(np.complex128(0.5j))) is complex


# -- complex <-> real conversion ---------------------------------------------


def test_to_real_examples():
    blocks = ComplexPoly({(2, 0): 1}).to_real().blocks
    assert np.array_equal(blocks[2], [[1, 0, -1], [0, 2, 0]])
    blocks = ComplexPoly({(1, 1): 1}).to_real().blocks
    assert np.array_equal(blocks[2], [[1, 0, 1], [0, 0, 0]])


def test_degree2_transfer_matrix_and_determinant():
    # Columns: image of the unit gamma for z^2, z zbar, zbar^2 as c = a + i b.
    expected = np.array([[1, 1, 1], [2j, 0, -2j], [-1, 1, -1]], dtype=complex)
    cols = []
    for key in [(2, 0), (1, 1), (0, 2)]:
        block = ComplexPoly({key: 1}).to_real().blocks[2]
        cols.append(block[0] + 1j * block[1])
    C = np.stack(cols, axis=1)
    assert np.array_equal(C, expected)
    assert np.linalg.det(C) == pytest.approx(8j)


def test_degree2_real_rows_follow_c_gamma(subtests=None):
    rng = np.random.default_rng(3)
    C = np.array([[1, 1, 1], [2j, 0, -2j], [-1, 1, -1]], dtype=complex)
    for _ in range(20):
        gamma = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = ComplexPoly({(2, 0): gamma[0], (1, 1): gamma[1], (0, 2): gamma[2]})
        block = f.to_real().blocks.get(2, np.zeros((2, 3)))
        c = C @ gamma
        assert np.allclose(block[0], c.real, atol=1e-14)
        assert np.allclose(block[1], c.imag, atol=1e-14)


def test_from_real_examples():
    f = RealPolyModel({2: [[1, 0, -1], [0, 2, 0]]}).to_complex()
    assert dict(f.terms) == {(2, 0): 1 + 0j}
    assert RealPolyModel({}).to_complex().is_zero()


def test_from_real_random_cubic_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        block = rng.normal(size=(2, 4))
        model = RealPolyModel({3: block})
        back = model.to_complex().to_real()
        assert blocks_close(back, model, tol=1e-12)


def test_from_real_multi_degree_round_trip():
    rng = np.random.default_rng(15)
    for _ in range(50):
        degrees = rng.choice(range(2, 8), size=3, replace=False)
        model = RealPolyModel({int(n): rng.normal(size=(2, n + 1)) for n in degrees})
        back = model.to_complex().to_real()
        assert blocks_close(back, model, tol=1e-12)


def test_round_trip_complex_to_real_to_complex():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = random_poly(rng)
        g = f.to_real().to_complex()
        assert g.isclose(f, tol=1e-12)


def test_evaluation_consistency_complex_vs_real():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        f = random_poly(rng, max_degree=7, max_terms=8)
        model = f.to_real()
        r = math.sqrt(rng.uniform(0, 1))
        a = rng.uniform(0, 2 * math.pi)
        x, y = r * math.cos(a), r * math.sin(a)
        w = f.evaluate(complex(x, y))
        dx, dy = model.evaluate(x, y)
        assert abs(w - complex(dx, dy)) < 1e-10


def test_real_form_evaluates_arrays_as_the_complex_form_and_as_its_scalars():
    rng = np.random.default_rng(16)
    x, y = rng.uniform(-1, 1, size=(2, 3, 4))
    for _ in range(20):
        f = random_poly(rng, max_degree=7, max_terms=8)
        dx, dy = f.to_real().evaluate(x, y)
        assert dx.shape == dy.shape == x.shape
        want_x, want_y = f.displacement(x, y)
        np.testing.assert_allclose(dx, want_x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dy, want_y, rtol=0, atol=1e-12)
        # A scalar call's dot product may round apart from the array's.
        scalars = [f.to_real().evaluate(float(a), float(b)) for a, b in zip(x.flat, y.flat)]
        arrays = np.stack([dx.ravel(), dy.ravel()], 1)
        np.testing.assert_allclose(arrays, scalars, rtol=0, atol=1e-14)


# -- rotation of coefficients -------------------------------------------------


def test_rotate_degree2_matches_phase_map():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g20, g11, g02 = rng.normal(size=3) + 1j * rng.normal(size=3)
        theta = rng.uniform(-7, 7)
        f = ComplexPoly({(2, 0): g20, (1, 1): g11, (0, 2): g02})
        r = f.rotated(theta)
        assert abs(r.terms[(2, 0)] - np.exp(1j * theta) * g20) < 1e-12
        assert abs(r.terms[(1, 1)] - np.exp(-1j * theta) * g11) < 1e-12
        assert abs(r.terms[(0, 2)] - np.exp(-3j * theta) * g02) < 1e-12


def test_rotate_zero_angle_is_identity():
    rng = np.random.default_rng(8)
    f = random_poly(rng)
    assert f.rotated(0.0) == f


def test_invariant_monomial_fixed_by_rotation():
    f = ComplexPoly({(2, 1): 1})
    for theta in np.linspace(-6, 6, 17):
        assert f.rotated(theta).isclose(f, tol=1e-15)


def test_rotation_commutation_property():
    # evaluate(rotated(f, t), w) == exp(-i t) * evaluate(f, exp(i t) w)
    rng = np.random.default_rng(9)
    for _ in range(100):
        f = random_poly(rng, max_degree=6, max_terms=6)
        theta = rng.uniform(-8, 8)
        w = complex(rng.normal(), rng.normal())
        lhs = f.rotated(theta).evaluate(w)
        rhs = np.exp(-1j * theta) * f.evaluate(np.exp(1j * theta) * w)
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("sign", [1, -1])
def test_generator_is_the_rotation_derivative(sign):
    # The generator G that symmetry.is_isotropic and structural_rsf apply as a
    # per-column factor: gamma_kl times i (k - l - 1).
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(20):
        f = random_poly(rng, max_degree=9)
        gen = sign * ComplexPoly({(k, l): 1j * (k - l - 1) * c for (k, l), c in f.terms.items()})
        plus, minus = f.rotated(sign * h).terms, f.rotated(-sign * h).terms
        assert set(gen.terms) <= set(f.terms)
        for key in f.terms:
            diff = (plus[key] - minus[key]) / (2 * h)
            assert abs(gen.terms.get(key, 0j) - diff) < 1e-7


# -- Wirtinger derivatives ------------------------------------------------------


def test_wirtinger_scalar_matches_forward_jacobian():
    from lensdist.warp import jacobian

    rng = np.random.default_rng(13)
    for _ in range(50):
        f = random_poly(rng, max_degree=9)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f_z, f_zc = f.wirtinger(z)
        assert type(f_z) is complex and type(f_zc) is complex
        wx, wy = f_z + f_zc, 1j * (f_z - f_zc)
        expected = np.array([[1.0 + wx.real, wy.real], [wx.imag, 1.0 + wy.imag]])
        assert np.array_equal(jacobian(f, (z.real, z.imag)), expected)


def test_wirtinger_array_matches_per_element_results():
    rng = np.random.default_rng(14)
    for _ in range(20):
        f = random_poly(rng, max_degree=MAX_DEGREE)
        z = rng.uniform(-1, 1, 37) + 1j * rng.uniform(-1, 1, 37)
        f_z, f_zc = f.wirtinger(z)
        assert f_z.shape == f_zc.shape == z.shape
        for i in range(z.size):
            # Bit for bit against the same element alone ...
            one_z, one_zc = f.wirtinger(z[i : i + 1])
            assert one_z[0] == f_z[i] and one_zc[0] == f_zc[i]
            # ... and to rounding against Python scalar arithmetic, whose
            # complex multiply may round differently from numpy's vectorized one.
            s_z, s_zc = f.wirtinger(complex(z[i]))
            assert abs(s_z - f_z[i]) <= 1e-12 * max(1.0, abs(s_z))
            assert abs(s_zc - f_zc[i]) <= 1e-12 * max(1.0, abs(s_zc))


def test_wirtinger_of_zero_polynomial_is_zero_shaped_like_z():
    z = np.array([[0.1 + 0.2j, -0.3j], [0.5, 0.0]])
    for d in ComplexPoly.zero().wirtinger(z):
        assert isinstance(d, np.ndarray) and d.shape == z.shape and not d.any()
    assert ComplexPoly.zero().wirtinger(0.3 - 0.1j) == (0j, 0j)


# -- power tables against the z**k form ------------------------------------------


def _evaluate_scalar_reference(f, z):
    """Two Python powers per term, summed in term order."""
    zc = z.conjugate()
    out = 0j
    for (k, l), coeff in f.terms.items():
        out = out + coeff * z**k * zc**l
    return out


def _wirtinger_reference(f, z):
    """Up to four powers per term, for any z with a conjugate."""
    zc = z.conjugate()
    f_z = f_zc = 0 * z
    for (k, l), c in f.terms.items():
        if k:
            f_z = f_z + c * k * z ** (k - 1) * zc**l
        if l:
            f_zc = f_zc + c * l * z**k * zc ** (l - 1)
    return f_z, f_zc


def _bits(value):
    """Type and bit pattern of a result, so that signed zeros and NaN payloads count."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.view(np.uint64).tobytes()
    if isinstance(value, complex):
        return type(value), struct.pack("dd", value.real, value.imag)
    if isinstance(value, float):
        return type(value), struct.pack("d", value)
    return type(value), value


def _outcome(fn, *args):
    """Bits of the result, or the type and message of the exception."""
    try:
        with np.errstate(all="ignore"):
            return _bits(fn(*args))
    except Exception as err:  # compared, not swallowed
        return type(err), str(err)


_SPECIAL_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-200, -1e-320, math.inf, -math.inf, math.nan)


def _scalar_points(rng, count):
    points = [complex(a, b) for a in _SPECIAL_PARTS for b in _SPECIAL_PARTS]
    points += [complex(*rng.uniform(-1, 1, 2)) for _ in range(count)]
    for mag in (1e15, 1e20, 1e40, 1e100, 1e200, 1e300):
        points += [mag * complex(*rng.uniform(-1, 1, 2)) for _ in range(4)]
        points += [complex(mag, 0.0), complex(-0.0, -mag), complex(mag, math.nan)]
    return points


def test_scalar_evaluate_is_bitwise_the_power_form():
    rng = np.random.default_rng(90)
    polys = [random_poly(rng, max_degree=MAX_DEGREE, max_terms=40) for _ in range(12)]
    polys += [ComplexPoly({(16, 0): 1.0}), ComplexPoly({(0, 2): -1j, (1, 1): 2.0})]
    for f in polys:
        for z in _scalar_points(rng, 30):
            assert _outcome(f.evaluate, z) == _outcome(_evaluate_scalar_reference, f, z), z
        # Other scalars take the array path and still give a Python complex.
        for z in (0, 3, 0.25, np.float64(-0.5)):
            assert type(f.evaluate(z)) is complex


def test_scalar_wirtinger_is_bitwise_the_power_form():
    rng = np.random.default_rng(91)
    polys = [random_poly(rng, max_degree=MAX_DEGREE, max_terms=40) for _ in range(12)]
    polys += [ComplexPoly.zero(), ComplexPoly({(0, 16): 1.0}), ComplexPoly({(2, 0): 1 + 0j})]
    for f in polys:
        for z in _scalar_points(rng, 30):
            assert _outcome(f.wirtinger, z) == _outcome(_wirtinger_reference, f, z), z
        # Other scalars take the array path: a Python complex pair with the
        # bits of the 1-element array.
        for z in (0, 3, -2, 10**200, 0.25, -1e200, np.float64(0.3), np.complex128(0.1 - 0.2j)):
            got, row = _outcome(f.wirtinger, z), _outcome(f.wirtinger, np.array([z], complex))
            assert [kind for kind, _ in got] == [complex, complex], z
            assert [bits for _, bits in got] == [tobytes for _, _, tobytes in row], z


def test_scalar_overflow_raises_as_the_power_form():
    f = ComplexPoly({(3, 0): 0.1, (2, 1): 1e-3})
    for method in (f.evaluate, f.wirtinger):
        with pytest.raises(OverflowError, match="complex exponentiation"):
            method(complex(1e200, 0.0))
    # A product that overflows after finite powers returns inf, as before.
    big = ComplexPoly({(2, 0): 1e300})
    z = complex(1e10, 0.0)
    assert cmath.isinf(big.evaluate(z))
    assert _outcome(big.evaluate, z) == _outcome(_evaluate_scalar_reference, big, z)
    assert _outcome(big.wirtinger, z) == _outcome(_wirtinger_reference, big, z)


@pytest.mark.parametrize("size", [1, 37, 432, 4097, 16383])
def test_array_wirtinger_agrees_with_the_power_form(size):
    # An array takes its powers on the ladder, as evaluate does, so the bound of
    # test_eval_agrees_with_the_power_form holds with each gamma_kl weighted by
    # k (f_z) or l (f_zbar), and both forms are non-finite at the same points.
    rng = np.random.default_rng(size)
    f = random_poly(rng, max_degree=MAX_DEGREE, max_terms=40)
    z = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    if size > 1:
        # Overflowing, non-finite and signed-zero points ride along.
        z[: len(_SPECIAL_PARTS)] = [complex(a, -a) for a in _SPECIAL_PARTS]
        z[-1] = 1e30 + 1e30j
    with np.errstate(all="ignore"):
        got, want, row = f.wirtinger(z), _wirtinger_reference(f, z), f.wirtinger(z.reshape(1, -1))
        reach = np.maximum(1.0, abs(z)) ** 16
    for i, (d, ref, d_row) in enumerate(zip(got, want, row, strict=True)):
        assert d.shape == d_row.shape[1:] == z.shape
        assert d_row.reshape(-1).view(np.uint64).tobytes() == d.view(np.uint64).tobytes()
        assert np.array_equal(np.isfinite(d), np.isfinite(ref))
        weight = sum(abs(c) * key[i] for key, c in f.terms.items())
        bound = (32 * math.sqrt(5) + 2 * len(f.terms)) * 2.0**-53 * weight * reach
        finite = np.isfinite(ref)
        assert np.all(abs(d[finite] - ref[finite]) <= bound[finite])


# Run with every numpy dispatch target off, where no complex product is fused:
# there the Python-complex kernel and the array kernel take the same roundings.
_BASELINE_KERNELS_AGREE = textwrap.dedent(
    """
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    from lensdist.poly import ComplexPoly, _array_sums

    assert not any(__cpu_features__[k] for k in __cpu_dispatch__), "not at the baseline level"
    rng = np.random.default_rng(92)
    parts = (0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -0.5, 0.75, -1.0)
    points = [complex(a, b) for a in parts for b in parts]
    points += [complex(*rng.uniform(-1, 1, 2)) for _ in range(300)]
    z = np.array(points)

    def bits(values):
        return np.array(values, dtype=complex).view(np.uint64)

    for degree in (7, 16):
        for _ in range(20):
            terms = {}
            for n in rng.integers(2, degree + 1, 25):
                k = int(rng.integers(0, n + 1))
                terms[(k, int(n) - k)] = complex(rng.normal(), rng.normal())
            f = ComplexPoly(terms)
            plan, steps = f._plan, f._steps
            value = _array_sums(z, steps, plan.value)[0]
            d_z, d_zbar = _array_sums(z, steps, plan.d_z, plan.d_zbar)
            assert np.array_equal(bits([f.evaluate(w) for w in points]), bits(value)), terms
            pairs = np.array([f.wirtinger(w) for w in points])
            assert np.array_equal(bits(pairs[:, 0]), bits(d_z)), terms
            assert np.array_equal(bits(pairs[:, 1]), bits(d_zbar)), terms
    """
)


def test_scalar_kernel_is_bitwise_the_array_kernel_at_the_baseline_level():
    # The child turns off every dispatch target the host enables, and those
    # this process already runs with off.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    off = set(os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split())
    off |= {k for k in __cpu_dispatch__ if __cpu_features__[k]}
    src = str(Path(lensdist.__file__).parents[1])
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(sorted(off)),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    subprocess.run([sys.executable, "-c", _BASELINE_KERNELS_AGREE], env=env, check=True)


# -- monomial vector and its rotation matrix ----------------------------------


def test_monomial_vector_examples():
    assert np.array_equal(monomial_vector(2, 1.0, 2.0), [1, 2, 4])
    assert np.array_equal(monomial_vector(1, 0.3, -0.4), [0.3, -0.4])
    assert np.array_equal(monomial_vector(3, 2.0, 1.0), [8, 4, 2, 1])


def test_monomial_rotation_identity_and_quarter_turn():
    assert np.array_equal(monomial_rotation(2, 0.0), np.eye(3))
    v = monomial_rotation(2, math.pi / 2)
    assert np.allclose(v, [[0, 0, 1], [0, -1, 0], [1, 0, 0]], atol=1e-15)


def test_monomial_rotation_defining_identity():
    rng = np.random.default_rng(10)
    for n in range(1, 8):
        for _ in range(100):
            theta = rng.uniform(-7, 7)
            x, y = rng.normal(size=2)
            c, s = math.cos(theta), math.sin(theta)
            rotated = monomial_vector(n, c * x - s * y, s * x + c * y)
            predicted = monomial_rotation(n, theta) @ monomial_vector(n, x, y)
            assert np.linalg.norm(rotated - predicted) < 1e-10


# -- whole-model rotation ------------------------------------------------------


def test_model_rotation_decentering_half_turn():
    from lensdist.families import decentering

    s1, s2 = 0.37, -0.21
    rotated = decentering(s1, s2).rotated(math.pi)
    assert rotated.isclose(decentering(-s1, -s2), tol=1e-12)


def test_model_rotation_matches_complex_path():
    # Turning the real blocks, R^T M V_n per degree, is the phase map of rotated.
    rng = np.random.default_rng(12)
    for _ in range(50):
        f = random_poly(rng, max_degree=6, max_terms=8)
        theta = rng.uniform(-7, 7)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        via_real = RealPolyModel(
            {n: rot.T @ block @ monomial_rotation(n, theta) for n, block in f.to_real().blocks.items()}
        )
        via_complex = f.rotated(theta).to_real()
        assert blocks_close(via_real, via_complex, tol=1e-10)


# -- model JSON ----------------------------------------------------------------


def test_model_json_round_trip_both_forms(tmp_path):
    rng = np.random.default_rng(13)
    f = random_poly(rng)
    for form in ("complex", "real"):
        path = tmp_path / f"model_{form}.json"
        save_model(path, f, form=form)
        assert load_model(path).isclose(f, tol=1e-12)


def test_model_json_validation():
    with pytest.raises(ValueError):
        model_from_json({"format": "other", "version": 1, "complex": []})
    with pytest.raises(ValueError):
        model_from_json({"format": "lensdist-model", "version": 2, "complex": []})
    with pytest.raises(ValueError):
        model_from_json({"format": "lensdist-model", "version": 1})
    with pytest.raises(ValueError):
        model_from_json(
            {"format": "lensdist-model", "version": 1, "complex": [], "real": []}
        )


@pytest.mark.parametrize(
    "entries",
    [
        {"complex": [{"k": 2.5, "l": 0, "re": 1.0, "im": 0.0}]},
        {"complex": [{"k": "2", "l": 0, "re": 1.0, "im": 0.0}]},
        {"real": [{"degree": "2", "rows": [[1, 0, 0], [0, 1, 0]]}]},
        {"real": [{"degree": 2.0, "rows": [[1, 0, 0], [0, 1, 0]]}]},
        {"real": [{"degree": 2, "rows": {"a": 1}}]},
        {
            "complex": [
                {"k": 2, "l": 0, "re": 1.0, "im": 0.0},
                {"k": 2, "l": 0, "re": 2.0, "im": 0.0},
            ]
        },
        {"complex": [{"k": True, "l": 1, "re": True, "im": 0}]},
        {"complex": [{"k": 2, "l": 0, "re": 1.0, "im": False}]},
        {"real": [{"degree": 2, "rows": [[1, 0, 0], [0, True, 0]]}]},
        {"version": True, "complex": []},
    ],
)
def test_model_json_malformed_entries_raise_value_error(entries):
    with pytest.raises(ValueError):
        model_from_json({"format": "lensdist-model", "version": 1, **entries})


def test_load_model_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)


def test_model_json_normalizes_real_to_complex():
    data = {
        "format": "lensdist-model",
        "version": 1,
        "real": [{"degree": 2, "rows": [[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]]}],
    }
    poly = model_from_json(data)
    assert dict(poly.terms) == {(2, 0): 1 + 0j}
    assert model_to_json(poly, form="real") == data


def test_models_are_written_from_complex_poly_only(tmp_path):
    # The real form is a view: it converts, evaluates and shows its blocks.
    real = RealPolyModel({2: [[1, 0, -1], [0, 2, 0]]})
    assert {n for n in dir(real) if not n.startswith("_")} == {"blocks", "evaluate", "to_complex"}
    path = tmp_path / "model.json"
    for model in (real, {(2, 0): 1.0}):
        for form in ("complex", "real"):
            with pytest.raises(TypeError):
                model_to_json(model, form=form)
            with pytest.raises(TypeError):
                save_model(path, model, form=form)
    assert not path.exists()
    save_model(path, real.to_complex(), form="real")
    assert load_model(path) == real.to_complex()


def test_conversion_against_symbolic_expansion():
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y", real=True)
    z, zb = x + sp.I * y, x - sp.I * y
    rng = np.random.default_rng(14)
    for n in range(2, 5):
        for k in range(n + 1):
            gamma = complex(rng.normal(), rng.normal())
            expr = sp.expand(gamma * z**k * zb ** (n - k))
            re = sp.Poly(sp.re(expr), x, y)
            im = sp.Poly(sp.im(expr), x, y)
            block = ComplexPoly({(k, n - k): gamma}).to_real().blocks[n]
            for j in range(n + 1):
                mono = x ** (n - j) * y**j
                assert float(re.coeff_monomial(mono)) == block[0][j]
                assert float(im.coeff_monomial(mono)) == block[1][j]


def test_monomial_rotation_against_symbolic_expansion():
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y", real=True)
    theta = 0.8377
    c, s = math.cos(theta), math.sin(theta)
    xp, yp = c * x - s * y, s * x + c * y
    for n in range(1, 5):
        v = monomial_rotation(n, theta)
        for i in range(n + 1):
            poly = sp.Poly(sp.expand(xp ** (n - i) * yp**i), x, y)
            for j in range(n + 1):
                coeff = float(poly.coeff_monomial(x ** (n - j) * y**j))
                assert abs(coeff - v[i, j]) < 1e-14
