import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from hprelu.legendre import (
    gauss_rule,
    legendre_coeffs,
    legendre_table,
    polyder,
    polyval,
    zeta_coeffs,
)

from helpers import legendre, legendre_antideriv, zeta_value


def test_pinned_values():
    assert legendre(2, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert legendre(2, 0.0) == pytest.approx(-0.5, abs=1e-15)
    # antiderivative of L_1 is (x^2-1)/2, vanishing at x=1
    assert legendre_antideriv(1, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_values_against_numpy():
    t = np.linspace(-1, 1, 201)
    for n in range(12):
        ref = npleg.legval(t, [0.0] * n + [1.0])
        np.testing.assert_allclose(legendre(n, t), ref, atol=1e-13)
    table = legendre_table(11, t)
    for n in range(12):
        np.testing.assert_allclose(table[n], legendre(n, t), atol=1e-14)


def test_antideriv_is_antiderivative():
    t = np.linspace(-1, 1, 20001)
    for n in range(8):
        f = legendre_antideriv(n, t)
        df = np.gradient(f, t)
        np.testing.assert_allclose(df[5:-5], legendre(n, t)[5:-5], atol=2e-6)
        assert abs(legendre_antideriv(n, -1.0)) < 1e-15
        if n >= 1:
            assert abs(legendre_antideriv(n, 1.0)) < 1e-14


def test_coeff_arrays():
    t = np.linspace(-1, 1, 101)
    for n in range(10):
        np.testing.assert_allclose(polyval(legendre_coeffs(n), t),
                                   legendre(n, t), atol=1e-12)


def test_scaled_l2_norm():
    # ||L_2 o phi_k||_{L2(J_k)} = sqrt(h_k/(2i+1)) for h_k = 0.25
    t, w = gauss_rule(8)
    h = 0.25
    val = np.sqrt(0.5 * h * np.dot(w, legendre(2, t) ** 2))
    assert val == pytest.approx(np.sqrt(0.25 / 5), abs=1e-14)
    assert val == pytest.approx(0.223607, abs=1e-6)


def test_zeta_shapes():
    t = np.linspace(-1, 1, 401)
    np.testing.assert_allclose(zeta_value(1, t), 0.5 * (1 + t), atol=1e-15)
    np.testing.assert_allclose(zeta_value(2, t), 0.5 * (1 - t), atol=1e-15)
    for i in range(3, 9):
        z = zeta_value(i, t)
        # interior modes vanish at both endpoints
        assert abs(z[0]) < 1e-14 and abs(z[-1]) < 1e-14
        np.testing.assert_allclose(polyval(zeta_coeffs(i), t), z, atol=1e-12)
        # derivative identity: zeta_i' = L_{i-2}/2
        dz = polyval(polyder(zeta_coeffs(i)), t)
        np.testing.assert_allclose(dz, 0.5 * legendre(i - 2, t), atol=1e-12)
    with pytest.raises(ValueError):
        zeta_coeffs(0)


def test_gauss_exactness():
    t, w = gauss_rule(6)
    assert np.dot(w, t ** 10) == pytest.approx(2.0 / 11, rel=1e-13)
