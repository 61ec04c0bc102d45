import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opent import SpinSystem, basis_state, jx, jy, jz
from opent.linalg import eigh
from opent.spin import parity_basis
from conftest import expi_hermitian

HALF = SpinSystem(1)
ONE = SpinSystem(2)


def test_spin_system_dims():
    assert HALF.j == 0.5 and HALF.dim == 2
    assert SpinSystem.from_j(10).dim == 21
    assert SpinSystem.from_j(1.5).two_j == 3
    with pytest.raises(ValueError):
        SpinSystem(-1)
    with pytest.raises(ValueError):
        SpinSystem.from_j(0.3)
    for j in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match=f"spin j={j:g} must be finite and at least 1/2"):
            SpinSystem.from_j(j)


def test_spin_system_takes_an_integer_two_j_only():
    # a float, even an integral one, would make `dim` a float that fails far from its cause
    for two_j in (2.0, 2.5, -1, "2"):
        with pytest.raises(ValueError) as info:
            SpinSystem(two_j)
        assert str(info.value) == f"two_j must be a nonnegative integer, got {two_j}"
    for two_j in (np.int64(2), np.uint8(2), 2):
        spin = SpinSystem(two_j)
        assert spin.dim == 3 and basis_state(spin, 0)[1, 0] == 1


def test_jz_examples():
    np.testing.assert_array_equal(jz(HALF), np.diag([-0.5, 0.5]))
    np.testing.assert_array_equal(jz(ONE), np.diag([-1.0, 0.0, 1.0]))
    assert np.trace(jz(SpinSystem.from_j(10))) == pytest.approx(0)


def test_jy_spin_half():
    # ascending-m ordering (index = m + j) fixes the off-diagonal phases
    expected = np.array([[0, 0.5j], [-0.5j, 0]])
    np.testing.assert_allclose(jy(HALF), expected, atol=1e-15)


def test_jy_spectrum_matches_jz():
    w, _ = eigh(jy(ONE))
    np.testing.assert_allclose(w, [-1, 0, 1], atol=1e-14)


def test_jx_spin_half():
    np.testing.assert_allclose(jx(HALF), np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)


@pytest.mark.parametrize("two_j", range(1, 11))
def test_jx_real_symmetric(two_j):
    m = jx(SpinSystem(two_j))
    assert np.abs(m.imag).max() == 0
    np.testing.assert_array_equal(m, m.T)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 20])
def test_commutator_algebra(two_j):
    s = SpinSystem(two_j)
    x, y, z = jx(s), jy(s), jz(s)
    np.testing.assert_allclose(x @ y - y @ x, 1j * z, atol=1e-12)
    np.testing.assert_allclose(y @ z - z @ y, 1j * x, atol=1e-12)
    np.testing.assert_allclose(z @ x - x @ z, 1j * y, atol=1e-12)


@pytest.mark.parametrize("two_j", [1, 3, 4, 20])
def test_casimir(two_j):
    s = SpinSystem(two_j)
    j = s.j
    casimir = jx(s) @ jx(s) + jy(s) @ jy(s) + jz(s) @ jz(s)
    np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(s.dim), atol=1e-12)


@pytest.mark.parametrize("two_j", [1, 2, 5, 20])
def test_hermitian_traceless(two_j):
    s = SpinSystem(two_j)
    for op in (jx(s), jy(s), jz(s)):
        np.testing.assert_allclose(op, op.conj().T, atol=1e-14)
        assert abs(np.trace(op)) < 1e-12


def test_basis_state_examples():
    np.testing.assert_array_equal(basis_state(ONE, -1).ravel(), [1, 0, 0])
    np.testing.assert_array_equal(basis_state(ONE, 1).ravel(), [0, 0, 1])


def test_basis_state_eigenrelation():
    s = SpinSystem.from_j(10)
    z = jz(s)
    for m in s.m_values():
        vec = basis_state(s, m)
        np.testing.assert_allclose(z @ vec, m * vec, atol=1e-14)


def test_basis_state_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        basis_state(ONE, 2)
    with pytest.raises(ValueError, match="out of range"):
        basis_state(HALF, 0.0)


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 10, 12.5])
def test_parity_basis_diagonalizes_the_pi_rotation_about_y(j):
    s = SpinSystem.from_j(j)
    w, labels = parity_basis(s)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(s.dim), atol=1e-13)
    rotated = w.conj().T @ expi_hermitian(jy(s), np.pi) @ w
    np.testing.assert_allclose(rotated, np.exp(-1j * np.pi * s.j) * np.diag(labels), atol=1e-13)


@given(two_j=st.integers(1, 20))
@settings(max_examples=20, deadline=None)
def test_parity_basis_is_a_real_phase_jy_eigenbasis(two_j):
    s = SpinSystem(two_j)
    w, labels = parity_basis(s)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(s.dim), rtol=0, atol=1e-13)
    np.testing.assert_allclose(jy(s) @ w, w * s.m_values(), rtol=0, atol=1e-13)
    # w w^T is diagonal, so w^dag diag(g) w = o^T diag(g) o is symmetric for any diagonal g
    wwt = w @ w.T
    np.testing.assert_allclose(wwt - np.diag(np.diag(wwt)), 0, rtol=0, atol=1e-14)
    g = np.exp(1j * np.arange(s.dim) ** 2)
    local = w.conj().T @ (g[:, None] * w)
    np.testing.assert_allclose(local, local.T, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(labels, (-1.0) ** (s.j - s.m_values()))
