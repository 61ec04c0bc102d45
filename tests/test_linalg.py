import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opent import linalg
from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, expi_hermitian, random_complex, random_hermitian

I2 = np.eye(2, dtype=np.complex128)


def test_kron_identities():
    np.testing.assert_array_equal(linalg.kron(I2, I2), np.eye(4))
    np.testing.assert_array_equal(
        linalg.kron(np.diag([1.0, 2.0]), I2), np.diag([1.0, 1.0, 2.0, 2.0])
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (random_complex(rng, 2, 2) for _ in range(4))
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    rhs = linalg.kron(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_hs_inner_identity_trace():
    assert linalg.hs_inner(np.eye(5), np.eye(5)) == pytest.approx(5)


def test_hs_inner_pauli_orthogonality():
    assert linalg.hs_inner(SIGMA_X, SIGMA_Y) == pytest.approx(0)


def test_hs_inner_unitary_norm(rng):
    # <U|U> = Tr(U^dag U) = dim for any unitary
    from conftest import random_unitary

    u = random_unitary(rng, 12)
    assert linalg.hs_inner(u, u) == pytest.approx(12, rel=1e-12)


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        linalg.hs_inner(np.eye(2), np.eye(3))


def test_hs_inner_equals_entry_sum(rng):
    a = random_complex(rng, 4, 6)
    assert linalg.hs_inner(a, a).real == pytest.approx(np.sum(np.abs(a) ** 2))
    assert linalg.hs_inner(a, a).imag == pytest.approx(0, abs=1e-12)


def test_singular_values_trivial():
    np.testing.assert_allclose(linalg.singular_values(np.eye(3)), [1, 1, 1])
    np.testing.assert_allclose(linalg.singular_values(np.diag([3.0, 0.0])), [3, 0])


def test_singular_values_gram_oracle(rng):
    a = random_complex(rng, 5, 7)
    sigma = linalg.singular_values(a)
    assert sigma.shape == (5,)
    assert np.all(np.diff(sigma) <= 0)
    gram_eigs, _ = linalg.eigh(a @ a.conj().T)
    np.testing.assert_allclose(np.sort(sigma**2), np.sort(gram_eigs), atol=1e-10)
    assert np.sum(sigma**2) == pytest.approx(linalg.hs_inner(a, a).real, rel=1e-10)


def test_eigh_sigma_z():
    w, v = linalg.eigh(SIGMA_Z)
    np.testing.assert_allclose(w, [-1, 1])
    np.testing.assert_allclose(np.abs(v), np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_eigh_sigma_x():
    w, _ = linalg.eigh(SIGMA_X)
    np.testing.assert_allclose(w, [-1, 1], atol=1e-15)


def test_eigh_reconstruction(rng):
    h = random_hermitian(rng, 20)
    w, v = linalg.eigh(h)
    np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-10 * np.abs(h).max())
    assert linalg.unitarity_residual(v) < 1e-12


def test_eigh_rejects_non_hermitian(rng):
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.eigh(random_complex(rng, 4, 4))


# exp(-i theta h) through `linalg.eigh`, the oracle that the precession and parity tests use

def test_expi_zero_angle(rng):
    h = random_hermitian(rng, 6)
    np.testing.assert_allclose(expi_hermitian(h, 0.0), np.eye(6), atol=1e-14)


def test_expi_spin_half_rotation():
    got = expi_hermitian(SIGMA_Y / 2, np.pi / 2)
    expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_expi_unitarity(rng):
    h = random_hermitian(rng, 21)
    u = expi_hermitian(h, 0.37)
    assert linalg.unitarity_residual(u) < 1e-10


def test_expi_angle_additivity(rng):
    h = random_hermitian(rng, 8)
    lhs = expi_hermitian(h, 0.3) @ expi_hermitian(h, 1.1)
    np.testing.assert_allclose(lhs, expi_hermitian(h, 1.4), atol=1e-10)


def test_unitarity_residual_examples():
    assert linalg.unitarity_residual(np.eye(4)) == 0
    assert linalg.unitarity_residual(2 * np.eye(2)) == pytest.approx(3)
    assert linalg.unitarity_residual(np.diag([1, 1, 1.5])) == pytest.approx(1.25)
    # an exchange sector can be 0 x 0 (identical spins 1/2): it has no defect
    assert linalg.unitarity_residual(np.zeros((0, 0))) == 0
    for shape in ((2, 3), (2, 3, 3), (3,)):  # a matrix only, and a square one
        with pytest.raises(ValueError, match="square matrix"):
            linalg.unitarity_residual(np.ones(shape))


@pytest.mark.parametrize("call, error, message", [
    (lambda: linalg.as_matrix(np.zeros(3)), ValueError, "expected a matrix, got ndim=1"),
    (lambda: linalg.eigh(np.zeros((2, 3))), ValueError, "eigh requires a square matrix, got (2, 3)"),
    (lambda: linalg.singular_values(np.full((2, 2), np.nan)), np.linalg.LinAlgError, "shape (2, 2), |a|_max=nan"),
])
def test_bad_input_raises_one_error_that_names_it(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a nan input must not warn on its way to the error
        with pytest.raises(error) as info:
            call()
    assert message in str(info.value)


def test_require_passes_a_defect_at_the_bound_and_fails_one_above_it_or_nan():
    assert linalg.DRIFT_TOL == 1e-8
    for defect in (0.0, 1e-12, linalg.DRIFT_TOL):
        linalg.require(defect, "some defect", "the bound")
    for defect in (np.nan, float("nan"), np.nextafter(1e-8, 1), 2e-8, np.inf):
        with pytest.raises(RuntimeError) as info:
            linalg.require(defect, "some defect", "power n=3")
        assert type(info.value) is RuntimeError
        assert str(info.value) == f"some defect {defect:.3e} exceeds 1e-08 at power n=3"


def test_transpose_defect_is_the_largest_over_all_matrices_and_bands():
    sym = np.arange(16.0).reshape(4, 4)
    sym = sym + sym.T
    skew = np.zeros((20, 20), complex)
    skew[19, 0] = 2j  # in the last row band alone
    assert linalg.transpose_defect([sym]) == 0
    assert linalg.transpose_defect([sym, np.zeros((0, 0)), skew]) == 2


def test_row_bands_cover_the_rows_in_at_most_row_bands_bands():
    for h in range(200):
        for least in (1, 2, 3):
            bands = linalg.row_bands(h, least)
            assert len(bands) <= linalg.ROW_BANDS
            assert [i for band in bands for i in range(h)[band]] == list(range(h))
            # each band holds at least `least` rows, or all h of them when h < least
            assert min((len(range(h)[band]) for band in bands), default=h) >= min(least, h)


@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_matmul_in_place_equals_the_whole_product_bit_for_bit(seed, h):
    # a[rows] = a[rows] @ b band by band, each band of at least two rows (one row would be a
    # gemv), must give numpy's a @ b exactly
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, h, h), random_complex(rng, h, h)
    expected = a @ b
    assert linalg.matmul_in_place(a, b) is a
    assert np.array_equal(a, expected)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_unitarity_residual_by_row_bands_equals_the_whole_gram(seed, dim):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(random_complex(rng, dim, dim))[0] + 1e-6 * random_complex(rng, dim, dim)
    whole = np.abs(u.conj().T @ u - np.eye(dim)).max()
    assert linalg.unitarity_residual(u) == pytest.approx(whole, rel=1e-9)
