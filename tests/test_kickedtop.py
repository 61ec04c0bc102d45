import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opent import (
    BipartitionDims,
    KickedTopParams,
    SpinSystem,
    UnitarityDriftError,
    coupling,
    diagonal_coupling,
    floquet,
    free_rotation,
    jz,
    operator_entanglement,
    power_sequence,
    product_rotation,
    torsion,
)
from opent import kickedtop
from opent.kickedtop import parity_floquet
from opent.linalg import expi_hermitian, hs_inner, kron, unitarity_residual
from opent.spin import jy, parity_basis
from opent.states import product_basis_state
from conftest import random_unitary

HALF = SpinSystem(1)
J10 = SpinSystem.from_j(10)
SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
SPIN_PAIRS = [(a, b) for a in SPINS for b in SPINS if a <= b]


def test_params_validation():
    with pytest.raises(ValueError, match="j1 <= j2"):
        KickedTopParams(2, 1, 1, 1, 0.1)
    with pytest.raises(ValueError, match="finite"):
        KickedTopParams(1, 1, float("nan"), 1, 0.1)
    with pytest.raises(ValueError, match="at least"):
        KickedTopParams(0, 1, 1, 1, 0.1)
    with pytest.raises(ValueError, match="j must be integer or half-integer, got 10.3"):
        KickedTopParams(10.3, 10.3, 1, 1, 0.1)
    for j in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"spin j={j:g} must be finite"):
            KickedTopParams(j, j, 1, 1, 0.1)
    with pytest.raises(ValueError, match="epsilon must be finite, got inf"):
        KickedTopParams(1, 1, 1, 1, float("inf"))
    p = KickedTopParams.symmetric(10, 6.0, 1.0)
    assert p.top1.dim == p.top2.dim == 21


def test_free_rotation_spin_half():
    # pi/2 rotation about y in the ascending-m basis
    expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
    np.testing.assert_allclose(free_rotation(HALF), expected, atol=1e-14)


def test_free_rotation_unitary():
    assert unitarity_residual(free_rotation(J10)) < 1e-12


def test_free_rotation_full_turn_integer_spin():
    # exp(-i 2 pi Jy) = identity for integer j
    u = free_rotation(J10)
    np.testing.assert_allclose(u @ u @ u @ u, np.eye(21), atol=1e-10)


def test_torsion_examples():
    np.testing.assert_allclose(torsion(J10, 0.0), np.eye(21), atol=1e-15)
    # spin-1/2: m^2 = 1/4 on both levels, so pure global phase
    t = torsion(HALF, 3.0)
    np.testing.assert_allclose(t, np.exp(-3j / 4) * np.eye(2), atol=1e-14)
    # j=10, k=6, m=10: exp(-i * 6/20 * 100)
    assert torsion(J10, 6.0)[20, 20] == pytest.approx(np.exp(-30j))


def test_coupling_examples():
    np.testing.assert_allclose(coupling(J10, J10, 0.0), np.eye(441), atol=1e-15)
    c = coupling(J10, J10, 1.0)
    # corner (m1, m2) = (j1, j2) at product index (2j1)(M) + 2j2
    assert c[440, 440] == pytest.approx(np.exp(-1j * np.sqrt(100.0)))


def test_coupling_commutes_with_local_jz():
    c = coupling(HALF, J10, 0.7)
    for local in (kron(jz(HALF), np.eye(21)), kron(np.eye(2), jz(J10))):
        np.testing.assert_allclose(c @ local, local @ c, atol=1e-12)


def test_coupling_additivity():
    lhs = coupling(HALF, J10, 0.3) @ coupling(HALF, J10, 0.9)
    np.testing.assert_allclose(lhs, coupling(HALF, J10, 1.2), atol=1e-12)


def test_floquet_zero_coupling_is_product():
    p = KickedTopParams.symmetric(2, 3.0, 0.0)
    s = p.top1
    u1 = torsion(s, 3.0) @ free_rotation(s)
    np.testing.assert_allclose(floquet(p), kron(u1, u1), atol=1e-13)
    sv, sl = operator_entanglement(floquet(p), BipartitionDims(5, 5))
    assert sv == pytest.approx(0, abs=1e-10)
    assert sl == pytest.approx(0, abs=1e-10)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1.0])
@pytest.mark.parametrize("j1, j2", SPIN_PAIRS)
def test_floquet_builds_match_the_dense_factor_products(j1, j2, eps):
    p = KickedTopParams(j1, j2, 2.5, 5.0, eps)
    s1, s2 = p.top1, p.top2
    u1, u2 = torsion(s1, 2.5) @ free_rotation(s1), torsion(s2, 5.0) @ free_rotation(s2)
    u = floquet(p)
    np.testing.assert_allclose(u, coupling(s1, s2, eps) @ kron(u1, u2), rtol=0, atol=1e-14)
    (w1, l1), (w2, l2) = parity_basis(s1), parity_basis(s2)
    w = kron(w1, w2)
    local, got_l1, got_l2 = parity_floquet(p)
    np.testing.assert_allclose(local, w.conj().T @ u @ w, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(got_l1, l1)
    np.testing.assert_array_equal(got_l2, l2)


def test_floquet_unitarity_and_norm():
    u = floquet(KickedTopParams.symmetric(10, 6.0, 1.0))
    assert unitarity_residual(u) < 1e-12
    assert hs_inner(u, u).real == pytest.approx(441, rel=1e-12)


def test_power_sequence_identity():
    samples = list(power_sequence(np.eye(3), range(1, 11)))
    assert [s.n for s in samples] == list(range(1, 11))
    for s in samples:
        np.testing.assert_array_equal(s.matrix, np.eye(3))
        assert s.residual == 0


def test_power_sequence_fourth_root_of_unity():
    u = 1j * np.eye(2)
    samples = {s.n: s.matrix for s in power_sequence(u, range(1, 5))}
    np.testing.assert_allclose(samples[4], np.eye(2), atol=1e-15)


def test_power_sequence_matches_repeated_matmul():
    u = floquet(KickedTopParams.symmetric(3, 2.0, 0.5))
    expected = np.eye(u.shape[0], dtype=complex)
    for _ in range(5):
        expected = expected @ u
    (sample,) = power_sequence(u, range(5, 6, 5))
    np.testing.assert_allclose(sample.matrix, expected, atol=1e-12)


def test_power_sequence_stride_and_bounds():
    ns = [s.n for s in power_sequence(np.eye(2), range(3, 11, 3))]
    assert ns == [3, 6, 9]
    assert list(power_sequence(np.eye(2), range(4, 4))) == []
    with pytest.raises(ValueError):
        list(power_sequence(np.eye(2), range(0, 1)))


def test_power_sequence_powers_a_stack_side_by_side():
    a = floquet(KickedTopParams.symmetric(1, 2.0, 0.5))
    b = floquet(KickedTopParams(1, 1, 3.0, 1.0, 0.3))
    samples = list(power_sequence(np.stack([a, b]), range(3, 7, 3)))
    assert [s.n for s in samples] == [3, 6]
    for s in samples:
        for u, power in zip((a, b), s.matrix):
            np.testing.assert_allclose(power, np.linalg.matrix_power(u, s.n), atol=1e-13)
        assert s.residual == max(unitarity_residual(m) for m in s.matrix)


@pytest.mark.parametrize("j1, j2", [(0.5, 0.5), (0.5, 1.0), (1.5, 2.0), (10, 10)])
def test_floquet_commutes_with_its_parity(j1, j2):
    p = KickedTopParams(j1, j2, 6.0, 3.0, 1.0)
    r = kron(expi_hermitian(jy(p.top1), np.pi), expi_hermitian(jy(p.top2), np.pi))
    u = floquet(p)
    assert np.abs(u @ r - r @ u).max() < 1e-12


def test_kicked_spectra_reject_an_operator_that_breaks_parity(monkeypatch):
    p = KickedTopParams(1, 1.5, 6.0, 6.0, 1.0)
    u, l1, l2 = parity_floquet(p)
    (w1, _), (w2, _) = parity_basis(p.top1), parity_basis(p.top2)
    w = kron(w1, w2)
    kick = w.conj().T @ product_rotation(p.top1, p.top2, 0.7) @ w  # R maps it to exp(+i p Jz)
    for bad in (u @ kick, np.full_like(u, np.nan)):
        monkeypatch.setattr(kickedtop, "parity_floquet", lambda params: (bad, l1, l2))
        with pytest.raises(ValueError, match="breaks the parity"):
            next(kickedtop.kicked_spectra(p, range(1, 3)))


def test_kicked_spectra_check_unitarity_only_from_the_window_start(monkeypatch):
    checked = []

    def counting(u):
        checked.append(u)
        return unitarity_residual(u)

    monkeypatch.setattr(kickedtop, "unitarity_residual", counting)
    p = KickedTopParams(1, 1.5, 6.0, 3.0, 1.0)
    for ns in (range(15, 28, 3), range(5, 30, 4)):  # the second starts off its step
        checked.clear()
        got = [n for n, _ in kickedtop.kicked_spectra(p, ns)]
        assert got == list(ns)
        assert len(checked) == len(got)


def test_power_sequence_drift_aborts():
    drifting = (1 + 1e-4) * np.eye(2)
    with pytest.raises(UnitarityDriftError, match="residual"):
        list(power_sequence(drifting, range(1, 3)))


@given(
    seed=st.integers(0, 2**32 - 1),
    layers=st.integers(1, 3),
    dim=st.integers(1, 6),
    stride=st.integers(1, 9),
    n_max=st.integers(1, 60),
    start=st.integers(1, 36),
)
@settings(max_examples=40, deadline=None)
def test_power_sequence_strides_match_matrix_powers(seed, layers, dim, stride, n_max, start):
    rng = np.random.default_rng(seed)
    u = np.stack([random_unitary(rng, dim) for _ in range(layers)])
    ns = range(start, n_max + 1, stride)
    samples = list(power_sequence(u, ns))
    assert [s.n for s in samples] == list(ns)
    for s in samples:
        np.testing.assert_allclose(s.matrix, np.linalg.matrix_power(u, s.n), rtol=0, atol=1e-12)
        assert s.residual == unitarity_residual(s.matrix)


@pytest.mark.parametrize("ns", [range(0, 20, 2), range(-2, 20, 2), range(20, 3, -2)])
def test_power_sequence_rejects_a_start_or_step_below_one(ns):
    with pytest.raises(ValueError, match="start and step of at least 1"):
        next(power_sequence(np.eye(2), ns))


def test_power_sequence_yields_read_only_powers():
    u = 1j * np.eye(2)
    for s in power_sequence(u, range(2, 7, 2)):
        with pytest.raises(ValueError, match="read-only"):
            s.matrix[0, 0] = 0
    assert u.flags.writeable


def test_power_sequence_drift_aborts_at_the_first_strided_sample():
    for drifting in ((1 + 1e-4) * np.eye(2), np.full((2, 2), np.nan)):
        with pytest.raises(UnitarityDriftError, match="residual") as info:
            list(power_sequence(drifting, range(4, 13, 4)))
        assert info.value.n == 4


def test_diagonal_coupling_eigenvalues():
    np.testing.assert_allclose(diagonal_coupling(HALF, HALF, 0.0), np.eye(4), atol=1e-15)
    s = SpinSystem(2)
    u = diagonal_coupling(s, s, 0.8)
    for m1 in s.m_values():
        for m2 in s.m_values():
            psi = product_basis_state(s, s, m1, m2).amplitudes
            np.testing.assert_allclose(
                u @ psi, np.exp(-0.8j * m1 * m2) * psi, atol=1e-13
            )


def test_product_rotation_not_entangling():
    np.testing.assert_allclose(product_rotation(HALF, HALF, 0.0), np.eye(4), atol=1e-15)
    u = product_rotation(J10, J10, 0.7)
    sv, sl = operator_entanglement(u, BipartitionDims(21, 21))
    assert sv == pytest.approx(0, abs=1e-10)
    assert sl == pytest.approx(0, abs=1e-10)


def test_product_rotation_diagonal_action():
    s = SpinSystem(2)
    u = product_rotation(s, s, 0.4)
    for m1 in s.m_values():
        for m2 in s.m_values():
            psi = product_basis_state(s, s, m1, m2).amplitudes
            np.testing.assert_allclose(
                u @ psi, np.exp(-0.4j * (m1 + m2)) * psi, atol=1e-13
            )
