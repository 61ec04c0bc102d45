import importlib
import inspect
import math
import pickle
import pkgutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opent import (
    BipartitionDims,
    KickedTopParams,
    SpinSystem,
    diagonal_coupling,
    floquet,
    jz,
    operator_entanglement,
    product_rotation,
)
import opent
from opent import cli, kickedtop
from opent.kickedtop import DRIFT_TOL, kick_phases, parity_floquet, power_sequence
from opent.linalg import hs_inner, kron, require, row_bands, transpose_defect, unitarity_residual
from opent.blocks import band_stack, exchange_sectors
from opent.rmt import Histogram, LaguerreLaw
from opent.schmidt import SchmidtSpectrum, realign
from opent.spin import jy, parity_basis
from opent.states import PureState, product_basis_state
from conftest import expi_hermitian, parity_stack, random_parity_unitary, random_unitary

HALF = SpinSystem(1)
J10 = SpinSystem.from_j(10)
SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
SPIN_PAIRS = [(a, b) for a in SPINS for b in SPINS if a <= b]


def dense_top(s: SpinSystem, k: float) -> np.ndarray:
    """One top's torsion times its precession, both dense and built without `parity_basis`."""
    torsion = np.diag(np.exp(-1j * (k / s.two_j) * s.m_values() ** 2))
    return torsion @ expi_hermitian(jy(s), np.pi / 2)


def dense_coupling(s1: SpinSystem, s2: SpinSystem, eps: float) -> np.ndarray:
    """exp(-i (eps / sqrt(j1 j2)) Jz x Jz) as a dense diagonal matrix."""
    phases = np.exp(-1j * eps / np.sqrt(s1.j * s2.j) * np.outer(s1.m_values(), s2.m_values()))
    return np.diag(phases.ravel())


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
    with pytest.raises(ValueError, match=r"k1=1e\+308 overflows the largest torsion phase"):
        KickedTopParams(10, 10, 1e308, 1, 0.1)
    with pytest.raises(ValueError, match=r"k2=-1e\+308 overflows the largest torsion phase"):
        KickedTopParams(10, 10, 1, -1e308, 0.1)
    with pytest.raises(ValueError, match=r"epsilon=1e\+308 overflows the largest coupling phase"):
        KickedTopParams(10, 20, 1, 1, 1e308)
    KickedTopParams(0.5, 0.5, 1e308, 1e308, 1e308)  # each largest phase is 1e308 / 2
    p = KickedTopParams(10, 10, 6.0, 6.0, 1.0)
    assert p.top1.dim == p.top2.dim == 21


def unkicked(j1, j2) -> np.ndarray:
    """`floquet` with no torsion and no coupling: the product of the two precessions."""
    return floquet(KickedTopParams(j1, j2, 0.0, 0.0, 0.0))


def test_free_rotation_spin_half():
    # pi/2 rotation about y in the ascending-m basis
    expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
    np.testing.assert_allclose(unkicked(0.5, 0.5), kron(expected, expected), atol=1e-14)


def test_free_rotation_unitary():
    assert unitarity_residual(unkicked(10, 10)) < 1e-12


def test_free_rotation_full_turn_integer_spin():
    # exp(-i 2 pi Jy) = identity for integer j
    u = unkicked(10, 10)
    np.testing.assert_allclose(u @ u @ u @ u, np.eye(441), atol=1e-10)


def test_torsion_examples():
    # with no coupling the kick phases are the outer product of the two torsion diagonals
    np.testing.assert_allclose(kick_phases(KickedTopParams(10, 10, 0.0, 0.0, 0.0)), 1, atol=1e-15)
    # spin-1/2: m^2 = 1/4 on both levels, so pure global phase
    g = kick_phases(KickedTopParams(0.5, 0.5, 3.0, 0.0, 0.0))
    np.testing.assert_allclose(g, np.exp(-3j / 4), atol=1e-14)
    # j=10, k=6, m=10: exp(-i * 6/20 * 100)
    assert kick_phases(KickedTopParams(10, 10, 6.0, 0.0, 0.0))[20, 0] == pytest.approx(np.exp(-30j))


def test_coupling_examples():
    # with no torsion the kick phases are the coupling diagonal, rows m1 and columns m2
    g = kick_phases(KickedTopParams(10, 10, 0.0, 0.0, 1.0))
    # corner (m1, m2) = (j1, j2): exp(-i (1 / sqrt(100)) 100)
    assert g[20, 20] == pytest.approx(np.exp(-1j * np.sqrt(100.0)))
    np.testing.assert_allclose(g[10], 1, atol=1e-15)  # m1 = 0


def test_coupling_commutes_with_local_jz():
    c = diagonal_coupling(HALF, J10, 0.7)
    for local in (kron(jz(HALF), np.eye(21)), kron(np.eye(2), jz(J10))):
        np.testing.assert_allclose(c @ local, local @ c, atol=1e-12)


def test_coupling_additivity():
    lhs = diagonal_coupling(HALF, J10, 0.3) @ diagonal_coupling(HALF, J10, 0.9)
    np.testing.assert_allclose(lhs, diagonal_coupling(HALF, J10, 1.2), atol=1e-12)


def test_floquet_zero_coupling_is_product():
    p = KickedTopParams(2, 2, 3.0, 3.0, 0.0)
    s = p.top1
    u1 = dense_top(s, 3.0)
    np.testing.assert_allclose(floquet(p), kron(u1, u1), atol=1e-13)
    sv, sl = operator_entanglement(floquet(p), BipartitionDims(5, 5))
    assert sv == pytest.approx(0, abs=1e-10)
    assert sl == pytest.approx(0, abs=1e-10)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1.0])
@pytest.mark.parametrize("j1, j2", SPIN_PAIRS)
def test_floquet_builds_match_the_dense_factor_products(j1, j2, eps):
    p = KickedTopParams(j1, j2, 2.5, 5.0, eps)
    s1, s2 = p.top1, p.top2
    u = dense_coupling(s1, s2, eps) @ kron(dense_top(s1, 2.5), dense_top(s2, 5.0))
    np.testing.assert_allclose(floquet(p), u, rtol=0, atol=1e-14)
    (w1, l1), (w2, l2) = parity_basis(s1), parity_basis(s2)
    w = kron(w1, w2)
    half = np.kron(np.exp(-0.25j * np.pi * s1.m_values()), np.exp(-0.25j * np.pi * s2.m_values()))
    blocks, off, got_l1, got_l2 = parity_floquet(p)
    expected = half[:, None] * (w.conj().T @ u @ w) / half  # D^(1/2) W^dag U_T W D^(-1/2)
    expected_blocks, expected_off = parity_stack(expected, l1, l2)
    assert len(blocks) == len(expected_blocks) == 2
    for block, expected_block in zip(blocks, expected_blocks):
        np.testing.assert_allclose(block, expected_block, rtol=0, atol=1e-13)
    assert off <= 1e-13 and expected_off <= 1e-13
    assert max(np.abs(block - block.T).max() for block in blocks) <= 1e-14
    np.testing.assert_array_equal(got_l1, l1)
    np.testing.assert_array_equal(got_l2, l2)


def test_floquet_unitarity_and_norm():
    u = floquet(KickedTopParams(10, 10, 6.0, 6.0, 1.0))
    assert unitarity_residual(u) < 1e-12
    assert hs_inner(u, u).real == pytest.approx(441, rel=1e-12)


def kept(samples) -> list:
    """Each sample with its power copied as it is drawn: a yielded power lasts until the next draw."""
    return [s._replace(matrix=s.matrix.copy()) for s in samples]


def test_power_sequence_identity():
    samples = kept(power_sequence(np.eye(3), range(1, 11)))
    assert [s.n for s in samples] == list(range(1, 11))
    for s in samples:
        np.testing.assert_array_equal(s.matrix, np.eye(3))
        assert 0 <= s.residual <= DRIFT_TOL


def test_power_sequence_fourth_root_of_unity():
    u = 1j * np.eye(2)
    samples = {s.n: s.matrix for s in kept(power_sequence(u, range(1, 5)))}
    np.testing.assert_allclose(samples[4], np.eye(2), atol=1e-15)


def test_power_sequence_matches_repeated_matmul():
    u = floquet(KickedTopParams(3, 3, 2.0, 2.0, 0.5))
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


@pytest.mark.parametrize("j1, j2", [(0.5, 0.5), (0.5, 1.0), (1.5, 2.0), (10, 10)])
def test_floquet_commutes_with_its_parity(j1, j2):
    p = KickedTopParams(j1, j2, 6.0, 3.0, 1.0)
    r = kron(expi_hermitian(jy(p.top1), np.pi), expi_hermitian(jy(p.top2), np.pi))
    u = floquet(p)
    assert np.abs(u @ r - r @ u).max() < 1e-12


def test_kicked_spectra_reject_an_operator_that_breaks_parity(monkeypatch):
    for spins in ((1, 1.5), (1.5, 1.5)):  # parity blocks, then exchange sectors
        p = KickedTopParams(*spins, 6.0, 6.0, 1.0)
        g = kick_phases(p)
        m1, m2 = p.top1.m_values(), p.top2.m_values()
        odd = g * np.exp(-0.7j * np.add.outer(m1, m2))  # R maps exp(-i p (m1 + m2)) to exp(+i p (m1 + m2))
        for bad in (odd, np.full_like(g, np.nan)):
            monkeypatch.setattr(kickedtop, "kick_phases", lambda params: bad)
            with pytest.raises(RuntimeError, match="breaks the parity .* at U_T in the parity basis"):
                next(kickedtop.kicked_spectra(p, range(1, 3)))


def test_kicked_spectra_reject_identical_tops_that_break_their_exchange(monkeypatch):
    p = KickedTopParams(1.5, 1.5, 6.0, 6.0, 1.0)
    g = kick_phases(p)
    m = p.top1.m_values()
    uneven = g * np.exp(-0.7j * np.subtract.outer(m**2, m**2))  # top 1 kicked harder, parity kept
    monkeypatch.setattr(kickedtop, "kick_phases", lambda params: uneven)
    with pytest.raises(RuntimeError, match="breaks the exchange of two identical tops: residual "
                                           ".* at U_T in the parity basis"):
        next(kickedtop.kicked_spectra(p, range(1, 3)))


@pytest.mark.parametrize("spins, kicks, sectors", [((1.5, 1.5), (6.0, 6.0), True), ((0.5, 0.5), (3.0, 3.0), True),
                                                   ((1.5, 1.5), (6.0, 5.0), False), ((1.0, 1.5), (6.0, 6.0), False)])
def test_kicked_spectra_power_the_exchange_sectors_of_identical_tops_alone(monkeypatch, spins, kicks, sectors):
    sizes = []
    real = kickedtop.power_sequence

    def sizing(u, ns):
        sizes.append(len(u))
        return real(u, ns)

    monkeypatch.setattr(kickedtop, "power_sequence", sizing)
    p = KickedTopParams(*spins, *kicks, 1.0)
    assert [n for n, _ in kickedtop.kicked_spectra(p, range(2, 9, 3))] == [2, 5, 8]
    blocks, _, labels, _ = parity_floquet(p)
    expected = exchange_sectors([*blocks], labels)[0] if sectors else blocks
    assert sizes == [len(block) for block in expected]
    assert not sectors or 0 < sum(sizes) == sum(map(len, blocks)) and len(sizes) == 4


@pytest.mark.parametrize("spins, plans", [((1.5, 1.5), [(4, 4)]), ((1, 1.5), [(3, 4)])])
def test_kicked_spectra_build_one_flip_plan_per_call(monkeypatch, spins, plans):
    # identical tops gather by the plan of their exchange split, other spins by parity_gather's
    built, real = [], opent.blocks._flip_plan

    def counting(n, m):
        built.append((n, m))
        return real(n, m)

    monkeypatch.setattr(opent.blocks, "_flip_plan", counting)
    assert [n for n, _ in kickedtop.kicked_spectra(KickedTopParams(*spins, 6, 6, 1), range(2, 9, 3))] == [2, 5, 8]
    assert built == plans


def test_kicked_spectra_reject_an_operator_that_is_not_symmetric(monkeypatch):
    p = KickedTopParams(1, 1.5, 6.0, 6.0, 1.0)
    blocks, off, l1, l2 = parity_floquet(p)
    rng = np.random.default_rng(5)
    bad = (blocks[0], blocks[1] @ random_unitary(rng, len(blocks[1])))  # the second is not its transpose
    assert max(unitarity_residual(block) for block in bad) < 1e-13
    monkeypatch.setattr(kickedtop, "parity_floquet", lambda params: (bad, off, l1, l2))
    with pytest.raises(RuntimeError, match="transpose defect .* at U_T in the parity basis"):
        next(kickedtop.kicked_spectra(p, range(1, 3)))


def test_kicked_spectra_check_every_power_is_symmetric(monkeypatch):
    real = kickedtop.power_sequence

    def skewed(stack, ns):  # the power at n = 7 loses its symmetry, not its unitarity
        for s in real(stack, ns):
            kick = random_unitary(np.random.default_rng(6), stack.shape[-1])
            yield s._replace(matrix=s.matrix @ kick) if s.n == 7 else s

    monkeypatch.setattr(kickedtop, "power_sequence", skewed)
    for spins in ((1, 1.5), (1.5, 1.5)):  # parity blocks, then exchange sectors
        with pytest.raises(RuntimeError, match="transpose defect .* at power n=7"):
            list(kickedtop.kicked_spectra(KickedTopParams(*spins, 6.0, 6.0, 1.0), range(3, 12, 2)))


def test_kicked_spectra_check_unitarity_only_from_the_window_start(monkeypatch):
    checked = []

    def counting(u):
        checked.append(np.array(u))
        return unitarity_residual(u)

    monkeypatch.setattr(kickedtop, "unitarity_residual", counting)
    for p in (KickedTopParams(1, 1.5, 6.0, 3.0, 1.0), KickedTopParams(1.5, 1.5, 6.0, 6.0, 1.0)):
        blocks, _, labels, _ = parity_floquet(p)
        blocks = exchange_sectors([*blocks], labels)[0] if p.j1 == p.j2 else blocks  # identical tops
        for ns in (range(15, 28, 3), range(5, 30, 4)):  # the second starts off its step
            checked.clear()
            got = [n for n, _ in kickedtop.kicked_spectra(p, ns)]
            assert got == list(ns)
            # per block a Gram product for the step, the first and the last power, none in between;
            # the blocks' streams run in lockstep, so their first draws come before the last ones
            order = [(block, n) for block in range(len(blocks)) for n in (ns.step, ns.start)]
            order += [(block, ns[-1]) for block in range(len(blocks))]
            assert len(checked) == len(order)
            for gram, (block, n) in zip(checked, order):
                np.testing.assert_allclose(gram, np.linalg.matrix_power(blocks[block], n), rtol=0, atol=1e-12)


def test_checks_fail_when_only_the_last_layer_or_band_is_nan():
    # every maximum over layers and row bands goes through np.max; Python's max(0.0, nan) is 0.0
    p = KickedTopParams(1, 1.5, 6.0, 6.0, 1.0)
    blocks, _, l1, l2 = parity_floquet(p)
    assert len(row_bands(len(blocks[-1]))) > 1
    blocks[-1][-1, -1] = np.nan  # in the last band of the last block alone
    assert np.isnan(unitarity_residual(blocks[-1]))  # a nan reaches every Gram band
    with pytest.raises(RuntimeError, match="^unitarity residual nan exceeds 1e-08 at power n=1$"):
        list(power_sequence(blocks[-1], range(1, 2)))
    with pytest.raises(RuntimeError, match="transpose defect nan exceeds"):
        require(transpose_defect(blocks), "transpose defect", "the blocks")  # only the last band of the last is nan
    layer = blocks[0].copy()
    layer[:, -1] = np.nan  # every Gram band of this one matrix, the first of them included
    assert np.isnan(unitarity_residual(layer))
    b = random_parity_unitary(np.random.default_rng(3), l1, l2)
    x = realign(b @ b.T, BipartitionDims(p.top1.dim, p.top2.dim))
    assert band_stack(x, np.eye(x.shape[1]), l1, l2)[1] < 1e-15
    x[(np.outer(l1, l1) < 0).ravel()] = np.nan  # the rows of the last bands, row parity -1
    assert np.isnan(band_stack(x, np.eye(x.shape[1]), l1, l2)[1])


def test_kicked_spectra_stream_in_bounded_memory():
    # numpy's traced peak over a whole call, the build of U_T included, in stacks: the two
    # parity blocks' nbytes together. np.linalg.svd's LAPACK copy of the flip block it works on,
    # up to an eighth of a stack, is made by malloc and is not traced; it comes on top of each.
    # For two tops of other spins, on its step the stream holds each block's step and running
    # power, a flip block and a row band of temporaries: 2.39 stacks here, where the gather's
    # index vectors still weigh. A window that starts at a higher power of its step makes that
    # power while the step is held (2.52 stacks), and off its step each block's first power is
    # made while that block is held: 2.52 stacks on (2, 35, 8) and 3.02 on (12, 60, 8).
    # Identical tops power four exchange sectors, half a stack in all, and hold the two flip
    # blocks of one parity and the rebuilt rows of about a band of each: 1.57 stacks on
    # (5, 51, 5), 1.59 as a process's first call, and 1.55 on (40, 105, 8) at j = 7.5.
    cases = [((5, 7.5), ((range(8, 41, 8), 2.45), (range(5, 51, 5), 2.45), (range(200, 1001, 40), 2.6),
                         (range(2, 35, 8), 2.6), (range(12, 60, 8), 3.05))),
             ((7.5, 7.5), ((range(5, 51, 5), 1.75), (range(40, 105, 8), 2.0)))]
    for spins, windows in cases:
        p = KickedTopParams(*spins, 6.0, 6.0, 1.0)
        stack_bytes = sum(block.nbytes for block in parity_floquet(p)[0])
        for ns, bound in windows:
            tracemalloc.start()
            try:
                assert [n for n, _ in kickedtop.kicked_spectra(p, ns)] == list(ns)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * stack_bytes, (spins, ns, peak / stack_bytes)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_binary_power_equals_matrix_power_bit_for_bit(seed, dim):
    u = random_unitary(np.random.default_rng(seed), dim)
    before = u.copy()
    for n in range(1, 41):
        power = kickedtop._power([u], n)
        assert np.array_equal(power, np.linalg.matrix_power(u, n)), n
        assert not np.shares_memory(power, u), n  # a new array, which a product may write over
    np.testing.assert_array_equal(u, before)


@pytest.mark.parametrize("ns", [range(8, 41, 8), range(1, 12, 3), range(2, 35, 8), range(1, 5)])
def test_power_sequence_leaves_its_input_unchanged(ns):
    u = random_unitary(np.random.default_rng(9), 4)
    before = u.copy()
    assert [s.n for s in power_sequence(u, ns)] == list(ns)
    np.testing.assert_array_equal(u, before)


def test_a_kept_power_is_overwritten_by_the_next_draw():
    # the lifetime rule of power_sequence's samples, and why it is not a public name of opent:
    # on its step the first sample is the step itself, which no draw writes, and each later
    # sample is the running power, which the next draw overwrites
    u = floquet(KickedTopParams(1, 1, 2.0, 2.0, 0.5))
    samples = power_sequence(u, range(1, 4))
    first, second = next(samples).matrix, next(samples).matrix
    np.testing.assert_array_equal(second, np.linalg.matrix_power(u, 2))
    third = next(samples).matrix
    assert np.shares_memory(second, third) and not np.shares_memory(first, second)
    np.testing.assert_array_equal(second, np.linalg.matrix_power(u, 3))  # no longer u^2
    np.testing.assert_array_equal(first, u)  # still u itself
    assert "power_sequence" not in opent.__all__ and not hasattr(opent, "power_sequence")


@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 12), stride=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_power_sequence_products_equal_whole_products_bit_for_bit(seed, h, stride):
    # on its step the first power is S itself, the first product makes S S, and each later one
    # is written over the running power by row bands: each must equal numpy's whole product
    u = random_unitary(np.random.default_rng(seed), h)
    expected = step = np.linalg.matrix_power(u, stride)
    for s in power_sequence(u, range(stride, 7 * stride, stride)):
        assert np.array_equal(s.matrix, expected), s.n
        expected = expected @ step


@pytest.mark.parametrize("h", [1, 3, 8])
def test_a_measured_power_carries_the_grams_own_rounding(h):
    # the identity's Gram residual is exactly 0, so the yielded bound is the Gram's rounding alone
    u = 2.0**-53
    g = math.sqrt(2) * (h + 2) * u / (1 - (h + 2) * u)
    (sample,) = power_sequence(np.eye(h, dtype=complex), range(1, 2))
    assert sample.residual == (0 + g) / (1 - g) > 0


def test_power_sequence_drift_aborts():
    drifting = (1 + 1e-4) * np.eye(2)
    with pytest.raises(RuntimeError, match=r"^unitarity residual 2\.0\d\de-04 exceeds 1e-08 at power n=1$"):
        list(power_sequence(drifting, range(1, 3)))


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    stride=st.integers(1, 9),
    n_max=st.integers(1, 60),
    start=st.integers(1, 36),
)
@settings(max_examples=40, deadline=None)
def test_power_sequence_strides_match_matrix_powers(seed, dim, stride, n_max, start):
    u = random_unitary(np.random.default_rng(seed), dim)
    ns = range(start, n_max + 1, stride)
    samples = kept(power_sequence(u, ns))
    assert [s.n for s in samples] == list(ns)
    for s in samples:
        np.testing.assert_allclose(s.matrix, np.linalg.matrix_power(u, s.n), rtol=0, atol=1e-12)
        assert unitarity_residual(s.matrix) <= s.residual <= DRIFT_TOL


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


def test_power_sequence_measures_where_its_bound_runs_out(monkeypatch):
    # S^2 = I up to rounding, but S^dag S - I = diag(2 delta, -2 delta) to first order,
    # so the carried bound grows by about 4 delta per product while the powers stay put
    delta = 5e-11
    step = np.array([[0, 1 / (1 + delta)], [1 + delta, 0]], dtype=np.complex128)
    measured = []

    def counting(u):
        measured.append(unitarity_residual(u))
        return measured[-1]

    monkeypatch.setattr(kickedtop, "unitarity_residual", counting)
    samples = kept(power_sequence(step, range(1, 301)))
    assert [s.n for s in samples] == list(range(1, 301))
    # the step, at least one power mid-range where the bound ran out, and the last power
    assert 2 < len(measured) < 20
    assert measured[0] == pytest.approx(2 * delta, rel=1e-3)
    drops = [b.n for a, b in zip(samples, samples[1:]) if b.residual < a.residual]
    assert drops and drops[0] < 300
    for s in samples:
        assert unitarity_residual(s.matrix) <= s.residual <= DRIFT_TOL


def test_power_sequence_drift_aborts_at_the_first_strided_sample():
    for drifting in ((1 + 1e-4) * np.eye(2), np.full((2, 2), np.nan)):
        with pytest.raises(RuntimeError, match=r"^unitarity residual \S+ exceeds 1e-08 at power n=4$"):
            list(power_sequence(drifting, range(4, 13, 4)))


# one instance of each exception class that the package defines: none, since every abort is a RuntimeError
EXCEPTIONS = {}


def test_every_package_exception_survives_a_pickle_round_trip():
    defined = set()
    for info in pkgutil.iter_modules(opent.__path__):
        module = importlib.import_module(f"opent.{info.name}")
        defined |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    assert defined == set(EXCEPTIONS)
    for exc in EXCEPTIONS.values():
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc) and vars(back) == vars(exc)


# Per record of the package: two calls in the forms that the package and the tests use, which
# build the same record, and fields that the record rejects with its error line (None if it
# checks nothing), whether it is built from them or they replace its own.
DIMS, EDGES = BipartitionDims(1, 2), np.linspace(0.0, 1.0, 6)
RECORDS = [
    pytest.param(lambda: cli.SweepConfig(j1=1, j2=1.5, k_values=(1.0, 2.0), n_max=40),
                 lambda: cli.SweepConfig(1, 1.5, (1.0, 2.0), (1e-3, 1e-2, 1e-1, 1.0), 40, 5, Path("out")),
                 dict(n_max=2, sample_stride=5), "need n_max >= sample_stride >= 1",
                 id="SweepConfig"),
    pytest.param(lambda: cli.SpectrumConfig(j1=1, j2_values=(1.0,), saturation_window=(4, 40, 4), bins=6),
                 lambda: cli.SpectrumConfig(1, (1.0,), 6.0, 1.0, (4, 40, 4), 6, Path("out")),
                 dict(bins=3), "need at least 5 bins", id="SpectrumConfig"),
    pytest.param(lambda: KickedTopParams(1, 1.5, 6.0, 6.0, 1.0),
                 lambda: KickedTopParams(j1=1, j2=1.5, k1=6.0, k2=6.0, epsilon=1.0),
                 dict(j1=2, j2=1, k1=1, k2=1, epsilon=0.1), "j1 <= j2 required, got j1=2, j2=1",
                 id="KickedTopParams"),
    pytest.param(lambda: LaguerreLaw(21, 2.25), lambda: LaguerreLaw(n_small=21, q=2.25),
                 dict(n_small=21, q=0.5), "q >= 1 required (smaller subsystem first), got 0.5",
                 id="LaguerreLaw"),
    pytest.param(lambda: Histogram(EDGES, np.arange(5.0)),
                 lambda: Histogram(bin_edges=EDGES, heights=np.arange(5.0)), None, None, id="Histogram"),
    pytest.param(lambda: BipartitionDims(2, 3), lambda: BipartitionDims(n=2, m=3),
                 dict(n=3, m=2), "n <= m required, got n=3, m=2", id="BipartitionDims"),
    pytest.param(lambda: SchmidtSpectrum(np.array([2.0, 0.0]), DIMS),
                 lambda: SchmidtSpectrum(lambdas=np.array([2.0, 0.0]), dims=DIMS), None, None,
                 id="SchmidtSpectrum"),
    pytest.param(lambda: SpinSystem(3), lambda: SpinSystem.from_j(1.5),
                 dict(two_j=-1), "two_j must be a nonnegative integer, got -1", id="SpinSystem"),
    pytest.param(lambda: PureState(DIMS, [0.6, 0.8]),
                 lambda: PureState(dims=DIMS, amplitudes=np.array([[0.6], [0.8]])),
                 dict(dims=DIMS, amplitudes=[1.0, 1.0]), "state is not normalized", id="PureState"),
]


def equal_records(a, b) -> bool:
    """Same class and fields, arrays by value and dtype (`==` raises on a record that holds one)."""
    return type(a) is type(b) and a._fields == b._fields and all(
        type(x) is type(y) and (np.array_equal(x, y) and x.dtype == y.dtype if isinstance(x, np.ndarray) else x == y)
        for x, y in zip(a, b))


@pytest.mark.parametrize("build, same, reject, line", RECORDS)
def test_every_record_is_frozen_pickles_and_checks_its_input(build, same, reject, line):
    record = build()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    back = pickle.loads(pickle.dumps(record))
    assert equal_records(back, record) and equal_records(same(), record)
    if not any(isinstance(value, np.ndarray) for value in record):
        assert back == record == same() and hash(back) == hash(record)
    if reject is not None:
        for make in (type(record), record._replace):
            with pytest.raises(ValueError) as info:
                make(**reject)
            assert str(info.value) == line


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
