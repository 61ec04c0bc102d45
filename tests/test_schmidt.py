import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opent import (
    BipartitionDims,
    KickedTopParams,
    SchmidtSpectrum,
    SpinSystem,
    kickedtop,
    operator_entanglement,
    realign,
    reshape_vec,
    schmidt_spectrum,
    slin,
    svn,
)
from opent.blocks import band_stack, exchange_sectors, parity_gather
from opent.linalg import hs_inner, kron
from opent.spin import parity_basis, product_rotation
from conftest import (CNOT, copy_gather, exchange_basis, parity_stack, random_complex, random_exchange_unitary,
                      random_parity_unitary, random_unitary, rebuilt_parity_blocks, split_exchange, swap_operator)

D22 = BipartitionDims(2, 2)


def rank(spec):
    """The number of Schmidt coefficients above 1e-12 of the largest."""
    return int(np.count_nonzero(spec.lambdas > 1e-12 * spec.lambdas.max(initial=0)))


def test_bipartition_validation():
    with pytest.raises(ValueError):
        BipartitionDims(3, 2)
    with pytest.raises(ValueError):
        BipartitionDims(0, 2)
    assert BipartitionDims(2, 5).total == 10


def test_bipartition_dims_are_integers():
    # a float, even an integral one, would fail only in numpy's reshape, far from its cause
    for n, m in ((2.5, 3), (2.0, 3.0), (2, 3.0), (0.5, 1)):
        with pytest.raises(ValueError) as info:
            BipartitionDims(n, m)
        assert str(info.value) == f"dimensions must be integers, got n={n}, m={m}"
    for bad, line in (((0, 2), "dimensions must be positive"), ((3, 2), "n <= m required, got n=3, m=2")):
        with pytest.raises(ValueError) as info:
            BipartitionDims(*bad)
        assert str(info.value) == line
    d = BipartitionDims(np.int64(2), np.int32(3))
    assert d.total == 6 and realign(np.eye(6), d).shape == (4, 9)


def test_reshape_vec_golden_ordering():
    # row-after-row: [[a11, a12], [a21, a22]] -> (a11, a12, a21, a22)
    a = np.array([[1 + 1j, 2], [3, 4 - 1j]])
    np.testing.assert_array_equal(reshape_vec(a), [1 + 1j, 2, 3, 4 - 1j])


def test_reshape_vec_singleton():
    np.testing.assert_array_equal(reshape_vec(np.array([[7.0]])), [7.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_reshape_vec_preserves_hs_norm(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 3, 5)
    vec = reshape_vec(a)
    assert np.sum(np.abs(vec) ** 2) == pytest.approx(hs_inner(a, a).real, rel=1e-12)


def test_realign_identity_is_rank_one():
    x = realign(np.eye(4), D22)
    sigma = np.linalg.svd(x, compute_uv=False)
    np.testing.assert_allclose(sigma, [2, 0, 0, 0], atol=1e-14)


def test_realign_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        realign(np.eye(5), D22)


def test_realign_product_operator_rank_one(rng):
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 4, 4)
    x = realign(kron(a, b), BipartitionDims(3, 4))
    sigma = np.linalg.svd(x, compute_uv=False)
    expected = np.sqrt(hs_inner(a, a).real * hs_inner(b, b).real)
    assert sigma[0] == pytest.approx(expected, rel=1e-12)
    assert sigma[1] == pytest.approx(0, abs=1e-12)


def test_realign_involution_square_dims(rng):
    d = BipartitionDims(3, 3)
    u = random_complex(rng, 9, 9)
    np.testing.assert_array_equal(realign(realign(u, d), d), u)


def test_realign_preserves_hs_norm(rng):
    d = BipartitionDims(3, 5)
    u = random_complex(rng, 15, 15)
    x = realign(u, d)
    assert hs_inner(x, x).real == pytest.approx(hs_inner(u, u).real, rel=1e-10)


def test_spectrum_identity_large():
    d = BipartitionDims(21, 21)
    spec = schmidt_spectrum(np.eye(441), d)
    assert spec.lambdas[0] == pytest.approx(441, rel=1e-12)
    assert np.abs(spec.lambdas[1:]).max() < 1e-10
    assert rank(spec) == 1


def test_spectrum_swap_two_qubits():
    spec = schmidt_spectrum(swap_operator(2), D22)
    np.testing.assert_allclose(spec.lambdas, [1, 1, 1, 1], atol=1e-13)


def test_spectrum_cnot():
    spec = schmidt_spectrum(CNOT, D22)
    np.testing.assert_allclose(spec.normalized[:2], [0.5, 0.5], atol=1e-13)
    assert rank(spec) == 2


def test_spectrum_sums_to_total_dim(rng):
    d = BipartitionDims(3, 4)
    u = random_unitary(rng, 12)
    spec = schmidt_spectrum(u, d)
    assert spec.lambdas.size == 9
    assert np.sum(spec.lambdas) == pytest.approx(12, rel=1e-8)
    assert np.sum(spec.normalized) == pytest.approx(1, abs=1e-10)


def test_svn_rank_one():
    spec = SchmidtSpectrum(np.array([6.0, 0.0, 0.0]), BipartitionDims(2, 3))
    assert svn(spec) == pytest.approx(0, abs=1e-15)


def test_svn_uniform_spectrum_via_swap():
    n = 4
    spec = schmidt_spectrum(swap_operator(n), BipartitionDims(n, n))
    assert svn(spec) == pytest.approx(2 * np.log(n), abs=1e-10)


def test_slin_examples():
    d23 = BipartitionDims(2, 3)
    assert slin(SchmidtSpectrum(np.array([6.0, 0.0]), d23)) == pytest.approx(0)
    uniform = SchmidtSpectrum(np.full(4, 6.0 / 4), BipartitionDims(2, 3))
    assert slin(uniform) == pytest.approx(1 - 1 / 4)
    assert slin(schmidt_spectrum(CNOT, D22)) == pytest.approx(0.5, abs=1e-12)


def test_operator_entanglement_identity():
    sv, sl = operator_entanglement(np.eye(6), BipartitionDims(2, 3))
    assert sv == pytest.approx(0, abs=1e-10)
    assert sl == pytest.approx(0, abs=1e-10)


def test_operator_entanglement_swap_21():
    sv, sl = operator_entanglement(swap_operator(21), BipartitionDims(21, 21))
    assert sv == pytest.approx(np.log(441), abs=1e-9)
    assert sl == pytest.approx(1 - 1 / 441, abs=1e-10)


@pytest.mark.parametrize("trial", range(5))
def test_local_unitary_invariance(trial):
    rng = np.random.default_rng(1000 + trial)
    d = BipartitionDims(3, 4)
    u = random_unitary(rng, 12)
    v = kron(random_unitary(rng, 3), random_unitary(rng, 4))
    w = kron(random_unitary(rng, 3), random_unitary(rng, 4))
    base = schmidt_spectrum(u, d).lambdas
    rotated = schmidt_spectrum(v @ u @ w, d).lambdas
    np.testing.assert_allclose(rotated, base, atol=1e-8)


@pytest.mark.parametrize("trial", range(5))
def test_product_nullity(trial):
    rng = np.random.default_rng(2000 + trial)
    a = random_unitary(rng, 3)
    b = random_unitary(rng, 5)
    sv, _ = operator_entanglement(kron(a, b), BipartitionDims(3, 5))
    assert sv == pytest.approx(0, abs=1e-10)


def test_entropy_bounds(rng):
    d = BipartitionDims(4, 5)
    for _ in range(10):
        u = random_unitary(rng, 20)
        spec = schmidt_spectrum(u, d)
        assert -1e-12 <= svn(spec) <= np.log(16) + 1e-12
        assert -1e-12 <= slin(spec) <= 1 - 1 / 16 + 1e-12
        assert rank(spec) <= 16


SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _symmetric_parity_unitary(spins, seed):
    """b b^T for a random unitary b, block diagonal over the parity labels; its dims and labels.

    b b^T is unitary, symmetric and commutes with diag(l1) x diag(l2), as the
    kicked-top operator V of `kickedtop.parity_floquet` is.
    """
    s1, s2 = (SpinSystem.from_j(j) for j in spins)
    d = BipartitionDims(s1.dim, s2.dim)
    (_, l1), (_, l2) = parity_basis(s1), parity_basis(s2)
    b = random_parity_unitary(np.random.default_rng(seed), l1, l2)
    return b @ b.T, d, (l1, l2)


@given(
    spins=st.sampled_from([(a, b) for a in SPINS for b in SPINS if a <= b]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_parity_blocks_give_the_full_spectrum(spins, seed):
    u, d, labels = _symmetric_parity_unitary(spins, seed)
    blocks, off = parity_stack(u, *labels)
    assert off < 1e-12
    got = schmidt_spectrum(parity_gather(*labels)(blocks), d)
    assert got.lambdas.size == d.n**2
    assert np.all(np.diff(got.lambdas) <= 0)
    np.testing.assert_allclose(got.lambdas, schmidt_spectrum(u, d).lambdas, atol=1e-12)


@pytest.mark.parametrize("spins", [(a, b) for a in SPINS for b in SPINS if a <= b])
def test_band_stack_matches_the_dense_parity_blocks(spins):
    u, d, labels = _symmetric_parity_unitary(spins, 11)
    identity = np.eye(d.m**2)
    for v in (u, random_unitary(np.random.default_rng(13), d.total)):  # the second breaks parity
        blocks, off = band_stack(realign(v, d), identity, *labels)  # x @ I is x, bit for bit
        expected, expected_off = parity_stack(v, *labels)
        assert len(blocks) == len(expected) == 2
        for block, expected_block in zip(blocks, expected):
            np.testing.assert_array_equal(block, expected_block)
        assert off == expected_off
    q = random_unitary(np.random.default_rng(12), d.m**2)
    blocks, off = band_stack(realign(u, d) @ q, q.conj().T, *labels)
    for block, expected_block in zip(blocks, parity_stack(u, *labels)[0]):
        np.testing.assert_allclose(block, expected_block, rtol=0, atol=1e-13)
    assert off < 1e-13


def _flip_basis(labels, parity, sign):
    """Orthonormal columns over pairs (a, b): e_ab + sign e_ba, normalized, for a <= b
    (a < b when sign = -1) and labels[a] labels[b] = parity, in `parity_gather`'s order."""
    n = len(labels)
    columns = []
    for a in range(n):
        for b in range(a + (sign < 0), n):
            if labels[a] * labels[b] == parity:
                col = np.zeros(n * n)
                col[a * n + b] += 1
                col[b * n + a] += sign
                columns.append(col / np.linalg.norm(col))
    return np.array(columns).reshape(-1, n * n).T


@pytest.mark.parametrize("spins", [(a, b) for a in SPINS for b in SPINS if a <= b])
def test_parity_gather_equals_realigning_the_scattered_blocks(spins):
    u, d, (l1, l2) = _symmetric_parity_unitary(spins, 7)
    blocks, _ = parity_stack(u, l1, l2)
    r = np.outer(l1, l2).ravel() > 0
    scattered = np.zeros_like(u)
    for block, mask in zip(blocks, (r, ~r)):
        scattered[np.ix_(mask, mask)] = block
    x = realign(scattered, d)
    kinds = [(parity, sign) for parity in (1, -1) for sign in (1, -1)]
    rows = np.hstack([_flip_basis(l1, *kind) for kind in kinds])
    np.testing.assert_allclose(rows.T @ rows, np.eye(d.n**2), rtol=0, atol=1e-15)
    blocks = list(parity_gather(l1, l2)(blocks))  # in the order of `kinds`
    assert len(blocks) == len(kinds)
    for block, kind in zip(blocks, kinds):
        q1, q2 = _flip_basis(l1, *kind), _flip_basis(l2, *kind)
        np.testing.assert_allclose(block, q1.T @ x @ q2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("spins", [(a, b) for a in SPINS for b in SPINS if a <= b] + [(5.0, 7.5)])
def test_parity_gather_equals_the_copying_gather_bit_for_bit(spins):
    # the flip blocks come straight from the views of u's blocks, run by run, in place of
    # from a copied realigned parity block; every entry must keep its bits (odd D included)
    u, d, labels = _symmetric_parity_unitary(spins, 17)
    blocks, _ = parity_stack(u, *labels)
    got, expected = list(parity_gather(*labels)(blocks)), list(copy_gather(*labels)(blocks))
    assert len(got) == len(expected) == 4
    for block, expected_block in zip(got, expected):
        assert block.shape == expected_block.shape and np.array_equal(block, expected_block)


def _symmetric_exchange_unitary(j, seed):
    """b b^T for a random unitary b that commutes with the parity and the exchange of two spins j:
    the parity blocks of a unitary as `kickedtop.parity_floquet` builds it for identical tops."""
    labels = parity_basis(SpinSystem.from_j(j))[1]
    b = random_exchange_unitary(np.random.default_rng(seed), labels)
    return [block @ block.T for block in b], labels


@pytest.mark.parametrize("j", SPINS + (7.5,))
def test_exchange_sectors_rebuild_both_parity_blocks(j):
    blocks, labels = _symmetric_exchange_unitary(j, 19)
    sectors, defect, _ = exchange_sectors([*blocks], labels)
    assert defect < 1e-15 and len(sectors) == 4
    for block, (p, even), pair in zip(blocks, exchange_basis(labels), (sectors[:2], sectors[2:])):
        assert [len(sector) for sector in pair] == [even, len(p) - even]
        expected = p.T @ block @ p  # the sectors, on the diagonal
        np.testing.assert_allclose(pair[0], expected[:even, :even], rtol=0, atol=1e-15)
        np.testing.assert_allclose(pair[1], expected[even:, even:], rtol=0, atol=1e-15)
        rebuilt = p[:, :even] @ pair[0] @ p[:, :even].T + p[:, even:] @ pair[1] @ p[:, even:].T
        np.testing.assert_allclose(rebuilt, block, rtol=0, atol=1e-15)
        for sector in pair:
            np.testing.assert_allclose(sector, sector.T, rtol=0, atol=1e-15)
            np.testing.assert_allclose(sector.conj().T @ sector, np.eye(len(sector)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("j", SPINS + (7.5,))
def test_exchange_sectors_equal_the_entrywise_split_bit_for_bit(j):
    # blocks with no symmetry at all, so that no mix-up of rows, columns or pairs can hide
    labels = parity_basis(SpinSystem.from_j(j))[1]
    r, rng = np.outer(labels, labels) > 0, np.random.default_rng(37)
    blocks = [random_complex(rng, size, size) for size in (np.count_nonzero(r), np.count_nonzero(~r))]
    got, expected = exchange_sectors([*blocks], labels)[0], split_exchange(blocks, labels)
    assert len(got) == len(expected) == 4
    for sector, expected_sector in zip(got, expected):
        assert sector.shape == expected_sector.shape and np.array_equal(sector, expected_sector)


def test_exchange_sectors_measure_a_broken_exchange():
    blocks, labels = _symmetric_exchange_unitary(1.5, 23)
    r = np.outer(labels, labels) > 0
    a, c = np.nonzero(r)
    broken = [blocks[0] * np.exp(0.3j * (a - c))[:, None], blocks[1]]  # row (a, c) differs from (c, a)
    assert exchange_sectors(broken, labels)[1] > 0.1
    assert broken == []  # each block was taken out once split
    assert np.isnan(exchange_sectors([blocks[0], np.full_like(blocks[1], np.nan)], labels)[1])


@pytest.mark.parametrize("j", SPINS + (7.5,))
def test_sector_gather_equals_the_parity_gather(j):
    # the flip blocks from the four sectors, u's rows rebuilt one a at a time, against those from
    # u's two parity blocks; at j = 1/2 the exchange-odd sector of parity +1 is 0 x 0
    blocks, labels = _symmetric_exchange_unitary(j, 29)
    sectors, _, gather = exchange_sectors([*blocks], labels)
    assert j != 0.5 or sectors[1].shape == (0, 0)
    got, expected = list(gather(sectors)), list(parity_gather(labels, labels)(blocks))
    assert len(got) == len(expected) == 4
    for block, expected_block in zip(got, expected):
        assert block.shape == expected_block.shape
        np.testing.assert_allclose(block, expected_block, rtol=0, atol=1e-15)


@pytest.mark.parametrize("j", SPINS + (7.5,))
def test_sector_gather_equals_the_copying_gather_of_the_rebuilt_blocks_bit_for_bit(j):
    # the flip blocks of u's rows rebuilt from the sectors as needed, against those copied from both
    # whole parity blocks rebuilt with the same arithmetic per entry; the sectors are squared so that
    # they are not exactly symmetric, as a power is not
    blocks, labels = _symmetric_exchange_unitary(j, 31)
    sectors, _, gather = exchange_sectors([*blocks], labels)
    sectors = [sector @ sector for sector in sectors]
    got = list(gather(sectors))
    expected = list(copy_gather(labels, labels)(rebuilt_parity_blocks(sectors, labels)))
    assert len(got) == len(expected) == 4
    for block, expected_block in zip(got, expected):
        assert block.shape == expected_block.shape and np.array_equal(block, expected_block)


@pytest.mark.parametrize("l1, l2", [([1.0, 1.0, -1.0], [1.0, -1.0]), ([1.0, -1.0], [-1.0, 1.0, 1.0])])
def test_labels_that_do_not_alternate_are_refused(l1, l2):
    l1, l2 = np.array(l1), np.array(l2)
    with pytest.raises(ValueError, match="alternate"):
        parity_gather(l1, l2)
    with pytest.raises(ValueError, match="alternate"):
        band_stack(np.zeros((len(l1) ** 2, len(l2))), np.zeros((len(l2), len(l2) ** 2)), l1, l2)


def test_blocks_that_hold_other_than_n_squared_singular_values_raise():
    u, d, labels = _symmetric_parity_unitary((1.0, 1.5), 3)
    blocks, _ = parity_stack(u, *labels)
    with pytest.raises(ValueError, match="singular values"):
        schmidt_spectrum(itertools.islice(parity_gather(*labels)(blocks), 3), d)
    with pytest.raises(ValueError, match="singular values"):
        schmidt_spectrum(parity_gather(*labels)(blocks), BipartitionDims(2, 3))
    with pytest.raises(ValueError, match="do not match their labels"):  # the views would overrun
        next(parity_gather(*labels)((blocks[0], blocks[1][:-1, :-1])))


WEAK = [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.0, 1.5)]


def _mp_entropies(lt):
    """(S_V, S_L) of 40-digit normalized coefficients that sum to 1."""
    s_vn = -mpmath.fsum(x * mpmath.log(x) for x in lt if x > 0)
    return s_vn, 1 - mpmath.fsum(x**2 for x in lt)


@pytest.mark.parametrize("spins", WEAK + [(1.5, 2.0)])
def test_entropies_of_a_spectrum_match_a_40_digit_reference(spins):
    # weak coupling: lt_0 is about 1 - 1e-6, so 1 - sum lt^2 would cancel
    with mpmath.workdps(40):
        for n, spec in kickedtop.kicked_spectra(KickedTopParams(*spins, 6.0, 6.0, 1e-3), range(1, 11)):
            tail = [mpmath.mpf(float(x)) for x in spec.normalized[1:]]
            s_vn, s_lin = _mp_entropies([1 - mpmath.fsum(tail), *tail])
            assert 0 < s_lin < 1e-3
            assert abs(slin(spec) - s_lin) <= 1e-14 * s_lin, n
            assert abs(svn(spec) - s_vn) <= 1e-14 * s_vn, n


def _mp_floquet(j1, j2, k, eps):
    """U_T of the kicked tops at the working precision, in the product Jz basis."""
    def top(j):
        m = [mpmath.mpf(i) - j for i in range(round(2 * j) + 1)]
        y = mpmath.zeros(len(m))  # Jy
        for i in range(len(m) - 1):
            y[i + 1, i] = mpmath.sqrt(j * (j + 1) - m[i] * (m[i] + 1)) / 2j
            y[i, i + 1] = -y[i + 1, i]
        torsion = mpmath.diag([mpmath.exp(-1j * mpmath.mpf(k) / (2 * j) * x**2) for x in m])
        return torsion * mpmath.expm(-1j * mpmath.pi / 2 * y), m

    (u1, m1), (u2, m2) = top(j1), top(j2)
    n, m = len(m1), len(m2)
    u = mpmath.zeros(n * m)
    for a, b, c, e in np.ndindex(n, n, m, m):
        phase = mpmath.exp(-1j * eps / mpmath.sqrt(j1 * j2) * m1[a] * m2[c])
        u[a * m + c, b * m + e] = phase * u1[a, b] * u2[c, e]
    return u


@pytest.mark.parametrize("spins", WEAK)
def test_weak_coupling_entropies_match_a_40_digit_evolution(spins):
    # the float SVD bounds this at a few 1e-14; 1 - sum lt^2 misses by 1e-10 and more
    d = BipartitionDims(*(SpinSystem.from_j(j).dim for j in spins))
    order = realign(np.arange(d.total**2).reshape(d.total, d.total), d).real.astype(int)
    with mpmath.workdps(40):
        u = _mp_floquet(*spins, 6.0, 1e-3)
        power = mpmath.eye(d.total)
        for n, spec in kickedtop.kicked_spectra(KickedTopParams(*spins, 6.0, 6.0, 1e-3), range(1, 11)):
            power = power * u  # n runs 1, 2, 3, ...
            x = mpmath.matrix([[power[i // d.total, i % d.total] for i in row] for row in order])
            s_vn, s_lin = _mp_entropies([s**2 / d.total for s in mpmath.svd_c(x, compute_uv=False)])
            assert abs(slin(spec) - s_lin) <= 1e-13 * s_lin, n
            assert abs(svn(spec) - s_vn) <= 1e-13 * s_vn, n


@given(
    spins=st.sampled_from([(a, b) for a in SPINS for b in SPINS if a <= b]),
    seed=st.integers(0, 2**32 - 1),
    unimodular=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_diagonal_vector_gives_the_full_spectrum(spins, seed, unimodular):
    s1, s2 = (SpinSystem.from_j(j) for j in spins)
    d = BipartitionDims(s1.dim, s2.dim)
    rng = np.random.default_rng(seed)
    vec = random_complex(rng, 1, d.total)[0]
    if unimodular:
        vec /= np.abs(vec)
    got = schmidt_spectrum(vec, d)
    ref = schmidt_spectrum(np.diag(vec), d)
    np.testing.assert_array_equal(schmidt_spectrum(iter([realign(np.diag(vec), d)]), d).lambdas,
                                  ref.lambdas)  # the same SVD as the dense form
    assert got.lambdas.size == d.n**2
    np.testing.assert_array_equal(got.lambdas[d.n:], 0.0)
    np.testing.assert_allclose(got.lambdas, ref.lambdas, rtol=1e-12, atol=1e-12 * ref.lambdas[0])
    assert rank(got) <= d.n
    p = rng.uniform(-np.pi, np.pi)
    assert rank(schmidt_spectrum(np.diag(product_rotation(s1, s2, p)), d)) == 1


@pytest.mark.parametrize("length", [5, 7, 36])
def test_diagonal_vector_of_wrong_length_raises(length):
    with pytest.raises(ValueError, match="diagonal of length"):
        schmidt_spectrum(np.ones(length), BipartitionDims(2, 3))
