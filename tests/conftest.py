import itertools

import pytest

from opent.cli import default_to_one_blas_thread

default_to_one_blas_thread()  # as the CLI does, before numpy loads

import numpy as np  # noqa: E402

from opent.linalg import eigh, row_bands  # noqa: E402
from opent.blocks import _parity_layout  # noqa: E402

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(random_complex(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_parity_unitary(rng: np.random.Generator, l1, l2) -> np.ndarray:
    """Random unitary, block diagonal over the product parity diag(l1) x diag(l2) of +-1 labels."""
    r = np.outer(l1, l2).ravel() > 0
    u = np.zeros((r.size, r.size), dtype=np.complex128)
    for mask in (r, ~r):
        u[np.ix_(mask, mask)] = random_unitary(rng, np.count_nonzero(mask))
    return u


def parity_stack(u, l1, l2) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """The dense oracle for parity blocks: u's two parity blocks cut from the whole u.

    For a u that commutes with diag(l1) x diag(l2), let r = outer(l1, l2) > 0
    over u's rows. Returns the pair (u[r][:, r], u[~r][:, ~r]), each at its
    own size, and the largest |entry| of u off the two blocks.
    """
    r = np.outer(l1, l2).ravel() > 0
    blocks = tuple(u[np.ix_(mask, mask)] for mask in (r, ~r))
    return blocks, float(np.abs(u[r[:, None] != r]).max())


def copy_gather(l1, l2):
    """The reference for `blocks.parity_gather`: the same flip blocks, through whole parity blocks.

    For each parity it copies the realigned parity block x of u from its four strided views
    (`blocks._parity_layout`) and takes each flip block from x's rows and columns by index
    vectors over pairs, in row bands; so it holds a realigned parity block while it yields.
    """
    (_, view), n, m = _parity_layout(l1, l2), len(l1), len(l2)

    def position(size, a, b):  # x's row of (a, b) of `size` labels: by (a % 2, b % 2), a // 2, b // 2
        count = np.array([(size + 1) // 2, size // 2])
        return a % 2 * count[0] * count[1 - b % 2] + a // 2 * count[b % 2] + b // 2

    def pairs(labels, parity, strict):  # x's rows of (a, b) and of (b, a), and rho_ab, over the pairs
        a, b = np.triu_indices(len(labels), k=int(strict))  # a <= b (a < b if strict), l[a] l[b] = parity
        a, b = np.compress(labels[a] * labels[b] == parity, [a, b], axis=1)
        return position(len(labels), a, b), position(len(labels), b, a), np.where(a == b, np.sqrt(0.5), 1)

    flips = {1: [], -1: []}
    for parity, sign in itertools.product((1, -1), (1, -1)):
        (rows, _, rho1), (cols, flipped, rho2) = (pairs(labels, parity, sign < 0) for labels in (l1, l2))
        flips[parity].append((rows, cols, flipped, np.add if sign > 0 else np.subtract, (rho1, rho2)))

    def flip(x, rows, cols, flipped, combine, rho) -> np.ndarray:
        y = np.empty((len(rows), len(cols)), dtype=np.complex128)
        for band in row_bands(len(y)):
            part = x.take(rows[band], axis=0)
            combine(part.take(cols, axis=1), part.take(flipped, axis=1), out=y[band])
            y[band] *= np.outer(rho[0][band], rho[1])
        return y

    def gather(blocks):
        for parity in (1, -1):
            x = np.empty([np.count_nonzero(np.outer(lab, lab) == parity) for lab in (l1, l2)],
                         dtype=np.complex128)
            for a0, b0, c0, d0 in itertools.product((0, 1), repeat=4):
                if (a0 == b0) == (c0 == d0) == (parity > 0):
                    grid = view(blocks, a0, b0, c0, d0)
                    (na, nb, nc, nd), row, col = grid.shape, position(n, a0, b0), position(m, c0, d0)
                    x[row:row + na * nb, col:col + nc * nd].reshape(grid.shape)[...] = grid
            yield from (flip(x, *spec) for spec in flips[parity])
    return gather


def rebuilt_parity_blocks(sectors, labels) -> list[np.ndarray]:
    """The reference for the rows of `blocks.exchange_sectors`' gather: both whole parity blocks from the sectors.

    Per block, of rows (a, c) in order (`parity_stack`), entry (q, q') is
    (even[i, i'] (0.5 / rho_q)) (1 / rho_q') + (odd[j, j'] (s_q / 2)) s_q', computed in that order,
    where i and j are the pairs of q = (a, c) in the even (a <= c) and the odd (a < c) sector,
    rho_q is 1/sqrt(2) where a = c, else 1, and s_q = sign(c - a); an empty odd sector adds nothing.
    """
    r = np.outer(labels, labels) > 0
    blocks = []
    for (even, odd), mask in zip((sectors[:2], sectors[2:]), (r, ~r)):
        a, c = np.nonzero(mask)
        rows = [*zip(a.tolist(), c.tolist())]
        rank = [{row: i for i, row in enumerate(row for row in rows if row[0] + strict <= row[1])} for strict in (0, 1)]
        i, j = (np.array([ranks.get((min(row), max(row)), 0) for row in rows], int) for ranks in rank)
        rho, s = np.where(a == c, np.sqrt(0.5), 1), np.sign(c - a)
        block = even[np.ix_(i, i)] * (0.5 / rho)[:, None] * (1 / rho)
        blocks.append(block + odd[np.ix_(j, j)] * (s / 2)[:, None] * s if odd.size else block)
    return blocks


def split_exchange(blocks, labels) -> list[np.ndarray]:
    """The reference for `blocks.exchange_sectors`: [even, odd] of each parity block, entry by entry.

    Over a block's rows (a, c) in order (`parity_stack`), the even sector takes the pairs a <= c and
    the odd one a < c. For row pair q = (a, c) and column pair q' = (b, d) its entry is
    combine(B[q, q'], B[q, (d, b)]) (rho_q rho_q'), computed in that order, where combine adds in
    the even sector and subtracts in the odd one, and rho_q is 1/sqrt(2) where a = c, else 1.
    """
    r = np.outer(labels, labels) > 0
    sectors = []
    for block, mask in zip(blocks, (r, ~r)):
        position = {(a, c): q for q, (a, c) in enumerate(zip(*np.nonzero(mask)))}  # the block's rows
        for strict, combine in ((0, np.add), (1, np.subtract)):
            pairs = [(a, c) for a, c in position if a + strict <= c]
            rows = np.array([position[a, c] for a, c in pairs], int)
            swapped = np.array([position[c, a] for a, c in pairs], int)
            rho = np.array([np.sqrt(0.5) if a == c else 1.0 for a, c in pairs])
            sectors.append(combine(block[np.ix_(rows, rows)], block[np.ix_(rows, swapped)]) * (rho[:, None] * rho))
    return sectors


def exchange_basis(labels) -> list[tuple[np.ndarray, int]]:
    """The dense oracle for exchange sectors, built without `blocks`.

    Per parity block (`parity_stack`) of two copies of one space of these labels: an orthogonal
    matrix of the exchange-even vectors (e_ac + e_ca) / |.| (a <= c), then of the exchange-odd
    ones (e_ac - e_ca) / sqrt(2) (a < c), each in the block's row order; and the even count.
    """
    r = np.outer(labels, labels) > 0
    bases = []
    for mask in (r, ~r):
        rows = [*zip(*np.nonzero(mask))]  # the block's rows (a, c), in order
        position = {pair: q for q, pair in enumerate(rows)}
        columns = []
        for sign in (1, -1):
            for a, c in rows:
                if a < c or (a == c and sign > 0):
                    col = np.zeros(len(rows))
                    col[position[a, c]] += 1
                    col[position[c, a]] += sign
                    columns.append(col / np.linalg.norm(col))
        bases.append((np.array(columns).T, sum(a <= c for a, c in rows)))
    return bases


def random_exchange_unitary(rng: np.random.Generator, labels) -> tuple[np.ndarray, ...]:
    """Parity blocks of a random unitary on two copies of one space that commutes with the
    parity diag(labels) x diag(labels) and with the exchange: a random unitary per sector."""
    blocks = []
    for p, even in exchange_basis(labels):
        d = np.zeros((len(p), len(p)), dtype=np.complex128)
        d[:even, :even], d[even:, even:] = random_unitary(rng, even), random_unitary(rng, len(p) - even)
        blocks.append(p @ d @ p.T)
    return tuple(blocks)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = random_complex(rng, dim, dim)
    return (a + a.conj().T) / 2


def expi_hermitian(h, theta: float) -> np.ndarray:
    """exp(-i theta h) for Hermitian h from `linalg.eigh`: the dense oracle for rotations.

    It takes no path through `spin.parity_basis`, so the package's
    precession and parity builds can be checked against it.
    """
    w, v = eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def swap_operator(dim: int) -> np.ndarray:
    """SWAP on a dim x dim bipartite space: |a,c> -> |c,a>."""
    u = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for a in range(dim):
        for c in range(dim):
            u[a * dim + c, c * dim + a] = 1.0
    return u


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
