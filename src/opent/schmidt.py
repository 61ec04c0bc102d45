"""Operator Schmidt decomposition of bipartite operators.

A matrix is flattened row-by-row into a vector of the Hilbert-Schmidt
space. For an operator on a tensor-product space of dimensions n x m,
re-sorting that vector by (subsystem-1 indices, subsystem-2 indices) gives
the n^2 x m^2 coefficient matrix whose singular values squared are the
operator Schmidt coefficients. Entropies of the normalized coefficients
quantify the operator's entangling power.

An operator that commutes with a product parity diag(l1) x diag(l2) of
+-1 labels (such as the kicked-top parity, once each top is in its Jy
eigenbasis) has a realigned matrix that is block diagonal: row (a, b) and
column (c, d') meet only where l1[a] l1[b] = l2[c] l2[d']. Each entry
u[(a,c), (b,d')] of those two blocks lies inside one parity block of u
itself, and over a, b, c, d' each in one label class they form a strided
view of it. If u is also symmetric, u = u^T, then X[(a,b),(c,d')] =
X[(b,a),(d',c)], and each realigned parity block splits once more into a
flip-even block (pairs a <= b, c <= d') and a flip-odd block (a < b,
c < d'), each half its size. `band_stack` builds u's two parity blocks,
each a matrix of its own size, from a factored realigned matrix, in row
bands, through those views; `parity_gather` copies the four flip blocks out
through them, in row bands too, and `schmidt_spectrum` takes their singular
values, a sixteenth of the work of one SVD, never forming the full operator.
Local unitaries may first move an operator into such a basis. On two copies
of one space, `exchange` splits the parity blocks once more.

A diagonal operator U = diag(phi) may be passed as the vector phi of its
n*m diagonal entries. Its realigned matrix X[(a,b),(c,d')] =
delta_ab delta_cd' phi[a,c] is zero outside one n x m block, phi reshaped,
so the coefficients are the squared singular values of that block followed
by n^2 - n exact zeros.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .linalg import ROW_BANDS, as_matrix, row_bands, singular_values

# Coefficients below this fraction of the largest one count as zero for
# rank reporting; they are kept in entropy sums.
RANK_CUTOFF = 1e-12

# Abort threshold for the sum-rule defect |sum(lambda) / (n m) - 1| of a unitary.
SUM_RULE_TOL = 1e-8


@dataclass(frozen=True)
class BipartitionDims:
    """Subsystem dimensions n <= m of a bipartite space."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("dimensions must be positive")
        if self.n > self.m:
            raise ValueError(f"n <= m required, got n={self.n}, m={self.m}")

    @property
    def total(self) -> int:
        return self.n * self.m


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Operator Schmidt coefficients, descending; sums to n*m for a unitary."""

    lambdas: np.ndarray
    dims: BipartitionDims

    @property
    def normalized(self) -> np.ndarray:
        """Coefficients scaled to sum to 1 for a unitary operator."""
        return self.lambdas / self.dims.total

    @property
    def rank(self) -> int:
        return int(np.sum(self.lambdas > RANK_CUTOFF * self.lambdas.max(initial=0)))

    def check_sum_rule(self, where: str) -> None:
        """Fail unless sum(lambda) = n m, as for a unitary, to SUM_RULE_TOL (nan fails)."""
        defect = abs(self.lambdas.sum() / self.dims.total - 1)
        if not defect <= SUM_RULE_TOL:
            raise RuntimeError(f"sum-rule defect {defect:.3e} exceeds {SUM_RULE_TOL:g} at {where}")


def reshape_vec(a) -> np.ndarray:
    """Flatten a matrix row after row into a vector."""
    return as_matrix(a).ravel().copy()


def realign(u, d: BipartitionDims) -> np.ndarray:
    """Coefficient matrix of a bipartite operator in the elementary operator basis.

    Maps U[(a,c), (b,d')] (subsystem-1 indices a, b; subsystem-2 indices
    c, d') to X[(a,b), (c,d')]; a pure index permutation preserving the
    Hilbert-Schmidt norm.
    """
    u = as_matrix(u)
    if u.shape != (d.total, d.total):
        raise ValueError(f"operator shape {u.shape} does not match dims ({d.total}, {d.total})")
    n, m = d.n, d.m
    return u.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)


def _parity_layout(l1, l2):
    """(sizes, view) of the two parity blocks of a u that commutes with diag(l1) x diag(l2).

    With r = outer(l1, l2) > 0 over u's rows, block 0 is u[r][:, r] and block 1 u[~r][:, ~r], of
    `sizes` = (|r|, |~r|) rows. The labels alternate (l[a] l[b] = 1 iff a = b mod 2), so two
    consecutive a hold M rows of each block, a slab: the rows (a, c), a in a0::2, c in c0::2, lie at
    a0 ((M + c0) // 2) + M (a // 2) + c // 2 of one block. view(blocks, a0, b0, c0, d0) is the
    (a // 2, b // 2, c // 2, d // 2) strided view of x[(a, b), (c, d)] = u[(a, c), (b, d)] in the
    block that holds it, for l1[a0] l1[b0] = l2[c0] l2[d0]. With `slab`, `blocks` hold only the M
    rows of one slab, each at full width, and the view's a // 2 axis holds that slab's a alone.
    """
    if any(np.any(labels[1:] != -labels[:-1]) for labels in (l1, l2)):  # the views assume it
        raise ValueError("parity labels must alternate in sign")
    r = np.outer(l1, l2) > 0
    (n, m), sizes = r.shape, (np.count_nonzero(r), np.count_nonzero(~r))

    def view(blocks, a0, b0, c0, d0, slab=False):
        rows = (m, m) if slab else sizes
        if (shapes := [np.shape(block) for block in blocks]) != [*zip(rows, sizes)]:
            raise ValueError(f"blocks of shapes {shapes} do not match their labels' sizes {sizes}")
        block, h = blocks[int(not r[a0, c0])], sizes[int(not r[a0, c0])]
        shape = [(k - k0 + 1) // 2 for k, k0 in zip((n, n, m, m), (a0, b0, c0, d0))]
        if slab:
            shape[0] = 1
        corner, item = a0 * (m + c0) // 2 * h + b0 * (m + d0) // 2, block.itemsize  # numpy refuses a block not in C order
        return np.ndarray(shape, block.dtype, block, item * corner, [item * m * h, item * m, item * h, item])
    return sizes, view


def band_stack(left, right, l1, l2) -> tuple[list[np.ndarray], float]:
    """The two parity blocks (`_parity_layout`) of u from x = left @ right, and max |u| off them.

    x[(a, b), (c, d)] = u[(a, c), (b, d)] is u realigned. Its rows go in bands, each of one label
    class of a and an eighth of it (`row_bands`) with every b, as left[rows] @ right, so neither
    x nor u is formed whole: the band's pieces of one parity go into their views of the blocks,
    the others only into a band maximum; np.max keeps a nan.
    """
    sizes, view = _parity_layout(l1, l2)
    (n, m), off = (len(l1), len(l2)), []
    blocks = [np.empty((size, size), complex) for size in sizes]  # views fill them
    left = np.reshape(left, (n, n, -1))
    for a0 in (0, 1):
        for rows in row_bands(len(left[a0::2])):  # each band has at least n >= 2 rows: a gemm
            band = (left[a0::2][rows].reshape(-1, left.shape[-1]) @ right).reshape(-1, n, m, m)
            for b0, c0, d0 in itertools.product((0, 1), repeat=3):
                piece = band[:, b0::2, c0::2, d0::2]
                if (a0 == b0) == (c0 == d0):
                    view(blocks, a0, b0, c0, d0)[rows] = piece
                else:
                    off.append(np.abs(piece).max())
    return blocks, float(np.max(off))


def _flip_plan(n, m, band_key):
    """The four flip blocks' row runs, grouped into bands by band_key(rows)(run), and their columns.

    A run (r, a0, a // 2, b // 2, count) is the flip block's rows r, r + 1, ..., r + count - 1, the
    pairs (a, b), (a, b + 2), ... of one a. Per parity (1 first), the flip-even then the flip-odd
    block: (bands, cols, flipped, combine, rho1, rho2), each band (lo, hi, runs).
    """
    def pairs(size, offset):  # (a, b), b = a + offset, a + offset + 2, ... below size, by a, then b
        return np.array([(a, b) for a in range(size) for b in range(a + offset, size, 2)], int).reshape(-1, 2).T

    h, flips = (m + 1) // 2, [[], []]  # parity 1 (a + b even): a <= b, then a < b; parity -1: a < b twice
    for odd, offset, combine in (0, 0, np.add), (0, 2, np.subtract), (1, 1, np.add), (1, 1, np.subtract):
        (a, b), (c, d) = pairs(n, offset), pairs(m, offset)
        starts = [*np.flatnonzero(b == a + offset).tolist(), len(a)]  # where each a's rows start
        runs = [(r, a[r] % 2, a[r] // 2, b[r] // 2, end - r) for r, end in zip(starts, starts[1:])]
        bands = ([*band] for _, band in itertools.groupby(runs, band_key(len(a))))
        flips[odd].append(([(band[0][0], band[-1][0] + band[-1][-1], band) for band in bands],
                           (c % 2 * h + c // 2) * h + d // 2, (d % 2 * h + d // 2) * h + c // 2, combine,
                           np.where(a == b, np.sqrt(0.5), 1)[:, None], np.where(c == d, np.sqrt(0.5), 1)))
    return flips


def _flip_buffers(specs, m):
    """A new flip block per spec, and one `part` for all: x's rows of a band, by (c % 2, c // 2, d // 2)."""
    h, rows = (m + 1) // 2, max([hi - lo for bands, *_ in specs for lo, hi, _ in bands], default=0)
    return [np.empty((len(rho1), len(cols)), complex) for _, cols, _, _, rho1, _ in specs], np.empty((rows, 2, h, h), complex)


def _fill_band(y, part, grids, lo, hi, runs, cols, flipped, combine, rho1, rho2, slab=0):
    """Rows lo:hi of flip block y: x's rows of the runs, copied run by run from the grids into
    `part` (a // 2 less `slab`, for grids of one slab), then y's columns taken from them."""
    for r, a0, i, k, count in runs:  # x's rows (a, b), (a, b + 2), ..., a class of (c, d) at a time
        for c0, grid in enumerate(grids[a0]):
            part[r - lo:r - lo + count, c0, :grid.shape[2], :grid.shape[3]] = grid[i - slab, k:k + count]
    x, band = part[:hi - lo].reshape(hi - lo, -1), y[lo:hi]
    x.take(cols, axis=1, out=band, mode="clip")  # clip: no buffered copy of `out`
    combine(band, x.take(flipped, axis=1), out=band)
    band *= rho1[lo:hi] * rho2


def parity_gather(l1, l2) -> Callable[[Sequence[np.ndarray]], Iterator[np.ndarray]]:
    """The four realigned flip blocks of a symmetric operator, as a function of its parity blocks.

    If u = u^T, then x[ab, cd] = x[ba, dc]: swapping both pairs keeps each realigned parity block,
    which splits into a flip-even block on the orthonormal vectors rho_ab (e_ab + e_ba) (a <= b,
    rho = 1/sqrt(2) where a = b, else 1), with entries (x[ab, cd] + x[ab, dc]) rho_ab rho_cd, and
    a flip-odd block on (e_ab - e_ba) / sqrt(2) (a < b), with entries x[ab, cd] - x[ab, dc]. The
    generator takes the pair of u's parity blocks (`band_stack`) and yields the flip blocks in this
    order, parity 1 first, each a new array. No realigned parity block is made: a flip block goes
    in row bands of whole runs (a, b), (a, b + 2), ... of one a, and each band copies its rows of x
    run by run from the strided views of u's blocks (`_parity_layout`), then takes its columns.
    It keeps no block it yielded.
    """
    (_, view), m = _parity_layout(l1, l2), len(l2)
    flips = _flip_plan(len(l1), m, lambda rows: lambda run: run[0] * ROW_BANDS // rows)

    def flip(grids, spec):
        (y,), part = _flip_buffers([spec], m)
        for band in spec[0]:
            _fill_band(y, part, grids, *band, *spec[1:])
        return y

    def gather(blocks):
        for odd in (0, 1):
            grids = [[view(blocks, a0, a0 ^ odd, c0, c0 ^ odd) for c0 in (0, 1)] for a0 in (0, 1)]
            yield from (flip(grids, spec) for spec in flips[odd])
    return gather


def schmidt_spectrum(u, d: BipartitionDims) -> SchmidtSpectrum:
    """Squared singular values of the realigned operator, descending.

    `u` is a matrix; the 1-d vector of the diagonal of a diagonal operator,
    which takes one SVD of its n x m reshape; or an iterator over blocks
    whose singular values together are those of the realigned operator,
    n^2 in all, such as the four flip blocks that
    `parity_gather(l1, l2)(blocks)` yields for a symmetric operator that
    commutes with diag(l1) x diag(l2). Only the in-parity, flip-symmetric
    part of such an operator is read, so checking both symmetries is left
    to the caller (`band_stack` returns the off-block residual).
    """
    if np.ndim(u) == 1:
        if len(u) != d.total:
            raise ValueError(f"diagonal of length {len(u)} does not match dims {d.total}")
        sigma = [singular_values(np.reshape(u, (d.n, d.m))), np.zeros(d.n * d.n - d.n)]
    else:  # an iterator of blocks, or a matrix as one realigned block; map keeps no block
        sigma = [*map(singular_values, u if isinstance(u, Iterator) else [realign(u, d)])]
    if (count := sum(map(len, sigma))) != d.n * d.n:
        raise ValueError(f"blocks hold {count} singular values, where {d.n} x {d.m} needs {d.n**2}")
    return SchmidtSpectrum(lambdas=np.sort(np.concatenate(sigma))[::-1] ** 2, dims=d)


def svn(spec: SchmidtSpectrum) -> float:
    """Von Neumann entropy -sum lt ln lt of the normalized coefficients.

    Taken from the tail tau = sum_{i>=1} lt_i, with lt_0 = 1 - tau as the
    sum rule makes it for a unitary:
    -(1 - tau) log1p(-tau) - sum_{i>=1} lt_i ln lt_i. Near a product
    operator, where lt_0 is close to 1, this keeps the digits that
    lt_0 ln lt_0 would lose. Clamped at 0, which rounding undershoots for
    product operators.
    """
    tail = spec.normalized[1:]
    tau = tail.sum()
    tail = tail[tail > 0]
    return max(0.0, float(-(1 - tau) * np.log1p(-tau) - np.sum(tail * np.log(tail))))


def slin(spec: SchmidtSpectrum) -> float:
    """Linear entropy 1 - sum lt^2 of the normalized coefficients, clamped at 0.

    Taken from the tail as tau (2 - tau) - sum_{i>=1} lt_i^2, with
    tau = sum_{i>=1} lt_i and lt_0 = 1 - tau as for `svn`, so that nothing
    cancels when lt_0 is close to 1.
    """
    tail = spec.normalized[1:]
    tau = tail.sum()
    return max(0.0, float(tau * (2 - tau) - np.sum(tail**2)))


def operator_entanglement(u, d: BipartitionDims) -> tuple[float, float]:
    """(von Neumann, linear) operator entanglement entropies of u (a matrix or a diagonal)."""
    spec = schmidt_spectrum(u, d)
    return svn(spec), slin(spec)
