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
itself, so the realigned blocks are a fixed index map of u's two parity
blocks. `parity_stack` cuts those blocks into a padded (2, h, h) stack and
`parity_gather` builds the map once; `schmidt_spectrum` then takes each
realigned block from the stack with one `np.take` and its singular values,
about a quarter of the work of one SVD, and never forms or realigns the
full operator. Local unitaries leave the spectrum unchanged, so an
operator may be moved into such a basis first.

A diagonal operator U = diag(phi) may be passed as the vector phi of its
n*m diagonal entries. Its realigned matrix X[(a,b),(c,d')] =
delta_ab delta_cd' phi[a,c] is zero outside one n x m block, phi reshaped,
so the coefficients are the squared singular values of that block followed
by n^2 - n exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, singular_values

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
        if self.lambdas.size == 0:
            return 0
        return int(np.sum(self.lambdas > RANK_CUTOFF * self.lambdas[0]))

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


def _parity_layout(l1, l2) -> tuple[np.ndarray, int]:
    """Mask r = outer(l1, l2) > 0 over u's rows, and the layer size h of the stack."""
    r = np.outer(l1, l2).ravel() > 0
    return r, max(np.count_nonzero(r), np.count_nonzero(~r))


def parity_stack(u, l1, l2) -> tuple[np.ndarray, float]:
    """The padded stack of u's two parity blocks, and the largest |entry| off them.

    For a u that commutes with diag(l1) x diag(l2), let r = outer(l1, l2) > 0
    over u's rows. The stack has shape (2, h, h) with h = max(|r|, |~r|):
    layer 0 holds u[r][:, r] and layer 1 holds u[~r][:, ~r], each in its
    top-left corner, and the smaller one is padded by a 1 on the diagonal,
    so a stack of unitaries stays unitary.
    """
    u = as_matrix(u)
    r, h = _parity_layout(l1, l2)
    stack = np.broadcast_to(np.eye(h, dtype=np.complex128), (2, h, h)).copy()
    for layer, mask in zip(stack, (r, ~r)):
        size = np.count_nonzero(mask)
        layer[:size, :size] = u[np.ix_(mask, mask)]
    return stack, float(np.abs(u[r[:, None] != r]).max())


def parity_gather(l1, l2) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the two realigned parity blocks in a `parity_stack`.

    Row (a, b) and column (c, d') of the realigned matrix meet in the first
    block where l1[a] l1[b] = l2[c] l2[d'] = 1 and in the second where both
    are -1. Their entry u[(a,c), (b,d')] then has row and column on the
    same side of r, so it lies in one layer of the stack, and
    `np.take(stack, idx)` gives each block in `realign`'s order. The
    stack's padding is never read.
    """
    n, m = len(l1), len(l2)
    r, h = _parity_layout(l1, l2)
    layer = np.where(r, 0, h * h)
    place = np.where(r, np.cumsum(r), np.cumsum(~r)) - 1  # row or column within the layer
    rows, cols = np.outer(l1, l1).ravel() > 0, np.outer(l2, l2).ravel() > 0
    blocks = []
    for block_rows, block_cols in ((rows, cols), (~rows, ~cols)):
        a, b = np.divmod(np.flatnonzero(block_rows), n)
        c, d = np.divmod(np.flatnonzero(block_cols), m)
        p, q = a[:, None] * m + c, b[:, None] * m + d  # u's row (a, c) and column (b, d')
        blocks.append(layer[p] + place[p] * h + place[q])
    return tuple(blocks)


def schmidt_spectrum(u, d: BipartitionDims, gather=None) -> SchmidtSpectrum:
    """Squared singular values of the realigned operator, descending.

    `u` is a matrix; the 1-d vector of the diagonal of a diagonal operator,
    which takes one SVD of its n x m reshape; or the `parity_stack` of an
    operator that commutes with diag(l1) x diag(l2), with
    `gather = parity_gather(l1, l2)`, which takes the SVDs of the two
    realigned blocks. Only a stack reads `gather`. A stack holds nothing off
    the parity blocks, so checking the symmetry is left to the caller
    (`parity_stack` returns the off-block residual).
    """
    if np.ndim(u) == 1:
        if len(u) != d.total:
            raise ValueError(f"diagonal of length {len(u)} does not match dims {d.total}")
        sigma = singular_values(np.reshape(u, (d.n, d.m)))
        sigma = np.concatenate([sigma, np.zeros(d.n * d.n - d.n)])
        return SchmidtSpectrum(lambdas=sigma**2, dims=d)
    if np.ndim(u) == 3:
        if gather is None or sum(len(idx) for idx in gather) != d.n * d.n:
            raise ValueError(f"a stack of parity blocks needs the gather of its {d.n} x {d.m} labels")
        sigma = np.sort(np.concatenate([singular_values(np.take(u, idx)) for idx in gather]))[::-1]
    else:
        sigma = singular_values(realign(u, d))
    return SchmidtSpectrum(lambdas=sigma[: d.n * d.n] ** 2, dims=d)


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
