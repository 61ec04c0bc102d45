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
blocks. If u is also symmetric, u = u^T, then X[(a,b),(c,d')] =
X[(b,a),(d',c)], and each realigned parity block splits once more into a
flip-even block (pairs a <= b, c <= d') and a flip-odd block (a < b,
c < d'), each half its size. `band_stack` builds u's blocks into a padded
(2, h, h) stack from a factored realigned matrix, one row band at a time,
and `parity_gather` maps the four flip blocks once; `schmidt_spectrum` takes
each from the stack with one `np.take` of two indices per entry and its
singular values, a sixteenth of the work of one SVD, never forming the full
operator. Local unitaries may first move an operator into such a basis.

A diagonal operator U = diag(phi) may be passed as the vector phi of its
n*m diagonal entries. Its realigned matrix X[(a,b),(c,d')] =
delta_ab delta_cd' phi[a,c] is zero outside one n x m block, phi reshaped,
so the coefficients are the squared singular values of that block followed
by n^2 - n exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _parity_layout(l1, l2):
    """(flat, h) of the padded (2, h, h) parity stack of a u that commutes with diag(l1) x diag(l2).

    With r = outer(l1, l2) > 0 over u's rows, layer 0 holds u[r][:, r] and layer 1 u[~r][:, ~r],
    each top-left; the smaller is padded by 1s on the diagonal, so a stack of unitaries stays
    unitary. flat(a, b, c, d) is the stack index of u[(a, c), (b, d)], l1[a] l1[b] = l2[c] l2[d].
    """
    r = np.outer(l1, l2) > 0
    h = max(np.count_nonzero(r), np.count_nonzero(~r))
    place = np.where(r, np.cumsum(r).reshape(r.shape), np.cumsum(~r).reshape(r.shape)) - 1
    start = np.where(r, 0, h * h) + place * h  # stack index of row (a, c)'s first entry
    return (lambda a, b, c, d: start[a[:, None], c] + place[b[:, None], d]), h


def band_stack(left, right, l1, l2) -> tuple[np.ndarray, float]:
    """The parity stack (`_parity_layout`) of u from x = left @ right, and max |u| off its blocks.

    x[(a, b), (c, d)] = u[(a, c), (b, d)] is u realigned. Each row parity l1[a] l1[b] takes one
    row band left[rows] @ right, so neither x nor u is formed whole: the columns with l2[c] l2[d]
    of that parity go into the stack, the others only into a band maximum; np.max keeps a nan.
    """
    flat, h = _parity_layout(l1, l2)
    stack, off = np.broadcast_to(np.eye(h, dtype=np.complex128), (2, h, h)).copy(), []
    for parity in (1, -1):
        (a, b), (c, d) = (np.nonzero(np.outer(labels, labels) == parity) for labels in (l1, l2))
        inside, index = (np.outer(l2, l2) == parity).ravel(), flat(a, b, c, d)
        band = left[a * len(l1) + b] @ right
        np.put(stack, index, band[:, inside])
        off.append(np.abs(band[:, ~inside]).max())
        del index, band  # so that two bands never coexist
    return stack, float(np.max(off))


class FlipBlock(NamedTuple):
    """One realigned block, scale * (np.take(stack, idx[0]) + sign * np.take(stack, idx[1]))."""

    idx: np.ndarray  # (2, rows, columns) flat stack indices of x[ab, cd] and x[ab, dc]
    sign: float  # +1 flip-even, -1 flip-odd
    scale: np.ndarray | float  # rho_ab rho_cd for flip-even, 1 for flip-odd


def parity_gather(l1, l2) -> tuple[FlipBlock, ...]:
    """The four realigned blocks of a symmetric operator's parity stack (`_parity_layout`).

    Row (a, b) and column (c, d') of the realigned matrix x meet in the
    first parity block where l1[a] l1[b] = l2[c] l2[d'] = 1 and in the
    second where both are -1. Their entry u[(a,c), (b,d')] then has row and
    column on the same side of r, so it lies in one layer of the stack. If
    u = u^T, then x[ab, cd] = x[ba, dc], so swapping both pairs is a
    symmetry of x that keeps each parity block, and each splits into a
    flip-even block on the orthonormal vectors rho_ab (e_ab + e_ba) (a <= b,
    rho = 1/sqrt(2) where a = b, else 1), with entries
    (x[ab, cd] + x[ab, dc]) rho_ab rho_cd, and a flip-odd block on
    (e_ab - e_ba) / sqrt(2) (a < b), with entries x[ab, cd] - x[ab, dc].
    The stack's padding is never read.
    """
    flat, _ = _parity_layout(l1, l2)

    def pairs(labels, parity, strict):  # (a, b), a <= b (a < b if strict), l[a] l[b] = parity
        a, b = np.triu_indices(len(labels), k=int(strict))
        keep = labels[a] * labels[b] == parity
        return a[keep], b[keep]

    blocks = []
    for parity in (1, -1):
        for sign in (1.0, -1.0):
            (a, b), (c, d) = pairs(l1, parity, sign < 0), pairs(l2, parity, sign < 0)
            scale = np.outer(np.where(a == b, np.sqrt(0.5), 1), np.where(c == d, np.sqrt(0.5), 1))
            blocks.append(FlipBlock(np.stack([flat(a, b, c, d), flat(a, b, d, c)]), sign,
                                    scale if sign > 0 else 1.0))
    return tuple(blocks)


def schmidt_spectrum(u, d: BipartitionDims, gather=None) -> SchmidtSpectrum:
    """Squared singular values of the realigned operator, descending.

    `u` is a matrix; the 1-d vector of the diagonal of a diagonal operator,
    which takes one SVD of its n x m reshape; or the parity stack of a
    symmetric operator that commutes with diag(l1) x diag(l2), with
    `gather = parity_gather(l1, l2)`, which takes the SVDs of the four
    realigned flip blocks. Only a stack reads `gather`. A stack holds
    nothing off the parity blocks and only the flip-symmetric part of the
    realigned blocks is read, so checking both symmetries is left to the
    caller (`band_stack` returns the off-block residual).
    """
    if np.ndim(u) == 1:
        if len(u) != d.total:
            raise ValueError(f"diagonal of length {len(u)} does not match dims {d.total}")
        sigma = singular_values(np.reshape(u, (d.n, d.m)))
        sigma = np.concatenate([sigma, np.zeros(d.n * d.n - d.n)])
        return SchmidtSpectrum(lambdas=sigma**2, dims=d)
    if np.ndim(u) == 3:
        if gather is None or sum(block.idx.shape[1] for block in gather) != d.n * d.n:
            raise ValueError(f"a stack of parity blocks needs the gather of its {d.n} x {d.m} labels")
        sigma = np.sort(np.concatenate([singular_values(flip_block(u, block)) for block in gather]))[::-1]
    else:
        sigma = singular_values(realign(u, d))
    return SchmidtSpectrum(lambdas=sigma[: d.n * d.n] ** 2, dims=d)


def flip_block(stack: np.ndarray, block: FlipBlock) -> np.ndarray:
    """One realigned flip block of a parity stack, gathered as `block` (from `parity_gather`) says."""
    x, flipped = np.take(stack, block.idx)
    return block.scale * (x + block.sign * flipped)


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
