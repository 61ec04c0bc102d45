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
column (c, d') meet only where l1[a] l1[b] = l2[c] l2[d']. `schmidt_spectrum`
then takes the singular values of the two blocks, index-mask slices, about a
quarter of the work of one SVD. Local unitaries leave the spectrum unchanged,
so an operator may be moved into such a basis first.

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


def schmidt_spectrum(u, d: BipartitionDims, parity=None) -> SchmidtSpectrum:
    """Squared singular values of the realigned operator, descending.

    `u` is a matrix, or the 1-d vector of the diagonal of a diagonal
    operator; a vector takes one SVD of its n x m reshape and ignores
    `parity`. `parity` is a pair of +-1 label vectors (l1, l2), of lengths
    n and m, such that u commutes with diag(l1) x diag(l2). The realigned
    matrix X is then zero outside the blocks of rows (a, b) and columns
    (c, d') with l1[a] l1[b] = l2[c] l2[d'] = +-1, and its singular values
    are those of the two blocks. The off-block part is not checked: a u that
    breaks the symmetry loses that part's mass from the spectrum.
    """
    if np.ndim(u) == 1:
        if len(u) != d.total:
            raise ValueError(f"diagonal of length {len(u)} does not match dims {d.total}")
        sigma = singular_values(np.reshape(u, (d.n, d.m)))
        sigma = np.concatenate([sigma, np.zeros(d.n * d.n - d.n)])
        return SchmidtSpectrum(lambdas=sigma**2, dims=d)
    x = realign(u, d)
    if parity is None:
        sigma = singular_values(x)
    else:
        l1, l2 = parity
        rows, cols = np.outer(l1, l1).ravel() > 0, np.outer(l2, l2).ravel() > 0
        blocks = x[np.ix_(rows, cols)], x[np.ix_(~rows, ~cols)]
        del x  # free the realigned matrix before the SVDs copy the blocks
        sigma = np.sort(np.concatenate([singular_values(b) for b in blocks]))[::-1]
    return SchmidtSpectrum(lambdas=sigma[: d.n * d.n] ** 2, dims=d)


def svn(spec: SchmidtSpectrum) -> float:
    """Von Neumann entropy -sum lt ln lt of the normalized coefficients.

    Clamped at 0, which rounding undershoots for product operators.
    """
    lt = spec.normalized
    lt = lt[lt > 0]
    return max(0.0, float(-np.sum(lt * np.log(lt))))


def slin(spec: SchmidtSpectrum) -> float:
    """Linear entropy 1 - sum lt^2 of the normalized coefficients, clamped at 0."""
    lt = spec.normalized
    return max(0.0, float(1.0 - np.sum(lt**2)))


def operator_entanglement(u, d: BipartitionDims) -> tuple[float, float]:
    """(von Neumann, linear) operator entanglement entropies of u (a matrix or a diagonal)."""
    spec = schmidt_spectrum(u, d)
    return svn(spec), slin(spec)
