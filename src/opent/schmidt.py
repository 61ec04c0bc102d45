"""Operator Schmidt decomposition of bipartite operators.

A matrix is flattened row-by-row into a vector of the Hilbert-Schmidt
space. For an operator on a tensor-product space of dimensions n x m,
re-sorting that vector by (subsystem-1 indices, subsystem-2 indices) gives
the n^2 x m^2 coefficient matrix whose singular values squared are the
operator Schmidt coefficients. Entropies of the normalized coefficients
quantify the operator's entangling power.

A diagonal operator U = diag(phi) may be passed as the vector phi of its
n*m diagonal entries. Its realigned matrix X[(a,b),(c,d')] =
delta_ab delta_cd' phi[a,c] is zero outside one n x m block, phi reshaped,
so the coefficients are the squared singular values of that block followed
by n^2 - n exact zeros.

For a unitary the coefficients sum to n m, the sum rule that normalizes
them. `SchmidtSpectrum.check_sum_rule` holds a spectrum to it by the one
abort rule of `linalg.require`.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, require, singular_values


class _BipartitionDims(NamedTuple):
    n: int
    m: int


class BipartitionDims(_BipartitionDims):
    """Subsystem dimensions n <= m of a bipartite space."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        try:
            operator.index(self.n), operator.index(self.m)
        except TypeError:  # a float, even an integral one
            raise ValueError(f"dimensions must be integers, got n={self.n}, m={self.m}") from None
        if self.n < 1 or self.m < 1:
            raise ValueError("dimensions must be positive")
        if self.n > self.m:
            raise ValueError(f"n <= m required, got n={self.n}, m={self.m}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` builds through it, so it checks too

    @property
    def total(self) -> int:
        return self.n * self.m


class SchmidtSpectrum(NamedTuple):
    """Operator Schmidt coefficients, descending; sums to n*m for a unitary."""

    lambdas: np.ndarray
    dims: BipartitionDims

    @property
    def normalized(self) -> np.ndarray:
        """Coefficients scaled to sum to 1 for a unitary operator."""
        return self.lambdas / self.dims.total

    def check_sum_rule(self, where: str) -> None:
        """`linalg.require` the sum-rule defect |sum(lambda) / (n m) - 1| of a unitary at `where`."""
        require(abs(self.lambdas.sum() / self.dims.total - 1), "sum-rule defect", where)


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


def schmidt_spectrum(u, d: BipartitionDims) -> SchmidtSpectrum:
    """Squared singular values of the realigned operator, descending.

    `u` is a matrix; the 1-d vector of the diagonal of a diagonal operator,
    which takes one SVD of its n x m reshape; or an iterator over blocks
    whose singular values together are those of the realigned operator,
    n^2 in all, such as the four flip blocks that
    `blocks.parity_gather(l1, l2)` yields, from its parity blocks, for a
    symmetric operator that commutes with diag(l1) x diag(l2). Only the
    in-parity, flip-symmetric part of such an operator is read, so checking
    both symmetries is left to the caller (`blocks.band_stack` returns the
    off-block residual).
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
