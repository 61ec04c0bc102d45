"""Spin-j angular momentum operators in the Jz eigenbasis.

Basis ordering is m = -j, -j+1, ..., +j ascending, so the array index of
|j, m> is m + j. Half-integer spins are represented exactly by storing 2j.
`parity_basis` gives the Jy eigenbasis, in which the pi rotation about y
is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import eigh


@dataclass(frozen=True)
class SpinSystem:
    """A single spin with quantum number j = two_j / 2."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 0 or self.two_j != int(self.two_j):
            raise ValueError(f"two_j must be a nonnegative integer, got {self.two_j}")

    @classmethod
    def from_j(cls, j: float) -> "SpinSystem":
        """The spin j; fails unless j is a finite integer or half-integer >= 1/2."""
        if not 0.5 <= j < math.inf:
            raise ValueError(f"spin j={j:g} must be finite and at least 1/2")
        two_j = round(2 * j)
        if abs(two_j - 2 * j) > 1e-12:
            raise ValueError(f"j must be integer or half-integer, got {j}")
        return cls(two_j)

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def m_values(self) -> np.ndarray:
        """All magnetic quantum numbers, ascending: -j ... +j."""
        return np.arange(self.dim) - self.j


def jz(s: SpinSystem) -> np.ndarray:
    return np.diag(s.m_values()).astype(np.complex128)


def _j_plus(s: SpinSystem) -> np.ndarray:
    """Raising operator: J+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>."""
    j = s.j
    m = s.m_values()[:-1]
    off = np.sqrt(j * (j + 1) - m * (m + 1))
    # <m+1| J+ |m> sits one below the diagonal in ascending-m ordering
    return np.diag(off, -1).astype(np.complex128)


def jx(s: SpinSystem) -> np.ndarray:
    p = _j_plus(s)
    return (p + p.conj().T) / 2


def jy(s: SpinSystem) -> np.ndarray:
    p = _j_plus(s)
    return (p - p.conj().T) / 2j


def parity_basis(s: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis w of Jy, m ascending, and the parity label of each column.

    Column i has Jy = m = i - j, so exp(-i pi Jy) = e^{-i pi j} w diag(labels) w^dag
    with labels (-1)^(j-m) = (-1)^(2j-i).
    """
    _, w = eigh(jy(s))
    return w, (-1.0) ** np.arange(s.two_j, -1, -1)


def basis_state(s: SpinSystem, m: float) -> np.ndarray:
    """Column vector |j, m> in the ascending-m basis."""
    idx = m + s.j
    k = round(idx)
    if abs(idx - k) > 1e-12 or not 0 <= k < s.dim:
        raise ValueError(f"m={m} out of range for j={s.j}")
    vec = np.zeros((s.dim, 1), dtype=np.complex128)
    vec[k, 0] = 1.0
    return vec
