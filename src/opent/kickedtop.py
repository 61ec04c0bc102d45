"""Coupled kicked tops: the one-period Floquet operator and its powers.

One period of top i is a free precession exp(-i (pi/2) Jy_i) followed by a
torsion exp(-i (k_i / 2 j_i) Jz_i^2); the two tops are then coupled through
exp(-i (eps / sqrt(j1 j2)) Jz_1 Jz_2). Everything here is diagonal in the
product Jz basis except the precession, so the coupling and torsion factors
are built directly as diagonal matrices. `zz_phases` and `rotation_phases`
return just the diagonals of the Jz x Jz couplings and of the product
rotation; `schmidt.schmidt_spectrum` accepts such a diagonal directly.

U_T commutes with the parity R = exp(-i pi Jy_1) x exp(-i pi Jy_2): R maps
m to -m on each top, which leaves the torsions Jz^2, the coupling Jz_1 Jz_2
and the precession about y unchanged. In the local Jy eigenbases
(`spin.parity_basis`) R is diagonal, so U_T splits into two parity blocks.
`power_sequence` powers a stack of matrices, such as those blocks, side by
side: it forms u^stride once by repeated squaring and then takes one
product per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import expi_hermitian, kron, unitarity_residual
from .spin import SpinSystem, jy

# Abort threshold for unitarity drift of the powers.
DRIFT_TOL = 1e-8


class UnitarityDriftError(RuntimeError):
    """Raised when a power of a unitary loses unitarity."""

    def __init__(self, n: int, residual: float):
        super().__init__(f"unitarity residual {residual:.3e} exceeds {DRIFT_TOL:g} at power n={n}")
        self.n = n
        self.residual = residual


@dataclass(frozen=True)
class KickedTopParams:
    j1: float
    j2: float
    k1: float
    k2: float
    epsilon: float

    def __post_init__(self):
        if self.j1 < 0.5 or self.j2 < 0.5:
            raise ValueError("spins must be at least 1/2")
        if self.j1 > self.j2:
            raise ValueError("j1 <= j2 required (Schmidt analysis assumes dim1 <= dim2)")
        for name in ("k1", "k2", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def symmetric(cls, j: float, k: float, epsilon: float) -> "KickedTopParams":
        """Both tops with the same spin and kick strength."""
        return cls(j, j, k, k, epsilon)

    @property
    def top1(self) -> SpinSystem:
        return SpinSystem.from_j(self.j1)

    @property
    def top2(self) -> SpinSystem:
        return SpinSystem.from_j(self.j2)


def free_rotation(s: SpinSystem) -> np.ndarray:
    """exp(-i (pi/2) Jy): quarter-period precession about y."""
    return expi_hermitian(jy(s), math.pi / 2)


def torsion(s: SpinSystem, k: float) -> np.ndarray:
    """exp(-i (k / 2j) Jz^2), diagonal in the Jz basis."""
    m = s.m_values()
    return np.diag(np.exp(-1j * (k / s.two_j) * m**2))


def zz_phases(s1: SpinSystem, s2: SpinSystem, prefactor: float) -> np.ndarray:
    """Diagonal of exp(-i prefactor Jz x Jz) in the product Jz basis."""
    return np.exp(-1j * prefactor * np.outer(s1.m_values(), s2.m_values())).ravel()


def coupling(s1: SpinSystem, s2: SpinSystem, epsilon: float) -> np.ndarray:
    """Spin-spin coupling exp(-i (eps / sqrt(j1 j2)) Jz x Jz)."""
    return np.diag(zz_phases(s1, s2, epsilon / math.sqrt(s1.j * s2.j)))


def diagonal_coupling(s1: SpinSystem, s2: SpinSystem, alpha: float) -> np.ndarray:
    """exp(-i alpha Jz x Jz) with a bare prefactor (no 1/sqrt(j1 j2))."""
    return np.diag(zz_phases(s1, s2, alpha))


def rotation_phases(s1: SpinSystem, s2: SpinSystem, p: float) -> np.ndarray:
    """Diagonal of exp(-i p Jz) x exp(-i p Jz) in the product Jz basis."""
    return np.kron(np.exp(-1j * p * s1.m_values()), np.exp(-1j * p * s2.m_values()))


def product_rotation(s1: SpinSystem, s2: SpinSystem, p: float) -> np.ndarray:
    """exp(-i p Jz) x exp(-i p Jz): a non-entangling product of local rotations."""
    return np.diag(rotation_phases(s1, s2, p))


def floquet(p: KickedTopParams) -> np.ndarray:
    """One-period evolution: coupling . [(torsion1 rot1) x (torsion2 rot2)]."""
    s1, s2 = p.top1, p.top2
    u1 = torsion(s1, p.k1) @ free_rotation(s1)
    u2 = torsion(s2, p.k2) @ free_rotation(s2)
    return coupling(s1, s2, p.epsilon) @ kron(u1, u2)


class PowerSample(NamedTuple):
    n: int
    matrix: np.ndarray
    residual: float


def power_sequence(u: np.ndarray, n_max: int, sample_stride: int = 1) -> Iterator[PowerSample]:
    """Yield (n, u^n, unitarity residual) for n = stride, 2*stride, ... <= n_max.

    `u` is a matrix or a stack (..., d, d) of matrices powered side by side.
    The step u^stride is formed once by repeated squaring, and each sample
    is the one before times that step: one product per sample, whatever the
    stride. The residual is checked at every yielded sample and a
    UnitarityDriftError aborts the stream if it exceeds DRIFT_TOL. The
    yielded matrix is the stream's own running power, so it is read-only.
    """
    if n_max < 1 or sample_stride < 1:
        raise ValueError("n_max and sample_stride must be positive")
    step = np.linalg.matrix_power(np.array(u, dtype=np.complex128), sample_stride)
    acc = step
    for n in range(sample_stride, n_max + 1, sample_stride):
        if n > sample_stride:
            acc = acc @ step
        acc.flags.writeable = False
        res = unitarity_residual(acc)
        if res > DRIFT_TOL:
            raise UnitarityDriftError(n, res)
        yield PowerSample(n, acc, res)
