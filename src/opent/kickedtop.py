"""Coupled kicked tops: the one-period Floquet operator and its powers.

One period of top i is a free precession R_i = exp(-i (pi/2) Jy_i) followed
by a torsion exp(-i (k_i / 2 j_i) Jz_i^2); the two tops are then coupled
through exp(-i (eps / sqrt(j1 j2)) Jz_1 Jz_2). The torsions and the coupling
are diagonal in the product Jz basis, one N x M phase array g
(`kick_phases`), so U_T = diag(g) (R_1 x R_2). `zz_phases` and
`rotation_phases` return the diagonals of the Jz x Jz couplings and of the
product rotation; `schmidt.schmidt_spectrum` accepts such a diagonal.

U_T commutes with the parity R = exp(-i pi Jy_1) x exp(-i pi Jy_2): R maps
m to -m on each top, which leaves the torsions Jz^2, the coupling Jz_1 Jz_2
and the precession about y unchanged. In the local Jy eigenbases
(`spin.parity_basis`) R is diagonal, so U_T splits into two parity blocks;
`parity_floquet` builds U_T there with no D x D product. `power_sequence`
powers such blocks side by side over a range of exponents.

`kicked_spectra`, the one stream of operator Schmidt spectra of U_T^n that
the `sweep` and `spectrum` commands share, powers those blocks and takes
each spectrum from them without forming a D x D power; local unitaries do
not change the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import expi_hermitian, kron, unitarity_residual
from .schmidt import BipartitionDims, SchmidtSpectrum, parity_gather, parity_stack, schmidt_spectrum
from .spin import SpinSystem, jy, parity_basis

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
    """Spins j1 <= j2 (each checked by `SpinSystem.from_j`), finite kicks and coupling."""

    j1: float
    j2: float
    k1: float
    k2: float
    epsilon: float

    def __post_init__(self):
        SpinSystem.from_j(self.j1)
        SpinSystem.from_j(self.j2)
        if self.j1 > self.j2:  # the Schmidt analysis takes dim1 <= dim2
            raise ValueError(f"j1 <= j2 required, got j1={self.j1:g}, j2={self.j2:g}")
        for name in ("k1", "k2", "epsilon"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value:g}")

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


def coupling_phases(s1: SpinSystem, s2: SpinSystem, epsilon: float) -> np.ndarray:
    """Diagonal of the spin-spin coupling exp(-i (eps / sqrt(j1 j2)) Jz x Jz)."""
    return zz_phases(s1, s2, epsilon / math.sqrt(s1.j * s2.j))


def coupling(s1: SpinSystem, s2: SpinSystem, epsilon: float) -> np.ndarray:
    """Spin-spin coupling exp(-i (eps / sqrt(j1 j2)) Jz x Jz)."""
    return np.diag(coupling_phases(s1, s2, epsilon))


def diagonal_coupling(s1: SpinSystem, s2: SpinSystem, alpha: float) -> np.ndarray:
    """exp(-i alpha Jz x Jz) with a bare prefactor (no 1/sqrt(j1 j2))."""
    return np.diag(zz_phases(s1, s2, alpha))


def rotation_phases(s1: SpinSystem, s2: SpinSystem, p: float) -> np.ndarray:
    """Diagonal of exp(-i p Jz) x exp(-i p Jz) in the product Jz basis."""
    return np.kron(np.exp(-1j * p * s1.m_values()), np.exp(-1j * p * s2.m_values()))


def product_rotation(s1: SpinSystem, s2: SpinSystem, p: float) -> np.ndarray:
    """exp(-i p Jz) x exp(-i p Jz): a non-entangling product of local rotations."""
    return np.diag(rotation_phases(s1, s2, p))


def kick_phases(p: KickedTopParams) -> np.ndarray:
    """N x M phases g[a, c] of coupling . (torsion1 x torsion2) at Jz values (m1_a, m2_c)."""
    s1, s2 = p.top1, p.top2
    g = coupling_phases(s1, s2, p.epsilon).reshape(s1.dim, s2.dim)
    return g * np.outer(np.diag(torsion(s1, p.k1)), np.diag(torsion(s2, p.k2)))


def floquet(p: KickedTopParams) -> np.ndarray:
    """One-period evolution diag(g) (rot1 x rot2): `kick_phases` g scale the rows."""
    return kick_phases(p).reshape(-1, 1) * kron(free_rotation(p.top1), free_rotation(p.top2))


def parity_floquet(p: KickedTopParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W^dag U_T W in the parity basis W = w1 x w2, and the labels l1, l2.

    (w_i, l_i) = `spin.parity_basis(top i)`. There exp(-i (pi/2) Jy) is the
    column phase exp(-i pi m / 2), so with v = w exp(-i pi m / 2) the entry
    ((a, c), (b, d)) is sum_xy conj(w1[x,a]) v1[x,b] g[x,y] conj(w2[y,c]) v2[y,d]:
    one N x N x M contraction and one (N^2 x M)(M x M^2) product.
    """
    s1, s2 = p.top1, p.top2
    (w1, l1), (w2, l2) = parity_basis(s1), parity_basis(s2)
    def pairs(s, w):  # conj(w[x, a]) v[x, b] as an (x, (a, b)) matrix
        v = w * np.exp(-0.5j * math.pi * s.m_values())
        return (w.conj()[:, :, None] * v[:, None, :]).reshape(s.dim, s.dim**2)
    x = (pairs(s1, w1).T @ kick_phases(p)) @ pairs(s2, w2)  # rows (a, b), columns (c, d)
    n, m = s1.dim, s2.dim
    return x.reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m), l1, l2


class PowerSample(NamedTuple):
    n: int
    matrix: np.ndarray
    residual: float


def power_sequence(u: np.ndarray, ns: range) -> Iterator[PowerSample]:
    """Yield (n, u^n, unitarity residual) for each n in the range `ns`.

    `u` is a matrix or a stack (..., d, d) of matrices powered side by side.
    The first power and the step u^(ns.step) are formed by repeated squaring,
    the first as a power of the step when the step divides the start; then
    each sample takes one product by the step. The residual is checked at
    every sample and a UnitarityDriftError aborts the stream unless it is at
    most DRIFT_TOL. The yielded matrix is a read-only view of the stream's
    running power. An empty range yields nothing.
    """
    if ns.start < 1 or ns.step < 1:
        raise ValueError(f"need a start and step of at least 1, got {ns}")
    u = np.asarray(u, dtype=np.complex128)
    step = np.linalg.matrix_power(u, ns.step)
    first, rest = divmod(ns.start, ns.step)
    acc = np.linalg.matrix_power(step, first) if rest == 0 else np.linalg.matrix_power(u, ns.start)
    for n in ns:
        if n > ns.start:
            acc = acc @ step
        res = unitarity_residual(acc)
        if not res <= DRIFT_TOL:
            raise UnitarityDriftError(n, res)
        power = acc.view()  # acc may be u itself, which stays the caller's to write
        power.flags.writeable = False
        yield PowerSample(n, power, res)


def kicked_spectra(params: KickedTopParams, ns: range) -> Iterator[tuple[int, SchmidtSpectrum]]:
    """Yield (n, SchmidtSpectrum of U_T^n) for each n in the range `ns`.

    U_T is built in the local parity basis W1 x W2 (`parity_floquet`), where
    `parity_stack` cuts its two parity blocks into a padded stack; its
    entries off them must be at most DRIFT_TOL. `power_sequence` powers the
    stack over `ns`, one product and one unitarity check per sample. The two
    realigned parity blocks of each power are gathered straight from the
    powered stack through an index map built once (`parity_gather`), so no
    D x D power is formed. Each spectrum must meet the sum rule.
    """
    dims = BipartitionDims(params.top1.dim, params.top2.dim)
    u, l1, l2 = parity_floquet(params)
    stack, off = parity_stack(u, l1, l2)
    if not off <= DRIFT_TOL:
        raise ValueError(f"U_T breaks the parity exp(-i pi Jy1) x exp(-i pi Jy2): "
                         f"off-block residual {off:.3e} exceeds {DRIFT_TOL:g}")
    del u  # the stream needs only the stack; this keeps peak memory down
    gather = parity_gather(l1, l2)
    for sample in power_sequence(stack, ns):
        spec = schmidt_spectrum(sample.matrix, dims, gather)
        spec.check_sum_rule(f"power n={sample.n}")
        yield sample.n, spec
