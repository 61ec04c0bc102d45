"""Coupled kicked tops: the one-period Floquet operator and its powers.

One period of top i is a free precession R_i = exp(-i (pi/2) Jy_i) followed
by a torsion exp(-i (k_i / 2 j_i) Jz_i^2); the two tops are then coupled
through exp(-i (eps / sqrt(j1 j2)) Jz_1 Jz_2). The torsions and the coupling
are diagonal in the product Jz basis, one N x M phase array g
(`kick_phases`), so U_T = diag(g) (R_1 x R_2). Each precession has one
build, R = w diag(exp(-i pi m / 2)) w^dag in the Jy eigenbasis w of
`spin.parity_basis`: the dense `floquet` multiplies it out, `parity_floquet`
stays in that basis. `zz_phases` and `rotation_phases` return the diagonals
of the Jz x Jz couplings and of the product rotation;
`schmidt.schmidt_spectrum` accepts such a diagonal.

U_T commutes with the parity R = exp(-i pi Jy_1) x exp(-i pi Jy_2): R maps
m to -m on each top, which leaves the torsions Jz^2, the coupling Jz_1 Jz_2
and the precession about y unchanged. In the local Jy eigenbases
(`spin.parity_basis`, a real orthogonal matrix times a diagonal phase) R
is diagonal, so U_T splits into two parity blocks. `parity_floquet` builds
them straight into a padded stack, with no D x D operator, splitting each
precession's column phase exp(-i pi m / 2) into exp(-i pi m / 4) on both
sides so that the operator is symmetric (the top's generalized time-reversal
symmetry); that local-unitary conjugate has the Schmidt spectra of U_T in
every power. `power_sequence` powers such blocks side by side over a range
of exponents. It measures unitarity with a Gram product only at the step,
the first and the last power, and wherever a worst-case rounding bound
carried from one product to the next would pass DRIFT_TOL; every other
power is certified by that bound.

`kicked_spectra`, the one stream of Schmidt spectra of U_T^n shared by the
`sweep` and `spectrum` commands, powers that stack, holding only the step and
the running power between products, and takes each spectrum (which local
unitaries do not change) from the four realigned flip blocks of each power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import kron, unitarity_residual
from .schmidt import BipartitionDims, SchmidtSpectrum, band_stack, parity_gather, schmidt_spectrum
from .spin import SpinSystem, parity_basis

# Abort threshold for unitarity drift of the powers.
DRIFT_TOL = 1e-8
# Unit roundoff of IEEE double precision, for the rounding bound of `power_sequence`.
UNIT_ROUNDOFF = 2.0**-53


class UnitarityDriftError(RuntimeError):
    """Raised when a power of a unitary loses unitarity; `args` is (n, residual), so it pickles."""

    def __init__(self, n: int, residual: float):
        super().__init__(n, residual)
        self.n, self.residual = n, residual

    def __str__(self) -> str:
        return f"unitarity residual {self.residual:.3e} exceeds {DRIFT_TOL:g} at power n={self.n}"


def check_phase(name: str, value: float, per_unit: float, phase: str) -> None:
    """Fail unless `value` and its largest phase |value| * per_unit, named `phase`, are finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value:g}")
    if not math.isfinite(abs(value) * per_unit):
        raise ValueError(f"{name}={value:g} overflows the largest {phase}")


@dataclass(frozen=True)
class KickedTopParams:
    """Spins j1 <= j2 (each checked by `SpinSystem.from_j`), finite kicks and coupling.

    Each of k1, k2 and epsilon must also keep its largest phase finite:
    |k_i| j_i / 2 for the torsion (k_i / 2 j_i) m^2 at m = j_i, and
    |eps| sqrt(j1 j2) for the coupling (eps / sqrt(j1 j2)) m1 m2.
    """

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
        check_phase("k1", self.k1, self.j1 / 2, "torsion phase |k1| j1 / 2")
        check_phase("k2", self.k2, self.j2 / 2, "torsion phase |k2| j2 / 2")
        check_phase("epsilon", self.epsilon, math.sqrt(self.j1 * self.j2),
                    "coupling phase |epsilon| sqrt(j1 j2)")

    @property
    def top1(self) -> SpinSystem:
        return SpinSystem.from_j(self.j1)

    @property
    def top2(self) -> SpinSystem:
        return SpinSystem.from_j(self.j2)


def zz_phases(s1: SpinSystem, s2: SpinSystem, prefactor: float) -> np.ndarray:
    """Diagonal of exp(-i prefactor Jz x Jz) in the product Jz basis."""
    return np.exp(-1j * prefactor * np.outer(s1.m_values(), s2.m_values())).ravel()


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
    def torsion(s, k):  # diagonal of exp(-i (k / 2j) Jz^2)
        return np.exp(-1j * (k / s.two_j) * s.m_values() ** 2)
    g = zz_phases(s1, s2, p.epsilon / math.sqrt(s1.j * s2.j)).reshape(s1.dim, s2.dim)
    return g * np.outer(torsion(s1, p.k1), torsion(s2, p.k2))


def floquet(p: KickedTopParams) -> np.ndarray:
    """Dense one-period evolution diag(g) (R_1 x R_2), g from `kick_phases`, R from `parity_basis`."""
    def precession(s):  # exp(-i (pi/2) Jy) = w diag(exp(-i pi m / 2)) w^dag
        w, _ = parity_basis(s)
        return (w * np.exp(-0.5j * math.pi * s.m_values())) @ w.conj().T
    return kick_phases(p).reshape(-1, 1) * kron(precession(p.top1), precession(p.top2))


def parity_floquet(p: KickedTopParams) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """`schmidt.band_stack` of V = D^(1/2) (W^dag U_T W) D^(-1/2) in W = w1 x w2, and l1, l2.

    (w_i, l_i) = `spin.parity_basis(top i)`. There exp(-i (pi/2) Jy) is the
    column phase D = exp(-i pi m / 2), so W^dag U_T W = (W^dag G W) D with
    G = diag(g) (`kick_phases`), and V = D^(1/2) (W^dag G W) D^(1/2) splits
    that phase into exp(-i pi m / 4) on both sides. W^dag G W = O^T G O for
    the real O of `parity_basis`, so V is symmetric; it is a local-unitary
    conjugate of W^dag U_T W, so every power has the same Schmidt spectrum.
    With h = exp(-i pi m / 4) the entry ((a, c), (b, d)) is
    sum_xy h1[a] conj(w1[x,a]) w1[x,b] h1[b] g[x,y] h2[c] conj(w2[y,c]) w2[y,d] h2[d]:
    an N^2 x M factor from one N x N x M contraction, times an M x M^2 one.
    """
    s1, s2 = p.top1, p.top2
    (w1, l1), (w2, l2) = parity_basis(s1), parity_basis(s2)
    def pairs(s, w):  # h[a] conj(w[x, a]) w[x, b] h[b] as an (x, (a, b)) matrix
        h = np.exp(-0.25j * math.pi * s.m_values())
        return ((w.conj() * h)[:, :, None] * (w * h)[:, None, :]).reshape(s.dim, s.dim**2)
    return (*band_stack(pairs(s1, w1).T @ kick_phases(p), pairs(s2, w2), l1, l2), l1, l2)


class PowerSample(NamedTuple):
    n: int
    matrix: np.ndarray
    residual: float  # a certified upper bound on max |matrix^dag matrix - I|


def power_sequence(u: np.ndarray, ns: range) -> Iterator[PowerSample]:
    """Yield (n, u^n, certified unitarity residual) for each n in the range `ns`.

    `u` is a matrix or a stack (..., h, h) of matrices powered side by side.
    The first power and the step S = u^(ns.step) are formed by repeated
    squaring, the first as a power of the step when the step divides the
    start; then each sample takes one product by the step.

    Unitarity is measured by a Gram product (`unitarity_residual`) only
    where a rounding bound cannot vouch for it. Write E(A) = A^dag A - I,
    and let f and e bound ||E(S)||_F and ||E(A)||_F for the running power A.
    The computed product fl(A S) = A S + Delta has |Delta| <= g |A| |S| with
    g = sqrt(2) gamma_(h+2), gamma_m = m u / (1 - m u) and u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.5-3.6), so ||Delta||_F <= g h sqrt((1 + e)(1 + f)), and since
    ||S||_2^2 <= 1 + f and ||A S||_2^2 <= (1 + e)(1 + f),

        ||E(fl(A S))||_F <= (1 + f) e + f + (2 g h + g^2 h^2)(1 + e)(1 + f).

    A measured max-norm r of the computed Gram residual gives
    max |E| <= (r + g) / (1 - g), the Gram's own rounding included, and
    ||E||_F <= h max |E|. The step is measured once, when a product by it
    follows; a power is measured when its bound is not at most DRIFT_TOL
    (so a nan bound forces a measurement), at the first power unless that
    is S, and always at the last. A measured power whose max-norm bound
    exceeds DRIFT_TOL raises UnitarityDriftError. The yielded residual is
    that max-norm bound at a measured power and the carried bound e
    otherwise, so it is at least max |E| and at most DRIFT_TOL. The yielded
    matrix is a read-only view of the running power, dropped before the next
    product, as `u` is once the step and the first power exist. An empty
    range yields nothing.
    """
    if ns.start < 1 or ns.step < 1:
        raise ValueError(f"need a start and step of at least 1, got {ns}")
    u = np.asarray(u, dtype=np.complex128)
    h = u.shape[-1]
    g = math.sqrt(2) * (h + 2) * UNIT_ROUNDOFF / (1 - (h + 2) * UNIT_ROUNDOFF)
    rounding = 2 * g * h + (g * h) ** 2

    def measured(a: np.ndarray) -> float:  # a bound on max |E(a)| from the computed Gram
        return (unitarity_residual(a) + g) / (1 - g)

    step = np.linalg.matrix_power(u, ns.step)
    first, rest = divmod(ns.start, ns.step)
    u = step if rest == 0 else u  # so u goes before a first power made from the step
    acc = np.linalg.matrix_power(u, first if rest == 0 else ns.start)
    del u
    step_residual = measured(step) if len(ns) > 1 else math.nan
    f = h * step_residual
    residual = step_residual if ns.start == ns.step else math.nan  # the first power is S itself
    bound = h * residual
    for n in ns:
        if n > ns.start:
            acc = acc @ step
            bound = residual = (1 + f) * bound + f + rounding * (1 + bound) * (1 + f)
        if not residual <= DRIFT_TOL or n == ns[-1]:
            residual = measured(acc)
            if not residual <= DRIFT_TOL:
                raise UnitarityDriftError(n, residual)
            bound = h * residual
        yield PowerSample(n, np.broadcast_to(acc, acc.shape), residual)  # read-only: acc may be u


def _check_symmetric(u: np.ndarray, where: str) -> None:
    """Fail unless max |u - u^T| over a matrix or a stack (per layer) is at most DRIFT_TOL (nan fails)."""
    defect = float(np.max([np.abs(a - a.T).max() for a in u.reshape(-1, *u.shape[-2:])]))
    if not defect <= DRIFT_TOL:
        raise RuntimeError(f"transpose defect {defect:.3e} exceeds {DRIFT_TOL:g} at {where}")


def kicked_spectra(params: KickedTopParams, ns: range) -> Iterator[tuple[int, SchmidtSpectrum]]:
    """Yield (n, SchmidtSpectrum of U_T^n) for each n in the range `ns`.

    U_T is built as the parity stack of the symmetric V of `parity_floquet`,
    a local-unitary conjugate; V's entries off its parity blocks must be at
    most DRIFT_TOL, and so must max |V - V^T|. `power_sequence` powers the
    stack over `ns`, one product per sample, and certifies its unitarity;
    each power must stay symmetric to DRIFT_TOL. The four realigned flip
    blocks of each power are gathered from the stack through an index map
    built once (`parity_gather`), and no power outlives its spectrum, which
    must meet the sum rule.
    """
    dims = BipartitionDims(params.top1.dim, params.top2.dim)
    stack, off, l1, l2 = parity_floquet(params)
    if not off <= DRIFT_TOL:
        raise RuntimeError(f"U_T breaks the parity exp(-i pi Jy1) x exp(-i pi Jy2): off-block "
                           f"residual {off:.3e} exceeds {DRIFT_TOL:g} at U_T in the parity basis")
    _check_symmetric(stack, "U_T in the parity basis")
    gather = parity_gather(l1, l2)
    samples = power_sequence(stack, ns)
    del stack  # power_sequence drops it once it holds the step and the first power
    for n, power, _ in samples:
        _check_symmetric(power, f"power n={n}")
        spec = schmidt_spectrum(power, dims, gather)
        del power  # hold no power through the next product
        spec.check_sum_rule(f"power n={n}")
        yield n, spec
