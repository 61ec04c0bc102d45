"""Coupled kicked tops: the one-period Floquet operator and its powers.

One period of top i is a free precession R_i = exp(-i (pi/2) Jy_i) followed
by a torsion exp(-i (k_i / 2 j_i) Jz_i^2); the two tops are then coupled
through exp(-i (eps / sqrt(j1 j2)) Jz_1 Jz_2). The torsions and the coupling
are diagonal in the product Jz basis, one N x M phase array g
(`kick_phases`), so U_T = diag(g) (R_1 x R_2). Each precession has one
build, R = w diag(exp(-i pi m / 2)) w^dag in the Jy eigenbasis w of
`spin.parity_basis`: the dense `floquet` multiplies it out, `parity_floquet`
stays in that basis.

U_T commutes with the parity R = exp(-i pi Jy_1) x exp(-i pi Jy_2): R maps
m to -m on each top, which leaves the torsions Jz^2, the coupling Jz_1 Jz_2
and the precession about y unchanged. R is diagonal in the local Jy
eigenbases, where `parity_floquet` builds a symmetric local-unitary
conjugate of U_T, which has its Schmidt spectra in every power, straight
into its two parity blocks; identical tops (j1 = j2, k1 = k2) also commute
with their exchange, and their blocks split into four exchange sectors.
`blocks` owns both layouts. `power_sequence` powers a matrix over a range
of exponents, each product in place, and certifies each power's unitarity
by a rounding bound or a Gram product. `kicked_spectra`, the one stream of
Schmidt spectra of U_T^n shared by the `sweep` and `spectrum` commands,
powers the blocks, or the sectors, in lockstep and takes each spectrum from
the four flip blocks that `blocks` gathers from their powers, the sectors'
by the gather that their split hands back. With its build, a call on its
step holds under 2.45 times the two parity blocks' bytes, or about 1.6
times for identical tops. Every invariant the stream checks aborts by the
one rule of `linalg`: a defect above DRIFT_TOL (re-exported here), or nan,
raises one `<what> <defect> exceeds 1e-08 at <where>` line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .blocks import band_stack, exchange_sectors, parity_gather
from .linalg import (DRIFT_TOL, UnitarityDriftError, kron, matmul_in_place, require, transpose_defect,
                     unitarity_residual)
from .schmidt import BipartitionDims, SchmidtSpectrum, schmidt_spectrum
from .spin import SpinSystem, check_phase, parity_basis, zz_phases

# Unit roundoff of IEEE double precision, for the rounding bound of `power_sequence`.
UNIT_ROUNDOFF = 2.0**-53


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


def parity_floquet(p: KickedTopParams) -> tuple[list[np.ndarray], float, np.ndarray, np.ndarray]:
    """`blocks.band_stack` of V = D^(1/2) (W^dag U_T W) D^(-1/2) in W = w1 x w2, and l1, l2.

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


def _power(held: list, n: int) -> np.ndarray:
    """u^n (n >= 1) of the matrix u = held.pop(), as a new array, by matrix_power's products in its order.

    So the bits are matrix_power's. u is never written; taken out of `held`, it goes at the first
    square that the result does not hold, in a caller that kept no reference to it.
    """
    z, result = held.pop(), None
    if n <= 3:  # matrix_power's shortcuts u, u u and (u u) u
        return z.copy() if n == 1 else z @ z if n == 2 else (z @ z) @ z
    while True:  # matrix_power's loop: z = u^(2^i), the bits of n from the least significant
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
        if n == 0:
            return result
        z = z @ z


def power_sequence(u: np.ndarray, ns: range) -> Iterator[PowerSample]:
    """Yield (n, u^n, certified unitarity residual) for each n in the range `ns`.

    `u` is an h x h matrix. S = u^(ns.step) and the first power are formed by
    `_power`, the first as S or its power when the step divides the start;
    then each sample takes one product by S, in place by row bands. `u` is
    never written, and is let go once S exists.

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
    matrix is a read-only view of S, which no draw writes, or of the running
    power, which the next overwrites: copy that to keep it. An empty range
    yields nothing.
    """
    if ns.start < 1 or ns.step < 1:
        raise ValueError(f"need a start and step of at least 1, got {ns}")
    held, u = [np.asarray(u, complex)], None  # `_power` takes u out for the step
    h = held[0].shape[-1]
    g = math.sqrt(2) * (h + 2) * UNIT_ROUNDOFF / (1 - (h + 2) * UNIT_ROUNDOFF)
    rounding = 2 * g * h + (g * h) ** 2

    def measured(a: np.ndarray) -> float:  # a bound on max |E(a)| from the computed Gram
        return (unitarity_residual(a) + g) / (1 - g)

    first, rest = divmod(ns.start, ns.step)
    acc = _power(held[:], ns.start) if rest else None  # off the step: made while u is held
    step = _power(held, ns.step)
    acc = acc if rest else step if first == 1 else _power([step], first)
    step_residual = measured(step) if len(ns) > 1 else math.nan
    f = h * step_residual
    residual = step_residual if acc is step else math.nan
    bound = h * residual
    for n in ns:
        if n > ns.start:
            acc = step @ step if acc is step else matmul_in_place(acc, step)
            bound = residual = (1 + f) * bound + f + rounding * (1 + bound) * (1 + f)
        if not residual <= DRIFT_TOL or n == ns[-1]:
            residual = measured(acc)
            if not residual <= DRIFT_TOL:
                raise UnitarityDriftError(n, residual)
            bound = h * residual
        yield PowerSample(n, np.broadcast_to(acc, acc.shape), residual)  # read-only


def kicked_spectra(params: KickedTopParams, ns: range) -> Iterator[tuple[int, SchmidtSpectrum]]:
    """Yield (n, SchmidtSpectrum of U_T^n) for each n in the range `ns`.

    U_T is built as the two parity blocks of the symmetric V of
    `parity_floquet`, a local-unitary conjugate; V's entries off its parity
    blocks must be at most DRIFT_TOL, and so must the `transpose_defect`
    of its blocks. For identical tops (j1 = j2 and k1 = k2) each block is
    split into its two exchange sectors (`exchange_sectors`), and V must
    commute with the exchange to DRIFT_TOL. One `power_sequence` per block,
    or per sector, powers it over `ns`, one product per sample, and certifies
    its unitarity; all run in lockstep, and each power must stay symmetric
    to DRIFT_TOL. Each of these checks is one `linalg.require`. The
    four realigned flip blocks of each sample are copied from strided views of
    the blocks' powers (`parity_gather`), or from V^n's rows rebuilt from the
    sectors' powers one a at a time (the gather that `exchange_sectors` hands
    back, on the plan of its split), and each spectrum must meet the sum rule.
    """
    dims = BipartitionDims(params.top1.dim, params.top2.dim)
    blocks, off, l1, l2 = parity_floquet(params)
    require(off, "U_T breaks the parity exp(-i pi Jy1) x exp(-i pi Jy2): off-block residual",
            "U_T in the parity basis")
    require(transpose_defect(blocks), "transpose defect", "U_T in the parity basis")
    identical = params.j1 == params.j2 and params.k1 == params.k2
    if identical:
        blocks, swapped, gather = exchange_sectors(blocks, l1)  # lets each block go once it is split
        require(swapped, "U_T breaks the exchange of two identical tops: residual", "U_T in the parity basis")
    streams = zip(*(power_sequence(block, ns) for block in blocks))
    del blocks  # each power_sequence drops its block once its step exists
    for samples in streams:  # the parity +1 and -1 blocks, or the even and odd sectors of each
        n, powers = samples[0].n, [sample.matrix for sample in samples]
        if n == ns.start and not identical:  # past the set-up
            gather = parity_gather(l1, l2)
        require(transpose_defect(powers), "transpose defect", f"power n={n}")
        spec = schmidt_spectrum(gather(powers), dims)
        spec.check_sum_rule(f"power n={n}")
        yield n, spec
