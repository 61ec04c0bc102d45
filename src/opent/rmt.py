"""Random-matrix (Laguerre ensemble) law for operator RDM eigenvalues.

For a strongly chaotic, strongly coupled bipartite unitary the normalized
operator Schmidt coefficients behave like eigenvalues of a random Wishart
matrix with aspect parameter Q = M^2 / N^2; their density is

    f(x) = (N^4 Q / 2 pi) sqrt((x_max - x)(x - x_min)) / x

on [x_min, x_max] with x_min/max = (1 + 1/Q -/+ 2/sqrt(Q)) / N^2. The
density integrates to N^2 (eigenvalue count) with first moment 1 (unit
trace); both are checked by quadrature after the cosine substitution
x = c + r cos(theta), which removes both square-root endpoints and the
1/x pole at Q = 1. The expected von Neumann entropy under this law has
the closed form ln N^2 - 1/(2Q), the Marchenko-Pastur value that Page's
finite-size mean (Page 1993) approaches for large N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy loads only in the functions that build arrays
    import numpy as np

# Midpoint nodes for the cosine-substituted quadrature of mass and mean.
QUAD_NODES = 10_000


def laguerre_bounds(n_small: int, q: float) -> tuple[float, float]:
    """Support endpoints (x_min, x_max) of the eigenvalue density."""
    if n_small < 1:
        raise ValueError("n_small must be >= 1")
    if q < 1:
        raise ValueError(f"q >= 1 required (smaller subsystem first), got {q}")
    base = 1.0 / n_small**2
    lo = base * (1 + 1 / q - 2 / math.sqrt(q))
    hi = base * (1 + 1 / q + 2 / math.sqrt(q))
    return max(lo, 0.0), hi


@dataclass(frozen=True)
class LaguerreLaw:
    n_small: int
    q: float
    lambda_min: float = field(init=False)
    lambda_max: float = field(init=False)

    def __post_init__(self):
        lo, hi = laguerre_bounds(self.n_small, self.q)
        object.__setattr__(self, "lambda_min", lo)
        object.__setattr__(self, "lambda_max", hi)

    @classmethod
    def from_dims(cls, n_small: int, m_big: int) -> "LaguerreLaw":
        if not 1 <= n_small <= m_big:
            raise ValueError(f"1 <= N <= M required, got N={n_small}, M={m_big}")
        return cls(n_small=n_small, q=(m_big / n_small) ** 2)


def laguerre_density(law: LaguerreLaw, lam) -> np.ndarray:
    """Eigenvalue density f at lam; zero outside the support."""
    import numpy as np

    lam = np.asarray(lam, dtype=float)
    inside = (lam > law.lambda_min) & (lam < law.lambda_max) & (lam > 0)
    out = np.zeros_like(lam)
    x = lam[inside]
    # eigenvalue-count normalization: integrates to N^2, first moment 1
    out[inside] = (
        law.n_small**4
        * law.q
        / (2 * math.pi)
        * np.sqrt((law.lambda_max - x) * (x - law.lambda_min))
        / x
    )
    return out


def _moment(law: LaguerreLaw, g_over_x) -> float:
    """int g(x) f(x) dx by the midpoint rule after x = c + r cos(theta).

    f(x) dx becomes (N^4 Q r^2 / 2 pi) sin(theta)^2 / x dtheta, so the
    summand sin(theta)^2 g(x) / x is smooth and periodic for the g used
    here and the rule converges fast; `g_over_x(x)` returns g(x) / x.
    """
    import numpy as np

    c = (law.lambda_max + law.lambda_min) / 2
    r = (law.lambda_max - law.lambda_min) / 2
    h = math.pi / QUAD_NODES
    theta = (np.arange(QUAD_NODES) + 0.5) * h
    vals = np.sin(theta) ** 2 * g_over_x(c + r * np.cos(theta))
    return float(law.n_small**4 * law.q * r**2 / (2 * math.pi) * h * np.sum(vals))


def density_mass(law: LaguerreLaw) -> float:
    """Integral of f over its support; equals N^2 up to quadrature error."""
    return _moment(law, lambda x: 1.0 / x)


def density_mean(law: LaguerreLaw) -> float:
    """First moment of f; equals 1 up to quadrature error."""
    import numpy as np

    return _moment(law, np.ones_like)


def saturation_estimate(n_small: int, m_big: int) -> float:
    """Expected von Neumann entropy -int f(x) x ln x dx under the law.

    Closed form ln N^2 - 1/(2Q): the Marchenko-Pastur mean entropy, which
    is the large-N limit of Page's finite-size mean.
    """
    law = LaguerreLaw.from_dims(n_small, m_big)
    return math.log(n_small**2) - 1 / (2 * law.q)


@dataclass(frozen=True)
class Histogram:
    """Density-normalized histogram: sum(height * width) = sample count."""

    bin_edges: np.ndarray
    heights: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        return self.bin_edges[1:] - self.bin_edges[:-1]

    @property
    def centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2

    @property
    def total_mass(self) -> float:
        return float((self.heights * self.widths).sum())


def histogram(eigs, bins: int, support: tuple[float, float]) -> Histogram:
    """Bin eigenvalues into counts-per-unit-length over the given support."""
    import numpy as np

    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        raise ValueError("cannot histogram an empty sample")
    if bins < 5:
        raise ValueError("need at least 5 bins")
    counts, edges = np.histogram(eigs, bins=bins, range=support)
    return Histogram(bin_edges=edges, heights=counts / np.diff(edges))


def fit_distance(h: Histogram, law: LaguerreLaw) -> float:
    """Relative L1 distance between empirical and predicted densities.

    sum |height - f(center)| * width / N^2; zero for perfect agreement,
    about 2 for disjoint mass.
    """
    import numpy as np

    if h.bin_edges[-1] < law.lambda_min or h.bin_edges[0] > law.lambda_max:
        raise ValueError("histogram support does not overlap law support")
    predicted = laguerre_density(law, h.centers)
    return float(np.sum(np.abs(h.heights - predicted) * h.widths) / law.n_small**2)
