"""Correctness checks of the CLI's outputs, computed apart from opent.

Every reference value here comes from numpy and scipy alone: the kicked-top
Floquet operator is rebuilt from spin matrices written out below and
`scipy.linalg.expm`, powers come from `np.linalg.matrix_power`, and
operator Schmidt coefficients are eigenvalues of the Gram matrix of the
realigned operator instead of singular values. Each check returns a list of
failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import scipy.linalg

NEG_TOL = 1e-12


def _m_values(j: float) -> np.ndarray:
    return np.arange(round(2 * j) + 1) - j


def _jy(j: float) -> np.ndarray:
    m = _m_values(j)[:-1]
    raising = np.diag(np.sqrt(j * (j + 1) - m * (m + 1)), -1)
    return (raising - raising.T) / 2j


def kicked_top(j1: float, j2: float, k: float, eps: float) -> np.ndarray:
    """Coupling . (torsion1 precession1 x torsion2 precession2), in the product Jz basis."""
    tops = [np.exp(-1j * k / (2 * j) * _m_values(j) ** 2)[:, None]
            * scipy.linalg.expm(-1j * math.pi / 2 * _jy(j)) for j in (j1, j2)]
    phases = np.exp(-1j * eps / math.sqrt(j1 * j2) * np.outer(_m_values(j1), _m_values(j2)))
    return phases.reshape(-1, 1) * np.kron(tops[0], tops[1])


def schmidt_lambdas(u: np.ndarray, n: int, m: int) -> np.ndarray:
    """Normalized operator Schmidt coefficients of u on C^n x C^m, descending."""
    x = u.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    lam = np.linalg.eigvalsh(x @ x.conj().T)[::-1] / (n * m)
    return np.clip(lam, 0.0, None)


def entropies(lam: np.ndarray) -> tuple[float, float]:
    nz = lam[lam > 0]
    return float(-np.sum(nz * np.log(nz))), float(1.0 - np.sum(lam**2))


def plateau(n: int, m: int) -> float:
    """Marchenko-Pastur entropy ln N^2 - 1/(2Q), Q = M^2 / N^2."""
    return math.log(n * n) - n * n / (2.0 * m * m)


def mp_density(x: np.ndarray, n: int, m: int) -> np.ndarray:
    """Marchenko-Pastur density of N^2 eigenvalues with mean 1/N^2 and ratio c = N^2/M^2."""
    c, mu = (n / m) ** 2, 1.0 / n**2
    lo, hi = mu * (1 - math.sqrt(c)) ** 2, mu * (1 + math.sqrt(c)) ** 2
    inside = (x > lo) & (x < hi)
    out = np.zeros_like(x)
    xi = x[inside]
    out[inside] = n**2 * np.sqrt((hi - xi) * (xi - lo)) / (2 * math.pi * c * mu * xi)
    return out


def _read_csv(path: Path) -> np.ndarray:
    rows = [line for line in path.read_text().splitlines()[1:] if not line.startswith("#")]
    return np.array([[float(v) for v in row.split(",")] for row in rows])


def check_sweep(out: Path, j: float, k: float, eps_values, n_max: int, stride: int) -> list[str]:
    errors = []
    dim = round(2 * j) + 1
    bound_v, bound_l = math.log(dim * dim), 1.0 - 1.0 / dim**2
    ns = np.arange(stride, n_max + 1, stride)
    tails = {}
    for eps in eps_values:
        path = out / f"sweep_k{k:g}_eps{eps:g}.csv"
        if not path.exists():
            return errors + [f"{path.name} missing"]
        rows = _read_csv(path)
        if rows.shape != (ns.size, 3) or not np.array_equal(rows[:, 0], ns):
            errors.append(f"{path.name}: rows are not n = {stride}..{n_max} step {stride}")
            continue
        sv, sl = rows[:, 1], rows[:, 2]
        if sv.min() < -NEG_TOL or sv.max() > bound_v + NEG_TOL:
            errors.append(f"{path.name}: S_V outside [0, ln N^2]")
        if sl.min() < -NEG_TOL or sl.max() > bound_l + NEG_TOL:
            errors.append(f"{path.name}: S_L outside [0, 1 - 1/N^2]")
        u = kicked_top(j, j, k, eps)
        for n in (stride, n_max):
            ref = entropies(schmidt_lambdas(np.linalg.matrix_power(u, n), dim, dim))
            got = rows[ns == n][0, 1:]
            if np.abs(got - ref).max() > 1e-8:
                errors.append(f"{path.name}: n={n} entropies {got} != {ref}")
        tails[eps] = float(sv[ns >= n_max / 2].mean())
    target = plateau(dim, dim)
    strong, weak = max(tails, default=None), min(tails, default=None)
    if strong is not None and abs(tails[strong] / target - 1) > 0.02:
        errors.append(f"eps={strong:g}: mean S_V {tails[strong]:.6f} not within 2% of {target:.6f}")
    if weak is not None and weak != strong and tails[weak] > target / 2:
        errors.append(f"eps={weak:g}: mean S_V {tails[weak]:.6f} not far below {target:.6f}")
    return errors


def check_spectrum(out: Path, stdout: str, j1: float, j2_values, k: float, eps: float,
                   window: tuple[int, int, int]) -> list[str]:
    errors = []
    n = round(2 * j1) + 1
    steps = len(range(window[0], window[1] + 1, window[2]))
    reports = dict(re.findall(r"j2=(\S+) .*fit_distance=(\S+)", stdout))
    for j2 in j2_values:
        m = round(2 * j2) + 1
        dump, hist = out / f"eigenvalues_j2_{j2:g}.txt", out / f"histogram_j2_{j2:g}.csv"
        if not (dump.exists() and hist.exists()):
            errors.append(f"j2={j2:g}: outputs missing")
            continue
        eigs = np.loadtxt(dump, comments="#")
        if eigs.size != n * n * steps:
            errors.append(f"{dump.name}: {eigs.size} values, expected {n * n * steps}")
            continue
        if eigs.min() < -NEG_TOL:
            errors.append(f"{dump.name}: negative eigenvalue {eigs.min():g}")
        if abs(eigs.sum() - steps) > 1e-9 or np.abs(eigs.reshape(steps, -1).sum(1) - 1).max() > 1e-9:
            errors.append(f"{dump.name}: sum rule violated, total {eigs.sum():.12g} != {steps}")
        ref = schmidt_lambdas(np.linalg.matrix_power(kicked_top(j1, j2, k, eps), window[1]), n, m)
        if np.abs(eigs[-n * n:] - ref).max() > 1e-8:
            errors.append(f"{dump.name}: n={window[1]} spectrum differs from matrix power")
        rows = _read_csv(hist)
        edges = np.append(rows[:, 0], rows[-1, 1])
        centers = (rows[:, 0] + rows[:, 1]) / 2
        density = mp_density(centers, n, m)
        if not np.allclose(rows[:, 3], density, rtol=1e-9, atol=1e-9 * density.max()):
            errors.append(f"{hist.name}: laguerre_density differs from Marchenko-Pastur")
        counts, _ = np.histogram(eigs, bins=edges)
        if not np.allclose(rows[:, 2], counts / np.diff(edges) / steps, rtol=1e-9):
            errors.append(f"{hist.name}: empirical_density differs from the dump's histogram")
        dist = reports.get(f"{j2:g}")
        if dist is None or not float(dist) <= 0.15:
            errors.append(f"j2={j2:g}: fit_distance {dist} missing or above 0.15")
    return errors


def check_diagonal(path: Path, j1: float, j2: float, alphas) -> list[str]:
    errors = []
    if not path.exists():
        return [f"{path} missing"]
    rows = _read_csv(path)
    if not np.allclose(rows[:, 0], alphas, rtol=0, atol=1e-12):
        return [f"{path}: alpha column is not {list(alphas)}"]
    ma, mc = _m_values(min(j1, j2)), _m_values(max(j1, j2))
    norm = ma.size * mc.size
    for alpha, sv, sl in rows:
        # the realigned diagonal unitary has one nonzero block: this phase matrix
        sigma = np.linalg.svd(np.exp(-1j * alpha * np.outer(ma, mc)), compute_uv=False)
        ref = entropies(sigma**2 / norm)
        if abs(sv - ref[0]) > 1e-10 or abs(sl - ref[1]) > 1e-10:
            errors.append(f"{path.name}: alpha={alpha:g} entropies ({sv}, {sl}) != {ref}")
    if np.abs(rows[rows[:, 0] == 0, 1:]).max() > 1e-12:
        errors.append(f"{path.name}: alpha=0 entropies are not 0")
    rotation = re.search(r"product rotation.*= (\S+)", path.read_text())
    if rotation is None or abs(float(rotation.group(1))) > 1e-12:
        errors.append(f"{path.name}: product-rotation entropy missing or not 0")
    return errors


def check_saturation(stdout: str, n: int, m: int) -> list[str]:
    found = re.search(r"saturation_estimate = (\S+)", stdout)
    if found is None:
        return [f"saturation N={n} M={m}: no estimate printed"]
    if abs(float(found.group(1)) - plateau(n, m)) > 1e-5:
        return [f"saturation N={n} M={m}: {found.group(1)} != {plateau(n, m):.6f}"]
    return []
