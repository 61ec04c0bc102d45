"""Reproduction driver: parameter sweeps and spectral comparisons as CSV files.

Subcommands:
  sweep       operator entropies of U_T^n over a (k, eps) grid -> one CSV per point
  spectrum    operator-RDM eigenvalues at saturation vs the Laguerre law
  diagonal    operator entanglement of exp(-i alpha Jz x Jz) vs alpha
  saturation  closed-form entropy plateau of the Laguerre law

`sweep` and `spectrum` read their Schmidt spectra of U_T^n over a range of
n from `kickedtop.kicked_spectra`. `diagonal` hands the diagonals of
exp(-i alpha Jz x Jz) and of a product rotation to `schmidt_spectrum` as
vectors, so each spectrum is one SVD of an N x M phase matrix, and holds
each to the sum rule. Every grid point is validated by building its
`KickedTopParams` (`diagonal`: its `SpinSystem`s), and windows, alphas and
OPENT_WORKERS are checked, before any output is written.
Parameters come from an optional `key=value` config file (# comments
allowed; a key that is not one of the subcommand's flags is an error) with
command-line flags taking precedence. Independent grid points run on a
process pool of OPENT_WORKERS processes, capped by the point and CPU counts;
outputs are written atomically and are byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kickedtop import KickedTopParams, kicked_spectra, rotation_phases, zz_phases
from .rmt import LaguerreLaw, fit_distance, histogram, laguerre_density, saturation_estimate
from .schmidt import BipartitionDims, schmidt_spectrum, slin, svn
from .spin import SpinSystem


def _sweep_name(k: float, eps: float) -> str:
    return f"sweep_k{k:g}_eps{eps:g}.csv"


def _reject_repeats(names) -> None:
    """Fail if two grid points would write the same output file."""
    names = list(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"two grid points would both write {name}")


@dataclass(frozen=True)
class SweepConfig:
    j1: float = 10.0
    j2: float = 10.0
    k_values: tuple[float, ...] = (1.0, 2.0, 3.0, 6.0)
    eps_values: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 1.0)
    n_max: int = 1000
    sample_stride: int = 5
    output_dir: Path = Path("out")

    def __post_init__(self):
        if not (self.n_max >= self.sample_stride >= 1):
            raise ValueError("need n_max >= sample_stride >= 1")
        if not self.k_values or not self.eps_values:
            raise ValueError("k and eps lists must be non-empty")
        _reject_repeats(_sweep_name(k, eps) for k in self.k_values for eps in self.eps_values)
        for k in self.k_values:
            for eps in self.eps_values:
                KickedTopParams(self.j1, self.j2, k, k, eps)


@dataclass(frozen=True)
class SpectrumConfig:
    j1: float = 10.0
    j2_values: tuple[float, ...] = (10.0, 15.0, 20.0)
    k: float = 6.0
    eps: float = 1.0
    saturation_window: tuple[int, int, int] = (200, 1000, 40)
    bins: int = 25
    output_dir: Path = Path("out")

    def __post_init__(self):
        if len(self.saturation_window) != 3:
            window = ",".join(map(str, self.saturation_window))
            raise ValueError(f"window must be start,end,stride, got {window}")
        n_start, n_end, stride = self.saturation_window
        if n_start < 1:
            raise ValueError(f"window start must be a positive step, got {n_start}")
        if not n_start < n_end:
            raise ValueError("window start must precede end")
        if stride < 1:
            raise ValueError("window stride must be positive")
        if self.bins < 5:
            raise ValueError("need at least 5 bins")
        _reject_repeats(f"eigenvalues_j2_{j2:g}.txt" for j2 in self.j2_values)
        for j2 in self.j2_values:
            KickedTopParams(self.j1, j2, self.k, self.k, self.eps)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _worker_count(tasks: int) -> int:
    """Pool size: OPENT_WORKERS (default: cpu count), capped by tasks and cpu count."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("OPENT_WORKERS")
    try:
        requested = int(env) if env else cpus
    except ValueError:
        raise ValueError(f"OPENT_WORKERS must be an integer, got {env!r}") from None
    return max(1, min(requested, tasks, cpus))


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def sweep_point(j1: float, j2: float, k: float, eps: float, n_max: int, stride: int):
    """Entropy time series [(n, S_V, S_L), ...] for one parameter point."""
    spectra = kicked_spectra(KickedTopParams(j1, j2, k, k, eps), range(stride, n_max + 1, stride))
    return [(n, svn(spec), slin(spec)) for n, spec in spectra]


def _try_sweep_point(args):
    """Write one sweep CSV; return its path, or a one-line failure message."""
    cfg, k, eps = args
    try:
        rows = sweep_point(cfg.j1, cfg.j2, k, eps, cfg.n_max, cfg.sample_stride)
        lines = ["n,S_V,S_L"]
        lines += [f"{n},{_fmt(sv)},{_fmt(sl)}" for n, sv, sl in rows]
        path = Path(cfg.output_dir) / _sweep_name(k, eps)
        _atomic_write(path, "\n".join(lines) + "\n")
        return path
    except Exception as exc:  # one failed point must not cost the rest of the grid
        return f"sweep point k={k:g} eps={eps:g}: {type(exc).__name__}: {exc}"


def run_sweep(cfg: SweepConfig) -> list[Path]:
    """Write one `n,S_V,S_L` CSV per (k, eps) point; returns written paths.

    A failure at one point is reported on stderr and the other points
    still complete. Raises after the grid if any point failed, or if the
    output directory is unusable.
    """
    tasks = [(cfg, k, eps) for k in cfg.k_values for eps in cfg.eps_values]
    workers = _worker_count(len(tasks))
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_try_sweep_point, tasks))
    failures = [r for r in results if isinstance(r, str)]
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if failures:
        raise RuntimeError(f"{len(failures)} of {len(tasks)} sweep points failed")
    return results


def spectrum_eigenvalues(j1: float, j2: float, k: float, eps: float,
                         window: tuple[int, int, int]) -> np.ndarray:
    """Normalized operator-RDM eigenvalues aggregated over the window."""
    n_start, n_end, stride = window
    spectra = kicked_spectra(KickedTopParams(j1, j2, k, k, eps), range(n_start, n_end + 1, stride))
    return np.concatenate([spec.normalized for _, spec in spectra])


def _run_spectrum_point(args):
    cfg, j2 = args
    n_dim = SpinSystem.from_j(cfg.j1).dim
    m_dim = SpinSystem.from_j(j2).dim
    law = LaguerreLaw.from_dims(n_dim, m_dim)
    eigs = spectrum_eigenvalues(cfg.j1, j2, cfg.k, cfg.eps, cfg.saturation_window)
    n_steps = eigs.size // n_dim**2

    out = Path(cfg.output_dir)
    eig_path = out / f"eigenvalues_j2_{j2:g}.txt"
    header = (
        f"# N={n_dim} M={m_dim} Q={law.q:.12g}\n"
        f"# k={cfg.k:g} eps={cfg.eps:g} window={cfg.saturation_window} steps={n_steps}\n"
    )
    _atomic_write(eig_path, header + "\n".join(_fmt(x) for x in eigs) + "\n")

    support = (0.0, 1.05 * law.lambda_max)
    h = histogram(eigs, cfg.bins, support)
    # per-time-step density, comparable with the law's total mass N^2
    heights = h.heights / n_steps
    predicted = laguerre_density(law, h.centers)
    lines = ["bin_left,bin_right,empirical_density,laguerre_density"]
    for i in range(cfg.bins):
        lines.append(
            f"{_fmt(h.bin_edges[i])},{_fmt(h.bin_edges[i + 1])},"
            f"{_fmt(heights[i])},{_fmt(predicted[i])}"
        )
    hist_path = out / f"histogram_j2_{j2:g}.csv"
    _atomic_write(hist_path, "\n".join(lines) + "\n")

    # eigenvalues the histogram drops; per step this is the lost mass over N^2
    outside = np.count_nonzero((eigs < support[0]) | (eigs > support[1])) / eigs.size
    dist = fit_distance(type(h)(h.bin_edges, heights), law) + outside
    report = (
        f"j2={j2:g} N={n_dim} M={m_dim} Q={law.q:.6g} "
        f"steps={n_steps} fit_distance={dist:.6g} outside={outside:.6g}"
    )
    return eig_path, hist_path, report, dist


def run_spectrum(cfg: SpectrumConfig) -> list[tuple[Path, Path, str, float]]:
    """Per j2: eigenvalue dump, histogram CSV and a fit-distance report line."""
    tasks = [(cfg, j2) for j2 in cfg.j2_values]
    workers = _worker_count(len(tasks))
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_run_spectrum_point, tasks))
    for _, _, report, _ in results:
        print(report)
    return results


def run_diagonal(j1: float = 10.0, j2: float = 10.0,
                 alpha_values=(0.0, 0.1, 0.5, 1.0, 2.0),
                 output_path: Path = Path("out/diagonal.csv")) -> Path:
    """CSV of operator entanglement of exp(-i alpha Jz x Jz) at each alpha.

    The spins may come in either order; the smaller one is top 1. Each
    spectrum, and that of the product rotation in the closing comment, must
    meet the sum rule.
    """
    alphas = list(alpha_values)
    if not alphas:
        raise ValueError("alpha list must be non-empty")
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha:g}")
    s1, s2 = sorted((SpinSystem.from_j(j1), SpinSystem.from_j(j2)), key=lambda s: s.dim)
    if 0.0 not in alphas:
        alphas = [0.0] + alphas
    dims = BipartitionDims(s1.dim, s2.dim)
    lines = ["alpha,S_V,S_L"]
    for alpha in alphas:
        spec = schmidt_spectrum(zz_phases(s1, s2, alpha), dims)
        spec.check_sum_rule(f"alpha={alpha:g}")
        lines.append(f"{_fmt(alpha)},{_fmt(svn(spec))},{_fmt(slin(spec))}")
    spec = schmidt_spectrum(rotation_phases(s1, s2, 0.7), dims)
    spec.check_sum_rule("the product rotation")
    lines.append(f"# S_V(product rotation, p=0.7) = {_fmt(svn(spec))}")
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(output_path, "\n".join(lines) + "\n")
    return output_path


def run_saturation(n_small: int, m_big: int) -> str:
    """Report the closed-form plateau estimate next to ln(0.6 N^2) and ln N^2."""
    est = saturation_estimate(n_small, m_big)
    report = (
        f"N={n_small} M={m_big} Q={(m_big / n_small) ** 2:.6g}\n"
        f"saturation_estimate = {est:.6f}\n"
        f"ln(0.6 N^2)         = {math.log(0.6 * n_small**2):.6f}\n"
        f"ln(N^2)             = {math.log(n_small**2):.6f}"
    )
    print(report)
    return report


# --- configuration plumbing -------------------------------------------------


def load_config(path: Path) -> dict[str, str]:
    """Parse `key=value` lines; blank lines and # comments are skipped."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# Per subcommand: flag (also its config-file key) -> (keyword argument, parser).
# Keys set neither in the file nor by a flag keep the target's defaults.
_SWEEP_FLAGS = {
    "j1": ("j1", float), "j2": ("j2", float),
    "k": ("k_values", _floats), "eps": ("eps_values", _floats),
    "nmax": ("n_max", int), "stride": ("sample_stride", int),
    "out": ("output_dir", Path),
}
_SPECTRUM_FLAGS = {
    "j1": ("j1", float), "j2": ("j2_values", _floats),
    "k": ("k", float), "eps": ("eps", float),
    "window": ("saturation_window", _ints), "bins": ("bins", int),
    "out": ("output_dir", Path),
}
_DIAGONAL_FLAGS = {
    "j1": ("j1", float), "j2": ("j2", float), "alpha": ("alpha_values", _floats),
    "out": ("output_path", lambda text: Path(text) / "diagonal.csv"),
}


def _kwargs(args, flags) -> dict:
    """Keyword arguments from the config file and flag overrides; unset ones keep defaults."""
    values = load_config(args.config) if args.config else {}
    if unknown := sorted(values.keys() - flags.keys()):
        raise ValueError(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
    values.update({f: getattr(args, f) for f in flags if getattr(args, f) is not None})
    return {field: parse(values[f]) for f, (field, parse) in flags.items() if f in values}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opent")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key=value config file")
    common.add_argument("--j1", help="spin of the first top")
    common.add_argument("--j2", help="spin of the second top (comma list for spectrum)")
    common.add_argument("--k", help="kick strength(s), comma-separated")
    common.add_argument("--eps", help="coupling strength(s), comma-separated")
    common.add_argument("--out", help="output directory")

    p = sub.add_parser("sweep", parents=[common], help="entropy vs time step over a grid")
    p.add_argument("--nmax", help="number of time steps")
    p.add_argument("--stride", help="sampling stride")

    p = sub.add_parser("spectrum", parents=[common], help="operator-RDM spectra vs RMT law")
    p.add_argument("--window", help="saturation window as start,end,stride")
    p.add_argument("--bins", help="histogram bin count")

    p = sub.add_parser("diagonal", parents=[common], help="entanglement of exp(-i a Jz x Jz)")
    p.add_argument("--alpha", help="alpha values, comma-separated")

    p = sub.add_parser("saturation", help="Laguerre-law entropy plateau estimate")
    p.add_argument("--n", required=True, help="smaller subsystem dimension N")
    p.add_argument("--m", required=True, help="larger subsystem dimension M")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            run_sweep(SweepConfig(**_kwargs(args, _SWEEP_FLAGS)))
        elif args.command == "spectrum":
            run_spectrum(SpectrumConfig(**_kwargs(args, _SPECTRUM_FLAGS)))
        elif args.command == "diagonal":
            run_diagonal(**_kwargs(args, _DIAGONAL_FLAGS))
        elif args.command == "saturation":
            run_saturation(int(args.n), int(args.m))
    except Exception as exc:  # one machine-parseable line, nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
