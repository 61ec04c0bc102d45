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
allowed) with command-line flags taking precedence; one table per subcommand
declares its flags, config keys and help, so another subcommand's flag or
key is an error. `sweep` and `spectrum` run their grid points through one
driver, `_run_points`, on a pool that it owns: OPENT_WORKERS processes,
capped by the point count and the usable CPUs, forked up front with
`os.fork`, each fed point names over one pipe and sending results back over
another, with one failure policy and one interrupt policy (see there).
Ctrl-C or SIGTERM stops a pool run with one line on stderr and exit code 130
or 143, and leaves no worker behind. A point's stem (`k6_eps0.5`, `j2_1.5`)
names its task, files and failure line.
Outputs are written atomically, each file a run will replace is named on
stderr by `_note_replaced` before the pool starts (`diagonal`: before its
first SVD), and outputs are byte-identical for any worker count at a fixed
BLAS thread count.

At module level this file imports only the standard library, so that the
`opent` entry point starts without numpy. Each subcommand imports the
compute modules it runs when it runs: `saturation` loads no numpy, and no
subcommand loads `multiprocessing`. `run_sweep` and `run_spectrum` import what
their pool workers run before the pool forks, so no worker imports a module
of its own. Before anything loads numpy, `main` sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless the user set any of them,
so each pool worker runs one BLAS thread.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_to_one_blas_thread() -> None:
    """Set each of BLAS_THREAD_VARS to 1 if none is set and numpy is not loaded yet.

    BLAS reads them once, when numpy loads, and pool workers inherit them.
    Each worker is one compute process, so more BLAS threads would only
    compete for its CPUs. A value the user set wins, and a process that
    already holds numpy keeps its environment as it is.
    """
    if "numpy" in sys.modules or any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


# The files that one grid point writes, named by its stem.
SWEEP_FILES = ("sweep_{}.csv",)
SPECTRUM_FILES = ("eigenvalues_{}.txt", "histogram_{}.csv")


def _sweep_stem(k: float, eps: float) -> str:
    return f"k{k:g}_eps{eps:g}"


def _spectrum_stem(j2: float) -> str:
    return f"j2_{j2:g}"


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
        from .kickedtop import KickedTopParams

        if not (self.n_max >= self.sample_stride >= 1):
            raise ValueError("need n_max >= sample_stride >= 1")
        if not self.k_values or not self.eps_values:
            raise ValueError("k and eps lists must be non-empty")
        grid = [(k, eps) for k in self.k_values for eps in self.eps_values]
        for k, eps in grid:
            KickedTopParams(self.j1, self.j2, k, k, eps)
        _reject_repeats(SWEEP_FILES[0].format(_sweep_stem(k, eps)) for k, eps in grid)


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
        from .kickedtop import KickedTopParams

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
        if not self.j2_values:
            raise ValueError("j2 list must be non-empty")
        for j2 in self.j2_values:
            KickedTopParams(self.j1, j2, self.k, self.k, self.eps)
        _reject_repeats(SPECTRUM_FILES[0].format(_spectrum_stem(j2)) for j2 in self.j2_values)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _row(values) -> str:
    return ",".join(map(_fmt, values))


def _worker_count(tasks: int) -> int:
    """Pool size: OPENT_WORKERS (default: usable CPUs), capped by tasks and usable CPUs.

    The usable CPUs are the process's affinity set where the OS reports one
    (under `taskset -c 0` that is 1, whatever `os.cpu_count()` says).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = os.environ.get("OPENT_WORKERS")
    try:
        requested = int(env) if env else cpus
    except ValueError:
        raise ValueError(f"OPENT_WORKERS must be an integer, got {env!r}") from None
    return max(1, min(requested, tasks, cpus))


def _tmp_path(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _atomic_write(path: Path, lines) -> None:
    tmp = _tmp_path(path)
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _note_replaced(paths) -> None:
    """Print `note: will replace PATH` on stderr for each of the paths that exists."""
    for path in paths:
        if path.exists():
            print(f"note: will replace {path}", file=sys.stderr)


def sweep_point(j1: float, j2: float, k: float, eps: float, n_max: int, stride: int):
    """Entropy time series [(n, S_V, S_L), ...] for one parameter point."""
    from .kickedtop import KickedTopParams, kicked_spectra
    from .schmidt import slin, svn

    spectra = kicked_spectra(KickedTopParams(j1, j2, k, k, eps), range(stride, n_max + 1, stride))
    return [(n, svn(spec), slin(spec)) for n, spec in spectra]


def _attempt(point, task):
    """point(task), or its exception as one line of text, since not every exception pickles."""
    try:
        return point(task)
    except Exception as exc:  # one failed point must not cost the rest of the grid
        return f"{type(exc).__name__}: {exc}"


def _send(fd: int, obj) -> None:
    """Write `obj` to the pipe `fd` as one message: its pickle's length in 8 bytes, then the pickle."""
    import pickle

    data = pickle.dumps(obj)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytearray:
    data = bytearray()
    while len(data) < size:
        if not (chunk := os.read(fd, size - len(data))):
            raise EOFError
        data += chunk
    return data


def _recv(fd: int):
    """Read one `_send` message from the pipe `fd`; EOFError if the pipe closes before it ends."""
    import pickle

    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _serve(task_fd: int, result_fd: int, point, tasks: dict, parent_fds, mask) -> None:
    """A pool worker: run the task that each name read from `task_fd` names; write its result to `result_fd`.

    It ignores SIGINT, which the parent acts on, dies of SIGTERM, and then
    takes the parent's signal mask from before the fork. It closes its copies
    of the parent's pipe ends, those of the other workers included, so that
    it reads EOF, and returns, once the parent closes its end or dies. It
    flushes sys.stdout and sys.stderr before it returns, since the worker
    then leaves through `os._exit`.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    for fd in parent_fds:
        os.close(fd)
    with suppress(EOFError, OSError):
        while True:
            _send(result_fd, _attempt(point, tasks[_recv(task_fd)]))
    sys.stdout.flush()
    sys.stderr.flush()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _run_points(kind: str, point, tasks: dict, out: Path, files, cost=lambda task: 0,
                report=lambda result: None) -> list:
    """Run `point` on each task of {point name: task} on the pool; return the results in task order.

    The pool is sized, and each file under `out` that a point will replace
    (`files`, formatted with its name) is named on stderr, before the output
    directory is made (a point that then fails keeps its old files). The
    workers are forked up front with `os.fork` and inherit `point` and
    `tasks`; each runs the names that its own pipe sends it, and sends each
    result back on a second pipe, until the parent closes its pipes. The
    costliest remaining task goes to the next idle worker, so that the
    longest one does not start last. Results go to `report` in task order.
    A failed point is reported on stderr as one line that names it and the
    rest of the grid still runs; then this raises. A worker that dies fails
    only its own point, as "worker died", and is replaced while tasks remain.
    Every worker is reaped before this returns or raises.

    On KeyboardInterrupt, or on SIGTERM (which raises SystemExit(143) here),
    the results that workers have already sent are read, the workers are
    killed and reaped, the `.tmp` file of each point cut off is removed, one
    line on stderr names the points written, and the exception goes on. The
    previous SIGTERM handler is restored on return.
    """
    import select
    import signal

    queue = sorted(tasks, key=lambda name: -cost(tasks[name]))
    # result pipe -> (worker pid, task pipe), result pipe -> name, name -> result
    workers, running, outcomes = {}, {}, {}

    def start():  # fork one worker; SIGINT and SIGTERM wait until it is registered
        (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
        parent_fds = [task_w, result_r, *workers, *(task for _, task in workers.values())]
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            sys.stdout.flush()
            sys.stderr.flush()
            if (pid := os.fork()) == 0:
                try:
                    _serve(task_r, result_w, point, tasks, parent_fds, held)
                finally:
                    os._exit(0)
            workers[result_r] = pid, task_w
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        os.close(task_r)
        os.close(result_w)
        return result_r

    def retire(end):  # the worker reads EOF and exits, unless it is dead already; reap it
        pid, task = workers.pop(end)
        os.close(task)
        os.close(end)
        os.waitpid(pid, 0)

    def assign(end):  # the costliest remaining task, or closed pipes once none remains
        if queue:
            running[end] = queue.pop(0)
            with suppress(OSError):  # a dead worker fails this point once its pipe reads EOF
                _send(workers[end][1], running[end])
        else:
            retire(end)

    def stop():  # kill and reap the workers left
        for end in list(workers):
            os.kill(workers[end][0], signal.SIGKILL)
            retire(end)

    count = _worker_count(len(tasks))
    _note_replaced(Path(out) / file.format(name) for name in tasks for file in files)
    Path(out).mkdir(parents=True, exist_ok=True)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        for _ in range(count):
            assign(start())
        while running:
            for end in select.select(list(running), [], [])[0]:
                name = running.pop(end)
                try:
                    outcomes[name] = _recv(end)
                except (EOFError, OSError):  # its worker died
                    outcomes[name] = "worker died"
                    retire(end)
                    if queue:
                        assign(start())
                else:
                    assign(end)
    except (KeyboardInterrupt, SystemExit):
        for end in select.select(list(running), [], [], 0)[0]:  # results sent before the signal
            with suppress(EOFError, OSError):
                outcomes[running[end]] = _recv(end)
        stop()
        for name in running.values():
            for file in files:
                _tmp_path(Path(out) / file.format(name)).unlink(missing_ok=True)
        written = [name for name in tasks if not isinstance(outcomes.get(name, ""), str)]
        print(f"error: interrupted: {len(written)} of {len(tasks)} {kind} points written "
              f"({', '.join(written)})", file=sys.stderr)
        raise
    finally:
        stop()
        signal.signal(signal.SIGTERM, previous)
    results = []
    for name in tasks:
        if isinstance(result := outcomes[name], str):
            print(f"error: {kind} point {name}: {result}", file=sys.stderr)
        else:
            report(result)
            results.append(result)
    if len(results) < len(tasks):
        raise RuntimeError(f"{len(tasks) - len(results)} of {len(tasks)} {kind} points failed")
    return results


def _try_sweep_point(args) -> Path:
    """Write one sweep CSV and return its path."""
    cfg, k, eps = args
    rows = sweep_point(cfg.j1, cfg.j2, k, eps, cfg.n_max, cfg.sample_stride)
    path = Path(cfg.output_dir) / SWEEP_FILES[0].format(_sweep_stem(k, eps))
    _atomic_write(path, ["n,S_V,S_L", *map(_row, rows)])
    return path


def run_sweep(cfg: SweepConfig) -> list[Path]:
    """Write one `n,S_V,S_L` CSV per (k, eps) point; returns written paths (see `_run_points`)."""
    from . import kickedtop, schmidt  # noqa: F401  what the workers run, loaded before they fork

    tasks = {_sweep_stem(k, eps): (cfg, k, eps) for k in cfg.k_values for eps in cfg.eps_values}
    return _run_points("sweep", _try_sweep_point, tasks, cfg.output_dir, SWEEP_FILES)


def _run_spectrum_point(args):
    import numpy as np

    from .kickedtop import KickedTopParams, kicked_spectra
    from .rmt import LaguerreLaw, fit_distance, histogram, laguerre_density

    cfg, j2 = args
    params = KickedTopParams(cfg.j1, j2, cfg.k, cfg.k, cfg.eps)
    n_dim, m_dim = params.top1.dim, params.top2.dim
    law = LaguerreLaw.from_dims(n_dim, m_dim)
    n_start, n_end, stride = cfg.saturation_window
    spectra = kicked_spectra(params, range(n_start, n_end + 1, stride))
    # normalized operator-RDM eigenvalues aggregated over the window
    eigs = np.concatenate([spec.normalized for _, spec in spectra])
    n_steps = eigs.size // n_dim**2

    out, stem = Path(cfg.output_dir), _spectrum_stem(j2)
    eig_path, hist_path = (out / name.format(stem) for name in SPECTRUM_FILES)
    header = [f"# N={n_dim} M={m_dim} Q={law.q:.12g}",
              f"# k={cfg.k:g} eps={cfg.eps:g} window={cfg.saturation_window} steps={n_steps}"]
    _atomic_write(eig_path, [*header, *map(_fmt, eigs)])

    support = (0.0, 1.05 * law.lambda_max)
    h = histogram(eigs, cfg.bins, support)
    # per-time-step density, comparable with the law's total mass N^2
    heights = h.heights / n_steps
    predicted = laguerre_density(law, h.centers)
    _atomic_write(hist_path, ["bin_left,bin_right,empirical_density,laguerre_density",
                              *map(_row, zip(h.bin_edges[:-1], h.bin_edges[1:], heights, predicted))])

    # eigenvalues the histogram drops; per step this is the lost mass over N^2
    outside = np.count_nonzero((eigs < support[0]) | (eigs > support[1])) / eigs.size
    dist = fit_distance(type(h)(h.bin_edges, heights), law) + outside
    report = (
        f"j2={j2:g} N={n_dim} M={m_dim} Q={law.q:.6g} "
        f"steps={n_steps} fit_distance={dist:.6g} outside={outside:.6g}"
    )
    return eig_path, hist_path, report, dist


def run_spectrum(cfg: SpectrumConfig) -> list[tuple[Path, Path, str, float]]:
    """Per j2, largest first: eigenvalue dump, histogram CSV and fit-distance report (`_run_points`)."""
    from . import kickedtop, rmt  # noqa: F401  what the workers run, loaded before they fork

    tasks = {_spectrum_stem(j2): (cfg, j2) for j2 in cfg.j2_values}
    return _run_points("spectrum", _run_spectrum_point, tasks, cfg.output_dir, SPECTRUM_FILES,
                       cost=lambda task: task[1], report=lambda result: print(result[2]))


def run_diagonal(j1: float = 10.0, j2: float = 10.0,
                 alpha_values=(0.0, 0.1, 0.5, 1.0, 2.0),
                 output_path: Path = Path("out/diagonal.csv")) -> Path:
    """CSV of operator entanglement of exp(-i alpha Jz x Jz) at each alpha.

    The spins may come in either order; the smaller one is top 1. Each alpha
    must keep the largest phase |alpha| j1 j2 of alpha m1 m2 finite. An
    existing output file is named on stderr once these are checked, before
    the first SVD. Each spectrum, and that of the product rotation in the
    closing comment, must meet the sum rule.
    """
    from .schmidt import BipartitionDims, schmidt_spectrum, slin, svn
    from .spin import SpinSystem, check_phase, rotation_phases, zz_phases

    alphas = list(alpha_values)
    if not alphas:
        raise ValueError("alpha list must be non-empty")
    s1, s2 = sorted((SpinSystem.from_j(j1), SpinSystem.from_j(j2)), key=lambda s: s.dim)
    for alpha in alphas:
        check_phase("alpha", alpha, s1.j * s2.j, "coupling phase |alpha| j1 j2")
    if 0.0 not in alphas:
        alphas = [0.0] + alphas
    dims, output_path = BipartitionDims(s1.dim, s2.dim), Path(output_path)
    _note_replaced([output_path])
    lines = ["alpha,S_V,S_L"]
    for alpha in alphas:
        spec = schmidt_spectrum(zz_phases(s1, s2, alpha), dims)
        spec.check_sum_rule(f"alpha={alpha:g}")
        lines.append(_row((alpha, svn(spec), slin(spec))))
    spec = schmidt_spectrum(rotation_phases(s1, s2, 0.7), dims)
    spec.check_sum_rule("the product rotation")
    lines.append(f"# S_V(product rotation, p=0.7) = {_fmt(svn(spec))}")
    output_path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(output_path, lines)
    return output_path


def run_saturation(n_small: int, m_big: int) -> str:
    """Report the closed-form plateau estimate next to ln(0.6 N^2) and ln N^2."""
    from .rmt import saturation_estimate

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


# Per subcommand: flag (also its config-file key) -> (keyword argument, parser, help).
# Keys set neither in the file nor by a flag keep the target's defaults.
_SWEEP_FLAGS = {
    "j1": ("j1", float, "spin of the first top"),
    "j2": ("j2", float, "spin of the second top"),
    "k": ("k_values", _floats, "kick strengths, comma-separated"),
    "eps": ("eps_values", _floats, "coupling strengths, comma-separated"),
    "nmax": ("n_max", int, "number of time steps"),
    "stride": ("sample_stride", int, "sampling stride"),
    "out": ("output_dir", Path, "output directory"),
}
_SPECTRUM_FLAGS = {
    "j1": ("j1", float, "spin of the first top"),
    "j2": ("j2_values", _floats, "spins of the second top, comma-separated"),
    "k": ("k", float, "kick strength"),
    "eps": ("eps", float, "coupling strength"),
    "window": ("saturation_window", _ints, "saturation window as start,end,stride"),
    "bins": ("bins", int, "histogram bin count"),
    "out": ("output_dir", Path, "output directory"),
}
_DIAGONAL_FLAGS = {
    "j1": ("j1", float, "spin of the first top"),
    "j2": ("j2", float, "spin of the second top"),
    "alpha": ("alpha_values", _floats, "alpha values, comma-separated"),
    "out": ("output_path", lambda text: Path(text) / "diagonal.csv", "output directory"),
}


def _kwargs(args, flags) -> dict:
    """Keyword arguments from the config file and flag overrides; unset ones keep defaults."""
    values = load_config(args.config) if args.config else {}
    if unknown := sorted(values.keys() - flags.keys()):
        raise ValueError(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
    values.update({f: getattr(args, f) for f in flags if getattr(args, f) is not None})
    return {field: parse(values[f]) for f, (field, parse, _) in flags.items() if f in values}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opent")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags, text in (
        ("sweep", _SWEEP_FLAGS, "entropy vs time step over a grid"),
        ("spectrum", _SPECTRUM_FLAGS, "operator-RDM spectra vs RMT law"),
        ("diagonal", _DIAGONAL_FLAGS, "entanglement of exp(-i a Jz x Jz)"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", type=Path, help="key=value config file")
        for flag, (_, _, text) in flags.items():
            p.add_argument(f"--{flag}", help=text)

    p = sub.add_parser("saturation", help="Laguerre-law entropy plateau estimate")
    p.add_argument("--n", required=True, help="smaller subsystem dimension N")
    p.add_argument("--m", required=True, help="larger subsystem dimension M")
    return parser


def main(argv=None) -> int:
    default_to_one_blas_thread()
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
    except KeyboardInterrupt:  # a pool run has named the points it wrote
        return 130  # 128 + SIGINT, as a shell reports it
    return 0


if __name__ == "__main__":
    sys.exit(main())
