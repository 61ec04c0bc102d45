import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext, suppress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opent import (
    BipartitionDims, KickedTopParams, UnitarityDriftError, cli, floquet, kickedtop, schmidt,
    schmidt_spectrum,
)
from opent.rmt import Histogram, LaguerreLaw, fit_distance


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "opent.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return header, rows


def test_load_config(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("# comment\nj1 = 2\nk=1,6  # inline\n\neps=0.1\n")
    assert cli.load_config(f) == {"j1": "2", "k": "1,6", "eps": "0.1"}


def test_load_config_malformed(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("j1 2\n")
    with pytest.raises(ValueError, match="malformed"):
        cli.load_config(f)


def test_sweep_config_validation(tmp_path):
    with pytest.raises(ValueError):
        cli.SweepConfig(n_max=2, sample_stride=5)
    with pytest.raises(ValueError):
        cli.SweepConfig(k_values=())
    with pytest.raises(ValueError):
        cli.SweepConfig(j1=3, j2=2)


def test_spectrum_config_validation():
    with pytest.raises(ValueError):
        cli.SpectrumConfig(saturation_window=(10, 5, 1))
    with pytest.raises(ValueError):
        cli.SpectrumConfig(bins=3)


def test_run_sweep_files_and_content(tmp_path):
    cfg = cli.SweepConfig(
        j1=1, j2=1, k_values=(1.0, 6.0), eps_values=(0.0, 0.5),
        n_max=20, sample_stride=4, output_dir=tmp_path,
    )
    paths = cli.run_sweep(cfg)
    assert {p.name for p in paths} == {
        "sweep_k1_eps0.csv", "sweep_k1_eps0.5.csv",
        "sweep_k6_eps0.csv", "sweep_k6_eps0.5.csv",
    }
    header, rows = read_csv(tmp_path / "sweep_k6_eps0.5.csv")
    assert header == ["n", "S_V", "S_L"]
    assert [int(r[0]) for r in rows] == [4, 8, 12, 16, 20]
    # zero coupling -> product operator -> zero entropy at every step
    _, rows0 = read_csv(tmp_path / "sweep_k6_eps0.csv")
    assert all(abs(float(r[1])) < 1e-10 for r in rows0)


def test_run_sweep_deterministic_across_workers(tmp_path, monkeypatch):
    cfg = cli.SweepConfig(
        j1=1.5, j2=1.5, k_values=(2.0, 3.0), eps_values=(0.1, 1.0),
        n_max=12, sample_stride=3, output_dir=tmp_path / "a",
    )
    monkeypatch.setenv("OPENT_WORKERS", "1")
    cli.run_sweep(cfg)
    monkeypatch.setenv("OPENT_WORKERS", "2")
    cfg2 = cli.SweepConfig(
        j1=1.5, j2=1.5, k_values=(2.0, 3.0), eps_values=(0.1, 1.0),
        n_max=12, sample_stride=3, output_dir=tmp_path / "b",
    )
    cli.run_sweep(cfg2)
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_spectrum_outputs(tmp_path):
    cfg = cli.SpectrumConfig(
        j1=1, j2_values=(1.0, 2.0), k=6.0, eps=1.0,
        saturation_window=(4, 20, 4), bins=5, output_dir=tmp_path,
    )
    results = cli.run_spectrum(cfg)
    assert len(results) == 2
    eig_path, hist_path, report, dist = results[0]
    lines = eig_path.read_text().splitlines()
    assert lines[0].startswith("# N=3 M=3 Q=1")
    values = np.array([float(x) for x in lines if not x.startswith("#")])
    n_sq = 9
    assert values.size == 5 * n_sq  # 5 window samples, n^2 eigenvalues each
    assert np.all((values >= 0) & (values <= 1))
    # each time step's normalized spectrum sums to 1
    sums = values.reshape(5, n_sq).sum(axis=1)
    np.testing.assert_allclose(sums, 1, atol=1e-8)
    header, rows = read_csv(hist_path)
    assert header == ["bin_left", "bin_right", "empirical_density", "laguerre_density"]
    assert len(rows) == 5
    assert "fit_distance=" in report


def test_run_diagonal(tmp_path):
    path = cli.run_diagonal(2, 2, [0.3, 0.0], tmp_path / "diagonal.csv")
    text = path.read_text()
    header, rows = read_csv(path)
    assert header == ["alpha", "S_V", "S_L"]
    by_alpha = {float(r[0]): float(r[1]) for r in rows}
    assert by_alpha[0.0] == pytest.approx(0, abs=1e-10)
    assert by_alpha[0.3] > 1e-4
    # the product rotation check rides along as a comment
    comment = [l for l in text.splitlines() if l.startswith("#")]
    assert len(comment) == 1
    assert float(comment[0].rsplit("=", 1)[1]) < 1e-10


def test_run_saturation_report(capsys):
    report = cli.run_saturation(21, 21)
    assert f"{math.log(0.6 * 441):.6f}" in report
    assert "saturation_estimate = 5.58" in report


def test_cli_sweep_with_config_and_override(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("j1=1\nj2=1\nk=1\neps=0\nnmax=50\nstride=10\n")
    out = tmp_path / "out"
    res = run_cli(["sweep", "--config", str(cfg), "--nmax", "20", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out / "sweep_k1_eps0.csv")
    assert len(rows) == 2  # nmax flag overrode the config file


@pytest.mark.parametrize("args, names", [
    (["sweep", "--j1", "1", "--j2", "1", "--k", "1,6", "--eps", "0.1", "--nmax", "6", "--stride", "3"],
     ["sweep_k1_eps0.1.csv", "sweep_k6_eps0.1.csv"]),
    (["spectrum", "--j1", "1", "--j2", "1", "--window", "2,10,4"],
     ["eigenvalues_j2_1.txt", "histogram_j2_1.csv"]),
    (["diagonal", "--j1", "1", "--j2", "1.5", "--alpha", "0.3"], ["diagonal.csv"]),
])
def test_a_run_names_each_output_file_it_replaces(tmp_path, args, names):
    out = tmp_path / "out"
    first = run_cli([*args, "--out", str(out)])
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    second = run_cli([*args, "--out", str(out)])
    assert first.returncode == second.returncode == 0, second.stderr
    assert first.stderr == ""  # a fresh directory: nothing to replace
    assert second.stderr == "".join(f"note: will replace {out / name}\n" for name in names)
    assert second.stdout == first.stdout
    assert sorted(written) == sorted(names)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_cli_saturation_subcommand():
    res = run_cli(["saturation", "--n", "21", "--m", "21"])
    assert res.returncode == 0
    assert "saturation_estimate" in res.stdout


def test_cli_error_is_one_line_nonzero(tmp_path):
    res = run_cli(["sweep", "--j1", "3", "--j2", "2", "--out", str(tmp_path)])
    assert res.returncode == 1
    err_lines = [l for l in res.stderr.splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error:")


@pytest.mark.parametrize("n, m", [("0", "5"), ("-1", "5"), ("6", "5")])
def test_cli_saturation_names_a_bad_dimension(n, m):
    res = run_cli(["saturation", "--n", n, "--m", m])
    assert res.returncode == 1
    assert res.stderr == f"error: ValueError: 1 <= N <= M required, got N={n}, M={m}\n"


def test_cli_unknown_config_key_fails_before_any_output(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("j1=1\nj2=1\nk=1\neps=0\nnmx=3\nstride=1\n")
    res = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert res.stderr == f"error: ValueError: unknown config key(s) in {cfg}: nmx\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--j1", "10.3", "--j2", "10.3", "--k", "6", "--eps", "1", "--nmax", "2", "--stride", "1"],
    ["sweep", "--j1", "0", "--j2", "1", "--k", "6", "--eps", "1", "--nmax", "2", "--stride", "1"],
    ["spectrum", "--j1", "1", "--j2", "1,0.5", "--window", "2,4,2", "--bins", "5"],
    ["spectrum", "--j1", "1", "--j2", "1.25", "--window", "2,4,2", "--bins", "5"],
    ["spectrum", "--j1", "0.5", "--j2", "0.5", "--window", "0,8,4", "--bins", "5"],
    ["diagonal", "--j1", "0", "--j2", "1", "--alpha", "0.5"],
    ["diagonal", "--j1", "1.3", "--j2", "1", "--alpha", "0.5"],
    ["sweep", "--j1", "inf", "--j2", "inf", "--k", "6", "--eps", "1", "--nmax", "2", "--stride", "1"],
    ["diagonal", "--j1", "inf", "--j2", "1", "--alpha", "0.5"],
    ["sweep", "--j1", "1", "--j2", "1", "--k", "nan", "--eps", "1", "--nmax", "2", "--stride", "1"],
    ["spectrum", "--j1", "1", "--j2", "1", "--k", "inf", "--window", "2,4,2", "--bins", "5"],
    ["spectrum", "--j1", "1", "--j2", "1", "--eps", "nan", "--window", "2,4,2", "--bins", "5"],
    ["sweep", "--j1", "10", "--j2", "10", "--k", "1e308", "--eps", "1", "--nmax", "2", "--stride", "1"],
    ["spectrum", "--j1", "10", "--j2", "20", "--eps", "1e308", "--window", "2,4,2", "--bins", "5"],
    ["spectrum", "--j1", "1", "--j2", "1", "--window", "2,10,0"],  # window stride must be positive
])
def test_cli_bad_spin_or_window_fails_before_any_work(tmp_path, args):
    res = run_cli([*args, "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ValueError:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["sweep", "--k", "nan,nan", "--nmax", "2", "--stride", "1"], "k1 must be finite, got nan"),
    (["sweep", "--k", "1e308,1e308", "--nmax", "2", "--stride", "1"],
     "k1=1e+308 overflows the largest torsion phase |k1| j1 / 2"),
    (["spectrum", "--j1", "inf", "--j2", "1,1"], "spin j=inf must be finite and at least 1/2"),
])
def test_cli_names_a_bad_grid_point_before_a_name_collision(tmp_path, args, message):
    res = run_cli([*args, "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert res.stderr == f"error: ValueError: {message}\n"
    assert not (tmp_path / "out").exists()


def test_spectrum_config_rejects_an_empty_j2_list_before_any_output(tmp_path):
    for j1 in (float("nan"), 1.0):
        with pytest.raises(ValueError, match="j2 list must be non-empty"):
            cli.SpectrumConfig(j1=j1, j2_values=(), output_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("window", ["1,2", "1,2,3,4"])
def test_cli_window_of_the_wrong_length_is_named(tmp_path, window):
    res = run_cli(["spectrum", "--j1", "1", "--j2", "1", "--window", window, "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert res.stderr == f"error: ValueError: window must be start,end,stride, got {window}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--j1", "0.5", "--j2", "0.5", "--k", "6", "--eps", "1", "--nmax", "2", "--stride", "1"],
    ["spectrum", "--j1", "0.5", "--j2", "0.5", "--window", "2,4,2", "--bins", "5"],
])
def test_cli_malformed_worker_count_fails_before_any_output(tmp_path, args):
    res = run_cli([*args, "--out", str(tmp_path / "out")], env_extra={"OPENT_WORKERS": "abc"})
    assert res.returncode == 1
    assert res.stderr == "error: ValueError: OPENT_WORKERS must be an integer, got 'abc'\n"
    assert not (tmp_path / "out").exists()


def test_cli_diagonal_subcommand(tmp_path):
    res = run_cli(["diagonal", "--j1", "1", "--j2", "1", "--alpha", "0.5",
                   "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "diagonal.csv").exists()


@pytest.mark.parametrize("alpha, bad", [("0.5,inf", "inf"), ("nan", "nan")])
def test_cli_diagonal_rejects_non_finite_alpha(tmp_path, alpha, bad):
    res = run_cli(["diagonal", "--j1", "1", "--j2", "1", "--alpha", alpha, "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert res.stderr == f"error: ValueError: alpha must be finite, got {bad}\n"
    assert not (tmp_path / "out").exists()


def test_cli_diagonal_rejects_an_alpha_that_overflows_its_phase(tmp_path):
    res = run_cli(["diagonal", "--j1", "10", "--j2", "10", "--alpha", "1e308", "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert res.stderr == ("error: ValueError: alpha=1e+308 overflows the largest coupling phase "
                          "|alpha| j1 j2\n")
    assert not (tmp_path / "out").exists()
    cli.run_diagonal(0.5, 0.5, [1e308], tmp_path / "diagonal.csv")  # its largest phase is 1e308 / 4


def test_run_diagonal_takes_spins_in_either_order(tmp_path):
    swapped = cli.run_diagonal(2, 1, [0.3], tmp_path / "swapped.csv")
    ordered = cli.run_diagonal(1, 2, [0.3], tmp_path / "ordered.csv")
    assert swapped.read_text() == ordered.read_text()


def test_run_diagonal_checks_the_sum_rule(tmp_path, monkeypatch):
    real = schmidt.singular_values
    monkeypatch.setattr(schmidt, "singular_values", lambda a: 1.001 * real(a))
    with pytest.raises(RuntimeError, match="sum-rule defect .* at alpha=0"):
        cli.run_diagonal(1, 1.5, [0.3], tmp_path / "diagonal.csv")
    assert not (tmp_path / "diagonal.csv").exists()


def test_diagonal_names_the_file_it_replaces_before_its_first_svd(tmp_path, monkeypatch, capsys):
    path = tmp_path / "diagonal.csv"
    path.write_text("old\n")

    def failing(a):  # the first SVD finds the note already printed
        assert capsys.readouterr().err == f"note: will replace {path}\n"
        raise np.linalg.LinAlgError("boom")

    monkeypatch.setattr(schmidt, "singular_values", failing)
    with pytest.raises(np.linalg.LinAlgError, match="boom"):
        cli.run_diagonal(1, 1.5, [0.3], path)
    assert path.read_text() == "old\n"  # a run that fails after the note keeps the old file


def test_run_diagonal_rejects_an_empty_alpha_list_before_any_output(tmp_path):
    with pytest.raises(ValueError, match="alpha list must be non-empty"):
        cli.run_diagonal(alpha_values=(), output_path=tmp_path / "out" / "diagonal.csv")
    assert not (tmp_path / "out").exists()


def test_csv_floats_have_12_significant_digits(tmp_path):
    cfg = cli.SweepConfig(j1=1, j2=1, k_values=(6.0,), eps_values=(0.5,),
                          n_max=4, sample_stride=4, output_dir=tmp_path)
    cli.run_sweep(cfg)
    _, rows = read_csv(tmp_path / "sweep_k6_eps0.5.csv")
    sv = rows[0][1]
    digits = sv.replace("-", "").replace(".", "").lstrip("0")
    assert len(digits) in (11, 12)  # %.12g, possibly with a trailing zero dropped


SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@given(
    spins=st.sampled_from([(a, b) for a in SPINS for b in SPINS if a <= b]),
    k1=st.floats(0.5, 6.0),
    k2=st.floats(0.5, 6.0),
    eps=st.floats(0.0, 1.0),
    window=st.tuples(st.integers(1, 12), st.integers(1, 6), st.integers(1, 5)),
)
@example(spins=(1.0, 1.5), k1=6.0, k2=2.0, eps=1.0, window=(6, 4, 7))  # 6, 10, ..., 30: start off the step
# identical tops, powered in exchange sectors: windows on their step (3, 6, ...) and off it (5, 8, ...);
# at j = 1/2 one sector is 0 x 0
@example(spins=(0.5, 0.5), k1=3.0, k2=3.0, eps=0.7, window=(3, 3, 5))
@example(spins=(0.5, 0.5), k1=3.0, k2=3.0, eps=0.7, window=(5, 3, 5))
@example(spins=(2.5, 2.5), k1=5.0, k2=5.0, eps=1.0, window=(3, 3, 5))
@example(spins=(2.5, 2.5), k1=5.0, k2=5.0, eps=1.0, window=(5, 3, 5))
@example(spins=(3.0, 3.0), k1=6.0, k2=6.0, eps=0.3, window=(3, 3, 5))
@example(spins=(3.0, 3.0), k1=6.0, k2=6.0, eps=0.3, window=(5, 3, 5))
@example(spins=(2.5, 2.5), k1=5.0, k2=4.0, eps=1.0, window=(3, 3, 5))  # unequal kicks: parity blocks
@settings(max_examples=25, deadline=None)
def test_kicked_spectra_match_matrix_powers(spins, k1, k2, eps, window):
    start, stride, count = window
    ns = range(start, start + stride * count, stride)
    params = KickedTopParams(spins[0], spins[1], k1, k2, eps)
    u = floquet(params)
    dims = BipartitionDims(params.top1.dim, params.top2.dim)
    got = list(kickedtop.kicked_spectra(params, ns))
    assert [n for n, _ in got] == list(ns)
    for n, spec in got:
        ref = schmidt_spectrum(np.linalg.matrix_power(u, n), dims)
        np.testing.assert_allclose(spec.normalized, ref.normalized, atol=1e-12)


def test_kicked_spectra_check_the_sum_rule(monkeypatch):
    real = schmidt.singular_values
    for factor in (1.001, np.nan):
        monkeypatch.setattr(schmidt, "singular_values", lambda a: factor * real(a))
        with pytest.raises(RuntimeError, match="sum-rule defect .* at power n=2"):
            list(kickedtop.kicked_spectra(KickedTopParams(1, 1, 6.0, 6.0, 1.0), range(2, 5, 2)))


@pytest.mark.parametrize("k_values, eps_values", [((1.0, 1.0000001), (1.0,)), ((1.0, 1.0), (0.5,))])
def test_sweep_config_rejects_colliding_names(k_values, eps_values):
    with pytest.raises(ValueError, match="sweep_k1_eps"):
        cli.SweepConfig(k_values=k_values, eps_values=eps_values)


def test_spectrum_config_rejects_colliding_names():
    with pytest.raises(ValueError, match="eigenvalues_j2_10.txt"):
        cli.SpectrumConfig(j2_values=(10.0, 15.0, 10.0))


def test_cli_colliding_sweep_names_exit_before_writing(tmp_path):
    res = run_cli(["sweep", "--j1", "0.5", "--j2", "0.5", "--k", "1,1.0000001", "--eps", "1",
                   "--nmax", "2", "--stride", "1", "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ValueError:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("failure", [UnitarityDriftError(5, 1e-6),
                                     np.linalg.LinAlgError("SVD did not converge")])
def test_sweep_reports_failed_point_and_exits_nonzero(tmp_path, monkeypatch, capsys, failure):
    real = cli.sweep_point

    def flaky(j1, j2, k, eps, n_max, stride):
        if (k, eps) == (6.0, 0.5):
            raise failure
        return real(j1, j2, k, eps, n_max, stride)

    monkeypatch.setenv("OPENT_WORKERS", "1")
    monkeypatch.setattr(cli, "sweep_point", flaky)  # the forked worker inherits it
    out = tmp_path / "out"
    code = cli.main(["sweep", "--j1", "1", "--j2", "1", "--k", "1,6", "--eps", "0,0.5",
                     "--nmax", "4", "--stride", "2", "--out", str(out)])
    assert code == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "sweep_k1_eps0.5.csv", "sweep_k1_eps0.csv", "sweep_k6_eps0.csv"]
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error: sweep point k6_eps0.5: {type(failure).__name__}")
    assert err[1] == "error: RuntimeError: 1 of 4 sweep points failed"


@pytest.mark.parametrize("failure", [UnitarityDriftError(5, 1e-6), FloatingPointError("boom")])
def test_spectrum_reports_failed_point_and_exits_nonzero(tmp_path, monkeypatch, capsys, failure):
    real = kickedtop.kicked_spectra

    def flaky(params, ns):
        if params.j2 == 1.5:
            raise failure
        return real(params, ns)

    monkeypatch.setenv("OPENT_WORKERS", "1")
    monkeypatch.setattr(kickedtop, "kicked_spectra", flaky)  # the forked worker inherits it
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--j1", "1", "--j2", "1,1.5,2", "--window", "4,12,4", "--bins", "5",
                     "--out", str(out)])
    assert code == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "eigenvalues_j2_1.txt", "eigenvalues_j2_2.txt", "histogram_j2_1.csv", "histogram_j2_2.csv"]
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[0].startswith(f"error: spectrum point j2_1.5: {type(failure).__name__}: ")
    assert err[-1] == "error: RuntimeError: 1 of 3 spectrum points failed"
    assert [line.split()[0] for line in captured.out.splitlines()] == ["j2=1", "j2=2"]


def dying_point(task):
    """A pool point that writes its worker's pid to runs/{name} on each of its runs and writes {name}.txt.

    A worker given the name "dies" kills itself, and "slow" sleeps first, so that it is
    still running when "dies" kills its own worker.
    """
    out, name, parent_pid = task
    with open(out / "runs" / name, "a") as marks:
        marks.write(f"{os.getpid()}\n")
    if name == "dies" and os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    if name == "slow":
        time.sleep(0.5)
    (path := out / f"{name}.txt").write_text(name)
    return path  # not a str, which `_attempt` keeps for a failure


def assert_reaped(pids):
    """Each pid is no child of this process any more: the pool reaped it, so waitpid finds nothing."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_a_dead_worker_costs_only_its_own_point(tmp_path, monkeypatch, capsys):
    # "dies" kills its worker while "slow" runs on the other one; only "dies" fails, a new
    # worker takes the points left, and no point runs twice
    monkeypatch.setenv("OPENT_WORKERS", "2")
    (tmp_path / "runs").mkdir()
    names, reported = ["slow", "dies", "a", "b", "c"], []
    tasks = {name: (tmp_path, name, os.getpid()) for name in names}
    with pytest.raises(RuntimeError, match="^1 of 5 test points failed$"):
        cli._run_points("test", dying_point, tasks, tmp_path, ["{}.txt"], report=reported.append)
    assert sorted(p.name for p in tmp_path.glob("*.txt")) == ["a.txt", "b.txt", "c.txt", "slow.txt"]
    runs = {p.name: p.read_text().split() for p in (tmp_path / "runs").iterdir()}
    assert sorted(runs) == sorted(names) and all(len(pids) == 1 for pids in runs.values())
    assert capsys.readouterr().err.splitlines() == ["error: test point dies: worker died"]
    assert [path.name for path in reported] == ["slow.txt", "a.txt", "b.txt", "c.txt"]
    assert_reaped(int(pid) for pids in runs.values() for pid in pids)


def test_a_pool_of_one_replaces_its_dead_worker(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OPENT_WORKERS", "1")
    (tmp_path / "runs").mkdir()
    tasks = {name: (tmp_path, name, os.getpid()) for name in ("dies", "a")}
    with pytest.raises(RuntimeError, match="^1 of 2 test points failed$"):
        cli._run_points("test", dying_point, tasks, tmp_path, ["{}.txt"])
    assert [p.name for p in tmp_path.glob("*.txt")] == ["a.txt"]
    assert capsys.readouterr().err.splitlines() == ["error: test point dies: worker died"]
    assert_reaped(int(pid) for p in (tmp_path / "runs").iterdir() for pid in p.read_text().split())


def _kill_worker(pid, data):
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, and left for the pool to reap
    return data


class KillsItsWorker(bytes):
    """A result that kills the worker that sent it as the parent loads it."""

    def __reduce__(self):  # runs in the worker, which pickles the result
        return _kill_worker, (os.getpid(), bytes(self))


def dies_after_its_result(name):
    """A pool point whose result for "x" kills its worker once the parent has that result."""
    return KillsItsWorker(b"x") if name == "x" else name.encode()


def test_a_worker_that_dies_between_points_fails_only_the_point_sent_to_it(tmp_path, monkeypatch, capsys):
    # the worker of "x" is dead before the parent sends it "a", so that send finds a closed pipe;
    # "a" fails, and a new worker runs "b"
    monkeypatch.setenv("OPENT_WORKERS", "1")
    results = []
    with pytest.raises(RuntimeError, match="^1 of 3 test points failed$"):
        cli._run_points("test", dies_after_its_result, {name: name for name in "xab"}, tmp_path, [],
                        report=results.append)
    assert results == [b"x", b"b"]
    assert capsys.readouterr().err.splitlines() == ["error: test point a: worker died"]


def timed_point(name):
    """A pool point that sleeps briefly and returns (its pid, start, end); "bad" fails."""
    start = time.monotonic()
    time.sleep(0.05)
    if name == "bad":
        raise ValueError("bad point")
    return os.getpid(), start, time.monotonic()


@pytest.mark.parametrize("names", [list("abcdef"), ["a", "bad", "c", "d"]])
def test_the_pool_runs_at_most_worker_count_points_at_once_and_leaves_no_child(
        tmp_path, monkeypatch, capsys, names):
    monkeypatch.setenv("OPENT_WORKERS", "3")
    results, failed = [], "bad" in names
    with pytest.raises(RuntimeError, match="^1 of 4 test points failed$") if failed else nullcontext():
        cli._run_points("test", timed_point, {name: name for name in names}, tmp_path, [],
                        report=results.append)
    assert_reaped(pid for pid, _, _ in results)
    assert capsys.readouterr().err == "error: test point bad: ValueError: bad point\n" * failed
    assert len(results) == len(names) - failed
    workers = cli._worker_count(len(names))
    edges = sorted([(start, 1) for _, start, _ in results] + [(end, -1) for _, _, end in results])
    assert max(itertools.accumulate(step for _, step in edges)) <= workers
    pids = {pid for pid, _, _ in results}
    assert len(pids) <= workers and os.getpid() not in pids


def large_point(name):
    return name.encode() * (1 << 20)


def test_a_result_larger_than_a_pipe_buffer_comes_back_intact(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENT_WORKERS", "2")
    tasks = {name: name for name in ("a", "bc")}
    assert cli._run_points("test", large_point, tasks, tmp_path, []) == [b"a" * (1 << 20),
                                                                          b"bc" * (1 << 20)]


# A sweep whose points hold their .tmp file for a minute before they write, except k1_eps0.1,
# which writes at once; each worker leaves its pid in the directory of argv[1].
INTERRUPTED_SWEEP = """
import os, sys, time
from pathlib import Path
import opent.cli as cli

def slow_point(args):
    cfg, k, eps = args
    Path(sys.argv[1], str(os.getpid())).touch()
    path = cfg.output_dir / cli.SWEEP_FILES[0].format(cli._sweep_stem(k, eps))
    cli._tmp_path(path).write_text("new\\n")
    time.sleep(0 if (k, eps) == (1, 0.1) else 60)
    os.replace(cli._tmp_path(path), path)
    return path

cli._try_sweep_point = slow_point
sys.exit(cli.main(["sweep", "--j1", "1", "--j2", "1", "--k", "1,2", "--eps", "0.1,1", "--nmax", "2",
                   "--stride", "1", "--out", sys.argv[2]]))
"""


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("signum, group", [(signal.SIGINT, True), (signal.SIGTERM, False)],
                         ids=["sigint-to-the-group", "sigterm-to-the-main-process"])
def test_an_interrupted_run_stops_its_workers_and_keeps_finished_and_old_files(
        tmp_path, monkeypatch, signum, group):
    # Ctrl-C signals the whole process group; `kill PID` signals the main process only.
    # The signal comes once k1_eps0.1 is written and every worker holds a .tmp file.
    monkeypatch.setenv("OPENT_WORKERS", "2")
    workers, pids, out = cli._worker_count(4), tmp_path / "pids", tmp_path / "out"
    pids.mkdir()
    out.mkdir()
    (out / "sweep_k1_eps1.csv").write_text("old\n")
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED_SWEEP, str(pids), str(out)],
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while len(list(out.glob("*.tmp"))) < workers or not (out / "sweep_k1_eps0.1.csv").exists():
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.02)
        (os.killpg if group else os.kill)(proc.pid, signum)
        _, err = proc.communicate(timeout=10)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 128 + signum
    assert err.splitlines()[-1] == "error: interrupted: 1 of 4 sweep points written (k1_eps0.1)"
    assert len(err.splitlines()) == 2  # and the note that sweep_k1_eps1.csv will be replaced
    assert {p.name: p.read_text() for p in out.iterdir()} == {"sweep_k1_eps0.1.csv": "new\n",
                                                               "sweep_k1_eps1.csv": "old\n"}
    worker_pids = [int(p.name) for p in pids.iterdir()]
    assert len(worker_pids) == workers and not any(map(alive, worker_pids))


@pytest.mark.parametrize("flag", ["--k", "--eps"])
def test_cli_diagonal_rejects_a_flag_of_the_kicked_commands(tmp_path, flag):
    res = run_cli(["diagonal", "--j1", "1", "--j2", "1", flag, "3", "--alpha", "0.5",
                   "--out", str(tmp_path / "out")])
    assert res.returncode != 0
    assert f"unrecognized arguments: {flag} 3" in res.stderr
    assert not (tmp_path / "out").exists()


def test_worker_count_is_bounded(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    monkeypatch.setenv("OPENT_WORKERS", "100000")  # only the count is computed, no pool starts
    assert cli._worker_count(4) == min(4, cpus)
    assert cli._worker_count(1) == 1
    monkeypatch.setenv("OPENT_WORKERS", "0")
    assert cli._worker_count(4) == 1
    monkeypatch.delenv("OPENT_WORKERS")
    assert cli._worker_count(3) == min(3, cpus)


def test_worker_count_is_capped_by_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # as under taskset -c 0
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("OPENT_WORKERS", "2")  # only the count is computed, no pool starts
    assert cli._worker_count(2) == 1
    monkeypatch.delenv("OPENT_WORKERS")
    assert cli._worker_count(2) == 1


def test_spectrum_counts_mass_outside_the_support(tmp_path):
    cfg = cli.SpectrumConfig(j1=1, j2_values=(1.0,), k=6.0, eps=1.0,
                             saturation_window=(4, 40, 4), bins=6, output_dir=tmp_path)
    [(eig_path, hist_path, report, dist)] = cli.run_spectrum(cfg)
    law = LaguerreLaw.from_dims(3, 3)
    eigs = np.loadtxt(eig_path, comments="#")
    outside = np.count_nonzero(eigs > 1.05 * law.lambda_max) / eigs.size
    assert outside > 0
    assert float(report.split("outside=")[1]) == pytest.approx(outside, rel=1e-5)
    rows = np.loadtxt(hist_path, delimiter=",", skiprows=1)
    h = Histogram(np.append(rows[:, 0], rows[-1, 1]), rows[:, 2])
    assert dist == pytest.approx(fit_distance(h, law) + outside, rel=1e-9)


def test_diagonal_entropies_are_never_negative(tmp_path):
    # at (1/2, 1) the unclamped alpha = 0 entropies round to about -2e-16
    path = cli.run_diagonal(0.5, 1.0, [0.0, 0.4], tmp_path / "diagonal.csv")
    lines = path.read_text().splitlines()
    values = [v for line in lines[1:-1] for v in line.split(",")[1:]]
    values.append(lines[-1].rsplit("= ", 1)[1])  # the product-rotation comment
    assert len(values) == 5 and not any(v.startswith("-") for v in values)


def fresh_python(code):
    """Run code in a new interpreter; return its stdout."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("code", [
    "import opent",
    "import opent.cli",
    "import opent.cli; opent.cli.main(['saturation', '--n', '21', '--m', '41'])",
])
def test_import_and_saturation_load_no_numpy(code):
    assert fresh_python(f"{code}\nimport sys; print('numpy' in sys.modules)").splitlines()[-1] == "False"


def test_diagonal_loads_no_process_pool(tmp_path):
    code = (f"import sys, opent.cli; opent.cli.main(['diagonal', '--j1', '1', '--j2', '2', "
            f"'--out', {str(tmp_path)!r}]); print('multiprocessing' in sys.modules); "
            f"print(sorted({{'opent.kickedtop', 'opent.blocks'}} & set(sys.modules)))")
    assert fresh_python(code) == "False\n[]\n"
    assert (tmp_path / "diagonal.csv").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--j1", "1", "--j2", "1.5", "--k", "1,2", "--eps", "0.1", "--nmax", "4", "--stride", "2"],
    ["spectrum", "--j1", "1", "--j2", "1,1.5", "--window", "4,12,4", "--bins", "5"],
], ids=["sweep", "spectrum"])
def test_the_pool_commands_load_no_multiprocessing(tmp_path, monkeypatch, args):
    monkeypatch.setenv("OPENT_WORKERS", "2")
    code = (f"import sys, opent.cli; code = opent.cli.main({[*args, '--out', str(tmp_path)]!r}); "
            f"print(code, 'multiprocessing' in sys.modules)")
    assert fresh_python(code).splitlines()[-1] == "0 False"


def test_every_public_name_resolves_lazily():
    code = """
import opent
assert all(getattr(opent, name) is not None for name in opent.__all__)
exec(f"from opent import {', '.join(opent.__all__)}")
from opent import rmt
assert opent.rmt is rmt and opent.saturation_estimate is rmt.saturation_estimate
try:
    opent.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert fresh_python(code) == "module 'opent' has no attribute 'no_such_name'\n"


def env_without_blas(**extra):
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    return env | extra


# Runs the CLI with each pool task wrapped: a worker prints its task, the BLAS
# variables it sees and the modules it imported while running the task.
WORKER_PROBE = """
import json, os, sys
import opent.cli as cli

def probed(real, args):
    before = set(sys.modules)
    result = real(args)
    line = json.dumps({"task": args[1:], "env": {v: os.environ.get(v) for v in cli.BLAS_THREAD_VARS},
                       "imported": sorted(set(sys.modules) - before)})
    os.write(1, (line + "\\n").encode())  # one write, so that two workers' lines do not interleave
    return result

def sweep_probe(args, real=cli._try_sweep_point):
    return probed(real, args)

def spectrum_probe(args, real=cli._run_spectrum_point):
    return probed(real, args)

cli._try_sweep_point, cli._run_spectrum_point = sweep_probe, spectrum_probe
sys.exit(cli.main(sys.argv[1:]))
"""


def probe_workers(args, env):
    """(the workers' probe records, the other stdout lines) of one probed CLI call."""
    res = subprocess.run([sys.executable, "-c", WORKER_PROBE, *args], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    probes = [json.loads(line) for line in lines if line.startswith("{")]
    return probes, [line for line in lines if not line.startswith("{")]


@pytest.mark.parametrize("user, seen", [
    ({}, dict.fromkeys(cli.BLAS_THREAD_VARS, "1")),
    ({"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
                                     "MKL_NUM_THREADS": None}),
])
def test_pool_workers_get_one_blas_thread_unless_the_user_set_a_count(tmp_path, user, seen):
    args = ["sweep", "--j1", "1", "--j2", "1", "--k", "6", "--eps", "0.1,1", "--nmax", "4",
            "--stride", "2", "--out", str(tmp_path)]
    probes, _ = probe_workers(args, env_without_blas(OPENT_WORKERS="2", **user))
    assert sorted(p["task"] for p in probes) == [[6.0, 0.1], [6.0, 1.0]]
    assert all(p["env"] == seen and p["imported"] == [] for p in probes)


def test_spectrum_submits_the_largest_j2_first_and_reports_in_order(tmp_path):
    args = ["spectrum", "--j1", "1", "--j2", "1,2,1.5", "--window", "4,12,4", "--bins", "5",
            "--out", str(tmp_path)]
    probes, reports = probe_workers(args, env_without_blas(OPENT_WORKERS="1"))
    assert [p["task"] for p in probes] == [[2.0], [1.5], [1.0]]
    assert all(p["imported"] == [] for p in probes)
    assert [line.split()[0] for line in reports] == ["j2=1", "j2=2", "j2=1.5"]


def test_main_leaves_the_environment_alone_once_numpy_is_loaded(monkeypatch):
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert cli.main(["saturation", "--n", "2", "--m", "3"]) == 0
    assert not any(var in os.environ for var in cli.BLAS_THREAD_VARS)


@pytest.mark.parametrize("args", [
    ["sweep", "--j1", "3", "--j2", "5.5", "--k", "1,6", "--eps", "0.001,1", "--nmax", "40",
     "--stride", "7"],
    ["spectrum", "--j1", "3", "--j2", "3,4.5", "--window", "5,40,5"],
])
def test_outputs_do_not_depend_on_the_blas_variables(tmp_path, args):
    outputs = []
    for workers in ("1", "2"):
        for user in ({}, dict.fromkeys(cli.BLAS_THREAD_VARS, "2")):
            out = tmp_path / f"{workers}-{len(user)}"
            res = subprocess.run([sys.executable, "-m", "opent.cli", *args, "--out", str(out)],
                                 capture_output=True, text=True,
                                 env=env_without_blas(OPENT_WORKERS=workers, **user))
            assert res.returncode == 0, res.stderr
            outputs.append((res.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert all(output == outputs[0] for output in outputs[1:])
