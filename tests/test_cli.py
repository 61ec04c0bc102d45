import math
import os
import subprocess
import sys

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
])
def test_cli_bad_spin_or_window_fails_before_any_work(tmp_path, args):
    res = run_cli([*args, "--out", str(tmp_path / "out")])
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ValueError:")
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
        cli.SpectrumConfig(j2_values=(10.0, 15.0, 10.0000001))


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
    assert err[0].startswith(f"error: sweep point k=6 eps=0.5: {type(failure).__name__}")
    assert err[1] == "error: RuntimeError: 1 of 4 sweep points failed"


def test_worker_count_is_bounded(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("OPENT_WORKERS", "100000")  # only the count is computed, no pool starts
    assert cli._worker_count(4) == min(4, cpus)
    assert cli._worker_count(1) == 1
    monkeypatch.setenv("OPENT_WORKERS", "0")
    assert cli._worker_count(4) == 1
    monkeypatch.delenv("OPENT_WORKERS")
    assert cli._worker_count(3) == min(3, cpus)


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
