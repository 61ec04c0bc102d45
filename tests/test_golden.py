"""Fresh CLI outputs against the committed goldens under tests/golden/.

Each golden directory holds the files one command wrote under --out and its
stdout (`stdout.txt`). Entropies may move by one unit in their 12th (last
printed) significant digit. Eigenvalue dumps may move absolutely by
DUMP_TOL / N^2, since the mean eigenvalue is 1 / N^2 and the dumps have been
seen to move by up to 2e-16 at N = 21. Everything else must match exactly:
comment lines, step and alpha columns, histogram CSVs and stdout. The goldens
were written at one BLAS thread with OPENT_WORKERS=1; regenerating them is a
recorded change.
"""

import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
DUMP_TOL = 1e-13

COMMANDS = {
    "sweep": ["sweep", "--j1", "3", "--j2", "5.5", "--k", "1,6", "--eps", "0.001,1",
              "--nmax", "300", "--stride", "7"],
    "sweep_identical": ["sweep", "--j1", "3", "--j2", "3", "--k", "1,6", "--eps", "0.001,1",
                        "--nmax", "300", "--stride", "7"],
    "spectrum": ["spectrum", "--j1", "3", "--j2", "3,4.5", "--window", "5,200,4"],
    "diagonal": ["diagonal", "--j1", "3", "--j2", "5.5"],
    "saturation": ["saturation", "--n", "21", "--m", "41"],
}


def close_in_12th_digit(got: str, want: str) -> bool:
    """True if got is within one unit of the 12th significant digit of want (exact decimals)."""
    g, w = Decimal(got), Decimal(want)
    if w == 0:
        return g == 0
    return abs(g - w) <= Decimal(1).scaleb(w.adjusted() - 11)


def assert_entropy_csv_matches(got: str, want: str) -> None:
    """Header and first column exact; the entropy columns, and a value after '= ', to 12 digits."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines) and got_lines[0] == want_lines[0]
    for g, w in zip(got_lines[1:], want_lines[1:]):
        if w.startswith("#"):
            (g_head, g_value), (w_head, w_value) = g.rsplit("= ", 1), w.rsplit("= ", 1)
            assert g_head == w_head and close_in_12th_digit(g_value, w_value), (g, w)
            continue
        g_cols, w_cols = g.split(","), w.split(",")
        assert len(g_cols) == len(w_cols) and g_cols[0] == w_cols[0], (g, w)
        assert all(close_in_12th_digit(a, b) for a, b in zip(g_cols[1:], w_cols[1:])), (g, w)


def assert_dump_matches(got: str, want: str) -> None:
    """Comment lines exact; each eigenvalue within DUMP_TOL / N^2 of the golden."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    n_dim = int(want_lines[0].split()[1].removeprefix("N="))
    tol = DUMP_TOL / n_dim**2
    for g, w in zip(got_lines, want_lines):
        if w.startswith("#"):
            assert g == w
        else:
            assert abs(float(g) - float(w)) <= tol, (g, w, tol)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_outputs_match_the_goldens(tmp_path, name):
    args = COMMANDS[name] + (["--out", str(tmp_path)] if name != "saturation" else [])
    res = subprocess.run([sys.executable, "-m", "opent.cli", *args], capture_output=True,
                         text=True, env=os.environ | {"OPENT_WORKERS": "1"})
    assert res.returncode == 0, res.stderr
    golden = GOLDEN / name
    assert res.stdout == (golden / "stdout.txt").read_text()
    expected = sorted(p.name for p in golden.iterdir() if p.name != "stdout.txt")
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for file_name in expected:
        got, want = (tmp_path / file_name).read_text(), (golden / file_name).read_text()
        if file_name.startswith("eigenvalues_"):
            assert_dump_matches(got, want)
        elif file_name.startswith("histogram_"):
            assert got == want
        else:
            assert_entropy_csv_matches(got, want)


def test_the_golden_comparisons_reject_a_change_beyond_their_tolerance():
    assert close_in_12th_digit("3.58569419591", "3.5856941959")
    assert not close_in_12th_digit("3.58569419592", "3.5856941959")
    assert close_in_12th_digit("9.86208429275e-05", "9.86208429274e-05")
    assert not close_in_12th_digit("9.86208429276e-05", "9.86208429274e-05")
    assert not close_in_12th_digit("1e-300", "0")
    dump = "# N=7 M=7 Q=1\n0.0899223144996\n"
    assert_dump_matches(dump.replace("996", "99601"), dump)  # moved by 1e-15 < 1e-13 / 7^2
    with pytest.raises(AssertionError):
        assert_dump_matches(dump.replace("996", "997"), dump)  # moved by 1e-13
