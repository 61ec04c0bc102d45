"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion. The kicked-top sweeps
at j = 10 are the slow part (about 30 s on one core); the entropy time
series that criteria 3-6 and 8 read are computed in one pass on the CLI's
process pool and shared across criteria through a session-scoped fixture.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from opent import (
    BipartitionDims,
    SpinSystem,
    jx,
    jy,
    jz,
    operator_entanglement,
    phi_p_state,
    phi_state,
    product_rotation,
    realign,
    reshape_vec,
    schmidt_spectrum,
    state_entropy,
)
from opent import rmt
from opent.cli import SpectrumConfig, _run_spectrum_point, sweep_point
from opent.linalg import hs_inner, kron
from opent.states import PureState, partial_trace_2
from opent.linalg import eigh
from conftest import CNOT, random_complex, random_unitary, swap_operator

J = 10.0
N_MAX = 1000
STRIDE = 5


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def _sweep_series(key):
    """A pool point: the sweep rows of one (k, eps) key at j1 = j2 = J."""
    k, eps = key
    return sweep_point(J, J, k, eps, N_MAX, STRIDE)


@pytest.fixture(scope="session")
def entropy_series(tmp_path_factory):
    """(k, eps) -> (n array, S_V array) for j1 = j2 = 10.

    The 14 keys that criteria 3-6 and 8 read are computed in one pass, on the
    CLI's pool of workers (`OPENT_WORKERS`, capped by the usable CPUs).
    """
    from opent.cli import _run_points

    keys = [(k, eps) for eps in (1.0, 1e-1, 1e-2) for k in (1.0, 2.0, 3.0, 6.0)]
    keys += [(1.0, 1e-3), (6.0, 1e-3)]
    tasks = {f"k{k:g}_eps{eps:g}": (k, eps) for k, eps in keys}
    rows = _run_points("acceptance", _sweep_series, tasks, tmp_path_factory.mktemp("series"), [])
    cache = {key: (np.array([r[0] for r in series]), np.array([r[1] for r in series]))
             for key, series in zip(keys, rows)}
    return lambda k, eps: cache[k, eps]


def _window_mean(series, k, eps, lo, hi):
    ns, svs = series(k, eps)
    mask = (ns >= lo) & (ns <= hi)
    return float(np.mean(svs[mask]))


def test_criterion_1_golden_reshape():
    a = np.array([[11, 12], [21, 22]], dtype=complex)
    ok = np.array_equal(reshape_vec(a), [11, 12, 21, 22])
    _report(1, ok, "reshape orders a 2x2 matrix row after row")


def test_criterion_2_analytic_operators():
    d = BipartitionDims(21, 21)
    sv_id, _ = operator_entanglement(np.eye(441), d)
    sv_swap, _ = operator_entanglement(swap_operator(21), d)
    sv_cnot, _ = operator_entanglement(CNOT, BipartitionDims(2, 2))
    sv_up, _ = operator_entanglement(product_rotation(SpinSystem(20), SpinSystem(20), 0.7), d)
    checks = [
        abs(sv_id) <= 1e-10,
        abs(sv_swap - math.log(441)) <= 1e-9,
        abs(sv_cnot - math.log(2)) <= 1e-10,
        sv_up <= 1e-10,
    ]
    _report(2, all(checks),
            f"identity={sv_id:.2e} swap={sv_swap:.6f} cnot={sv_cnot:.6f} U_p={sv_up:.2e}")


def test_criterion_3_strong_coupling_saturation(entropy_series):
    means = {k: _window_mean(entropy_series, k, 1.0, 200, N_MAX) for k in (1.0, 2.0, 3.0, 6.0)}
    ok = all(5.45 <= m <= 5.70 for m in means.values())
    detail = "eps=1 window means " + ", ".join(f"k={k:g}:{m:.4f}" for k, m in means.items())
    _report(3, ok, detail + " (band [5.45, 5.70])")


def test_criterion_4_weak_coupling_suppression(entropy_series):
    avg1 = _window_mean(entropy_series, 1.0, 1e-3, 0, N_MAX)
    avg6 = _window_mean(entropy_series, 6.0, 1e-3, 0, N_MAX)
    _report(4, avg1 > avg6,
            f"eps=1e-3 full-run means: k=1 {avg1:.4f} > k=6 {avg6:.4f} (chaos suppression)")


def test_criterion_5_intermediate_coupling_ordering(entropy_series):
    means = {k: _window_mean(entropy_series, k, 1e-2, 500, N_MAX) for k in (1.0, 2.0, 3.0, 6.0)}
    ok = means[6.0] > means[3.0] > max(means[1.0], means[2.0])
    detail = "eps=1e-2 late means " + ", ".join(f"k={k:g}:{m:.4f}" for k, m in means.items())
    _report(5, ok, detail)


def test_criterion_6_tenth_coupling_ordering(entropy_series):
    means = {k: _window_mean(entropy_series, k, 1e-1, 200, N_MAX) for k in (1.0, 2.0, 3.0, 6.0)}
    checks = [
        5.45 <= means[6.0] <= 5.70,
        means[3.0] < means[6.0],
        means[1.0] <= means[6.0] - 0.2,
        means[2.0] <= means[6.0] - 0.2,
    ]
    detail = "eps=0.1 window means " + ", ".join(f"k={k:g}:{m:.4f}" for k, m in means.items())
    _report(6, all(checks), detail)


def test_criterion_7_rmt_spectral_law(tmp_path):
    window = (200, 1000, 40)  # 21 saturation-window steps
    distances = {}
    for j2 in (10.0, 15.0, 20.0):
        cfg = SpectrumConfig(j1=J, j2_values=(j2,), k=6.0, eps=1.0,
                             saturation_window=window, bins=25, output_dir=tmp_path)
        _, _, _, dist = _run_spectrum_point((cfg, j2))
        distances[j2] = dist
    ok = all(d <= 0.15 for d in distances.values())
    detail = "fit distances " + ", ".join(f"j2={j:g}:{d:.4f}" for j, d in distances.items())
    _report(7, ok, detail + " (<= 0.15)")


def test_criterion_8_laguerre_self_consistency(entropy_series):
    checks = []
    for q in (1.0, 2.25, 4.0):
        law = rmt.LaguerreLaw(21, q)
        checks.append(abs(rmt.density_mass(law) - 441) <= 0.005 * 441)
        checks.append(abs(rmt.density_mean(law) - 1) <= 0.005)
    est = rmt.saturation_estimate(21, 21)
    checks.append(5.55 <= est <= 5.62)
    empirical = _window_mean(entropy_series, 6.0, 1.0, 200, N_MAX)
    checks.append(abs(est - empirical) <= 0.02 * empirical)
    _report(8, all(checks),
            f"estimate={est:.4f}, empirical k=6 eps=1 mean={empirical:.4f}")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(99)
    checks = []

    # local-unitary invariance of Schmidt spectra, 20 trials at 1e-8
    d = BipartitionDims(3, 4)
    for _ in range(20):
        u = random_unitary(rng, 12)
        v = kron(random_unitary(rng, 3), random_unitary(rng, 4))
        w = kron(random_unitary(rng, 3), random_unitary(rng, 4))
        base = schmidt_spectrum(u, d).lambdas
        rot = schmidt_spectrum(v @ u @ w, d).lambdas
        checks.append(np.abs(rot - base).max() <= 1e-8)

    # product nullity, 20 trials at 1e-10
    for _ in range(20):
        prod = kron(random_unitary(rng, 3), random_unitary(rng, 5))
        sv, _ = operator_entanglement(prod, BipartitionDims(3, 5))
        checks.append(abs(sv) <= 1e-10)

    # realignment norm preservation at 1e-10
    u = random_complex(rng, 12, 12)
    x = realign(u, d)
    checks.append(abs(hs_inner(x, x).real - hs_inner(u, u).real)
                  <= 1e-10 * hs_inner(u, u).real)

    # angular-momentum commutators and Casimir at 1e-12
    for two_j in (1, 2, 3, 4, 20):
        s = SpinSystem(two_j)
        x, y, z = jx(s), jy(s), jz(s)
        checks.append(np.abs(x @ y - y @ x - 1j * z).max() <= 1e-12)
        checks.append(np.abs(y @ z - z @ y - 1j * x).max() <= 1e-12)
        checks.append(np.abs(z @ x - x @ z - 1j * y).max() <= 1e-12)
        casimir = x @ x + y @ y + z @ z
        checks.append(np.abs(casimir - s.j * (s.j + 1) * np.eye(s.dim)).max() <= 1e-12)

    # state-entropy two-sided equality at 1e-10
    amps = random_complex(rng, 12, 1).ravel()
    psi = PureState(d, amps / np.linalg.norm(amps))
    w2, _ = eigh(partial_trace_2(psi))
    w2 = w2[w2 > 0]
    s_two = float(-np.sum(w2 * np.log(w2)))
    checks.append(abs(state_entropy(psi) - s_two) <= 1e-10)

    # eigenstate entropies ln 2 and ln N at 1e-12
    s10 = SpinSystem.from_j(10)
    checks.append(abs(state_entropy(phi_state(s10, s10, 4, -7)) - math.log(2)) <= 1e-12)
    checks.append(abs(state_entropy(phi_p_state(s10)) - math.log(21)) <= 1e-12)

    _report(9, all(checks), f"{len(checks)} property checks")


def test_criterion_10_sweep_determinism(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("j1=2\nj2=2\nk=1,6\neps=0.1,1\nnmax=50\nstride=5\n")
    outputs = {}
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        env = dict(os.environ, OPENT_WORKERS=workers)
        res = subprocess.run(
            [sys.executable, "-m", "opent.cli", "sweep",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0, res.stderr
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    ok = outputs["1"] == outputs["8"] and len(outputs["1"]) == 4
    _report(10, ok, "sweep CSVs byte-identical for OPENT_WORKERS=1 and 8")
