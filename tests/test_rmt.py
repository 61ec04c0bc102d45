import math

import numpy as np
import pytest

from opent import rmt


def test_bounds_q_one():
    lo, hi = rmt.laguerre_bounds(21, 1.0)
    assert lo == 0
    assert hi == pytest.approx(4 / 441)


def test_bounds_q_four():
    lo, hi = rmt.laguerre_bounds(21, 4.0)
    assert lo == pytest.approx(0.25 / 441)
    assert hi == pytest.approx(2.25 / 441)


def test_bounds_rejects_small_q():
    with pytest.raises(ValueError, match="q >= 1"):
        rmt.laguerre_bounds(21, 0.5)


def test_bounds_reject_an_empty_subsystem():
    with pytest.raises(ValueError, match="n_small must be >= 1"):
        rmt.laguerre_bounds(0, 1.0)


def test_law_from_dims():
    law = rmt.LaguerreLaw.from_dims(21, 41)
    assert law.q == pytest.approx((41 / 21) ** 2)
    assert 0 < law.lambda_min < law.lambda_max
    with pytest.raises(ValueError):
        rmt.LaguerreLaw.from_dims(41, 21)


def test_density_outside_support():
    law = rmt.LaguerreLaw(21, 2.25)
    assert rmt.laguerre_density(law, law.lambda_min / 2) == 0
    assert rmt.laguerre_density(law, law.lambda_max * 1.01) == 0
    assert rmt.laguerre_density(law, law.lambda_max) == 0
    assert rmt.laguerre_density(law, -1.0) == 0


def test_density_nonnegative_inside():
    law = rmt.LaguerreLaw(21, 1.0)
    xs = np.linspace(1e-6, law.lambda_max * 0.999, 200)
    assert np.all(rmt.laguerre_density(law, xs) >= 0)


@pytest.mark.parametrize("q", [1.0, 2.25, 4.0])
def test_density_mass_and_mean(q):
    law = rmt.LaguerreLaw(21, q)
    assert rmt.density_mass(law) == pytest.approx(441, rel=5e-3)
    assert rmt.density_mean(law) == pytest.approx(1, rel=5e-3)


def test_saturation_estimate_square_case():
    # Page-type correction: ln(N^2) - 1/2 at Q = 1
    est = rmt.saturation_estimate(21, 21)
    assert est == pytest.approx(math.log(441) - 0.5, abs=1e-6)
    # agrees with the rounded ln(0.6 N^2) reading within 0.3%
    assert est == pytest.approx(math.log(0.6 * 441), rel=3e-3)


def test_saturation_estimate_large_q_limit():
    # support shrinks to a point at 1/N^2, entropy -> ln N^2
    assert rmt.saturation_estimate(21, 441) == pytest.approx(math.log(441), abs=0.01)


def test_saturation_estimate_monotone_in_m():
    values = [rmt.saturation_estimate(21, m) for m in (21, 31, 41, 81)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert 5.58 < values[2] < math.log(441)


@pytest.mark.parametrize("n", [15, 21, 30])
def test_saturation_square_band(n):
    est = rmt.saturation_estimate(n, n)
    assert math.log(n**2) - 0.52 <= est <= math.log(n**2) - 0.48


@pytest.mark.parametrize("n, m, expected", [
    (21, 31, 5.859596), (21, 41, 5.957873), (3, 7, 2.105388),
])
def test_saturation_estimate_rectangular_values(n, m, expected):
    # -int f(x) x ln x dx by a 10,000-node cosine-substituted quadrature, to 6 decimals
    assert rmt.saturation_estimate(n, m) == pytest.approx(expected, abs=1e-6)


def test_saturation_tiny_case():
    assert rmt.saturation_estimate(2, 2) < math.log(4)


def test_histogram_point_mass():
    h = rmt.histogram(np.full(100, 0.5), bins=5, support=(0.0, 1.0))
    assert np.count_nonzero(h.heights) == 1
    assert h.total_mass == pytest.approx(100)


def test_histogram_uniform_samples():
    rng = np.random.default_rng(7)
    h = rmt.histogram(rng.uniform(0, 1, 200_000), bins=10, support=(0.0, 1.0))
    np.testing.assert_allclose(h.heights, 200_000, rtol=0.03)
    assert h.total_mass == pytest.approx(200_000, abs=1e-9 * 200_000)


def test_histogram_validation():
    with pytest.raises(ValueError, match="empty"):
        rmt.histogram([], bins=5, support=(0, 1))
    with pytest.raises(ValueError, match="bins"):
        rmt.histogram([0.5], bins=3, support=(0, 1))


def _sample_from_law(law, size, seed):
    """Rejection sampling from the (bounded) density; requires q > 1."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(law.lambda_min, law.lambda_max, 4001)
    fmax = float(np.max(rmt.laguerre_density(law, xs))) * 1.05
    out = []
    while len(out) < size:
        x = rng.uniform(law.lambda_min, law.lambda_max, 4 * size)
        y = rng.uniform(0, fmax, 4 * size)
        out.extend(x[y < rmt.laguerre_density(law, x)][: size - len(out)])
    return np.asarray(out)


def test_fit_distance_self_consistency():
    law = rmt.LaguerreLaw(21, 2.25)
    samples = _sample_from_law(law, 100_000, seed=11)
    h = rmt.histogram(samples, bins=25, support=(0.0, 1.05 * law.lambda_max))
    # rescale counts so total mass matches the law's N^2
    h = rmt.Histogram(h.bin_edges, h.heights * 441 / samples.size)
    assert rmt.fit_distance(h, law) < 0.05


def test_fit_distance_point_mass():
    law = rmt.LaguerreLaw(21, 1.0)
    h = rmt.histogram(np.full(441, 0.9 * law.lambda_max), bins=25,
                      support=(0.0, 1.05 * law.lambda_max))
    assert rmt.fit_distance(h, law) > 1.5


def test_fit_distance_disjoint_support():
    law = rmt.LaguerreLaw(21, 1.0)
    h = rmt.histogram([10.0], bins=5, support=(9.0, 11.0))
    with pytest.raises(ValueError, match="overlap"):
        rmt.fit_distance(h, law)
