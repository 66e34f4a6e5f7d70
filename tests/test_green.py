"""Torus Green function: three evaluation routes against each other and
against fixed high-precision reference values (mpmath, 30 digits)."""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torus_lqg.errors import NonConvergence, NumericError, SingularPoint, ValidationError
from torus_lqg.green import (
    GreenEvalConfig,
    green,
    green_centered,
    green_grid,
    green_log_subtracted,
    green_mean_zero,
    green_regularized,
    min_lattice_distance,
    spectral_coefficient,
    theta_offset,
)
from torus_lqg.modular import S, T, p_tau, wrap_centered
from torus_lqg.special import TOLERANCE, _term_count, theta1, theta1_over_z

TAU = 0.3 + 1.2j
# the package exports the function green under the module's name
green_module = importlib.import_module("torus_lqg.green")

G_AT_I = -0.2653187654762589130082547      # green(i, (0.3, 0.4))
G_AT_TAU = -0.1626936464784249713635174    # green(0.3+1.2j, (0.15, -0.35))
THETA_AT_I = -1.310532925911509518252275   # -ln(2 pi) - 2 ln eta(i)
G_NEAR_LATTICE = 2.702641908899733165107377  # green(4.5387i, (0, 0.975))

POINTS = [(0.3, 0.4), (0.15, -0.35), (0.05, 0.45), (-0.4, 0.2), (0.25, 0.25)]

APPENDIX_FINE = GreenEvalConfig(mode="appendix", tolerance=1e-10)


def test_reference_values():
    assert abs(green(1j, (0.3, 0.4)) - G_AT_I) < 1e-12
    assert abs(green(TAU, (0.15, -0.35)) - G_AT_TAU) < 1e-12
    assert abs(theta_offset(1j) - THETA_AT_I) < 1e-12


def test_near_lattice_point_is_relatively_truncated():
    # |theta1| is small here; theta1's absolute tail bound alone left G
    # 1.45e-12 off, the count relative to the first term keeps it within 1e-15
    assert abs(green(4.5387j, (0.0, 0.975)) - G_NEAR_LATTICE) < 1e-14


def test_green_against_mpmath_next_to_the_lattice():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def reference(tau, x1, x2):
        t = mp.mpc(tau)
        q = mp.exp(1j * mp.pi * t)
        eta = mp.exp(1j * mp.pi * t / 12) * mp.qp(q**2)
        theta = mp.jtheta(1, mp.pi * (x1 + t * x2), q)
        return mp.pi * t.imag * x2**2 - mp.log(abs(theta / eta))

    for im in np.linspace(1.0, 12.0, 45):
        for x1, x2 in ((0.0, 0.975), (0.0, -0.025), (0.01, 0.99), (0.2, 0.03), (0.3, 0.0)):
            want = float(reference(complex(0.0, im), mp.mpf(x1), mp.mpf(x2)))
            assert abs(green(complex(0.0, im), (x1, x2)) - want) <= 1e-12


def test_periodicity():
    for x1, x2 in POINTS:
        base = green(TAU, (x1, x2))
        assert abs(green(TAU, (x1 + 2.0, x2 - 3.0)) - base) < 1e-12
        assert abs(green(TAU, (x1 - 1.0, x2 + 1.0)) - base) < 1e-12


def test_evenness():
    for x1, x2 in POINTS:
        assert abs(green(TAU, (-x1, -x2)) - green(TAU, (x1, x2))) < 1e-12


def test_vectorized_matches_scalar():
    # two points near the lattice and one within 1e-2 of it share the array with the bulk
    points = POINTS + [(0.03, -0.02), (-0.96, 0.99), (1.004, -0.003)]
    x1 = np.array([p[0] for p in points])
    x2 = np.array([p[1] for p in points])
    vec = green(TAU, (x1, x2))
    for k, (a, b) in enumerate(points):
        assert vec[k] == green(TAU, (a, b))


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(-0.5, 0.5),
    im=st.floats(0.85, 3.0),
    size=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_value_independent_of_batch(re, im, size, seed):
    tau = complex(re, im)
    assume(abs(tau) >= 1.0)
    rng = np.random.default_rng(seed)
    # |Im z| from 1e-3 * Im tau to past Im tau, so points need different term counts
    spread = rng.choice([1e-3, 0.1, 0.5, 1.2], size) * im
    z = rng.uniform(-0.5, 0.5, size) + 1j * spread * rng.uniform(-1.0, 1.0, size)
    for fn in (theta1, theta1_over_z):
        batch = fn(z, tau)
        for k in range(size):
            assert fn(complex(z[k]), tau) == batch[k]
    # each point's truncation leaves a tail bound within a tenth of the target
    b = np.abs(z.imag)
    # at least theta1's absolute count, term_n <= 2 |q|^((n+1/2)^2) e^((2n+1) pi b)
    n = _term_count("theta series", -math.pi * im, 2.0 * math.pi * b, math.log(2.0), 0.5)
    log_absq = -math.pi * im
    term = 2.0 * np.exp(log_absq * (n + 0.5) ** 2 + (2 * n + 1) * math.pi * b)
    ratio = np.exp(log_absq * (2 * n + 2) + 2.0 * math.pi * b)
    assert np.all(ratio < 1.0) and np.all(term / (1.0 - ratio) <= 0.1 * TOLERANCE)
    # half the Green points sit next to a lattice translate (near route), half anywhere
    near = rng.random(size) < 0.5
    x1 = np.where(near, rng.integers(-2, 3, size) + rng.uniform(-0.05, 0.05, size),
                  rng.uniform(-1.0, 1.0, size))
    x2 = np.where(near, rng.integers(-2, 3, size) + rng.uniform(-0.05, 0.05, size),
                  rng.uniform(-1.0, 1.0, size))
    for fn in (green, lambda t, x: green_log_subtracted(t, *x)):
        batch = fn(tau, (x1, x2))
        for k in range(size):
            assert fn(tau, (x1[k], x2[k])) == batch[k]


# an axis shift of 0 puts a point on the lattice, one below 1e-2 next to it
SHIFT = st.one_of(st.just(0.0), st.floats(-1e-2, 1e-2), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    re=st.floats(-0.5, 0.5),
    im=st.floats(0.6, 12.0),
    n1=st.integers(1, 80),
    n2=st.integers(1, 80),
    d1=SHIFT,
    d2=SHIFT,
)
def test_uncapped_grid_equals_green(re, im, n1, n2, d1, d2):
    tau = complex(re, im)
    x1, x2 = np.arange(n1) / n1 + d1, np.arange(n2) / n2 + d2
    c1, c2 = wrap_centered(x1), wrap_centered(x2)
    az = np.abs(p_tau(tau, c1[:, None], c2))
    if np.any(az == 0):
        with pytest.raises(NumericError):
            green_grid(tau, c1, c2, 0.0)
        return
    assume(az.min() >= 1e-13)  # green rejects the points closer to the lattice
    want = green(tau, np.meshgrid(x1, x2, indexing="ij"))
    assert np.abs(green_grid(tau, c1, c2, 0.0) - want).max() <= 1e-12


def test_eigen_route_agrees():
    cfg = GreenEvalConfig(mode="eigen", eigen_cutoff=150, tolerance=1e-1)
    for tau in (1j, TAU):
        for x1, x2 in POINTS[:3]:
            assert abs(green(tau, (x1, x2), cfg) - green(tau, (x1, x2))) < 1e-2
    # within its own error estimate 4/N^1.5; at N = 3000 the series sums many row chunks
    for cutoff in (400, 3000):
        cfg = GreenEvalConfig(mode="eigen", eigen_cutoff=cutoff)
        assert abs(green(TAU, (0.3, 0.4), cfg) - green(TAU, (0.3, 0.4))) <= 4 / cutoff**1.5


def test_appendix_route_agrees():
    # at 900i a factor's q^m and e^{-2 pi i z} alone are 0 and inf
    for tau in (1j, TAU, 900j):
        for x1, x2 in POINTS:
            a = green(tau, (x1, x2), APPENDIX_FINE)
            assert abs(a - green(tau, (x1, x2))) < 1e-9


def test_closed_route_agrees_with_the_appendix_deep_in_the_cusp():
    # |theta1| itself leaves the float range here (ln|theta1| ~ 785); ln|theta1/z| is in log space
    want = green(1000j, (0.3, 0.5), APPENDIX_FINE)
    assert abs(green(1000j, (0.3, 0.5)) - want) <= 1e-12 * abs(want)
    # every grid column's theta1 terms are scaled by its largest term
    u = (np.arange(8) + 0.5) / 8
    grid = green_grid(2000j, wrap_centered(u), wrap_centered(u), 0.0)
    for i, j in np.ndindex(grid.shape):
        want = green(2000j, (u[i], u[j]), APPENDIX_FINE)
        assert abs(grid[i, j] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("im", [2800.0, 2900.0, 5000.0])
def test_closed_route_agrees_with_the_appendix_past_eta_underflow(im):
    # |eta| = e^(-pi Im tau / 12) is subnormal at 2800i and 0 from 2900i;
    # ln|eta| is formed in log space, so G stays within 1e-12 of the appendix
    tau = complex(0.0, im)

    def close(value, x1, x2):
        want = green(tau, (x1, x2), APPENDIX_FINE)
        return abs(value - want) <= 1e-12 * abs(want)

    assert close(green(tau, (0.3, 0.5)), 0.3, 0.5)
    x1, x2 = np.array([0.3, 0.004, 0.2]), np.array([0.5, 0.0, 0.3])
    assert all(close(v, a, b) for v, a, b in zip(green(tau, (x1, x2)), x1, x2))
    u = (np.arange(8) + 0.5) / 8
    grid = green_grid(tau, wrap_centered(u), wrap_centered(u), 0.0)
    assert all(close(grid[i, j], u[i], u[j]) for i, j in np.ndindex(grid.shape))


def test_eigen_route_is_the_truncated_covariance():
    from torus_lqg.gff import truncated_covariance

    cfg = GreenEvalConfig(mode="eigen", eigen_cutoff=150, tolerance=2e-2)
    for tau in (1j, TAU):
        for x in POINTS:
            assert green(tau, x, cfg) == truncated_covariance(tau, 150, x)


def test_green_module_loads_no_scipy():
    code = "import sys, torus_lqg.green; assert 'scipy' not in sys.modules"
    src = str(Path(green_module.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_eigen_route_reports_nonconvergence():
    cfg = GreenEvalConfig(mode="eigen", eigen_cutoff=50, tolerance=1e-9)
    with pytest.raises(NonConvergence):
        green(1j, (0.3, 0.4), cfg)


def test_mean_zero():
    assert abs(green_mean_zero(1j, 128)) < 1e-4
    assert abs(green_mean_zero(TAU, 128)) < 1e-4


def test_modular_invariance():
    rng = np.random.default_rng(5)
    for tau in (1j, TAU):
        for psi in (S, T):
            ptau = psi.act_on_uhp(tau)
            for _ in range(10):
                x1, x2 = rng.uniform(0.05, 0.95, size=2)
                y1, y2 = psi.act_on_torus(x1, x2)
                assert abs(green(ptau, (x1, x2)) - green(tau, (y1, y2))) < 1e-10


def test_log_subtracted_value_at_origin():
    assert abs(green_log_subtracted(1j, 0.0, 0.0) - THETA_AT_I) < 1e-12
    assert abs(green_log_subtracted(TAU, 1e-7, 2e-7) - theta_offset(TAU)) < 1e-6


def test_log_subtracted_matches_green_away_from_origin():
    for x1, x2 in POINTS:
        z = p_tau(TAU, x1, x2)
        expected = green(TAU, (x1, x2)) + math.log(abs(z))
        assert abs(green_log_subtracted(TAU, x1, x2) - expected) < 1e-12


def test_short_distance_expansion():
    # G(x) + ln|p_tau(x)| -> Theta(tau) as x -> 0
    for tau in (1j, TAU):
        delta = 1e-6
        val = green(tau, (delta, 0.0)) + math.log(abs(p_tau(tau, delta, 0.0)))
        assert abs(val - theta_offset(tau)) < 1e-5
    # green_centered also takes the points green rejects as singular; ln|p|
    # is a log of its own, so a subnormal |p| keeps the expansion exact
    for x1, x2 in ((0.0, 5e-324), (5e-324, 0.0), (3e-320, -7e-321)):
        val = green_centered(TAU, x1, x2) + math.log(abs(p_tau(TAU, x1, x2)))
        assert abs(val - theta_offset(TAU)) < 1e-12


def test_no_jump_at_route_switch():
    # one formula at every distance from the lattice: second differences
    # stay smooth across |z| = 1e-2
    xs = np.linspace(0.0095, 0.0105, 41)
    vals = np.array([green(1j, (x, 0.0)) for x in xs])
    second = np.abs(np.diff(vals, n=2))
    # a jump would spike one second difference far above its neighbours
    assert np.max(second) < 3.0 * np.median(second)
    assert np.max(second) < 1e-4


def test_one_kernel_call_per_green_call(monkeypatch):
    # points within 1e-2 of the lattice and bulk points in one array take one theta1 series pass
    x = (np.array([0.3, 0.004, 0.45, -0.003, -0.2]), np.array([0.4, 0.0, 0.1, 0.002, 0.35]))
    want = green(TAU, x)
    calls = []
    kernel = green_module._log_theta1_over_z

    def spy(z, tau):
        calls.append(np.shape(z))
        return kernel(z, tau)

    monkeypatch.setattr(green_module, "_log_theta1_over_z", spy)
    assert np.array_equal(green(TAU, x), want)
    assert calls == [(5,)]


def test_regularized_at_origin():
    # circle-averaged G at radius eps: ln(1/eps) + Theta + O(eps^2)
    eps = 1e-3
    for tau in (1j, TAU):
        val = green_regularized(tau, (0.0, 0.0), eps)
        assert abs(val - (math.log(1.0 / eps) + theta_offset(tau))) < 1e-4


def test_regularized_matches_green_at_distance():
    eps = 1e-3
    for x1, x2 in POINTS[:3]:
        val = green_regularized(TAU, (x1, x2), eps)
        assert abs(val - green(TAU, (x1, x2))) < 1e-4


def test_spectral_coefficient_values():
    tau = TAU
    for n, m in ((1, 0), (0, 1), (3, -2)):
        expected = tau.imag / (2.0 * math.pi * abs(n * tau - m) ** 2)
        assert abs(spectral_coefficient(tau, n, m) - expected) < 1e-15
        assert spectral_coefficient(tau, -n, -m) == spectral_coefficient(tau, n, m)
        assert spectral_coefficient(tau, n, m) > 0


def test_min_lattice_distance_values():
    assert min_lattice_distance(1j) == 1.0
    assert min_lattice_distance(TAU) == 1.0
    assert abs(min_lattice_distance(0.1 + 0.95j) - math.hypot(0.1, 0.95)) < 1e-15


def test_singular_points_raise():
    with pytest.raises(SingularPoint):
        green(TAU, (0.0, 0.0))
    with pytest.raises(SingularPoint):
        green(TAU, (2.0, -1.0))
    with pytest.raises(SingularPoint):
        green(TAU, (1e-14, 1e-14))


def test_bad_mode_rejected():
    with pytest.raises(ValidationError):
        GreenEvalConfig(mode="exact")


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_outside_domain_rejected(tolerance):
    with pytest.raises(ValidationError, match="tolerance"):
        GreenEvalConfig(mode="appendix", tolerance=tolerance)
