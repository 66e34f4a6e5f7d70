"""Theta/eta q-series against fixed high-precision reference values.

Reference constants were computed with mpmath at 30 significant digits
from the defining series (eta as the q-product, theta1 as the
alternating sine series, theta constants as lattice sums) and are
hard-coded so the suite does not depend on mpmath at runtime.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_lqg.errors import NonConvergence, ValidationError
from torus_lqg.special import (
    MAX_TERMS,
    MIN_IM_TAU,
    TOLERANCE,
    _term_count,
    _theta_count,
    _theta_cut,
    dedekind_eta,
    theta1,
    theta1_over_z,
    theta1_product,
    theta1_z_derivative_at_zero,
    theta_aux,
)

TAU = 0.3 + 1.2j
Z = 0.17 + 0.23j

ETA_I = 0.7682254223260566590025942
ETA_2I = 0.5923827813324158852903634
ETA_TAU = 0.7282998191384615449427624 + 0.05694821566090455791407909j
THETA1_Z_TAU = 0.3685578069265340028971477 + 0.6296612010732234140773034j
# theta1 next to its zero at z = 0, at 1e-9 and at 1e-8 * (0.6 - 0.2i)
THETA1_NEAR_ZERO = 2.382705765796857778069086e-9 + 5.682188326869557460968524e-10j
THETA1_NEAR_ZERO_C = 1.543267226015505743250624e-8 - 1.356098535471980389574105e-9j
THETA2_I = 0.9135791381561168214072426
THETA3_I = 1.086434811213308014575316
THETA4_I = 0.9135791381561168214072426
DTHETA1_I = 2.848694603987787316079985
# theta1'(0) where theta1's absolute tail bound alone keeps one term
DTHETA1_A = 0.184723923470741114448165 + 0.07327166839154732413114958j  # 0.4808 + 4.3974i
DTHETA1_B = 0.177850925317502983027842  # 4.5387i
# theta2 where its absolute tail bound alone keeps one term
THETA2_A = 0.0606577164724852901628098 - 0.0251252488254853007184419j  # -0.5 + 4.35i

TIGHT = 1e-13
GRID_TOL = 1e-10


def tau_grid():
    """Small grid inside the fundamental domain."""
    taus = []
    for re in (-0.45, -0.2, 0.0, 0.25, 0.45):
        for im in (0.9, 1.1, 1.7, 2.6):
            if abs(complex(re, im)) >= 1.0:
                taus.append(complex(re, im))
    return taus


def test_eta_reference_values():
    assert abs(dedekind_eta(1j) - ETA_I) < TIGHT
    assert abs(dedekind_eta(2j) - ETA_2I) < TIGHT
    assert abs(dedekind_eta(TAU) - ETA_TAU) < TIGHT


def test_theta1_reference_value():
    assert abs(theta1(Z, TAU) - THETA1_Z_TAU) < TIGHT


def test_theta1_next_to_its_zero_is_relatively_exact():
    # a difference of exps would lose 3e-8 of the value at 1e-9
    for z, want in ((1e-9, THETA1_NEAR_ZERO), (1e-8 * (0.6 - 0.2j), THETA1_NEAR_ZERO_C)):
        assert abs(theta1(z, TAU) - want) <= 1e-12 * abs(want)


def test_theta_constants_at_i():
    assert abs(theta_aux(2, 1j) - THETA2_I) < TIGHT
    assert abs(theta_aux(3, 1j) - THETA3_I) < TIGHT
    assert abs(theta_aux(4, 1j) - THETA4_I) < TIGHT


def test_eta_translation():
    shift = cmath.exp(1j * math.pi / 12.0)
    for tau in tau_grid():
        assert abs(dedekind_eta(tau + 1) - shift * dedekind_eta(tau)) < GRID_TOL


def test_eta_inversion():
    for tau in tau_grid():
        lhs = dedekind_eta(-1.0 / tau)
        rhs = cmath.sqrt(tau / 1j) * dedekind_eta(tau)
        assert abs(lhs - rhs) < GRID_TOL


def test_theta1_derivative_is_eta_cubed():
    assert abs(theta1_z_derivative_at_zero(1j) - DTHETA1_I) < TIGHT
    for tau in tau_grid():
        lhs = theta1_z_derivative_at_zero(tau)
        rhs = 2.0 * math.pi * dedekind_eta(tau) ** 3
        assert abs(lhs - rhs) < GRID_TOL


@pytest.mark.parametrize("tau, want", ((0.4808 + 4.3974j, DTHETA1_A), (4.5387j, DTHETA1_B)))
def test_theta1_derivative_is_relatively_exact(tau, want):
    # one term would leave 3.0e-12 and 1.2e-12 of the value; the count keeps two
    for value in (theta1_z_derivative_at_zero(tau), theta1_over_z(0.0, tau)):
        assert abs(value - want) <= 1e-13 * abs(want)


def test_theta2_is_relatively_exact():
    # one term would leave 1.3e-12 of the value; the count keeps two
    assert abs(theta_aux(2, -0.5 + 4.35j) - THETA2_A) <= 1e-13 * abs(THETA2_A)


def test_theta1_derivative_against_mpmath_over_the_cusp():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for im in np.linspace(1.0, 12.0, 111):
        for re in (0.0, 0.31, -0.5):
            tau = complex(re, im)
            q = mp.exp(1j * mp.pi * mp.mpc(tau))
            want = complex(mp.pi * mp.jtheta(1, 0, q, 1))
            for value in (theta1_z_derivative_at_zero(tau), theta1_over_z(0.0, tau)):
                assert abs(value - want) <= 1e-13 * abs(want)
            want = complex(mp.jtheta(2, 0, q))
            assert abs(theta_aux(2, tau) - want) <= 1e-13 * abs(want)


@settings(max_examples=200, deadline=None)
@given(log_y=st.floats(math.log10(MIN_IM_TAU), 2.0), b_frac=st.floats(0.0, 1.0))
def test_theta_count_keeps_the_absolute_and_relative_bounds(log_y, b_frac):
    # at least theta1's absolute count, and a tail within the tolerance of
    # the first term: (2n+1) |q|^(n^2+n) e^(2 pi b n) summed from the count
    y = 10.0**log_y
    b = b_frac * y
    n = int(_theta_count(complex(0.2, y), b))
    assert n >= int(_theta_cut(complex(0.2, y), b))
    k = np.arange(n, n + 400)
    rel = np.exp(np.log(2 * k + 1) - math.pi * y * (k * k + k) + 2 * math.pi * b * k)
    assert rel.sum() <= 0.1 * TOLERANCE


def test_q_series_of_an_array_of_moduli_are_those_alone():
    rng = np.random.default_rng(4)
    taus = rng.uniform(-0.5, 0.5, 40) + 1j * 10.0 ** rng.uniform(-2.5, 2.0, 40)
    eta = dedekind_eta(taus)
    assert [complex(v) for v in eta] == [dedekind_eta(t) for t in taus]
    for k in (2, 3, 4):
        assert [complex(v) for v in theta_aux(k, taus)] == [theta_aux(k, t) for t in taus]


def test_theta1_derivative_is_theta_product():
    # pi * theta2 * theta3 * theta4 equals the z-derivative at 0
    for tau in tau_grid():
        prod = math.pi * theta_aux(2, tau) * theta_aux(3, tau) * theta_aux(4, tau)
        assert abs(theta1_z_derivative_at_zero(tau) - prod) < GRID_TOL


def test_theta1_series_vs_product():
    for tau in tau_grid():
        assert abs(theta1(Z, tau) - theta1_product(Z, tau)) < GRID_TOL


def test_jacobi_quartic_identity():
    for tau in tau_grid():
        t2 = theta_aux(2, tau) ** 4
        t3 = theta_aux(3, tau) ** 4
        t4 = theta_aux(4, tau) ** 4
        assert abs(t2 + t4 - t3) < GRID_TOL


def test_theta1_is_odd():
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        assert abs(theta1(-z, TAU) + theta1(z, TAU)) < 1e-12


def test_theta1_unit_periodicity():
    rng = np.random.default_rng(8)
    for _ in range(25):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        assert abs(theta1(z + 1.0, TAU) + theta1(z, TAU)) < 1e-12


def test_theta1_quasi_periodicity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        factor = -cmath.exp(-1j * math.pi * TAU - 2j * math.pi * z)
        assert abs(theta1(z + TAU, TAU) - factor * theta1(z, TAU)) < 1e-11


def test_theta1_vectorized_matches_scalar():
    zs = np.array([0.1 + 0.05j, -0.3 + 0.2j, 0.45 - 0.1j, 0.0 + 0.3j])
    vec = theta1(zs, TAU)
    for k, z in enumerate(zs):
        assert vec[k] == theta1(complex(z), TAU)


def test_theta1_over_z_removable_singularity():
    # theta1(z)/z extends continuously to z = 0 with value dtheta1(0)
    at_zero = theta1_over_z(0.0, 1j)
    assert abs(at_zero - DTHETA1_I) < TIGHT
    z = 1e-8
    assert abs(theta1_over_z(z, 1j) - at_zero) < 1e-8


def test_theta1_over_z_matches_quotient_away_from_zero():
    for z in (0.2 + 0.1j, -0.31 + 0.04j, 0.11 - 0.22j):
        assert abs(theta1_over_z(z, TAU) - theta1(z, TAU) / z) < 1e-13


def test_rejects_lower_half_plane():
    with pytest.raises(ValidationError):
        dedekind_eta(0.3 - 1.2j)
    with pytest.raises(ValidationError):
        theta1(Z, 0.5)


def test_nonconvergence_near_real_axis():
    with pytest.raises((NonConvergence, ValidationError)):
        dedekind_eta(0.3 + 1e-12j)


def test_theta1_rejects_non_finite_imaginary_part_at_once():
    with pytest.raises(NonConvergence, match="non-finite"):
        theta1(complex(0, float("nan")), 1j)


def test_eta_in_the_cusp():
    # exp(-2*pi*Im tau) underflows from Im tau ~ 119; the term count stays in logs
    want = math.exp(-25.0 * math.pi)
    assert abs(dedekind_eta(300j) - want) <= 1e-15 * want


def _bound_met(log_term, n, tol):
    """term_n / (1 - ratio_n) <= 0.1 * tol from the explicit log term."""
    log_ratio = log_term(n + 1) - log_term(n)
    if log_ratio >= 0:
        return False
    return log_term(n) - math.log1p(-math.exp(log_ratio)) <= math.log(0.1 * tol)


@settings(max_examples=300, deadline=None)
@given(
    log_y=st.floats(math.log10(MIN_IM_TAU), math.log10(110.0)),
    frac=st.floats(0.0, 1.2),
    x2=st.floats(0.0, 1.0, exclude_max=True),
    site=st.sampled_from(
        ["theta1", "theta34", "eta", "product", "appendix 1e-2", "appendix 1e-10"]
    ),
)
# the refined root lands one past the count here, so the step back is exercised
@example(log_y=-2.758, frac=0.08, x2=0.0, site="theta1")
@example(log_y=-2.438, frac=0.0, x2=0.0, site="theta34")
def test_term_count_is_smallest_meeting_tail_bound(log_y, frac, x2, site):
    y = 10.0**log_y
    bz = frac * y  # a bound on |Im z|; 0 is the theta2 / theta1'(0) case
    tol = TOLERANCE
    if site == "theta1":
        n = int(_theta_cut(complex(0.3, y), bz))
        log_term = lambda n: (
            math.log(2.0) - math.pi * y * (n + 0.5) ** 2 + (2 * n + 1) * math.pi * bz
        )
    elif site == "theta34":
        n = _term_count("theta_3 series", -math.pi * y, 0.0, math.log(2.0), 0.0)
        log_term = lambda n: math.log(2.0) - math.pi * y * n * n
    elif site == "eta":
        n = _term_count("eta product", 0.0, -2.0 * math.pi * y, 0.0, 0.0)
        log_term = lambda n: -2.0 * math.pi * y * n
    elif site == "product":
        n = _term_count("theta1 product", 0.0, -2.0 * math.pi * y, 2.0 * math.pi * bz, -1.0)
        log_term = lambda m: -2.0 * math.pi * y * (m - 1) + 2.0 * math.pi * bz
    else:
        tol = float(site.split()[1])
        n = _term_count("appendix m-sum", 0.0, -2.0 * math.pi * y, math.log(2.0), -x2, tol)
        log_term = lambda m: math.log(2.0) - 2.0 * math.pi * y * (m - x2)
    assert 1 <= n <= MAX_TERMS
    assert _bound_met(log_term, n, tol)
    if n > 1:
        assert not _bound_met(log_term, n - 1, tol)


def test_term_count_refuses_counts_above_cap():
    # about 4.8e5 eta factors and 2e6 theta terms: refused without stepping
    with pytest.raises(NonConvergence, match=f"more than {MAX_TERMS} terms"):
        _term_count("eta product", 0.0, -2.0 * math.pi * 1e-5, 0.0, 0.0)
    with pytest.raises(NonConvergence, match=f"more than {MAX_TERMS} terms"):
        theta1(1e6j, 1j)


def _site(site, y, v, x2):
    """(a, b, c, s, tol, log_term) of a term-count site at Im tau = y whose
    b varies with v: theta1 at the bound |Im z| = v * y, the eta product
    and the appendix m-sum at Im tau = (0.2 + v) * y."""
    if site == "theta1":
        bz = v * y
        return (-math.pi * y, 2.0 * math.pi * bz, math.log(2.0), 0.5, TOLERANCE,
                lambda n: math.log(2.0) - math.pi * y * (n + 0.5) ** 2 + (2 * n + 1) * math.pi * bz)
    yk = (0.2 + v) * y
    if site == "eta":
        return 0.0, -2.0 * math.pi * yk, 0.0, 0.0, TOLERANCE, lambda n: -2.0 * math.pi * yk * n
    return (0.0, -2.0 * math.pi * yk, math.log(2.0), -x2, 1e-10,
            lambda m: math.log(2.0) - 2.0 * math.pi * yk * (m - x2))


@settings(max_examples=200, deadline=None)
@given(
    log_y=st.floats(math.log10(MIN_IM_TAU), math.log10(110.0)),
    vs=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=12),
    x2=st.floats(0.0, 1.0, exclude_max=True),
    site=st.sampled_from(["theta1", "eta", "appendix"]),
)
def test_term_count_array_path_equals_float_path(log_y, vs, x2, site):
    y = 10.0**log_y
    sites = [_site(site, y, v, x2) for v in vs]
    a, _, c, s, tol, _ = sites[0]
    counts = _term_count("series", a, np.array([b for _, b, *_ in sites]), c, s, tol)
    assert counts.shape == (len(vs),)
    for n, (_, b, _, _, _, log_term) in zip(counts, sites):
        assert n == _term_count("series", a, b, c, s, tol)
        assert 1 <= n <= MAX_TERMS and _bound_met(log_term, n, tol)
        if n > 1:
            assert not _bound_met(log_term, n - 1, tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_term_count_refuses_non_finite_bounds_on_both_paths(bad):
    a, c = -math.pi, math.log(2.0)
    with pytest.raises(NonConvergence):
        _term_count("theta series", a, bad, c, 0.5)
    with pytest.raises(NonConvergence):
        _term_count("theta series", a, np.array([0.0, bad, 1.0]), c, 0.5)
    for b in (bad, np.array([0.1, bad])):
        with pytest.raises(NonConvergence, match="non-finite"):
            _theta_cut(1j, b)


def test_term_count_refuses_counts_above_cap_on_both_paths():
    # |Im z| = 1e6 at tau = i needs about 2e6 theta terms, Im tau = 1e-5 about 4.8e5 eta factors
    sites = [("theta series", -math.pi, 2.0 * math.pi * 1e6, math.log(2.0), 0.5),
             ("eta product", 0.0, -2.0 * math.pi * 1e-5, 0.0, 0.0)]
    for what, a, b, c, s in sites:
        for bound in (b, np.array([-2.0 * math.pi, b]), np.array([b, b])):
            with pytest.raises(NonConvergence, match=f"more than {MAX_TERMS} terms"):
                _term_count(what, a, bound, c, s)


@settings(max_examples=200, deadline=None)
@given(
    re=st.floats(-0.5, 0.5),
    log_y=st.floats(math.log10(MIN_IM_TAU), math.log10(110.0)),
    fracs=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=40),
)
def test_theta_cut_is_the_same_alone_and_in_any_array(re, log_y, fracs):
    tau = complex(re, 10.0**log_y)
    b = np.array(fracs) * tau.imag
    cut = _theta_cut(tau, b)
    assert cut.dtype.kind == "i"
    assert cut.tolist() == [_theta_cut(tau, float(v)) for v in b]
    assert cut[::-1].tolist() == _theta_cut(tau, b[::-1]).tolist()
