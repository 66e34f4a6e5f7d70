"""Spectral GFF sampling, circle averages, and the conformal-factor field."""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import j0, ndtri

from torus_lqg import gff
from torus_lqg.chaos import chaos_batches
from torus_lqg.config import MonteCarloConfig
from torus_lqg.errors import IndexOutOfCutoff, ValidationError
from torus_lqg.gff import (
    MODES,
    MODULUS,
    RESAMPLE,
    VOLUME,
    LogConformalFactor,
    RngStream,
    SpectralField,
    bessel_multiplier,
    build_log_conformal_factor,
    circle_average,
    dirichlet_energy,
    dirichlet_energy_grid,
    draw_modes,
    evaluate_on_grid,
    free_field_partition,
    modes_to_grid,
    pair_mean_se,
    regularized_variance,
    replica_grids,
    sample_gff,
    scaled_mode_weights,
    truncated_covariance,
)
from torus_lqg.green import green, spectral_coefficient
from torus_lqg.modular import S, T, c_tau, reduce_to_fundamental

TAU = 0.3 + 1.2j
ZFF_AT_I = 1.694426169587958173212998   # 1 / (sqrt(Im i) |eta(i)|^2)

SEED = 11
N_SMALL = 6


def small_spec():
    return LogConformalFactor(
        coeffs={
            (1, 0): 0.3 + 0.1j,
            (-1, 0): 0.3 - 0.1j,
            (0, 2): -0.2j,
            (0, -2): 0.2j,
            (1, 1): 0.05,
            (-1, -1): 0.05,
        },
        cutoff=4,
    )


def test_rng_stream_determinism():
    a = RngStream(SEED, 3).uniforms(1, 8)
    b = RngStream(SEED, 3).uniforms(1, 8)
    c = RngStream(SEED, 4).uniforms(1, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_is_deterministic_per_stream():
    f1 = sample_gff(TAU, N_SMALL, RngStream(SEED, 0))
    f2 = sample_gff(TAU, N_SMALL, RngStream(SEED, 0))
    f3 = sample_gff(TAU, N_SMALL, RngStream(SEED, 1))
    assert np.array_equal(f1.coeffs, f2.coeffs)
    assert not np.array_equal(f1.coeffs, f3.coeffs)


def test_sample_hermitian_and_mean_free():
    fld = sample_gff(TAU, N_SMALL, RngStream(SEED, 2))
    assert np.allclose(fld.coeffs, np.conj(fld.coeffs[::-1, ::-1]), atol=0, rtol=0)
    assert fld.mode(0, 0) == 0.0
    with pytest.raises(IndexOutOfCutoff):
        fld.mode(N_SMALL + 1, 0)


def test_sample_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        sample_gff(0.3 - 1.2j, N_SMALL, RngStream(SEED))
    with pytest.raises(ValidationError):
        sample_gff(TAU, 0, RngStream(SEED))


def test_grid_evaluation_matches_direct_sum():
    fld = sample_gff(TAU, 3, RngStream(SEED, 5))
    G = 16
    vals = evaluate_on_grid(fld, G)
    idx = np.arange(-3, 4)
    for i, j in ((0, 0), (3, 7), (10, 2), (15, 15)):
        direct = 0.0j
        for n in idx:
            for m in idx:
                direct += fld.mode(n, m) * np.exp(2j * np.pi * (n * i / G + m * j / G))
        assert abs(direct.imag) < 1e-12
        assert abs(vals[i, j] - direct.real) < 1e-12


def test_grid_too_coarse_rejected():
    fld = sample_gff(TAU, 4, RngStream(SEED, 6))
    with pytest.raises(ValidationError):
        evaluate_on_grid(fld, 8)
    with pytest.raises(ValidationError):
        modes_to_grid(fld.coeffs[:, 4:], 7)


def test_replica_engine_rejects_coarse_grid():
    mc = MonteCarloConfig(replicas=2, seed=SEED)
    with pytest.raises(ValidationError):
        list(replica_grids([scaled_mode_weights(TAU, 4)[0]], 8, mc))


def test_mode_variance_matches_spectrum():
    # per-mode sample variance ~ c_{n,m} within 4 SE
    replicas = 3000
    weights = scaled_mode_weights(TAU, 2)[0]
    draws = draw_modes(RngStream(SEED, 7), replicas, 2)[:, 2 + 1, 0] * weights[2 + 1, 2 + 0]
    c = spectral_coefficient(TAU, 1, 0)
    var = np.mean(np.abs(draws) ** 2)
    se = np.std(np.abs(draws) ** 2) / math.sqrt(replicas)
    assert abs(var - c) < 4.0 * se


def test_covariance_against_truncated_series():
    replicas = 3000
    cutoff = 8
    points = [(0.0, 0.0), (0.25, 0.0), (0.125, 0.375)]
    idx = np.arange(-cutoff, cutoff + 1)
    n, m = np.meshgrid(idx, idx, indexing="ij")
    phases = [np.exp(2j * np.pi * (n * x1 + m * x2)) for x1, x2 in points]
    prods = []
    for r in range(replicas):
        coeffs = sample_gff(1j, cutoff, RngStream(SEED, 8 + r)).coeffs
        vals = [float(np.sum(coeffs * ph).real) for ph in phases]
        prods.append([vals[0] * v for v in vals])
    prods = np.asarray(prods)
    for k, x in enumerate(points):
        want = truncated_covariance(1j, cutoff, x)
        got = float(np.mean(prods[:, k]))
        se = float(np.std(prods[:, k])) / math.sqrt(replicas)
        assert abs(got - want) < 4.0 * se


def test_truncated_covariance_approaches_green():
    x = (0.3, 0.4)
    coarse = truncated_covariance(1j, 50, x)
    fine = truncated_covariance(1j, 400, x)
    exact = green(1j, x)
    assert abs(fine - exact) < abs(coarse - exact)
    assert abs(fine - exact) < 5e-3


def test_bessel_multiplier_against_quadrature():
    # mode average over the metric circle |z| = eps equals J0
    eps = 0.2
    cutoff = 3
    mult = bessel_multiplier(TAU, cutoff, eps)
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    z = eps * np.exp(1j * thetas)
    x1, x2 = c_tau(TAU, z)
    for n, m in ((1, 0), (0, 1), (2, -3), (3, 3)):
        avg = np.mean(np.cos(2.0 * np.pi * (n * x1 + m * x2)))
        assert abs(avg - mult[cutoff + n, cutoff + m]) < 1e-12


def test_circle_average_bookkeeping():
    fld = sample_gff(TAU, N_SMALL, RngStream(SEED, 9))
    avg = circle_average(fld, 0.1)
    assert avg.eps == 0.1
    mult = bessel_multiplier(TAU, N_SMALL, 0.1)
    assert np.allclose(avg.coeffs, fld.coeffs * mult, atol=0, rtol=0)
    with pytest.raises(ValidationError):
        circle_average(avg, 0.05)
    with pytest.raises(ValidationError):
        circle_average(fld, 0.0)


@pytest.mark.parametrize("cutoff", (1, 8, 40, 512))
def test_mode_boxes_of_several_moduli_give_weights_and_variances(cutoff):
    # one J0 pass over K boxes: each box is its modulus's weights alone, byte
    # for byte, and each variance, the sum of that box's rows, is
    # regularized_variance to rounding (at two moduli from cutoff 512 on, to
    # bound the box memory)
    count = 2 if cutoff >= 512 else 5
    rng = np.random.default_rng(cutoff)
    taus = rng.uniform(-0.5, 0.5, count) + 1j * rng.uniform(0.8, 12.0, count)
    eps = rng.uniform(1e-3, 0.2, count)
    w, var = scaled_mode_weights(taus, cutoff, eps)
    assert w.shape == (count, 2 * cutoff + 1, 2 * cutoff + 1)
    for k in range(count):
        want = regularized_variance(taus[k], cutoff, eps[k])
        assert abs(var[k] - want) <= 1e-13 * want
        assert w[k].tobytes() == scaled_mode_weights(taus[k], cutoff, eps[k])[0].tobytes()


def test_regularized_variance_equals_coincident_covariance():
    for cutoff in (10, 40):
        a = regularized_variance(TAU, cutoff, 0.05)
        b = truncated_covariance(TAU, cutoff, (0.0, 0.0), eps=0.05)
        assert abs(a - b) < 1e-10 * abs(a)


def test_truncated_covariance_chunking_invariant(monkeypatch):
    a = truncated_covariance(TAU, 60, (0.3, 0.1), 0.02)
    monkeypatch.setattr(gff, "_VARIANCE_CELLS", 7 * 121)  # 7 of the 60 rows a chunk
    b = truncated_covariance(TAU, 60, (0.3, 0.1), 0.02)
    assert abs(a - b) < 1e-12 * abs(a)


def _brute_row(tau, cutoff, eps, n):
    m = np.arange(-cutoff, cutoff + 1)
    m = m[(m != 0) | (n != 0)]
    mult = j0(2.0 * np.pi * eps * np.abs(n * tau - m) / tau.imag)
    return float(np.sum(spectral_coefficient(tau, n, m) * mult**2))


@settings(max_examples=300, deadline=None)
@given(
    re=st.floats(-2.0, 2.0),
    im=st.floats(0.5, 8.0),
    eps=st.floats(1e-3, 0.1),
    cutoff=st.integers(1024, 4000),
    pick=st.floats(0.0, 1.0),
)
# row 364 has J0 arguments 2.287-2.478 around J0's first zero, so the row is
# 1.8e-3 of its 1/u envelope: its step must be finer than the envelope's
@example(re=0.0, im=8.0, eps=0.001, cutoff=1213, pick=0.296875)
def test_coarse_row_sum_matches_brute_row(re, im, eps, cutoff, pick):
    tau = complex(re, im)
    steps = gff._coarse_steps(tau, cutoff, eps)
    rows = np.flatnonzero(steps) + 1
    assume(rows.size)
    # the first coarse row has the narrowest strip, so the largest error
    for n in {int(rows[0]), int(rows[round(pick * (rows.size - 1))])}:
        fast = float(gff._coarse_row_sums(tau, cutoff, eps, np.array([n]), steps[n - 1])[0])
        want = _brute_row(tau, cutoff, eps, n)
        assert abs(fast - want) <= 1e-11 * want


@settings(max_examples=200, deadline=None)
@given(
    re=st.floats(-2.0, 2.0),
    im=st.floats(0.5, 8.0),
    eps=st.floats(1e-3, 0.1),
    cutoff=st.integers(1024, 4000),
    pick=st.floats(0.0, 1.0),
)
# a = 2 pi eps/Im tau = 1.26: the tail step would be 1/2, below the minimum,
# so the guard must keep these rows brute, with no tail sums at all
@example(re=0.3, im=0.5, eps=0.1, cutoff=2000, pick=0.5)
def test_near_row_sums_match_brute_rows(re, im, eps, cutoff, pick):
    tau = complex(re, im)
    stop = cutoff + 1 - np.count_nonzero(gff._coarse_steps(tau, cutoff, eps))
    ns = np.unique([0, 1, stop - 1, round(pick * (stop - 1))])
    guard = gff._near_step(tau, eps) < gff._NEAR_MIN_STEP
    no_tails = mock.patch.object(gff, "_coarse_row_sums", side_effect=AssertionError("a tail sum"))
    with no_tails if guard else contextlib.nullcontext():
        fast = gff._near_row_sums(tau, cutoff, eps, ns)
    for n, got in zip(ns, fast):
        want = _brute_row(tau, cutoff, eps, int(n))
        assert abs(got - want) <= 1e-12 * want


def test_near_rows_evaluate_a_fifth_of_their_points(monkeypatch):
    # the variance-constant rung of check all --quick: 32 near rows, whose
    # brute sum evaluates J0 at 8000 + 31 * 8001 = 256,031 points
    tau, cutoff, eps = 0.3 + 1.2j, 4000, 3e-3
    stop = cutoff + 1 - np.count_nonzero(gff._coarse_steps(tau, cutoff, eps))
    assert stop == 32 and gff._near_step(tau, eps) >= gff._NEAR_MIN_STEP
    seen = [0]
    inner = gff.j0

    def counted(x, *args, **kwargs):
        seen[0] += np.size(x)
        return inner(x, *args, **kwargs)

    monkeypatch.setattr(gff, "j0", counted)
    gff._near_row_sums(tau, cutoff, eps, np.arange(stop))
    assert seen[0] < 256_031 // 5


def _per_mode_covariance(tau, cutoff, x, eps):
    """The spectral series mode by mode, with a cosine per mode: the oracle of
    the separable truncated_covariance.  Returns the sum and the sum of |c|."""
    idx = np.arange(-cutoff, cutoff + 1)
    n, m = np.meshgrid(idx, idx, indexing="ij")
    half = (n > 0) | ((n == 0) & (m > 0))
    n, m = n[half], m[half]
    c = spectral_coefficient(tau, n, m)
    if eps:
        c = c * j0(2.0 * np.pi * eps * np.abs(n * tau - m) / tau.imag) ** 2
    cos = np.cos(2.0 * np.pi * (n * x[0] + m * x[1]))
    return 2.0 * float(np.sum(c * cos)), 2.0 * float(np.sum(c))


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(-2.0, 2.0),
    im=st.floats(0.3, 6.0),
    x1=st.floats(-3.0, 3.0),
    x2=st.floats(-3.0, 3.0),
    eps=st.one_of(st.just(0.0), st.floats(1e-3, 0.2)),
    cutoff=st.integers(1, 80),
)
def test_separable_covariance_matches_per_mode_sum(re, im, x1, x2, eps, cutoff):
    tau = complex(re, im)
    want, scale = _per_mode_covariance(tau, cutoff, (x1, x2), eps)
    assert abs(truncated_covariance(tau, cutoff, (x1, x2), eps) - want) <= 1e-13 * scale


def test_truncated_covariance_memory_is_bounded_by_its_row_chunks():
    # the stationarity base of test_04; the whole box took 225 MB traced
    tracemalloc.start()
    try:
        value = truncated_covariance(1j, 1500, (0.0, 0.0), 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert abs(value - regularized_variance(1j, 1500, 1e-2)) <= 1e-12 * value


def test_truncated_covariance_chunks_bound_its_cells_not_its_rows():
    # rows of 6001 cells: chunks of 512 rows would take 49.5 MB traced
    tracemalloc.start()
    try:
        truncated_covariance(1j, 3000, (0.0, 0.0), 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("eps", (1e-3, 1e-2))
@pytest.mark.parametrize(
    "tau",
    (0.3 + 1.2j, 1j, -0.45 + 0.9j, 0.1 + 3j, 1.7 + 0.6j, 0.05 + 0.2j, 0.3 + 8j, -0.5 + 0.866j),
)
def test_regularized_variance_matches_brute_sum(tau, eps):
    cutoff = 1500
    coarse = np.count_nonzero(gff._coarse_steps(tau, cutoff, eps))
    assert coarse or eps == 1e-2  # every tau has coarse rows at eps = 1e-3
    fast = regularized_variance(tau, cutoff, eps)
    want = truncated_covariance(tau, cutoff, (0.0, 0.0), eps)
    assert abs(fast - want) <= 1e-11 * want


def test_regularized_variance_matches_pinned_brute_sums():
    # reference values of the box summed term by term, row by row
    for (tau, cutoff, eps), want in (
        ((0.3 + 1.2j, 1023, 0.003), 4.582605782249967),
        ((1j, 64, 0.05), 1.6790009540627246),
        ((-0.5 + 0.866j, 700, 0.01), 3.2061809769087324),
    ):
        assert abs(regularized_variance(tau, cutoff, eps) - want) <= 1e-13 * want
        assert abs(truncated_covariance(tau, cutoff, (0.0, 0.0), eps) - want) <= 1e-13 * want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    re=st.floats(-2.0, 2.0),
    im=st.floats(0.05, 12.0),
    eps=st.floats(1e-4, 0.3),
    cutoff=st.integers(1, 1023),
)
# the largest gap of 700 random cases, 5.8e-14 relative: rows 6..16 are
# coarse rows of two to four panels
@example(re=-1.0281571642624638, im=6.5880701094894425, eps=1.86e-4, cutoff=16)
def test_regularized_variance_matches_the_box_below_cutoff_1024(re, im, eps, cutoff):
    tau = complex(re, im)
    want = truncated_covariance(tau, cutoff, (0.0, 0.0), eps)
    assert abs(regularized_variance(tau, cutoff, eps) - want) <= 1e-12 * want


def _count_rows(monkeypatch):
    """Count the whole rows |m| <= N (integer or real n) that _coarse_row_sums
    evaluates; the tails of the near rows are not counted."""
    seen = [0]
    inner = gff._coarse_row_sums

    def counted(tau, cutoff, eps, ns, step, lo=None, hi=None):
        seen[0] += len(ns) if lo is None else 0
        return inner(tau, cutoff, eps, ns, step, lo, hi)

    monkeypatch.setattr(gff, "_coarse_row_sums", counted)
    return seen


def test_regularized_variance_coarse_chunking_invariant(monkeypatch):
    a = regularized_variance(TAU, 1500, 0.002)
    monkeypatch.setattr(gff, "_VARIANCE_CELLS", 1000)
    seen = _count_rows(monkeypatch)
    b = regularized_variance(TAU, 1500, 0.002)
    assert abs(a - b) < 1e-13 * abs(a)
    # the rule along n is active: rows 306..1500 take 151 + 58 row sums
    assert seen[0] < np.count_nonzero(gff._coarse_steps(TAU, 1500, 0.002)) // 2


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(-2.0, 2.0),
    im=st.floats(0.5, 8.0),
    eps=st.floats(1e-3, 0.1),
    cutoff=st.integers(1024, 4000),
)
# the first coarse rows lie within d = 6 of the singularities of R, and J0^2
# turns along n at 2a|tau| = 1.2 a row: the step rule must keep these runs
# row by row (at a fixed H = 8 the variance comes out 7 times too large)
@example(re=0.45, im=7.558, eps=0.0962, cutoff=3147)
def test_run_total_matches_its_rows(re, im, eps, cutoff):
    tau = complex(re, im)
    for run, step in gff._coarse_runs(tau, cutoff, eps):
        fast = gff._run_total(tau, cutoff, eps, run, step)
        want = float(np.sum(gff._coarse_row_sums(tau, cutoff, eps, run, step)))
        assert abs(fast - want) <= 1e-12 * want


@pytest.mark.parametrize("tau, cutoff, eps", ((0.3 + 1.2j, 4000, 3e-3), (1j, 15000, 1e-3)))
def test_run_rule_matches_row_by_row_variance(monkeypatch, tau, cutoff, eps):
    # the variance-constant rungs of check all --quick and check all
    seen = _count_rows(monkeypatch)
    fast = regularized_variance(tau, cutoff, eps)
    rows = seen[0]
    monkeypatch.setattr(gff, "_RUN_MIN_ROWS", cutoff + 1)  # every run row by row
    want = regularized_variance(tau, cutoff, eps)
    assert seen[0] - rows == np.count_nonzero(gff._coarse_steps(tau, cutoff, eps))
    assert rows < (seen[0] - rows) // 5
    assert abs(fast - want) <= 1e-13 * want


def test_free_field_partition():
    assert abs(free_field_partition(1j) - ZFF_AT_I) < 1e-12
    for psi in (S, T):
        assert abs(free_field_partition(psi.act_on_uhp(TAU)) - free_field_partition(TAU)) < 1e-12


def test_conformal_spec_validation():
    with pytest.raises(ValidationError):
        LogConformalFactor(coeffs={(0, 0): 1.0}, cutoff=2)
    with pytest.raises(ValidationError):
        LogConformalFactor(coeffs={(1, 0): 1.0 + 0.5j, (-1, 0): 1.0 + 0.5j}, cutoff=2)
    with pytest.raises(IndexOutOfCutoff):
        LogConformalFactor(coeffs={(3, 0): 1.0, (-3, 0): 1.0}, cutoff=2)


def test_conformal_factor_at_reduced_modulus():
    spec = small_spec()
    fld = build_log_conformal_factor(spec, TAU)
    for (n, m), v in spec.coeffs.items():
        want = v * math.sqrt(spectral_coefficient(TAU, n, m))
        assert abs(fld.mode(n, m) - want) < 1e-14


def test_conformal_factor_modular_pointwise_law():
    # phi at psi(tau), composed with the reduction witness torus map,
    # reproduces phi at tau exactly on a commensurate grid
    spec = small_spec()
    G = 24
    base = evaluate_on_grid(build_log_conformal_factor(spec, TAU), G)
    i, j = np.meshgrid(np.arange(G), np.arange(G), indexing="ij")
    for psi in (S, T, T.compose(S)):
        ptau = psi.act_on_uhp(TAU)
        moved = evaluate_on_grid(build_log_conformal_factor(spec, ptau), G)
        w = reduce_to_fundamental(ptau).witness
        y1, y2 = w.act_on_torus(i / G, j / G)
        k1 = np.round(y1 * G).astype(int) % G
        k2 = np.round(y2 * G).astype(int) % G
        assert np.max(np.abs(moved[k1, k2] - base)) < 1e-12


def test_conformal_factor_shear_can_leave_box():
    spec = LogConformalFactor(coeffs={(4, 0): 0.1, (-4, 0): 0.1}, cutoff=4)
    with pytest.raises(IndexOutOfCutoff):
        build_log_conformal_factor(spec, TAU + 3.0)


def test_dirichlet_energy_routes_agree():
    fld = build_log_conformal_factor(small_spec(), TAU)
    e_spec = dirichlet_energy(fld)
    e_grid = dirichlet_energy_grid(fld, grid=64)
    assert abs(e_spec - e_grid) < 1e-10 * e_spec


def test_dirichlet_energy_quadratic():
    fld = build_log_conformal_factor(small_spec(), TAU)
    doubled = SpectralField(tau=fld.tau, cutoff=fld.cutoff, coeffs=2.0 * fld.coeffs)
    assert abs(dirichlet_energy(doubled) - 4.0 * dirichlet_energy(fld)) < 1e-12


def reference_grid(coeffs, grid):
    """Per-replica synthesis: scatter the full box, complex ifft2, real part."""
    N = (coeffs.shape[0] - 1) // 2
    slots = np.zeros((grid, grid), dtype=complex)
    idx = np.arange(-N, N + 1) % grid
    slots[np.ix_(idx, idx)] = coeffs
    return grid * grid * np.real(np.fft.ifft2(slots))


def engine_grids(weights, grid, mc):
    """Every replica of a replica_grids run: the engine yields the even
    grids of a batch, and replica 2j + 1 is the negation of grid j."""
    out = []
    for start, _, xs in replica_grids([weights], grid, mc):
        assert start == len(out)
        rows = min(2 * len(xs), mc.replicas - start)
        # a stack is a view into the engine's workspace, valid until the next one
        out.extend((-1) ** k * xs[k // 2] for k in range(rows))
    return np.array(out)


@settings(max_examples=30, deadline=None)
@given(
    cutoff=st.integers(1, 12),
    grid_factor=st.integers(2, 5),
    batch=st.integers(1, 6),
    replicas=st.integers(2, 20),
    base_stream=st.integers(0, 2**40),
    data=st.data(),
)
def test_replica_engine_matches_per_replica_reference(
    cutoff, grid_factor, batch, replicas, base_stream, data
):
    grid = grid_factor * (cutoff + 1)
    mc = MonteCarloConfig(replicas=replicas, seed=SEED, base_stream=base_stream)
    weights = scaled_mode_weights(TAU, cutoff, 0.1)[0]
    # shrink the cell budget to `batch` grids, rounded down to whole pairs
    # (at least one) per batch, so runs cross batch boundaries at every
    # grid size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gff, "_BATCH_CELLS", batch * grid * grid)
        grids = engine_grids(weights, grid, mc)
    # replica r is the field of row base_stream + r // 2, negated for odd r
    r = data.draw(st.integers(0, replicas - 1))
    alpha = (-1) ** r * draw_modes(RngStream(SEED, base_stream + r // 2), 1, cutoff)[0]
    alone = modes_to_grid(alpha * weights[:, cutoff:], grid)
    assert grids.shape == (replicas, grid, grid)
    mult = bessel_multiplier(TAU, cutoff, 0.1)
    for k in range(replicas):
        row = sample_gff(TAU, cutoff, RngStream(SEED, base_stream + k // 2))
        box = (-1) ** k * row.coeffs * mult
        want = reference_grid(box, grid)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(grids[k] - want)) <= 1e-12 * scale
        assert abs(np.exp(grids[k]).sum() - np.exp(want).sum()) <= 1e-12 * np.exp(want).sum()
    # replica r regenerated on its own gives the same mass as in the full run
    mass = np.exp(grids[r]).sum()
    assert abs(np.exp(alone).sum() - mass) <= 1e-12 * mass


def irfft2_stack(alpha, weight, grid):
    """Reference synthesis: alpha * w scattered by fancy index into a zeroed
    half-spectrum, then one irfft2."""
    N = alpha.shape[-1] - 1
    slots = np.zeros(alpha.shape[:-2] + (grid, grid // 2 + 1), dtype=complex)
    slots[..., np.arange(-N, N + 1) % grid, : N + 1] = alpha * weight[:, N:]
    return np.fft.irfft2(slots, s=(grid, grid), norm="forward")


def assert_near_irfft2(xs, alpha, weight, grid):
    """irfft2 is the oracle of the synthesis, to 1e-13 of its largest value."""
    ref = irfft2_stack(alpha, weight, grid)
    assert np.max(np.abs(xs - ref)) <= 1e-13 * np.max(np.abs(ref))


def reference_uniforms(rng, rows, width, purpose):
    """RngStream.uniforms written out: (k + 1/2) 2^-52, k a word's top 52 bits."""
    blocks = -(-width // 4)
    key = np.array([rng.seed % 2**64, purpose], dtype=np.uint64)
    philox = np.random.Philox(key=key, counter=rng.stream * blocks % 2**256)
    raw = philox.random_raw(rows * 4 * blocks).reshape(rows, 4 * blocks)
    return ((raw[:, :width] >> np.uint64(12)) + 0.5) * 2.0**-52


def reference_modes(rng, rows, N, purpose):
    """draw_modes written out with temporaries: uniforms, ndtri, half box."""
    u = reference_uniforms(rng, rows, (2 * N + 1) ** 2 - 1, purpose)
    z = (ndtri(u) * math.sqrt(0.5)).view(complex)
    half = np.zeros((rows, 2 * N + 1, N + 1), dtype=complex)
    half[:, :, 1:] = z[:, : (2 * N + 1) * N].reshape(rows, 2 * N + 1, N)
    half[:, N + 1 :, 0] = z[:, (2 * N + 1) * N :]
    half[:, N - 1 :: -1, 0] = np.conj(half[:, N + 1 :, 0])
    return half


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(1, 10),
    grid_factor=st.integers(2, 5),
    shave=st.integers(0, 1),
    boxes=st.integers(2, 3),
    batch=st.integers(1, 5),
    replicas=st.integers(2, 13),
    base_stream=st.integers(0, 2**40),
    purpose=st.sampled_from((MODES, RESAMPLE)),
)
@example(cutoff=64, grid_factor=4, shave=0, boxes=2, batch=2, replicas=5,
         base_stream=3, purpose=MODES)
@example(cutoff=9, grid_factor=2, shave=1, boxes=3, batch=3, replicas=7,
         base_stream=0, purpose=RESAMPLE)
def test_replica_engine_is_bit_identical_to_rows_alone(
    cutoff, grid_factor, shave, boxes, batch, replicas, base_stream, purpose
):
    # odd and even G down to 2N + 1, and N = 64 at G = 260; several weight
    # boxes share each batch's workspaces, and a small cell budget puts
    # batch boundaries and a partial last batch into the run.  Every even
    # grid is byte for byte modes_to_grid of its row drawn alone, and
    # irfft2 is the oracle to rounding.
    grid = grid_factor * (cutoff + 1) - shave
    mc = MonteCarloConfig(replicas=replicas, seed=SEED, base_stream=base_stream)
    weights = [
        scaled_mode_weights(tau, cutoff, eps)[0]
        for tau, eps in ((TAU, 0.1), (1j, 0.0), (-0.4 + 0.9j, 0.05))[:boxes]
    ]
    # a batch is a whole number of pairs, at least one, within the budget
    size = 2 * max(1, batch // 2)
    keys = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gff, "_BATCH_CELLS", batch * grid * grid)
        for start, k, xs in replica_grids(weights, grid, mc, purpose):
            keys.append((start, k))
            w = weights[k]
            rows = min(size, replicas - start)
            # the even replicas start, start + 2, ... are rows start / 2, ...
            rng = RngStream(SEED, base_stream + start // 2)
            alpha = draw_modes(rng, (rows + 1) // 2, cutoff, purpose)
            want = reference_modes(rng, (rows + 1) // 2, cutoff, purpose)
            assert alpha.tobytes() == want.tobytes()
            # only the even grids are stored, one per pair
            assert xs.shape == ((rows + 1) // 2, grid, grid)
            for j in range(len(xs)):
                row = RngStream(SEED, base_stream + start // 2 + j)
                alone = draw_modes(row, 1, cutoff, purpose)[0]
                assert xs[j].tobytes() == modes_to_grid(alone * w[:, cutoff:], grid).tobytes()
            assert_near_irfft2(xs, alpha, w, grid)
    # one stack per batch and weight box, in order
    assert keys == [(start, k) for start in range(0, replicas, size) for k in range(boxes)]


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(1, 10),
    grid_factor=st.integers(2, 5),
    shave=st.integers(0, 1),
    boxes=st.integers(2, 3),
    batch=st.integers(1, 5),
    replicas=st.integers(2, 13),
    base_stream=st.integers(0, 2**40),
)
@example(cutoff=64, grid_factor=4, shave=0, boxes=2, batch=2, replicas=3, base_stream=8)
def test_replica_pairs_are_negated_rows(
    cutoff, grid_factor, shave, boxes, batch, replicas, base_stream
):
    # even grid j of a replica_grids stack is gamma X of row base_stream +
    # start / 2 + j, byte for byte the modes_to_grid of that row drawn alone
    # with weights gamma w (and irfft2's grid to rounding); chaos_batches'
    # cells of replica 2j are its exp, and replica 2j + 1 is its negation,
    # so its cells are the reciprocals of replica 2j's and its mass sums
    # exp(-gamma X + offset)
    grid = grid_factor * (cutoff + 1) - shave
    mc = MonteCarloConfig(replicas=replicas, seed=SEED, base_stream=base_stream)
    gamma, offset = 1.3, -0.7
    ones = np.ones((grid, grid))
    points = [
        (gamma * scaled_mode_weights(tau, cutoff, eps)[0], math.exp(offset), ones)
        for tau, eps in ((TAU, 0.1), (1j, 0.0), (-0.4 + 0.9j, 0.05))[:boxes]
    ]
    size = 2 * max(1, batch // 2)
    seen, keys = 0, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gff, "_BATCH_CELLS", batch * grid * grid)
        grids = replica_grids([pt[0] for pt in points], grid, mc)
        for (start, i, cells, masses), (_, _, gxs) in zip(chaos_batches(points, mc), grids,
                                                          strict=True):
            keys.append((start, i))
            w = points[i][0]
            rows = len(masses)
            assert rows == min(2 * len(gxs), replicas - start)
            assert cells.shape == (2,) + gxs.shape
            assert cells[0].tobytes() == np.exp(gxs).tobytes()
            assert cells[1].tobytes() == np.reciprocal(cells[0]).tobytes()
            for j in range(len(gxs)):
                rng = RngStream(SEED, base_stream + start // 2 + j)
                alpha = reference_modes(rng, 1, cutoff, MODES)
                alone = modes_to_grid(alpha[0] * w[:, cutoff:], grid)
                assert gxs[j].tobytes() == alone.tobytes()
                assert_near_irfft2(gxs[j], alpha[0], w, grid)
            for k in range(1, rows, 2):
                direct = np.exp(-gxs[k // 2] + offset).sum()
                assert abs(masses[k] - direct) <= 1e-12 * direct
            if i == boxes - 1:
                seen += rows
    assert seen == replicas
    # one tuple per batch and point, in order
    assert keys == [(start, i) for start in range(0, replicas, size) for i in range(boxes)]


def test_pair_mean_se():
    values = np.random.default_rng(5).lognormal(size=12)
    mean, se = pair_mean_se(values)
    pairs = values.reshape(6, 2).mean(axis=1)
    assert mean == np.mean(values)
    assert math.isclose(se, np.std(pairs, ddof=1) / math.sqrt(6), rel_tol=1e-13)
    # odd R: the last replica is a cluster of one
    mean, se = pair_mean_se(values[:11])
    m = np.mean(values[:11])
    dev = np.append(values[:10].reshape(5, 2).sum(axis=1) - 2 * m, values[10] - m)
    assert mean == m
    assert math.isclose(se, math.sqrt(6 / 5 * np.sum(dev**2)) / 11, rel_tol=1e-13)
    # values near 1e-181 square below the smallest float; the SE scales with them
    for n in (12, 11):
        tiny_mean, tiny_se = pair_mean_se(values[:n] * 2.0**-600)
        mean, se = pair_mean_se(values[:n])
        assert tiny_mean == mean * 2.0**-600
        assert 0 < tiny_se and math.isclose(tiny_se, se * 2.0**-600, rel_tol=1e-13)
    # one pair, or a lone replica, carries no error estimate
    for n in (1, 2):
        with pytest.raises(ValidationError, match="at least two pairs"):
            pair_mean_se(values[:n])


def test_replica_batches_follow_cell_budget():
    # 2^16 cells per batch in whole pairs: 50 replicas at G = 36, one pair at G = 260
    for grid, size in ((36, 50), (260, 2)):
        mc = MonteCarloConfig(replicas=size + 1, seed=SEED)
        weights = scaled_mode_weights(TAU, grid // 4 - 1)[0]
        # a batch yields its even grids, one per pair: B = min(2P, R - start)
        sizes = [
            min(2 * len(xs), mc.replicas - start)
            for start, _, xs in replica_grids([weights], grid, mc)
        ]
        assert sizes == [size, 1]


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**40),
    purpose=st.sampled_from((MODES, RESAMPLE, VOLUME, MODULUS)),
    start=st.integers(0, 100),
    rows=st.integers(1, 9),
    width=st.integers(1, 40),
    data=st.data(),
)
def test_row_is_the_same_alone_and_in_any_batch(seed, stream, purpose, start, rows, width, data):
    batch = RngStream(seed, stream + start).uniforms(rows, width, purpose)
    i = data.draw(st.integers(0, rows - 1))
    alone = RngStream(seed, stream + start + i).uniforms(1, width, purpose)
    assert batch.shape == (rows, width)
    assert np.array_equal(batch[i], alone[0])
    assert np.all((batch > 0.0) & (batch < 1.0))


@pytest.mark.parametrize("width", [1, 2, 3, 5, 6, 7, 33, 287, 1087])
def test_uniforms_are_half_offset_top_bits(width):
    # widths that are not a multiple of 4 leave words unused at each row's
    # end; the used words keep the bytes of (k + 1/2) 2^-52, k a word's top
    # 52 bits
    for seed, purpose in ((0, MODES), (7, RESAMPLE), (2**63 + 5, VOLUME), (SEED, MODULUS)):
        rng = RngStream(seed, 12345)
        u = rng.uniforms(3, width, purpose)
        assert u.shape == (3, width)
        assert u.tobytes() == reference_uniforms(rng, 3, width, purpose).tobytes()
        # one reader goes on where its last read ended: reads of 1, 2 and 3
        # rows are rows 0, 1-2 and 3-5, each also readable alone
        read = rng.reader(width, purpose)
        pieces = np.concatenate([read(1), read(2), read(3)])
        assert pieces.tobytes() == rng.uniforms(6, width, purpose).tobytes()
        alone = RngStream(seed, 12345 + 4).uniforms(1, width, purpose)
        assert alone.tobytes() == pieces[4:5].tobytes()


def test_replica_engine_builds_one_generator_per_call(monkeypatch):
    # 40 replicas in batches of 6 (three pairs): seven batches, one Philox
    built = []
    philox = np.random.Philox

    def spy(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(gff, "_BATCH_CELLS", 3 * 2 * 12 * 12)
    monkeypatch.setattr(np.random, "Philox", spy)
    mc = MonteCarloConfig(replicas=40, seed=SEED, base_stream=5)
    starts = [start for start, _, _ in replica_grids([scaled_mode_weights(TAU, 2)[0]], 12, mc)]
    assert starts == list(range(0, 40, 6)) and built == [1]


def test_purposes_share_no_value():
    words = [
        RngStream(SEED, 0).uniforms(64, 40, purpose)
        for purpose in (MODES, RESAMPLE, VOLUME, MODULUS)
    ]
    for a in range(4):
        for b in range(a + 1, 4):
            assert np.intersect1d(words[a], words[b]).size == 0


def test_mode_draw_degrees_of_freedom():
    # every real degree of freedom is N(0, 1/2); column m = 0 mirrors n > 0
    N, rows = 3, 4000
    half = draw_modes(RngStream(SEED, 0), rows, N)
    modes = np.concatenate([half[:, :, 1:].reshape(rows, -1), half[:, N + 1 :, 0]], axis=1)
    x = np.concatenate([modes.real, modes.imag], axis=1)
    assert x.shape[1] == (2 * N + 1) ** 2 - 1
    se = np.std(x, axis=0) / math.sqrt(rows)
    assert np.all(np.abs(np.mean(x, axis=0)) < 4.0 * se)
    se = np.std(x * x, axis=0) / math.sqrt(rows)
    assert np.all(np.abs(np.mean(x * x, axis=0) - 0.5) < 4.0 * se)
    assert np.array_equal(half[:, N - 1 :: -1, 0], np.conj(half[:, N + 1 :, 0]))
    assert np.all(half[:, N, 0] == 0.0)
