"""Liouville partition functional: zero-mode closed form, Seiberg gating,
KPZ scaling, Weyl response, and the weighted field-law sampler."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from torus_lqg import gff, lqft
from torus_lqg.chaos import chaos_points, chaos_prefactor, sample_total_masses
from torus_lqg.config import FieldResolution, MonteCarloConfig
from torus_lqg.errors import (
    DuplicateInsertion,
    InvalidGamma,
    SeibergViolationLocal,
    SeibergViolationSum,
    SingularPoint,
    ValidationError,
)
from torus_lqg.gff import build_log_conformal_factor, free_field_partition
from torus_lqg.gff import RESAMPLE, LogConformalFactor, RngStream, SpectralField
from torus_lqg.gff import draw_modes, modes_to_grid, regularized_variance, scaled_mode_weights
from torus_lqg.green import (
    GreenEvalConfig,
    green,
    green_centered,
    green_log_subtracted,
    min_lattice_distance,
    theta_offset,
)
from torus_lqg.lqft import (
    Insertion,
    InsertionSet,
    LQFTParams,
    conformal_weight,
    insertion_constant,
    insertion_mass_samples,
    insertion_potential,
    insertion_potential_grid,
    inverse_power_mean,
    liouville_field_law_sampler,
    partition_function,
    weyl_anomaly_factor,
    weyl_anomaly_log_factor,
)
from torus_lqg.modular import p_tau, wrap_centered

TAU = 0.3 + 1.2j
SEED = 12

MC_SMALL = MonteCarloConfig(replicas=400, seed=SEED)
RES_SMALL = FieldResolution(cutoff=8, grid_factor=4)

TWO_POINTS = InsertionSet(((0.2, 0.3, 0.8), (0.7, 0.6, 0.5)))


def test_conformal_weight():
    for gamma in (0.5, 1.0, 1.5, math.sqrt(8.0 / 3.0)):
        q = 2.0 / gamma + gamma / 2.0
        assert abs(conformal_weight(gamma, q) - 1.0) < 1e-14
        alpha = 0.37
        assert abs(conformal_weight(alpha, q) - conformal_weight(2.0 * q - alpha, q)) < 1e-12


def test_params_validation():
    assert LQFTParams(gamma=1.0).q == 2.5
    LQFTParams(gamma=2.0)                      # critical value is allowed
    for bad in (0.0, -1.0, 2.2):
        with pytest.raises(InvalidGamma):
            LQFTParams(gamma=bad)
    with pytest.raises(ValidationError):
        LQFTParams(gamma=1.0, mu=0.0)


def test_insertion_set_basics():
    ins = InsertionSet(((0.2, 0.3, 0.8), Insertion(0.7, 0.6, -0.5)))
    assert isinstance(ins.insertions[0], Insertion)
    assert abs(ins.alpha_sum - 0.3) < 1e-15
    assert ins.seiberg_sum_ok()
    assert ins.seiberg_local_ok(q=1.0)
    assert not ins.seiberg_local_ok(q=0.7)
    assert not InsertionSet(((0.1, 0.1, -0.4),)).seiberg_sum_ok()


def test_seiberg_gate_checks_the_sum_then_each_weight():
    InsertionSet(((0.2, 0.3, 0.8),)).require_seiberg(1.0)
    with pytest.raises(SeibergViolationSum):
        InsertionSet(()).require_seiberg(2.5)
    with pytest.raises(SeibergViolationSum):
        InsertionSet(((0.2, 0.3, 3.0), (0.7, 0.6, -4.0))).require_seiberg(2.5)
    with pytest.raises(SeibergViolationLocal):
        InsertionSet(((0.2, 0.3, 3.0), (0.7, 0.6, 0.5))).require_seiberg(2.5)


def test_duplicate_insertions_rejected():
    with pytest.raises(DuplicateInsertion):
        InsertionSet(((0.2, 0.3, 0.8), (0.2, 0.3, 0.5)))
    with pytest.raises(DuplicateInsertion):
        InsertionSet(((0.1, 0.2, 0.8), (1.1, -0.8, 0.5)))   # same point mod 1


def test_insertion_potential_is_green_sum():
    x = (0.45, 0.15)
    want = 0.8 * green(TAU, (x[0] - 0.2, x[1] - 0.3)) + 0.5 * green(
        TAU, (x[0] - 0.7, x[1] - 0.6)
    )
    assert abs(insertion_potential(TAU, TWO_POINTS, x) - want) < 1e-13
    with pytest.raises(SingularPoint):
        insertion_potential(TAU, TWO_POINTS, (0.2, 0.3))


def test_insertion_potential_grid_matches_exact_away_from_insertions():
    g = 40
    h = insertion_potential_grid(TAU, TWO_POINTS, g, eps_cap=1e-3)
    for i, j in ((0, 0), (17, 33), (30, 5)):
        want = insertion_potential(TAU, TWO_POINTS, (i / g, j / g))
        assert abs(h[i, j] - want) < 1e-12


def test_insertion_potential_grid_cap_at_insertion():
    # single insertion sitting exactly on a grid node
    g = 40
    eps = 0.01
    ins = InsertionSet(((0.25, 0.5, 0.8),))
    h = insertion_potential_grid(TAU, ins, g, eps_cap=eps)
    i, j = 10, 20
    want = 0.8 * (green_log_subtracted(TAU, 0.0, 0.0) - math.log(eps))
    assert abs(h[i, j] - want) < 1e-12
    with pytest.raises(ValidationError):
        insertion_potential_grid(TAU, ins, g, eps_cap=0.0)


def pointwise_potential_grid(tau, ins, grid, cap):
    """H cell by cell through green_centered, -ln|p| capped at -ln(cap) on near points."""
    u = np.arange(grid) / grid
    x1, x2 = np.meshgrid(u, u, indexing="ij")
    total = np.zeros((grid, grid))
    for i in ins.insertions:
        y1, y2 = wrap_centered(x1 - i.x1), wrap_centered(x2 - i.x2)
        az = np.abs(p_tau(tau, y1, y2))
        near = az < 0.25 * min_lattice_distance(tau)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = green_centered(tau, y1, y2) + np.where(
                near, np.log(az) - np.log(np.maximum(az, cap)), 0.0)
        g[az == 0] = green_log_subtracted(tau, 0.0, 0.0) - math.log(cap)
        total += i.alpha * g
    return total


@st.composite
def grid_insertions(draw, grid):
    """1-3 insertions: on a node, within 1e-9 of one, or anywhere."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["node", "next to a node", "generic"]))
        if kind == "generic":
            x1, x2 = draw(st.floats(0, 1, exclude_max=True)), draw(st.floats(0, 1, exclude_max=True))
        else:
            x1, x2 = (draw(st.integers(0, grid - 1)) / grid for _ in range(2))
            if kind == "next to a node":
                x1 += draw(st.floats(-1e-9, 1e-9))
                x2 += draw(st.floats(-1e-9, 1e-9))
        out.append((x1, x2, draw(st.floats(0.1, 2.0))))
    return out


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-0.5, 0.5),
    im=st.floats(0.85, 12.0),
    grid=st.integers(3, 80),
    log_cap=st.floats(-4.0, -1.0),
    data=st.data(),
)
def test_insertion_potential_grid_equals_pointwise(re, im, grid, log_cap, data):
    tau = complex(re, im)
    assume(abs(tau) >= 1.0)
    try:
        ins = InsertionSet(data.draw(grid_insertions(grid)))
    except DuplicateInsertion:
        assume(False)
    cap = 10.0**log_cap
    h = insertion_potential_grid(tau, ins, grid, cap)
    assert np.abs(h - pointwise_potential_grid(tau, ins, grid, cap)).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    moduli=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(0.5, 12.0)), min_size=1, max_size=6),
    cutoff=st.integers(1, 6),
    gamma=st.floats(0.1, 1.9),
    batch=st.integers(1, 6),
    data=st.data(),
)
def test_tilted_points_are_the_same_alone_and_in_any_block(moduli, cutoff, gamma, batch, data):
    # weights, factor, tilt and H of each modulus are byte for byte those it
    # has alone, in one block of all moduli and in _BATCH_CELLS blocks of
    # `batch` moduli; so is each untilted chaos_points point, whose tilt is
    # ones; H matches the pointwise reference
    params = LQFTParams(gamma=gamma)
    res = FieldResolution(cutoff=cutoff, grid_factor=4)
    G = res.grid
    try:
        ins = InsertionSet(data.draw(grid_insertions(G)))
    except DuplicateInsertion:
        assume(False)
    taus = [complex(re, im) for re, im in moduli]
    eps = np.array([res.eps_for(tau) for tau in taus])
    alone = [list(lqft._tilted_points(params, [tau], ins, res)) for tau in taus]
    together = list(lqft._tilted_points(params, taus, ins, res))
    h_grids = insertion_potential_grid(np.array(taus), ins, G, eps)
    plain = chaos_points(taus, gamma, params.q, res)
    # the blocks' first moduli, seen by the one chaos_points call of each block
    starts, formed = [], []

    def spy(block, *args):
        starts.append(len(formed))
        points = chaos_points(block, *args)
        formed.extend(points)
        return points

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gff, "_BATCH_CELLS", batch * G * G)
        mp.setattr(lqft, "chaos_points", spy)
        split = list(lqft._tilted_points(params, taus, ins, res))
    assert starts == list(range(0, len(taus), batch))
    for k, tau in enumerate(taus):
        (point,) = alone[k]
        (h_alone,) = insertion_potential_grid(np.array([tau]), ins, G, eps[k : k + 1])
        assert h_grids[k].tobytes() == h_alone.tobytes()
        for other in (together[k], split[k]):
            assert other[0].tobytes() == point[0].tobytes()
            assert other[1] == point[1]
            assert other[2].tobytes() == point[2].tobytes()
        (plain_alone,) = chaos_points([tau], gamma, params.q, res)
        assert plain[k][0].tobytes() == plain_alone[0].tobytes() == point[0].tobytes()
        assert plain[k][1] == plain_alone[1] == point[1]
        assert plain[k][2].tobytes() == plain_alone[2].tobytes() == np.ones((G, G)).tobytes()
        cap = res.eps_for(tau)
        assert np.abs(h_alone - pointwise_potential_grid(tau, ins, G, cap)).max() <= 1e-12


def test_insertion_potential_grid_in_the_cusp():
    # theta1 near e^(25*pi) on the rows |x2| = 1/2: finite in log space,
    # and equal to the appendix route wherever no cap applies
    tau, grid, cap = 100j, 12, 1e-3
    ins = InsertionSet(((0.31, 0.47, 0.8), (0.5, 0.0, 1.1)))
    h = insertion_potential_grid(tau, ins, grid, cap)
    assert np.all(np.isfinite(h))
    fine = GreenEvalConfig(mode="appendix", tolerance=1e-10)
    for a in range(grid):
        for b in range(grid):
            x = (a / grid, b / grid)
            if (a, b) == (6, 0):
                continue
            want = sum(i.alpha * green(tau, (x[0] - i.x1, x[1] - i.x2), fine)
                       for i in ins.insertions)
            assert abs(h[a, b] - want) < 1e-9


def test_insertion_constant_two_point_formula():
    q = 2.5
    a1, a2 = 0.8, 0.5

    def want(tau):
        return (
            a1 * a2 * green(tau, (0.2 - 0.7, 0.3 - 0.6))
            + 0.5 * theta_offset(tau) * (a1 * a1 + a2 * a2)
            - 0.5 * q * math.log(tau.imag) * (a1 + a2)
        )

    assert abs(insertion_constant(TAU, TWO_POINTS, q) - want(TAU)) < 1e-13
    # a block of moduli, each pair term in one green_grid call over all of them
    taus = [TAU, 1j, -0.4 + 0.95j, 0.1 + 7.5j]
    block = insertion_constant(np.array(taus), TWO_POINTS, q)
    assert np.abs(block - [want(t) for t in taus]).max() < 1e-13


def test_partition_requires_positive_alpha_sum():
    params = LQFTParams(gamma=1.0)
    with pytest.raises(SeibergViolationSum):
        partition_function(params, TAU, InsertionSet(()), MC_SMALL, RES_SMALL)
    bad = InsertionSet(((0.2, 0.3, -0.8), (0.7, 0.6, 0.5)))
    with pytest.raises(SeibergViolationSum):
        partition_function(params, TAU, bad, MC_SMALL, RES_SMALL)


def test_partition_vanishes_above_local_bound():
    params = LQFTParams(gamma=1.0)     # Q = 2.5
    hot = InsertionSet(((0.2, 0.3, 2.6), (0.7, 0.6, 0.5)))
    est = partition_function(params, TAU, hot, MC_SMALL, RES_SMALL)
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert "Q = 2.5" in est.diagnostic


def test_partition_positive_estimate():
    params = LQFTParams(gamma=1.0)
    est = partition_function(params, TAU, TWO_POINTS, MC_SMALL, RES_SMALL)
    assert est.value > 0
    assert est.std_error > 0
    assert est.replicas == MC_SMALL.replicas
    assert est.diagnostic is None
    assert est.std_error < 0.05 * est.value


def test_partition_prefactor_in_log_space():
    # where the direct product Z^FF e^C Gamma(p) mu^-p / gamma is finite,
    # the log-space prefactor agrees with it
    params = LQFTParams(gamma=1.3, mu=1.7)
    p = TWO_POINTS.alpha_sum / params.gamma
    est = partition_function(params, TAU, TWO_POINTS, MC_SMALL, RES_SMALL)
    masses = insertion_mass_samples(params, TAU, TWO_POINTS, MC_SMALL, RES_SMALL)
    mean, se = inverse_power_mean(masses, p)
    front = (
        free_field_partition(TAU)
        * math.exp(insertion_constant(TAU, TWO_POINTS, params.q))
        * math.gamma(p)
        * params.mu ** (-p)
        / params.gamma
    )
    assert math.isclose(est.value, front * mean, rel_tol=1e-13)
    assert math.isclose(est.std_error, front * se, rel_tol=1e-13)


def test_mass_samples_deterministic():
    params = LQFTParams(gamma=1.0)
    a = insertion_mass_samples(params, TAU, TWO_POINTS, MC_SMALL, RES_SMALL)
    b = insertion_mass_samples(params, TAU, TWO_POINTS, MC_SMALL, RES_SMALL)
    assert np.array_equal(a, b)
    assert np.all(a > 0)


def test_zero_mode_integral_closed_form():
    # per replica: int dc exp(s c - mu e^{gamma c} I) = Gamma(p) (mu I)^{-p} / gamma
    params = LQFTParams(gamma=1.3, mu=1.7)
    s = TWO_POINTS.alpha_sum
    p = s / params.gamma
    masses = insertion_mass_samples(
        params, TAU, TWO_POINTS, MonteCarloConfig(replicas=3, seed=SEED), RES_SMALL
    )
    for mass in masses:
        quad, err = integrate.quad(
            lambda c: math.exp(s * c - params.mu * math.exp(params.gamma * c) * mass),
            -60.0,
            30.0,
        )
        closed = math.gamma(p) * (params.mu * mass) ** (-p) / params.gamma
        assert abs(quad - closed) < 1e-10 * abs(closed)


def test_kpz_scaling_on_shared_replicas():
    s = TWO_POINTS.alpha_sum
    base = partition_function(LQFTParams(gamma=1.0, mu=1.0), TAU, TWO_POINTS, MC_SMALL, RES_SMALL)
    for mu in (0.5, 3.7):
        scaled = partition_function(
            LQFTParams(gamma=1.0, mu=mu), TAU, TWO_POINTS, MC_SMALL, RES_SMALL
        )
        assert abs(scaled.value / base.value - mu ** (-s / 1.0)) < 1e-13


def test_weyl_anomaly_response():
    phi = build_log_conformal_factor(
        LogConformalFactor(
            coeffs={(1, 0): 0.3 + 0.1j, (-1, 0): 0.3 - 0.1j, (0, 2): -0.2j, (0, -2): 0.2j},
            cutoff=3,
        ),
        TAU,
    )
    q = 2.5
    log_factor = weyl_anomaly_log_factor(phi, q)
    from torus_lqg.gff import dirichlet_energy

    want = (1.0 + 6.0 * q * q) / (96.0 * math.pi) * dirichlet_energy(phi)
    assert abs(log_factor - want) < 1e-15
    assert abs(weyl_anomaly_factor(phi, q) - math.exp(log_factor)) < 1e-15
    doubled = SpectralField(tau=phi.tau, cutoff=phi.cutoff, coeffs=2.0 * phi.coeffs)
    assert abs(weyl_anomaly_log_factor(doubled, q) - 4.0 * log_factor) < 1e-12


def test_sampler_seiberg_gating():
    params = LQFTParams(gamma=1.0)
    res = FieldResolution(cutoff=6, grid_factor=4)
    mc = MonteCarloConfig(replicas=2, seed=SEED)
    with pytest.raises(SeibergViolationSum):
        list(liouville_field_law_sampler(params, TAU, InsertionSet(()), mc, res))
    hot = InsertionSet(((0.2, 0.3, 2.6),))
    with pytest.raises(SeibergViolationLocal):
        list(liouville_field_law_sampler(params, TAU, hot, mc, res))


def test_sampler_determinism_and_shapes():
    params = LQFTParams(gamma=1.0, mu=2.0)
    res = FieldResolution(cutoff=6, grid_factor=4)
    mc = MonteCarloConfig(replicas=4, seed=SEED)
    a = list(liouville_field_law_sampler(params, TAU, TWO_POINTS, mc, res))
    b = list(liouville_field_law_sampler(params, TAU, TWO_POINTS, mc, res))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.field, sb.field)
        assert sa.volume == sb.volume
        assert sa.weight > 0
        assert sa.field.shape == (res.grid, res.grid)


def test_sampler_forms_h_once(monkeypatch):
    # one insertion_potential_grid call per sampler call: the field keeps a
    # copy of the H that chaos_points turns into the tilt
    inner = lqft.insertion_potential_grid
    calls = []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(lqft, "insertion_potential_grid", counted)
    params = LQFTParams(gamma=1.0, mu=2.0)
    res = FieldResolution(cutoff=6, grid_factor=4)
    mc = MonteCarloConfig(replicas=4, seed=SEED)
    a, b = list(liouville_field_law_sampler(params, TAU, TWO_POINTS, mc, res))[:2]
    assert len(calls) == 1
    # replicas 0 and 1 carry X and -X, so their fields sum to 2H + a constant
    h = inner(TAU, TWO_POINTS, res.grid, res.eps_for(TAU))
    assert np.ptp(a.field + b.field - 2.0 * h) < 1e-12


def test_sampler_weights_are_mass_powers():
    # the law sampler and insertion_mass_samples share one cell-weight kernel,
    # and each weight is the term partition_function averages
    params = LQFTParams(gamma=1.0, mu=2.0)
    res = FieldResolution(cutoff=12, grid_factor=4)
    mc = MonteCarloConfig(replicas=60, seed=5)
    p = TWO_POINTS.alpha_sum / params.gamma
    masses = insertion_mass_samples(params, TAU, TWO_POINTS, mc, res)
    samples = list(liouville_field_law_sampler(params, TAU, TWO_POINTS, mc, res))
    assert len(samples) == mc.replicas
    weights = [sample.weight for sample in samples]
    for r, weight in enumerate(weights):
        assert weight == (masses ** (-p))[r]
    assert np.mean(weights) == inverse_power_mean(masses, p)[0]


def test_resampled_measure_is_the_picked_law_sample():
    # at cutoff 32 (G = 132) the 8 candidates are four batches of one pair,
    # so the cells of all but the last batch are kept as copies; u = 0
    # picks the first candidate, u = 1 the last (the R - 1 clamp), and a u
    # inside each candidate's share of the weight picks it: every pick is
    # byte for byte that candidate's law-sampler measure
    params = LQFTParams(gamma=1.0, mu=2.0)
    res = FieldResolution(cutoff=32)
    mc = MonteCarloConfig(replicas=8, seed=SEED, base_stream=5)
    y = 2.5
    candidates = list(liouville_field_law_sampler(params, TAU, TWO_POINTS, mc, res, y, RESAMPLE))
    (point,) = lqft._tilted_points(params, [TAU], TWO_POINTS, res)
    cdf = np.cumsum([c.weight for c in candidates])
    mids = (np.concatenate(([0.0], cdf[:-1])) + cdf) / (2.0 * cdf[-1])
    picks = [(0.0, 0), (1.0, len(candidates) - 1)] + [(float(u), k) for k, u in enumerate(mids)]
    for u, k in picks:
        measure = lqft.resampled_measure(params, point, TWO_POINTS, mc, y, u, RESAMPLE)
        assert measure.tobytes() == candidates[k].measure.tobytes()


def test_sampler_measure_total_is_volume():
    params = LQFTParams(gamma=1.0, mu=2.0)
    res = FieldResolution(cutoff=6, grid_factor=4)
    mc = MonteCarloConfig(replicas=6, seed=SEED)
    for sample in liouville_field_law_sampler(params, TAU, TWO_POINTS, mc, res):
        assert abs(float(np.sum(sample.measure)) - sample.volume) < 1e-12 * sample.volume
        assert np.all(sample.measure > 0)


def test_sampler_conditioned_volume():
    params = LQFTParams(gamma=1.0, mu=2.0)
    res = FieldResolution(cutoff=6, grid_factor=4)
    mc = MonteCarloConfig(replicas=5, seed=SEED)
    for sample in liouville_field_law_sampler(params, TAU, TWO_POINTS, mc, res, y_volume=2.5):
        assert sample.volume == 2.5
        assert abs(float(np.sum(sample.measure)) - 2.5) < 1e-12


def test_sampler_volume_marginal_mean():
    # s = gamma: volume ~ Exponential(mu), mean 1/mu
    params = LQFTParams(gamma=1.0, mu=2.0)
    one = InsertionSet(((0.25, 0.4, 1.0),))
    res = FieldResolution(cutoff=6, grid_factor=4)
    mc = MonteCarloConfig(replicas=2000, seed=SEED)
    vols = np.array([s.volume for s in liouville_field_law_sampler(params, TAU, one, mc, res)])
    se = np.std(vols) / math.sqrt(len(vols))
    assert abs(np.mean(vols) - 0.5) < 4.0 * se


@pytest.mark.parametrize("gamma, cutoff, replicas", ((0.7, 4, 7), (1.5, 9, 6)))
def test_untilted_mass_is_the_tilted_mass_of_no_insertions(gamma, cutoff, replicas):
    # one setup path: the tilt of H = 0 is ones, so the GMC mass is I byte for byte
    params = LQFTParams(gamma=gamma)
    res = FieldResolution(cutoff=cutoff)
    mc = MonteCarloConfig(replicas=replicas, seed=SEED, base_stream=3)
    plain = sample_total_masses(TAU, gamma, params.q, mc, res)
    tilted = insertion_mass_samples(params, TAU, InsertionSet(()), mc, res)
    assert plain.tobytes() == tilted.tobytes()


def direct_cells(tau, gamma, q, mc, res, h_grid):
    """The fields (-1)^r X of rows base_stream + r // 2, each drawn alone,
    and their tilted cell weights scale * exp(gamma X + offset) * e^{gamma H},
    with scale and offset written out from the prefactor and the variance."""
    N, G = res.cutoff, res.grid
    eps = res.eps_for(tau)
    w = scaled_mode_weights(tau, N, eps)[0][:, N:]
    scale = chaos_prefactor(tau, gamma, q) * tau.imag / (G * G)
    offset = -0.5 * gamma * gamma * regularized_variance(tau, N, eps)
    xs = np.empty((mc.replicas, G, G))
    for r in range(mc.replicas):
        alpha = draw_modes(RngStream(mc.seed, mc.base_stream + r // 2), 1, N)[0]
        xs[r] = (-1) ** r * modes_to_grid(alpha * w, G)
    return xs, scale * np.exp(gamma * xs + offset) * np.exp(gamma * h_grid)


@settings(max_examples=20, deadline=None)
@given(
    gamma=st.floats(0.05, 1.95),
    cutoff=st.integers(1, 6),
    replicas=st.integers(3, 11),
    batch=st.integers(1, 4),
    base_stream=st.integers(0, 2**40),
    tau=st.sampled_from((TAU, 1j, -0.4 + 2.5j)),
)
@example(gamma=1.0, cutoff=4, replicas=7, batch=2, base_stream=3, tau=TAU)
def test_masses_and_measures_match_the_cell_formula(gamma, cutoff, replicas, batch, base_stream, tau):
    # untilted (sample_total_masses) and tilted (insertion_mass_samples)
    # masses equal the cell formula summed directly, replica by replica,
    # across split batches and a lone last replica; every sampled measure
    # is y times the tilted cell weights over the mass, and sums to y
    params = LQFTParams(gamma=gamma, mu=2.0)
    q = params.q
    res = FieldResolution(cutoff=cutoff, grid_factor=4)
    G = res.grid
    mc = MonteCarloConfig(replicas=replicas, seed=SEED, base_stream=base_stream)
    h_grid = insertion_potential_grid(tau, TWO_POINTS, G, res.eps_for(tau))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gff, "_BATCH_CELLS", batch * G * G)
        plain = sample_total_masses(tau, gamma, q, mc, res)
        tilted = insertion_mass_samples(params, tau, TWO_POINTS, mc, res)
        samples = list(liouville_field_law_sampler(params, tau, TWO_POINTS, mc, res))
    for h, masses in ((np.zeros((G, G)), plain), (h_grid, tilted)):
        direct = direct_cells(tau, gamma, q, mc, res, h)[1].sum(axis=(1, 2))
        assert np.all(np.abs(masses - direct) <= 1e-13 * direct)
    xs, cells = direct_cells(tau, gamma, q, mc, res, h_grid)
    shift = -0.5 * q * math.log(tau.imag)
    assert len(samples) == replicas
    for r, sample in enumerate(samples):
        y, mass = sample.volume, float(tilted[r])
        want = y * cells[r] / mass
        assert np.max(np.abs(sample.measure - want)) <= 1e-13 * np.max(want)
        assert abs(float(np.sum(sample.measure)) - y) <= 1e-13 * y
        field = (math.log(y) - math.log(mass)) / gamma + xs[r] + h_grid + shift
        assert np.max(np.abs(sample.field - field)) <= 1e-12 * np.max(np.abs(field))
