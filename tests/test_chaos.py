"""Gaussian multiplicative chaos: normalization, pushforward, criticality."""

import math
from dataclasses import replace

import numpy as np
import pytest

from torus_lqg.chaos import (
    chaos_cells,
    chaos_measure,
    chaos_points,
    chaos_prefactor,
    critical_chaos_measure,
    expected_total_mass,
    pushforward,
    sample_total_masses,
)
from torus_lqg.config import FieldResolution, MonteCarloConfig
from torus_lqg.errors import InvalidGamma, ValidationError
from torus_lqg.gff import (
    RngStream,
    circle_average,
    evaluate_on_grid,
    pair_mean_se,
    regularized_variance,
    sample_gff,
)
from torus_lqg.green import theta_offset
from torus_lqg.modular import S, T, ModularElement

TAU = 0.3 + 1.2j
THETA_AT_I = -1.310532925911509518252275
SEED = 4


def q_of(gamma):
    return 2.0 / gamma + gamma / 2.0


def averaged_field(stream, cutoff=6, eps=0.12, tau=TAU):
    return circle_average(sample_gff(tau, cutoff, RngStream(SEED, stream)), eps)


def test_prefactor_value():
    val = chaos_prefactor(1j, 1.0, q_of(1.0))
    assert abs(val - math.exp(0.5 * THETA_AT_I)) < 1e-12
    assert abs(expected_total_mass(1j, 1.0, q_of(1.0)) - val) < 1e-15


def test_requires_circle_average():
    raw = sample_gff(TAU, 4, RngStream(SEED, 0))
    with pytest.raises(ValidationError):
        chaos_measure(raw, 1.0, q_of(1.0))


def test_gamma_bounds():
    fld = averaged_field(1)
    for bad in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(InvalidGamma):
            chaos_measure(fld, bad, q_of(1.0))


def test_weights_shape_and_positivity():
    fld = averaged_field(2)
    m = chaos_measure(fld, 1.0, q_of(1.0), grid=32)
    assert m.weights.shape == (32, 32)
    assert np.all(m.weights > 0)
    assert m.total_mass == float(np.sum(m.weights))
    assert m.max_cell_fraction == float(np.max(m.weights)) / m.total_mass


def test_cell_weights_reproduce_definition():
    fld = averaged_field(3)
    gamma = 1.3
    q = q_of(gamma)
    m = chaos_measure(fld, gamma, q, grid=32)
    x = evaluate_on_grid(fld, 32)
    sigma2 = regularized_variance(TAU, fld.cutoff, fld.eps)
    area = TAU.imag / (32 * 32)
    want = chaos_prefactor(TAU, gamma, q) * np.exp(gamma * x - 0.5 * gamma * gamma * sigma2) * area
    assert np.max(np.abs(m.weights - want)) < 1e-15 * np.max(want)


@pytest.mark.parametrize("cutoff", (1, 8, 40, 600))
def test_measure_is_the_chaos_point_factor_times_its_cells(cutoff):
    # chaos_measure takes sigma^2 from the J0 pass of chaos_points, so its
    # weights are the engine's factor times its cells, byte for byte
    gamma = 1.3
    q = q_of(gamma)
    res = FieldResolution(cutoff=cutoff, grid_factor=2)
    fld = circle_average(sample_gff(TAU, cutoff, RngStream(SEED, cutoff)), res.eps_for(TAU))
    ((_, factor, _),) = chaos_points([TAU], gamma, q, res)
    want = factor * chaos_cells(gamma * evaluate_on_grid(fld, res.grid))
    assert chaos_measure(fld, gamma, q, res.grid).weights.tobytes() == want.tobytes()


def test_unit_mean_cells():
    # every discretized cell has E[weight] = prefactor * area exactly
    gamma = 1.0
    q = q_of(gamma)
    replicas = 3000
    area = TAU.imag / (28 * 28)
    want = chaos_prefactor(TAU, gamma, q) * area
    cells = [(0, 0), (13, 5), (20, 27)]
    draws = np.empty((replicas, len(cells)))
    for r in range(replicas):
        m = chaos_measure(averaged_field(100 + r), gamma, q, grid=28)
        for k, (i, j) in enumerate(cells):
            draws[r, k] = m.weights[i, j]
    for k in range(len(cells)):
        se = np.std(draws[:, k]) / math.sqrt(replicas)
        assert abs(np.mean(draws[:, k]) - want) < 4.0 * se


def test_total_mass_matches_expectation():
    gamma = 1.0
    q = q_of(gamma)
    mc = MonteCarloConfig(replicas=1500, seed=3)
    res = FieldResolution(cutoff=8, grid_factor=4)
    masses = sample_total_masses(TAU, gamma, q, mc, res)
    se = np.std(masses) / math.sqrt(mc.replicas)
    assert abs(np.mean(masses) - expected_total_mass(TAU, gamma, q)) < 4.0 * se


def test_sampling_is_deterministic():
    mc = MonteCarloConfig(replicas=40, seed=9, base_stream=5)
    res = FieldResolution(cutoff=6, grid_factor=4)
    a = sample_total_masses(TAU, 1.5, q_of(1.5), mc, res)
    b = sample_total_masses(TAU, 1.5, q_of(1.5), mc, res)
    c = sample_total_masses(TAU, 1.5, q_of(1.5), MonteCarloConfig(40, 9, 6), res)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_batch_matches_manual_replica():
    # replica r of the batch reproduces an explicitly assembled measure: the
    # field of row base_stream + r // 2, negated for odd r
    gamma = 1.5
    q = q_of(gamma)
    mc = MonteCarloConfig(replicas=5, seed=9, base_stream=3)
    res = FieldResolution(cutoff=6, grid_factor=4)
    eps = res.eps_for(TAU)
    masses = sample_total_masses(TAU, gamma, q, mc, res)
    for r in (0, 3, 4):
        raw = sample_gff(TAU, res.cutoff, RngStream(mc.seed, mc.base_stream + r // 2))
        fld = circle_average(replace(raw, coeffs=(-1) ** r * raw.coeffs), eps)
        manual = chaos_measure(fld, gamma, q, grid=res.grid).total_mass
        assert abs(manual - masses[r]) < 1e-12 * manual


def test_paired_mean_mass_in_the_cusp():
    # deep in the cusp the two replicas of a pair correlate positively, so
    # the spread of the R values would understate the error; the mean
    # still lies within 3 pair standard errors of the exact expectation
    tau, gamma = 8j, 1.0
    q = q_of(gamma)
    mc = MonteCarloConfig(replicas=2000, seed=21)
    masses = sample_total_masses(tau, gamma, q, mc, FieldResolution(cutoff=8))
    assert np.corrcoef(masses[0::2], masses[1::2])[0, 1] > 0
    mean, se = pair_mean_se(masses)
    assert abs(mean - expected_total_mass(tau, gamma, q)) < 3.0 * se


def test_max_cell_fraction_decreases_under_refinement():
    gamma = 1.5
    q = q_of(gamma)
    coarse, fine = [], []
    for r in range(100):
        fld = averaged_field(r)
        coarse.append(chaos_measure(fld, gamma, q, grid=28).max_cell_fraction)
        fine.append(chaos_measure(fld, gamma, q, grid=56).max_cell_fraction)
    assert np.mean(fine) < 0.5 * np.mean(coarse)


def test_pushforward_is_weight_permutation():
    m = chaos_measure(averaged_field(7), 1.0, q_of(1.0), grid=28)
    for psi in (S, T, ModularElement(2, 1, 1, 1)):
        pushed = pushforward(m, psi)
        assert np.array_equal(np.sort(pushed.weights.ravel()), np.sort(m.weights.ravel()))
        assert pushed.tau == m.tau
        assert pushed.eps == m.eps


def test_pushforward_inverts_torus_map():
    # pushed weight at cell y equals the original weight at psi~(y)
    m = chaos_measure(averaged_field(8), 1.0, q_of(1.0), grid=28)
    g = 28
    i, j = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    for psi in (S, T, ModularElement(2, 1, 1, 1)):
        pushed = pushforward(m, psi)
        y1, y2 = psi.act_on_torus(i / g, j / g)
        k1 = np.round(y1 * g).astype(int) % g
        k2 = np.round(y2 * g).astype(int) % g
        assert np.array_equal(pushed.weights, m.weights[k1, k2])


def test_pushforward_composes():
    m = chaos_measure(averaged_field(9), 1.0, q_of(1.0), grid=28)
    two_step = pushforward(pushforward(m, T), S)
    one_step = pushforward(m, S.compose(T))
    assert np.array_equal(two_step.weights, one_step.weights)


def test_critical_measure_definition():
    fld = averaged_field(10)
    m = critical_chaos_measure(fld, grid=32)
    assert m.critical
    assert m.gamma == 2.0
    x = evaluate_on_grid(fld, 32)
    sigma2 = regularized_variance(TAU, fld.cutoff, fld.eps)
    push = math.sqrt(0.5 * math.pi * math.log(1.0 / fld.eps))
    scale = push * math.exp(2.0 * theta_offset(TAU) - 2.0 * math.log(TAU.imag))
    area = TAU.imag / (32 * 32)
    want = scale * np.exp(2.0 * x - 2.0 * sigma2) * area
    assert np.max(np.abs(m.weights - want)) < 1e-15 * np.max(want)


def test_critical_needs_eps_below_one():
    fld = sample_gff(TAU, 6, RngStream(SEED, 11))
    with pytest.raises(ValidationError):
        critical_chaos_measure(fld)          # no circle average recorded
    wide = circle_average(fld, 1.5)
    with pytest.raises(ValidationError):
        critical_chaos_measure(wide)


def test_critical_batch_flag():
    mc = MonteCarloConfig(replicas=10, seed=2)
    res = FieldResolution(cutoff=6, grid_factor=4, eps=0.2)
    m = sample_total_masses(TAU, 2.0, q_of(2.0), mc, res, critical=True)
    assert np.all(m > 0)
    with pytest.raises(InvalidGamma):
        sample_total_masses(TAU, 2.0, q_of(2.0), mc, res, critical=False)
