"""Modular group action, fundamental-domain reduction, torus coordinates."""

import cmath
import math
import re

import numpy as np
import pytest

from torus_lqg.errors import ValidationError
from torus_lqg.gff import RngStream, sample_gff
from torus_lqg.green import green, spectral_coefficient
from torus_lqg.modular import (
    IDENTITY,
    S,
    T,
    ModularElement,
    c_tau,
    p_tau,
    reduce_to_fundamental,
    require_tau,
    wrap_centered,
    wrap_unit,
)
from torus_lqg.special import dedekind_eta

SEED = 21
N_RANDOM = 40
TOL = 1e-12


def random_elements(rng, count):
    """Random words in S and T, kept short so entries stay small."""
    out = []
    for _ in range(count):
        g = IDENTITY
        for _ in range(rng.integers(1, 6)):
            g = g.compose(S if rng.random() < 0.5 else T)
            if rng.random() < 0.5:
                g = g.compose(T.inverse())
        out.append(g)
    return out


def test_generators():
    assert (S.a, S.b, S.c, S.d) == (0, -1, 1, 0)
    assert (T.a, T.b, T.c, T.d) == (1, 1, 0, 1)
    assert S.act_on_uhp(2j) == -1.0 / 2j
    assert T.act_on_uhp(2j) == 1 + 2j


def test_determinant_validated():
    with pytest.raises(ValidationError):
        ModularElement(1, 1, 1, 1)
    with pytest.raises(ValidationError):
        ModularElement(2, 0, 0, 1)


def test_projective_sign_canonical():
    assert ModularElement(-1, 0, 0, -1) == IDENTITY
    assert ModularElement(0, 1, -1, 0) == S
    g = ModularElement(-2, -1, -1, -1)
    assert g.c > 0 or (g.c == 0 and g.d > 0)


def test_compose_matches_uhp_action():
    rng = np.random.default_rng(SEED)
    taus = [complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0)) for _ in range(5)]
    for g in random_elements(rng, N_RANDOM):
        for h in random_elements(rng, 3):
            gh = g.compose(h)
            for tau in taus:
                assert abs(gh.act_on_uhp(tau) - g.act_on_uhp(h.act_on_uhp(tau))) < TOL


def test_inverse():
    rng = np.random.default_rng(SEED + 1)
    tau = 0.37 + 0.91j
    for g in random_elements(rng, N_RANDOM):
        assert g.compose(g.inverse()) == IDENTITY
        assert abs(g.inverse().act_on_uhp(g.act_on_uhp(tau)) - tau) < TOL


def test_derivative_chain_rule():
    rng = np.random.default_rng(SEED + 2)
    tau = -0.21 + 1.4j
    for g in random_elements(rng, 15):
        for h in random_elements(rng, 2):
            lhs = g.compose(h).derivative(tau)
            rhs = g.derivative(h.act_on_uhp(tau)) * h.derivative(tau)
            assert abs(lhs - rhs) < TOL


def test_derivative_is_imag_ratio():
    # |psi'(tau)| = Im psi(tau) / Im tau
    rng = np.random.default_rng(SEED + 3)
    tau = 0.11 + 0.77j
    for g in random_elements(rng, 20):
        ratio = g.act_on_uhp(tau).imag / tau.imag
        assert abs(abs(g.derivative(tau)) - ratio) < TOL


def test_torus_map_mode_relabel():
    # e((n,m).x) == e(index_map(n,m).psi~(x)) for every mode
    rng = np.random.default_rng(SEED + 4)
    for g in random_elements(rng, 20):
        x1, x2 = rng.uniform(0, 1, size=2)
        y1, y2 = g.act_on_torus(x1, x2)
        for n, m in ((1, 0), (0, 1), (3, -2), (-5, 7)):
            n2, m2 = g.index_map(n, m)
            lhs = cmath.exp(2j * math.pi * (n * x1 + m * x2))
            rhs = cmath.exp(2j * math.pi * (n2 * y1 + m2 * y2))
            assert abs(lhs - rhs) < 1e-9


def test_index_map_preserves_eigenvalue():
    # |n psi(tau) - m|^2 / Im psi(tau) == |n' tau - m'|^2 / Im tau
    rng = np.random.default_rng(SEED + 5)
    tau = 0.3 + 1.2j
    for g in random_elements(rng, 20):
        ptau = g.act_on_uhp(tau)
        for n, m in ((1, 0), (0, 1), (2, 3), (-4, 1)):
            n2, m2 = g.index_map(n, m)
            lhs = abs(n * ptau - m) ** 2 / ptau.imag
            rhs = abs(n2 * tau - m2) ** 2 / tau.imag
            assert abs(lhs - rhs) < 1e-9


def test_spectral_coefficient_relabel():
    # c_{n,m}(psi(tau)) == c_{index_map(n,m)}(tau): the Im factor in the
    # numerator absorbs |psi'| exactly
    tau = -0.4 + 0.95j
    for g in (S, T, ModularElement(2, 1, 1, 1)):
        ptau = g.act_on_uhp(tau)
        for n, m in ((1, 0), (0, 2), (3, -1)):
            n2, m2 = g.index_map(n, m)
            lhs = spectral_coefficient(ptau, n, m)
            rhs = spectral_coefficient(tau, n2, m2)
            assert abs(lhs - rhs) < 1e-12


def test_torus_map_permutes_lattice():
    # integer matrix with det 1 permutes the g x g cell-center lattice
    g = 7
    psi = ModularElement(2, 1, 1, 1)
    i, j = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    y1, y2 = psi.act_on_torus(i / g, j / g)
    k1 = np.round(y1 * g).astype(int) % g
    k2 = np.round(y2 * g).astype(int) % g
    assert np.max(np.abs(y1 * g - np.round(y1 * g))) < 1e-9
    flat = set(zip(k1.ravel().tolist(), k2.ravel().tolist()))
    assert len(flat) == g * g


def test_reduce_known_points():
    assert abs(reduce_to_fundamental(0.5 + 0.5j).tau - 1j) < TOL
    expected = complex(-30.0 / 73.0, 80.0 / 73.0)
    assert abs(reduce_to_fundamental(2.3 + 0.8j).tau - expected) < TOL


def test_reduce_boundary_conventions():
    # left edge maps to the right edge, left arc half to the right half
    assert abs(reduce_to_fundamental(-0.5 + 1.2j).tau - (0.5 + 1.2j)) < TOL
    arc = cmath.exp(2.0j)
    assert abs(reduce_to_fundamental(arc).tau - cmath.exp(1j * (math.pi - 2.0))) < 1e-12


def test_reduce_properties():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(60):
        tau = complex(rng.uniform(-8, 8), rng.uniform(0.05, 4.0))
        red = reduce_to_fundamental(tau)
        assert abs(red.tau.real) <= 0.5 + 1e-12
        assert abs(red.tau) >= 1.0 - 1e-12
        assert abs(red.witness.act_on_uhp(tau) - red.tau) < 1e-9
        again = reduce_to_fundamental(red.tau)
        assert abs(again.tau - red.tau) < TOL


def test_reduce_orbit_invariance():
    rng = np.random.default_rng(SEED + 7)
    tau = 0.23 + 1.31j
    base = reduce_to_fundamental(tau).tau
    for g in random_elements(rng, 25):
        moved = reduce_to_fundamental(g.act_on_uhp(tau)).tau
        assert abs(moved - base) < 1e-9


def test_reduce_rejects_lower_half_plane():
    with pytest.raises(ValidationError):
        reduce_to_fundamental(1.0 - 0.5j)


BAD_TAUS = (
    complex(math.nan, 1.0),
    complex(0.0, math.nan),
    complex(math.inf, 1.0),
    complex(-math.inf, 1.0),
    complex(0.0, math.inf),
    0.3,
    0.3 - 1.2j,
)
# each public entry point that takes a modulus checks it through require_tau
ENTRY_POINTS = {
    "require_tau": require_tau,
    "dedekind_eta": dedekind_eta,
    "green": lambda tau: green(tau, (0.3, 0.4)),
    "sample_gff": lambda tau: sample_gff(tau, 4, RngStream(0)),
    "reduce_to_fundamental": reduce_to_fundamental,
    "S.act_on_uhp": S.act_on_uhp,
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("tau", BAD_TAUS, ids=str)
def test_bad_modulus_is_refused(call, tau):
    with pytest.raises(ValidationError, match=r"finite parts and Im tau > 0, got "):
        call(tau)


@pytest.mark.parametrize("bad", BAD_TAUS, ids=str)
def test_one_bad_modulus_in_an_array_is_named(bad):
    taus = np.array([[1j, 0.2 + 3j], [bad, 0.5 + 0.5j]])
    with pytest.raises(ValidationError, match=r"got " + re.escape(str(complex(bad))) + "$"):
        require_tau(taus)
    with pytest.raises(ValidationError):
        dedekind_eta(taus[1])


def test_require_tau_keeps_scalars_and_arrays():
    assert require_tau(1j) == 1j and type(require_tau(2.0j)) is complex
    assert type(require_tau(np.complex128(0.5 + 2j))) is complex
    taus = np.array([1j, 0.5 + 0.9j, -0.2 + 2500j])
    assert np.array_equal(require_tau(taus), taus)


def test_wrap_functions():
    assert wrap_unit(1.25) == 0.25
    assert wrap_unit(-0.25) == 0.75
    assert wrap_centered(0.75) == -0.25
    assert abs(wrap_centered(0.5)) == 0.5
    xs = np.linspace(-3, 3, 61)
    assert np.all(wrap_unit(xs) >= 0.0)
    assert np.all(wrap_unit(xs) < 1.0)
    assert np.all(np.abs(wrap_centered(xs)) <= 0.5)
    assert np.max(np.abs(np.mod(wrap_centered(xs) - xs, 1.0))) < TOL


def test_torus_coordinates_roundtrip():
    tau = 0.3 + 1.2j
    rng = np.random.default_rng(SEED + 8)
    for _ in range(20):
        x1, x2 = rng.uniform(-0.5, 0.5, size=2)
        z = p_tau(tau, x1, x2)
        assert abs(z - (x1 + tau * x2)) < TOL
        y1, y2 = c_tau(tau, z)
        assert abs(y1 - x1) < TOL
        assert abs(y2 - x2) < TOL
