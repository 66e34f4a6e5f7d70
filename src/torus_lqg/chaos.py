"""Gaussian multiplicative chaos measures on the torus.

The subcritical measure for coupling gamma in (0, 2) is discretized on
the field-evaluation grid as one weight per cell,

    w(cell) = e^{(gamma^2/2) Theta(tau) - (gamma Q / 2) ln Im(tau)}
              * e^{gamma X_eps(x) - (gamma^2/2) sigma_eps^2}
              * Im(tau) / G^2,

with sigma_eps^2 the exact variance of the truncated circle-averaged
field.  That makes every cell weight unit-mean at any resolution, so
E[total mass] = prefactor * Im(tau) holds exactly and convergence
studies only fight genuine chaos fluctuations, not normalization drift.

At the critical point gamma = 2 the same recipe acquires the
sqrt(ln(1/eps)) push and a sqrt(pi/2) constant; the critical mass has
finite negative moments but infinite mean, so critical statistics are
always quantile-based here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import FieldResolution, MonteCarloConfig
from .errors import InvalidGamma, ValidationError
from .gff import (
    SpectralField,
    evaluate_on_grid,
    regularized_variance,
    replica_grids,
    scaled_mode_weights,
)
from .green import theta_offset
from .modular import ModularElement

__all__ = [
    "ChaosMeasure",
    "chaos_measure",
    "chaos_prefactor",
    "critical_chaos_measure",
    "expected_total_mass",
    "pushforward",
    "sample_total_masses",
]


@dataclass(frozen=True)
class ChaosMeasure:
    """Discretized chaos measure: one nonnegative weight per grid cell."""

    tau: complex
    gamma: float
    eps: float
    weights: np.ndarray = field(repr=False)
    critical: bool = False

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def max_cell_fraction(self) -> float:
        total = self.total_mass
        return float(np.max(self.weights) / total) if total > 0 else 0.0


def chaos_prefactor(tau: complex, gamma: float, q: float) -> float:
    """exp((gamma^2/2)*Theta(tau) - (gamma*q/2)*ln Im(tau))."""
    tau = complex(tau)
    return math.exp(
        0.5 * gamma * gamma * theta_offset(tau) - 0.5 * gamma * q * math.log(tau.imag)
    )


def expected_total_mass(tau: complex, gamma: float, q: float) -> float:
    """E[M_gamma(T)] = prefactor * Im(tau); exact at every resolution."""
    return chaos_prefactor(tau, gamma, q) * complex(tau).imag


def _cell_weights(fld: SpectralField, gamma: float, scale: float, grid: int | None):
    tau = complex(fld.tau)
    if not fld.eps > 0:
        raise ValidationError("chaos needs a circle-averaged field; call circle_average first")
    sigma2 = regularized_variance(tau, fld.cutoff, fld.eps)
    x = evaluate_on_grid(fld, grid)
    g = x.shape[0]
    area = tau.imag / (g * g)
    return scale * np.exp(gamma * x - 0.5 * gamma * gamma * sigma2) * area


def chaos_measure(
    fld: SpectralField, gamma: float, q: float, grid: int | None = None
) -> ChaosMeasure:
    """Subcritical measure M_{gamma, tau} from a circle-averaged field."""
    if not 0.0 < gamma < 2.0:
        raise InvalidGamma(f"subcritical chaos needs 0 < gamma < 2, got {gamma}")
    scale = chaos_prefactor(fld.tau, gamma, q)
    w = _cell_weights(fld, gamma, scale, grid)
    return ChaosMeasure(tau=fld.tau, gamma=gamma, eps=fld.eps, weights=w)


def _critical_prefactor(tau: complex, eps: float) -> float:
    """sqrt(pi/2) sqrt(ln 1/eps) times the gamma = 2 prefactor."""
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"critical correction needs eps in (0, 1), got {eps:g}")
    push = math.sqrt(0.5 * math.pi) * math.sqrt(math.log(1.0 / eps))
    return push * chaos_prefactor(tau, 2.0, 2.0)


def critical_chaos_measure(fld: SpectralField, grid: int | None = None) -> ChaosMeasure:
    """Critical measure at gamma = 2 with the sqrt(ln 1/eps) correction."""
    scale = _critical_prefactor(fld.tau, fld.eps)
    w = _cell_weights(fld, 2.0, scale, grid)
    return ChaosMeasure(tau=fld.tau, gamma=2.0, eps=fld.eps, weights=w, critical=True)


def pushforward(measure: ChaosMeasure, psi: ModularElement) -> ChaosMeasure:
    """Rebin the measure through the inverse torus map of psi.

    Cell centers i/G map to integer-linear images of cell centers, so
    rebinning is an exact permutation of the weights; the multiset of
    cell masses is preserved bit for bit (sums agree up to reordering).
    The result is distributed, in law, like the chaos measure at modulus
    psi(tau) with matched metric radius.
    """
    w = measure.weights
    g = w.shape[0]
    i, j = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    # psi~^{-1} = torus map of psi^{-1}: x -> (a x1 - b x2, -c x1 + d x2)
    i2 = (psi.a * i - psi.b * j) % g
    j2 = (-psi.c * i + psi.d * j) % g
    out = np.empty_like(w)
    out[i2, j2] = w
    return ChaosMeasure(
        tau=measure.tau,
        gamma=measure.gamma,
        eps=measure.eps,
        weights=out,
        critical=measure.critical,
    )


def sample_total_masses(
    tau: complex,
    gamma: float,
    q: float,
    mc: MonteCarloConfig,
    res: FieldResolution,
    critical: bool = False,
) -> np.ndarray:
    """Replica array of total chaos masses, deterministic per (seed, stream)."""
    tau = complex(tau)
    eps = res.eps_for(tau)
    if critical:
        scale = _critical_prefactor(tau, eps)
        gamma = 2.0
    else:
        if not 0.0 < gamma < 2.0:
            raise InvalidGamma(f"subcritical chaos needs 0 < gamma < 2, got {gamma}")
        scale = chaos_prefactor(tau, gamma, q)
    sigma2 = regularized_variance(tau, res.cutoff, eps)
    g = res.grid
    area = tau.imag / (g * g)
    weights = scaled_mode_weights(tau, res.cutoff, eps)
    out = np.empty(mc.replicas)
    for start, _, (x,) in replica_grids([weights], g, mc):
        cells = np.exp(gamma * x - 0.5 * gamma * gamma * sigma2)
        out[start : start + len(x)] = scale * area * cells.sum(axis=(1, 2))
    return out
