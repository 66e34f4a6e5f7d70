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
cell_constants, chaos_cells and chaos_batches are the one home of this
weight, computed as factor * exp(gamma X): everything but the field is
one scalar per modulus (cell_constants), so a cell costs one exp.
chaos_points is the one setup of a block of moduli, untilted (the GMC
mass, H = 0) or tilted by the insertion potential H of lqft: it forms
each modulus's point in array passes, (mode weights of gamma X, factor,
tilt e^{gamma H}), which carries all that a replica pass reads, the grid
size being the tilt's.  chaos_batches has the engine synthesize gamma X
from the point's weights, forms the cells of an antithetic pair from its
even grid alone, the odd cells being the reciprocals, and sums them
against the tilts in one matrix-vector product per stack; it yields one
flat tuple of cells and masses per batch and modulus, and no grid of gamma X.

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
    MODES,
    SpectralField,
    evaluate_on_grid,
    replica_grids,
    scaled_mode_weights,
)
from .green import theta_offset
from .modular import ModularElement, require_tau

__all__ = [
    "ChaosMeasure",
    "cell_constants",
    "chaos_batches",
    "chaos_cells",
    "chaos_measure",
    "chaos_points",
    "chaos_prefactor",
    "critical_chaos_measure",
    "expected_total_mass",
    "pushforward",
    "sample_total_masses",
    "total_mass_table",
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


def chaos_prefactor(tau, gamma: float, q: float):
    """exp((gamma^2/2)*Theta(tau) - (gamma*q/2)*ln Im(tau)), at one modulus
    (a float) or at each of an array of moduli."""
    t = np.atleast_1d(np.asarray(tau, dtype=complex))
    out = np.exp(0.5 * gamma * gamma * theta_offset(t) - 0.5 * gamma * q * np.log(t.imag))
    return float(out[0]) if np.ndim(tau) == 0 else out


def expected_total_mass(tau: complex, gamma: float, q: float) -> float:
    """E[M_gamma(T)] = prefactor * Im(tau); exact at every resolution."""
    return chaos_prefactor(tau, gamma, q) * complex(tau).imag


def cell_constants(tau, gamma: float, q: float, eps, grid: int, variance, critical: bool = False):
    """The factor of one modulus: a cell weighs factor * chaos_cells(gamma X).

    factor = prefactor * Im(tau) / G^2 * e^{offset}, with the critical
    prefactor when critical is set and offset = -(gamma^2/2) sigma_eps^2,
    so the normalization is one scalar and the cells one exp each.
    variance is sigma_eps^2, from the J0 pass of scaled_mode_weights that
    made the modulus's mode weights.  tau may be an array of moduli, eps
    and variance scalars or one per modulus; then the factors are an array,
    formed in array passes.  Callers validate gamma.
    """
    t = np.atleast_1d(np.asarray(tau, dtype=complex))
    eps = np.broadcast_to(np.asarray(eps, dtype=float), t.shape)
    if critical:
        if not np.all((0.0 < eps) & (eps < 1.0)):
            bad = eps[~((0.0 < eps) & (eps < 1.0))][0]
            raise ValidationError(f"critical correction needs eps in (0, 1), got {bad:g}")
        # sqrt(pi/2) sqrt(ln 1/eps) times the gamma = 2 prefactor
        push = math.sqrt(0.5 * math.pi) * np.sqrt(np.log(1.0 / eps))
        pref = push * chaos_prefactor(t, 2.0, 2.0)
    else:
        pref = chaos_prefactor(t, gamma, q)
    offset = -0.5 * gamma * gamma * np.asarray(variance, dtype=float)
    out = pref * t.imag / (grid * grid) * np.exp(offset)
    return float(out[0]) if np.ndim(tau) == 0 else out


def chaos_points(taus, gamma: float, q: float, res: FieldResolution, h_grids=None, critical=False):
    """The chaos_batches points (mode weights of gamma X, factor, tilt) of
    the K moduli taus, the tilt e^{gamma H} of h_grids, (K, G, G) grids of
    H, formed in their memory, or a grid of ones when h_grids is None.

    Every modulus pays this setup before its replicas, in array passes over
    the block: eta and Theta over the K moduli (cell_constants) and one J0
    pass over the K mode boxes (gff.scaled_mode_weights) for both the
    weights and the variance in the factor.  A modulus's point is byte for
    byte the same alone and in any block.  Callers validate gamma.
    """
    taus = require_tau(np.asarray(taus, dtype=complex))
    eps = res.eps_for(taus)
    weights, variance = scaled_mode_weights(taus, res.cutoff, eps)
    weights *= gamma
    factors = cell_constants(taus, gamma, q, eps, res.grid, variance, critical)
    h = np.zeros((len(taus), res.grid, res.grid)) if h_grids is None else h_grids
    tilts = np.exp(np.multiply(gamma, h, out=h), out=h)
    return [(w, float(f), t) for w, f, t in zip(weights, factors, tilts)]


def chaos_cells(gx: np.ndarray, paired=False, out=None):
    """exp(gamma X) from gx, a grid or a stack of grids of gamma X.

    paired marks gx as the (P, G, G) even grids of a replica_grids stack;
    the cells then go to out, (2, P, G, G), out[s, j] those of replica
    2j + s: exp(gx[j]), and for s = 1, whose field is -gx[j], their
    reciprocals.  Each half is one contiguous pass.  Unpaired, the cells go
    to out when given, else to a new array.
    """
    if not paired:
        return np.exp(gx, out=out)
    np.exp(gx, out=out[0])
    np.reciprocal(out[0], out=out[1])
    return out


def chaos_batches(points, mc: MonteCarloConfig, purpose: int = MODES):
    """One replica_grids pass under purpose at several moduli, common random numbers.

    points holds one (mode weights of gamma X, factor, tilt) per modulus,
    from chaos_points; the engine synthesizes gamma X on the tilts' grid.
    Yields (start, k, cells, masses) per batch of B replicas and point k,
    in the order of points: cells the (2, P, G, G) paired chaos_cells of
    the batch's P even grids of gamma X, cells[r % 2, r // 2] those of
    replica start + r, and masses the B totals factor * sum(cells * tilt)
    in replica order, from one matrix-vector product of the (2P, G^2)
    cells with the tilt.  When B = 2P - 1, the batch ends on a lone
    replica and cells[1, P - 1] belongs to none.  cells is a view into one
    cell workspace of the call, valid until the next tuple is yielded;
    masses is a new array.  The product rounds a replica's mass by about
    1e-15 relative differently in a batch of another size, so cells are
    the same in any batch but masses are bit-identical for a fixed
    (mc.replicas, seed).
    """
    work = None
    grid = points[0][2].shape[0]  # the tilts' G
    for start, k, gx in replica_grids([pt[0] for pt in points], grid, mc, purpose):
        if work is None:  # the first batch is the largest
            work = np.empty(2 * gx.size)
        cells = chaos_cells(gx, paired=True, out=work[: 2 * gx.size].reshape((2,) + gx.shape))
        _, factor, tilt = points[k]
        sums = cells.reshape(2 * len(gx), -1) @ tilt.ravel()
        # (evens, odds) to replica order
        masses = sums.reshape(2, -1).T.ravel()[: mc.replicas - start]
        yield start, k, cells, factor * masses


def total_mass_table(points, mc: MonteCarloConfig) -> np.ndarray:
    """Total masses of chaos_batches, shape (len(points), mc.replicas)."""
    out = np.empty((len(points), mc.replicas))
    for start, k, _, masses in chaos_batches(points, mc):
        out[k, start : start + len(masses)] = masses
    return out


def _subcritical(gamma: float) -> float:
    if not 0.0 < gamma < 2.0:
        raise InvalidGamma(f"subcritical chaos needs 0 < gamma < 2, got {gamma}")
    return gamma


def _measure(fld: SpectralField, gamma: float, q: float, grid: int | None, critical: bool):
    """The chaos measure of a circle-averaged field on its evaluation grid,
    its variance from scaled_mode_weights as in chaos_points."""
    if not fld.eps > 0:
        raise ValidationError("chaos needs a circle-averaged field; call circle_average first")
    x = evaluate_on_grid(fld, grid)
    variance = scaled_mode_weights(fld.tau, fld.cutoff, fld.eps)[1]
    factor = cell_constants(fld.tau, gamma, q, fld.eps, x.shape[0], variance, critical)
    return ChaosMeasure(
        tau=fld.tau,
        gamma=gamma,
        eps=fld.eps,
        weights=factor * chaos_cells(gamma * x),
        critical=critical,
    )


def chaos_measure(
    fld: SpectralField, gamma: float, q: float, grid: int | None = None
) -> ChaosMeasure:
    """Subcritical measure M_{gamma, tau} from a circle-averaged field."""
    return _measure(fld, _subcritical(gamma), q, grid, critical=False)


def critical_chaos_measure(fld: SpectralField, grid: int | None = None) -> ChaosMeasure:
    """Critical measure at gamma = 2 with the sqrt(ln 1/eps) correction."""
    return _measure(fld, 2.0, 2.0, grid, critical=True)


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
    gamma = 2.0 if critical else _subcritical(gamma)
    points = chaos_points([tau], gamma, q, res, critical=critical)
    return total_mass_table(points, mc)[0]
