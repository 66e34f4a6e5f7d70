"""Liouville correlation functionals on the torus.

The partition function with insertions (z_i, alpha_i) is estimated in
its zero-mode-integrated form: with s = sum(alpha_i) and Seiberg bounds
s > 0, alpha_i < Q, integrating the zero mode c in closed form gives

    Pi = Z^FF(tau) * e^{C_tau(z)} * gamma^{-1} * mu^{-s/gamma}
         * Gamma(s/gamma) * E[ I^{-s/gamma} ],
    I  = int e^{gamma H} dM_{gamma, tau},

so the Monte Carlo work is a single negative moment of the chaos mass
tilted by the insertion potential H(x) = sum_i alpha_i G_tau(x - z_i).
The mu-dependence is an exact prefactor, which is what the scaling
checks downstream exploit.

On the sampling grid H is regularized at the chaos scale: the log
divergence at each insertion is capped at metric distance eps, matching
the plateau of the circle-averaged Green function.  A Lebesgue cell
average of e^{gamma H} is not used because it diverges under refinement
once gamma*alpha_i >= 2, which pure-gravity weights reach.

_tilted_points yields the tilted point of each modulus of a list, formed
block by block: blocks of K * G^2 <= gff._BATCH_CELLS grid cells (at
least one modulus), so the working set stays bounded with no knob of its
own, and per block H by one green.green_grid call per insertion over the
K moduli, then chaos.chaos_points.  A density table's missing moduli, the
joint sampler's samples and the single modulus of partition_function and
the law sampler all take this one path.

The law of the Liouville field weighs a replica of tilted mass I by
I^{-s/gamma} (_inverse_powers, also the terms of the partition function's
moment) and draws its volume from Gamma(s/gamma, mu) (_volume_law); the
law sampler and resampled_measure iterate chaos_batches of the one
tilted point themselves, and _law_measure forms a replica's measure from
that point, which carries its own gamma and grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .config import FieldResolution, MonteCarloConfig
from .errors import (
    DuplicateInsertion,
    InvalidGamma,
    NumericError,
    SeibergViolationLocal,
    SeibergViolationSum,
    ValidationError,
)
from . import gff
from .gff import MODES, VOLUME, RngStream, SpectralField, dirichlet_energy
from .gff import free_field_partition, pair_mean_se
from .green import green, green_grid, theta_offset
from .chaos import chaos_batches, chaos_points, total_mass_table
from .modular import wrap_centered

__all__ = [
    "Insertion",
    "InsertionSet",
    "LQFTParams",
    "PartitionEstimate",
    "LiouvilleSample",
    "conformal_weight",
    "insertion_constant",
    "insertion_potential",
    "insertion_potential_grid",
    "insertion_mass_samples",
    "insertion_mass_table",
    "inverse_power_mean",
    "partition_function",
    "weyl_anomaly_factor",
    "weyl_anomaly_log_factor",
    "liouville_field_law_sampler",
    "resampled_measure",
]


def conformal_weight(alpha: float, q: float) -> float:
    """Delta_alpha = (alpha/2) * (q - alpha/2)."""
    return 0.5 * alpha * (q - 0.5 * alpha)


@dataclass(frozen=True)
class LQFTParams:
    """Coupling gamma in (0, 2] and cosmological constant mu > 0."""

    gamma: float
    mu: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 2.0:
            raise InvalidGamma(f"gamma must be in (0, 2], got {self.gamma}")
        if not self.mu > 0:
            raise ValidationError(f"mu must be positive, got {self.mu}")

    @property
    def q(self) -> float:
        return 2.0 / self.gamma + self.gamma / 2.0


@dataclass(frozen=True)
class Insertion:
    x1: float
    x2: float
    alpha: float


@dataclass(frozen=True)
class InsertionSet:
    insertions: tuple

    def __post_init__(self):
        ins = tuple(
            i if isinstance(i, Insertion) else Insertion(*i) for i in self.insertions
        )
        object.__setattr__(self, "insertions", ins)
        for a in range(len(ins)):
            for b in range(a + 1, len(ins)):
                d1 = wrap_centered(ins[a].x1 - ins[b].x1)
                d2 = wrap_centered(ins[a].x2 - ins[b].x2)
                if math.hypot(float(d1), float(d2)) < 1e-12:
                    raise DuplicateInsertion(
                        f"insertions {a} and {b} coincide at ({ins[a].x1}, {ins[a].x2})"
                    )

    @property
    def alpha_sum(self) -> float:
        return sum(i.alpha for i in self.insertions)

    def seiberg_sum_ok(self) -> bool:
        return self.alpha_sum > 0

    def require_seiberg_sum(self) -> None:
        """Raise SeibergViolationSum unless sum(alpha) > 0 (so no empty set)."""
        if not self.seiberg_sum_ok():
            raise SeibergViolationSum(
                f"sum of insertion weights must be positive, got {self.alpha_sum:g}"
            )

    def seiberg_local_ok(self, q: float) -> bool:
        return all(i.alpha < q for i in self.insertions)

    def require_seiberg(self, q: float) -> None:
        """Raise SeibergViolationSum unless sum(alpha) > 0, then
        SeibergViolationLocal unless every alpha < q."""
        self.require_seiberg_sum()
        if not self.seiberg_local_ok(q):
            raise SeibergViolationLocal(f"every alpha must stay below Q = {q:g}")


def insertion_potential(tau: complex, ins: InsertionSet, x):
    """H(x) = sum_i alpha_i G_tau(x - z_i), exact Green function.

    Raises SingularPoint when x hits an insertion; use the grid variant
    for measure-weighted quadrature.
    """
    x1, x2 = x
    total = 0.0
    for i in ins.insertions:
        total = total + i.alpha * green(tau, (np.asarray(x1) - i.x1, np.asarray(x2) - i.x2))
    return total


def insertion_potential_grid(tau, ins: InsertionSet, grid: int, eps_cap) -> np.ndarray:
    """H on the sampling grid with each log singularity capped at eps_cap.

    Within metric distance eps_cap of an insertion the -ln|p| part is
    frozen at -ln(eps_cap), which reproduces the height of the
    circle-regularized potential there and keeps e^{gamma H} summable for
    every admissible alpha.  tau may be an array of K moduli, eps_cap a
    scalar or one per modulus; then H is (K, G, G), one green_grid call
    per insertion for all of them.
    """
    if not np.all(np.asarray(eps_cap) > 0):
        raise ValidationError("eps_cap must be positive")
    u = np.arange(grid) / grid
    total = None
    for i in ins.insertions:
        term = green_grid(tau, wrap_centered(u - i.x1), wrap_centered(u - i.x2), eps_cap)
        term *= i.alpha
        if total is None:  # 0 + x is x: the first term is the sum so far
            total = term
        else:
            total += term
    return np.zeros(np.shape(tau) + (grid, grid)) if total is None else total


def insertion_constant(tau, ins: InsertionSet, q: float):
    """C_tau(z) = sum_{i<j} a_i a_j G(z_i - z_j) + (Theta/2) sum a_i^2
    - (q/2) ln(Im tau) sum a_i, at one modulus (a float) or at each of an
    array of moduli, in array passes: each pair term is one green_grid
    call over all the moduli."""
    t = np.atleast_1d(np.asarray(tau, dtype=complex))
    items = ins.insertions
    total = np.zeros(t.shape)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            d = wrap_centered([[items[a].x1 - items[b].x1], [items[a].x2 - items[b].x2]])
            total += items[a].alpha * items[b].alpha * green_grid(t, d[0], d[1], 0.0)[:, 0, 0]
    total += 0.5 * theta_offset(t) * sum(i.alpha**2 for i in items)
    total -= 0.5 * q * np.log(t.imag) * sum(i.alpha for i in items)
    return float(total[0]) if np.ndim(tau) == 0 else total


@dataclass(frozen=True)
class PartitionEstimate:
    value: float
    std_error: float
    replicas: int
    diagnostic: str | None = None


def _tilted_points(params: LQFTParams, taus, ins: InsertionSet, res: FieldResolution):
    """Yield the chaos_points of the tilted mass at each modulus of taus, in
    order, formed a block at a time, each block holding as many moduli as
    fit gff._BATCH_CELLS grid cells, and at least one: H by
    insertion_potential_grid, then chaos_points with the tilts formed in the
    memory of the H grids.  Each modulus's point is the same alone and in
    any block."""
    taus = np.asarray(taus, dtype=complex)
    size = max(1, gff._BATCH_CELLS // (res.grid * res.grid))
    for start in range(0, len(taus), size):
        block = taus[start : start + size]
        h_grids = insertion_potential_grid(block, ins, res.grid, res.eps_for(block))
        yield from chaos_points(block, params.gamma, params.q, res, h_grids)


def insertion_mass_table(
    params: LQFTParams,
    taus,
    ins: InsertionSet,
    mc: MonteCarloConfig,
    res: FieldResolution,
) -> np.ndarray:
    """Replica arrays of I at several moduli, shape (len(taus), replicas).

    Every modulus reuses the same replica draws (common random numbers),
    so row k equals insertion_mass_samples at taus[k].  The points are
    formed block by block (_tilted_points); the pass holds one G x G tilt
    grid per modulus while the batches run.
    """
    points = list(_tilted_points(params, taus, ins, res))
    return total_mass_table(points, mc)


def insertion_mass_samples(
    params: LQFTParams,
    tau: complex,
    ins: InsertionSet,
    mc: MonteCarloConfig,
    res: FieldResolution,
) -> np.ndarray:
    """Replica array of I = int e^{gamma H} dM_{gamma, tau}.

    Deterministic per (seed, base_stream + r); the chaos normalization is
    exact per cell, so resolution bias enters only through truncation of
    the field itself and the eps cap on H.
    """
    return insertion_mass_table(params, [tau], ins, mc, res)[0]


def _inverse_powers(masses: np.ndarray, p: float) -> np.ndarray:
    """masses^{-p}: the terms inverse_power_mean averages, and the weights of
    the law sampler and of resampled_measure's pick, bit-equal in all three."""
    return masses ** (-p)


def inverse_power_mean(masses: np.ndarray, p: float) -> tuple[float, float]:
    """(mean, SE) of masses^{-p} over a replica array of antithetic pairs."""
    return pair_mean_se(_inverse_powers(masses, p))


def partition_function(
    params: LQFTParams,
    tau: complex,
    ins: InsertionSet,
    mc: MonteCarloConfig,
    res: FieldResolution,
) -> PartitionEstimate:
    """Monte Carlo estimate of Pi_{gamma, mu}(g_tau, (z_i, alpha_i)).

    Raises SeibergViolationSum when sum(alpha) <= 0 (the zero-mode
    integral diverges); returns an exact zero with a diagnostic when some
    alpha_i >= Q (the chaos moment vanishes in the limit), and
    NumericError when the estimate is not a finite float.  The prefactor
    stays in log space, log Z^FF + C_tau + log Gamma(s/gamma)
    - (s/gamma) log mu - log gamma, and meets the moment in one exp, so a
    large s/gamma overflows only if the estimate itself does.
    """
    tau = complex(tau)
    ins.require_seiberg_sum()
    if not ins.seiberg_local_ok(params.q):
        worst = max(i.alpha for i in ins.insertions)
        return PartitionEstimate(
            value=0.0,
            std_error=0.0,
            replicas=0,
            diagnostic=(
                f"Seiberg bound alpha < Q violated (max alpha = {worst:g}, "
                f"Q = {params.q:g}); partition function vanishes"
            ),
        )
    p = ins.alpha_sum / params.gamma
    log_front = (
        math.log(free_field_partition(tau))
        + insertion_constant(tau, ins, params.q)
        + math.lgamma(p)
        - p * math.log(params.mu)
        - math.log(params.gamma)
    )
    moment = inverse_power_mean(insertion_mass_samples(params, tau, ins, mc, res), p)
    with np.errstate(over="ignore", divide="ignore"):
        value, std_error = (float(v) for v in np.exp(log_front + np.log(moment)))
    if not (math.isfinite(value) and math.isfinite(std_error)):
        raise NumericError(f"partition estimate {value:g} +- {std_error:g} is not finite")
    return PartitionEstimate(value=value, std_error=std_error, replicas=mc.replicas)


def weyl_anomaly_log_factor(conformal: SpectralField, q: float) -> float:
    """ln(Pi(e^phi g) / Pi(g)) = ((1 + 6 q^2) / 96 pi) * Dirichlet energy of phi."""
    return (1.0 + 6.0 * q * q) / (96.0 * math.pi) * dirichlet_energy(conformal)


def weyl_anomaly_factor(conformal: SpectralField, q: float) -> float:
    return math.exp(weyl_anomaly_log_factor(conformal, q))


@dataclass(frozen=True)
class LiouvilleSample:
    """One weighted draw from the Liouville field law.

    field is c + X + H - (Q/2) ln(Im tau) on the grid, measure the matched
    quantum-area cell weights with total mass exactly equal to volume.
    Expectations under the Liouville law are weighted averages with
    weight proportional to importance (the I^{-s/gamma} tilt).
    """

    field: np.ndarray
    measure: np.ndarray
    volume: float
    weight: float


def _volume_law(params: LQFTParams, ins: InsertionSet, u):
    """Gamma(s/gamma, rate mu) volumes, by inversion of the uniforms u."""
    return scipy.special.gammaincinv(ins.alpha_sum / params.gamma, u) / params.mu


def _law_measure(y: float, point, mass: float, cells: np.ndarray):
    """The quantum-area measure of a replica of the chaos point point, of total
    tilted mass mass and cells cells, conditioned on volume y: factor *
    cells * tilt scaled to y."""
    _, factor, tilt = point
    return (y * factor / mass) * (cells * tilt)


def liouville_field_law_sampler(
    params: LQFTParams,
    tau: complex,
    ins: InsertionSet,
    mc: MonteCarloConfig,
    res: FieldResolution,
    y_volume: float | None = None,
    purpose: int = MODES,
):
    """Yield mc.replicas weighted samples of (field, quantum area measure).

    The volume marginal is Gamma(s/gamma, rate mu), independent of the
    modulus and of the shape of the measure, drawn from volume row
    base_stream + r; when y_volume is given every sample is conditioned
    on that total volume instead.  The fields draw under purpose.  Raises
    when a Seiberg bound fails.
    """
    tau = complex(tau)
    gamma = params.gamma
    ins.require_seiberg(params.q)
    # H as a block of one, as _tilted_points forms it: the field keeps a
    # copy, and chaos_points turns the block into the tilt in place
    block = np.array([tau])
    h_grids = insertion_potential_grid(block, ins, res.grid, res.eps_for(block))
    h_grid = h_grids[0].copy()
    (point,) = chaos_points(block, gamma, params.q, res, h_grids)
    p = ins.alpha_sum / gamma
    shift = -0.5 * params.q * math.log(tau.imag)
    if y_volume is None:
        u = RngStream(mc.seed, mc.base_stream).uniforms(mc.replicas, 1, VOLUME)[:, 0]
        volumes = _volume_law(params, ins, u)
    else:
        volumes = np.full(mc.replicas, float(y_volume))
    for start, _, gxs, cells, masses in chaos_batches([point], mc, purpose):
        weights = _inverse_powers(masses, p)
        for r, (mass, weight, y) in enumerate(zip(masses, weights, volumes[start:])):
            mass, y = float(mass), float(y)
            c = (math.log(y) - math.log(mass)) / gamma
            # replica start + r is (-1)^r times even grid r // 2 of gamma X
            yield LiouvilleSample(
                field=gxs[r // 2] * ((-1) ** r / gamma) + h_grid + (c + shift),
                measure=_law_measure(y, point, mass, cells[r % 2, r // 2]),
                volume=y,
                weight=float(weight),
            )


def resampled_measure(
    params: LQFTParams,
    point,
    ins: InsertionSet,
    mc: MonteCarloConfig,
    y_volume: float,
    u: float,
    purpose: int = MODES,
) -> np.ndarray:
    """The measure of the sample of liouville_field_law_sampler(params, tau,
    ins, mc, res, y_volume, purpose) that importance resampling picks with
    the uniform u, point being tau's tilted point (_tilted_points) at res: the
    first replica whose cumulative weight exceeds u times the total, the
    last when none does.  Only the picked replica's measure is formed; the
    cells of a batch before the last are copied, since the next batch
    overwrites them.  Raises when a Seiberg bound fails.
    """
    ins.require_seiberg(params.q)
    p = ins.alpha_sum / params.gamma
    held, masses, weights = [], [], []
    for start, _, _, cells, m in chaos_batches([point], mc, purpose):
        held.append(cells if start + len(m) == mc.replicas else cells.copy())
        masses.append(m)
        weights.append(_inverse_powers(m, p))
    cdf = np.cumsum(np.concatenate(weights))
    pick = min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), mc.replicas - 1)
    mass = float(np.concatenate(masses)[pick])
    j, r = divmod(pick, len(masses[0]))
    return _law_measure(float(y_volume), point, mass, held[j][r % 2, r // 2])
