"""Quantum gravity layer over moduli space.

Couples a matter CFT of central charge c_m <= 1 to the Liouville sector
through the KPZ relation gamma = (sqrt(25 - c_m) - sqrt(1 - c_m)) / sqrt(6)
and the weight-dressing rule Delta_m + Delta_alpha = 1.  The modulus of
the quantum torus then carries an explicit unnormalized density against
lambda_S(d tau) = d^2 tau / (Im tau)^2,

    rho(tau) = E[I^{-s/gamma}] e^{C_tau(z)} Z_Matter(tau)
               (Im tau)^n sqrt(Im tau) |eta(tau)|^2,

with I the insertion-tilted chaos mass.  Everything stochastic in rho is
the single negative moment, which is what gets tabulated (and cached)
over a fundamental-domain grid; the volume is an independent
Gamma(s/gamma, mu) draw, so joint sampling factorizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import MomentCache, moment_key
from .config import FieldResolution, MonteCarloConfig
from .errors import (
    InvalidCentralCharge,
    NoAdmissibleRoot,
    TruncationTooTight,
    ValidationError,
)
from .gff import MODULUS, RESAMPLE, VOLUME, RngStream, free_field_partition
from .lqft import InsertionSet, LQFTParams, insertion_constant, insertion_mass_table
from .lqft import _tilted_points, _volume_law, inverse_power_mean, resampled_measure
from .special import dedekind_eta, theta_aux

__all__ = [
    "MatterCFT",
    "DensityTable",
    "JointSample",
    "gamma_from_central_charge",
    "alpha_from_matter_weight",
    "params_from_matter",
    "template_from_matter",
    "ghost_partition",
    "matter_partition",
    "negative_moment",
    "modulus_density",
    "build_density_table",
    "sample_modulus",
    "joint_law_sampler",
]

_KINDS = ("pure_gravity", "ising", "free_field_power")
# candidate fields per joint sample, four antithetic pairs; larger
# batches sharpen the conditional law of the measure at linear cost
_RESAMPLE_BATCH = 8


@dataclass(frozen=True)
class MatterCFT:
    kind: str
    central_charge: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown matter kind {self.kind!r}")
        if self.kind == "pure_gravity" and self.central_charge != 0.0:
            raise InvalidCentralCharge("pure gravity has central charge 0")
        if self.kind == "ising" and self.central_charge != 0.5:
            raise InvalidCentralCharge("critical Ising has central charge 1/2")
        if self.central_charge > 1.0:
            raise InvalidCentralCharge(
                f"central charge must not exceed 1, got {self.central_charge}"
            )

    @classmethod
    def pure_gravity(cls) -> "MatterCFT":
        return cls("pure_gravity", 0.0)

    @classmethod
    def ising(cls) -> "MatterCFT":
        return cls("ising", 0.5)

    @classmethod
    def free_field_power(cls, c_m: float) -> "MatterCFT":
        return cls("free_field_power", float(c_m))


def gamma_from_central_charge(c_m: float) -> float:
    """gamma = (sqrt(25 - c_m) - sqrt(1 - c_m)) / sqrt(6), in (0, 2]."""
    if c_m > 1.0:
        raise InvalidCentralCharge(f"central charge must not exceed 1, got {c_m}")
    return (math.sqrt(25.0 - c_m) - math.sqrt(1.0 - c_m)) / math.sqrt(6.0)


def alpha_from_matter_weight(delta_m: float, q: float) -> float:
    """Dressing weight: the root of (alpha/2)(q - alpha/2) = 1 - delta_m
    below q.

    alpha = q - sqrt(q^2 + 4 delta_m - 4).  No real root means the matter
    weight cannot be dressed at this coupling; the double root alpha = q
    (reached exactly at the c_m = 1 boundary with delta_m = 0) fails the
    strict Seiberg bound and is reported as such.
    """
    disc = q * q + 4.0 * delta_m - 4.0
    if disc < 0:
        raise NoAdmissibleRoot(
            f"no real dressing for matter weight {delta_m} at Q = {q:g}"
        )
    root = q - math.sqrt(disc)
    if root >= q:
        raise NoAdmissibleRoot(
            f"dressing root equals Q = {q:g} (central-charge boundary); "
            "the Seiberg bound alpha < Q fails"
        )
    return root


def params_from_matter(matter: MatterCFT, mu: float = 1.0) -> LQFTParams:
    return LQFTParams(gamma=gamma_from_central_charge(matter.central_charge), mu=mu)


def template_from_matter(
    matter: MatterCFT,
    params: LQFTParams,
    points,
    delta_ms=None,
) -> InsertionSet:
    """Insertion set with each point dressed per its matter weight.

    delta_ms defaults to all-zero (identity operators), which dresses
    every point with alpha = gamma.
    """
    points = list(points)
    if delta_ms is None:
        delta_ms = [0.0] * len(points)
    if len(delta_ms) != len(points):
        raise ValidationError("one matter weight per insertion point required")
    q = params.q
    return InsertionSet(
        tuple(
            (x1, x2, alpha_from_matter_weight(d, q))
            for (x1, x2), d in zip(points, delta_ms)
        )
    )


def ghost_partition(tau: complex) -> float:
    """Z_Ghost = |eta(tau)|^4 / (2 Im tau)."""
    tau = complex(tau)
    return abs(dedekind_eta(tau)) ** 4 / (2.0 * tau.imag)


def matter_partition(matter: MatterCFT, tau):
    """Z_Matter per kind; overall constants are fixed to 1 (the modulus
    law is normalized downstream, so they cancel).  tau may be an array of
    moduli, each kind's q-series then running over all of them at once."""
    if matter.kind == "pure_gravity":
        return 1.0 if np.ndim(tau) == 0 else np.ones(np.shape(tau))
    if matter.kind == "ising":
        eta = dedekind_eta(tau)
        return sum(abs(theta_aux(k, tau) / (2.0 * eta)) for k in (2, 3, 4))
    return free_field_partition(tau) ** matter.central_charge


def negative_moment(
    params: LQFTParams,
    tau: complex,
    ins: InsertionSet,
    mc: MonteCarloConfig,
    res: FieldResolution,
    cache: MomentCache | None = None,
) -> tuple[float, float]:
    """(estimate, SE) of E[I^{-s/gamma}], memoized when a cache is given."""
    return _negative_moments(params, [complex(tau)], ins, mc, res, cache)[0]


def _cached_moment(record):
    """(moment, se) of a cache record if both parse as finite floats, else
    None: a miss, recomputed and rewritten (a nan SE is refused anew)."""
    try:
        moment, se = float(record["moment"]), float(record["std_error"])
    except (TypeError, KeyError, ValueError, OverflowError):
        return None
    return (moment, se) if math.isfinite(moment) and math.isfinite(se) else None


def _mirrored(ins: InsertionSet) -> InsertionSet:
    """The insertions under the mirror (x1, x2) -> (-x1 mod 1, x2), in order."""
    return InsertionSet(tuple((-i.x1 % 1.0, i.x2, i.alpha) for i in ins.insertions))


def _negative_moments(params, taus, ins, mc, res, cache):
    """negative_moment at every tau of taus from one common-random-numbers
    pass: every tau is looked up in the cache first, and replicas are
    drawn only when some tau misses, once for all of them.

    The torus at -conj(tau) is the mirror (x1, x2) -> (-x1, x2) of the
    torus at tau, and the mirror permutes the grid cells, so I at
    (-conj(tau), mirrored insertions) has the law of I at (tau, insertions).
    A tau with Re tau < 0 is evaluated as that mirror, and missing moduli
    whose (modulus, insertions) then coincide share one row of
    insertion_mass_table: where the mirror fixes the insertions (every
    point on x1 = 0 or 1/2), tau and -conj(tau) get the same moment bit for
    bit.  Each tau keeps its own cache key and record.
    """
    ins.require_seiberg(params.q)
    keys = [None] * len(taus)
    found = [None] * len(taus)
    if cache is not None:
        for i, tau in enumerate(taus):
            keys[i] = moment_key(
                tau,
                params.gamma,
                ins.insertions,
                res.cutoff,
                res.grid_factor,
                res.eps_for(tau),
                mc.replicas,
                mc.seed,
                mc.base_stream,
            )
            found[i] = _cached_moment(cache.get(keys[i]))
    missing = [i for i, f in enumerate(found) if f is None]
    if not missing:
        return found
    rows, at = {}, []
    mirrored = _mirrored(ins)
    for i in missing:
        tau = taus[i]
        row = (complex(-tau.real, tau.imag), mirrored) if tau.real < 0 else (tau, ins)
        at.append(rows.setdefault(row, len(rows)))
    masses = insertion_mass_table(params, [t for t, _ in rows], [s for _, s in rows], mc, res)
    p = ins.alpha_sum / params.gamma
    moments = [inverse_power_mean(row, p) for row in masses]
    for i, k in zip(missing, at):
        moment, se = found[i] = moments[k]
        if cache is not None:
            tau = taus[i]
            cache.put(
                keys[i],
                {
                    "tau": [tau.real, tau.imag],
                    "gamma": params.gamma,
                    "moment": moment,
                    "std_error": se,
                    "replicas": mc.replicas,
                },
            )
    return found


def _deterministic_factors(matter: MatterCFT, params: LQFTParams, ins: InsertionSet, taus):
    """e^{C_tau(z)} Z_Matter (Im tau)^n sqrt(Im tau) |eta|^2 at each of the
    moduli taus, in array passes (each pair Green term of C in one of them)."""
    taus = np.asarray(taus, dtype=complex)
    im = taus.imag
    return (
        np.exp(insertion_constant(taus, ins, params.q))
        * matter_partition(matter, taus)
        * im ** len(ins.insertions)
        * np.sqrt(im)
        * np.abs(dedekind_eta(taus)) ** 2
    )


def modulus_density(
    matter: MatterCFT,
    params: LQFTParams,
    ins: InsertionSet,
    tau: complex,
    mc: MonteCarloConfig,
    res: FieldResolution,
    cache: MomentCache | None = None,
) -> tuple[float, float]:
    """Unnormalized modulus density w.r.t. lambda_S at one point, with SE."""
    tau = complex(tau)
    moment, se = negative_moment(params, tau, ins, mc, res, cache)
    det = float(_deterministic_factors(matter, params, ins, [tau])[0])
    return det * moment, det * se


@dataclass(frozen=True)
class DensityTable:
    """Cell-centered density table on a fundamental-domain grid.

    cell_mass integrates density * lambda_S over each cell (center value
    times exact lambda_S cell area), zeroed outside the domain;
    tail_fraction estimates the relative mass above the Im cutoff.
    """

    matter: MatterCFT
    params: LQFTParams
    insertions: InsertionSet
    re_edges: np.ndarray
    im_edges: np.ndarray
    density: np.ndarray
    std_error: np.ndarray
    cell_mass: np.ndarray
    tail_fraction: float

    @property
    def re_centers(self) -> np.ndarray:
        return 0.5 * (self.re_edges[:-1] + self.re_edges[1:])

    @property
    def im_centers(self) -> np.ndarray:
        return 0.5 * (self.im_edges[:-1] + self.im_edges[1:])

    @property
    def total_mass(self) -> float:
        return float(self.cell_mass.sum())


def _re_edges(re_cells: int) -> np.ndarray:
    """(2k - n)/(2n) for k = 0..n: uniform on [-1/2, 1/2] and exactly
    antisymmetric, so the cell centers come in exact pairs re, -re."""
    return (2 * np.arange(re_cells + 1) - re_cells) / (2 * re_cells)


def _im_edges(im_cells: int, t_max: float) -> np.ndarray:
    """Uniform spacing up to Im = 2, logarithmic above to t_max > 2; one
    cell spans the whole range."""
    lo = math.sqrt(3.0) / 2.0
    n_lin = im_cells // 2
    n_log = im_cells - n_lin
    lin = np.linspace(lo, 2.0, n_lin + 1)
    log = np.geomspace(2.0, t_max, n_log + 1)
    return np.concatenate([lin, log[1:]])


def _in_fundamental_domain(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return (np.abs(re) <= 0.5) & (re * re + im * im >= 1.0)


def build_density_table(
    matter: MatterCFT,
    params: LQFTParams,
    ins: InsertionSet,
    mc: MonteCarloConfig,
    res: FieldResolution,
    re_cells: int = 12,
    im_cells: int = 12,
    t_max: float = 8.0,
    tail_tol: float = 1e-3,
    cache: MomentCache | None = None,
) -> DensityTable:
    """Tabulate the unnormalized density over the fundamental domain.

    Cells whose center lies outside the domain carry zero mass.  The tail
    above t_max is bounded by an exponential with the KPZ-compensated
    rate (pi/6)(1 - c_m) anchored at the last populated row; if the
    bound exceeds tail_tol of the total, TruncationTooTight asks for a
    larger t_max.

    All grid points share the replica streams (common random numbers),
    so the table is smooth in tau and bit-for-bit reproducible for a
    fixed (seed, grid); each cell equals modulus_density at its center.
    The Re edges are exactly antisymmetric (_re_edges), so the centers
    come in exact mirror pairs tau, -conj(tau), and _negative_moments
    evaluates the one with Re tau < 0 as its mirror.  Where the mirror
    fixes the insertions (the default one at the origin, or points on
    x1 = 0 and 1/2, in order), a pair shares one replica row and one
    moment, so a cold table does half the replica work.  Every point is
    looked up in the cache first.  Only when some point misses are the
    replicas drawn, each one once, batch by batch, and every batch is
    reused for all missing points; each point then gets its own cache
    entry.  Besides one replica batch (at most 2^16 grid cells), the pass
    holds a mode-weight box and a G x G tilt grid per replica row.
    """
    if re_cells < 1 or im_cells < 1:
        raise ValidationError(f"cell counts must be positive, got {re_cells} x {im_cells}")
    if not (math.isfinite(t_max) and t_max > 2.0):
        raise ValidationError(f"t_max must be finite and exceed 2, got {t_max}")
    if not tail_tol > 0:
        raise ValidationError(f"tail_tol must be positive, got {tail_tol}")
    re_edges = _re_edges(re_cells)
    im_edges = _im_edges(im_cells, t_max)
    re_c = 0.5 * (re_edges[:-1] + re_edges[1:])
    im_c = 0.5 * (im_edges[:-1] + im_edges[1:])
    density = np.zeros((re_cells, im_cells))
    stderr = np.zeros((re_cells, im_cells))

    cells = list(zip(*np.nonzero(_in_fundamental_domain(re_c[:, None], im_c[None, :]))))
    taus = [complex(re_c[a], im_c[b]) for a, b in cells]
    moments = _negative_moments(params, taus, ins, mc, res, cache)
    dets = _deterministic_factors(matter, params, ins, taus)
    for (a, b), det, (moment, se) in zip(cells, dets.tolist(), moments):
        density[a, b] = det * moment
        stderr[a, b] = det * se

    # exact lambda_S area of each rectangle, masked to the domain
    d_re = np.diff(re_edges)
    inv_im = 1.0 / im_edges[:-1] - 1.0 / im_edges[1:]
    area = np.outer(d_re, inv_im)
    mask = density > 0
    cell_mass = np.where(mask, density * area, 0.0)

    total = float(cell_mass.sum())
    if total <= 0:
        raise ValidationError("density table is empty")
    rate = (math.pi / 6.0) * (1.0 - matter.central_charge)
    if rate <= 0:
        raise TruncationTooTight(
            "density does not decay at central charge 1; no finite t_max works"
        )
    last = im_cells - 1
    row_mass = float(cell_mass[:, last].sum())
    row_width = float(im_edges[last + 1] - im_edges[last])
    tail = (row_mass / row_width) / rate * math.exp(
        -rate * (t_max - float(im_c[last]))
    )
    tail_fraction = tail / (total + tail)
    if tail_fraction > tail_tol:
        raise TruncationTooTight(
            f"estimated tail mass fraction {tail_fraction:.2e} above Im = {t_max:g} "
            f"exceeds {tail_tol:g}; increase t_max"
        )
    return DensityTable(
        matter=matter,
        params=params,
        insertions=ins,
        re_edges=re_edges,
        im_edges=im_edges,
        density=density,
        std_error=stderr,
        cell_mass=cell_mass,
        tail_fraction=tail_fraction,
    )


def _neighbors(centers: np.ndarray, x: np.ndarray):
    """Lower and upper neighboring centers of x and its clipped fraction
    between them; an axis with one center is constant (fraction 0)."""
    if len(centers) < 2:
        zero = np.zeros(x.shape, dtype=int)
        return zero, zero, np.zeros(x.shape)
    i = np.clip(np.searchsorted(centers, x) - 1, 0, len(centers) - 2)
    return i, i + 1, np.clip((x - centers[i]) / (centers[i + 1] - centers[i]), 0.0, 1.0)


def sample_modulus(table: DensityTable, count: int, rng: RngStream) -> np.ndarray:
    """Inverse-CDF draws over table cells, bilinear density within cells.

    Sample k takes its cell from row rng.stream + k of one MODULUS reader.
    The density interpolated bilinearly between neighboring cell centers and
    weighted by 1/Im^2 is then drawn by rejection in rounds of arrays: each
    pending sample, in index order, takes one (re, Im-marginal, accept) row
    from the next rows of that reader.  Proposals outside the fundamental
    domain are rejected too, so every sample lies in it.
    """
    if count <= 0:
        raise ValidationError("count must be positive")
    cdf = np.cumsum((table.cell_mass / table.total_mass).ravel())
    cdf[-1] = 1.0

    def density_at(re: np.ndarray, im: np.ndarray) -> np.ndarray:
        a, a1, fr = _neighbors(table.re_centers, re)
        b, b1, fi = _neighbors(table.im_centers, im)
        d = table.density
        return (
            d[a, b] * (1 - fr) * (1 - fi)
            + d[a1, b] * fr * (1 - fi)
            + d[a, b1] * (1 - fr) * fi
            + d[a1, b1] * fr * fi
        )

    read = rng.reader(3, MODULUS)
    a, b = np.divmod(np.searchsorted(cdf, read(count)[:, 0]), len(table.im_centers))
    # bilinear values inside a cell are convex combinations of the
    # surrounding centers, so the max over its clipped 3x3 window bounds them
    pad = np.pad(table.density, 1, mode="edge")
    top = np.lib.stride_tricks.sliding_window_view(pad, (3, 3)).max(axis=(2, 3))[a, b]
    re_lo, re_hi = table.re_edges[a], table.re_edges[a + 1]
    inv_lo, inv_hi = 1.0 / table.im_edges[b], 1.0 / table.im_edges[b + 1]
    out = np.empty(count, dtype=complex)
    pending = np.arange(count)
    while pending.size:
        u = read(pending.size)
        re = re_lo[pending] + u[:, 0] * (re_hi - re_lo)[pending]
        # Im from the cell's exact 1/Im^2 marginal; the volume factor
        # then cancels in the acceptance ratio
        im = 1.0 / (inv_lo[pending] - u[:, 1] * (inv_lo - inv_hi)[pending])
        ok = _in_fundamental_domain(re, im) & (u[:, 2] * top[pending] <= density_at(re, im))
        out[pending[ok]] = re[ok] + 1j * im[ok]
        pending = pending[~ok]
    return out


@dataclass(frozen=True)
class JointSample:
    tau: complex
    volume: float
    measure: np.ndarray | None


def joint_law_sampler(
    matter: MatterCFT,
    params: LQFTParams,
    ins: InsertionSet,
    table: DensityTable,
    count: int,
    rng: RngStream,
    res: FieldResolution | None = None,
):
    """Yield (tau, volume, measure) with tau from the table, volume an
    independent Gamma(s/gamma, mu) draw, and (when res is given) one
    quantum-area measure at that tau conditioned on that volume.

    Sample k is row s = rng.stream + k: columns 0 and 1 of volume row s
    give its volume and its pick among the B = _RESAMPLE_BATCH candidate
    fields, the B/2 antithetic pairs of rows [sB/2, (s+1)B/2) of the
    resample purpose, by importance resampling on the I^{-s/gamma} weights
    (lqft.resampled_measure): only the picked candidate's measure is formed.
    The tilted points of the samples' moduli are formed a block at a time
    (lqft._tilted_points), as each block's first sample is reached.
    """
    ins.require_seiberg_sum()
    taus = sample_modulus(table, count, rng)
    u = rng.uniforms(count, 2, VOLUME)
    volumes = _volume_law(params, ins, u[:, 0])
    if res is None:
        for tau, y in zip(taus.tolist(), volumes.tolist()):
            yield JointSample(tau=tau, volume=y, measure=None)
        return
    pairs = _RESAMPLE_BATCH // 2
    for k, point in enumerate(_tilted_points(params, taus, ins, res)):
        y = float(volumes[k])
        sub = MonteCarloConfig(_RESAMPLE_BATCH, rng.seed, (rng.stream + k) * pairs)
        measure = resampled_measure(params, point, ins, sub, y, u[k, 1], RESAMPLE)
        yield JointSample(tau=complex(taus[k]), volume=y, measure=measure)
