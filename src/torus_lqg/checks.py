"""The toolkit's structural guarantees, one function per check.

Each public check is a function of its data (moduli, points, seeds,
replicas, cutoffs) that returns its figure(s) and its verdict against a
fixed bound.  Three callers share them and differ only in data:
`run_checks` (behind `torus-lqg check all`) runs each at reduced scale,
the acceptance suite in tests/test_acceptance.py runs each at full scale,
and `torus-lqg lqft check-kpz` / `check-modular` run `kpz_scaling` and
`modular_partition_ratio` on the data given on the command line.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from .chaos import expected_total_mass, sample_total_masses
from .config import FieldResolution, MonteCarloConfig
from .errors import SeibergViolationLocal, SeibergViolationSum
from .gff import SpectralField, dirichlet_energy, dirichlet_energy_grid, pair_mean_se
from .gff import regularized_variance
from .green import GreenEvalConfig, green, green_mean_zero, theta_offset
from .lqft import (
    InsertionSet,
    LQFTParams,
    conformal_weight,
    partition_function,
    weyl_anomaly_log_factor,
)
from .modular import S, T, reduce_to_fundamental
from .special import dedekind_eta, theta1, theta1_product, theta1_z_derivative_at_zero

__all__ = [
    "CheckResult", "KPZ_TOLERANCE", "gmc_mean_mass", "green_modular", "green_oracles",
    "kpz_scaling", "modular_partition_ratio", "run_checks", "seiberg_gating",
    "special_identities", "variance_constant", "weyl_anomaly",
]

KPZ_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def special_identities(taus, z: complex) -> tuple[float, bool]:
    """Largest residual over taus of eta's T and S transformations,
    theta1'(0) = 2 pi eta^3, and series against product theta1 at z."""
    worst = 0.0
    for tau in taus:
        e = dedekind_eta(tau)
        worst = max(
            worst,
            abs(dedekind_eta(tau + 1) - cmath.exp(1j * math.pi / 12) * e),
            abs(dedekind_eta(-1 / tau) - cmath.sqrt(tau / 1j) * e),
            abs(theta1_z_derivative_at_zero(tau) - 2 * math.pi * e**3),
            abs(theta1(z, tau) - theta1_product(z, tau)),
        )
    return worst, worst <= 1e-10


def green_oracles(taus, points, eigen_cutoff: int, eigen_bound: float) -> tuple[float, float, bool]:
    """Largest gaps of the eigen series (cutoff eigen_cutoff, bound
    eigen_bound, which also caps its error estimate) and of the resummed
    lattice series (bound 1e-8) from the closed Green function."""
    eig = GreenEvalConfig(mode="eigen", eigen_cutoff=eigen_cutoff, tolerance=eigen_bound)
    app = GreenEvalConfig(mode="appendix", tolerance=1e-10)
    worst_eig = worst_app = 0.0
    for tau in taus:
        for x in points:
            closed = green(tau, x)
            worst_eig = max(worst_eig, abs(green(tau, x, eig) - closed))
            worst_app = max(worst_app, abs(green(tau, x, app) - closed))
    return worst_eig, worst_app, worst_eig <= eigen_bound and worst_app <= 1e-8


def green_modular(cases) -> tuple[float, bool]:
    """Largest |G_(psi tau)(x) - G_tau(psi x)| over (tau, psi, x) cases,
    x = (x1, x2) scalars or arrays; bound 1e-9."""
    worst = 0.0
    for tau, psi, x in cases:
        lhs = green(psi.act_on_uhp(tau), x)
        rhs = green(tau, psi.act_on_torus(*x))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, worst <= 1e-9


def variance_constant(tau: complex, rungs) -> tuple[list[float], bool]:
    """|E[X_eps^2] + ln eps - Theta(tau)| at each (eps, cutoff) rung of a
    ladder; the last rung must be within 1e-2."""
    target = theta_offset(tau)
    defects = [abs(regularized_variance(tau, c, eps) + math.log(eps) - target) for eps, c in rungs]
    return defects, defects[-1] <= 1e-2


def gmc_mean_mass(
    tau: complex, gammas, mc: MonteCarloConfig, res: FieldResolution
) -> tuple[float, bool]:
    """Largest distance, in pair standard errors, of the sampled mean chaos
    mass from its exact expectation over gammas; bound 3."""
    worst = 0.0
    for gamma in gammas:
        q = LQFTParams(gamma).q
        mean, se = pair_mean_se(sample_total_masses(tau, gamma, q, mc, res))
        worst = max(worst, abs(mean - expected_total_mass(tau, gamma, q)) / se)
    return worst, worst <= 3.0


def kpz_scaling(
    gamma: float, tau: complex, ins: InsertionSet, mc: MonteCarloConfig, res: FieldResolution, mus
) -> tuple[list[float], float, bool]:
    """|Pi_mu / Pi_1 - mu^{-s/gamma}| for each mu of mus (exact KPZ
    scaling), the largest, and whether it is within KPZ_TOLERANCE.

    Raises as InsertionSet.require_seiberg: with some alpha_i >= Q every
    Pi is zero and the ratio undefined.
    """
    ins.require_seiberg(LQFTParams(gamma).q)
    base = partition_function(LQFTParams(gamma, 1.0), tau, ins, mc, res).value
    p = ins.alpha_sum / gamma
    residuals = [
        abs(partition_function(LQFTParams(gamma, mu), tau, ins, mc, res).value / base - mu ** (-p))
        for mu in mus
    ]
    worst = max(residuals)
    return residuals, worst, worst <= KPZ_TOLERANCE


def seiberg_gating(
    params: LQFTParams, tau: complex, cases, mc: MonteCarloConfig, res: FieldResolution
) -> tuple[dict, list[str], bool]:
    """Counts of the branch each (insertion set, expected branch) pair of
    cases took, read off the result alone: "raised" (SeibergViolationSum),
    "vanished" (an exact zero with a diagnostic naming Q) or "estimated" (a
    finite positive value and error); one line per set that misbehaved, and
    whether none did."""
    outcomes = {"raised": 0, "vanished": 0, "estimated": 0}
    misbehaved = []
    for ins, expected in cases:
        try:
            est = partition_function(params, tau, ins, mc, res)
            taken = "estimated" if est.value else "vanished"
        except SeibergViolationSum:
            est, taken = None, "raised"
        outcomes[taken] += 1
        weights = tuple(i.alpha for i in ins.insertions)
        if taken != expected:
            misbehaved.append(f"weights {weights} {taken}, expected {expected}")
        elif taken == "vanished" and f"Q = {params.q:g}" not in (est.diagnostic or ""):
            misbehaved.append(f"weights {weights} vanished without a diagnostic naming Q")
        elif taken == "estimated" and not (0 < est.value < math.inf and est.std_error > 0):
            misbehaved.append(f"weights {weights} estimate not finite positive with an error")
    return outcomes, misbehaved, not misbehaved


def weyl_anomaly(
    phi: SpectralField, q: float, scale: float, grid: int | None = None
) -> tuple[float, float, bool]:
    """Gap between the grid-quadrature and spectral Dirichlet energies of
    phi (bound 1e-6), and the defect of the Weyl log factor from exact
    quadratic scaling under phi -> scale * phi (bound 1e-12)."""
    energy_gap = abs(dirichlet_energy_grid(phi, grid) - dirichlet_energy(phi))
    scaled = SpectralField(tau=phi.tau, cutoff=phi.cutoff, coeffs=scale * phi.coeffs)
    quad = abs(weyl_anomaly_log_factor(scaled, q) - scale**2 * weyl_anomaly_log_factor(phi, q))
    return energy_gap, quad, energy_gap <= 1e-6 and quad <= 1e-12


def modular_partition_ratio(
    tau: complex,
    gamma: float,
    alpha: float,
    mc: MonteCarloConfig,
    res: FieldResolution,
) -> tuple[float, float, float, bool]:
    """Covariance ratio for the inversion: Pi at -1/tau over the matched
    prediction |psi'(tau)|^{-Delta} times Pi at tau, with one insertion of
    weight alpha at the origin, the point S fixes.

    The resolution at -1/tau is metric-matched, eps' = eps sqrt|psi'| =
    eps sqrt(Im psi(tau) / Im tau); with equal mode cutoffs the inversion
    relabels the spectral box onto itself, so the two estimators then
    share one finite-resolution law and the ratio is unbiased.  Returns
    the ratio, its combined SE, its distance from 1 in those SEs, and
    whether that distance is within 3.  Raises SeibergViolationLocal when
    alpha >= Q: both Pi are then zero and the ratio undefined.
    """
    tau = complex(tau)
    params = LQFTParams(gamma, 1.0)
    if not alpha < params.q:
        raise SeibergViolationLocal(f"alpha must stay below Q = {params.q:g} for a modular ratio")
    psi_tau = S.act_on_uhp(tau)
    dpsi = abs(S.derivative(tau))
    ins = InsertionSet(((0.0, 0.0, alpha),))
    eps_here = res.eps_for(tau)
    res_here = FieldResolution(res.cutoff, res.grid_factor, eps=eps_here)
    res_there = FieldResolution(
        res.cutoff, res.grid_factor, eps=eps_here * math.sqrt(dpsi)
    )
    a = partition_function(params, psi_tau, ins, mc, res_there)
    b = partition_function(params, tau, ins, mc, res_here)
    delta = conformal_weight(alpha, params.q)
    pred = dpsi ** (-delta) * b.value
    ratio = a.value / pred
    rel_se = math.sqrt(
        (a.std_error / a.value) ** 2 + (b.std_error / b.value) ** 2
    )
    se = abs(ratio) * rel_se
    dev = abs(ratio - 1.0) / se
    return ratio, se, dev, dev <= 3.0


def _eta_theta_identities(quick: bool) -> tuple[bool, str]:
    taus = [1j, 0.3 + 1.2j, -0.45 + 0.9j] if quick else [
        complex(re, im)
        for re in np.linspace(-0.45, 0.45, 5)
        for im in np.linspace(0.9, 2.5, 5)
    ]
    worst, ok = special_identities(taus, 0.21 + 0.13j)
    return ok, f"max identity residual {worst:.2e}"


def _green_oracles(quick: bool) -> tuple[bool, str]:
    tau = 0.25 + 1.15j
    pts = [(0.31, 0.17), (0.05, 0.62), (0.5, 0.5)]
    worst_eigen, worst_app, ok = green_oracles(
        [tau], pts, 150 if quick else 400, 2e-2 if quick else 5e-3
    )
    mz = abs(green_mean_zero(tau, grid=128 if quick else 256))
    return ok and mz <= 1e-3, (
        f"eigen dev {worst_eigen:.2e}, resummed dev {worst_app:.2e}, mean {mz:.2e}"
    )


def _green_modular(quick: bool) -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    taus = [0.3 + 1.4j, -0.2 + 0.8j] if quick else [
        0.3 + 1.4j, -0.2 + 0.8j, 1.7 + 0.6j, 0.05 + 2.2j, -1.3 + 1.1j,
    ]
    n_pts = 10 if quick else 50
    points = [(rng.random(n_pts), rng.random(n_pts)) for _ in taus]
    worst, ok = green_modular((tau, psi, x) for tau, x in zip(taus, points) for psi in (S, T))
    return ok, f"max modular defect {worst:.2e}"


def _variance_constant(quick: bool) -> tuple[bool, str]:
    eps = 3e-3 if quick else 1e-3
    cutoff = int(round((12 if quick else 15) / eps))
    (defect,), ok = variance_constant(0.3 + 1.2j, [(eps, cutoff)])
    return ok, f"variance offset defect {defect:.2e} at eps={eps:g}"


def _gmc_mass(quick: bool) -> tuple[bool, str]:
    mc = MonteCarloConfig(replicas=1500, seed=42)
    dev, ok = gmc_mean_mass(0.15 + 1.05j, (1.0,), mc, FieldResolution(cutoff=24))
    return ok, f"mean mass off by {dev:.2f} SE"


def _kpz_exact(quick: bool) -> tuple[bool, str]:
    ins = InsertionSet(((0.1, 0.3, 0.9), (0.6, 0.1, 0.4)))
    mc = MonteCarloConfig(replicas=32 if quick else 256, seed=5)
    res = FieldResolution(cutoff=12)
    _, worst, ok = kpz_scaling(1.0, 0.2 + 1.3j, ins, mc, res, (0.5, 2.0, 10.0))
    return ok, f"max scaling residual {worst:.2e}"


def _seiberg_gating(quick: bool) -> tuple[bool, str]:
    cases = [
        (InsertionSet(((0.2, 0.2, -1.0),)), "raised"),
        (InsertionSet(((0.2, 0.2, 2.6), (0.7, 0.7, 0.3))), "vanished"),
        (InsertionSet(((0.2, 0.2, 1.0),)), "estimated"),
    ]
    mc = MonteCarloConfig(replicas=16, seed=1)
    params = LQFTParams(1.0, 1.0)
    _, misbehaved, ok = seiberg_gating(params, 1j, cases, mc, FieldResolution(cutoff=8))
    return ok, "all three branches behave" if ok else "; ".join(misbehaved)


def _weyl_quadratic(quick: bool) -> tuple[bool, str]:
    coeffs = np.zeros((5, 5), dtype=complex)
    coeffs[2 + 1, 2 + 0] = 0.3 + 0.1j
    coeffs[2 - 1, 2 - 0] = np.conj(coeffs[2 + 1, 2 + 0])
    coeffs[2 + 0, 2 + 2] = -0.2j
    coeffs[2 - 0, 2 - 2] = np.conj(coeffs[2 + 0, 2 + 2])
    phi = SpectralField(tau=0.4 + 1.7j, cutoff=2, coeffs=coeffs)
    dev_energy, dev_quad, ok = weyl_anomaly(phi, 2.5, 2.0, grid=64)
    return ok, f"energy cross-check {dev_energy:.2e}, quadratic defect {dev_quad:.2e}"


def _reduction_involution(quick: bool) -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    n = 50 if quick else 300
    worst = 0.0
    for _ in range(n):
        tau = complex(rng.uniform(-8, 8), rng.uniform(0.05, 5))
        red = reduce_to_fundamental(tau)
        worst = max(worst, abs(red.witness.act_on_uhp(tau) - red.tau))
        again = reduce_to_fundamental(red.tau)
        worst = max(worst, abs(again.tau - red.tau))
    return worst <= 1e-9, f"max reduction defect {worst:.2e}"


def _partition_modular(quick: bool) -> tuple[bool, str]:
    ratio, _, dev, ok = modular_partition_ratio(
        2j, 1.0, 1.0, MonteCarloConfig(replicas=4000, seed=23), FieldResolution(cutoff=16)
    )
    return ok, f"covariance ratio {ratio:.4f} off by {dev:.2f} SE"


_QUICK = [
    ("special-identities", _eta_theta_identities),
    ("green-oracles", _green_oracles),
    ("green-modular", _green_modular),
    ("variance-constant", _variance_constant),
    ("kpz-scaling", _kpz_exact),
    ("seiberg-gating", _seiberg_gating),
    ("weyl-anomaly", _weyl_quadratic),
    ("fundamental-reduction", _reduction_involution),
]

_FULL_EXTRA = [
    ("gmc-mean-mass", _gmc_mass),
    ("partition-modular", _partition_modular),
]


def run_checks(quick: bool = False) -> list[CheckResult]:
    battery = _QUICK if quick else _QUICK + _FULL_EXTRA
    out = []
    for name, fn in battery:
        t0 = time.time()
        try:
            passed, detail = fn(quick)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CheckResult(name, passed, detail, time.time() - t0))
    return out
