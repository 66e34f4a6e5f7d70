"""Self-contained health checks behind `torus-lqg check`.

Each check exercises one structural identity of the toolkit at reduced
scale and returns a pass/fail verdict with a numeric detail.  The full
pytest suite remains the authoritative acceptance run; this battery is
for quick validation of an installed build (CI smoke, post-install).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .chaos import expected_total_mass, sample_total_masses
from .config import FieldResolution, MonteCarloConfig
from .errors import SeibergViolationLocal, SeibergViolationSum
from .gff import (
    SpectralField,
    dirichlet_energy,
    dirichlet_energy_grid,
    regularized_variance,
)
from .green import green, green_mean_zero, theta_offset
from .lqft import (
    InsertionSet,
    LQFTParams,
    conformal_weight,
    partition_function,
    weyl_anomaly_log_factor,
)
from .modular import S, T, reduce_to_fundamental
from .special import (
    dedekind_eta,
    theta1,
    theta1_z_derivative_at_zero,
)

__all__ = ["CheckResult", "kpz_residuals", "modular_partition_ratio", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _eta_theta_identities(quick: bool) -> tuple[bool, str]:
    taus = [1j, 0.3 + 1.2j, -0.45 + 0.9j] if quick else [
        complex(re, im)
        for re in np.linspace(-0.45, 0.45, 5)
        for im in np.linspace(0.9, 2.5, 5)
    ]
    worst = 0.0
    for tau in taus:
        e = dedekind_eta(tau)
        worst = max(worst, abs(dedekind_eta(tau + 1) - np.exp(1j * np.pi / 12) * e))
        worst = max(worst, abs(dedekind_eta(-1 / tau) - np.sqrt(tau / 1j) * e))
        worst = max(worst, abs(theta1_z_derivative_at_zero(tau) - 2 * np.pi * e**3))
        z = 0.21 + 0.13j
        worst = max(
            worst,
            abs(theta1(z, tau, method="series") - theta1(z, tau, method="product")),
        )
    return worst <= 1e-10, f"max identity residual {worst:.2e}"


def _green_oracles(quick: bool) -> tuple[bool, str]:
    tau = 0.25 + 1.15j
    pts = [(0.31, 0.17), (0.05, 0.62), (0.5, 0.5)]
    cutoff = 150 if quick else 400
    worst_eigen = worst_app = 0.0
    for x in pts:
        closed = float(green(tau, x))
        from .green import GreenEvalConfig

        eig = float(
            green(tau, x, GreenEvalConfig(mode="eigen", eigen_cutoff=cutoff, tolerance=1.0))
        )
        app = float(green(tau, x, GreenEvalConfig(mode="appendix", tolerance=1e-10)))
        worst_eigen = max(worst_eigen, abs(closed - eig))
        worst_app = max(worst_app, abs(closed - app))
    mz = abs(green_mean_zero(tau, grid=128 if quick else 256))
    ok = worst_eigen <= (2e-2 if quick else 5e-3) and worst_app <= 1e-8 and mz <= 1e-3
    return ok, (
        f"eigen dev {worst_eigen:.2e}, resummed dev {worst_app:.2e}, mean {mz:.2e}"
    )


def _green_modular(quick: bool) -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    taus = [0.3 + 1.4j, -0.2 + 0.8j] if quick else [
        0.3 + 1.4j, -0.2 + 0.8j, 1.7 + 0.6j, 0.05 + 2.2j, -1.3 + 1.1j,
    ]
    n_pts = 10 if quick else 50
    worst = 0.0
    for tau in taus:
        x1 = rng.random(n_pts)
        x2 = rng.random(n_pts)
        for psi in (S, T):
            lhs = green(psi.act_on_uhp(tau), (x1, x2))
            y1, y2 = psi.act_on_torus(x1, x2)
            rhs = green(tau, (y1, y2))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= 1e-9, f"max modular defect {worst:.2e}"


def _variance_constant(quick: bool) -> tuple[bool, str]:
    tau = 0.3 + 1.2j
    eps = 3e-3 if quick else 1e-3
    cutoff = int(round((12 if quick else 15) / eps))
    defect = abs(
        regularized_variance(tau, cutoff, eps) + math.log(eps) - theta_offset(tau)
    )
    return defect <= 1e-2, f"variance offset defect {defect:.2e} at eps={eps:g}"


def _gmc_mass(quick: bool) -> tuple[bool, str]:
    tau = 0.15 + 1.05j
    gamma = 1.0
    q = LQFTParams(gamma).q
    res = FieldResolution(cutoff=12 if quick else 24)
    mc = MonteCarloConfig(replicas=300 if quick else 1500, seed=42)
    masses = sample_total_masses(tau, gamma, q, mc, res)
    exp = expected_total_mass(tau, gamma, q)
    se = float(masses.std(ddof=1) / math.sqrt(len(masses)))
    dev = abs(float(masses.mean()) - exp) / se
    return dev <= 3.0, f"mean mass off by {dev:.2f} SE"


def kpz_residuals(
    gamma: float, tau: complex, ins: InsertionSet, mc: MonteCarloConfig, res: FieldResolution, mus
) -> list[float]:
    """|Pi_mu / Pi_1 - mu^{-s/gamma}| for each mu of mus (exact KPZ scaling).

    Raises SeibergViolationLocal when some alpha_i >= Q: every Pi is then
    zero and the ratio undefined.
    """
    q = LQFTParams(gamma).q
    if not ins.seiberg_local_ok(q):
        raise SeibergViolationLocal(f"every alpha must stay below Q = {q:g} for a KPZ ratio")
    base = partition_function(LQFTParams(gamma, 1.0), tau, ins, mc, res).value
    p = ins.alpha_sum / gamma
    return [
        abs(partition_function(LQFTParams(gamma, mu), tau, ins, mc, res).value / base - mu ** (-p))
        for mu in mus
    ]


def _kpz_exact(quick: bool) -> tuple[bool, str]:
    ins = InsertionSet(((0.1, 0.3, 0.9), (0.6, 0.1, 0.4)))
    mc = MonteCarloConfig(replicas=32 if quick else 256, seed=5)
    res = FieldResolution(cutoff=12)
    worst = max(kpz_residuals(1.0, 0.2 + 1.3j, ins, mc, res, (0.5, 2.0, 10.0)))
    return worst <= 1e-12, f"max scaling residual {worst:.2e}"


def _seiberg_gating(quick: bool) -> tuple[bool, str]:
    tau = 1j
    params = LQFTParams(1.0, 1.0)
    mc = MonteCarloConfig(replicas=16, seed=1)
    res = FieldResolution(cutoff=8)
    try:
        partition_function(params, tau, InsertionSet(((0.2, 0.2, -1.0),)), mc, res)
        return False, "negative weight sum not rejected"
    except SeibergViolationSum:
        pass
    zero = partition_function(
        params, tau, InsertionSet(((0.2, 0.2, 2.6), (0.7, 0.7, 0.3))), mc, res
    )
    if zero.value != 0.0 or not zero.diagnostic:
        return False, "supercritical weight not zeroed"
    good = partition_function(params, tau, InsertionSet(((0.2, 0.2, 1.0),)), mc, res)
    if not (good.value > 0 and math.isfinite(good.value)):
        return False, "admissible estimate not finite positive"
    return True, "all three branches behave"


def _weyl_quadratic(quick: bool) -> tuple[bool, str]:
    tau = 0.4 + 1.7j
    coeffs = np.zeros((5, 5), dtype=complex)
    coeffs[2 + 1, 2 + 0] = 0.3 + 0.1j
    coeffs[2 - 1, 2 - 0] = np.conj(coeffs[2 + 1, 2 + 0])
    coeffs[2 + 0, 2 + 2] = -0.2j
    coeffs[2 - 0, 2 - 2] = np.conj(coeffs[2 + 0, 2 + 2])
    phi = SpectralField(tau=tau, cutoff=2, coeffs=coeffs)
    q = 2.5
    e_spec = dirichlet_energy(phi)
    e_grid = dirichlet_energy_grid(phi, grid=64)
    lf1 = weyl_anomaly_log_factor(phi, q)
    phi2 = SpectralField(tau=tau, cutoff=2, coeffs=2.0 * coeffs)
    lf2 = weyl_anomaly_log_factor(phi2, q)
    dev_energy = abs(e_spec - e_grid)
    dev_quad = abs(lf2 - 4.0 * lf1)
    ok = dev_energy <= 1e-6 and dev_quad <= 1e-12
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


def modular_partition_ratio(
    tau: complex,
    gamma: float,
    alpha: float,
    mc: MonteCarloConfig,
    res: FieldResolution,
    z=(0.0, 0.0),
):
    """Covariance ratio for the inversion: Pi at -1/tau over the matched
    prediction |psi'(tau)|^{-Delta} times Pi at tau with the mapped point.

    The resolution at -1/tau is metric-matched, eps' = eps sqrt|psi'| =
    eps sqrt(Im psi(tau) / Im tau); with equal mode cutoffs the inversion
    relabels the spectral box onto itself, so the two estimators then
    share one finite-resolution law and the ratio is unbiased.  Returns
    (ratio, combined SE of the ratio).
    """
    tau = complex(tau)
    params = LQFTParams(gamma, 1.0)
    psi_tau = S.act_on_uhp(tau)
    dpsi = abs(S.derivative(tau))
    z1, z2 = S.act_on_torus(np.array([z[0]]), np.array([z[1]]))
    ins_there = InsertionSet(((z[0], z[1], alpha),))
    ins_here = InsertionSet(((float(z1[0]), float(z2[0]), alpha),))
    eps_here = res.eps_for(tau)
    res_here = FieldResolution(res.cutoff, res.grid_factor, eps=eps_here)
    res_there = FieldResolution(
        res.cutoff, res.grid_factor, eps=eps_here * math.sqrt(dpsi)
    )
    a = partition_function(params, psi_tau, ins_there, mc, res_there)
    b = partition_function(params, tau, ins_here, mc, res_here)
    delta = conformal_weight(alpha, params.q)
    pred = dpsi ** (-delta) * b.value
    ratio = a.value / pred
    rel_se = math.sqrt(
        (a.std_error / a.value) ** 2 + (b.std_error / b.value) ** 2
    )
    return ratio, abs(ratio) * rel_se


def _partition_modular(quick: bool) -> tuple[bool, str]:
    mc = MonteCarloConfig(replicas=400 if quick else 4000, seed=23)
    res = FieldResolution(cutoff=16)
    ratio, se = modular_partition_ratio(2j, 1.0, 1.0, mc, res)
    dev = abs(ratio - 1.0) / se
    return dev <= 3.0, f"covariance ratio {ratio:.4f} off by {dev:.2f} SE"


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
