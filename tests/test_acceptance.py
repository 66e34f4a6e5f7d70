"""Acceptance suite: one test per shipped guarantee.

Each test prints a single line with the measured figure next to its bound,
then asserts it, so `pytest -s tests/test_acceptance.py` reads as a report.
Monte Carlo tests use pinned seeds; statistical bounds are 3 standard
errors unless the guarantee states otherwise.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import torus_lqg.cli as cli
from torus_lqg import checks
from torus_lqg.cache import MomentCache
from torus_lqg.chaos import chaos_measure, chaos_prefactor, pushforward, sample_total_masses
from torus_lqg.config import FieldResolution, MonteCarloConfig
from torus_lqg.gff import (
    LogConformalFactor,
    RngStream,
    build_log_conformal_factor,
    circle_average,
    dirichlet_energy,
    draw_modes,
    sample_gff,
    scaled_mode_weights,
    truncated_covariance,
)
from torus_lqg.green import green, spectral_coefficient
from torus_lqg.lqft import InsertionSet, LQFTParams, weyl_anomaly_log_factor
from torus_lqg.lqg import (
    MatterCFT,
    build_density_table,
    joint_law_sampler,
    modulus_density,
    params_from_matter,
    template_from_matter,
)
from torus_lqg.modular import S, T
from torus_lqg.special import dedekind_eta

pytestmark = pytest.mark.acceptance


def report(label: str, detail: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def elapsed_ok(t0: float, budget: float) -> bool:
    return time.monotonic() - t0 < budget


def test_01_special_function_identities():
    t0 = time.monotonic()
    taus = [
        complex(re, im)
        for re in np.linspace(-0.49, 0.49, 10)
        for im in np.linspace(1.01, 3.0, 10)
    ]
    worst, ok = checks.special_identities(taus, 0.17 + 0.23j)
    report(
        "eta/theta identities on a 100-point modulus grid",
        f"max residual {worst:.2e} (bound 1e-10)",
        ok and elapsed_ok(t0, 5.0),
    )


GREEN_POINTS = ((0.3, 0.4), (0.15, 0.35), (0.42, 0.07), (0.05, 0.6), (0.27, 0.81))


def test_02_green_function_three_routes():
    t0 = time.monotonic()
    worst_eig, worst_app, ok = checks.green_oracles((1j, 0.3 + 1.2j), GREEN_POINTS, 400, 5e-3)
    g = 256
    u = (np.arange(g) + 0.5) / g
    x1, x2 = np.meshgrid(u, u, indexing="ij")
    worst_mean = 0.0
    for tau in (1j, 0.3 + 1.2j):
        worst_mean = max(worst_mean, abs(float(np.mean(green(tau, (x1, x2)))) * tau.imag))
    report(
        "Green function closed form vs eigen series vs lattice series",
        f"eigen {worst_eig:.2e} (5e-3), lattice {worst_app:.2e} (1e-8), "
        f"mean {worst_mean:.2e} (1e-3)",
        ok and worst_mean <= 1e-3 and elapsed_ok(t0, 60.0),
    )


def test_03_green_function_modular_invariance():
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    worst, ok = checks.green_modular(
        (tau, psi, tuple(rng.uniform(0.03, 0.97, size=2)))
        for tau in (1j, 2j, 0.3 + 1.2j, -0.25 + 1.5j, 0.45 + 2.2j)
        for psi in (S, T)
        for _ in range(50)
    )
    report(
        "Green function invariant under both modular generators",
        f"max |G_(psi tau)(x) - G_tau(psi x)| = {worst:.2e} (bound 1e-9)",
        ok and elapsed_ok(t0, 10.0),
    )


def test_04_circle_average_variance_asymptotics():
    # E[X_eps^2] + ln eps -> -ln 2pi - 2 ln|eta| down an eps ladder with
    # cutoff matched to the rung
    t0 = time.monotonic()
    tau = 1j
    defects, ok = checks.variance_constant(
        tau, [(eps, math.ceil(15.0 / eps)) for eps in (1e-2, 3e-3, 1e-3)]
    )
    # stationarity: the per-point variance quadrature must not depend on x
    eps, cutoff = 1e-2, 1500
    base = truncated_covariance(tau, cutoff, (0.0, 0.0), eps)
    spread = max(
        abs(v - base)
        for v in _variances_at(tau, cutoff, eps, ((0.0, 0.0), (0.3, 0.1), (0.55, 0.72), (0.9, 0.45)))
    )
    report(
        "circle-average variance approaches ln(1/eps) plus the eta constant",
        f"ladder defects {defects[0]:.1e}/{defects[1]:.1e}/{defects[2]:.1e} "
        f"(final bound 1e-2), x-spread {spread:.1e} (bound 1e-6)",
        ok and spread <= 1e-6 and elapsed_ok(t0, 120.0),
    )


def _variances_at(tau, cutoff, eps, xs):
    # per-point variances with the phase factors kept explicit, exposing
    # any x-dependence the quadrature might have; one J0 box serves every point
    from scipy.special import j0

    idx = np.arange(-cutoff, cutoff + 1)
    n, m = np.meshgrid(idx, idx, indexing="ij")
    mask = (n != 0) | (m != 0)
    n, m = n[mask], m[mask]
    c = spectral_coefficient(tau, n, m) * j0(
        2.0 * np.pi * eps * np.abs(n * complex(tau) - m) / complex(tau).imag
    ) ** 2
    thetas = (2.0 * np.pi * (n * x1 + m * x2) for x1, x2 in xs)
    return [float(np.sum(c * (np.cos(t) ** 2 + np.sin(t) ** 2))) for t in thetas]


def test_05_gff_covariance_matches_series():
    t0 = time.monotonic()
    tau, cutoff, replicas = 1j, 64, 10_000
    # the half-spectrum m >= 0: X = 2 Re sum_{m >= 1} + the real m = 0 column,
    # so the phases of m >= 1 are doubled
    n, m = np.meshgrid(np.arange(-cutoff, cutoff + 1), np.arange(cutoff + 1), indexing="ij")
    base = (0.15, 0.2)
    disps = ((0.1, 0.0), (0.0, 0.1), (0.2, 0.3), (0.35, 0.15), (0.45, 0.45))
    pts = [base] + [(base[0] + d[0], base[1] + d[1]) for d in disps]
    double = np.where(m > 0, 2.0, 1.0)
    phases = np.stack(
        [(double * np.exp(2j * np.pi * (n * x1 + m * x2))).ravel() for x1, x2 in pts], axis=1
    )
    # field r is row r of draw_modes under seed 31, drawn in batches
    weights = scaled_mode_weights(tau, cutoff)[0][:, cutoff:]
    batch = 100
    prods = np.empty((replicas, len(disps)))
    for start in range(0, replicas, batch):
        half = draw_modes(RngStream(31, start), batch, cutoff) * weights
        vals = (half.reshape(batch, -1) @ phases).real
        prods[start : start + batch] = vals[:, :1] * vals[:, 1:]
    # the last field, mirrored to the full box, is the one sample_gff draws
    coeffs = np.concatenate([np.conj(half[-1, ::-1, :0:-1]), half[-1]], axis=1)
    assert np.array_equal(coeffs, sample_gff(tau, cutoff, RngStream(31, replicas - 1)).coeffs)
    worst = 0.0
    for k, d in enumerate(disps):
        want = truncated_covariance(tau, cutoff, d)
        se = float(prods[:, k].std(ddof=1)) / math.sqrt(replicas)
        worst = max(worst, abs(float(prods[:, k].mean()) - want) / se)
    report(
        "sampled field covariance matches the truncated Green series",
        f"max deviation {worst:.2f} SE over {len(disps)} displacements (bound 3)",
        worst <= 3.0 and elapsed_ok(t0, 120.0),
    )


def test_06_subcritical_chaos_normalization():
    t0 = time.monotonic()
    tau = 1j
    worst_mean, ok = checks.gmc_mean_mass(
        tau, (0.5, 1.0, 1.5), MonteCarloConfig(replicas=2500, seed=41), FieldResolution(8, 4)
    )
    # cell-wise unit means at gamma = 1
    gamma, q = 1.0, 2.5
    res = FieldResolution(cutoff=6, grid_factor=4)
    eps = res.eps_for(tau)
    area = tau.imag / res.grid**2
    pref = chaos_prefactor(tau, gamma, q)
    cells = ((3, 5), (10, 2), (17, 20))
    rows = {c: [] for c in cells}
    for r in range(400):
        fld = circle_average(sample_gff(tau, 6, RngStream(41, 1000 + r)), eps)
        w = chaos_measure(fld, gamma, q).weights
        for c in cells:
            rows[c].append(w[c] / (pref * area))
    worst_cell = 0.0
    for c in cells:
        a = np.asarray(rows[c])
        worst_cell = max(
            worst_cell, abs(float(a.mean()) - 1.0) / (float(a.std(ddof=1)) / math.sqrt(len(a)))
        )
    # atomlessness proxy: the largest cell carries less mass on finer grids
    fracs = []
    for cutoff in (4, 10):
        resf = FieldResolution(cutoff=cutoff, grid_factor=4)
        epsf = resf.eps_for(tau)
        fracs.append(
            np.mean(
                [
                    chaos_measure(
                        circle_average(sample_gff(tau, cutoff, RngStream(43, r)), epsf),
                        1.5,
                        2.0 / 1.5 + 0.75,
                    ).max_cell_fraction
                    for r in range(300)
                ]
            )
        )
    report(
        "subcritical chaos has unit cell means and the expected total mass",
        f"mass dev {worst_mean:.2f} SE, cell dev {worst_cell:.2f} SE (bound 3), "
        f"max-cell fraction {fracs[0]:.4f} -> {fracs[1]:.4f}",
        ok
        and worst_cell <= 3.0
        and fracs[1] < fracs[0]
        and elapsed_ok(t0, 300.0),
    )


def test_07_chaos_pushforward_matches_law():
    t0 = time.monotonic()
    tau, gamma, q = 2j, 1.0, 2.5
    psi = S
    ptau = psi.act_on_uhp(tau)
    eps = 0.12
    eps_matched = eps * math.sqrt(abs(psi.derivative(tau)))
    direct = sample_total_masses(
        ptau,
        gamma,
        q,
        MonteCarloConfig(replicas=1000, seed=51),
        FieldResolution(cutoff=16, grid_factor=4, eps=eps_matched),
    )
    pushed = np.array(
        [
            pushforward(
                chaos_measure(
                    circle_average(sample_gff(tau, 16, RngStream(52, r)), eps), gamma, q
                ),
                psi,
            ).total_mass
            for r in range(1000)
        ]
    )
    ks = stats.ks_2samp(direct, pushed)
    report(
        "chaos at the mapped modulus matches the pushed-forward chaos in law",
        f"two-sample KS p = {ks.pvalue:.3f} (reject below 0.01)",
        ks.pvalue >= 0.01 and elapsed_ok(t0, 300.0),
    )


def test_08_critical_chaos_ladder():
    # corrected median stabilizes while the uncorrected median keeps
    # falling and the negative-half moment stays put
    t0 = time.monotonic()
    tau = 1j
    med_corr, med_unc, neg = [], [], []
    for eps in (0.35, 0.08):
        res = FieldResolution(cutoff=math.ceil(1.25 / eps), grid_factor=4, eps=eps)
        masses = sample_total_masses(
            tau, 2.0, 2.0, MonteCarloConfig(replicas=10_000, seed=0), res, critical=True
        )
        med_corr.append(float(np.median(masses)))
        med_unc.append(med_corr[-1] / math.sqrt(math.log(1.0 / eps)))
        neg.append(float(np.mean(masses**-0.5)))
    r_corr = med_corr[1] / med_corr[0]
    r_unc = med_unc[1] / med_unc[0]
    r_neg = neg[1] / neg[0]
    report(
        "critical chaos: corrected median stable, uncorrected median falling",
        f"corrected ratio {r_corr:.3f} (within 10%), uncorrected ratio {r_unc:.3f} "
        f"(at most 0.70), negative-moment ratio {r_neg:.3f} (within 10%)",
        abs(r_corr - 1.0) <= 0.10
        and r_unc <= 0.70
        and abs(r_neg - 1.0) <= 0.10
        and elapsed_ok(t0, 600.0),
    )


def test_09_partition_scales_exactly_in_mu():
    t0 = time.monotonic()
    ins = InsertionSet(((0.1, 0.3, 0.9), (0.6, 0.1, 0.4)))
    mc, res = MonteCarloConfig(replicas=400, seed=61), FieldResolution(8, 4)
    _, worst, ok = checks.kpz_scaling(1.0, 0.2 + 1.3j, ins, mc, res, (0.5, 2.0, 10.0))
    report(
        "partition function scales as mu^(-sum alpha/gamma) on shared replicas",
        f"max residual {worst:.2e} (bound 1e-12)",
        ok and elapsed_ok(t0, 60.0),
    )


def test_10_partition_modular_covariance():
    t0 = time.monotonic()
    ratio, _, dev, ok = checks.modular_partition_ratio(
        2j, 1.0, 1.0, MonteCarloConfig(replicas=10_000, seed=63), FieldResolution(16, 4)
    )
    report(
        "partition function covariant under inversion of the modulus",
        f"ratio {ratio:.5f}, deviation {dev:.2f} combined SE (bound 3)",
        ok and elapsed_ok(t0, 600.0),
    )


def test_11_seiberg_bound_gating():
    t0 = time.monotonic()
    weights = (-1.5, 1.0, 2.6)
    outcomes, _, ok = checks.seiberg_gating(
        LQFTParams(gamma=1.0),          # Q = 2.5: a sum <= 0 raises, a weight >= Q vanishes
        0.3 + 1.2j,
        [
            (InsertionSet(((0.2, 0.3, a1), (0.7, 0.6, a2))),
             "raised" if a1 + a2 <= 0 else "vanished" if max(a1, a2) >= 2.5 else "estimated")
            for a1 in weights for a2 in weights
        ],
        MonteCarloConfig(replicas=200, seed=62),
        FieldResolution(6, 4),
    )
    report(
        "Seiberg bounds gate the partition function on a 3x3 weight grid",
        f"{outcomes['raised']} raised, {outcomes['vanished']} vanished with "
        f"diagnostic, {outcomes['estimated']} estimated",
        ok
        and outcomes == {"raised": 3, "vanished": 5, "estimated": 1}
        and elapsed_ok(t0, 60.0),
    )


def test_12_weyl_anomaly_response():
    t0 = time.monotonic()
    phi = build_log_conformal_factor(
        LogConformalFactor(
            coeffs={
                (1, 0): 0.3 + 0.1j,
                (-1, 0): 0.3 - 0.1j,
                (0, 2): -0.2j,
                (0, -2): 0.2j,
            },
            cutoff=3,
        ),
        0.3 + 1.2j,
    )
    q = 2.5
    log_factor = weyl_anomaly_log_factor(phi, q)
    want = (1.0 + 6.0 * q * q) / (96.0 * math.pi) * dirichlet_energy(phi)
    formula = abs(log_factor - want)
    energy_gap, quad, ok = checks.weyl_anomaly(phi, q, 3.0)
    report(
        "log partition responds to a conformal factor through its energy",
        f"formula residual {formula:.1e}, grid-energy gap {energy_gap:.1e} "
        f"(bound 1e-6), quadratic-scaling residual {quad:.1e} (bound 1e-12)",
        formula <= 1e-13 and ok and elapsed_ok(t0, 30.0),
    )


@pytest.fixture(scope="module")
def pure_gravity_table(tmp_path_factory):
    matter = MatterCFT.pure_gravity()
    params = params_from_matter(matter, mu=1.0)
    ins = template_from_matter(matter, params, points=((0.0, 0.0),))
    mc = MonteCarloConfig(replicas=1024, seed=7)
    res = FieldResolution(cutoff=8, grid_factor=4)
    cache = MomentCache(tmp_path_factory.mktemp("moments"))
    t0 = time.monotonic()
    table = build_density_table(
        matter, params, ins, mc, res, re_cells=12, im_cells=12, t_max=12.0, cache=cache
    )
    return {
        "matter": matter,
        "params": params,
        "ins": ins,
        "mc": mc,
        "res": res,
        "cache": cache,
        "table": table,
        "build_seconds": time.monotonic() - t0,
    }


def test_13_pure_gravity_volume_law(pure_gravity_table):
    t0 = time.monotonic()
    st = pure_gravity_table
    n = 10_000
    samples = list(
        joint_law_sampler(
            st["matter"], st["params"], st["ins"], st["table"], n, RngStream(11, 0)
        )
    )
    vols = np.array([s.volume for s in samples])
    ims = np.array([s.tau.imag for s in samples])
    ks = stats.kstest(vols, "expon")
    corr = float(np.corrcoef(vols, ims)[0, 1])
    bound = 3.0 / math.sqrt(n)
    report(
        "pure-gravity volume is a unit exponential independent of the modulus",
        f"KS p = {ks.pvalue:.3f} (reject below 0.01), |corr| = {abs(corr):.4f} "
        f"(bound {bound:.4f})",
        ks.pvalue >= 0.01
        and abs(corr) <= bound
        and st["build_seconds"] + (time.monotonic() - t0) < 900.0,
    )


def test_14_modulus_density_reduction(pure_gravity_table):
    t0 = time.monotonic()
    st = pure_gravity_table
    tab = st["table"]
    ratios, ses = [], []
    for i, re in enumerate(tab.re_centers):
        for j, im in enumerate(tab.im_centers):
            if tab.density[i, j] > 0:
                f = math.sqrt(im) * abs(dedekind_eta(complex(re, im))) ** 2
                ratios.append(tab.density[i, j] / f)
                ses.append(tab.std_error[i, j] / f)
    ratios = np.asarray(ratios)
    ses = np.asarray(ses)
    mean = float(np.sum(ratios / ses**2) / np.sum(1.0 / ses**2))
    se_mean = 1.0 / math.sqrt(float(np.sum(1.0 / ses**2)))
    worst = float(np.max(np.abs(ratios - mean) / np.hypot(ses, se_mean)))
    # fundamental-domain boundary identifications: left/right edge under
    # the translation, arc under the inversion
    arc = complex(math.cos(1.75), math.sin(1.75))
    worst_pair = 0.0
    for ta, tb in ((-0.5 + 1.2j, 0.5 + 1.2j), (arc, -arc.conjugate())):
        da, sa = modulus_density(
            st["matter"], st["params"], st["ins"], ta, st["mc"], st["res"], st["cache"]
        )
        db, sb = modulus_density(
            st["matter"], st["params"], st["ins"], tb, st["mc"], st["res"], st["cache"]
        )
        worst_pair = max(worst_pair, abs(da - db) / math.hypot(sa, sb))
    report(
        "modulus density reduces to a constant times sqrt(Im)|eta|^2",
        f"constancy deviation {worst:.2f} SE over {len(ratios)} cells, "
        f"boundary-pair deviation {worst_pair:.2f} SE (bound 3)",
        worst <= 3.0 and worst_pair <= 3.0 and elapsed_ok(t0, 300.0),
    )


def _strip_durations(text: str) -> str:
    return "\n".join(
        ln for ln in text.splitlines() if "duration_s" not in ln
    )


def test_15_cli_reruns_are_bit_identical(tmp_path, capsys):
    t0 = time.monotonic()
    out = tmp_path / "masses.csv"
    argv = [
        "gmc", "sample", "--tau", "0,1", "--replicas", "16", "--seed", "2",
        "--cutoff", "8", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    first_csv = out.read_text()
    assert cli.main(argv) == 0
    second_csv = out.read_text()
    json_argv = ["special-fn", "eval", "--fn", "eta", "--tau", "0.3,1.2"]
    assert cli.main(json_argv) == 0
    first_json = capsys.readouterr().out
    assert cli.main(json_argv) == 0
    second_json = capsys.readouterr().out
    same_csv = _strip_durations(first_csv) == _strip_durations(second_csv)
    same_json = _strip_durations(first_json) == _strip_durations(second_json)
    with capsys.disabled():
        report(
            "rerunning a seeded command reproduces its output bit for bit",
            f"CSV identical: {same_csv}, JSON identical: {same_json} "
            "(duration line excluded)",
            same_csv and same_json and elapsed_ok(t0, 60.0),
        )
