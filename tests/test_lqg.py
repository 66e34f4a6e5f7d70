"""Matter coupling, modulus density table, and the joint law sampler."""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.interpolate import RegularGridInterpolator

from torus_lqg import cache as cache_module
from torus_lqg.cache import MomentCache, moment_key
from torus_lqg.config import FieldResolution, MonteCarloConfig
from torus_lqg.errors import (
    InvalidCentralCharge,
    NoAdmissibleRoot,
    SeibergViolationLocal,
    TruncationTooTight,
    ValidationError,
)
from torus_lqg.gff import MODES, MODULUS, RESAMPLE, VOLUME, RngStream, free_field_partition
from torus_lqg.lqft import InsertionSet, LQFTParams, conformal_weight, insertion_mass_samples
from torus_lqg.lqft import liouville_field_law_sampler
from torus_lqg.lqg import (
    _RESAMPLE_BATCH,
    DensityTable,
    MatterCFT,
    alpha_from_matter_weight,
    build_density_table,
    gamma_from_central_charge,
    ghost_partition,
    joint_law_sampler,
    matter_partition,
    modulus_density,
    negative_moment,
    params_from_matter,
    sample_modulus,
    template_from_matter,
)
from torus_lqg.modular import S, T

TAU = 0.3 + 1.2j

GAMMA_PURE = 1.6329931618554523          # sqrt(8/3)
GAMMA_ISING = 1.7320508075688772         # sqrt(3)
Z_GHOST_AT_I = 0.1741504912107096073980308
Z_ISING_AT_I = 1.896313896189268591118344

SEED = 6
MC = MonteCarloConfig(replicas=64, seed=SEED)
RES = FieldResolution(cutoff=8, grid_factor=4)


def pure_setup(mu=1.0):
    matter = MatterCFT.pure_gravity()
    params = params_from_matter(matter, mu=mu)
    ins = template_from_matter(matter, params, points=((0.0, 0.0),))
    return matter, params, ins


def test_gamma_from_central_charge():
    assert abs(gamma_from_central_charge(0.0) - GAMMA_PURE) < 1e-14
    assert abs(gamma_from_central_charge(0.5) - GAMMA_ISING) < 1e-14
    assert abs(gamma_from_central_charge(1.0) - 2.0) < 1e-14
    with pytest.raises(InvalidCentralCharge):
        gamma_from_central_charge(1.5)


def test_central_charge_balance():
    # total central charge zero: c_m = 25 - 6 Q^2 inverts the coupling map
    for c_m in (0.0, 0.25, 0.5, 0.9, 1.0):
        gamma = gamma_from_central_charge(c_m)
        q = 2.0 / gamma + gamma / 2.0
        assert abs((25.0 - 6.0 * q * q) - c_m) < 1e-11


def test_matter_kinds_validated():
    assert MatterCFT.pure_gravity().central_charge == 0.0
    assert MatterCFT.ising().central_charge == 0.5
    with pytest.raises(InvalidCentralCharge):
        MatterCFT("pure_gravity", 0.3)
    with pytest.raises(InvalidCentralCharge):
        MatterCFT("ising", 0.0)
    with pytest.raises(InvalidCentralCharge):
        MatterCFT.free_field_power(1.2)
    with pytest.raises(ValidationError):
        MatterCFT("conformal", 0.0)


def test_dressing_root():
    # Delta_alpha + delta = 1 with alpha the smaller quadratic root
    for q in (2.05, 2.5, 3.0):
        for delta in (0.0, 0.0625, 0.3, 0.9):
            alpha = alpha_from_matter_weight(delta, q)
            assert abs(conformal_weight(alpha, q) + delta - 1.0) < 1e-12
            assert alpha < q
    assert abs(alpha_from_matter_weight(0.0, 2.5) - 1.0) < 1e-12   # gamma at Q=2.5


def test_dressing_root_failures():
    with pytest.raises(NoAdmissibleRoot):
        alpha_from_matter_weight(-3.0, 2.5)      # negative discriminant
    with pytest.raises(NoAdmissibleRoot) as info:
        alpha_from_matter_weight(0.0, 2.0)       # c_m = 1 boundary
    assert "boundary" in str(info.value)


def test_params_and_template_from_matter():
    matter, params, ins = pure_setup()
    assert abs(params.gamma - GAMMA_PURE) < 1e-14
    assert len(ins.insertions) == 1
    assert abs(ins.insertions[0].alpha - GAMMA_PURE) < 1e-12
    two = template_from_matter(matter, params, points=((0.0, 0.0), (0.5, 0.5)))
    assert len(two.insertions) == 2
    ising = MatterCFT.ising()
    p_ising = params_from_matter(ising)
    assert abs(p_ising.gamma - GAMMA_ISING) < 1e-14
    dressed = template_from_matter(ising, p_ising, points=((0.25, 0.25),), delta_ms=(0.0625,))
    assert abs(conformal_weight(dressed.insertions[0].alpha, p_ising.q) + 0.0625 - 1.0) < 1e-12


def test_ghost_partition():
    assert abs(ghost_partition(1j) - Z_GHOST_AT_I) < 1e-13
    # exact companion identity: Z_ghost * Z_ff^2 * Im^2 = 1/2
    for tau in (1j, TAU, -0.3 + 2.4j):
        val = ghost_partition(tau) * free_field_partition(tau) ** 2 * tau.imag**2
        assert abs(val - 0.5) < 1e-13
    # Im^2 * Z_ghost is modular invariant
    for psi in (S, T):
        ptau = psi.act_on_uhp(TAU)
        a = ptau.imag**2 * ghost_partition(ptau)
        b = TAU.imag**2 * ghost_partition(TAU)
        assert abs(a - b) < 1e-12


def test_ghost_partition_decay():
    # Z_ghost ~ e^{-pi Im/3} / (2 Im) up to O(e^{-2 pi Im})
    im = 20.0
    want = math.exp(-math.pi * im / 3.0) / (2.0 * im)
    assert abs(ghost_partition(im * 1j) / want - 1.0) < 1e-12


def test_matter_partition():
    assert matter_partition(MatterCFT.pure_gravity(), TAU) == 1.0
    assert abs(matter_partition(MatterCFT.ising(), 1j) - Z_ISING_AT_I) < 1e-12
    for psi in (S, T):
        a = matter_partition(MatterCFT.ising(), psi.act_on_uhp(TAU))
        b = matter_partition(MatterCFT.ising(), TAU)
        assert abs(a - b) < 1e-8
    c = 0.7
    ff = matter_partition(MatterCFT.free_field_power(c), TAU)
    assert abs(ff - free_field_partition(TAU) ** c) < 1e-13


def test_matter_partition_of_an_array_of_moduli():
    # one array pass per q-series gives each modulus's value alone
    taus = np.array([0.3 + 1.2j, -0.45 + 0.95j, 0.1 + 4.4j, 11.5j])
    for matter in (MatterCFT.pure_gravity(), MatterCFT.ising(), MatterCFT.free_field_power(0.7)):
        values = matter_partition(matter, taus)
        for tau, value in zip(taus, values):
            want = matter_partition(matter, tau)
            assert abs(value - want) <= 1e-15 * want


def test_negative_moment_matches_mass_samples():
    matter, params, ins = pure_setup()
    p = ins.alpha_sum / params.gamma
    masses = insertion_mass_samples(params, TAU, ins, MC, RES)
    want = float(np.mean(masses ** (-p)))
    got, se = negative_moment(params, TAU, ins, MC, RES)
    assert abs(got - want) < 1e-12 * want
    assert se > 0


def test_negative_moment_gates_local_bound():
    params = LQFTParams(gamma=1.0)
    hot = InsertionSet(((0.2, 0.3, 2.6),))
    with pytest.raises(SeibergViolationLocal):
        negative_moment(params, TAU, hot, MC, RES)


def test_negative_moment_cache_roundtrip(tmp_path):
    matter, params, ins = pure_setup()
    cache = MomentCache(tmp_path)
    a = negative_moment(params, TAU, ins, MC, RES, cache=cache)
    files = list(tmp_path.iterdir())
    assert files
    b = negative_moment(params, TAU, ins, MC, RES, cache=cache)
    assert a == b
    key = moment_key(
        TAU,
        params.gamma,
        ins.insertions,
        RES.cutoff,
        RES.grid_factor,
        RES.eps_for(TAU),
        MC.replicas,
        MC.seed,
        MC.base_stream,
    )
    rec = cache.get(key)
    assert rec is not None
    assert rec["moment"] == a[0]


def test_cached_one_pair_moment_is_not_served(tmp_path):
    # older versions stored one pair's moment with a nan SE; it must not
    # stand in for the refusal pair_mean_se now gives
    matter, params, ins = pure_setup()
    two = MonteCarloConfig(replicas=2, seed=MC.seed)
    cache = MomentCache(tmp_path)
    key = moment_key(TAU, params.gamma, ins.insertions, RES.cutoff, RES.grid_factor,
                     RES.eps_for(TAU), 2, MC.seed, MC.base_stream)
    cache.put(key, {"moment": 1.0, "std_error": math.nan, "replicas": 2})
    with pytest.raises(ValidationError, match="two pairs"):
        negative_moment(params, TAU, ins, two, RES, cache=cache)


def test_cache_key_carries_sampler_version(tmp_path, monkeypatch):
    matter, params, ins = pure_setup()
    args = (TAU, params.gamma, ins.insertions, 8, 4, 0.05, 100, 0, 0)
    live = (TAU, params.gamma, ins.insertions, RES.cutoff, RES.grid_factor,
            RES.eps_for(TAU), MC.replicas, MC.seed, MC.base_stream)
    current = moment_key(*args)
    monkeypatch.setattr(cache_module, "SAMPLER_VERSION", cache_module.SAMPLER_VERSION - 1)
    old_key = moment_key(*args)
    assert old_key != current
    # a store written under the old sampler version is never served
    old_live = moment_key(*live)
    cache = MomentCache(tmp_path)
    old = negative_moment(params, TAU, ins, MC, RES, cache=cache)
    monkeypatch.undo()
    assert cache.get(moment_key(*live)) is None
    new = negative_moment(params, TAU, ins, MC, RES, cache=cache)
    # each version keeps its own record
    assert cache.get(old_live)["moment"] == old[0]
    assert cache.get(moment_key(*live))["moment"] == new[0]


def test_cache_tolerates_corruption(tmp_path):
    matter, params, ins = pure_setup()
    cache = MomentCache(tmp_path)
    a = negative_moment(params, TAU, ins, MC, RES, cache=cache)
    # neither garbage, undecodable bytes, JSON that is not an object nor an
    # object without a finite moment and standard error is trusted
    junks = (
        b"not json at all", b"[]", b"\xff\xfe", b"{}", b'{"moment": 1.0}',
        b'{"moment": "x", "std_error": 0.1}', b'{"moment": null, "std_error": 0.1}',
    )
    for junk in junks:
        for f in tmp_path.iterdir():
            f.write_bytes(junk)
        b = negative_moment(params, TAU, ins, MC, RES, cache=cache)
        assert a == b


def test_cache_concurrent_writers_lose_nothing(tmp_path):
    caches = [MomentCache(tmp_path), MomentCache(tmp_path)]

    def fill(w):
        for k in range(100):
            caches[w].put(f"{w}-{k}", {"writer": w, "k": k})

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(fill, range(2)))
    for w in range(2):
        for k in range(100):
            assert caches[1 - w].get(f"{w}-{k}") == {"writer": w, "k": k}


# one writer process: 200 puts of its own records under one shared key
_WRITER = (
    "import sys\n"
    "from torus_lqg.cache import MomentCache\n"
    "cache = MomentCache(sys.argv[1])\n"
    "for k in range(200):\n"
    "    cache.put('shared', {'writer': int(sys.argv[2]), 'k': k})\n"
)


def test_cache_two_processes_write_one_key(tmp_path):
    # the directory does not exist yet, so both processes also race to make it
    directory = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(Path(cache_module.__file__).parents[1]))
    procs = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(directory), str(w)], env=env)
        for w in range(2)
    ]
    for p in procs:
        assert p.wait(timeout=120) == 0
    record = json.loads((directory / "shared.json").read_text(encoding="utf-8"))
    # the last replace is the last put of the writer that finished last
    assert record["writer"] in (0, 1) and record["k"] == 199
    assert sorted(f.name for f in directory.iterdir()) == ["shared.json"]
    assert not list(directory.glob("*.tmp"))


def test_cache_key_sensitivity():
    matter, params, ins = pure_setup()
    pts = ins.insertions
    base = moment_key(TAU, params.gamma, pts, 8, 4, 0.05, 100, 0, 0)
    assert base != moment_key(TAU, params.gamma, pts, 8, 4, 0.05, 100, 1, 0)
    assert base != moment_key(TAU, params.gamma, pts, 9, 4, 0.05, 100, 0, 0)
    assert base != moment_key(TAU + 0.1, params.gamma, pts, 8, 4, 0.05, 100, 0, 0)
    assert base == moment_key(TAU, params.gamma, pts, 8, 4, 0.05, 100, 0, 0)


def test_modulus_density_is_mu_independent():
    matter, params1, ins = pure_setup(mu=1.0)
    _, params5, _ = pure_setup(mu=5.0)
    d1 = modulus_density(matter, params1, ins, TAU, MC, RES)
    d5 = modulus_density(matter, params5, ins, TAU, MC, RES)
    assert d1 == d5
    assert d1[0] > 0


def test_density_table_truncation_guard():
    matter, params, ins = pure_setup()
    with pytest.raises(TruncationTooTight) as info:
        build_density_table(matter, params, ins, MC, RES, re_cells=4, im_cells=4)
    assert "t_max" in str(info.value)


def test_one_row_table_reaches_t_max():
    # a single Im row spans [sqrt(3)/2, t_max]: the band above Im = 2 is
    # neither dropped from the table nor left out of the tail estimate
    matter, params, ins = pure_setup()
    tab = build_density_table(
        matter, params, ins, MC, RES, re_cells=4, im_cells=1, t_max=12.0, tail_tol=0.5
    )
    assert tab.im_edges[-1] == 12.0
    assert tab.im_edges.tolist() == [math.sqrt(3.0) / 2.0, 12.0]


def test_density_table_structure():
    matter, params, ins = pure_setup()
    tab = build_density_table(matter, params, ins, MC, RES, re_cells=12, im_cells=12, t_max=12.0)
    assert tab.tail_fraction < 1e-3
    assert tab.density.shape == (12, 12)
    assert np.all(tab.density >= 0)
    assert np.all(tab.cell_mass >= 0)
    # in-domain centers carry positive density, out-of-domain are masked
    re_c = tab.re_centers
    im_c = tab.im_centers
    for i in range(12):
        for j in range(12):
            inside = abs(complex(re_c[i], im_c[j])) >= 1.0 and abs(re_c[i]) <= 0.5
            assert (tab.density[i, j] > 0) == inside
    assert np.any(tab.density == 0.0)
    # cell mass integrates the center density against d^2 tau / Im^2
    lo, hi = tab.im_edges[:-1], tab.im_edges[1:]
    dre = tab.re_edges[1] - tab.re_edges[0]
    for i in (0, 5, 11):
        for j in (0, 4, 11):
            want = tab.density[i, j] * dre * (1.0 / lo[j] - 1.0 / hi[j])
            assert abs(tab.cell_mass[i, j] - want) < 1e-15


def test_density_table_deterministic():
    matter, params, ins = pure_setup()
    a = build_density_table(matter, params, ins, MC, RES, re_cells=6, im_cells=6, t_max=12.0)
    b = build_density_table(matter, params, ins, MC, RES, re_cells=6, im_cells=6, t_max=12.0)
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.cell_mass, b.cell_mass)
    assert a.tail_fraction == b.tail_fraction


def test_density_table_batched_matches_per_point(tmp_path):
    matter, params, ins = pure_setup()
    kw = dict(re_cells=6, im_cells=6, t_max=12.0)
    plain = build_density_table(matter, params, ins, MC, RES, **kw)
    re_c, im_c = plain.re_centers, plain.im_centers
    inside = 0
    for a in range(6):
        for b in range(6):
            if plain.density[a, b] > 0:
                inside += 1
                tau = complex(re_c[a], im_c[b])
                want, want_se = modulus_density(matter, params, ins, tau, MC, RES)
                assert abs(plain.density[a, b] - want) <= 1e-12 * want
                assert abs(plain.std_error[a, b] - want_se) <= 1e-12 * want_se
    assert inside > 0
    cache = MomentCache(tmp_path)
    cold = build_density_table(matter, params, ins, MC, RES, cache=cache, **kw)
    warm = build_density_table(matter, params, ins, MC, RES, cache=cache, **kw)
    for tab in (cold, warm):
        assert np.array_equal(tab.density, plain.density)
        assert np.array_equal(tab.std_error, plain.std_error)
        assert np.array_equal(tab.cell_mass, plain.cell_mass)


def test_warm_density_table_draws_no_replicas(tmp_path, monkeypatch):
    matter, params, ins = pure_setup()
    cache = MomentCache(tmp_path)
    kw = dict(re_cells=4, im_cells=4, t_max=12.0, cache=cache)
    cold = build_density_table(matter, params, ins, MC, RES, **kw)

    def no_draw(self, *args):
        raise AssertionError("warm table drew a replica")

    monkeypatch.setattr(RngStream, "reader", no_draw)
    warm = build_density_table(matter, params, ins, MC, RES, **kw)
    assert np.array_equal(warm.density, cold.density)


def test_sample_modulus_law():
    matter, params, ins = pure_setup()
    tab = build_density_table(matter, params, ins, MC, RES, re_cells=6, im_cells=6, t_max=12.0)
    n = 4000
    taus = sample_modulus(tab, n, RngStream(17, 0))
    assert taus.shape == (n,)
    assert np.all(np.abs(taus.real) <= 0.5 + 1e-12)
    assert np.all(np.abs(taus) >= 1.0 - 1e-12)
    again = sample_modulus(tab, n, RngStream(17, 0))
    assert np.array_equal(taus, again)
    # binned counts against cell masses, small cells merged
    counts = np.zeros_like(tab.cell_mass)
    for t in taus:
        i = np.searchsorted(tab.re_edges, t.real, side="right") - 1
        j = np.searchsorted(tab.im_edges, t.imag, side="right") - 1
        counts[min(i, 5), min(j, 5)] += 1
    probs = tab.cell_mass.ravel() / tab.total_mass
    got = counts.ravel()
    keep = probs * n >= 5
    merged_got = np.concatenate([got[keep], [got[~keep].sum()]])
    merged_want = np.concatenate([probs[keep] * n, [probs[~keep].sum() * n]])
    _, pval = stats.chisquare(merged_got, merged_want)
    assert pval >= 0.01


def test_sample_modulus_cell_of_sample_k_is_row_k():
    matter, params, ins = pure_setup()
    tab = build_density_table(matter, params, ins, MC, RES, re_cells=6, im_cells=6, t_max=12.0)
    n, stream = 300, 40
    taus = sample_modulus(tab, n, RngStream(17, stream))
    cdf = np.cumsum(tab.cell_mass.ravel() / tab.total_mass)
    cdf[-1] = 1.0
    for k, t in enumerate(taus):
        u = RngStream(17, stream + k).uniforms(1, 1, MODULUS)[0, 0]
        a, b = divmod(int(np.searchsorted(cdf, u)), 6)
        assert tab.re_edges[a] <= t.real <= tab.re_edges[a + 1]
        assert tab.im_edges[b] <= t.imag <= tab.im_edges[b + 1]


def test_sample_modulus_within_cell_law():
    # a table inside the domain, so no proposal is refused for leaving it:
    # draws in each cell follow the bilinear interpolant of the centers
    # (clamped at the table edge) times the 1/Im^2 volume factor
    matter, params, ins = pure_setup()
    re_edges = np.linspace(-0.5, 0.5, 4)
    im_edges = np.array([1.2, 1.6, 2.2, 3.0])
    density = np.array([[1.0, 4.0, 2.0], [3.0, 0.5, 5.0], [2.0, 6.0, 1.0]])
    area = np.outer(np.diff(re_edges), 1.0 / im_edges[:-1] - 1.0 / im_edges[1:])
    tab = DensityTable(matter, params, ins, re_edges, im_edges, density,
                       np.zeros_like(density), density * area, 0.0)
    re_c, im_c = tab.re_centers, tab.im_centers
    interp = RegularGridInterpolator((re_c, im_c), density)

    def target(re, im):
        pts = np.stack([np.clip(re, re_c[0], re_c[-1]), np.clip(im, im_c[0], im_c[-1])], -1)
        return interp(pts) / im**2

    # 3 x 3 sub-cells per cell; midpoint rule on a 60 x 60 grid in each
    k = 3
    re_sub = np.linspace(-0.5, 0.5, 3 * k + 1)
    im_sub = np.concatenate([np.linspace(lo, hi, k + 1)[:-1] for lo, hi in
                             zip(im_edges[:-1], im_edges[1:])] + [im_edges[-1:]])
    mid = (np.arange(60) + 0.5) / 60
    want = np.empty((3 * k, 3 * k))
    for i in range(3 * k):
        for j in range(3 * k):
            re = re_sub[i] + mid * (re_sub[i + 1] - re_sub[i])
            im = im_sub[j] + mid * (im_sub[j + 1] - im_sub[j])
            r, m = np.meshgrid(re, im, indexing="ij")
            want[i, j] = target(r, m).mean() * (re_sub[i + 1] - re_sub[i]) * (im_sub[j + 1] - im_sub[j])
    n = 20000
    taus = sample_modulus(tab, n, RngStream(31, 0))
    got, _, _ = np.histogram2d(taus.real, taus.imag, bins=(re_sub, im_sub))
    # compare within each cell, given the cell's own count
    got = got.reshape(3, k, 3, k).transpose(0, 2, 1, 3).reshape(9, k * k)
    want = want.reshape(3, k, 3, k).transpose(0, 2, 1, 3).reshape(9, k * k)
    want = want / want.sum(axis=1, keepdims=True) * got.sum(axis=1, keepdims=True)
    _, pval = stats.chisquare(got.ravel(), want.ravel(), ddof=8)
    assert pval >= 0.01


def test_joint_sampler():
    matter, params, ins = pure_setup(mu=2.0)
    tab = build_density_table(matter, params, ins, MC, RES, re_cells=6, im_cells=6, t_max=12.0)
    n = 2000
    samples = list(joint_law_sampler(matter, params, ins, tab, n, RngStream(23, 0)))
    assert len(samples) == n
    vols = np.array([s.volume for s in samples])
    ims = np.array([s.tau.imag for s in samples])
    assert np.all(vols > 0)
    assert all(s.measure is None for s in samples)
    # pure gravity: volume ~ Exponential(mu), independent of the modulus
    se = np.std(vols) / math.sqrt(n)
    assert abs(np.mean(vols) - 0.5) < 4.0 * se
    corr = np.corrcoef(vols, ims)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(n)


def test_joint_draws_share_no_density_table_row(monkeypatch):
    # lqg sample-joint draws its moduli and volumes from RngStream(seed, 1);
    # the table it samples from draws its replicas under the same seed
    # (distinct purposes share no value: test_purposes_share_no_value)
    matter, params, ins = pure_setup()
    keys = {"table": set(), "joint": set()}
    phase = "table"
    reader = RngStream.reader

    def spy(self, width, purpose=MODES):
        keys[phase].add((self.seed, purpose))
        return reader(self, width, purpose)

    monkeypatch.setattr(RngStream, "reader", spy)
    tab = build_density_table(matter, params, ins, MC, RES, re_cells=4, im_cells=4, t_max=12.0)
    phase = "joint"
    n = 50
    samples = list(joint_law_sampler(matter, params, ins, tab, n, RngStream(SEED, 1)))
    monkeypatch.undo()
    assert keys == {"table": {(SEED, MODES)}, "joint": {(SEED, MODULUS), (SEED, VOLUME)}}
    assert len(samples) == n


def test_joint_sampler_with_measure():
    matter, params, ins = pure_setup()
    tab = build_density_table(matter, params, ins, MC, RES, re_cells=4, im_cells=4, t_max=12.0)
    samples = list(
        joint_law_sampler(matter, params, ins, tab, 3, RngStream(29, 0), res=FieldResolution(cutoff=6, grid_factor=4))
    )
    for s in samples:
        assert s.measure is not None
        assert abs(float(np.sum(s.measure)) - s.volume) < 1e-10 * s.volume


@pytest.mark.parametrize(
    "res, count",
    # at G = 28 the 8 candidates are one batch; at G = 132 they are four
    # batches of one pair, so the cells of all but the last are kept as copies
    [(FieldResolution(cutoff=6, grid_factor=4), 4), (FieldResolution(cutoff=32), 2)],
)
def test_joint_sampler_measure_is_the_picked_candidates(res, count):
    matter, params, ins = pure_setup()
    tab = build_density_table(matter, params, ins, MC, RES, re_cells=4, im_cells=4, t_max=12.0)
    rng = RngStream(29, 3)
    samples = list(joint_law_sampler(matter, params, ins, tab, count, rng, res=res))
    u = rng.uniforms(count, 2, VOLUME)
    pairs = _RESAMPLE_BATCH // 2
    for k, s in enumerate(samples):
        sub = MonteCarloConfig(_RESAMPLE_BATCH, rng.seed, (rng.stream + k) * pairs)
        candidates = list(
            liouville_field_law_sampler(params, s.tau, ins, sub, res, s.volume, RESAMPLE)
        )
        cdf = np.cumsum([c.weight for c in candidates])
        pick = min(int(np.searchsorted(cdf, u[k, 1] * cdf[-1], side="right")), len(cdf) - 1)
        assert s.measure.tobytes() == candidates[pick].measure.tobytes()
