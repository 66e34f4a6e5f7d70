"""Gaussian free field on the torus, sampled in the frequency domain.

A field with cutoff N keeps the Fourier box |n|, |m| <= N and stores the
already-scaled coefficients of

    X(x) = sum_k  coeffs[k] * exp(2*pi*i*(n*x1 + m*x2)),

Hermitian-symmetric with zero mean mode, so X is real.  For the GFF the
coefficient of mode k is alpha_k * sqrt(c_k(tau)) with c_k the Green
spectral weights and alpha complex standard normal on a half lattice.

Circle averages act diagonally: averaging over the metric circle of
radius eps multiplies mode (n, m) by J0(2*pi*eps*|n*tau - m|/Im(tau)).
The exact variance of the averaged, truncated field is then a plain
coefficient sum, which the chaos normalization downstream relies on.  A
chaos weight takes it from the rows of the J0 pass that made its own mode
weights (scaled_mode_weights), so the weights and the variance that
normalizes them come from one box.

regularized_variance evaluates that sum without the box, row by row, by
one rule at every cutoff; truncated_covariance at x = 0, the box summed
term by term, is its oracle.  Row n of the box is f(m) = (Im tau/2pi)
J0(a sqrt(u))^2/u with u = (m - n Re tau)^2 + b^2, b = n Im tau and
a = 2 pi eps/Im tau:
analytic in the strip |Im m| < b, where it grows like e^(2a|Im m|).  Its
unit-step sum over |m| <= N is then a trapezoid sum T_h at a coarse step
h plus Euler-Maclaurin endpoint terms,

    sum_m f(m) = T_h + (f(-N) + f(N))/2
                 + sum_{k<=8} B_2k/(2k)! (1 - h^2k) (f^(2k-1)(N) - f^(2k-1)(-N)),

whose odd derivatives come from Taylor series of J0 built by its ODE.
The step h* = min(2 pi b/(9 pi + 2ab), 0.75/a) keeps the trapezoid's
aliasing error, about e^(-b(2pi/h - 2a)), near e^(-9pi) ~ 5e-13 of the
row's envelope, and the omitted endpoint terms, of order (a h/pi)^18,
below that; a row whose J0 stays near a zero is a small part of its
envelope, so its budget 9 pi grows by _near_zero_budget; it is rounded
down to a power of two (_em_step, the step rule of every sum below), so
rows fall into O(log N) blocks that are summed as arrays under a cap on
rows x nodes.  A coarse row has h >= 8, so b >= 36; a row whose coarse
grid would keep a quarter of the 2N + 1 points or more is a near row, as
is the n = 0 row.  A near row is a core, the integers
|m - n Re tau| < W = 64 term by term, and two tails out to -N and N by
the same identity over [lo, hi] with the endpoint terms at both ends: a
tail's inner end is W or more from the row's singularities, so W takes
the place of b in the step rule, min(2 pi W/(9 pi + 2aW), 0.75/a)
rounded down to a power of two.  Where that step is below 4 (a > 3/16)
the core is the whole row.

The same identity then runs along n.  The coarse rows of one step fall
into contiguous runs n_a..n_b, and a run's row sums R(n), analytic in n
and singular where n tau = m, at distance d = n_a Im tau/|tau| and more,
are a trapezoid sum at a row step H over real nodes plus the eight
Bernoulli terms, whose odd derivatives of R at each end come from a
degree-28 Chebyshev interpolant over the min(96, 2d) rows at that end.
H is the largest power of two at most min(2 pi d/(12 pi + 2a|tau|d),
0.5/(a|tau|), 8).  The first bound keeps the aliasing, e^(-2 pi d/H)
e^(2a|tau|d), below e^(-12 pi) and with it the omitted Bernoulli terms:
on random runs at 9 pi, the budget along m, sums were off by up to
5.5e-13, at 12 pi by 1.3e-13.  The two caps hold H below the turns of
J0^2 along n and where the Chebyshev derivatives still hold; an
interpolant reaching farther than 2d from its end is spoiled by the
singularities.  A run with H < 4, or shorter than 384 rows, is summed
row by row: at cutoff 4000 the 3,858 rows of the largest run take 542
row sums.

Every random draw is a row addressed by (seed, purpose, row): the Philox
key is (seed, purpose) and the counter is the row times the row's width
in blocks, so row r holds the same numbers alone or inside any batch and
no two purposes (modes, resample, volume, modulus) share a stream.
RngStream.reader is the one draw path: it reads consecutive rows under one
Philox, so the replica engine reads the batches of a call from one reader,
and RngStream.uniforms is one read; even the modulus sampler's rejection
rounds draw their proposals as rows.

Monte Carlo estimators draw their replicas through one batched engine,
replica_grids, in antithetic pairs (Hammersley & Morton 1956).  The field
is linear in its modes, so X(-alpha) = -X(alpha) is a second, exactly
distributed replica: replica r is (-1)^r times the field of row
base_stream + r // 2 of the mode draw, which writes the real degrees of
freedom of the half lattice straight into the Hermitian half-spectrum.
One call draws the rows of a batch's even replicas, and the engine
synthesizes and yields those even grids only: the odd replica of a pair
is the negated even grid, with no draw, no synthesis and no storage of
its own, and its consumers form what they need of it from the even one.
A batch holds as many whole pairs as fit in 2^16 grid cells, and at
least one, so its memory is bounded independently of the replica count:
50 replicas (25 grids) at G = 36, one pair at G = 260; an odd replica
count ends on a lone even replica.  Several weight boxes applied to the
same batch give common random numbers across moduli.  Pairs are
correlated, so standard errors come from pair means (pair_mean_se).

The engine allocates its workspaces once per call, one slot per pair of
a batch: a complex column spectrum (P, G, N+1) and a real output stack
(P, G, G) of even grids; the real row basis (2(N+1), G) is built once per
(N, G) and shared read-only by every call.
modes_to_grid, the one synthesis routine, fills the stack for each
weight box: alpha * w goes straight into the live rows n mod G of the
N+1 columns m = 0..N and the inverse FFT runs along n in place.  Only
those N+1 of the G//2 + 1 inputs of an inverse real FFT along m are
nonzero, so that stage is one real matrix product instead (FFT pruning,
Markel 1971, taken to its end): the float view (P, G, 2(N+1)) of the
columns times the basis whose rows are a_m cos(2 pi m j/G) and -a_m
sin(2 pi m j/G), a_0 = 1, a_m = 2.  The grids agree with irfft2 to
rounding, about 1e-15 of their largest value, and an engine grid is byte
for byte the modes_to_grid of its row drawn alone, since both multiply
the same (G, 2(N+1)) blocks by the same basis.  A multi-threaded BLAS may
split that product differently at another thread count, so bit identity
holds at a fixed one.  The engine yields one flat (start, k, stack) per
batch and weight box k; a stack is a view into the output workspace,
valid until the next one is yielded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import j0, j1, ndtri, y0

from .config import MonteCarloConfig
from .errors import IndexOutOfCutoff, ValidationError
from .modular import reduce_to_fundamental, require_tau
from .special import dedekind_eta

__all__ = [
    "MODES", "RESAMPLE", "VOLUME", "MODULUS",
    "RngStream",
    "SpectralField",
    "sample_gff",
    "scaled_mode_weights",
    "draw_modes",
    "modes_to_grid",
    "replica_grids",
    "pair_mean_se",
    "evaluate_on_grid",
    "circle_average",
    "bessel_multiplier",
    "regularized_variance",
    "truncated_covariance",
    "free_field_partition",
    "LogConformalFactor",
    "build_log_conformal_factor",
    "dirichlet_energy",
    "dirichlet_energy_grid",
]


# grid cells per replica batch: bounds the engine's working set
_BATCH_CELLS = 1 << 16
# rows x nodes per chunk of a variance or covariance sum: bounds its working set
_VARIANCE_CELLS = 1 << 18
# coarse-row step rule: trapezoid aliasing below e^-L, and h <= c / a
_EM_ALIAS = 9.0 * math.pi
_EM_OSCILLATION = 0.75
# Bernoulli numbers B_2 .. B_16: the Euler-Maclaurin endpoint terms, K = 8
_EM_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
# row-step rule along n (_run_total): aliasing below e^-L, H <= c/(a|tau|)
# and H <= 8; a run with H < 4 or fewer rows is summed row by row; the end
# derivatives come from a Chebyshev interpolant of this degree over at most
# this many rows at each end
_RUN_ALIAS = 12.0 * math.pi
_RUN_OSCILLATION = 0.5
_RUN_STEP = 8.0
_RUN_MIN_STEP = 4.0
_RUN_MIN_ROWS = 384
_RUN_END_WIDTH = 96.0
_RUN_END_DEGREE = 28
# near rows (the n = 0 row and the rows _coarse_steps leaves brute): the core
# |m - n Re tau| < W term by term, the tails by the coarse rule; a tail step
# below the minimum keeps the whole row term by term
_NEAR_WIDTH = 64
_NEAR_MIN_STEP = 4.0


MODES, RESAMPLE, VOLUME, MODULUS = range(4)  # purposes: second word of the Philox key


@dataclass(frozen=True)
class RngStream:
    """Rows keyed by (seed, purpose) from row stream; a block is 4 words."""

    seed: int
    stream: int = 0

    def reader(self, width: int, purpose: int = MODES):
        """The one draw path: a function read(rows) that returns the
        (rows, width) uniforms of the next rows from row stream on, each call
        going on where the last one ended, under one Philox.

        A row is whole 4-word blocks, so random_raw leaves nothing buffered
        and rows read in any split are the rows read at once.  A word's top
        52 bits k give (k + 1/2) 2^-52 in (0, 1): k is set as the mantissa of
        1 + k 2^-52 in place, and subtracting 1 - 2^-53 from that is exact
        (Sterbenz), so u is a view into the words, contiguous when width is a
        multiple of 4.
        """
        blocks = -(-width // 4)
        key = np.array([self.seed % 2**64, purpose], dtype=np.uint64)
        philox = np.random.Philox(key=key, counter=self.stream * blocks % 2**256)

        def read(rows: int) -> np.ndarray:
            raw = philox.random_raw(rows * 4 * blocks).reshape(rows, 4 * blocks)
            raw >>= np.uint64(12)
            raw |= np.uint64(0x3FF0000000000000)
            u = raw.view(np.float64)[:, :width]
            u -= 1.0 - 2.0**-53
            return u

        return read

    def uniforms(self, rows: int, width: int, purpose: int = MODES) -> np.ndarray:
        """(rows, width) uniforms of rows stream .. stream + rows - 1, one read."""
        return self.reader(width, purpose)(rows)


@dataclass(frozen=True)
class SpectralField:
    """Truncated real field given by Fourier coefficients on a (2N+1)^2 box.

    coeffs[N + n, N + m] multiplies exp(2*pi*i*(n*x1 + m*x2)); the center
    entry is zero and coeffs[-k] = conj(coeffs[k]).  eps records the
    radius of the circle average already applied (0 = none).
    """

    tau: complex
    cutoff: int
    coeffs: np.ndarray = field(repr=False)
    eps: float = 0.0

    def __post_init__(self):
        n = 2 * self.cutoff + 1
        if self.coeffs.shape != (n, n):
            raise ValidationError(
                f"coefficient array must be {n}x{n}, got {self.coeffs.shape}"
            )

    def mode(self, n: int, m: int) -> complex:
        N = self.cutoff
        if abs(n) > N or abs(m) > N:
            raise IndexOutOfCutoff(f"mode ({n}, {m}) outside cutoff {N}")
        return complex(self.coeffs[N + n, N + m])


def _mode_grid(cutoff: int):
    idx = np.arange(-cutoff, cutoff + 1)
    return np.meshgrid(idx, idx, indexing="ij")


def _mode_moduli(tau, cutoff: int) -> np.ndarray:
    """|n*tau - m| on the box, rows n and columns m, along leading axes
    for an array of moduli."""
    idx = np.arange(-cutoff, cutoff + 1)
    return np.abs(idx[:, None] * np.asarray(tau, dtype=complex)[..., None, None] - idx)


def _spectral_box(tau, cutoff: int, k) -> np.ndarray:
    """c_{n,m}(tau) on the box, zero at the origin mode; k is
    _mode_moduli(tau, cutoff)."""
    k2 = k**2
    k2[..., cutoff, cutoff] = 1.0
    c = _per_modulus(np.imag(tau)) / (2.0 * np.pi * k2)
    c[..., cutoff, cutoff] = 0.0
    return c


def _per_modulus(v) -> np.ndarray:
    """A scalar, or one value per modulus, broadcast against (2N+1)^2 boxes."""
    return np.asarray(v, dtype=float)[..., None, None]


def scaled_mode_weights(tau, cutoff: int, eps=0.0):
    """(weights, variance): the sqrt(c_k) mode weights times the
    circle-average multiplier J0 (exactly 1 at eps = 0) of one modulus, or
    (K, 2N+1, 2N+1) for an array of K moduli with eps a scalar or one per
    modulus, and the variance sum of c_k J0^2 at each modulus: one
    |n*tau - m| box and one J0 pass for all of them.

    The variance is the rows of that box, the n = 0 row and then twice the
    rows n = 1..N; regularized_variance is the same sum without the box.
    """
    k = _mode_moduli(tau, cutoff)
    c = _spectral_box(tau, cutoff, k)
    mult = bessel_multiplier(tau, cutoff, eps, k)
    w = np.sqrt(c) * mult
    N = cutoff
    cj = c * mult**2
    row0 = np.concatenate((cj[..., N, :N], cj[..., N, N + 1 :]), axis=-1).sum(axis=-1)
    rows = cj[..., N + 1 :, :].reshape(cj.shape[:-2] + (-1,)).sum(axis=-1)
    var = row0 + 2.0 * rows
    return w, (float(var) if np.ndim(var) == 0 else var)


def draw_modes(rng: RngStream, rows: int, cutoff: int, purpose: int = MODES) -> np.ndarray:
    """Unit complex normal modes of rows rng.stream .. + rows - 1 on the
    half-spectrum m >= 0 of the box, shape (rows, 2N+1, N+1)."""
    return _unit_modes(rng.uniforms(rows, (2 * cutoff + 1) ** 2 - 1, purpose), cutoff)


def _unit_modes(u: np.ndarray, N: int) -> np.ndarray:
    """The half-spectra of rows of (2N+1)^2 - 1 uniforms, overwritten.

    A row's uniforms become N(0, 1/2) real degrees of freedom by ndtri,
    paired (re, im) into the columns m = 1..N, then the modes n = 1..N of
    column 0, mirrored as conjugates to n < 0; the mean mode is 0.
    """
    rows = len(u)
    ndtri(u, out=u)
    u *= math.sqrt(0.5)
    z = u.view(complex)
    half = np.empty((rows, 2 * N + 1, N + 1), dtype=complex)
    half[:, :, 1:] = z[:, : (2 * N + 1) * N].reshape(rows, 2 * N + 1, N)
    half[:, N + 1 :, 0] = z[:, (2 * N + 1) * N :]
    half[:, N, 0] = 0.0
    np.conj(half[:, N + 1 :, 0], out=half[:, N - 1 :: -1, 0])
    return half


def sample_gff(tau: complex, cutoff: int, rng: RngStream) -> SpectralField:
    """One sample of the truncated GFF at modulus tau: row rng.stream of the
    mode draw under seed rng.seed, mirrored to the full box.  That is
    replica 2 * rng.stream of replica_grids under the same seed; replica
    2 * rng.stream + 1 is its negation."""
    tau = require_tau(complex(tau))
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    half = draw_modes(rng, 1, cutoff)[0] * scaled_mode_weights(tau, cutoff)[0][:, cutoff:]
    coeffs = np.concatenate([np.conj(half[::-1, :0:-1]), half], axis=1)
    return SpectralField(tau=tau, cutoff=cutoff, coeffs=coeffs)


@functools.lru_cache(maxsize=16)
def _row_basis(cutoff: int, grid: int) -> np.ndarray:
    """(2(N+1), G) real row basis of the synthesis along m: rows 2m and
    2m + 1 are a_m cos(2 pi m j/G) and -a_m sin(2 pi m j/G), a_0 = 1 and
    a_m = 2, with the angle reduced as (m j mod G).  The -sin row of m = 0
    is zero, so the imaginary part at m = 0 drops out, as in irfft.  Built
    once per (N, G) and shared, so it is read-only."""
    m = np.arange(cutoff + 1)[:, None]
    angle = (2.0 * np.pi / grid) * (m * np.arange(grid) % grid)
    rows = np.stack([np.cos(angle), -np.sin(angle)], axis=1)
    basis = (np.where(m == 0, 1.0, 2.0)[:, :, None] * rows).reshape(2 * (cutoff + 1), grid)
    basis.flags.writeable = False
    return basis


def modes_to_grid(half, grid: int, weight=None, spec=None, out=None) -> np.ndarray:
    """Real grids at x = (i/G, j/G) of the half-spectra half, times weight if given.

    half is the columns m >= 0 of centered Hermitian (2N+1)^2 boxes, shape
    (2N+1, N+1) or a stack of them along leading axes; weight, if given, is
    one (2N+1, N+1) box applied to all of them.  spec, a (..., G, N+1)
    complex workspace, and out, the (..., G, G) real result, are made when
    not given.  Box row n goes to slot n mod G and rows N+1 .. G-N-1 are
    re-zeroed, since a previous transform wrote them; the inverse FFT runs
    along n in place, then the float view (..., G, 2(N+1)) of the columns
    times the _row_basis of (N, G) is the sum along m (see the module
    docstring).
    """
    N = half.shape[-1] - 1
    if grid <= 2 * N:
        raise ValidationError(f"grid {grid} too coarse for cutoff {N}")
    if spec is None:
        spec = np.empty(half.shape[:-2] + (grid, N + 1), dtype=complex)
    if weight is None:
        np.copyto(spec[..., : N + 1, :], half[..., N:, :])
        np.copyto(spec[..., grid - N :, :], half[..., :N, :])
    else:
        np.multiply(half[..., N:, :], weight[N:], out=spec[..., : N + 1, :])
        np.multiply(half[..., :N, :], weight[:N], out=spec[..., grid - N :, :])
    spec[..., N + 1 : grid - N, :] = 0.0
    np.fft.ifft(spec, axis=-2, norm="forward", out=spec)
    return np.matmul(spec.view(float), _row_basis(N, grid), out=out)


def replica_grids(weights, grid: int, mc: MonteCarloConfig, purpose: int = MODES):
    """Batched replica engine: real fields of mc.replicas replicas on a G x G grid.

    Yields (start, k, gx) per batch of replicas start .. start + B - 1 and
    weight box k = 0, 1, ... of weights, in that order.  Replica r is
    (-1)^r times the field of row mc.base_stream + r // 2 of draw_modes
    under (mc.seed, purpose): one read of the call's one RngStream.reader
    draws the batch's P = ceil(B/2) rows, and each weight box is
    synthesized once per pair.  gx is the (P, G, G) stack of the even grids
    only, byte for byte modes_to_grid(alpha * w) of their rows drawn alone;
    the odd grid 2j + 1 is the negation of grid j of the stack and is
    never stored.  B = min(2P, mc.replicas - start).  One draw serves every
    modulus (common random numbers).

    Every stack is a view into one output workspace that the next stack
    overwrites: it is valid until the next stack is yielded, so copy it
    to keep it longer.
    """
    N = weights[0].shape[0] // 2
    batch = min(mc.replicas, 2 * max(1, _BATCH_CELLS // (2 * grid * grid)))
    # the workspaces of the call, one slot per pair: a column spectrum and an
    # even grid
    pairs = (batch + 1) // 2
    spec = np.empty((pairs, grid, N + 1), dtype=complex)
    out = np.empty((pairs, grid, grid))
    # batches after the first hold a whole number of pairs, so their rows
    # follow on: one reader serves the call
    read = RngStream(mc.seed, mc.base_stream).reader((2 * N + 1) ** 2 - 1, purpose)
    for start in range(0, mc.replicas, batch):
        p = (min(batch, mc.replicas - start) + 1) // 2
        alpha = _unit_modes(read(p), N)
        for k, w in enumerate(weights):
            yield start, k, modes_to_grid(alpha, grid, w[:, N:], spec[:p], out[:p])


def pair_mean_se(values) -> tuple[float, float]:
    """(mean, SE) of a replica array whose replicas 2j and 2j + 1 are a pair.

    The mean is the plain mean of all R values.  The SE is the cluster
    estimator over pairs, sqrt(C/(C-1)) sqrt(sum_c (S_c - n_c m)^2) / R for
    C clusters of sums S_c and sizes n_c about the mean m, the last replica
    of an odd R being a cluster of one; for even R it is the standard error
    of the R/2 pair means.  Deviations whose squares sum below the smallest
    normal float are squared over the largest one, so tiny values keep a
    positive SE.  Raises ValidationError below two clusters (R < 3).
    """
    values = np.asarray(values, dtype=float)
    R = len(values)
    if R < 3:
        raise ValidationError(
            f"a standard error needs at least two pairs, 3 replicas; got {R}"
        )
    mean = float(np.mean(values))
    firsts = np.arange(0, R, 2)
    dev = np.add.reduceat(values, firsts) - np.minimum(2, R - firsts) * mean
    C = len(firsts)
    squares, scale = float(np.dot(dev, dev)), 1.0
    if squares < np.finfo(float).tiny:
        scale = float(np.max(np.abs(dev))) or 1.0
        squares = float(np.dot(dev / scale, dev / scale))
    return mean, math.sqrt(C / (C - 1) * squares) * scale / R


def evaluate_on_grid(fld: SpectralField, grid: int | None = None) -> np.ndarray:
    """Evaluate the field at x = (i/G, j/G) via modes_to_grid.

    G defaults to 4*(cutoff+1) and must exceed 2*cutoff to keep the box
    alias-free; only the half-spectrum m >= 0 enters, which determines
    a Hermitian box.
    """
    G = 4 * (fld.cutoff + 1) if grid is None else int(grid)
    return modes_to_grid(fld.coeffs[:, fld.cutoff :], G)


def bessel_multiplier(tau, cutoff: int, eps, k=None) -> np.ndarray:
    """Circle-average mode multipliers J0(2*pi*eps*|n*tau - m|/Im(tau)),
    along leading axes for an array of moduli (eps a scalar or one per
    modulus); k, when given, is _mode_moduli(tau, cutoff)."""
    k = _mode_moduli(tau, cutoff) if k is None else k
    return j0(2.0 * np.pi * _per_modulus(eps) * k / _per_modulus(np.imag(tau)))


def circle_average(fld: SpectralField, eps: float) -> SpectralField:
    """Average the field over metric circles of radius eps (mode-wise J0)."""
    if not eps > 0:
        raise ValidationError("eps must be positive")
    if fld.eps:
        raise ValidationError("field already carries a circle average")
    mult = bessel_multiplier(fld.tau, fld.cutoff, eps)
    return replace(fld, coeffs=fld.coeffs * mult, eps=eps)


def _em_step(d, alias, r: float, c: float):
    """The step rule of every Euler-Maclaurin sum here, at distance d from
    the singularities, aliasing budget alias (each a scalar or an array)
    and J0 rate r: min(2 pi d/(alias + 2 r d), c/r), rounded down to a power
    of two."""
    wave = c / r if r else math.inf
    return 2.0 ** np.floor(np.log2(np.minimum(2.0 * np.pi * d / (alias + 2.0 * r * d), wave)))


def _endpoint_series(u0, p, a):
    """Taylor coefficients in t, index leading, of J0(a sqrt(u))^2 / u along
    u = u0 + p t + t^2, through degree 2K - 1; u0 and p are arrays over rows.

    g(u) = J0(a sqrt(u)) solves 4u g'' + 4g' + a^2 g = 0, so its coefficients
    at u0 follow from J0 and J1 by a two-term recurrence; Horner composes them
    with s = p t + t^2, then the series is squared and divided by u.
    """
    deg = 2 * len(_EM_BERNOULLI) - 1
    root = np.sqrt(u0)
    g = np.empty((deg + 1,) + u0.shape)
    g[0] = j0(a * root)
    g[1] = -0.5 * a * j1(a * root) / root
    for j in range(deg - 1):
        g[j + 2] = -(4.0 * (j + 1) ** 2 * g[j + 1] + a * a * g[j]) / (4.0 * (j + 1) * (j + 2) * u0)
    comp = np.zeros_like(g)
    for j in range(deg, -1, -1):
        comp[2:] = p * comp[1:-1] + comp[:-2]
        comp[1] = p * comp[0]
        comp[0] = g[j]
    sq = np.stack([np.sum(comp[: d + 1] * comp[d::-1], axis=0) for d in range(deg + 1)])
    q = np.empty_like(sq)
    q[0] = sq[0] / u0
    q[1] = (sq[1] - p * q[0]) / u0
    for d in range(2, deg + 1):
        q[d] = (sq[d] - p * q[d - 1] - q[d - 2]) / u0
    return q


def _coarse_row_sums(
    tau: complex, cutoff: int, eps: float, ns: np.ndarray, step: float, lo=None, hi=None
):
    """Unit-step sums over lo <= m <= hi of rows ns, integer bounds per row
    (default -N and N): the trapezoid sum at h = (hi - lo)/P, P =
    ceil(max(hi - lo)/step), plus the Euler-Maclaurin endpoint terms at both
    ends, in chunks of at most _VARIANCE_CELLS rows x nodes."""
    y = tau.imag
    a = 2.0 * np.pi * eps / y
    N = cutoff
    lo = np.broadcast_to(np.asarray(-N if lo is None else lo, dtype=float), ns.shape)
    hi = np.broadcast_to(np.asarray(N if hi is None else hi, dtype=float), ns.shape)
    panels = max(1, math.ceil(np.max(hi - lo) / step))
    h = (hi - lo) / panels
    nodes = np.arange(panels + 1)
    out = np.empty(len(ns))
    chunk = max(1, _VARIANCE_CELLS // (panels + 1))
    for start in range(0, len(ns), chunk):
        rows = slice(start, start + chunk)
        n, low, high, hn = ns[rows].astype(float), lo[rows], hi[rows], h[rows]
        shift, b2 = n * tau.real, (n * y) ** 2
        m = nodes * hn[:, None] + low[:, None]
        m[:, -1] = high
        u = (m - shift[:, None]) ** 2 + b2[:, None]
        f = j0(a * np.sqrt(u)) ** 2 / u
        ends = 0.5 * (f[:, 0] + f[:, -1])
        total = hn * (np.sum(f, axis=1) - ends) + ends
        top = _endpoint_series((high - shift) ** 2 + b2, 2.0 * (high - shift), a)
        bottom = _endpoint_series((low - shift) ** 2 + b2, 2.0 * (low - shift), a)
        for k, bern in enumerate(_EM_BERNOULLI, start=1):
            # B_2k/(2k)! f^(2k-1) = B_2k/(2k) times the series coefficient
            d = 2 * k - 1
            total += bern / (2 * k) * (1.0 - hn ** (2 * k)) * (top[d] - bottom[d])
        out[rows] = total
    return y / (2.0 * np.pi) * out


def _near_step(tau: complex, eps: float) -> float:
    """The tail step of the near rows: the _coarse_steps rule with the core
    half-width W = _NEAR_WIDTH in place of b."""
    return _em_step(_NEAR_WIDTH, _EM_ALIAS, 2.0 * np.pi * eps / tau.imag, _EM_OSCILLATION)


def _near_row_sums(tau: complex, cutoff: int, eps: float, ns: np.ndarray) -> np.ndarray:
    """Unit-step sums over |m| <= N of rows ns >= 0 (the n = 0 row without
    m = 0): the core |m - n Re tau| < W term by term, and the tails beyond
    it out to -N and N by _coarse_row_sums at _near_step, whose inner ends
    lie at distance W or more from the row's singularities.  Where that
    step is below _NEAR_MIN_STEP the core is the whole row."""
    N = cutoff
    y = tau.imag
    a = 2.0 * np.pi * eps / y
    step = _near_step(tau, eps)
    width = _NEAR_WIDTH if step >= _NEAR_MIN_STEP else math.inf
    s = ns * tau.real
    first = np.maximum(-N, np.floor(s - width) + 1.0)
    last = np.minimum(N, np.ceil(s + width) - 1.0)
    offsets = np.arange(int(np.max(last - first, initial=-1.0)) + 1)
    core = np.empty(len(ns))
    chunk = max(1, _VARIANCE_CELLS // max(1, offsets.size))
    for start in range(0, len(ns), chunk):
        rows = slice(start, start + chunk)
        m = first[rows, None] + offsets
        u = (m - s[rows, None]) ** 2 + (ns[rows, None] * y) ** 2
        live = (m <= last[rows, None]) & (u > 0)
        u[~live] = 1.0
        core[rows] = np.sum(j0(a * np.sqrt(u)) ** 2 / u, axis=1, where=live)
    out = y / (2.0 * np.pi) * core
    left, right = np.flatnonzero(first > -N), np.flatnonzero(last < N)
    if left.size + right.size:
        tails = np.concatenate((left, right))
        lo = np.concatenate((np.full(left.size, -N), np.maximum(-N, last[right] + 1.0)))
        hi = np.concatenate((np.minimum(N, first[left] - 1.0), np.full(right.size, N)))
        sums = _coarse_row_sums(tau, cutoff, eps, ns[tails], step, lo, hi)
        out += np.bincount(tails, sums, minlength=len(ns))
    return out


def _near_zero_budget(tau: complex, cutoff: int, a: float, b: np.ndarray) -> np.ndarray:
    """ln(1/(2c)) where positive, else 0, for each row n = 1..N: what the
    aliasing budget of the row must grow by when its J0^2 sits near a zero.

    The budget e^-L is relative to the row's envelope, the sum of A^2/u with
    A^2 = min(1, J0^2 + Y0^2) the squared amplitude of J0 at a sqrt(u); c is
    the row's sum over that, so e^-L/c is the error relative to the row.
    Along m - s = b tan(theta), dm/u = dtheta/b, so c is a ratio of means
    over theta, taken here by an 8-node midpoint rule.  A row whose J0
    argument, a b sec(theta), spans a period of J0^2 (pi) or more has c
    near 1/2 and keeps the plain budget; the rule is for the narrower rows.
    """
    s = np.arange(1, cutoff + 1) * tau.real
    lo, hi = np.arctan((-cutoff - s) / b), np.arctan((cutoff - s) / b)
    x0 = a * b
    narrow = np.flatnonzero(x0 / np.cos(np.maximum(-lo, hi)) - x0 < np.pi)
    out = np.zeros(cutoff)
    if narrow.size:
        t = (np.arange(8) + 0.5) / 8
        theta = lo[narrow, None] + t * (hi - lo)[narrow, None]
        x = x0[narrow, None] / np.cos(theta)
        j = j0(x) ** 2
        c = np.sum(j, axis=1) / np.sum(np.minimum(1.0, j + y0(x) ** 2), axis=1)
        out[narrow] = np.maximum(0.0, -np.log(2.0 * c))
    return out


def _coarse_steps(tau: complex, cutoff: int, eps: float) -> np.ndarray:
    """Trapezoid step of each row n = 1..N, or 0 where the row stays brute:
    _em_step at b = n Im tau, budget _EM_ALIAS plus the row's
    _near_zero_budget, rate a and c = _EM_OSCILLATION (see the module
    docstring)."""
    y = tau.imag
    a = 2.0 * np.pi * eps / y
    b = np.arange(1, cutoff + 1) * y
    step = _em_step(b, _EM_ALIAS + _near_zero_budget(tau, cutoff, a, b), a, _EM_OSCILLATION)
    panels = np.ceil(2 * cutoff / step)
    return np.where(4 * (panels + 1) < 2 * cutoff + 1, step, 0.0)


@functools.lru_cache(maxsize=1)
def _end_interpolant():
    """(t, weights): the M + 1 Chebyshev-Lobatto points t of [0, 1],
    ascending, M = _RUN_END_DEGREE, and the (K, 2, M + 1) weights on values
    at t that give the derivatives of order 1, 3, .., 2K - 1 at t = 0 and
    t = 1 of their degree-M interpolant."""
    from numpy.polynomial import chebyshev

    M = _RUN_END_DEGREE
    x = chebyshev.chebpts2(M + 1)
    to_coeffs = np.linalg.inv(chebyshev.chebvander(x, M))
    weights = np.stack([
        2.0 ** (2 * k - 1)
        * chebyshev.chebval([-1.0, 1.0], chebyshev.chebder(np.eye(M + 1), 2 * k - 1)).T
        @ to_coeffs
        for k in range(1, len(_EM_BERNOULLI) + 1)
    ])
    return 0.5 * (x + 1.0), weights


def _coarse_runs(tau: complex, cutoff: int, eps: float):
    """(run, step) for each contiguous run of rows that share a
    _coarse_steps step, in order of step."""
    steps = _coarse_steps(tau, cutoff, eps)
    rows = np.arange(1, cutoff + 1)
    for step in np.unique(steps[steps > 0]):
        block = rows[steps == step]
        for run in np.split(block, np.flatnonzero(np.diff(block) > 1) + 1):
            yield run, step


def _run_total(tau: complex, cutoff: int, eps: float, run: np.ndarray, step: float) -> float:
    """Sum of the row sums R(n) = _coarse_row_sums(tau, cutoff, eps, n, step)
    over the rows n_a..n_b of run, by the rule along n of
    regularized_variance where it holds, else row by row.

    The row step H is _em_step at d = n_a Im tau/|tau|, budget _RUN_ALIAS,
    rate a|tau| and c = _RUN_OSCILLATION, and at most _RUN_STEP.  R is
    taken at the real nodes n_a + j H', H' = (n_b - n_a)/ceil((n_b - n_a)/H),
    and its odd derivatives at each end from _end_interpolant over the
    min(_RUN_END_WIDTH, 2d) rows at that end.
    """
    first, last = int(run[0]), int(run[-1])
    ak = 2.0 * np.pi * eps * abs(tau) / tau.imag
    d = first * tau.imag / abs(tau)
    H = min(_RUN_STEP, _em_step(d, _RUN_ALIAS, ak, _RUN_OSCILLATION))
    if H < _RUN_MIN_STEP or run.size < _RUN_MIN_ROWS:
        return float(np.sum(_coarse_row_sums(tau, cutoff, eps, run, step)))
    panels = math.ceil((last - first) / H)
    h = (last - first) / panels
    width = min(_RUN_END_WIDTH, 2.0 * d)
    t, weights = _end_interpolant()
    x = width * t
    ns = np.concatenate((np.linspace(first, last, panels + 1), first + x, last - width + x))
    r = _coarse_row_sums(tau, cutoff, eps, ns, step)
    f, low, high = r[: panels + 1], r[panels + 1 : -x.size], r[-x.size :]
    ends = 0.5 * (f[0] + f[-1])
    total = h * (np.sum(f) - ends) + ends
    for k, bern in enumerate(_EM_BERNOULLI, start=1):
        jump = (weights[k - 1, 1] @ high - weights[k - 1, 0] @ low) / width ** (2 * k - 1)
        total += bern / math.factorial(2 * k) * (1.0 - h ** (2 * k)) * jump
    return float(total)


def regularized_variance(tau: complex, cutoff: int, eps: float) -> float:
    """Exact variance of the truncated circle-averaged field at any point:
    sum over the box of c_{n,m} * J0(2*pi*eps*|n*tau-m|/Im tau)^2.

    One rule at every cutoff.  The rows that _coarse_steps gives a step (a
    tail n >= n0, since the step grows with n) are summed by
    _coarse_row_sums; the n = 0 row and rows 1 .. n0 - 1 are the near rows
    of _near_row_sums, a core term by term and two tails by the same
    identity.  The coarse rows of one step fall into contiguous runs
    (_coarse_runs), and _run_total sums a run's row sums R(n) along n by the
    same identity at a row step H: below the aliasing bound at distance d
    from the singularities of R, below 0.5/(a|tau|) for the turns of J0^2
    along n, and at most 8 for the Chebyshev end derivatives (see the module
    docstring).  A run with H < 4, or shorter than _RUN_MIN_ROWS, is summed
    row by row.
    """
    tau = complex(tau)
    runs = list(_coarse_runs(tau, cutoff, eps))
    stop = cutoff + 1 - sum(run.size for run, _ in runs)
    near = _near_row_sums(tau, cutoff, eps, np.arange(stop))
    total = float(near[0]) + 2.0 * float(np.sum(near[1:]))
    for run, step in runs:
        total += 2.0 * _run_total(tau, cutoff, eps, run, step)
    return total


def truncated_covariance(tau: complex, cutoff: int, x, eps: float = 0.0) -> float:
    """E[X_eps(x) X_eps(0)] for the truncated field: the box sum of
    c * J0^2 * cos 2 pi (n x1 + m x2), at eps = 0 the spectral series of the
    Green function (green's eigen route).

    The summand is even under (n, m) -> (-n, -m), so the sum is twice that
    over the rows n > 0 and the half-row n = 0, m > 0, and it separates:
    with a_n = e^(2 pi i n x1) and b_m = e^(2 pi i m x2) it is
    2 Re sum_{n>0} a_n (C_n . b) + 2 sum_{m>0} C_{0,m} cos 2 pi m x2, one
    real matrix product with [Re b, Im b] per chunk of _VARIANCE_CELLS
    // (2N + 1) rows.
    k^2 = (n Re tau - m)^2 + (n Im tau)^2 is formed in real arithmetic and
    J0^2 applied only when eps > 0.
    """
    tau = complex(tau)
    y = tau.imag
    N = cutoff
    x1, x2 = x
    m = np.arange(-N, N + 1)
    wave = np.exp(2j * np.pi * x2 * m)
    basis = np.stack((wave.real, wave.imag), axis=1)

    def coefficients(k2):
        """Im tau/(2 pi k^2), times J0(a k)^2 when eps > 0; k2 is overwritten."""
        c = np.divide(y / (2.0 * np.pi), k2)
        if eps:
            mult = np.sqrt(k2, out=k2)
            mult *= 2.0 * np.pi * eps / y
            mult = j0(mult, out=mult)
            mult *= mult
            c *= mult
        return c

    total = coefficients(m[N + 1 :] ** 2.0) @ basis[N + 1 :, 0]
    chunk = max(1, _VARIANCE_CELLS // (2 * N + 1))
    for start in range(1, N + 1, chunk):
        n = np.arange(start, min(start + chunk, N + 1))[:, None]
        k2 = n * tau.real - m
        k2 *= k2
        k2 += (n * y) ** 2
        re, im = (coefficients(k2) @ basis).T
        phase = 2.0 * np.pi * x1 * n[:, 0]
        total += np.cos(phase) @ re - np.sin(phase) @ im
    return 2.0 * float(total)


def free_field_partition(tau):
    """Z^FF(tau) = 1 / (sqrt(Im tau) * |eta(tau)|^2); modular invariant.
    tau may be an array of moduli."""
    out = 1.0 / (np.sqrt(np.imag(tau)) * np.abs(dedekind_eta(tau)) ** 2)
    return float(out) if np.ndim(tau) == 0 else out


@dataclass(frozen=True)
class LogConformalFactor:
    """Deterministic log-conformal direction given by Fourier data at a
    reduced modulus, extended to all of the half-plane by the frequency
    relabeling that matches the modular field law."""

    coeffs: dict
    cutoff: int

    def __post_init__(self):
        for (n, m), v in self.coeffs.items():
            if n == 0 and m == 0:
                raise ValidationError("log-conformal factor has no mean mode")
            if abs(n) > self.cutoff or abs(m) > self.cutoff:
                raise IndexOutOfCutoff(f"mode ({n}, {m}) outside cutoff {self.cutoff}")
            if self.coeffs.get((-n, -m)) is None or not np.isclose(
                self.coeffs[(-n, -m)], np.conj(v)
            ):
                raise ValidationError("coefficients must be Hermitian-symmetric")


def build_log_conformal_factor(
    spec: LogConformalFactor, tau: complex
) -> SpectralField:
    """Realize the factor at an arbitrary tau as a spectral field.

    The stored data lives at the reduced modulus tau* = w(tau); stored
    mode k* lands at field index w.index_map(k*), the transpose-inverse
    relabeling of the reduction witness.  Raises IndexOutOfCutoff when the
    sheared index leaves the stored box.
    """
    tau = complex(tau)
    red = reduce_to_fundamental(tau)
    w = red.witness
    N = spec.cutoff
    coeffs = np.zeros((2 * N + 1, 2 * N + 1), dtype=complex)
    for (n_star, m_star), v in spec.coeffs.items():
        n, m = w.index_map(n_star, m_star)
        if abs(n) > N or abs(m) > N:
            raise IndexOutOfCutoff(
                f"relabeled mode ({n}, {m}) outside cutoff {N}; enlarge the spec box"
            )
        coeffs[N + n, N + m] = v
    weights = scaled_mode_weights(tau, N)[0]
    return SpectralField(tau=tau, cutoff=N, coeffs=coeffs * weights)


def dirichlet_energy(fld: SpectralField) -> float:
    """int |d^tau phi|^2_tau d(lambda_tau), from coefficients: 2*pi*sum|phi_k|^2.

    phi_k here is the unscaled coordinate coeffs[k]/sqrt(c_k), so the sum
    telescopes to sum_k |coeffs[k]|^2 * 4*pi^2*|n*tau-m|^2 / Im(tau).
    """
    N = fld.cutoff
    n, m = _mode_grid(N)
    k2 = np.abs(n * complex(fld.tau) - m) ** 2
    return float(
        np.sum(np.abs(fld.coeffs) ** 2 * 4.0 * np.pi**2 * k2) / complex(fld.tau).imag
    )


def dirichlet_energy_grid(fld: SpectralField, grid: int | None = None) -> float:
    """Same energy from real space: (1/Im tau) int |tau d1 phi - d2 phi|^2 dx.

    Spectral differentiation then quadrature on the evaluation grid; exact
    for band-limited fields up to rounding, so it cross-checks the
    coefficient route rather than approximating it.
    """
    N = fld.cutoff
    tau = complex(fld.tau)
    n, m = _mode_grid(N)
    G = 4 * (N + 1) if grid is None else int(grid)
    g1 = modes_to_grid(fld.coeffs[:, N:] * (2j * np.pi * n[:, N:]), G)
    g2 = modes_to_grid(fld.coeffs[:, N:] * (2j * np.pi * m[:, N:]), G)
    return float(np.mean(np.abs(tau * g1 - g2) ** 2) / tau.imag)

