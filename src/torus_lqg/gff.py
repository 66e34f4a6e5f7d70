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
coefficient sum, which the chaos normalization downstream relies on.

Every random draw is a row addressed by (seed, purpose, row): the Philox
key is (seed, purpose) and the counter is the row times the row's width
in blocks, so row r holds the same numbers alone or inside any batch and
no two purposes (modes, resample, volume, modulus) share a stream.
RngStream.uniforms is the one draw path; even the modulus sampler's
rejection rounds draw their proposals as rows.

Monte Carlo estimators draw their replicas through one batched engine,
replica_grids.  Replica r is row base_stream + r of the mode draw, which
writes the real degrees of freedom of the half lattice straight into the
Hermitian half-spectrum; one call draws a batch.  The engine scales it
by one weight box per modulus and synthesizes each stack with a single
inverse real FFT.  A batch holds at most 2^16 grid cells (at least one
replica), so its memory is bounded independently of the replica count:
50 replicas at G = 36, one at G = 260.  Several weight boxes applied to
the same batch give common random numbers across moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import j0, ndtri

from .config import MonteCarloConfig
from .errors import IndexOutOfCutoff, ValidationError
from .green import spectral_coefficient
from .modular import reduce_to_fundamental
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
# box rows per regularized_variance chunk: bounds its working set
_VARIANCE_ROWS = 512


MODES, RESAMPLE, VOLUME, MODULUS = range(4)  # purposes: second word of the Philox key


@dataclass(frozen=True)
class RngStream:
    """Rows keyed by (seed, purpose) from row stream; a block is 4 words."""

    seed: int
    stream: int = 0

    def uniforms(self, rows: int, width: int, purpose: int = MODES) -> np.ndarray:
        """(rows, width) uniforms of rows stream .. stream + rows - 1, one
        random_raw call: a word's top 52 bits k give (k + 1/2) 2^-52 in (0, 1).
        """
        blocks = -(-width // 4)
        key = np.array([self.seed % 2**64, purpose], dtype=np.uint64)
        philox = np.random.Philox(key=key, counter=self.stream * blocks % 2**256)
        raw = philox.random_raw(rows * 4 * blocks).reshape(rows, 4 * blocks)
        return ((raw[:, :width] >> np.uint64(12)) + 0.5) * 2.0**-52


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


def _coefficient_weights(tau: complex, cutoff: int) -> np.ndarray:
    """sqrt(c_{n,m}(tau)) on the box, zero at the origin mode."""
    n, m = _mode_grid(cutoff)
    k = n * complex(tau) - m
    k[cutoff, cutoff] = 1.0
    c = complex(tau).imag / (2.0 * np.pi * np.abs(k) ** 2)
    c[cutoff, cutoff] = 0.0
    return np.sqrt(c)


def scaled_mode_weights(tau: complex, cutoff: int, eps: float = 0.0) -> np.ndarray:
    """sqrt(c_k) mode weights, with the circle-average multiplier if eps > 0.

    Precompute once per (tau, cutoff, eps) when looping over replicas.
    """
    w = _coefficient_weights(tau, cutoff)
    if eps:
        w = w * bessel_multiplier(tau, cutoff, eps)
    return w


def draw_modes(rng: RngStream, rows: int, cutoff: int, purpose: int = MODES) -> np.ndarray:
    """Unit complex normal modes of rows rng.stream .. + rows - 1 on the
    half-spectrum m >= 0 of the box, shape (rows, 2N+1, N+1).

    A row's (2N+1)^2 - 1 uniforms become N(0, 1/2) real degrees of freedom
    by ndtri, paired (re, im) into the columns m = 1..N, then the modes
    n = 1..N of column 0, mirrored as conjugates to n < 0; the mean mode is 0.
    """
    N = cutoff
    z = (ndtri(rng.uniforms(rows, (2 * N + 1) ** 2 - 1, purpose)) * math.sqrt(0.5)).view(complex)
    half = np.zeros((rows, 2 * N + 1, N + 1), dtype=complex)
    half[:, :, 1:] = z[:, : (2 * N + 1) * N].reshape(rows, 2 * N + 1, N)
    half[:, N + 1 :, 0] = z[:, (2 * N + 1) * N :]
    half[:, N - 1 :: -1, 0] = np.conj(half[:, N + 1 :, 0])
    return half


def sample_gff(tau: complex, cutoff: int, rng: RngStream) -> SpectralField:
    """One sample of the truncated GFF at modulus tau: replica rng.stream of
    replica_grids under seed rng.seed, mirrored to the full box."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValidationError(f"tau must lie in the upper half-plane, got {tau}")
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    half = draw_modes(rng, 1, cutoff)[0] * _coefficient_weights(tau, cutoff)[:, cutoff:]
    coeffs = np.concatenate([np.conj(half[::-1, :0:-1]), half], axis=1)
    return SpectralField(tau=tau, cutoff=cutoff, coeffs=coeffs)


def modes_to_grid(half: np.ndarray, grid: int) -> np.ndarray:
    """Real-space values at x = (i/G, j/G) from the half-spectrum of a box.

    half is the columns m >= 0 of one centered Hermitian (2N+1)^2 box,
    shape (2N+1, N+1), or a stack of them along leading axes; the whole
    stack goes through one inverse real FFT.
    """
    N = half.shape[-1] - 1
    if grid <= 2 * N:
        raise ValidationError(f"grid {grid} too coarse for cutoff {N}")
    slots = np.zeros(half.shape[:-2] + (grid, grid // 2 + 1), dtype=complex)
    slots[..., np.arange(-N, N + 1) % grid, : N + 1] = half
    return np.fft.irfft2(slots, s=(grid, grid), norm="forward")


def replica_grids(weights, grid: int, mc: MonteCarloConfig, purpose: int = MODES):
    """Batched replica engine: real fields of mc.replicas replicas on a G x G grid.

    Yields (start, grids) per batch of replicas start .. start + B - 1.
    Replica r is row mc.base_stream + r of draw_modes under (mc.seed,
    purpose), and one call draws the batch.  grids yields, lazily and in
    the order of weights, one (B, G, G) stack of modes_to_grid(alpha * w)
    per weight box w, so one draw serves every modulus (common random
    numbers).  Consume grids before advancing to the next batch.
    """
    N = weights[0].shape[0] // 2
    batch = max(1, _BATCH_CELLS // (grid * grid))
    for start in range(0, mc.replicas, batch):
        rows = min(batch, mc.replicas - start)
        alpha = draw_modes(RngStream(mc.seed, mc.base_stream + start), rows, N, purpose)
        yield start, (modes_to_grid(alpha * w[:, N:], grid) for w in weights)


def evaluate_on_grid(fld: SpectralField, grid: int | None = None) -> np.ndarray:
    """Evaluate the field at x = (i/G, j/G) via an inverse FFT.

    G defaults to 4*(cutoff+1) and must exceed 2*cutoff to keep the box
    alias-free; only the half-spectrum m >= 0 enters, which determines
    a Hermitian box.
    """
    G = 4 * (fld.cutoff + 1) if grid is None else int(grid)
    return modes_to_grid(fld.coeffs[:, fld.cutoff :], G)


def bessel_multiplier(tau: complex, cutoff: int, eps: float) -> np.ndarray:
    """Circle-average mode multipliers J0(2*pi*eps*|n*tau - m|/Im(tau))."""
    n, m = _mode_grid(cutoff)
    k = np.abs(n * complex(tau) - m)
    return j0(2.0 * np.pi * eps * k / complex(tau).imag)


def circle_average(fld: SpectralField, eps: float) -> SpectralField:
    """Average the field over metric circles of radius eps (mode-wise J0)."""
    if not eps > 0:
        raise ValidationError("eps must be positive")
    if fld.eps:
        raise ValidationError("field already carries a circle average")
    mult = bessel_multiplier(fld.tau, fld.cutoff, eps)
    return replace(fld, coeffs=fld.coeffs * mult, eps=eps)


def regularized_variance(tau: complex, cutoff: int, eps: float) -> float:
    """Exact variance of the truncated circle-averaged field at any point.

    sum over the box of c_{n,m} * J0(2*pi*eps*|n*tau-m|/Im tau)^2, chunked
    over rows so cutoffs of order 10^4 stay inside memory.
    """
    tau = complex(tau)
    y = tau.imag
    m = np.arange(-cutoff, cutoff + 1)
    total = 0.0
    # n = 0 row, m != 0; then positive n rows doubled by k <-> -k symmetry
    k = np.abs(m[m != 0]).astype(float)
    total += float(np.sum(y / (2.0 * np.pi * k**2) * j0(2.0 * np.pi * eps * k / y) ** 2))
    for start in range(1, cutoff + 1, _VARIANCE_ROWS):
        ns = np.arange(start, min(start + _VARIANCE_ROWS, cutoff + 1))
        kk = np.abs(ns[:, None] * tau - m[None, :])
        c = y / (2.0 * np.pi * kk**2)
        total += 2.0 * float(np.sum(c * j0(2.0 * np.pi * eps * kk / y) ** 2))
    return total


def truncated_covariance(tau: complex, cutoff: int, x, eps: float = 0.0) -> float:
    """E[X_eps(x) X_eps(0)] for the truncated field: box sum of c * J0^2 * cos."""
    n, m = _mode_grid(cutoff)
    mask = (n != 0) | (m != 0)
    n = n[mask]
    m = m[mask]
    c = spectral_coefficient(tau, n, m)
    if eps:
        k = np.abs(n * complex(tau) - m)
        c = c * j0(2.0 * np.pi * eps * k / complex(tau).imag) ** 2
    x1, x2 = x
    return float(np.sum(c * np.cos(2.0 * np.pi * (n * x1 + m * x2))))


def free_field_partition(tau: complex) -> float:
    """Z^FF(tau) = 1 / (sqrt(Im tau) * |eta(tau)|^2); modular invariant."""
    tau = complex(tau)
    return 1.0 / (math.sqrt(tau.imag) * abs(dedekind_eta(tau)) ** 2)


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
    weights = _coefficient_weights(tau, N)
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

