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

Sampling is deterministic per (seed, stream): streams are independent
keys of a counter-based generator, so replica r of a run can be
regenerated in isolation.

Monte Carlo estimators draw their replicas through one batched engine,
replica_grids.  Each replica's Hermitized unit modes come from its own
stream, so a batch holds exactly the draws a per-replica loop would make.
The engine scales the stacked draws by one weight box per modulus and
synthesizes each stack with a single inverse real FFT over the
Hermitian half-spectrum.  A batch holds at most 2^16 grid cells (at
least one replica), so its memory is bounded independently of the
replica count: 50 replicas at G = 36, one at G = 260.  Several weight
boxes applied to the same batch give common random numbers across moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import j0

from .config import MonteCarloConfig
from .errors import IndexOutOfCutoff, ValidationError
from .green import spectral_coefficient
from .modular import ModularElement, reduce_to_fundamental
from .special import dedekind_eta

__all__ = [
    "RngStream",
    "SpectralField",
    "sample_gff",
    "scaled_mode_weights",
    "draw_hermitian_modes",
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


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream: a keyed counter-based generator."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream + offset)


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


def _unit_modes(gen: np.random.Generator, n: int) -> np.ndarray:
    z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / math.sqrt(2.0)
    return (z + np.conj(z[::-1, ::-1])) / math.sqrt(2.0)


def draw_hermitian_modes(gen: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """One GFF coefficient draw: unit complex normals Hermitized, then scaled."""
    return _unit_modes(gen, weights.shape[0]) * weights


def sample_gff(tau: complex, cutoff: int, rng: RngStream | np.random.Generator) -> SpectralField:
    """One sample of the truncated GFF at modulus tau.

    Draws one complex standard normal per mode and Hermitizes, which makes
    every mode pair (k, -k) jointly correct with unit per-mode variance.
    """
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValidationError(f"tau must lie in the upper half-plane, got {tau}")
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    coeffs = draw_hermitian_modes(gen, _coefficient_weights(tau, cutoff))
    return SpectralField(tau=tau, cutoff=cutoff, coeffs=coeffs)


def modes_to_grid(coeffs: np.ndarray, grid: int) -> np.ndarray:
    """Real-space values at x = (i/G, j/G) from a centered coefficient box.

    coeffs is one (2N+1)^2 box or a stack of them along leading axes; the
    whole stack goes through one inverse real FFT.  Only the Hermitian
    part of a box reaches the real field, so the half-spectrum m >= 0 of
    that part is all the transform needs.
    """
    n2 = coeffs.shape[-1]
    N = (n2 - 1) // 2
    if grid <= 2 * N:
        raise ValidationError(f"grid {grid} too coarse for cutoff {N}")
    half = 0.5 * (coeffs[..., :, N:] + np.conj(coeffs[..., ::-1, N::-1]))
    slots = np.zeros(coeffs.shape[:-2] + (grid, grid // 2 + 1), dtype=complex)
    slots[..., np.arange(-N, N + 1) % grid, : N + 1] = half
    return np.fft.irfft2(slots, s=(grid, grid), norm="forward")


def replica_grids(weights, grid: int, mc: MonteCarloConfig):
    """Batched replica engine: real fields of mc.replicas replicas on a G x G grid.

    Yields (start, generators, grids) per batch of replicas start ..
    start + B - 1.  Replica r draws its Hermitized unit modes from
    RngStream(mc.seed, mc.base_stream + r); generators holds those streams,
    positioned after the draw, for callers that continue them.  grids
    yields, lazily and in the order of weights, one (B, G, G) stack of
    modes_to_grid(alpha * w) per weight box w, so one draw serves every
    modulus (common random numbers).  Consume grids before advancing to
    the next batch.
    """
    n = weights[0].shape[0]
    batch = max(1, _BATCH_CELLS // (grid * grid))
    for start in range(0, mc.replicas, batch):
        stop = min(start + batch, mc.replicas)
        gens = [RngStream(mc.seed, mc.base_stream + r).generator() for r in range(start, stop)]
        alpha = np.stack([_unit_modes(gen, n) for gen in gens])
        yield start, gens, (modes_to_grid(alpha * w, grid) for w in weights)


def evaluate_on_grid(fld: SpectralField, grid: int | None = None) -> np.ndarray:
    """Evaluate the field at x = (i/G, j/G) via an inverse FFT.

    G defaults to 4*(cutoff+1) and must exceed 2*cutoff to keep the box
    alias-free; the imaginary residue of the transform is discarded (it
    is rounding noise for Hermitian coefficients).
    """
    G = 4 * (fld.cutoff + 1) if grid is None else int(grid)
    return modes_to_grid(fld.coeffs, G)


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


def regularized_variance(tau: complex, cutoff: int, eps: float, chunk: int = 512) -> float:
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
    for start in range(1, cutoff + 1, chunk):
        ns = np.arange(start, min(start + chunk, cutoff + 1))
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
    g1 = modes_to_grid(fld.coeffs * (2j * np.pi * n), G)
    g2 = modes_to_grid(fld.coeffs * (2j * np.pi * m), G)
    return float(np.mean(np.abs(tau * g1 - g2) ** 2) / tau.imag)

