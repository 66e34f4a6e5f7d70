"""Green function of the Laplacian on the flat torus (T, g_tau).

Three evaluation routes for the same function, kept deliberately
independent so they can cross-check each other:

  closed    G(x) = pi*Im(tau)*x2^2 - ln|theta1(x1 + tau*x2, tau) / eta(tau)|
  eigen     G(x) = sum_{(n,m) != 0} Im(tau) / (2*pi*|n*tau - m|^2) * e(n*x1 + m*x2)
  appendix  partially resummed form: quadratic Fourier profile in x2 plus
            exponentially convergent log corrections, one step before the
            resummation into theta1.

The closed route is one formula.  Every point is taken at its centered
representative z = x1 + tau*x2 (|Im z| <= Im(tau)/2) and reads
_regular_part(z) - ln|z|, with _regular_part = pi*Im(tau)*x2^2 + ln|eta|
- ln|theta1(z)/z| = G + ln|z|, smooth through z = 0.  ln|theta1/z| comes
in log space from special's one theta1 series, ln|eta| as -pi*Im(tau)/12
plus the log of eta's product, so G is finite however deep in the cusp.
green_centered applies it to points (green_log_subtracted and
green_regularized take _regular_part itself) and green_grid, from the
same series, to product grids, the path of every grid-shaped caller.

G integrates to zero against d(lambda_tau) = Im(tau) dx and has the
short-distance behaviour G(x) = -ln|p_tau(x)| + Theta(tau) + o(1) with
Theta(tau) = -ln(2*pi) - 2*ln|eta(tau)|.  The eigen route converges only
like 1/cutoff and reports an error estimate; it exists as an oracle, not
as a production path.  It is gff.truncated_covariance at eps = 0, the one
place the spectral series is written, imported when the route runs, so
importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NumericError, SingularPoint, ValidationError
from .modular import c_tau, p_tau, require_tau, wrap_centered, wrap_unit
from .special import _eta_product, _log_theta1_over_z, _require_tau, _term_count, _theta_count, _theta_s_terms

__all__ = [
    "GreenEvalConfig",
    "green",
    "green_centered",
    "green_grid",
    "green_log_subtracted",
    "green_mean_zero",
    "green_regularized",
    "min_lattice_distance",
    "spectral_coefficient",
    "theta_offset",
]

_SINGULAR_TOL = 1e-13
_CLOSED = 1e-12  # |p| below which green_grid takes G + ln|p| = Theta(tau) + O(|p|^2)
_CIRCLE_POINTS = 48  # trapezoid nodes per circle in green_regularized


@dataclass(frozen=True)
class GreenEvalConfig:
    """Evaluation route and budgets for green().

    mode is one of "closed", "eigen", "appendix".  eigen_cutoff bounds the
    frequency box of the eigen route; tolerance is the acceptance budget
    for the reported eigen error estimate and the truncation target of the
    appendix route.
    """

    mode: str = "closed"
    eigen_cutoff: int = 200
    tolerance: float = 1e-2

    def __post_init__(self):
        if self.mode not in ("closed", "eigen", "appendix"):
            raise ValidationError(f"unknown green mode {self.mode!r}")
        if self.eigen_cutoff < 1:
            raise ValidationError("eigen_cutoff must be positive")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError(f"tolerance must be finite and positive, got {self.tolerance}")


_DEFAULT = GreenEvalConfig()


def min_lattice_distance(tau: complex) -> float:
    """Length of the shortest nonzero vector of Z + tau*Z (lower bound)."""
    tau = complex(tau)
    horiz = math.hypot(tau.real - round(tau.real), tau.imag)
    return min(1.0, horiz, 2.0 * tau.imag)


def _log_eta(tau):
    """ln|eta(tau)| = -pi*Im(tau)/12 + ln|prod_n (1 - q^(2n))| at one modulus
    or at each of an array of moduli, in log space, so it stays finite
    however deep in the cusp tau lies."""
    t = np.atleast_1d(_require_tau(tau))
    out = np.log(np.abs(_eta_product(t))) - np.pi / 12.0 * t.imag
    return out if np.ndim(tau) else out[0]


def theta_offset(tau):
    """Theta(tau) = -ln(2*pi) - 2*ln|eta(tau)|, the short-distance constant,
    at one modulus (a float) or at each of an array of moduli."""
    out = -math.log(2.0 * math.pi) - 2.0 * _log_eta(tau)
    return float(out) if np.ndim(tau) == 0 else out


def spectral_coefficient(tau: complex, n, m):
    """Fourier coefficient c_{n,m}(tau) = Im(tau) / (2*pi*|n*tau - m|^2)."""
    tau = complex(tau)
    k = np.asarray(n) * tau - np.asarray(m)
    return tau.imag / (2.0 * np.pi * np.abs(k) ** 2)


def _check_singular(tau, x1c, x2c):
    if np.any(np.abs(p_tau(tau, x1c, x2c)) < _SINGULAR_TOL):
        raise SingularPoint(f"green function diverges at the lattice point, x=({x1c}, {x2c})")


def _regular_part(tau, z, x2):
    """pi*Im(tau)*x2^2 + ln|eta| - ln|theta1(z)/z| at z = p_tau(x1, x2): G +
    ln|z|, stable through z = 0 and deep in the cusp."""
    return np.pi * tau.imag * (x2 * x2) + _log_eta(tau) - _log_theta1_over_z(z, tau)


def green_centered(tau: complex, x1c, x2c):
    """G at centered coordinates x~ in [-1/2, 1/2)^2: _regular_part - ln|p|.
    ln|p| is a log of its own, so a subnormal |p| does not round a product.
    Lattice points are not rejected here."""
    tau = complex(tau)
    x1c, x2c = np.broadcast_arrays(np.asarray(x1c, dtype=float), np.asarray(x2c, dtype=float))
    z = p_tau(tau, x1c, x2c)
    return _regular_part(tau, z, x2c) - np.log(np.abs(z))


def green_grid(tau, x1c, x2c, cap):
    """G on the product grid (x1c[a], x2c[b]) of centered coordinates in
    [-1/2, 1/2), with -ln|p| frozen at -ln(cap) where |p| < min(cap, r),
    r a quarter of the shortest lattice vector.  tau is one modulus, or an
    array of K moduli with cap a scalar or one per modulus, and then the
    result is (K, len(x1c), len(x2c)).  cap = 0 leaves G uncapped: an
    exact lattice point then reads non-finite and raises NumericError,
    which a midpoint grid never hits.

    Every point is taken at its centered representative z = x1 + tau*x2 =
    a + ib, as in green_centered, and theta1 = 2 q^(1/4) sin(pi*z) S(z) is
    special's one series.  S's terms at w = tau*x2 (_theta_s_terms, each
    column to the _theta_count of its own |b|) meet the tau-free phases:

        S(x1 + w) = sum_j cos(2*pi*j*x1) (P_j + M_j) + sin(2*pi*j*x1) i(P_j - M_j),

    two real (len(x1c), 2n) x (2n, columns) products, whose outputs are Re
    and Im S.  With

        ln|sin(pi*z)| = pi*|b| - ln 2 + ln(L)/2,  L = 4 e^(-2*pi*|b|) sin(pi*a)^2 + expm1(-2*pi*|b|)^2,

    which cancels nowhere and overflows nowhere, G = pi*Im(tau)*(|x2| -
    1/2)^2 + ln|eta| - ln(L |S|^2)/2 at every cell down to |p| ~ 1e-150;
    _near_lattice caps the cells next to the lattice point and gives those
    closer than _CLOSED in closed form.  Every modulus takes the call's
    largest count n, its terms past its own count being zero, so one
    stacked product serves the call.  The zeros add nothing: with OpenBLAS
    a modulus reads byte for byte as alone in any block with 2n < 16
    (every Im(tau) above 0.25; the fundamental domain has counts of at
    most 4), and past that the moved sin rows may change its last bit.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=complex))
    caps = np.broadcast_to(np.asarray(cap, dtype=float), taus.shape)
    x1c, x2c = np.asarray(x1c, dtype=float), np.asarray(x2c, dtype=float)
    log_eta = _log_eta(taus)
    t, b = taus[:, None], taus.imag[:, None] * np.abs(x2c)  # b = |Im z| per column
    n_cut = _theta_count(t, b)
    n = int(n_cut.max(initial=1))
    with np.errstate(all="ignore"):
        # Re and Im of S's factors of cos(2*pi*j*x1) (rows j) and sin(2*pi*j*x1) (rows n + j)
        re, im = np.empty((taus.size, 2 * n, x2c.size)), np.empty((taus.size, 2 * n, x2c.size))
        for j, (p, m) in enumerate(_theta_s_terms(t, t * x2c, n_cut)):
            c, d = p + m, p - m  # the sin factor is i*d
            re[:, j], im[:, j], re[:, n + j], im[:, n + j] = c.real, c.imag, -d.imag, d.real
        angle = 2.0 * np.pi * np.outer(x1c, np.arange(n))
        phase = np.concatenate((np.cos(angle), np.sin(angle)), axis=1)
        out = phase @ re
        el = phase @ im
        del re, im
        out *= out
        out += np.square(el, out=el)  # |S|^2
        el[...] = (t.real * x2c)[:, None, :]
        el += x1c[:, None]  # a, as p_tau forms it
        el *= np.pi
        np.sin(el, out=el)
        el *= 2.0 * np.exp(-np.pi * b[:, None, :])
        el *= el
        el += np.expm1(-2.0 * np.pi * b[:, None, :]) ** 2  # L
        out *= el
        del el
        np.log(out, out=out)
        out *= -0.5
        out += (np.pi * t.imag * (np.abs(x2c) - 0.5) ** 2 + log_eta[:, None])[:, None, :]
        _near_lattice(out, taus, caps, log_eta, x1c, x2c)  # ln(cap = 0) is caught below
    if not np.all(np.isfinite(out)):
        raise NumericError(f"Green function grid is not finite at tau = {tau}")
    return out[0] if np.ndim(tau) == 0 else out


def _near_lattice(out, taus, caps, log_eta, x1c, x2c):
    """green_grid's points next to the lattice point, in place: + ln|p| -
    ln(cap) where |p| < min(cap, r), and Theta(tau) - ln max(|p|, cap)
    where |p| < _CLOSED, the lattice point included.  Only columns with
    |Im p| below max(cap, _CLOSED) hold such points, so r and |p| are
    formed for those alone."""
    wide = np.maximum(caps, _CLOSED)
    kc, jc = np.nonzero(taus.imag[:, None] * np.abs(x2c) < wide[:, None])
    r = np.zeros(taus.size)
    near = np.unique(kc)
    r[near] = [0.25 * min_lattice_distance(t) for t in taus[near]]
    az = np.abs(x1c + (taus[kc] * x2c[jc])[:, None])  # |p_tau|, as green_centered forms it
    p, i = np.nonzero(az < np.minimum(r, wide)[kc, None])
    k, j, az = kc[p], jc[p], az[p, i]
    closed = az < _CLOSED
    capped = ~closed & (az < np.minimum(caps[k], r[k]))
    out[k[capped], i[capped], j[capped]] += np.log(az[capped]) - np.log(caps[k[capped]])
    k, i, j, az = k[closed], i[closed], j[closed], az[closed]
    out[k, i, j] = -math.log(2.0 * math.pi) - 2.0 * log_eta[k] - np.log(np.maximum(az, caps[k]))


def _green_closed(tau: complex, x1, x2):
    """Production closed form: wraps to centered coordinates, rejects lattice points."""
    x1c, x2c = wrap_centered(x1), wrap_centered(x2)
    _check_singular(tau, x1c, x2c)
    return green_centered(tau, x1c, x2c)


def green_log_subtracted(tau: complex, x1, x2):
    """G(x) + ln|p_tau(x~)| on centered representatives x~, smooth through 0.

    Tends to Theta(tau) as x -> 0; meaningful wherever the centered
    representative is the nearest lattice translate.
    """
    tau = complex(tau)
    x1c, x2c = wrap_centered(x1), wrap_centered(x2)
    return _regular_part(tau, p_tau(tau, x1c, x2c), x2c)


def _green_eigen(tau: complex, x1: float, x2: float, cutoff: int, tolerance: float):
    # measured decay at generic points is ~1/cutoff^2; report a cautious
    # in-between power since the box sum is only conditionally convergent
    estimate = 4.0 / cutoff**1.5
    if estimate > tolerance:
        raise NonConvergence(
            f"eigen-route error estimate {estimate:.2e} exceeds tolerance {tolerance:.2e};"
            f" raise eigen_cutoff above {cutoff}"
        )
    from .gff import truncated_covariance  # the one spectral series; gff loads scipy

    return truncated_covariance(tau, cutoff, (x1, x2))


def _green_appendix(tau: complex, x1: float, x2: float, tolerance: float):
    """Resummed double series: Fourier profile in x2 plus log corrections.

    Valid for x2 in [0, 1); the m-sum terms decay like exp(-2*pi*Im(tau)*m).
    """
    tau = complex(tau)
    y = tau.imag
    x1 = float(wrap_unit(x1))
    x2 = float(wrap_unit(x2))
    z = x1 + tau * x2
    val = np.pi * y * (x2**2 - x2 + 1.0 / 6.0)
    val -= math.log(abs(1.0 - np.exp(2j * np.pi * z)))
    # factor m contributes at most 2*|q|^(2(m - x2)) to the log-error
    m_cut = _term_count("appendix m-sum", 0.0, -2.0 * math.pi * y, math.log(2.0), -x2, tolerance)
    # each factor from one exponent: q^m e^{-2 pi i z} apart is 0 * inf deep in the cusp
    tm = tau * np.arange(1, m_cut + 1)
    val -= np.sum(np.log(np.abs(1.0 - np.exp(2j * np.pi * (tm + z)))))
    val -= np.sum(np.log(np.abs(1.0 - np.exp(2j * np.pi * (tm - z)))))
    if not math.isfinite(val):
        raise NumericError(f"appendix Green series is not finite at tau = {tau}")
    return float(val)


def green(tau: complex, x, cfg: GreenEvalConfig = _DEFAULT):
    """Evaluate G_tau at torus coordinates x = (x1, x2), taken mod 1.

    The closed route accepts numpy arrays in x; the oracle routes are
    scalar.  Raises SingularPoint at lattice points and NonConvergence
    when the eigen estimate misses cfg.tolerance.
    """
    tau = require_tau(complex(tau))
    x1, x2 = x
    if cfg.mode == "closed":
        out = _green_closed(tau, x1, x2)
        return float(out) if out.ndim == 0 else out
    x1 = float(x1)
    x2 = float(x2)
    _check_singular(tau, wrap_centered(x1), wrap_centered(x2))
    if cfg.mode == "eigen":
        return _green_eigen(tau, x1, x2, cfg.eigen_cutoff, cfg.tolerance)
    return _green_appendix(tau, x1, x2, cfg.tolerance)


def green_mean_zero(tau: complex, grid: int = 256) -> float:
    """Quadrature of integral G d(lambda_tau); exact value is 0.

    Midpoint rule on a grid x grid mesh with the log singularity subtracted
    on a metric disk and its integral restored in closed form: the kernel
    ln(r/|z|) on {|z| <= r} integrates to pi*r^2/2 under d(lambda_tau).
    """
    tau = complex(tau)
    if grid < 8:
        raise ValidationError("mean-zero quadrature needs at least an 8x8 grid")
    r = 0.3 * min_lattice_distance(tau)
    c = wrap_centered((np.arange(grid) + 0.5) / grid)
    vals = green_grid(tau, c, c, 0.0)
    az = np.abs(p_tau(tau, c[:, None], c))
    inside = az < r
    vals = vals - np.where(inside, np.log(r / np.where(inside, az, 1.0)), 0.0)
    return float(tau.imag * np.mean(vals) + np.pi * r * r / 2.0)


def green_regularized(tau: complex, x, eps: float) -> float:
    """Covariance of metric circle averages, E[X_eps(x) X_eps(0)].

    Double average of G over two radius-eps circles in the g_tau metric,
    G_eps(x) = (2*pi)^{-2} int int G(x + c_tau(eps(e^{i s} - e^{i t}))) ds dt.
    At x = 0 the log singularity on the diagonal is integrated exactly
    (the circular average of ln|e^{is} - e^{it}| vanishes), which leaves a
    smooth integrand and spectral trapezoid accuracy.
    """
    tau = complex(tau)
    if not eps > 0:
        raise ValidationError("eps must be positive")
    if 2.0 * eps > 0.8 * min_lattice_distance(tau):
        raise ValidationError(
            f"eps = {eps:g} too large: the two circles must fit inside a period cell"
        )
    theta = 2.0 * np.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS
    diff = eps * (np.exp(1j * theta)[:, None] - np.exp(1j * theta)[None, :])
    d1, d2 = c_tau(tau, diff)
    x1, x2 = x
    z0 = p_tau(tau, wrap_centered(x1), wrap_centered(x2))
    if abs(z0) < _SINGULAR_TOL:
        # R(c_tau(w)) with p exactly w: no re-wrapping, the offsets are tiny
        return float(-math.log(eps) + np.mean(_regular_part(tau, diff, d2)))
    return float(np.mean(_green_closed(tau, x1 + d1, x2 + d2)))
