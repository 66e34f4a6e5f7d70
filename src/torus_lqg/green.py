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
in log space from special's one theta1 series, so G stays finite deep in
the cusp until eta underflows (Im tau near 2700), where NumericError is
raised.  green_centered applies it to points and green_grid to product
grids, the path of every grid-shaped caller.

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
from .modular import c_tau, p_tau, wrap_centered, wrap_unit
from .special import _log_theta1_over_z, _term_count, _theta_count, _theta_log_terms, dedekind_eta

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
_NODE = 1e-2  # |p| below which green_grid's difference of exps loses digits
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
    """ln|eta(tau)| at one modulus or at each of an array of moduli.
    |eta| = e^(-pi*Im(tau)/12) turns subnormal past Im tau ~ 2700 and loses
    its digits (G is 2e-4 off at 2840i), so that raises NumericError."""
    eta = np.abs(dedekind_eta(tau))
    if not np.all(eta >= np.finfo(float).tiny):
        raise NumericError(f"eta underflows at tau = {tau}")
    return np.log(eta)


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


def _regular_part(tau, z, x2, log_eta, s):
    """pi*Im(tau)*x2^2 + ln|eta| - ln|theta1(z)/z| - ln(s) at z = p_tau(x1, x2):
    G + ln|z| - ln(s), stable through z = 0 and deep in the cusp."""
    return np.pi * tau.imag * (x2 * x2) + log_eta - _log_theta1_over_z(z, tau) - np.log(s)


def green_centered(tau: complex, x1c, x2c):
    """G at centered coordinates x~ in [-1/2, 1/2)^2: _regular_part - ln|p|.
    ln|p| is a log of its own, so a subnormal |p| does not round a product.
    Lattice points are not rejected here."""
    tau = complex(tau)
    x1c, x2c = np.broadcast_arrays(np.asarray(x1c, dtype=float), np.asarray(x2c, dtype=float))
    z = p_tau(tau, x1c, x2c)
    return _regular_part(tau, z, x2c, _log_eta(tau), 1.0) - np.log(np.abs(z))


def green_grid(tau, x1c, x2c, cap):
    """G on the product grid (x1c[a], x2c[b]) of centered coordinates in
    [-1/2, 1/2), with -ln|p| frozen at -ln(cap) where |p| < min(cap, r),
    r a quarter of the shortest lattice vector.  tau is one modulus, or an
    array of K moduli with cap a scalar or one per modulus, and then the
    result is (K, len(x1c), len(x2c)).  cap = 0 leaves G uncapped: an
    exact lattice point then reads non-finite and raises NumericError,
    which a midpoint grid never hits.

    Every point is taken at its centered representative z = x1 + tau*x2,
    as in green_centered.  With each theta1 term

        e^(l_n +- i*w_n*z) = e^(+- i*w_n*x1) * e^(l_n +- i*w_n*tau*x2),

    theta1 is the (len(x1c), 2n) x (2n, columns) complex product of the
    tau-free x1 phases and each modulus's x2 factors, every column zero
    past the _theta_count of its own |Im z|, taken as two real products
    whose outputs are Re and Im theta1, so only real grids are stored.
    Each column's factors are scaled by e^(-pi*Im(tau)*(|x2| - 1/4)), the
    size of its largest term, so no factor under- or overflows and G =
    pi*Im(tau)*(|x2| - 1/2)^2 + ln|eta| - ln|scaled theta1|.  The moduli
    that share a term count n go through one stacked product, so each runs
    the same products as alone.  An exact lattice point is Theta(tau) -
    ln(cap), since theta1'(0) = 2*pi*eta^3; the node points take
    _regular_part.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=complex))
    caps = np.broadcast_to(np.asarray(cap, dtype=float), taus.shape)
    x1c, x2c = np.asarray(x1c, dtype=float), np.asarray(x2c, dtype=float)
    y = taus.imag
    log_eta = _log_eta(taus)
    shift = np.pi * y[:, None] * (np.abs(x2c) - 0.25)  # ln of each column's largest term
    n_cut = _theta_count(taus[:, None], y[:, None] * np.abs(x2c))
    n_max = n_cut.max(axis=1, initial=1)
    phase = np.exp(1j * np.outer(x1c, _theta_log_terms(taus[0], n_max.max())[0]))
    groups = []
    with np.errstate(all="ignore"):
        for n in np.unique(n_max):  # one stacked product per term count
            ks = np.flatnonzero(n_max == n)
            t, cut = taus[ks, None], n_cut[ks, None, :]
            w, log_c = _theta_log_terms(t, n)
            iwt = 1j * (w[:, None] * (t * x2c)[:, None, :])
            log_c = log_c[:, :, None] - shift[ks, None, :]
            plus, minus = np.exp(log_c + iwt), np.exp(log_c - iwt)
            if cut.min(initial=n) < n:  # zero the terms past each column's own count
                live = np.arange(n)[:, None] < cut
                plus, minus = np.where(live, plus, 0.0), np.where(live, minus, 0.0)
            # theta = L @ R with L = [phase, -conj(phase)] and R = [plus; minus],
            # as real products of [Re L, -Im L] and [Im L, Re L] with [Re R; Im R]
            ph = phase[:, :n]
            right = np.concatenate((plus.real, minus.real, plus.imag, minus.imag), axis=1)
            theta = np.hstack((ph.real, -ph.real, -ph.imag, -ph.imag)) @ right
            np.hypot(theta, np.hstack((ph.imag, ph.imag, ph.real, -ph.real)) @ right, out=theta)
            front = np.pi * y[ks, None] * (np.abs(x2c) - 0.5) ** 2 + log_eta[ks, None]
            groups.append((ks, np.subtract(front[:, None, :], np.log(theta, out=theta), out=theta)))
        if len(groups) == 1:
            out = groups[0][1]
        else:
            out = np.empty((taus.size, x1c.size, x2c.size))
            for ks, part in groups:
                out[ks] = part
        _near_lattice(out, taus, caps, log_eta, x1c, x2c)  # ln(cap = 0) is caught below
    if not np.all(np.isfinite(out)):
        raise NumericError(f"Green function grid is not finite at tau = {tau}")
    return out[0] if np.ndim(tau) == 0 else out


def _near_lattice(out, taus, caps, log_eta, x1c, x2c):
    """green_grid's points next to the lattice point, in place: the cap
    where |p| < min(cap, r), Theta(tau) - ln(cap) at p = 0, _regular_part
    where 0 < |p| < min(_NODE, r).  Only columns with |Im p| below the
    larger reach hold such points, so |p| is formed on those alone."""
    y = taus.imag
    r = 0.25 * np.array([min_lattice_distance(t) for t in taus])
    reach = np.minimum(r, np.maximum(caps, _NODE))
    kc, jc = np.nonzero(y[:, None] * np.abs(x2c) < reach[:, None])
    az = np.abs(x1c + (taus[kc] * x2c[jc])[:, None])  # |p_tau|, as green_centered forms it
    p, i = np.nonzero(az < reach[kc, None])
    k, j, az = kc[p], jc[p], az[p, i]
    capped = (az > 0) & (az < np.minimum(caps[k], r[k]))
    kk, ii, jj = k[capped], i[capped], j[capped]
    out[kk, ii, jj] += np.log(az[capped]) - np.log(caps[kk])
    node = az < np.minimum(_NODE, r[k])
    k, i, j, az = k[node], i[node], j[node], az[node]
    zero = az == 0
    out[k[zero], i[zero], j[zero]] = -math.log(2.0 * math.pi) - 2.0 * log_eta[k[zero]] - np.log(caps[k[zero]])
    for m in np.unique(k[~zero]):
        s = ~zero & (k == m)
        x1, x2, floor = x1c[i[s]], x2c[j[s]], np.maximum(az[s], caps[m])
        out[m, i[s], j[s]] = _regular_part(taus[m], x1 + taus[m] * x2, x2, log_eta[m], floor)


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
    return _regular_part(tau, p_tau(tau, x1c, x2c), x2c, _log_eta(tau), 1.0)


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
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValidationError(f"tau must lie in the upper half-plane, got {tau}")
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
        return float(-math.log(eps) + np.mean(_regular_part(tau, diff, d2, _log_eta(tau), 1.0)))
    return float(np.mean(_green_closed(tau, x1 + d1, x2 + d2)))
