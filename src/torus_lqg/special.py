"""Dedekind eta and Jacobi theta functions as tolerance-driven q-series.

Conventions: q = exp(i*pi*tau) with tau in the upper half-plane, so the
nome enters through q^2 = exp(2*i*pi*tau) and |q| < 1.  Evaluations
accept numpy arrays for the elliptic argument z (tau stays scalar).

One truncation rule serves every series and product here and the appendix
route of the Green function: keep the fewest terms n >= 1 whose geometric
tail bound term_n / (1 - ratio_n) is at most 0.1 * TOLERANCE, for
log term_n = A*(n+s)^2 + B*(n+s) + C.  _term_count solves for n in log
space, so no exp underflows, and refuses counts above MAX_TERMS.  A theta
point's count comes from tau and its own |Im z|, so it evaluates to the
same value alone and inside any array.

Double precision limits how far tau may approach the real axis: below
MIN_IM_TAU the term counts explode and we refuse to evaluate rather than
return silently degraded values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence, NumericError, ValidationError

__all__ = [
    "MAX_TERMS",
    "MIN_IM_TAU",
    "TOLERANCE",
    "dedekind_eta",
    "theta1",
    "theta1_over_z",
    "theta1_product",
    "theta1_z_derivative_at_zero",
    "theta_aux",
]

MIN_IM_TAU = 1e-3
# absolute error target per evaluation, and the cap on the truncation
# index of any single series or product
TOLERANCE = 1e-12
MAX_TERMS = 200_000
# terms x points per block of _theta_series: bounds its working set
_SERIES_CELLS = 1 << 16


def _is_array(v) -> bool:
    """Whether v is an array of one or more dimensions; np.ndim would turn
    a float into an array first, a cost every scalar call would pay."""
    return isinstance(v, np.ndarray) and v.ndim > 0


def _require_tau(tau):
    """tau as a complex, or an array of moduli as a complex array, each
    in the upper half-plane with Im tau >= MIN_IM_TAU."""
    scalar = not _is_array(tau)
    tau = complex(tau) if scalar else np.asarray(tau, dtype=complex)
    low = tau.imag if scalar else tau.imag.min(initial=math.inf)
    if not low > 0:  # a NaN imaginary part fails here too
        bad = tau if scalar else tau[~(tau.imag > 0)][0]
        raise ValidationError(f"tau must lie in the upper half-plane, got {bad}")
    if low < MIN_IM_TAU:
        raise NonConvergence(f"Im tau = {low:g} below supported minimum {MIN_IM_TAU:g}")
    return tau


def _term_count(what: str, a, b, c, s: float, tolerance: float = TOLERANCE):
    """Smallest n >= 1 with term_n / (1 - ratio_n) <= 0.1 * tolerance, per (a, b, c).

    log term_n = a*(n+s)^2 + b*(n+s) + c with a <= 0, so the log ratio
    a*(2(n+s)+1) + b falls with n (a = 0: geometric, ratio exp(b) < 1).
    Floats take _float_count, an int.  The count does not fall as a, b or
    c grows, so for arrays (broadcast together) the counts at their
    smallest and at their largest entries bound every count, and one
    exact-test pass per count in between settles each entry: the same
    count as that entry alone.  A non-finite input gives a NaN or
    infinite root, refused like any count above MAX_TERMS.
    """
    log_eps = math.log(0.1 * tolerance)
    if not (_is_array(a) or _is_array(b) or _is_array(c)):
        return _float_count(what, float(a), float(b), float(c), s, log_eps, tolerance)
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
    if not math.prod(shape):
        return np.zeros(shape, dtype=int)
    least = [float(v.min()) for v in (a, b, c)]
    most = [float(v.max()) for v in (a, b, c)]
    lo = _float_count(what, *least, s, log_eps, tolerance)
    hi = lo if most == least else _float_count(what, *most, s, log_eps, tolerance)
    n = np.full(shape, lo)
    with np.errstate(over="ignore"):
        for k in range(lo, hi):
            x = k + s
            n += ~(np.exp(a * x * x + b * x + c - log_eps) + np.exp(a * (2 * x + 1) + b) <= 1.0)
    return n


def _float_count(what, a, b, c, s, log_eps, tolerance):
    """_term_count of one float b, in math.  The quadratic's larger root,
    refined once for the (1 - ratio) factor, lands within one of the count;
    the exact test settles it."""
    def root(k):  # larger root of a*x^2 + b*x + k
        return (b + math.sqrt(b * b - 4.0 * a * k)) / (-2.0 * a) if a else -k / b

    def fits(n):  # term_n / eps + ratio_n <= 1; an exponent past exp's range fails it
        x = n + s
        t, r = a * x * x + b * x + c - log_eps, a * (2 * x + 1) + b
        return t < 709.0 and r < 709.0 and math.exp(t) + math.exp(r) <= 1.0

    try:
        x = root(c - log_eps)
        x = root(c - log_eps - math.log(-math.expm1(a * (2 * x + 1) + b)))
        n = max(math.ceil(x - s), 1)
    except (ArithmeticError, ValueError):  # a NaN or infinite root
        n = math.inf
    else:
        n -= n > 1 and fits(n - 1)
        n += not fits(n)
    if n > MAX_TERMS:
        raise NonConvergence(
            f"{what} needs more than {MAX_TERMS} terms for tolerance {tolerance:g}"
        )
    return n


def _theta_cut(tau, b):
    """Per bound b on |Im z|, the absolute term count of a theta1-type
    series, whose term n has modulus at most 2*|q|^((n+1/2)^2) *
    exp((2n+1)*pi*b).  tau may be an array broadcasting with b."""
    if not np.all(np.isfinite(b)):
        raise NonConvergence("theta series diverges at a non-finite |Im z|")
    return _term_count("theta series", -math.pi * np.imag(tau), 2.0 * math.pi * b, math.log(2.0), 0.5)


def _theta_count(tau, b):
    """Per bound b on |Im z|, the term count of theta1, theta1/z and (b = 0)
    theta2: its tail is within the tolerance both absolutely, as
    _theta_cut's, and relative to the first term.  For all three |term_n /
    term_0| <= |q|^(n^2+n) |sin((2n+1)u) / sin(u)|, u = pi*z, at most
    (2n+1) exp(-pi y (n^2+n) + 2 pi b n), y = Im tau; ln(2n+1) is at most
    its tangent at m, about the absolute count at b = 0, g + beta*n with
    beta = 2/(2m+1), g = ln(2m+1) - m*beta.  In x = n + 1/2 one quadratic
    bounds both terms: -pi y x^2 + (2 pi b + beta) x + max(ln 2,
    pi y/4 + g - beta/2).  The absolute count alone stops theta1'(0)
    after one term near y = 4.4, 3e-12 short of it relative; this keeps
    a second.  tau may be an array broadcasting with b."""
    if not np.all(np.isfinite(b)):
        raise NonConvergence("theta series diverges at a non-finite |Im z|")
    y = np.imag(tau)
    reach = (math.log(2.0) - math.log(0.1 * TOLERANCE)) / math.pi
    m = np.maximum(np.ceil(np.sqrt(reach / y) - 0.5), 1.0)
    beta = 2.0 / (2.0 * m + 1.0)
    c = np.maximum(math.log(2.0), 0.25 * math.pi * y + np.log(2.0 * m + 1.0) - m * beta - 0.5 * beta)
    return _term_count("theta series", -math.pi * y, 2.0 * math.pi * b + beta, c, 0.5)


def _partial_sums(terms: np.ndarray, cut) -> np.ndarray:
    """The sums of terms[..., j] over j < cut, added term by term, so an
    entry's sum does not depend on the counts of the others."""
    out = np.zeros(terms.shape[:-1], dtype=terms.dtype)
    for j in range(terms.shape[-1]):
        np.add(out, terms[..., j], out=out, where=j < cut)
    return out


def dedekind_eta(tau):
    """eta(tau) = q^(1/12) * prod_{n>=1} (1 - q^(2n)), q = exp(i*pi*tau).

    tau may be an array of moduli: each takes its own factor count, the
    factors past it are ones, and a scalar tau is an array of one, so a
    value is the same alone and inside any array.
    """
    tau = _require_tau(tau)
    # tail of sum_n log(1 - q^(2n)) is below |q2|^(N+1)/(1-|q2|)
    n_terms = np.atleast_1d(_term_count("eta product", 0.0, -2.0 * math.pi * np.imag(tau), 0.0, 0.0))
    t = np.atleast_1d(tau)
    ns = np.arange(1, n_terms.max() + 1)
    factors = 1.0 - _exp_i_pi(2.0 * t)[..., None] ** ns
    if n_terms.min() < ns.size:
        factors[ns > n_terms[..., None]] = 1.0
    out = _exp_i_pi(t / 12.0) * np.prod(factors, axis=-1)
    return out if _is_array(tau) else complex(out[0])


def _exp_i_pi(t: np.ndarray) -> np.ndarray:
    """exp(i*pi*t) with its exponent -pi*Im t + i*pi*Re t formed in real
    arithmetic, so it rounds once per part."""
    return np.exp(-np.pi * t.imag + 1j * (np.pi * t.real))


def _theta_terms(tau, n_terms: int):
    """The first n_terms coefficients 2*(-1)^n*q^((n+1/2)^2) of theta1-type
    series, along a last axis for an array tau."""
    ns = np.arange(n_terms)
    q = np.expand_dims(np.exp(1j * np.pi * tau), -1)
    return ns, 2.0 * (-1.0) ** ns * q ** ((ns + 0.5) ** 2)


def _theta_log_terms(tau: complex, n_terms: int):
    """Frequencies w_n = (2n+1)*pi and log coefficients l_n = log(c_n / 2i) =
    i*pi*(tau*(n+1/2)^2 + n - 1/2) of the first n_terms theta1 terms, so that
    c_n*sin(w_n*z) = e^(l_n + i*w_n*z) - e^(l_n - i*w_n*z) with no factor that
    under- or overflows alone."""
    ns = np.arange(n_terms)
    return (2 * ns + 1) * np.pi, 1j * np.pi * (tau * (ns + 0.5) ** 2 + ns - 0.5)


def _theta_series(z, tau: complex, over_z: bool) -> np.ndarray:
    """theta1(z), or theta1(z)/z with over_z, over z flattened to one
    dimension, returned in z's shape (a scalar z gives a 0-d array).

    Each point stops at the term count of its own |Im z|, so its value
    does not depend on the other points of the array.  theta1 takes each
    term as a difference of two exps of log coefficient plus phase, so a
    tiny q^((n+1/2)^2) and a huge sin((2n+1)*pi*z) never meet; theta1/z
    sums c_n * sin(w_n*z)/z.  The terms of a block of points are one
    (terms, points) array of at most _SERIES_CELLS entries, added up term
    by term, each into the points it reaches.  Raises NumericError when a
    sum is not finite (the value itself overflows).
    """
    tau = _require_tau(tau)
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    n_cut = _theta_count(tau, np.abs(flat.imag))
    n_max = n_cut.max(initial=1)
    if over_z:
        ns, c = _theta_terms(tau, n_max)
        w = (2 * ns + 1) * np.pi
    else:
        w, c = _theta_log_terms(tau, n_max)
    w, c = w[:, None], c[:, None]
    step = max(1, _SERIES_CELLS // n_max)
    out = np.zeros_like(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, step):
            zs, sums = flat[lo : lo + step], out[lo : lo + step]
            if over_z:
                terms = c * _sine_over_z(w, zs)
            else:
                terms = np.exp(c + 1j * w * zs) - np.exp(c - 1j * w * zs)
            cut = n_cut[lo : lo + step]
            for n, term in enumerate(terms):
                np.add(sums, term, out=sums, where=n < cut)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"theta series is not finite at tau = {tau}")
    return out.reshape(z.shape)


def _sine_over_z(w, z: np.ndarray) -> np.ndarray:
    """sin(w*z)/z for a frequency or a column of them, filled with its Taylor expansion where |w*z| < 1e-6."""
    wz = w * z
    small = np.abs(wz) < 1e-6
    safe = np.where(small, 1.0, z)
    return np.where(small, w * (1.0 - wz * wz / 6.0), np.sin(w * safe) / safe)


def theta1(z, tau: complex):
    """First Jacobi theta function theta_1(z, tau).

    Sums 2*sum_n (-1)^n q^((n+1/2)^2) sin((2n+1)*pi*z), each term as
    e^(l_n + i*w_n*z) - e^(l_n - i*w_n*z) in log space.  z may be a scalar
    (returns complex) or a numpy array; a point's value is the same either
    way.  theta1_product is the independent reference.
    """
    out = _theta_series(z, tau, over_z=False)
    return complex(out) if out.ndim == 0 else out


def theta1_over_z(z, tau: complex):
    """theta_1(z, tau) / z evaluated stably through z = 0.

    Uses sin((2n+1)*pi*z)/z termwise; the removable singularity is filled
    with the quadratic Taylor expansion once |(2n+1)*pi*z| < 1e-6.
    """
    out = _theta_series(z, tau, over_z=True)
    return complex(out) if out.ndim == 0 else out


def theta1_product(z: complex, tau: complex) -> complex:
    """theta_1 at one point z by the Jacobi triple product, the series' reference:
    -i q^(1/6) e^(i*pi*z) eta(tau) prod_m (1-q^(2m) e^(2*pi*i*z)) (1-q^(2m-2) e^(-2*pi*i*z)).
    """
    tau = _require_tau(tau)
    z = np.asarray(z, dtype=complex)
    # factor m contributes at most |q|^(2m-2) e^(2*pi*|Im z|) to log-error
    m_cut = _term_count(
        "theta1 product", 0.0, -2.0 * math.pi * tau.imag, 2.0 * math.pi * abs(float(z.imag)), -1.0
    )
    q = np.exp(1j * np.pi * tau)
    e_plus = np.exp(2j * np.pi * z)
    e_minus = np.exp(-2j * np.pi * z)
    prod = np.ones_like(z)
    for m in range(1, m_cut + 1):
        prod = prod * (1.0 - q ** (2 * m) * e_plus)
        prod = prod * (1.0 - q ** (2 * m - 2) * e_minus)
    head = -1j * q ** (1.0 / 6.0) * np.exp(1j * np.pi * z) * dedekind_eta(tau)
    return complex(head * prod)


def theta1_z_derivative_at_zero(tau: complex) -> complex:
    """d/dz theta_1(z, tau) at z = 0, by termwise differentiation, with
    theta1/z's count at z = 0 (within the tolerance relative to the first
    term, 2*pi*|q|^(1/4))."""
    tau = _require_tau(tau)
    ns, coeff = _theta_terms(tau, _theta_count(tau, 0.0))
    return complex(np.sum(coeff * (2 * ns + 1) * np.pi))


def theta_aux(k: int, tau):
    """Auxiliary theta constants theta_k(0, tau) for k in {2, 3, 4}.

    theta2 keeps theta1/z's count at z = 0 (relative to its first term).
    tau may be an array of moduli, each summing its own term count; a
    scalar tau is an array of one.
    """
    tau = _require_tau(tau)
    t = np.atleast_1d(tau)
    if k == 2:
        n_cut = np.atleast_1d(_theta_count(tau, 0.0))
        ns, coeff = _theta_terms(t, n_cut.max())
        # same Gaussian exponents as theta1 with the alternating sign undone
        out = _partial_sums(coeff * (-1.0) ** ns, n_cut)
    elif k in (3, 4):
        # integer-square series 2*|q|^(n^2) from n = 1, the count itself included
        what = f"theta_{k} series"
        n_cut = np.atleast_1d(_term_count(what, -math.pi * np.imag(tau), 0.0, math.log(2.0), 0.0))
        ns = np.arange(1, n_cut.max() + 1)
        sign = (-1.0) ** ns if k == 4 else np.ones_like(ns, dtype=float)
        q = np.exp(1j * np.pi * t)[..., None]
        out = 1.0 + 2.0 * _partial_sums(sign * q ** (ns * ns), n_cut)
    else:
        raise ValidationError(f"theta_aux index must be 2, 3 or 4, got {k}")
    return out if _is_array(tau) else complex(out[0])
