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

theta1 = 2 q^(1/4) sin(pi*z) S(z) is one series, whose terms
_theta_s_terms forms.  _theta_kernel sums them into theta1(z)/z, exact
through z = 0, the source of theta1, theta1'(0) and the Green function's
ln|theta1/z|; theta2 = theta1(1/2) sums them with alternating signs, and
green.green_grid multiplies them by the phases of its grid.

Double precision limits how far tau may approach the real axis: below
MIN_IM_TAU the term counts explode and we refuse to evaluate rather than
return silently degraded values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence, NumericError, ValidationError
from .modular import require_tau

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


def _is_array(v) -> bool:
    """Whether v is an array of one or more dimensions; np.ndim would turn
    a float into an array first, a cost every scalar call would pay."""
    return isinstance(v, np.ndarray) and v.ndim > 0


def _require_tau(tau):
    """modular.require_tau, and Im tau >= MIN_IM_TAU."""
    tau = require_tau(tau)
    low = tau.imag.min(initial=math.inf) if _is_array(tau) else tau.imag
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


def _theta_count(tau, b):
    """Per bound b on |Im z|, the term count of theta1, theta1/z and (b = 0)
    theta2: its tail is within the tolerance both absolutely (term n is at
    most 2|q|^((n+1/2)^2) e^((2n+1) pi b)) and relative to the first term.
    For all three |term_n / term_0| <= |q|^(n^2+n) |sin((2n+1)u) / sin(u)|,
    u = pi*z, at most (2n+1) exp(-pi y (n^2+n) + 2 pi b n), y = Im tau;
    ln(2n+1) is at most its tangent at m, about the absolute count at b = 0,
    g + beta*n with beta = 2/(2m+1), g = ln(2m+1) - m*beta.  In x = n + 1/2
    one quadratic bounds both terms: -pi y x^2 + (2 pi b + beta) x +
    max(ln 2, pi y/4 + g - beta/2).  The absolute count alone stops
    theta1'(0) after one term near y = 4.4, 3e-12 short of it relative;
    this keeps a second.  tau may be an array broadcasting with b."""
    if not np.all(np.isfinite(b)):
        raise NonConvergence("theta series diverges at a non-finite |Im z|")
    y = np.imag(tau)
    reach = (math.log(2.0) - math.log(0.1 * TOLERANCE)) / math.pi
    m = np.maximum(np.ceil(np.sqrt(reach / y) - 0.5), 1.0)
    beta = 2.0 / (2.0 * m + 1.0)
    c = np.maximum(math.log(2.0), 0.25 * math.pi * y + np.log(2.0 * m + 1.0) - m * beta - 0.5 * beta)
    return _term_count("theta series", -math.pi * y, 2.0 * math.pi * b + beta, c, 0.5)


def _eta_product(t: np.ndarray) -> np.ndarray:
    """prod_{n>=1} (1 - q^(2n)) at each modulus of the array t, to its own
    factor count (ones past it), so the same alone and inside any array."""
    # tail of sum_n log(1 - q^(2n)) is below |q2|^(N+1)/(1-|q2|)
    n_terms = _term_count("eta product", 0.0, -2.0 * math.pi * t.imag, 0.0, 0.0)
    ns = np.arange(1, n_terms.max() + 1)
    factors = 1.0 - _exp_i_pi(2.0 * t)[..., None] ** ns
    if n_terms.min() < ns.size:
        factors[ns > n_terms[..., None]] = 1.0
    return np.prod(factors, axis=-1)


def dedekind_eta(tau):
    """eta(tau) = q^(1/12) * prod_{n>=1} (1 - q^(2n)), q = exp(i*pi*tau).

    tau may be an array of moduli, each with its own factor count; a
    scalar tau is an array of one.
    """
    tau = _require_tau(tau)
    t = np.atleast_1d(tau)
    out = _exp_i_pi(t / 12.0) * _eta_product(t)
    return out if _is_array(tau) else complex(out[0])


def _exp_i_pi(t: np.ndarray) -> np.ndarray:
    """exp(i*pi*t), its exponent -pi*Im t + i*pi*Re t rounded once per part
    (the product with i*pi adds only exact zeros)."""
    return np.exp(t * (1j * np.pi))


def _theta_s_terms(tau, w, cut):
    """Yield the terms (P_j, M_j), j < max(cut), of S, the one theta1
    series theta1(z) = 2 q^(1/4) sin(pi*z) S(z), at z = x + w, x real:

        S(z) = sum_{m<cut} (-1)^m q^(m^2+m) sin((2m+1)*pi*z) / sin(pi*z)
             = A_0 + 2 sum_{j>=1} A_j cos(2*pi*j*z) = sum_j e^(2*pi*i*j*x) P_j + e^(-2*pi*i*j*x) M_j,

    A_j = sum_{j<=m<cut} (-1)^m q^(m^2+m) and P_j, M_j = A_j e^(+-2*pi*i*j*w),
    halved at j = 0.  With q^(j^2+j) folded into the exponentials, P_j, M_j
    = B_j e^(i*pi*(tau*(j^2+j) +- 2*j*w)), B_j = sum_{j<=m<cut} (-1)^m
    q^((m-j)(m+j+1)) ~ (-1)^j: for |Im w| <= Im(tau)/2 no factor exceeds 1
    and none underflows before its term is negligible.  B_j at an entry's
    count is a running sum from one table per modulus (zero from the count
    on), so the entry's terms are the same alone and inside any array.
    tau, w and cut broadcast together.
    """
    cut, t = np.asarray(cut), np.asarray(tau)
    rows, last = np.arange(t.size).reshape(t.shape), cut - 1
    j = np.arange(cut.max(initial=1))
    m, jm = j, j[:, None]
    power = np.maximum((m - jm) * (m + jm + 1), 0)
    q_powers = np.where(m >= jm, (-1.0) ** m * _exp_i_pi(t.reshape(-1, 1, 1) * power), 0.0)
    running = np.cumsum(q_powers, axis=-1)  # running[row, j, c - 1] is B_j at count c
    running[:, 0] *= 0.5
    for k in j:
        b = running[rows, k, last]
        base, arg = t * (k * k + k), (2 * k) * w
        yield b * _exp_i_pi(base + arg), b * _exp_i_pi(base - arg)


def _theta_kernel(z, tau: complex):
    """(z, E(z)*S(z)) over z flattened to one dimension and taken to
    Im z >= 0, theta1's one series at points:

        theta1(z)/z = -i q^(1/4) e^(-i*pi*z) E(z) S(z),  E(z) = (e^(2*pi*i*z) - 1)/z,

    S being _theta_s_terms summed at x = 0.  theta1/z is even, so z and -z
    are one point.  Each point stops at the _theta_count of its own Im z,
    which bounds |term_m / term_0| of S, and its terms are summed in one
    order, so its value does not depend on the other points.  E takes its
    Taylor expansion where |2*pi*z| < 1e-6, so a subnormal z keeps every
    digit.  Callers reshape: a scalar is an array of one, since numpy's
    scalar complex product rounds differently.  Raises NumericError when
    E*S is not finite.
    """
    z = np.asarray(z, dtype=complex).ravel()
    z = np.where(z.imag < 0, -z, z)
    n_cut = _theta_count(tau, z.imag)
    w = 2j * np.pi * z
    small = np.abs(w) < 1e-6
    with np.errstate(over="ignore", invalid="ignore"):
        s = sum(plus + minus for plus, minus in _theta_s_terms(tau, z, n_cut))
        e = np.where(small, 2j * np.pi * (1.0 + w * (0.5 + w / 6.0)), np.expm1(w) / np.where(small, 1.0, z))
        out = e * s
    if not np.all(np.isfinite(out)):
        raise NumericError(f"theta series is not finite at tau = {tau}")
    return z, out


def _log_theta1_over_z(z, tau: complex):
    """ln|theta1(z)/z| = ln|E*S| + pi*(|Im z| - Im(tau)/4) from _theta_kernel,
    finite however deep in the cusp tau lies."""
    zf, es = _theta_kernel(z, tau)
    return (np.log(np.abs(es)) + np.pi * (zf.imag - 0.25 * tau.imag)).reshape(np.shape(z))


def theta1(z, tau: complex):
    """First Jacobi theta function theta_1(z, tau) = z * theta1_over_z(z, tau).

    z may be a scalar (returns complex) or a numpy array; a point's value
    is the same either way.  theta1_product is the independent reference.
    """
    z = np.asarray(z, dtype=complex)
    out = (z.ravel() * theta1_over_z(z.ravel(), tau)).reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


def theta1_over_z(z, tau: complex):
    """theta_1(z, tau) / z through z = 0, from _theta_kernel as
    -i q^(1/4) e^(-i*pi*z) E(z) S(z), the two exponentials one exp."""
    tau = _require_tau(tau)
    zf, es = _theta_kernel(z, tau)
    out = (_exp_i_pi(0.25 * tau - zf) * (-1j * es)).reshape(np.shape(z))
    if not np.all(np.isfinite(out)):
        raise NumericError(f"theta1/z is not finite at tau = {tau}")
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
    """d/dz theta_1(z, tau) at z = 0: theta1_over_z at 0, with its count
    (within the tolerance relative to the first term, 2*pi*|q|^(1/4))."""
    return theta1_over_z(0.0, tau)


def theta_aux(k: int, tau):
    """Auxiliary theta constants theta_k(0, tau) for k in {2, 3, 4}.

    theta2 is theta1(1/2) from theta1's one series, at the count of
    |Im z| = 0 (relative to its first term).
    tau may be an array of moduli, each summing its own term count; a
    scalar tau is an array of one.
    """
    tau = _require_tau(tau)
    t = np.atleast_1d(tau)
    if k == 2:
        # theta1(1/2) = 2 q^(1/4) S(1/2): S's phases at x = 1/2 are the signs (-1)^j
        n_cut = np.atleast_1d(_theta_count(t, 0.0))
        s = sum((-1) ** j * (p + m) for j, (p, m) in enumerate(_theta_s_terms(t, 0.0, n_cut)))
        out = 2.0 * _exp_i_pi(0.25 * t) * s
    elif k in (3, 4):
        # integer-square series 2*|q|^(n^2) from n = 1, the count itself included
        what = f"theta_{k} series"
        n_cut = np.atleast_1d(_term_count(what, -math.pi * np.imag(tau), 0.0, math.log(2.0), 0.0))
        ns = np.arange(1, n_cut.max() + 1)
        sign = (-1.0) ** ns if k == 4 else np.ones_like(ns, dtype=float)
        terms = np.where(ns <= n_cut[..., None], sign * np.exp(1j * np.pi * t)[..., None] ** (ns * ns), 0.0)
        out = 1.0 + 2.0 * sum(terms[..., j] for j in range(ns.size))  # in order: alone = in any array
    else:
        raise ValidationError(f"theta_aux index must be 2, 3 or 4, got {k}")
    return out if _is_array(tau) else complex(out[0])
