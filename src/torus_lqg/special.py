"""Dedekind eta and Jacobi theta functions as tolerance-driven q-series.

Conventions: q = exp(i*pi*tau) with tau in the upper half-plane, so the
nome enters through q^2 = exp(2*i*pi*tau) and |q| < 1.  Every series is
truncated when a geometric tail bound falls below the absolute target
TOLERANCE; the bound uses the first neglected term divided by (1 - ratio)
once term moduli decay monotonically.  Evaluations accept numpy arrays
for the elliptic argument z (tau stays scalar); the truncation index is
then driven by the largest |Im z| in the batch.

Double precision limits how far tau may approach the real axis: below
MIN_IM_TAU the term counts explode and we refuse to evaluate rather than
return silently degraded values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence, ValidationError

__all__ = [
    "MAX_TERMS",
    "MIN_IM_TAU",
    "TOLERANCE",
    "dedekind_eta",
    "theta1",
    "theta1_over_z",
    "theta1_z_derivative_at_zero",
    "theta_aux",
]

MIN_IM_TAU = 1e-3
# absolute error target per evaluation, and the cap on the truncation
# index of any single series or product
TOLERANCE = 1e-12
MAX_TERMS = 200_000


def _require_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not (tau.imag > 0):
        raise ValidationError(f"tau must lie in the upper half-plane, got {tau}")
    if tau.imag < MIN_IM_TAU:
        raise NonConvergence(
            f"Im tau = {tau.imag:g} below supported minimum {MIN_IM_TAU:g}"
        )
    return tau


def _theta_cut(log_absq: float, b: float) -> int:
    """Smallest n such that terms 0..n-1 of a theta-type series suffice.

    Term n has modulus at most 2*|q|^((n+1/2)^2) * exp((2n+1)*pi*b) where
    b bounds |Im z|.  Successive ratios are |q|^(2n+2) * exp(2*pi*b); once
    a ratio is below 1 the tail is geometric.
    """
    prev = math.inf
    for n in range(MAX_TERMS + 1):
        log_term = log_absq * (n + 0.5) ** 2 + (2 * n + 1) * math.pi * b
        term = 2.0 * math.exp(log_term)
        ratio = math.exp(log_absq * (2 * n + 2) + 2.0 * math.pi * b)
        if term < prev and ratio < 1.0 and term / (1.0 - ratio) <= 0.1 * TOLERANCE:
            return n
        prev = term
    raise NonConvergence(
        f"theta series needs more than {MAX_TERMS} terms for tolerance {TOLERANCE:g}"
    )


def dedekind_eta(tau: complex) -> complex:
    """eta(tau) = q^(1/12) * prod_{n>=1} (1 - q^(2n)), q = exp(i*pi*tau)."""
    tau = _require_tau(tau)
    absq2 = math.exp(-2.0 * math.pi * tau.imag)
    # tail of sum_n log(1 - q^(2n)) is below |q2|^(N+1)/(1-|q2|)
    n_terms = int(
        math.ceil(math.log(0.1 * TOLERANCE * (1.0 - absq2)) / math.log(absq2))
    )
    n_terms = max(n_terms, 1)
    if n_terms > MAX_TERMS:
        raise NonConvergence(f"eta product needs {n_terms} factors, cap is {MAX_TERMS}")
    q2 = np.exp(2j * np.pi * tau)
    factors = 1.0 - q2 ** np.arange(1, n_terms + 1)
    return complex(np.exp(1j * np.pi * tau / 12.0) * np.prod(factors))


def _theta_terms(tau: complex, b: float):
    """Shared truncation for theta1-type series: coefficient table."""
    log_absq = -math.pi * tau.imag
    n_cut = _theta_cut(log_absq, b)
    n_cut = max(n_cut, 1)
    ns = np.arange(n_cut)
    q = np.exp(1j * np.pi * tau)
    coeff = 2.0 * (-1.0) ** ns * q ** ((ns + 0.5) ** 2)
    return ns, coeff


def theta1(z, tau: complex, method: str = "series"):
    """First Jacobi theta function theta_1(z, tau).

    The default path sums 2*sum_n (-1)^n q^((n+1/2)^2) sin((2n+1)*pi*z).
    method="product" evaluates the Jacobi triple-product form instead and
    exists as an independent cross-check of the series path.  z may be a
    scalar or a numpy array.
    """
    tau = _require_tau(tau)
    z_arr = np.asarray(z, dtype=complex)
    if method == "series":
        b = float(np.max(np.abs(z_arr.imag))) if z_arr.size else 0.0
        ns, coeff = _theta_terms(tau, b)
        out = np.zeros_like(z_arr)
        for n, c in zip(ns, coeff):
            out = out + c * np.sin((2 * n + 1) * np.pi * z_arr)
        return complex(out) if np.isscalar(z) or z_arr.ndim == 0 else out
    if method == "product":
        out = _theta1_product(z_arr, tau)
        return complex(out) if np.isscalar(z) or z_arr.ndim == 0 else out
    raise ValidationError(f"unknown theta1 method {method!r}")


def _theta1_product(z_arr: np.ndarray, tau: complex) -> np.ndarray:
    """-i q^(1/6) e^(i*pi*z) eta(tau) prod_m (1-q^(2m) e^(2*pi*i*z)) (1-q^(2m-2) e^(-2*pi*i*z))."""
    b = float(np.max(np.abs(z_arr.imag))) if z_arr.size else 0.0
    absq2 = math.exp(-2.0 * math.pi * tau.imag)
    # factor m contributes at most |q|^(2m-2) e^(2*pi*b) to log-error
    big = absq2 ** (-1) * math.exp(2.0 * math.pi * b)
    m_cut = 1
    while absq2 ** m_cut * big / (1.0 - absq2) > 0.1 * TOLERANCE:
        m_cut += 1
        if m_cut > MAX_TERMS:
            raise NonConvergence(f"theta1 product needs more than {MAX_TERMS} factors")
    q = np.exp(1j * np.pi * tau)
    e_plus = np.exp(2j * np.pi * z_arr)
    e_minus = np.exp(-2j * np.pi * z_arr)
    prod = np.ones_like(z_arr)
    for m in range(1, m_cut + 1):
        prod = prod * (1.0 - q ** (2 * m) * e_plus)
        prod = prod * (1.0 - q ** (2 * m - 2) * e_minus)
    head = -1j * q ** (1.0 / 6.0) * np.exp(1j * np.pi * z_arr) * dedekind_eta(tau)
    return head * prod


def theta1_over_z(z, tau: complex):
    """theta_1(z, tau) / z evaluated stably through z = 0.

    Uses sin((2n+1)*pi*z)/z termwise; the removable singularity is filled
    with the quadratic Taylor expansion once |(2n+1)*pi*z| < 1e-6.
    """
    tau = _require_tau(tau)
    z_arr = np.asarray(z, dtype=complex)
    b = float(np.max(np.abs(z_arr.imag))) if z_arr.size else 0.0
    ns, coeff = _theta_terms(tau, b)
    out = np.zeros_like(z_arr)
    for n, c in zip(ns, coeff):
        w = (2 * n + 1) * np.pi
        wz = w * z_arr
        small = np.abs(wz) < 1e-6
        ratio = np.where(
            small,
            w * (1.0 - wz * wz / 6.0),
            np.sin(np.where(small, 1.0, wz)) / np.where(small, 1.0, z_arr),
        )
        out = out + c * ratio
    return complex(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def theta1_z_derivative_at_zero(tau: complex) -> complex:
    """d/dz theta_1(z, tau) at z = 0, by termwise differentiation."""
    tau = _require_tau(tau)
    ns, coeff = _theta_terms(tau, 0.0)
    return complex(np.sum(coeff * (2 * ns + 1) * np.pi))


def theta_aux(k: int, tau: complex) -> complex:
    """Auxiliary theta constants theta_k(0, tau) for k in {2, 3, 4}."""
    tau = _require_tau(tau)
    q = np.exp(1j * np.pi * tau)
    log_absq = -math.pi * tau.imag
    if k == 2:
        ns, coeff = _theta_terms(tau, 0.0)
        # same Gaussian exponents as theta1 with the alternating sign undone
        return complex(np.sum(coeff * (-1.0) ** ns))
    if k not in (3, 4):
        raise ValidationError(f"theta_aux index must be 2, 3 or 4, got {k}")
    # integer-square series; tail bound |q|^(n^2) geometric beyond ratio < 1
    prev = math.inf
    n_cut = None
    for n in range(1, MAX_TERMS + 1):
        term = 2.0 * math.exp(log_absq * n * n)
        ratio = math.exp(log_absq * (2 * n + 1))
        if term < prev and term / (1.0 - ratio) <= 0.1 * TOLERANCE:
            n_cut = n
            break
        prev = term
    if n_cut is None:
        raise NonConvergence(f"theta_{k} series needs more than {MAX_TERMS} terms")
    ns = np.arange(1, n_cut + 1)
    sign = (-1.0) ** ns if k == 4 else np.ones_like(ns, dtype=float)
    return complex(1.0 + 2.0 * np.sum(sign * q ** (ns * ns)))
