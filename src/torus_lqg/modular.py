"""Modular group action on the upper half-plane and on torus coordinates.

Elements are integer matrices (a b; c d) with ad - bc = 1, taken up to
overall sign; the stored representative has c > 0, or c = 0 and d > 0.
An element psi acts on the modulus by psi(tau) = (a*tau + b)/(c*tau + d)
and on unit-square torus coordinates by the induced affine map

    psi~(x1, x2) = (d*x1 + b*x2, c*x1 + a*x2)  (mod 1),

which intertwines the flat metrics: it is an isometry from (T, g_psi(tau))
to (T, g_tau).  Composition is contravariant, (psi o phi)~ = phi~ o psi~.

This module also carries the coordinate charts shared downstream:
p_tau(x) = x1 + tau*x2 identifies the unit square with a fundamental
parallelogram of C / (Z + tau*Z), and c_tau is its inverse.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModularElement",
    "FundamentalDomainPoint",
    "IDENTITY",
    "T",
    "S",
    "reduce_to_fundamental",
    "require_tau",
    "wrap_unit",
    "wrap_centered",
    "p_tau",
    "c_tau",
]


def require_tau(tau):
    """tau as a complex, or an array of moduli as a complex array, each
    with finite parts and Im tau > 0: the one check of a modulus.  A
    scalar takes a cmath path, with no numpy call."""
    if isinstance(tau, np.ndarray) and tau.ndim > 0:
        tau = np.asarray(tau, dtype=complex)
        bad = tau[~(np.isfinite(tau) & (tau.imag > 0))]
    else:
        tau = complex(tau)
        bad = () if cmath.isfinite(tau) and tau.imag > 0 else (tau,)
    if len(bad):
        raise ValidationError(f"tau must have finite parts and Im tau > 0, got {bad[0]}")
    return tau


@dataclass(frozen=True)
class ModularElement:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise ValidationError(f"entry {name} must be an integer, got {v!r}")
        if self.a * self.d - self.b * self.c != 1:
            raise ValidationError(
                f"determinant must be 1, got {self.a * self.d - self.b * self.c}"
            )
        if self.c < 0 or (self.c == 0 and self.d < 0):
            for name, v in zip("abcd", (-self.a, -self.b, -self.c, -self.d)):
                object.__setattr__(self, name, v)

    def act_on_uhp(self, tau: complex) -> complex:
        """Mobius action on the upper half-plane."""
        tau = require_tau(complex(tau))
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def act_on_torus(self, x1, x2):
        """Induced map on torus coordinates, taken mod 1.  Vectorized."""
        y1 = np.mod(self.d * np.asarray(x1) + self.b * np.asarray(x2), 1.0)
        y2 = np.mod(self.c * np.asarray(x1) + self.a * np.asarray(x2), 1.0)
        return y1, y2

    def compose(self, other: "ModularElement") -> "ModularElement":
        """Matrix product; acts as self after other on the half-plane."""
        return ModularElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ModularElement":
        return ModularElement(self.d, -self.b, -self.c, self.a)

    def derivative(self, tau: complex) -> complex:
        """psi'(tau) = (c*tau + d)^(-2)."""
        tau = complex(tau)
        return 1.0 / (self.c * tau + self.d) ** 2

    def index_map(self, n, m):
        """Frequency relabeling (n, m) -> transpose-inverse image.

        Fourier data at psi(tau) with index (n, m) corresponds to index
        index_map(n, m) at tau; the map is the inverse of the transposed
        torus map acting on integer vectors.
        """
        return self.a * n - self.c * m, -self.b * n + self.d * m

    def __str__(self):
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


IDENTITY = ModularElement(1, 0, 0, 1)
T = ModularElement(1, 1, 0, 1)
S = ModularElement(0, -1, 1, 0)


@dataclass(frozen=True)
class FundamentalDomainPoint:
    """A reduced modulus together with the witness mapping the input to it."""

    tau: complex
    witness: ModularElement


_BOUNDARY_TOL = 1e-12


def reduce_to_fundamental(tau: complex) -> FundamentalDomainPoint:
    """Reduce tau to the standard fundamental domain.

    Iterates translations and inversions until |Re tau| <= 1/2 and
    |tau| >= 1, then canonicalizes boundary points to Re tau = +1/2 and,
    on the unit arc, to Re tau >= 0.  The returned witness w satisfies
    w.act_on_uhp(input) == reduced tau up to floating-point error.
    """
    z = require_tau(complex(tau))
    w = IDENTITY
    for _ in range(10_000):
        n = math.floor(z.real + 0.5)
        if n != 0:
            z = z - n
            w = ModularElement(1, -n, 0, 1).compose(w)
        if abs(z) < 1.0 - _BOUNDARY_TOL:
            z = S.act_on_uhp(z)
            w = S.compose(w)
        else:
            break
    else:
        raise ValidationError(f"fundamental-domain reduction did not terminate for {tau}")
    if z.real <= -0.5 + _BOUNDARY_TOL:
        z = z + 1.0
        w = T.compose(w)
    if abs(abs(z) - 1.0) <= _BOUNDARY_TOL and z.real < -_BOUNDARY_TOL:
        z = S.act_on_uhp(z)
        w = S.compose(w)
    return FundamentalDomainPoint(z, w)


def wrap_unit(x):
    """Coordinates mod 1 into [0, 1)."""
    return np.mod(np.asarray(x, dtype=float), 1.0)


def wrap_centered(x):
    """Coordinates mod 1 into [-1/2, 1/2)."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x + 0.5)


def p_tau(tau: complex, x1, x2):
    """Chart p_tau(x) = x1 + tau*x2 into the fundamental parallelogram."""
    return np.asarray(x1) + complex(tau) * np.asarray(x2)


def c_tau(tau: complex, z):
    """Inverse chart: c_tau(z) = (Re z - Im z * Re tau / Im tau, Im z / Im tau)."""
    tau = complex(tau)
    z = np.asarray(z, dtype=complex)
    x2 = z.imag / tau.imag
    x1 = z.real - z.imag * tau.real / tau.imag
    return x1, x2
