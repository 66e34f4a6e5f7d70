"""Numerical toolkit for Liouville quantum field theory on complex tori.

Layers, bottom to top: q-series special functions (eta, theta), the
modular group and fundamental-domain reduction, the torus Green function
with three independent evaluation routes, spectral Gaussian free field
sampling with circle-average regularization, Gaussian multiplicative
chaos measures (subcritical and critical), Liouville correlation
functionals with Seiberg gating and exact KPZ mu-scaling, and the
quantum-gravity modulus law over moduli space.  Each layer is a
submodule (special, modular, green, gff, chaos, lqft, lqg, cache, cli);
import names from there.
"""

__version__ = "0.1.0"
