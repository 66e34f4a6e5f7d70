"""Shared run-configuration records for Monte Carlo estimators.

Resolution ties the chaos regularization to the sampling grid: with
cutoff N the field is evaluated on a G x G grid, G = grid_factor*(N+1),
and the default circle radius is twice the metric grid spacing
sqrt(Im tau)/G.  Scaling experiments override eps explicitly and keep
N proportional to 1/eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["MonteCarloConfig", "FieldResolution"]


@dataclass(frozen=True)
class MonteCarloConfig:
    """Replica budget and random-stream bookkeeping for one estimator run."""

    replicas: int = 1000
    seed: int = 0
    base_stream: int = 0

    def __post_init__(self):
        if self.replicas < 2:
            raise ValidationError("need at least 2 replicas")


@dataclass(frozen=True)
class FieldResolution:
    """Spectral cutoff, evaluation grid and circle radius for one run."""

    cutoff: int = 32
    grid_factor: int = 4
    eps: float | None = None

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValidationError("cutoff must be at least 1")
        if self.grid_factor < 2:
            raise ValidationError("grid_factor below 2 aliases the Fourier box")
        if self.eps is not None and not self.eps > 0:
            raise ValidationError("eps must be positive when given")

    @property
    def grid(self) -> int:
        return self.grid_factor * (self.cutoff + 1)

    def eps_for(self, tau):
        """eps, a scalar, else 2 sqrt(Im tau)/G at tau or an array of moduli."""
        return self.eps if self.eps is not None else 2.0 * np.sqrt(np.imag(tau)) / self.grid
