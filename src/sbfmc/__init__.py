"""Multicast stochastic beamforming: achievable-rate formulas with
independent quadrature and Monte Carlo oracles, seeded samplers, a max-min
covariance solver and a symbol-level link simulator.

Import rule: `import sbfmc` loads numpy and no scipy module.  No command
loads scipy.special; scipy.spatial loads on the first precoded ML search."""

from . import backend, capacity, gainlaws, linksim, rates, sampling, schemes, specfun

__version__ = "0.1.0"

__all__ = ["backend", "capacity", "gainlaws", "linksim", "rates", "sampling", "schemes", "specfun"]
