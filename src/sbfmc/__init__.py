"""Multicast stochastic beamforming: achievable-rate formulas with
independent quadrature and Monte Carlo oracles, seeded samplers, a max-min
covariance solver and a symbol-level link simulator.

Import rule: `import sbfmc` loads numpy and no scipy module.  scipy.special
is imported on the first mixture or elliptic-Alamouti CDF call, and
scipy.spatial on the first precoded ML search, so the commands that need
neither (`rates`, `gaps`, `solve-cov`, `ber` on the weighted schemes) never
pay for them."""

from . import backend, capacity, gainlaws, hypoexp, linksim, rates, sampling, specfun

__version__ = "0.1.0"

__all__ = [
    "backend",
    "capacity",
    "gainlaws",
    "hypoexp",
    "linksim",
    "rates",
    "sampling",
    "specfun",
]
