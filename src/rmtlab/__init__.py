"""rmtlab: a numerical laboratory for random matrix universality.

Its modules expose, in dependency order: special functions (specfun),
closed-form universal kernels and Pfaffian correlations (kernels),
equilibrium measures for polynomial external fields (equilibrium),
finite-n orthogonal-polynomial kernels (orthopoly), the Deift-Zhou
steepest-descent objects (rh), Monte Carlo ensembles (mc), and a command
line front end (cli).
"""

from . import specfun, kernels, equilibrium, orthopoly, rh, mc

__version__ = "0.1.0"

__all__ = ["specfun", "kernels", "equilibrium", "orthopoly", "rh", "mc", "__version__"]
