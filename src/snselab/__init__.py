"""Pseudospectral laboratory for the 2D stochastic Navier-Stokes equations
in vorticity form: the semi-implicit Euler / spectral Galerkin scheme, its
nudged coupling, Wasserstein-style distances between ensembles, and the
convergence, contraction, and long-time bias studies built on them."""

__version__ = "0.1.0"

from .errors import (CapacityError, ConfigError, FitError, RangeError, SnseLabError,
                     SolverError, StructuralError)
from .spectral import (SpectralField, SpectralGrid, harmonic_field, load_field, make_grid,
                       random_field, save_field, zero_field)
from .forcing import ForcingBasis, low_mode_basis
from .integrator import (EnsembleRun, SchemeParams, batch_increments, ladder, march,
                         run_scheme)
from .coupling import CoupledPair, NudgeParams, coupled_ensembles, propose_beta
from .measures import (DistanceParams, certify_triangle, wasserstein_coupled_bound,
                       wasserstein_exact)
from .experiments import (InitialCondition, ObservableSpec, RateFit, StudyReport,
                          fit_rate, pathwise_contraction_check)

__all__ = [name for name in dir() if not name.startswith("_")]
