"""Bayesian inversion for PDE models.

Forward/adjoint Poisson model on the unit square, bi-Laplacian Gaussian
field prior, MAP estimation with a low-rank Laplace posterior
approximation, geometry-aware MCMC kernels, and multi-chain convergence
diagnostics, plus a CLI driving the full pipeline.
"""

from .config import (ConfigError, ExperimentConfig, load_config, parse_config,
                     serialize, validate)
from .diagnostics import (DiagnosticsReport, autocorrelation, ess, mpsrf,
                          qoi_moments, summarize, vhat, within_between_cov)
from .fem import (Mesh, SpdSolver, assemble_boundary_mass, assemble_mass,
                  assemble_stiffness, band_storage, build_unit_square_mesh,
                  point_observation_operator)
from .laplace import (LaplaceApprox, MapConvergenceError, compute_map,
                      doublepass_randomized_eig, truncate_spectrum)
from .mcmc import (AutoregressiveProposal, ChainRecord, DiliKernel,
                   DimensionRobustLangevinProposal, DRKernel, LangevinProposal,
                   MHKernel, RandomWalkProposal, run_chain)
from .models import (LinearizedPoissonProblem, ModelEvaluationError,
                     PoissonProblem, generate_synthetic_data)
from .prior import BiLaplacianPrior, anisotropy_tensor
from .targets import ChainState, PosteriorTarget

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
