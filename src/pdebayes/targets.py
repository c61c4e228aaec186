"""Posterior targets and chain states for the samplers.

A target turns parameter vectors into ChainStates carrying the cached
log-posterior and (lazily) the gradients that gradient-based proposals
need. PosteriorTarget composes a forward model
with a Gaussian prior; DenseGaussian provides the same operator interface
as the field prior for small dense problems, which makes linear-Gaussian
oracle targets and low-dimensional sampler tests cheap to build.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .models import MODEL_FAILURES


class TargetEvaluationError(RuntimeError):
    """The target could not be evaluated at the requested point."""


class ChainState:
    """One evaluated point of a target, with lazy gradient caches.

    means holds the state-dependent proposal means computed at this point,
    keyed by proposal (see pdebayes.mcmc).
    """

    __slots__ = ("target", "m", "log_posterior", "_grad_phi", "_grad_logpost",
                 "_grad_prior", "model_state", "means")

    def __init__(self, target, m, log_posterior, model_state=None,
                 grad_prior=None):
        self.target = target
        self.m = m
        self.log_posterior = log_posterior
        self.model_state = model_state
        self._grad_phi = None
        self._grad_logpost = None
        self._grad_prior = grad_prior
        self.means = {}

    @property
    def grad_log_posterior(self) -> np.ndarray:
        if self._grad_logpost is None:
            self.target.fill_gradient(self)
        return self._grad_logpost

    @property
    def grad_misfit(self) -> np.ndarray:
        if self._grad_phi is None:
            self.target.fill_gradient(self)
        return self._grad_phi

    def qoi(self) -> float:
        return self.target.qoi(self)


class PosteriorTarget:
    """Unnormalized posterior -misfit(m) - prior.cost(m) over a forward model."""

    supports_gradient = True

    def __init__(self, model, prior):
        self.model = model
        self.prior = prior

    @property
    def dim(self) -> int:
        return self.prior.dim

    def make_state(self, m: np.ndarray) -> ChainState:
        try:
            model_state = self.model.evaluate(m)
        except MODEL_FAILURES as exc:
            raise TargetEvaluationError(str(exc)) from exc
        # The prior cost 0.5 (m - mean)^T C^{-1} (m - mean), through the prior
        # gradient that fill_gradient reuses: one precision action per state.
        grad_prior = self.prior.grad(m)
        log_post = -model_state.cost - 0.5 * float((m - self.prior.mean) @ grad_prior)
        if not np.isfinite(log_post):
            raise TargetEvaluationError(f"log posterior {log_post} at evaluated point")
        return ChainState(self, np.asarray(m, dtype=float), log_post, model_state,
                          grad_prior)

    def fill_gradient(self, state: ChainState) -> None:
        state._grad_phi = state.model_state.gradient()
        state._grad_logpost = -state._grad_phi - state._grad_prior

    def qoi(self, state: ChainState) -> float:
        try:
            return state.model_state.qoi()
        except RuntimeError:
            return float("nan")

    @property
    def solve_total(self) -> int:
        counter = getattr(self.model, "counter", None)
        return counter.total if counter is not None else 0


class CallableTarget:
    """Target wrapping a plain log-density function (test and demo use)."""

    def __init__(self, log_density, grad_log_density=None, dim=None, qoi=None):
        self._logpdf = log_density
        self._grad = grad_log_density
        self._qoi = qoi
        self.dim = dim
        self.supports_gradient = grad_log_density is not None
        self.solve_total = 0

    def make_state(self, m) -> ChainState:
        m = np.asarray(m, dtype=float)
        lp = float(self._logpdf(m))
        if np.isnan(lp):
            raise TargetEvaluationError("log density is NaN")
        return ChainState(self, m, lp)

    def fill_gradient(self, state: ChainState) -> None:
        if self._grad is None:
            raise TargetEvaluationError("target has no gradient")
        g = np.asarray(self._grad(state.m), dtype=float)
        state._grad_logpost = g
        state._grad_phi = -g

    def qoi(self, state: ChainState) -> float:
        if self._qoi is None:
            return float("nan")
        return float(self._qoi(state.m))


class DenseGaussian:
    """Dense N(mean, cov) exposing the field-prior operator interface.

    Suitable as the reference measure of proposals on small problems and as
    the prior of dense oracle targets. The square-root factor is the lower
    Cholesky factor of the covariance.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ValueError("covariance shape does not match the mean")
        if not np.isfinite(self.cov).all():
            raise ValueError("array must not contain infs or NaNs")
        self._chol = np.linalg.cholesky(self.cov)
        # Samplers call apply_precision on every step; LAPACK potrs directly
        # gives cho_solve's result without its per-call wrapper overhead. It
        # reads only the lower triangle, and takes a Fortran-ordered factor
        # without copying it.
        self._cho_lower = np.asfortranarray(self._chol)
        self._potrs, = scipy.linalg.lapack.get_lapack_funcs(
            ("potrs",), (self._cho_lower,))

    @property
    def dim(self) -> int:
        return self.mean.size

    def cost(self, m: np.ndarray) -> float:
        d = m - self.mean
        return 0.5 * float(d @ self.apply_precision(d))

    def grad(self, m: np.ndarray) -> np.ndarray:
        return self.apply_precision(m - self.mean)

    def apply_covariance(self, v: np.ndarray) -> np.ndarray:
        return self.cov @ v

    def apply_precision(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise ValueError("incompatible dimensions")
        if not np.isfinite(v).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = self._potrs(self._cho_lower, v, lower=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x

    def apply_cov_factor(self, z: np.ndarray) -> np.ndarray:
        return self._chol @ z

    def apply_cov_factor_inv(self, v: np.ndarray) -> np.ndarray:
        return scipy.linalg.solve_triangular(self._chol, v, lower=True)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self._chol @ rng.standard_normal(self.dim)
