"""Posterior targets and chain states for the samplers and the MAP.

A target turns parameter vectors into ChainStates carrying the cached
log-posterior and (lazily) the gradients that gradient-based proposals
need. PosteriorTarget composes a forward model with a Gaussian prior; the
samplers and the Newton-CG MAP (laplace.compute_map) both evaluate the
posterior through it.
"""

from __future__ import annotations

import numpy as np

from .models import ModelEvaluationError


class ChainState:
    """One evaluated point of a target, with lazy gradient caches.

    cache holds proposal quantities computed at this point: Langevin
    whitened gradients keyed by reference, and the log density of an
    independent proposal at this point keyed by ("log_density", proposal)
    (see pdebayes.mcmc).
    """

    __slots__ = ("target", "m", "log_posterior", "_grad_phi", "_grad_logpost",
                 "_grad_prior", "model_state", "cache")

    def __init__(self, target, m, log_posterior, model_state=None,
                 grad_prior=None):
        self.target = target
        self.m = m
        self.log_posterior = log_posterior
        self.model_state = model_state
        self._grad_phi = None
        self._grad_logpost = None
        self._grad_prior = grad_prior
        self.cache = {}

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
    """Unnormalized log posterior -misfit(m) - 0.5 |m - mean|^2_{C^{-1}} over a
    forward model."""

    supports_gradient = True

    def __init__(self, model, prior):
        self.model = model
        self.prior = prior

    @property
    def dim(self) -> int:
        return self.prior.dim

    def make_state(self, m: np.ndarray) -> ChainState:
        """The state at m; ModelEvaluationError if its log posterior is not finite."""
        model_state = self.model.evaluate(m)
        # The prior quadratic 0.5 (m - mean)^T C^{-1} (m - mean), through the prior
        # gradient that fill_gradient reuses: one precision action per state.
        grad_prior = self.prior.grad(m)
        log_post = -model_state.cost - 0.5 * float((m - self.prior.mean) @ grad_prior)
        if not np.isfinite(log_post):
            raise ModelEvaluationError(f"log posterior {log_post} at evaluated point")
        return ChainState(self, np.asarray(m, dtype=float), log_post, model_state,
                          grad_prior)

    def fill_gradient(self, state: ChainState) -> None:
        state._grad_phi = state.model_state.gradient()
        state._grad_logpost = -state._grad_phi - state._grad_prior

    def qoi(self, state: ChainState) -> float:
        try:
            return state.model_state.qoi()
        except ModelEvaluationError:
            return float("nan")

    @property
    def solve_total(self) -> int:
        counter = getattr(self.model, "counter", None)
        return counter.total if counter is not None else 0
