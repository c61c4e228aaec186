"""MAP estimation and the low-rank Gaussian approximation of the posterior.

compute_map runs an inexact Newton-CG iteration, preconditioned by the prior
covariance, on the negative log-posterior (misfit plus prior quadratic). The
curvature of the misfit at the MAP point is then compressed by a double-pass
randomized solver for the generalized eigenproblem  H_misfit v = lam C^{-1} v,
and the retained pairs define a Gaussian N(m_map, H^{-1}) whose covariance
actions use the low-rank Sherman-Morrison-Woodbury form
H^{-1} = C - V diag(lam/(1+lam)) V^T.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import ExperimentConfig, validate
from .models import ModelEvaluationError
from .targets import PosteriorTarget

logger = logging.getLogger(__name__)

GAUSS_NEWTON_ITERS = 5  # leading Newton steps that use the Gauss-Newton Hessian
MAX_CG_ITERS = 200      # inner CG iterations per Newton step
ARMIJO_C = 1e-4         # sufficient-decrease constant of the line search
BACKTRACK = 0.5         # step-length factor per backtracking step
MAX_BACKTRACKS = 30     # backtracking steps before the line search counts as stalled


class MapConvergenceError(RuntimeError):
    def __init__(self, grad_norm, iterations, m):
        super().__init__(
            f"Newton iteration did not converge in {iterations} steps; "
            f"final gradient norm {grad_norm:.3e}")
        self.grad_norm = grad_norm
        self.iterations = iterations
        self.m = m


class EigensolverBreakdown(RuntimeError):
    """The randomized sketch lost rank during orthonormalization."""


@dataclass
class MapResult:
    m: np.ndarray
    cost: float
    grad_norm: float
    iterations: int
    converged: bool
    cost_history: list = field(default_factory=list)
    cg_iterations: int = 0
    reason: str = "gradient"


def _cg_newton_direction(hess_apply, grad, forcing, max_iters, precond):
    """Steihaug preconditioned CG on H d = -g with negative-curvature exit.

    precond applies the preconditioner P ~ H^{-1}. Stops when the
    P-norm of the residual, sqrt(r^T P r), falls to forcing * sqrt(g^T P g).
    Returns (d, iterations); on negative curvature at the first iteration d
    is the preconditioned steepest descent -P g.
    """
    d = np.zeros_like(grad)
    r = -grad
    z = precond(r)
    p = z
    rz = r @ z
    tol = forcing * math.sqrt(rz)
    for j in range(max_iters):
        hp = hess_apply(p)
        php = p @ hp
        if php <= 0:
            # Negative curvature: fall back to the last iterate, or
            # preconditioned steepest descent if it happens immediately.
            if j == 0:
                return p, j + 1
            return d, j + 1
        alpha = rz / php
        d += alpha * p
        r -= alpha * hp
        z = precond(r)
        rz_new = r @ z
        if math.sqrt(rz_new) <= tol:
            return d, j + 1
        p = z + (rz_new / rz) * p
        rz = rz_new
    return d, max_iters


def compute_map(model, prior, m0: np.ndarray | None = None,
                cfg: ExperimentConfig | None = None) -> MapResult:
    """Minimize the negative log-posterior of PosteriorTarget(model, prior)
    by inexact Newton-PCG.

    CG is preconditioned by the prior covariance C, as in hIPPYlib, so its
    iteration count is bounded by the number of data-informed directions
    rather than by the mesh size. The tolerances and iteration limit are
    cfg's newton.* keys (default ExperimentConfig()), validated first. Uses
    the Gauss-Newton Hessian for the first GAUSS_NEWTON_ITERS iterations,
    Eisenstat-Walker forcing min(0.5, sqrt(|g|/|g0|)) on the C-norm of the
    inner residual, and Armijo backtracking with slack for the rounding error
    of the cost. The outer stopping test is on the Euclidean |g|. Raises
    MapConvergenceError if the gradient norm target is not reached.
    """
    cfg = cfg or ExperimentConfig()
    validate(cfg)
    target = PosteriorTarget(model, prior)
    state = target.make_state(
        np.array(prior.mean if m0 is None else m0, dtype=float))
    cost = -state.log_posterior
    grad = -state.grad_log_posterior
    gnorm0 = float(np.linalg.norm(grad))
    tol = max(cfg.newton_grad_abs_tol, cfg.newton_grad_rel_tol * gnorm0)
    history = [cost]
    cg_total = 0

    for it in range(cfg.newton_max_iters + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return MapResult(state.m, cost, gnorm, it, True, history, cg_total)
        if it == cfg.newton_max_iters:
            raise MapConvergenceError(gnorm, it, state.m)

        gauss_newton = it < GAUSS_NEWTON_ITERS
        forcing = min(0.5, math.sqrt(gnorm / gnorm0))

        def hess_apply(v, _state=state.model_state, _gn=gauss_newton):
            return _state.hessian_action(v, gauss_newton=_gn) + prior.apply_precision(v)

        direction, cg_iters = _cg_newton_direction(
            hess_apply, grad, forcing, MAX_CG_ITERS, prior.apply_covariance)
        cg_total += cg_iters
        slope = float(grad @ direction)
        if slope >= 0:
            direction = -prior.apply_covariance(grad)
            slope = float(grad @ direction)

        # Near the minimizer the Armijo decrease falls below the rounding
        # error of the cost itself; allow that much slack, as in the
        # approximate Wolfe test of Hager and Zhang (SIAM J. Optim. 2005).
        cost_slack = 4.0 * np.finfo(float).eps * abs(cost)
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            try:
                trial = target.make_state(state.m + alpha * direction)
                trial_cost = -trial.log_posterior
            except ModelEvaluationError:
                trial_cost = np.inf
            if trial_cost <= cost + ARMIJO_C * alpha * slope + cost_slack:
                break
            alpha *= BACKTRACK
        else:
            # Sufficient decrease is unattainable at this precision; stop at
            # the best point rather than looping without progress.
            logger.warning("line search stalled at iteration %d, |grad| = %.3e",
                           it, gnorm)
            return MapResult(state.m, cost, gnorm, it, False, history, cg_total,
                             reason="line_search_stall")

        state, cost = trial, trial_cost
        grad = -state.grad_log_posterior
        history.append(cost)


def _chol_qr(Y: np.ndarray, inner_apply) -> np.ndarray:
    """Orthonormalize the columns of Y in the inner_apply inner product.

    A Euclidean QR pass first tames the conditioning of the sketch (its
    columns span many orders of magnitude when the spectrum decays fast);
    two weighted Cholesky-QR passes then enforce the requested inner product.
    """
    q, _ = np.linalg.qr(Y)
    for _ in range(2):
        z = inner_apply(q)
        gram = q.T @ z
        gram = 0.5 * (gram + gram.T)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise EigensolverBreakdown(
                "sketch became rank deficient during orthonormalization") from exc
        q = scipy.linalg.solve_triangular(chol, q.T, lower=True).T
    return q


def doublepass_randomized_eig(hess_action, prior, k: int, p: int = 20,
                              rng: np.random.Generator | None = None):
    """Dominant pairs of the generalized problem H v = lam C^{-1} v.

    First pass applies C * H once to a Gaussian block of k+p columns to
    capture the dominant range; the block is then orthonormalized against
    C^{-1} and a second pass of H builds the small projected problem.
    Returns (lam, V) with lam descending and V^T C^{-1} V = I.
    """
    rng = rng or np.random.default_rng(0)
    n = prior.dim
    if k + p > n:
        raise ValueError(f"requested {k}+{p} columns exceeds dimension {n}")
    omega = rng.standard_normal((n, k + p))
    y = np.column_stack(
        [prior.apply_covariance(hess_action(omega[:, j])) for j in range(k + p)])
    if not np.abs(y).max() > 0:
        raise EigensolverBreakdown("operator annihilated the Gaussian sketch")
    q = _chol_qr(y, prior.apply_precision)
    hq = np.column_stack([hess_action(q[:, j]) for j in range(k + p)])
    t = q.T @ hq
    t = 0.5 * (t + t.T)
    lam, s = np.linalg.eigh(t)
    order = np.argsort(lam)[::-1][:k]
    return lam[order], q @ s[:, order]


def truncate_spectrum(lam: np.ndarray, vecs: np.ndarray, threshold: float = 1.0):
    """Keep the pairs with lam > threshold; an empty result is legitimate."""
    lam = np.asarray(lam, dtype=float)
    if np.any(np.diff(lam) > 0):
        raise ValueError("eigenvalues must be sorted descending")
    r = int(np.sum(lam > threshold))
    return lam[:r], vecs[:, :r]


class LaplaceApprox:
    """Gaussian N(m_map, H^{-1}) with H = C^{-1} + V diag(lam) V^T C^{-1}-style
    low-rank curvature, exposing the same operator interface as the prior.

    The log density is reported up to a fixed additive constant (zero at the
    mean); every consumer uses only differences.
    """

    def __init__(self, prior, m_map: np.ndarray, lam: np.ndarray, vecs: np.ndarray):
        lam = np.asarray(lam, dtype=float)
        vecs = np.asarray(vecs, dtype=float)
        if vecs.shape != (prior.dim, lam.size):
            raise ValueError("eigenvector block has wrong shape")
        self.prior = prior
        self.m_map = np.asarray(m_map, dtype=float)
        self.lam = lam
        self.vecs = vecs
        self.rank = lam.size
        self._d = lam / (1.0 + lam)
        # S = S_prior (I + U diag(corr) U^T) is the sampling factor.
        self._corr = 1.0 / np.sqrt(1.0 + lam) - 1.0
        # W = C^{-1} V drives precision actions and subspace projections;
        # U = M^{-1/2} A V is the orthonormal block of the sampling factor.
        self._w = prior.apply_precision(vecs)
        self._u = prior.apply_cov_factor_inv(vecs)

    @classmethod
    def from_spectrum(cls, prior, m_map, lam, vecs, threshold: float = 1.0):
        lam_r, v_r = truncate_spectrum(lam, vecs, threshold)
        return cls(prior, m_map, lam_r, v_r)

    @property
    def dim(self) -> int:
        return self.prior.dim

    @property
    def mean(self) -> np.ndarray:
        return self.m_map

    def project(self, m: np.ndarray) -> np.ndarray:
        """Coefficients of m along the retained directions: V^T C^{-1} m."""
        return self._w.T @ m

    def apply_covariance(self, v: np.ndarray) -> np.ndarray:
        """Sherman-Morrison-Woodbury action (C - V D V^T) v."""
        return self.prior.apply_covariance(v) - self.vecs @ (self._d * (self.vecs.T @ v))

    def apply_precision(self, v: np.ndarray) -> np.ndarray:
        """H v = C^{-1} v + W diag(lam) W^T v with W = C^{-1} V."""
        return self.prior.apply_precision(v) + self._w @ (self.lam * (self._w.T @ v))

    def apply_cov_factor(self, z: np.ndarray) -> np.ndarray:
        """Factor S with S S^T = H^{-1}, built from the prior factor."""
        z = z + self._u @ (self._corr * (self._u.T @ z))
        return self.prior.apply_cov_factor(z)

    def apply_cov_factor_t(self, v: np.ndarray) -> np.ndarray:
        """S^T v = (I + U diag(corr) U^T) S_prior^T v."""
        y = self.prior.apply_cov_factor_t(v)
        return y + self._u @ (self._corr * (self._u.T @ y))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(self.dim)
        return self.m_map + self.apply_cov_factor(z)

    def log_density(self, m: np.ndarray) -> float:
        d = m - self.m_map
        c = self._w.T @ d
        quad = d @ self.prior.apply_precision(d) + float(self.lam @ (c * c))
        return -0.5 * float(quad)
