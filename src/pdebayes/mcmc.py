"""Transition kernels and proposal distributions over the posterior.

Seven Gaussian proposals (random walk, pCN, MALA, the dimension-robust
Langevin move inf-MALA, and their curvature-informed counterparts using the
low-rank posterior Gaussian) share one template: a state-dependent mean plus
a scaled reference covariance whose square root and precision are applied
through prior or Laplace factor operations, never densely. A proposal
enters the acceptance ratio through its log ratio
log q(b -> a) - log q(a -> b), by default the difference of two log
densities. The Langevin moves (MALA, inf-MALA and their curvature-informed
versions, one class with two step parametrizations) work through the
reference's square-root factor S instead: each state keeps
w = S^T grad log pi once, a move is one factor action, and the log ratio has
a closed form in the gradients and w that needs no precision action. The
kernels (Metropolis-Hastings, delayed rejection, and the subspace Gibbs
sampler over the likelihood-informed directions) combine freely with the
proposals; delayed rejection evaluates each density and log ratio once per
step, and the density of a proposal whose mean does not depend on the state
(pCN at beta = 1) once per state.
All acceptance arithmetic is in log space.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .models import ModelEvaluationError
from .targets import ChainState

logger = logging.getLogger(__name__)

LOG_HALF = math.log(0.5)


def _log1m_exp(log_p: float) -> float:
    """log(1 - exp(log_p)) for log_p <= 0; -inf when log_p >= 0."""
    if log_p >= 0.0:
        return -math.inf
    if log_p < LOG_HALF:
        return math.log1p(-math.exp(log_p))
    return math.log(-math.expm1(log_p))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class GaussianProposal:
    """Gaussian proposal with covariance scale^2 times a reference covariance.

    Subclasses define the state-dependent mean. Log densities are reported
    up to the (state-independent) normalizing constant, evaluated through
    the reference precision. sample draws z and hands it to draw, and log_ratio
    is the proposal's term of the acceptance ratio; a subclass with a
    cheaper closed form overrides those two, not sample or log_density.
    """

    requires_gradient = False
    # True when the mean does not depend on the state, so that q(a -> b)
    # depends on b only (see DRKernel.step).
    independent = False

    def __init__(self, reference, scale: float):
        if scale <= 0:
            raise ValueError("proposal scale must be positive")
        self.reference = reference
        self.scale = scale

    def mean(self, state: ChainState) -> np.ndarray:
        raise NotImplementedError

    def sample(self, state: ChainState, rng: np.random.Generator) -> np.ndarray:
        return self.draw(state, rng.standard_normal(self.reference.dim))

    def draw(self, state: ChainState, z: np.ndarray) -> np.ndarray:
        """The proposed point for the standard normal vector z."""
        return self.mean(state) + self.scale * self.reference.apply_cov_factor(z)

    def log_density(self, from_state: ChainState, to: np.ndarray) -> float:
        d = to - self.mean(from_state)
        quad = float(d @ self.reference.apply_precision(d))
        return -0.5 * quad / self.scale**2

    def log_ratio(self, a: ChainState, b: ChainState, log_q) -> float:
        """log q(b -> a) - log q(a -> b) for a move from state a to state b.

        log_q(x, y) is the caller's evaluation of log_density from state x
        to state y, which may be a memo.
        """
        return log_q(b, a) - log_q(a, b)


class RandomWalkProposal(GaussianProposal):
    """Centered at the current state; covariance step^2 times the reference."""

    def mean(self, state: ChainState) -> np.ndarray:
        return state.m


class AutoregressiveProposal(GaussianProposal):
    """Crank-Nicolson style contraction toward the reference mean.

    With the prior as reference this is the preconditioned Crank-Nicolson
    proposal (a prior draw at beta = 1); with the low-rank posterior Gaussian
    it becomes its curvature-informed variant.
    """

    def __init__(self, reference, beta: float):
        if not 0 < beta <= 1:
            raise ValueError(f"autoregressive parameter beta must be in (0, 1], got {beta}")
        super().__init__(reference, beta)
        self.beta = beta
        self._keep = math.sqrt(1.0 - beta**2)
        # At beta = 1 the mean adds 0.0 * (m - ref_mean): it is exactly the
        # reference mean at every state.
        self.independent = beta == 1.0

    def mean(self, state: ChainState) -> np.ndarray:
        ref_mean = self.reference.mean
        return ref_mean + self._keep * (state.m - ref_mean)


class LangevinProposal(GaussianProposal):
    """Langevin move preconditioned by the reference: mean
    m + tau * Cov * grad log pi(m), covariance scale^2 Cov.

    The default scale sqrt(2 tau) is the one-step Euler-Maruyama move (MALA).
    With S the reference's square-root factor (S S^T = Cov) and
    w = S^T grad log pi(m), kept once per state, a move is
    m + S (tau w + scale z): one factor action. The acceptance ratio's
    proposal term has a closed form in the gradients and w (log_ratio), with
    no reference precision action.
    """

    requires_gradient = True

    def __init__(self, reference, tau: float, scale: float | None = None):
        if tau <= 0:
            raise ValueError("Langevin step size tau must be positive")
        super().__init__(reference, math.sqrt(2.0 * tau) if scale is None else scale)
        self.tau = tau
        # c = tau / scale^2, the log ratio's coefficient: exactly 1/2 for MALA.
        self._c = 0.5 if scale is None else tau / scale**2

    def mean(self, state: ChainState) -> np.ndarray:
        return state.m + self.tau * self.reference.apply_covariance(
            state.grad_log_posterior)

    def _whitened_gradient(self, state: ChainState) -> np.ndarray:
        """w = S^T grad log pi(m), kept read-only in state.cache under the
        reference, so proposals on one reference share it."""
        ref = self.reference
        w = state.cache.get(ref)
        if w is None:
            w = state.cache[ref] = _read_only(
                ref.apply_cov_factor_t(state.grad_log_posterior))
        return w

    def draw(self, state: ChainState, z: np.ndarray) -> np.ndarray:
        w = self._whitened_gradient(state)
        return state.m + self.reference.apply_cov_factor(self.tau * w + self.scale * z)

    def log_ratio(self, a: ChainState, b: ChainState, log_q=None) -> float:
        """-c d.(g_a + g_b) - (c tau/2)(|w_b|^2 - |w_a|^2), d = b - a: the
        log_density difference in closed form (its d^T Cov^{-1} d terms
        cancel), so log_q is not needed."""
        w_a, w_b = self._whitened_gradient(a), self._whitened_gradient(b)
        d = b.m - a.m
        c = self._c
        return (-c * float(d @ (a.grad_log_posterior + b.grad_log_posterior))
                - 0.5 * c * self.tau * (float(w_b @ w_b) - float(w_a @ w_a)))


class DimensionRobustLangevinProposal(LangevinProposal):
    """Preconditioned Crank-Nicolson Langevin move (Cotter et al., Stat. Sci.
    2013), well defined under mesh refinement.

    The Langevin move with tau = 2h/(4+h) and scale beta = 4 sqrt(h)/(4+h).
    With the prior as reference its mean is rho m + (1-rho)(mean - C grad
    misfit), rho = (4-h)/(4+h); with the low-rank posterior Gaussian it is
    the curvature-informed variant.
    """

    def __init__(self, reference, h: float):
        if h <= 0:
            raise ValueError("step parameter h must be positive")
        super().__init__(reference, 2.0 * h / (4.0 + h), 4.0 * math.sqrt(h) / (4.0 + h))

    # An attribute of its own, so that each proposal class can be wrapped
    # separately from outside.
    mean = LangevinProposal.mean


# ---------------------------------------------------------------------------
# Delayed rejection, and Metropolis-Hastings as its one-stage case
# ---------------------------------------------------------------------------

def dr_accept_log_prob(proposals, current: ChainState, rejected: list,
                       proposed: ChainState, log_q=None, log_r=None) -> float:
    """Recursive stage acceptance probability of the delayed rejection rule.

    rejected holds the states turned down at stages 1..j-1; proposed is the
    stage-j candidate. log_q(k, a, b) is the stage-(k+1) proposal log density
    from state a to state b, and log_r(k, a, b) that proposal's log_ratio
    log q(b -> a) - log q(a -> b), given log_q for its densities. By default
    both are evaluated on every call; DRKernel.step passes memos of the step,
    since the recursion asks for the same terms many times. A unit acceptance
    probability in a denominator forces rejection of the branch (the event
    has probability zero in the continuous setting, so stationarity is
    unaffected). A NaN ratio is returned as NaN, for _accept to reject.
    """
    if log_q is None:
        def log_q(k, a, b):
            return proposals[k].log_density(a, b.m)
    if log_r is None:
        def log_r(k, a, b):
            return proposals[k].log_ratio(a, b, lambda x, y: log_q(k, x, y))
    j = len(rejected) + 1
    log_gamma = (proposed.log_posterior - current.log_posterior
                 + log_r(j - 1, current, proposed))
    for k in range(1, j):
        log_gamma += (log_q(k - 1, proposed, rejected[j - k - 1])
                      - log_q(k - 1, current, rejected[k - 1]))
        # Reversed path: from the stage-j candidate back through the
        # rejected states in reverse order.
        fwd = dr_accept_log_prob(proposals, proposed, rejected[j - k:][::-1],
                                 rejected[j - k - 1], log_q, log_r)
        bwd = dr_accept_log_prob(proposals, current, rejected[:k - 1],
                                 rejected[k - 1], log_q, log_r)
        log_num = _log1m_exp(fwd)
        log_den = _log1m_exp(bwd)
        if log_den == -math.inf:
            return -math.inf
        log_gamma += log_num - log_den
    if math.isnan(log_gamma):
        return log_gamma   # min(0.0, nan) would be 0.0
    return min(0.0, log_gamma)


def _accept(rng: np.random.Generator, log_alpha: float) -> bool:
    """The Metropolis test: accept with probability exp(min(0, log_alpha)).

    A NaN ratio rejects without drawing from rng, with a warning.
    """
    if math.isnan(log_alpha):
        logger.warning("NaN acceptance ratio; rejecting the proposed point")
        return False
    return math.log(max(rng.random(), 1e-300)) < log_alpha


class DRKernel:
    """Delayed rejection through an ordered sequence of proposals."""

    def __init__(self, proposals):
        if len(proposals) < 1:
            raise ValueError("delayed rejection needs at least one proposal")
        self.proposals = list(proposals)
        self.n_stages = len(self.proposals)

    def step(self, target, current: ChainState, rng: np.random.Generator):
        """One transition: (state, CSV code, attempted, accepted); see run_chain.

        A model failure or a NaN acceptance ratio at stage j ends the step,
        so later stages count as not attempted. Every later stage's ratio
        contains the stage-j one (through 1 - alpha_j), so after a NaN it
        would be NaN too: stopping saves its sample and model evaluation.
        """
        attempted = np.zeros(self.n_stages, dtype=np.int64)
        accepted = np.zeros(self.n_stages, dtype=np.int64)
        rejected = []
        proposals = self.proposals
        # Proposal log densities and log ratios of this step, each evaluated
        # once per stage and pair of states (ChainState hashes by identity).
        # An independent proposal's density, a function of b only, is kept in
        # b.cache under a tuple key, which no proposal or reference equals.
        @functools.cache
        def log_q(k, a, b):
            proposal = proposals[k]
            if not proposal.independent:
                return proposal.log_density(a, b.m)
            key = ("log_density", proposal)
            value = b.cache.get(key)
            if value is None:
                value = b.cache[key] = proposal.log_density(a, b.m)
            return value

        @functools.cache
        def log_r(k, a, b):
            return proposals[k].log_ratio(a, b, lambda x, y: log_q(k, x, y))

        for j, proposal in enumerate(self.proposals):
            attempted[j] = 1
            try:
                proposed = target.make_state(proposal.sample(current, rng))
                log_alpha = dr_accept_log_prob(proposals, current, rejected,
                                               proposed, log_q, log_r)
            except ModelEvaluationError as exc:
                logger.warning("model failure at stage-%d point: %s", j + 1, exc)
                return current, 0, attempted, accepted
            if _accept(rng, log_alpha):
                accepted[j] = 1
                return proposed, j + 1, attempted, accepted
            if math.isnan(log_alpha):
                return current, 0, attempted, accepted
            rejected.append(proposed)
        return current, 0, attempted, accepted


class MHKernel(DRKernel):
    """Single-proposal Metropolis-Hastings: delayed rejection with one stage."""

    def __init__(self, proposal):
        super().__init__([proposal])

    # An attribute of its own, so that each kernel class can be wrapped
    # separately from outside.
    step = DRKernel.step


# ---------------------------------------------------------------------------
# Subspace Metropolis-within-Gibbs over the informed directions
# ---------------------------------------------------------------------------

class DiliKernel:
    """Gibbs scan: informed-subspace move, then pCN in the complement.

    The state splits as m = V r + c with r the coefficients along the
    retained curvature directions (C^{-1}-orthonormal) and c the oblique
    complement. The r move is Metropolis with a Gaussian proposal whose
    covariance is the subspace posterior Gaussian (1+lam)^{-1} scaled by the
    step lis_step, autoregressive about the MAP coefficients (Cui, Law and
    Marzouk, J. Comput. Phys. 2016), so it is reversible with respect to the
    Laplace approximation restricted to the subspace; the c move is pCN with
    parameter cs_beta against the prior restricted to the complement. Both
    acceptances evaluate the full posterior at the recombined point. A scan
    draws both moves' noise from one prior sample, so the chain depends on
    the retained subspace and not on the signs of its basis vectors.
    """

    n_stages = 2
    proposals = ()      # neither move uses gradients

    def __init__(self, laplace, lis_step: float, cs_beta: float):
        if laplace.rank < 1:
            raise ValueError("subspace kernel needs at least one retained direction")
        if not 0 < cs_beta <= 1:
            raise ValueError("complement-space beta must be in (0, 1]")
        if not 0 < lis_step <= 1:
            raise ValueError("subspace step must be in (0, 1]")
        self.laplace = laplace
        self.prior = laplace.prior
        self.lis_step = lis_step
        self.cs_beta = cs_beta
        self.vecs = laplace.vecs
        lam = laplace.lam
        self._lis_sd = np.sqrt(lis_step / (1.0 + lam))
        self._lis_prec = (1.0 + lam) / lis_step
        self._r_map = laplace.project(laplace.m_map)
        self._c_prior = self.prior.mean - self.vecs @ laplace.project(self.prior.mean)

    def split(self, m: np.ndarray):
        r = self.laplace.project(m)
        return r, m - self.vecs @ r

    def _lis_mean(self, r: np.ndarray) -> np.ndarray:
        return self._r_map + math.sqrt(1.0 - self.lis_step) * (r - self._r_map)

    def _lis_log_density(self, r_from: np.ndarray, r_to: np.ndarray) -> float:
        d = r_to - self._lis_mean(r_from)
        return -0.5 * float(d @ (self._lis_prec * d))

    def step(self, target, current: ChainState, rng: np.random.Generator):
        """One Gibbs scan: (state, CSV code, attempted, accepted); see run_chain.

        Both moves are attempted on every scan; the code is 1 when either
        moved the chain.
        """
        beta = self.cs_beta
        attempted = np.ones(2, dtype=np.int64)
        r, c = self.split(current.m)
        # One prior draw for both moves, split like the state: its
        # coefficients are standard normal and independent of its complement
        # part, and V r_noise does not depend on the signs of V's columns.
        r_noise, c_noise = self.split(
            self.prior.apply_cov_factor(rng.standard_normal(self.prior.dim)))

        # Informed-subspace move at c fixed.
        r_prop = self._lis_mean(r) + self._lis_sd * r_noise
        mid = current
        lis_accepted = 0
        try:
            candidate = target.make_state(current.m + self.vecs @ (r_prop - r))
            log_alpha = (candidate.log_posterior - current.log_posterior
                         + self._lis_log_density(r_prop, r)
                         - self._lis_log_density(r, r_prop))
            if _accept(rng, log_alpha):
                mid, lis_accepted = candidate, 1
                r = r_prop
        except ModelEvaluationError as exc:
            logger.warning("model failure in subspace move: %s", exc)

        # Complement move at r fixed: pCN against the prior restricted to
        # the complement; the prior quadratic form splits exactly across the
        # two components, so the correction uses the full prior precision.
        keep = math.sqrt(1.0 - beta**2)
        c_prop = self._c_prior + keep * (c - self._c_prior) + beta * c_noise
        try:
            candidate = target.make_state(mid.m + (c_prop - c))
            d_fwd = c_prop - self._c_prior - keep * (c - self._c_prior)
            d_bwd = c - self._c_prior - keep * (c_prop - self._c_prior)
            p_bwd = self.prior.apply_precision(d_bwd)
            p_fwd = self.prior.apply_precision(d_fwd)
            corr = -0.5 / beta**2 * (float(d_bwd @ p_bwd) - float(d_fwd @ p_fwd))
            log_alpha = candidate.log_posterior - mid.log_posterior + corr
            if _accept(rng, log_alpha):
                return candidate, 1, attempted, np.array([lis_accepted, 1])
        except ModelEvaluationError as exc:
            logger.warning("model failure in complement move: %s", exc)
        return mid, lis_accepted, attempted, np.array([lis_accepted, 0])


# ---------------------------------------------------------------------------
# Chain execution
# ---------------------------------------------------------------------------

@dataclass
class ChainRecord:
    """Per-iteration record of one chain plus acceptance/solve accounting."""

    coords: np.ndarray            # (N, k) projected coefficients
    qoi: np.ndarray               # (N,) with NaN for failed evaluations
    log_posterior: np.ndarray     # (N,)
    accepted: np.ndarray          # (N,) stage index or 0/1 flag
    stage_attempts: np.ndarray
    stage_accepts: np.ndarray
    solves: int
    seed: int
    kernel_name: str

    @property
    def n_steps(self) -> int:
        return self.log_posterior.size

    def acceptance_rates(self) -> np.ndarray:
        att = np.maximum(self.stage_attempts, 1)
        return self.stage_accepts / att


def run_chain(target, kernel, start: np.ndarray, n_steps: int, seed: int,
              projector=None, kernel_name: str = "") -> ChainRecord:
    """Apply the kernel n_steps times, recording projections and the QoI.

    Every kernel's step returns (state, code, attempted, accepted): code is
    the CSV `accepted` value (the accepting stage, 0 for none, or a 0/1 move
    flag), and attempted and accepted are 0/1 vectors over kernel.n_stages.
    Deterministic for fixed inputs: the chain owns a fresh generator seeded
    with `seed`. Model failures at proposed points reject the move and are
    logged; QoI failures record NaN for that sample only.
    """
    if n_steps < 1:
        raise ValueError("chain length must be at least 1")
    if (any(p.requires_gradient for p in kernel.proposals)
            and not target.supports_gradient):
        raise ValueError("proposal needs gradients the target cannot provide")
    rng = np.random.default_rng(seed)
    state = target.make_state(np.asarray(start, dtype=float))

    k = 0 if projector is None else projector(state.m).size
    coords = np.empty((n_steps, k))
    qoi = np.empty(n_steps)
    logpost = np.empty(n_steps)
    accepted = np.zeros(n_steps, dtype=np.int64)
    stage_attempts = np.zeros(kernel.n_stages, dtype=np.int64)
    stage_accepts = np.zeros(kernel.n_stages, dtype=np.int64)

    solves0 = target.solve_total
    previous = None
    for i in range(n_steps):
        state, accepted[i], attempted, stage_accepted = kernel.step(target, state, rng)
        stage_attempts += attempted
        stage_accepts += stage_accepted
        if state is previous:
            # A kept state repeats the previous row's QoI and projection.
            coords[i] = coords[i - 1]
            qoi[i] = qoi[i - 1]
        else:
            if k:
                coords[i] = projector(state.m)
            qoi[i] = state.qoi()
            previous = state
        logpost[i] = state.log_posterior

    return ChainRecord(coords=coords, qoi=qoi, log_posterior=logpost,
                       accepted=accepted, stage_attempts=stage_attempts,
                       stage_accepts=stage_accepts,
                       solves=target.solve_total - solves0,
                       seed=seed, kernel_name=kernel_name)
