"""Shared oracle implementations for the test suite.

Deliberately independent of the library code paths: plain loops over
elements instead of vectorized scatter, numpy.linalg instead of sparse
factorizations, and direct transcriptions of the diagnostic formulas. The
Poisson derivative forms are checked against element gathers and the
assembled sparse stiffness (itself checked against the loop assembly).
It also holds what only the tests use of the sampler interface: a target
over a plain log-density function, a dense Gaussian with the field prior's
operator interface, the delayed-rejection acceptance probability, and
readers of the chain CSVs and the report; and, as the reference for exact
equality, the strided ESS code that wrote the existing artifacts.
"""

import math

import numpy as np
import scipy.linalg

from pdebayes.diagnostics import vhat, within_between_cov
from pdebayes.fem import assemble_stiffness
from pdebayes.mcmc import dr_accept_log_prob
from pdebayes.models import ModelEvaluationError
from pdebayes.targets import ChainState


# ---------------------------------------------------------------------------
# Dense finite element assembly (loop-based reference)
# ---------------------------------------------------------------------------

def dense_stiffness(mesh, coeff=None, tensor=None):
    """Triangle-by-triangle P1 stiffness assembly with explicit local solves."""
    n = mesh.num_vertices
    out = np.zeros((n, n))
    for t, tri in enumerate(mesh.triangles):
        pts = mesh.vertices[tri]
        mat = np.column_stack([np.ones(3), pts])        # [1 x y]
        area = 0.5 * abs(np.linalg.det(mat))
        grads = np.linalg.inv(mat)[1:, :].T             # rows: grad of each phi
        c = 1.0 if coeff is None else coeff[t]
        th = np.eye(2) if tensor is None else tensor
        for a in range(3):
            for b in range(3):
                out[tri[a], tri[b]] += area * c * grads[a] @ th @ grads[b]
    return out


def dense_mass(mesh, lumped=False):
    n = mesh.num_vertices
    out = np.zeros((n, n))
    local = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    for tri in mesh.triangles:
        pts = mesh.vertices[tri]
        mat = np.column_stack([np.ones(3), pts])
        area = 0.5 * abs(np.linalg.det(mat))
        for a in range(3):
            for b in range(3):
                out[tri[a], tri[b]] += area * local[a, b]
    if lumped:
        return np.diag(out.sum(axis=1))
    return out


def dense_boundary_mass(mesh, tags):
    n = mesh.num_vertices
    out = np.zeros((n, n))
    local = np.array([[2, 1], [1, 2]]) / 6.0
    for tag in tags:
        for v0, v1 in mesh.boundary_edges[tag]:
            h = np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
            for a, va in enumerate((v0, v1)):
                for b, vb in enumerate((v0, v1)):
                    out[va, vb] += h * local[a, b]
    return out


def dense_prior_matrices(prior):
    """Dense (A, R, C) of a field prior, via numpy inverses."""
    a = prior.A.toarray()
    ml_inv = np.diag(1.0 / prior.lumped_mass)
    r = a @ ml_inv @ a
    return a, r, np.linalg.inv(r)


def prior_cost(prior, m):
    """The prior quadratic 0.5 (m - mean)^T C^{-1} (m - mean), as
    PosteriorTarget.make_state forms it from the prior gradient."""
    return 0.5 * float((m - prior.mean) @ prior.grad(m))


# ---------------------------------------------------------------------------
# Dense Poisson solves (reference forward/adjoint)
# ---------------------------------------------------------------------------

def dense_poisson_solve(mesh, m, dirichlet_values, dirichlet_idx):
    """Forward solve with dense elimination; coefficient exp(m) at centroids."""
    coeff = np.exp(m[mesh.triangles].mean(axis=1))
    k = dense_stiffness(mesh, coeff=coeff)
    n = mesh.num_vertices
    free = np.setdiff1d(np.arange(n), dirichlet_idx)
    u = np.array(dirichlet_values, dtype=float)
    rhs = -k[np.ix_(free, dirichlet_idx)] @ u[dirichlet_idx]
    u[free] = np.linalg.solve(k[np.ix_(free, free)], rhs)
    return u


# ---------------------------------------------------------------------------
# Element-gather references for the Poisson derivative forms
# ---------------------------------------------------------------------------

def weighted_gradient_form(mesh, coeff, u, p):
    """Vector with entries <phi_j coeff grad u . grad p>: per-triangle
    gradients gathered with einsum, scattered with np.add.at."""
    gu = np.einsum("ti,tid->td", u[mesh.triangles], mesh.grads)
    gp = np.einsum("ti,tid->td", p[mesh.triangles], mesh.grads)
    per_tri = (mesh.areas / 3.0) * coeff * np.sum(gu * gp, axis=1)
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.triangles.ravel(), np.repeat(per_tri, 3))
    return out


def reference_hessian_action(state, mhat, gauss_newton=False):
    """Poisson misfit Hessian action from the element-gather forms and the
    assembled sparse stiffness, reusing the state's factorization."""
    pr = state.problem
    mesh = pr.mesh
    is_dir = pr.is_dirichlet
    mhat_c = mhat[mesh.triangles].mean(axis=1)
    cm = state.coeff * mhat_c
    k_cm = assemble_stiffness(mesh, cm)

    rhs = -(k_cm @ state.u)
    rhs[is_dir] = 0.0
    uhat = state.solver.solve(rhs)
    rhs = -(pr.obs_op.T @ (pr.observe(uhat) / pr.sigma**2))
    if not gauss_newton:
        rhs -= k_cm @ state.adjoint
    rhs[is_dir] = 0.0
    phat = state.solver.solve(rhs)

    out = weighted_gradient_form(mesh, state.coeff, state.u, phat)
    if not gauss_newton:
        out += weighted_gradient_form(mesh, state.coeff, uhat, state.adjoint)
        out += weighted_gradient_form(mesh, cm, state.u, state.adjoint)
    return out


def solves_by_kind(counter) -> tuple:
    """(forward, adjoint, incremental) solves of a models.SolveCounter."""
    return (counter.forward, counter.adjoint, counter.incremental)


# ---------------------------------------------------------------------------
# Dense linear-Gaussian model (shares the model protocol)
# ---------------------------------------------------------------------------

class DenseLinearModel:
    """Misfit 0.5 |F m - d|^2 / sigma^2 with explicit matrices."""

    class State:
        def __init__(self, model, m):
            self.model = model
            self.m = np.asarray(m, dtype=float)
            self.residual = model.F @ self.m - model.d
            self.cost = 0.5 * float(self.residual @ self.residual) / model.sigma**2

        def gradient(self):
            return self.model.F.T @ self.residual / self.model.sigma**2

        def hessian_action(self, v, gauss_newton=False):
            return self.model.F.T @ (self.model.F @ v) / self.model.sigma**2

        def qoi(self):
            return float(self.m[0])

    def __init__(self, F, d, sigma):
        self.F = np.asarray(F, dtype=float)
        self.d = np.asarray(d, dtype=float)
        self.sigma = float(sigma)
        self.dim = self.F.shape[1]

    def evaluate(self, m):
        return self.State(self, m)


def dense_gaussian_posterior(F, d, sigma, prior_mean, prior_cov):
    """Exact posterior (mean, cov) of the linear-Gaussian model."""
    prec = F.T @ F / sigma**2 + np.linalg.inv(prior_cov)
    cov = np.linalg.inv(prec)
    mean = cov @ (F.T @ d / sigma**2 + np.linalg.solve(prior_cov, prior_mean))
    return mean, cov


# ---------------------------------------------------------------------------
# Targets and Gaussians for small dense problems
# ---------------------------------------------------------------------------

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
            raise ModelEvaluationError("log density is NaN")
        return ChainState(self, m, lp)

    def fill_gradient(self, state: ChainState) -> None:
        if self._grad is None:
            raise ModelEvaluationError("target has no gradient")
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

    def apply_cov_factor_t(self, v: np.ndarray) -> np.ndarray:
        return self._chol.T @ v

    def apply_cov_factor_inv(self, v: np.ndarray) -> np.ndarray:
        return scipy.linalg.solve_triangular(self._chol, v, lower=True)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self._chol @ rng.standard_normal(self.dim)


# ---------------------------------------------------------------------------
# Discrete proposals for exact enumeration of kernels
# ---------------------------------------------------------------------------

class TableProposal:
    """Proposal over a finite state set with an explicit probability table."""

    requires_gradient = False

    def __init__(self, states, table):
        self.states = [float(s) for s in states]
        self.table = np.asarray(table, dtype=float)
        assert np.allclose(self.table.sum(axis=1), 1.0)

    def _index(self, m):
        value = float(np.atleast_1d(m)[0])
        return self.states.index(value)

    def sample(self, state, rng):
        i = self._index(state.m)
        j = rng.choice(len(self.states), p=self.table[i])
        return np.array([self.states[j]])

    def log_density(self, from_state, to):
        i = self._index(from_state.m)
        j = self._index(to)
        p = self.table[i, j]
        return float(np.log(p)) if p > 0 else -np.inf

    def log_ratio(self, a, b, log_q):
        return log_q(b, a) - log_q(a, b)


def dr_accept_prob(proposals, current, rejected, proposed) -> float:
    return math.exp(dr_accept_log_prob(proposals, current, rejected, proposed))


# ---------------------------------------------------------------------------
# Reference diagnostics (verbatim loop transcriptions)
# ---------------------------------------------------------------------------

def ref_within_between(coords):
    m, n, k = coords.shape
    means = np.zeros((m, k))
    for j in range(m):
        for i in range(n):
            means[j] += coords[j, i]
        means[j] /= n
    w = np.zeros((k, k))
    for j in range(m):
        for i in range(n):
            dev = coords[j, i] - means[j]
            w += np.outer(dev, dev)
    w /= m * (n - 1)
    grand = means.mean(axis=0)
    b = np.zeros((k, k))
    for j in range(m):
        dev = means[j] - grand
        b += np.outer(dev, dev)
    b *= n / (m - 1)
    return w, b


def ref_vhat(w, b, n, m):
    return (n - 1) / n * w + (m + 1) / (m * n) * b


def ref_mpsrf(w, b, n, m):
    lam = np.linalg.eigvals(np.linalg.inv(w) @ b)
    lam_max = float(np.max(lam.real))
    return np.sqrt((n - 1) / n + (m + 1) / (m * n) * lam_max)


def ref_variogram(coords, i, t):
    m, n, _ = coords.shape
    acc = 0.0
    for j in range(m):
        for k in range(t, n):
            acc += (coords[j, k, i] - coords[j, k - t, i]) ** 2
    return acc / (m * (n - t))


def ref_acf(coords, i, t, vii):
    return 1.0 - ref_variogram(coords, i, t) / (2.0 * vii)


def ref_ess(coords, i):
    m, n, _ = coords.shape
    w, b = ref_within_between(coords)
    vii = ref_vhat(w, b, n, m)[i, i]
    rho = [1.0]
    for t in range(1, n):
        rho.append(ref_acf(coords, i, t, vii))
    t_trunc = 0
    for tp in range((n - 1) // 2):
        t_trunc = tp
        if rho[2 * tp] + rho[2 * tp + 1] < 0:
            break
    total = m * n
    denom = 1.0 + 2.0 * sum(rho[1:t_trunc + 1])
    if denom <= 0:
        return float(total)
    return float(min(total / denom, total))


# ---------------------------------------------------------------------------
# Strided diagnostics (verbatim): the vectorized variogram, acf_estimate and
# ess that wrote every artifact before diagnostics.autocorrelation replaced
# the first two. Each slices the (M, N, K) array at every lag.
# ---------------------------------------------------------------------------

def strided_variogram(coords: np.ndarray, coordinate: int, lag: int) -> float:
    """Multi-chain lag-t squared-increment average v_it."""
    coords = np.asarray(coords, dtype=float)
    m_chains, n = coords.shape[0], coords.shape[1]
    if not 0 <= lag < n:
        raise ValueError("lag must satisfy 0 <= t < N")
    if lag == 0:
        return 0.0
    x = coords[:, :, coordinate]
    diff = x[:, lag:] - x[:, :-lag]
    return float(np.sum(diff * diff) / (m_chains * (n - lag)))


def strided_acf_estimate(coords: np.ndarray, coordinate: int, lag: int,
                         vhat_ii: float | None = None) -> float:
    """Variogram-based autocorrelation estimate 1 - v_it / (2 Vhat_ii)."""
    coords = np.asarray(coords, dtype=float)
    if vhat_ii is None:
        w, b = within_between_cov(coords)
        vh = vhat(w, b, coords.shape[1], coords.shape[0])
        vhat_ii = float(vh[coordinate, coordinate])
    if vhat_ii == 0.0:
        raise ZeroDivisionError(
            "pooled variance is zero (constant chains); autocorrelation undefined")
    return 1.0 - strided_variogram(coords, coordinate, lag) / (2.0 * vhat_ii)


def strided_ess(coords: np.ndarray, coordinate: int,
                vhat_ii: float | None = None) -> float:
    """Effective sample size MN / (1 + 2 sum_{t=1}^{t'} rho_t).

    The truncation lag t' is the first index T at which the successive pair
    rho_{2T} + rho_{2T+1} turns negative; the result is clamped to (0, MN].
    """
    coords = np.asarray(coords, dtype=float)
    m_chains, n = coords.shape[0], coords.shape[1]
    if n < 4:
        raise ValueError("effective sample size needs at least 4 samples")
    total = m_chains * n
    if vhat_ii is None:
        w, b = within_between_cov(coords)
        vh = vhat(w, b, n, m_chains)
        vhat_ii = float(vh[coordinate, coordinate])

    rho = []    # rho[t] at lag t, filled pair by pair
    for t_trunc in range((n - 1) // 2):
        rho += [strided_acf_estimate(coords, coordinate, t, vhat_ii=vhat_ii)
                for t in (2 * t_trunc, 2 * t_trunc + 1)]
        if rho[-2] + rho[-1] < 0.0:
            break
    acf_sum = sum(rho[1:t_trunc + 1])

    denom = 1.0 + 2.0 * acf_sum
    if denom <= 0.0:
        return float(total)
    return float(min(total / denom, total))


def ar1_chains(m, n, phi, rng, sd=1.0):
    """Stationary AR(1) chains with lag-1 coefficient phi."""
    out = np.empty((m, n))
    innov_sd = sd * np.sqrt(1 - phi**2)
    for j in range(m):
        out[j, 0] = sd * rng.standard_normal()
        for i in range(1, n):
            out[j, i] = phi * out[j, i - 1] + innov_sd * rng.standard_normal()
    return out


# ---------------------------------------------------------------------------
# Artifact readers
# ---------------------------------------------------------------------------

def read_chain_csv(path: str):
    """Read back a chain CSV; returns (header comment, column names, array)."""
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline().strip()
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return comment, names, data


def read_report(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, _, val = line.partition("=")
                out[key.strip()] = val.strip()
    return out
