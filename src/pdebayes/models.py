"""Parameter-to-observable maps for the coefficient inversion.

PoissonProblem maps a log-diffusivity field m to point observations of the
solution of -div(e^m grad u) = 0 on the unit square (u = 1 on top, 0 on
bottom, no flux left/right), and provides adjoint-based misfit gradients,
Hessian actions, synthetic data, and the log-flux quantity of interest.

LinearizedPoissonProblem observes the solution of -lap(u) = m with the same
observation operator; its posterior under a Gaussian prior is exactly
Gaussian, which makes it a dense-computable oracle for the whole pipeline.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .fem import (Mesh, SpdSolver, StiffnessAssembler, assemble_mass,
                  build_unit_square_mesh, point_observation_operator)

DIRICHLET_TAGS = ("bottom", "top")


class ModelEvaluationError(RuntimeError):
    """The forward model could not be evaluated at the requested point."""


class NonPositiveFluxError(RuntimeError):
    """The boundary flux was non-positive, so its log is undefined."""


# What a model evaluation raises at a point where the model cannot be
# evaluated; callers reject the point instead of failing the run.
MODEL_FAILURES = (np.linalg.LinAlgError, RuntimeError)


class SolveCounter:
    """Tally of PDE solves, split by kind."""

    __slots__ = ("forward", "adjoint", "incremental")

    def __init__(self):
        self.forward = 0
        self.adjoint = 0
        self.incremental = 0

    @property
    def total(self) -> int:
        return self.forward + self.adjoint + self.incremental

    def snapshot(self) -> tuple:
        return (self.forward, self.adjoint, self.incremental)


class ObservedProblem:
    """Point observations with Gaussian noise of a field on the unit square.

    Holds what both problems share: the mesh, the observation operator and
    data, the noise level, the stiffness assembler with Dirichlet data on the
    top and bottom sides, and the tally of PDE solves. Subclasses define
    evaluate(m), which returns a state with the misfit `cost`, gradient(),
    hessian_action() and qoi().
    """

    def __init__(self, mesh: Mesh, obs_points, sigma: float,
                 data: np.ndarray | None = None):
        if sigma <= 0:
            raise ValueError("noise standard deviation must be positive")
        self.mesh = mesh
        self.sigma = float(sigma)
        self.obs_points = np.atleast_2d(np.asarray(obs_points, dtype=float))
        self.obs_op = point_observation_operator(mesh, self.obs_points)
        self.assembler = StiffnessAssembler(
            mesh, mesh.boundary_vertices(DIRICHLET_TAGS))
        self.counter = SolveCounter()
        self.data = None
        if data is not None:
            self.set_data(data)

    @property
    def dim(self) -> int:
        return self.mesh.num_vertices

    @property
    def num_obs(self) -> int:
        return self.obs_points.shape[0]

    def set_data(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=float)
        if data.shape != (self.num_obs,):
            raise ValueError("data length must match the observation count")
        self.data = data

    def observe(self, u: np.ndarray) -> np.ndarray:
        return self.obs_op @ u

    def residual_and_cost(self, u: np.ndarray):
        """Data residual of the state u and the misfit 0.5 |r|^2 / sigma^2."""
        residual = self.observe(u) - self.data
        return residual, 0.5 * float(residual @ residual) / self.sigma**2

    def misfit_cost(self, m: np.ndarray) -> float:
        return self.evaluate(m).cost

    def misfit_gradient(self, m: np.ndarray) -> np.ndarray:
        return self.evaluate(m).gradient()


class PoissonState:
    """Model evaluation at a fixed parameter: forward solution and caches.

    Owns the factorization of the stiffness operator at this parameter, so
    the adjoint and all Hessian actions at the same point reuse it.
    """

    def __init__(self, problem: "PoissonProblem", m: np.ndarray):
        self.problem = problem
        self.m = np.asarray(m, dtype=float)
        if self.m.shape != (problem.mesh.num_vertices,):
            raise ValueError("parameter field has wrong length")
        if not np.all(np.isfinite(self.m)):
            raise ModelEvaluationError("parameter field contains non-finite entries")
        self.coeff = np.exp(problem.mesh.centroid_values(self.m))
        if not np.all(np.isfinite(self.coeff)):
            raise ModelEvaluationError("exp(m) overflowed at a quadrature point")
        try:
            self.solver = problem.assembler.factorize(self.coeff)
        except np.linalg.LinAlgError as exc:
            raise ModelEvaluationError(str(exc)) from exc
        rhs = problem.assembler.lifted_rhs(self.coeff, problem.dirichlet_values)
        self.u = self.solver.solve(rhs)
        problem.counter.forward += 1
        self.residual, self.cost = problem.residual_and_cost(self.u)
        if not np.isfinite(self.cost):
            raise ModelEvaluationError("misfit cost is not finite")
        self._p = None
        self._grad = None

    # -- adjoint and gradient -------------------------------------------

    @property
    def adjoint(self) -> np.ndarray:
        if self._p is None:
            rhs = -(self.problem.obs_op.T @ (self.residual / self.problem.sigma**2))
            rhs[self.problem.assembler.is_dirichlet] = 0.0
            self._p = self.solver.solve(rhs)
            self.problem.counter.adjoint += 1
        return self._p

    def gradient(self) -> np.ndarray:
        """Misfit gradient: entries <phi_j e^m grad u . grad p>."""
        if self._grad is None:
            self._grad = self.problem.weighted_gradient_form(
                self.coeff, self.u, self.adjoint)
        return self._grad

    # -- Hessian action ---------------------------------------------------

    def hessian_action(self, mhat: np.ndarray, gauss_newton: bool = False) -> np.ndarray:
        """Data-misfit Hessian (or its Gauss-Newton part) applied to mhat."""
        pr = self.problem
        mhat_c = pr.mesh.centroid_values(np.asarray(mhat, dtype=float))
        cm = self.coeff * mhat_c

        rhs = -pr.assembler.matvec_full(cm, self.u)
        rhs[pr.assembler.is_dirichlet] = 0.0
        uhat = self.solver.solve(rhs)

        rhs = -(pr.obs_op.T @ (pr.observe(uhat) / pr.sigma**2))
        if not gauss_newton:
            rhs -= pr.assembler.matvec_full(cm, self.adjoint)
        rhs[pr.assembler.is_dirichlet] = 0.0
        phat = self.solver.solve(rhs)
        pr.counter.incremental += 2

        out = pr.weighted_gradient_form(self.coeff, self.u, phat)
        if not gauss_newton:
            out += pr.weighted_gradient_form(self.coeff, uhat, self.adjoint)
            out += pr.weighted_gradient_form(self.coeff * mhat_c, self.u, self.adjoint)
        return out

    # -- quantity of interest ---------------------------------------------

    def qoi(self) -> float:
        """Log of the outward flux magnitude through the bottom boundary."""
        pr = self.problem
        gu = np.einsum("ei,eid->ed", self.u[pr.mesh.triangles[pr.bottom_tris]],
                       pr.mesh.grads[pr.bottom_tris])
        flux = float(np.sum(pr.bottom_lengths * self.coeff[pr.bottom_tris]
                            * (-gu[:, 1])))
        if -flux <= 0.0:
            raise NonPositiveFluxError(f"bottom flux {flux:g} has no log")
        return float(np.log(-flux))


class PoissonProblem(ObservedProblem):
    """Coefficient inversion setup: mesh, boundary data, observations, noise."""

    def __init__(self, mesh: Mesh, obs_points, sigma: float,
                 data: np.ndarray | None = None):
        super().__init__(mesh, obs_points, sigma, data)
        self.dirichlet_values = np.zeros(mesh.num_vertices)
        self.dirichlet_values[mesh.boundary_vertices(["top"])] = 1.0

        # Triangle adjacent to each bottom edge, for the flux integral: the
        # bottom edge of cell ix is the first edge of its lower triangle 2*ix.
        bottom = mesh.boundary_edges["bottom"]
        self.bottom_tris = 2 * np.arange(mesh.n, dtype=np.int64)
        self.bottom_lengths = np.linalg.norm(
            mesh.vertices[bottom[:, 1]] - mesh.vertices[bottom[:, 0]], axis=1)

    def weighted_gradient_form(self, coeff, u, p) -> np.ndarray:
        """Assemble the vector with entries <phi_j coeff grad u . grad p>."""
        mesh = self.mesh
        gu = np.einsum("ti,tid->td", u[mesh.triangles], mesh.grads)
        gp = np.einsum("ti,tid->td", p[mesh.triangles], mesh.grads)
        per_tri = (mesh.areas / 3.0) * coeff * np.sum(gu * gp, axis=1)
        out = np.zeros(mesh.num_vertices)
        np.add.at(out, mesh.triangles.ravel(), np.repeat(per_tri, 3))
        return out

    # -- model interface ---------------------------------------------------

    def evaluate(self, m: np.ndarray) -> PoissonState:
        if self.data is None:
            raise RuntimeError("observational data not set")
        return PoissonState(self, m)

    def solve_forward(self, m: np.ndarray) -> np.ndarray:
        """Forward solution only; usable before data is attached."""
        coeff = np.exp(self.mesh.centroid_values(np.asarray(m, dtype=float)))
        solver = self.assembler.factorize(coeff)
        rhs = self.assembler.lifted_rhs(coeff, self.dirichlet_values)
        self.counter.forward += 1
        return solver.solve(rhs)


def generate_synthetic_data(problem: ObservedProblem, m_true: np.ndarray,
                            sigma: float, seed: int,
                            exact: bool = False) -> np.ndarray:
    """Observe the forward solution on a once-refined mesh, plus iid noise.

    The refinement breaks the inverse crime: the data-generating
    discretization differs from the one used for inversion. Deterministic
    for a fixed seed; exact=True skips the noise entirely.
    """
    if sigma <= 0:
        raise ValueError("noise standard deviation must be positive")
    fine = build_unit_square_mesh(2 * problem.mesh.n)
    lift = point_observation_operator(problem.mesh, fine.vertices)
    fine_problem = type(problem)(fine, problem.obs_points, sigma)
    u = fine_problem.solve_forward(lift @ np.asarray(m_true, dtype=float))
    d = fine_problem.observe(u)
    if not exact:
        d = d + sigma * np.random.default_rng(seed).standard_normal(d.shape)
    return d


class LinearizedState:
    """Evaluation of the linearized model at a parameter."""

    def __init__(self, problem: "LinearizedPoissonProblem", m: np.ndarray):
        self.problem = problem
        self.m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(self.m)):
            raise ModelEvaluationError("parameter field contains non-finite entries")
        self.u = problem.solve_forward(self.m)
        self.residual, self.cost = problem.residual_and_cost(self.u)
        self._grad = None

    def gradient(self) -> np.ndarray:
        if self._grad is None:
            pr = self.problem
            rhs = pr.obs_op.T @ (self.residual / pr.sigma**2)
            rhs[pr.assembler.is_dirichlet] = 0.0
            w = pr.solver.solve(rhs)
            pr.counter.adjoint += 1
            self._grad = pr.M @ w
        return self._grad

    def hessian_action(self, mhat: np.ndarray, gauss_newton: bool = False) -> np.ndarray:
        pr = self.problem
        uhat = pr.solve_forward(np.asarray(mhat, dtype=float), count="incremental")
        rhs = pr.obs_op.T @ (pr.observe(uhat) / pr.sigma**2)
        rhs[pr.assembler.is_dirichlet] = 0.0
        what = pr.solver.solve(rhs)
        pr.counter.incremental += 1
        return pr.M @ what

    def qoi(self) -> float:
        raise NonPositiveFluxError("linearized model defines no flux")


class LinearizedPoissonProblem(ObservedProblem):
    """Observations of -lap(u) = m with homogeneous top/bottom Dirichlet data.

    The map m -> observations is exactly linear, so the Bayesian posterior
    with a Gaussian prior is Gaussian; dense_forward_matrix() exposes the
    matrix for oracle computations on small meshes.
    """

    def __init__(self, mesh: Mesh, obs_points, sigma: float,
                 data: np.ndarray | None = None):
        super().__init__(mesh, obs_points, sigma, data)
        self.M = assemble_mass(mesh)

    @cached_property
    def solver(self) -> SpdSolver:
        """Factorized Laplacian, built on first use: a problem that only
        defines the mesh and observation points of synthetic data never
        solves."""
        return self.assembler.factorize(np.ones(self.mesh.num_triangles))

    def solve_forward(self, m: np.ndarray, count: str = "forward") -> np.ndarray:
        rhs = self.M @ m
        rhs[self.assembler.is_dirichlet] = 0.0
        setattr(self.counter, count, getattr(self.counter, count) + 1)
        return self.solver.solve(rhs)

    def evaluate(self, m: np.ndarray) -> LinearizedState:
        if self.data is None:
            raise RuntimeError("observational data not set")
        return LinearizedState(self, m)

    def dense_forward_matrix(self) -> np.ndarray:
        """The observation map as a dense matrix (small meshes only)."""
        rhs = self.M.toarray()
        rhs[self.assembler.is_dirichlet, :] = 0.0
        u_cols = self.solver.solve(rhs)
        return self.obs_op @ u_cols
