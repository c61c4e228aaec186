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

import math
from functools import cached_property

import numpy as np

from .fem import (Mesh, SpdSolver, StiffnessAssembler, assemble_mass,
                  build_unit_square_mesh, point_observation_operator, upper_band)

DIRICHLET_TAGS = ("bottom", "top")


class ModelEvaluationError(RuntimeError):
    """The model cannot be evaluated at the requested point.

    The one failure for which samplers and the MAP line search reject a point.
    """


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


class ObservedProblem:
    """Point observations with Gaussian noise of a field on the unit square.

    Holds what both problems share: the mesh, the observation operator and
    data, the noise level, the mask of the Dirichlet vertices on the top and
    bottom sides, and the tally of PDE solves. Subclasses define evaluate(m),
    which returns a state with the misfit `cost`, gradient(),
    hessian_action() and qoi().
    """

    def __init__(self, mesh: Mesh, obs_points, sigma: float):
        if sigma <= 0:
            raise ValueError("noise standard deviation must be positive")
        self.mesh = mesh
        self.sigma = float(sigma)
        self.obs_points = np.atleast_2d(np.asarray(obs_points, dtype=float))
        self.obs_op = point_observation_operator(mesh, self.obs_points)
        # Every adjoint and incremental right-hand side applies the transpose;
        # kept as CSR so that no call builds a transposed view.
        self.obs_op_t = self.obs_op.T.tocsr()
        self.is_dirichlet = np.zeros(mesh.num_vertices, dtype=bool)
        self.is_dirichlet[mesh.boundary_vertices(DIRICHLET_TAGS)] = True
        self.counter = SolveCounter()
        self.data = None

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

    def _solve(self, solver, rhs: np.ndarray, kind: str) -> np.ndarray:
        """Solve with rhs's Dirichlet rows zeroed in place, for a vector or an
        (N, b) block; counts one `kind` solve per right-hand side."""
        rhs[self.is_dirichlet] = 0.0
        setattr(self.counter, kind,
                getattr(self.counter, kind) + rhs.size // rhs.shape[0])
        return solver.solve(rhs)


def _triangle_dot(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """Per-triangle dot product of two gradients stacked as the rows of G."""
    prod = ga * gb
    nt = prod.size // 2
    return prod[:nt] + prod[nt:]


class PoissonState:
    """Model evaluation at a fixed parameter: forward solution and caches.

    Owns the factorization of the stiffness operator at this parameter, so
    the adjoint and all Hessian actions at the same point reuse it. The
    per-triangle gradients G u and G p of the state and the adjoint are
    formed on first use and kept; sampling steps that only need the cost
    never form them. The first Hessian action builds the state's Hessian
    operators and moves the state's factor to upper band storage, from which
    it solves faster (see SpdSolver).
    """

    def __init__(self, problem: "PoissonProblem", m: np.ndarray):
        self.problem = problem
        self.m, self.coeff, self.solver, self.u = problem._forward(m)
        self.residual, self.cost = problem.residual_and_cost(self.u)
        if not np.isfinite(self.cost):
            raise ModelEvaluationError("misfit cost is not finite")

    # -- adjoint and gradient -------------------------------------------

    @cached_property
    def adjoint(self) -> np.ndarray:
        pr = self.problem
        rhs = -(pr.obs_op_t @ (self.residual / pr.sigma**2))
        return pr._solve(self.solver, rhs, "adjoint")

    @cached_property
    def grad_u(self) -> np.ndarray:
        return self.problem.assembler.G @ self.u

    @cached_property
    def grad_p(self) -> np.ndarray:
        return self.problem.assembler.G @ self.adjoint

    def gradient(self) -> np.ndarray:
        """Misfit gradient: entries <phi_j e^m grad u . grad p>."""
        return self.problem.assembler.P @ (
            self.coeff * _triangle_dot(self.grad_u, self.grad_p))

    # -- Hessian action ---------------------------------------------------

    @cached_property
    def _hessian_operators(self) -> tuple:
        """(K_u, K_u^T, K_p, K_p^T, E) on the vertex-pair pattern:
        K_u[i, j] = sum over triangles t holding i and j of
        e^{m_t} a_t (grad phi_i . grad u)_t / 3, the derivative of the
        stiffness action on u along the centroid value of phi_j; K_p the same
        with the adjoint p; E[i, j] the same sum of e^{m_t} a_t
        (grad u . grad p)_t / 9. Built after the adjoint, which is solved
        from lower storage as for a gradient, and before the factor moves to
        upper storage."""
        pr = self.problem
        asm = pr.assembler
        pairs = asm.vertex_pairs
        grads = pr.mesh.grads
        nt = pr.mesh.num_triangles
        weight = self.coeff * pr.mesh.areas / 3.0
        ops = []
        for g in (self.grad_u, self.grad_p):
            gx, gy = weight * g[:nt], weight * g[nt:]
            data = pairs.row_sum @ (grads[:, :, 0] * gx[:, None]
                                    + grads[:, :, 1] * gy[:, None]).ravel()
            ops += [pairs.operator(data), pairs.operator(data[pairs.mirror])]
        e = _triangle_dot(self.grad_u, self.grad_p) * weight / 3.0
        ops.append(pairs.operator(pairs.row_sum @ np.repeat(e, 3)))
        self.solver.store_upper()
        return tuple(ops)

    def hessian_action(self, mhat: np.ndarray, gauss_newton: bool = False) -> np.ndarray:
        """Data-misfit Hessian (or its Gauss-Newton part) applied to mhat, a
        vector or an (N, b) block of directions:
        u^ = K^{-1}(-K_u m^), p^ = K^{-1}(-B^T B u^ / sigma^2 - K_p m^), and
        H m^ = K_u^T p^ + K_p^T u^ + E m^; Gauss-Newton drops K_p and E."""
        pr = self.problem
        k_u, k_u_t, k_p, k_p_t, e = self._hessian_operators
        mhat = np.asarray(mhat, dtype=float)

        uhat = pr._solve(self.solver, -(k_u @ mhat), "incremental")

        rhs = -(pr.obs_op_t @ (pr.observe(uhat) / pr.sigma**2))
        if not gauss_newton:
            rhs -= k_p @ mhat
        phat = pr._solve(self.solver, rhs, "incremental")

        out = k_u_t @ phat
        if not gauss_newton:
            out += k_p_t @ uhat
            out += e @ mhat
        return out

    # -- quantity of interest ---------------------------------------------

    def qoi(self) -> float:
        """Log of the outward flux magnitude through the bottom boundary."""
        pr = self.problem
        flux = float(np.sum(pr.bottom_lengths * self.coeff[pr.bottom_tris]
                            * (-(pr.bottom_grad_y @ self.u))))
        if -flux <= 0.0:
            raise ModelEvaluationError(f"bottom flux {flux:g} has no log")
        return float(np.log(-flux))


class PoissonProblem(ObservedProblem):
    """Coefficient inversion setup: mesh, boundary data, observations, noise,
    and the stiffness assembler that every state re-assembles with."""

    def __init__(self, mesh: Mesh, obs_points, sigma: float):
        super().__init__(mesh, obs_points, sigma)
        self.assembler = StiffnessAssembler(mesh, np.flatnonzero(self.is_dirichlet))
        self.dirichlet_values = np.zeros(mesh.num_vertices)
        self.dirichlet_values[mesh.boundary_vertices(["top"])] = 1.0
        # Gradient of the Dirichlet lift, fixed per problem: the forward
        # right-hand side is -G^T (w * G u_D) off the Dirichlet vertices.
        self.grad_lift = self.assembler.G @ self.dirichlet_values

        # Triangle adjacent to each bottom edge, for the flux integral: the
        # bottom edge of cell ix is the first edge of its lower triangle 2*ix.
        bottom = mesh.boundary_edges["bottom"]
        self.bottom_tris = 2 * np.arange(mesh.n, dtype=np.int64)
        self.bottom_grad_y = self.assembler.G[mesh.num_triangles + self.bottom_tris]
        self.bottom_lengths = np.linalg.norm(
            mesh.vertices[bottom[:, 1]] - mesh.vertices[bottom[:, 0]], axis=1)

    # -- model interface ---------------------------------------------------

    def evaluate(self, m: np.ndarray) -> PoissonState:
        if self.data is None:
            raise RuntimeError("observational data not set")
        return PoissonState(self, m)

    def solve_forward(self, m: np.ndarray) -> np.ndarray:
        """Forward solution only; usable before data is attached."""
        return self._forward(m)[3]

    def _forward(self, m: np.ndarray):
        """Checked forward solve: (m, coefficient, factorization, solution).

        A point where the model cannot be evaluated raises
        ModelEvaluationError.
        """
        m = np.asarray(m, dtype=float)
        if m.shape != (self.dim,):
            raise ValueError("parameter field has wrong length")
        if not np.all(np.isfinite(m)):
            raise ModelEvaluationError("parameter field contains non-finite entries")
        asm = self.assembler
        coeff = np.exp(asm.centroid_values(m))
        if not np.all(np.isfinite(coeff)):
            raise ModelEvaluationError("exp(m) overflowed at a quadrature point")
        try:
            solver = asm.factorize(coeff)
        except np.linalg.LinAlgError as exc:
            raise ModelEvaluationError(str(exc)) from exc
        rhs = -(asm.GT @ (asm.gradient_weights(coeff) * self.grad_lift))
        u = self._solve(solver, rhs, "forward") + self.dirichlet_values
        return m, coeff, solver, u


def generate_synthetic_data(problem: ObservedProblem, m_true: np.ndarray,
                            seed: int) -> np.ndarray:
    """Observe the forward solution on a once-refined mesh, plus iid noise
    of the problem's sigma.

    m_true lives on the mesh of its own size, (n+1)^2 vertices, which need
    not be the problem's. The refinement breaks the inverse crime: the
    data-generating discretization differs from the one used for inversion.
    The noise is sigma * default_rng(seed).standard_normal(num_obs), so it is
    deterministic for a fixed seed.
    """
    sigma = problem.sigma
    n = math.isqrt(np.size(m_true)) - 1
    mesh = problem.mesh if problem.mesh.n == n else build_unit_square_mesh(n)
    fine = build_unit_square_mesh(2 * n)
    lift = point_observation_operator(mesh, fine.vertices)
    fine_problem = type(problem)(fine, problem.obs_points, sigma)
    u = fine_problem.solve_forward(lift @ np.asarray(m_true, dtype=float))
    d = fine_problem.observe(u)
    return d + sigma * np.random.default_rng(seed).standard_normal(d.shape)


class LinearizedState:
    """Evaluation of the linearized model at a parameter."""

    def __init__(self, problem: "LinearizedPoissonProblem", m: np.ndarray):
        self.problem = problem
        self.m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(self.m)):
            raise ModelEvaluationError("parameter field contains non-finite entries")
        self.u = problem.solve_forward(self.m)
        self.residual, self.cost = problem.residual_and_cost(self.u)

    def gradient(self) -> np.ndarray:
        pr = self.problem
        rhs = pr.obs_op_t @ (self.residual / pr.sigma**2)
        return pr.M @ pr._solve(pr.solver, rhs, "adjoint")

    def hessian_action(self, mhat: np.ndarray, gauss_newton: bool = False) -> np.ndarray:
        pr = self.problem
        uhat = pr._solve(pr.solver, pr.M @ np.asarray(mhat, dtype=float), "incremental")
        rhs = pr.obs_op_t @ (pr.observe(uhat) / pr.sigma**2)
        return pr.M @ pr._solve(pr.solver, rhs, "incremental")

    def qoi(self) -> float:
        raise ModelEvaluationError("linearized model defines no flux")


class LinearizedPoissonProblem(ObservedProblem):
    """Observations of -lap(u) = m with homogeneous top/bottom Dirichlet data.

    The map m -> observations is exactly linear, so the Bayesian posterior
    with a Gaussian prior is Gaussian; dense_forward_matrix() exposes the
    matrix for oracle computations on small meshes. The Laplacian is
    factorized once, when the problem is built.
    """

    def __init__(self, mesh: Mesh, obs_points, sigma: float):
        super().__init__(mesh, obs_points, sigma)
        self.M = assemble_mass(mesh)
        # Every solve of the run: upper storage (see SpdSolver), moved from
        # the lower band of an assembler that is dropped once it is read.
        band = StiffnessAssembler(mesh, np.flatnonzero(self.is_dirichlet)).assemble(
            np.ones(mesh.num_triangles))
        self.solver = SpdSolver(upper_band(band), lower=0)

    def solve_forward(self, m: np.ndarray) -> np.ndarray:
        return self._solve(self.solver, self.M @ m, "forward")

    def evaluate(self, m: np.ndarray) -> LinearizedState:
        if self.data is None:
            raise RuntimeError("observational data not set")
        return LinearizedState(self, m)

    def dense_forward_matrix(self) -> np.ndarray:
        """The observation map as a dense matrix (small meshes only)."""
        rhs = self.M.toarray()
        rhs[self.is_dirichlet, :] = 0.0
        u_cols = self.solver.solve(rhs)
        return self.obs_op @ u_cols
