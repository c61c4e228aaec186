"""Gaussian field prior built from a Robin-damped anisotropic elliptic operator.

The covariance is the squared inverse of A = gamma*K_Theta + delta*M + beta*M_b,
with the Robin coefficient beta = sqrt(gamma*delta)/1.42 on the whole boundary,
discretized with P1 elements. Mass lumping makes the covariance square root
A^{-1} M_l^{1/2} diagonal-friendly, and the precision A M_l^{-1} A is defined
with the same lumped mass so that precision and covariance actions are exact
mutual inverses.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

from .fem import (BOUNDARY_TAGS, Mesh, SpdSolver, assemble_boundary_mass,
                  assemble_mass, assemble_stiffness, band_storage)


def anisotropy_tensor(theta1: float, theta2: float, alpha: float) -> np.ndarray:
    """SPD 2x2 diffusion tensor with principal values theta1, theta2.

    The principal axis of theta1 points along (sin(alpha), cos(alpha)); the
    eigenvalues are exactly theta1 and theta2, so the tensor is SPD whenever
    both are positive, and reduces to theta1 * I when they coincide.
    """
    sa, ca = math.sin(alpha), math.cos(alpha)
    u = np.array([sa, ca])
    v = np.array([ca, -sa])
    return theta1 * np.outer(u, u) + theta2 * np.outer(v, v)


def default_robin_coefficient(gamma: float, delta: float) -> float:
    return math.sqrt(gamma * delta) / 1.42


class BiLaplacianPrior:
    """Gaussian measure N(mean, C) with C = A^{-1} M_l A^{-1}.

    Immutable after construction; A is factorized once and shared read-only.
    """

    def __init__(self, mesh: Mesh, gamma: float, delta: float,
                 theta1: float = 1.0, theta2: float = 1.0, alpha: float = 0.0,
                 mean: np.ndarray | float = 0.0):
        for name, value in (("gamma", gamma), ("delta", delta),
                            ("theta1", theta1), ("theta2", theta2)):
            if value <= 0:
                raise ValueError(f"prior parameter {name} must be positive, got {value}")

        self.mesh = mesh
        self.theta = anisotropy_tensor(theta1, theta2, alpha)

        ml = assemble_mass(mesh, lumped=True).diagonal()
        self.lumped_mass = ml
        self._ml_sqrt = np.sqrt(ml)
        self._ml_inv = 1.0 / ml

        self.A = (gamma * assemble_stiffness(mesh, self.theta)
                  + delta * assemble_mass(mesh)
                  + default_robin_coefficient(gamma, delta)
                  * assemble_boundary_mass(mesh, BOUNDARY_TAGS)).tocsr()
        # Solved in every covariance action: upper storage (see SpdSolver).
        self._solver = SpdSolver(band_storage(self.A, lower=0), lower=0)
        # The precision stencil Q = A M_l^{-1} A, at most 19 diagonals in the
        # mesh's vertex order, applied as one DIA product.
        self._precision = scipy.sparse.dia_array(
            self.A @ scipy.sparse.diags_array(self._ml_inv) @ self.A)

        mean = np.asarray(mean, dtype=float)
        if mean.ndim == 0:
            mean = np.full(mesh.num_vertices, float(mean))
        if mean.shape != (mesh.num_vertices,):
            raise ValueError("prior mean has wrong length")
        self.mean = mean

    @property
    def dim(self) -> int:
        return self.mesh.num_vertices

    # -- quadratic form -------------------------------------------------

    def grad(self, m: np.ndarray) -> np.ndarray:
        """C^{-1} (m - mean), the gradient of 0.5 (m - mean)^T C^{-1} (m - mean)."""
        return self.apply_precision(m - self.mean)

    # -- operator actions ------------------------------------------------

    def apply_covariance(self, v: np.ndarray) -> np.ndarray:
        """C v = A^{-1} M_l A^{-1} v, for a vector or an (N, b) block."""
        return self._solver.solve((self.lumped_mass * self._solver.solve(v).T).T)

    def apply_precision(self, v: np.ndarray) -> np.ndarray:
        """C^{-1} v = A M_l^{-1} A v, for a vector or an (N, b) block."""
        return self._precision @ v

    def apply_cov_factor(self, z: np.ndarray) -> np.ndarray:
        """Square root factor S z = A^{-1} M_l^{1/2} z with S S^T = C, for a
        vector or an (N, b) block."""
        return self._solver.solve((self._ml_sqrt * z.T).T)

    def apply_cov_factor_t(self, v: np.ndarray) -> np.ndarray:
        """S^T v = M_l^{1/2} A^{-1} v, for a vector or an (N, b) block."""
        return (self._ml_sqrt * self._solver.solve(v).T).T

    def apply_cov_factor_inv(self, v: np.ndarray) -> np.ndarray:
        """S^{-1} v = M_l^{-1/2} A v, for a vector or an (N, b) block."""
        return (self._ml_inv * self._ml_sqrt * (self.A @ v).T).T

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw mean + S z with z iid standard normal; deterministic per rng state."""
        z = rng.standard_normal(self.dim)
        return self.mean + self.apply_cov_factor(z)
