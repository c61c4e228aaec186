"""Forward/adjoint model checks: dense oracles, finite differences, QoI."""

import numpy as np
import pytest

from pdebayes.fem import build_unit_square_mesh
from pdebayes.models import (DIRICHLET_TAGS, LinearizedPoissonProblem,
                             NonPositiveFluxError, PoissonProblem,
                             generate_synthetic_data)

from helpers import dense_poisson_solve, dense_stiffness


@pytest.fixture(scope="module")
def problem4():
    rng = np.random.default_rng(0)
    mesh = build_unit_square_mesh(4)
    pts = rng.uniform(0.05, 0.95, size=(15, 2))
    problem = PoissonProblem(mesh, pts, sigma=0.05)
    m_true = 0.4 * rng.standard_normal(problem.dim)
    problem.set_data(generate_synthetic_data(problem, m_true, 0.05, seed=1))
    return problem


def dirichlet_setup(mesh):
    idx = mesh.boundary_vertices(DIRICHLET_TAGS)
    values = np.zeros(mesh.num_vertices)
    values[mesh.boundary_vertices(["top"])] = 1.0
    return idx, values


class TestForward:
    def test_zero_parameter_gives_linear_profile(self, problem4):
        u = problem4.solve_forward(np.zeros(problem4.dim))
        np.testing.assert_allclose(u, problem4.mesh.vertices[:, 1], atol=1e-12)

    def test_constant_parameter_cancels(self, problem4):
        u = problem4.solve_forward(np.full(problem4.dim, -1.7))
        np.testing.assert_allclose(u, problem4.mesh.vertices[:, 1], atol=1e-11)

    def test_matches_dense_oracle(self, problem4):
        mesh = problem4.mesh
        m = 0.6 * np.random.default_rng(2).standard_normal(problem4.dim)
        u = problem4.solve_forward(m)
        idx, values = dirichlet_setup(mesh)
        u_dense = dense_poisson_solve(mesh, m, values, idx)
        np.testing.assert_allclose(u, u_dense, atol=1e-11)

    def test_rejects_nonfinite(self, problem4):
        m = np.zeros(problem4.dim)
        m[3] = np.inf
        with pytest.raises(RuntimeError):
            problem4.evaluate(m)


class TestAdjointAndCost:
    def test_zero_misfit_gives_zero_adjoint(self, problem4):
        m = 0.3 * np.random.default_rng(3).standard_normal(problem4.dim)
        u = problem4.solve_forward(m)
        exact = PoissonProblem(problem4.mesh, problem4.obs_points,
                               problem4.sigma, data=problem4.observe(u))
        state = exact.evaluate(m)
        assert state.cost == pytest.approx(0.0, abs=1e-18)
        assert np.abs(state.adjoint).max() < 1e-12
        assert np.abs(state.gradient()).max() < 1e-12

    def test_adjoint_linear_in_misfit(self, problem4):
        mesh, pts = problem4.mesh, problem4.obs_points
        m = 0.2 * np.random.default_rng(4).standard_normal(problem4.dim)
        u = problem4.solve_forward(m)
        d = problem4.observe(u)
        shift = np.random.default_rng(5).standard_normal(d.size)
        p1 = PoissonProblem(mesh, pts, problem4.sigma, data=d - shift)
        p2 = PoissonProblem(mesh, pts, problem4.sigma, data=d - 2 * shift)
        adj1 = p1.evaluate(m).adjoint
        adj2 = p2.evaluate(m).adjoint
        np.testing.assert_allclose(adj2, 2 * adj1, rtol=1e-10, atol=1e-14)

    def test_adjoint_matches_dense(self, problem4):
        mesh = problem4.mesh
        m = 0.5 * np.random.default_rng(6).standard_normal(problem4.dim)
        state = problem4.evaluate(m)
        coeff = np.exp(m[mesh.triangles].mean(axis=1))
        k = dense_stiffness(mesh, coeff=coeff)
        idx, _ = dirichlet_setup(mesh)
        free = np.setdiff1d(np.arange(mesh.num_vertices), idx)
        rhs = -(problem4.obs_op.T @ (state.residual / problem4.sigma**2))
        p = np.zeros(mesh.num_vertices)
        p[free] = np.linalg.solve(k[np.ix_(free, free)], rhs[free])
        np.testing.assert_allclose(state.adjoint, p, atol=1e-11)

    def test_single_observation_cost(self):
        mesh = build_unit_square_mesh(2)
        problem = PoissonProblem(mesh, [[0.5, 0.5]], sigma=0.2)
        u = problem.solve_forward(np.zeros(problem.dim))
        r = 0.07
        problem.set_data(problem.observe(u) - r)
        state = problem.evaluate(np.zeros(problem.dim))
        assert state.cost == pytest.approx(r**2 / (2 * 0.2**2))

    def test_cost_matches_direct_evaluation(self, problem4):
        m = 0.3 * np.random.default_rng(7).standard_normal(problem4.dim)
        state = problem4.evaluate(m)
        u = problem4.solve_forward(m)
        r = problem4.observe(u) - problem4.data
        assert state.cost == pytest.approx(
            0.5 * (r @ r) / problem4.sigma**2, rel=1e-12)


@pytest.fixture(scope="module")
def setup8():
    rng = np.random.default_rng(8)
    mesh = build_unit_square_mesh(8)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    problem = PoissonProblem(mesh, pts, sigma=0.05)
    m_true = 0.5 * rng.standard_normal(problem.dim)
    problem.set_data(generate_synthetic_data(problem, m_true, 0.05, seed=2))
    m0 = 0.3 * rng.standard_normal(problem.dim)
    return problem, m0


class TestDerivatives:
    """Finite-difference pinning of the gradient and Hessian action, n=8."""

    def test_gradient_fd(self, setup8):
        problem, m0 = setup8
        state = problem.evaluate(m0)
        g = state.gradient()
        rng = np.random.default_rng(9)
        eps = 1e-4
        for _ in range(10):
            v = rng.standard_normal(problem.dim)
            v /= np.linalg.norm(v)
            fd = (problem.misfit_cost(m0 + eps * v)
                  - problem.misfit_cost(m0 - eps * v)) / (2 * eps)
            assert abs(fd - g @ v) / abs(fd) <= 1e-5

    def test_hessian_fd(self, setup8):
        problem, m0 = setup8
        state = problem.evaluate(m0)
        rng = np.random.default_rng(10)
        eps = 1e-4
        for _ in range(10):
            v = rng.standard_normal(problem.dim)
            v /= np.linalg.norm(v)
            hv = state.hessian_action(v)
            fd = (problem.misfit_gradient(m0 + eps * v)
                  - problem.misfit_gradient(m0 - eps * v)) / (2 * eps)
            assert np.linalg.norm(hv - fd) / np.linalg.norm(fd) <= 1e-4

    def test_hessian_symmetry(self, setup8):
        problem, m0 = setup8
        state = problem.evaluate(m0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            v1 = rng.standard_normal(problem.dim)
            v2 = rng.standard_normal(problem.dim)
            a = v1 @ state.hessian_action(v2)
            b = v2 @ state.hessian_action(v1)
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_gauss_newton_psd(self, setup8):
        problem, m0 = setup8
        state = problem.evaluate(m0)
        rng = np.random.default_rng(12)
        for _ in range(10):
            v = rng.standard_normal(problem.dim)
            assert v @ state.hessian_action(v, gauss_newton=True) >= -1e-10 * (v @ v)

    def test_gauss_newton_equals_full_at_zero_misfit(self, setup8):
        problem, m0 = setup8
        u = problem.solve_forward(m0)
        exact = PoissonProblem(problem.mesh, problem.obs_points, problem.sigma,
                               data=problem.observe(u))
        state = exact.evaluate(m0)
        v = np.random.default_rng(13).standard_normal(problem.dim)
        full = state.hessian_action(v, gauss_newton=False)
        gn = state.hessian_action(v, gauss_newton=True)
        np.testing.assert_allclose(full, gn, rtol=1e-10, atol=1e-14)

    def test_descent_direction(self, setup8):
        problem, m0 = setup8
        state = problem.evaluate(m0)
        g = state.gradient()
        step = 1e-3 / np.linalg.norm(g)
        assert problem.misfit_cost(m0 - step * g) < state.cost


class TestSyntheticData:
    def test_exact_mode(self, problem4):
        m_true = 0.2 * np.random.default_rng(14).standard_normal(problem4.dim)
        d = generate_synthetic_data(problem4, m_true, 0.05, seed=3, exact=True)
        # Regenerating with noise and subtracting the exact part isolates noise.
        d_noisy = generate_synthetic_data(problem4, m_true, 0.05, seed=3)
        assert np.abs(d_noisy - d).max() > 0
        assert d.shape == (problem4.num_obs,)

    def test_exact_mode_zero_parameter_observes_linear_profile(self, problem4):
        # u = y exactly on every refinement level, so exact data are the
        # observation-point ordinates.
        d = generate_synthetic_data(problem4, np.zeros(problem4.dim), 0.05,
                                    seed=3, exact=True)
        np.testing.assert_allclose(d, problem4.obs_points[:, 1], atol=1e-11)

    def test_deterministic_per_seed(self, problem4):
        m_true = np.zeros(problem4.dim)
        d1 = generate_synthetic_data(problem4, m_true, 0.05, seed=4)
        d2 = generate_synthetic_data(problem4, m_true, 0.05, seed=4)
        d3 = generate_synthetic_data(problem4, m_true, 0.05, seed=5)
        assert np.array_equal(d1, d2)
        assert not np.array_equal(d1, d3)

    def test_noise_variance(self):
        rng = np.random.default_rng(15)
        mesh = build_unit_square_mesh(4)
        pts = rng.uniform(0.05, 0.95, size=(300, 2))
        problem = PoissonProblem(mesh, pts, sigma=0.01)
        m_true = np.zeros(problem.dim)
        exact = generate_synthetic_data(problem, m_true, 0.01, seed=6, exact=True)
        noisy = generate_synthetic_data(problem, m_true, 0.01, seed=6)
        var = np.var(noisy - exact)
        assert abs(var - 0.01**2) / 0.01**2 <= 0.3

    def test_avoids_inverse_crime(self, problem4):
        # Data from the refined mesh differs from same-mesh observations.
        m_true = 0.5 * np.random.default_rng(16).standard_normal(problem4.dim)
        d_fine = generate_synthetic_data(problem4, m_true, 0.05, seed=7, exact=True)
        d_same = problem4.observe(problem4.solve_forward(m_true))
        assert np.abs(d_fine - d_same).max() > 1e-8


class TestQoi:
    def test_zero_parameter(self, problem4):
        state = problem4.evaluate(np.zeros(problem4.dim))
        assert state.qoi() == pytest.approx(0.0, abs=1e-12)

    def test_constant_parameter(self, problem4):
        state = problem4.evaluate(np.full(problem4.dim, 0.8))
        assert state.qoi() == pytest.approx(0.8, abs=1e-10)

    def test_matches_dense_boundary_integration(self, problem4):
        mesh = problem4.mesh
        m = 0.4 * np.random.default_rng(17).standard_normal(problem4.dim)
        state = problem4.evaluate(m)
        # Dense oracle: per-edge flux from the dense forward solution.
        idx, values = dirichlet_setup(mesh)
        u = dense_poisson_solve(mesh, m, values, idx)
        coeff = np.exp(m[mesh.triangles].mean(axis=1))
        flux = 0.0
        for e, (v0, v1) in enumerate(mesh.boundary_edges["bottom"]):
            t = problem4.bottom_tris[e]
            tri = mesh.triangles[t]
            pts = mesh.vertices[tri]
            mat = np.column_stack([np.ones(3), pts])
            grads = np.linalg.inv(mat)[1:, :].T
            grad_u = grads.T @ u[tri]
            h = np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
            flux += h * coeff[t] * (grad_u @ np.array([0.0, -1.0]))
        assert state.qoi() == pytest.approx(np.log(-flux), rel=1e-10)

    def test_nonpositive_flux_raises(self):
        # Reversed boundary data would push flux the other way; emulate by
        # querying the QoI for a state whose flux sign is flipped.
        mesh = build_unit_square_mesh(2)
        problem = PoissonProblem(mesh, [[0.5, 0.5]], sigma=0.1)
        problem.set_data(np.array([0.0]))
        state = problem.evaluate(np.zeros(problem.dim))
        state.u = -state.u
        with pytest.raises(NonPositiveFluxError):
            state.qoi()


class TestBottomFluxTriangles:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_match_edge_lookup(self, n):
        # Reference: the triangle found by looking up each bottom edge.
        mesh = build_unit_square_mesh(n)
        edge_to_tri = {}
        for t, tri in enumerate(mesh.triangles):
            for a, b in ((0, 1), (1, 2), (2, 0)):
                edge_to_tri[frozenset((tri[a], tri[b]))] = t
        expected = np.array([edge_to_tri[frozenset(e)]
                             for e in mesh.boundary_edges["bottom"]],
                            dtype=np.int64)
        problem = PoissonProblem(mesh, [[0.5, 0.5]], sigma=0.1)
        assert problem.bottom_tris.dtype == np.int64
        assert np.array_equal(problem.bottom_tris, expected)


class TestLinearizedModel:
    def test_forward_matrix_consistency(self):
        rng = np.random.default_rng(18)
        mesh = build_unit_square_mesh(4)
        pts = rng.uniform(0.1, 0.9, size=(10, 2))
        lin = LinearizedPoissonProblem(mesh, pts, sigma=0.1)
        f = lin.dense_forward_matrix()
        m = rng.standard_normal(lin.dim)
        np.testing.assert_allclose(lin.observe(lin.solve_forward(m)), f @ m,
                                   rtol=1e-12, atol=1e-14)

    def test_gradient_matches_dense_normal_equations(self):
        rng = np.random.default_rng(19)
        mesh = build_unit_square_mesh(4)
        pts = rng.uniform(0.1, 0.9, size=(10, 2))
        lin = LinearizedPoissonProblem(mesh, pts, sigma=0.1)
        f = lin.dense_forward_matrix()
        d = rng.standard_normal(10)
        lin.set_data(d)
        m = rng.standard_normal(lin.dim)
        g = lin.evaluate(m).gradient()
        np.testing.assert_allclose(g, f.T @ (f @ m - d) / 0.01,
                                   rtol=1e-10, atol=1e-12)

    def test_hessian_is_constant_gauss_newton(self):
        rng = np.random.default_rng(20)
        mesh = build_unit_square_mesh(3)
        pts = rng.uniform(0.1, 0.9, size=(8, 2))
        lin = LinearizedPoissonProblem(mesh, pts, sigma=0.2)
        lin.set_data(rng.standard_normal(8))
        f = lin.dense_forward_matrix()
        v = rng.standard_normal(lin.dim)
        state = lin.evaluate(np.zeros(lin.dim))
        np.testing.assert_allclose(state.hessian_action(v),
                                   f.T @ (f @ v) / 0.04, rtol=1e-10, atol=1e-12)


class TestSolveCounting:
    def test_counts_by_kind(self, problem4):
        problem = PoissonProblem(problem4.mesh, problem4.obs_points,
                                 problem4.sigma, data=problem4.data)
        m = 0.1 * np.random.default_rng(21).standard_normal(problem.dim)
        state = problem.evaluate(m)
        assert problem.counter.snapshot() == (1, 0, 0)
        state.gradient()
        assert problem.counter.snapshot() == (1, 1, 0)
        state.gradient()   # cached
        assert problem.counter.snapshot() == (1, 1, 0)
        state.hessian_action(m)
        assert problem.counter.snapshot() == (1, 1, 2)
