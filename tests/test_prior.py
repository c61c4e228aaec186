"""Prior operator identities against dense oracles, plus sampling statistics."""

import numpy as np
import pytest

from pdebayes.fem import assemble_mass, assemble_stiffness, build_unit_square_mesh
from pdebayes.prior import BiLaplacianPrior, anisotropy_tensor, default_robin_coefficient

from helpers import dense_prior_matrices, prior_cost

PRIOR_PARAMS = dict(gamma=0.1, delta=0.5, theta1=2.0, theta2=0.5, alpha=np.pi / 4)


@pytest.fixture(scope="module")
def prior4():
    return BiLaplacianPrior(build_unit_square_mesh(4), **PRIOR_PARAMS)


class TestAnisotropyTensor:
    def test_isotropic_reduction(self):
        np.testing.assert_allclose(anisotropy_tensor(1.7, 1.7, 0.3),
                                   1.7 * np.eye(2), atol=1e-14)

    def test_eigenvalues_are_thetas(self):
        theta = anisotropy_tensor(2.0, 0.5, np.pi / 4)
        np.testing.assert_allclose(np.linalg.eigvalsh(theta), [0.5, 2.0],
                                   atol=1e-14)

    def test_spd_for_positive_thetas(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t1, t2 = rng.uniform(0.01, 5.0, 2)
            alpha = rng.uniform(0, 2 * np.pi)
            vals = np.linalg.eigvalsh(anisotropy_tensor(t1, t2, alpha))
            assert vals.min() > 0


class TestConstruction:
    def test_standard_parameters_spd(self):
        prior = BiLaplacianPrior(build_unit_square_mesh(32), **PRIOR_PARAMS)
        # SPD check by factorizing and round-tripping a vector
        v = np.random.default_rng(1).standard_normal(prior.dim)
        w = prior.apply_precision(prior.apply_covariance(v))
        assert np.linalg.norm(w - v) / np.linalg.norm(v) < 1e-8

    def test_default_robin_value(self):
        assert default_robin_coefficient(0.1, 0.5) == pytest.approx(
            np.sqrt(0.05) / 1.42)

    def test_rejects_nonpositive(self):
        mesh = build_unit_square_mesh(2)
        with pytest.raises(ValueError):
            BiLaplacianPrior(mesh, gamma=0.0, delta=0.5)
        with pytest.raises(ValueError):
            BiLaplacianPrior(mesh, gamma=0.1, delta=0.5, theta2=-1.0)

    def test_precision_matches_dense(self, prior4):
        _, r_dense, _ = dense_prior_matrices(prior4)
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.standard_normal(prior4.dim)
            np.testing.assert_allclose(prior4.apply_precision(v), r_dense @ v,
                                       rtol=1e-10, atol=1e-12)

    def test_robin_touches_only_boundary(self):
        # A - (gamma K_Theta + delta M) is the Robin term: nonzero only where
        # both vertices lie on the boundary.
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, 0.1, 0.5)
        diff = np.abs((prior.A - (0.1 * assemble_stiffness(mesh, prior.theta)
                                  + 0.5 * assemble_mass(mesh))).toarray())
        boundary = np.zeros(mesh.num_vertices, dtype=bool)
        boundary[mesh.boundary_vertices(("bottom", "top", "left", "right"))] = True
        assert diff[~np.outer(boundary, boundary)].max() == 0.0
        assert diff.max() > 0.0


class TestQuadraticForm:
    def test_zero_at_mean(self, prior4):
        assert prior_cost(prior4, prior4.mean) == 0.0

    def test_quadratic_scaling(self, prior4):
        d = np.random.default_rng(3).standard_normal(prior4.dim)
        c1 = prior_cost(prior4, prior4.mean + d)
        c2 = prior_cost(prior4, prior4.mean + 2 * d)
        assert c2 == pytest.approx(4 * c1, rel=1e-12)

    def test_cost_matches_dense(self, prior4):
        _, r_dense, _ = dense_prior_matrices(prior4)
        m = np.random.default_rng(4).standard_normal(prior4.dim)
        dense = 0.5 * (m - prior4.mean) @ r_dense @ (m - prior4.mean)
        assert prior_cost(prior4, m) == pytest.approx(dense, rel=1e-10)

    def test_gradient_zero_at_mean(self, prior4):
        assert np.abs(prior4.grad(prior4.mean)).max() == 0.0

    def test_gradient_fd(self, prior4):
        rng = np.random.default_rng(5)
        m = rng.standard_normal(prior4.dim)
        g = prior4.grad(m)
        eps = 1e-6
        for _ in range(5):
            v = rng.standard_normal(prior4.dim)
            v /= np.linalg.norm(v)
            fd = (prior_cost(prior4, m + eps * v)
                  - prior_cost(prior4, m - eps * v)) / (2 * eps)
            assert abs(fd - g @ v) / abs(fd) < 1e-6

    def test_gradient_linear_in_offset(self, prior4):
        d = np.random.default_rng(6).standard_normal(prior4.dim)
        g1 = prior4.grad(prior4.mean + d)
        g3 = prior4.grad(prior4.mean + 3 * d)
        np.testing.assert_allclose(g3, 3 * g1, rtol=1e-12)


class TestOperatorActions:
    def test_precision_covariance_inverse_pair(self, prior4):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(prior4.dim)
        w = prior4.apply_precision(prior4.apply_covariance(v))
        assert np.linalg.norm(w - v) / np.linalg.norm(v) <= 1e-8

    def test_factor_squares_to_covariance(self, prior4):
        _, _, c_dense = dense_prior_matrices(prior4)
        n = prior4.dim
        s = np.column_stack([prior4.apply_cov_factor(e) for e in np.eye(n)])
        np.testing.assert_allclose(s @ s.T, c_dense, rtol=1e-8, atol=1e-12)

    def test_zero_maps_to_zero(self, prior4):
        zero = np.zeros(prior4.dim)
        assert np.all(prior4.apply_covariance(zero) == 0.0)
        assert np.all(prior4.apply_cov_factor(zero) == 0.0)

    def test_actions_symmetric(self, prior4):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(prior4.dim)
        v = rng.standard_normal(prior4.dim)
        ru = u @ prior4.apply_precision(v)
        rv = v @ prior4.apply_precision(u)
        assert abs(ru - rv) <= 1e-10 * abs(ru)
        cu = u @ prior4.apply_covariance(v)
        cv = v @ prior4.apply_covariance(u)
        assert abs(cu - cv) <= 1e-10 * abs(cu)

    def test_factor_inverse(self, prior4):
        v = np.random.default_rng(9).standard_normal(prior4.dim)
        w = prior4.apply_cov_factor(prior4.apply_cov_factor_inv(v))
        assert np.linalg.norm(w - v) / np.linalg.norm(v) < 1e-10

    @pytest.mark.parametrize("cols", [0, 1, 5, 7])
    def test_block_actions_equal_column_loop(self, prior4, cols):
        block = np.random.default_rng(10).standard_normal((prior4.dim, cols))
        for action in (prior4.apply_precision, prior4.apply_cov_factor_inv,
                       prior4.apply_cov_factor, prior4.apply_cov_factor_t):
            loop = np.zeros((prior4.dim, cols))
            for j in range(cols):
                loop[:, j] = action(block[:, j])
            assert np.array_equal(action(block), loop)

    @pytest.mark.parametrize("cols", [None, 3])
    def test_precision_stencil_equals_two_products(self, prior4, cols):
        shape = (prior4.dim,) if cols is None else (prior4.dim, cols)
        v = np.random.default_rng(11).standard_normal(shape)
        a = prior4.A
        expected = a @ ((1.0 / prior4.lumped_mass) * (a @ v).T).T
        got = prior4.apply_precision(v)
        assert got.shape == shape
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        back = prior4.apply_covariance(got)
        assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)


class TestSampling:
    def test_reproducible(self, prior4):
        s1 = prior4.sample(np.random.default_rng(42))
        s2 = prior4.sample(np.random.default_rng(42))
        assert np.array_equal(s1, s2)

    def test_moments_match_dense(self, prior4):
        _, _, c_dense = dense_prior_matrices(prior4)
        rng = np.random.default_rng(10)
        n_samp = 20000
        z = rng.standard_normal((n_samp, prior4.dim))
        samples = np.empty_like(z)
        for i in range(n_samp):
            samples[i] = prior4.mean + prior4.apply_cov_factor(z[i])
        emp_cov = np.cov(samples.T)
        sd = np.sqrt(np.diag(c_dense))
        cov_se = np.sqrt((np.outer(sd, sd) ** 2 + c_dense**2) / n_samp)
        assert np.max(np.abs(emp_cov - c_dense) / cov_se) <= 5.0
        mean_se = sd / np.sqrt(n_samp)
        assert np.max(np.abs(samples.mean(axis=0) - prior4.mean) / mean_se) <= 5.0
