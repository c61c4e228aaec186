"""MAP optimization, randomized eigensolver, and low-rank posterior checks."""

import numpy as np
import pytest
import scipy.linalg

from pdebayes import driver
from pdebayes.config import ConfigError, ExperimentConfig
from pdebayes.fem import build_unit_square_mesh
from pdebayes.laplace import (EigensolverBreakdown, LaplaceApprox,
                              MapConvergenceError, _cg_newton_direction,
                              compute_map, doublepass_randomized_eig,
                              truncate_spectrum)
from pdebayes.models import (LinearizedPoissonProblem, PoissonProblem,
                             generate_synthetic_data)
from pdebayes.prior import BiLaplacianPrior
from pdebayes.targets import PosteriorTarget

from helpers import DenseGaussian, dense_gaussian_posterior, dense_prior_matrices

PRIOR_PARAMS = dict(gamma=0.1, delta=0.5, theta1=2.0, theta2=0.5, alpha=np.pi / 4)
TIGHT = ExperimentConfig(newton_grad_rel_tol=1e-10, newton_grad_abs_tol=1e-10)


@pytest.fixture(scope="module")
def linear_setup():
    rng = np.random.default_rng(1)
    mesh = build_unit_square_mesh(8)
    prior = BiLaplacianPrior(mesh, **PRIOR_PARAMS)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))
    model = LinearizedPoissonProblem(mesh, pts, sigma=0.1)
    f = model.dense_forward_matrix()
    m_true = prior.sample(rng)
    d = f @ m_true + 0.1 * rng.standard_normal(len(pts))
    model.set_data(d)
    _, r_dense, c_dense = dense_prior_matrices(prior)
    mean, cov = dense_gaussian_posterior(f, d, 0.1, prior.mean, c_dense)
    return prior, model, f, r_dense, mean, cov


@pytest.fixture(scope="module")
def poisson_setup():
    # 25 observations keep the misfit curvature rank below the sketch size,
    # so the randomized pairs must agree with the dense solver to roundoff.
    rng = np.random.default_rng(2)
    mesh = build_unit_square_mesh(8)
    prior = BiLaplacianPrior(mesh, **PRIOR_PARAMS)
    pts = rng.uniform(0.05, 0.95, size=(25, 2))
    problem = PoissonProblem(mesh, pts, sigma=0.02)
    m_true = prior.sample(rng)
    problem.set_data(generate_synthetic_data(problem, m_true, seed=3))
    return prior, problem


class TestComputeMap:
    def test_stationary_start_returns_immediately(self):
        rng = np.random.default_rng(4)
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, **PRIOR_PARAMS)
        pts = rng.uniform(0.1, 0.9, size=(10, 2))
        problem = PoissonProblem(mesh, pts, sigma=0.1)
        u = problem.solve_forward(prior.mean)
        problem.set_data(problem.observe(u))
        result = compute_map(problem, prior)
        assert result.iterations == 0
        np.testing.assert_array_equal(result.m, prior.mean)

    def test_linear_model_matches_dense_mean(self, linear_setup):
        prior, model, _, _, mean_dense, _ = linear_setup
        result = compute_map(model, prior, cfg=TIGHT)
        rel = np.linalg.norm(result.m - mean_dense) / np.linalg.norm(mean_dense)
        assert rel <= 1e-8
        assert result.converged

    def test_converges_next_to_minimizer(self, linear_setup):
        # 1e-9 from the minimizer the Armijo decrease is below the rounding
        # of the cost; the line search must still accept the Newton steps.
        prior, model, _, _, mean_dense, _ = linear_setup
        rng = np.random.default_rng(1)
        m0 = mean_dense + 1e-9 * rng.standard_normal(mean_dense.size)
        result = compute_map(model, prior, m0=m0, cfg=TIGHT)
        rel = np.linalg.norm(result.m - mean_dense) / np.linalg.norm(mean_dense)
        assert result.converged
        assert rel <= 1e-8

    def test_cost_decreases(self, poisson_setup):
        prior, problem = poisson_setup
        result = compute_map(problem, prior)
        costs = np.array(result.cost_history)
        assert np.all(np.diff(costs) < 0)
        assert result.cost <= result.cost_history[0]

    def test_gradient_norm_criterion(self, poisson_setup):
        prior, problem = poisson_setup
        m0 = prior.mean
        state = problem.evaluate(m0)
        g0 = np.linalg.norm(state.gradient() + prior.grad(m0))
        result = compute_map(problem, prior)
        assert result.grad_norm <= max(1e-12, 1e-6 * g0)

    def test_every_evaluation_is_a_posterior_state(self, poisson_setup, monkeypatch):
        # The start and every line-search trial are evaluated through
        # PosteriorTarget.make_state, once per model evaluation.
        prior, problem = poisson_setup
        evaluations, states = [], []
        evaluate, make_state = problem.evaluate, PosteriorTarget.make_state

        def counted_evaluate(m):
            evaluations.append(m)
            return evaluate(m)

        def counted_make_state(target, m):
            states.append(m)
            return make_state(target, m)

        monkeypatch.setattr(problem, "evaluate", counted_evaluate)
        monkeypatch.setattr(PosteriorTarget, "make_state", counted_make_state)
        result = compute_map(problem, prior)
        assert len(evaluations) >= result.iterations + 1
        assert len(states) == len(evaluations)

    @pytest.mark.parametrize("error", [TypeError, RuntimeError])
    def test_programming_error_in_line_search_propagates(self, linear_setup, error):
        # Only ModelEvaluationError rejects a trial point; any other error,
        # a plain RuntimeError included, is a defect and must surface
        # instead of stalling the line search.
        prior, model, _, _, _, _ = linear_setup

        class BrokenTrials:
            def __init__(self):
                self.calls = 0

            def evaluate(self, m):
                self.calls += 1
                if self.calls > 1:
                    raise error("defect in the model code")
                return model.evaluate(m)

        with pytest.raises(error, match="defect in the model code"):
            compute_map(BrokenTrials(), prior)

    def test_out_of_range_setting_rejected_before_any_evaluation(self, linear_setup):
        prior = linear_setup[0]

        class NoEvaluations:
            def evaluate(self, m):
                raise AssertionError("model evaluated")

        with pytest.raises(ConfigError, match="newton.grad_rel_tol"):
            compute_map(NoEvaluations(), prior,
                        cfg=ExperimentConfig(newton_grad_rel_tol=-1.0))

    def test_nonconvergence_reported(self, poisson_setup):
        prior, problem = poisson_setup
        cfg = ExperimentConfig(newton_grad_rel_tol=1e-14,
                               newton_grad_abs_tol=1e-16, newton_max_iters=1)
        with pytest.raises(MapConvergenceError) as err:
            compute_map(problem, prior, cfg=cfg)
        assert err.value.grad_norm > 0


def random_spd(rng, n, cond=1e3):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, cond, n)) @ q.T


class TestPreconditionedCG:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(21)
        h = random_spd(rng, 30)
        precond = random_spd(rng, 30, cond=10.0)
        g = rng.standard_normal(30)
        d, iters = _cg_newton_direction(lambda v: h @ v, g, 1e-15, 200,
                                        lambda r: precond @ r)
        x = np.linalg.solve(h, -g)
        assert np.linalg.norm(d - x) <= 1e-10 * np.linalg.norm(x)
        assert iters < 200

    def test_negative_curvature_first_step_is_preconditioned_descent(self):
        rng = np.random.default_rng(22)
        precond = random_spd(rng, 10, cond=10.0)
        g = rng.standard_normal(10)
        d, iters = _cg_newton_direction(lambda v: -v, g, 0.5, 200,
                                        lambda r: precond @ r)
        np.testing.assert_allclose(d, -precond @ g, rtol=1e-14)
        assert iters == 1

    def test_default_config_converges_independently_of_mesh(self):
        cg_totals = {}
        for n in (16, 32, 64):
            cfg = ExperimentConfig(mesh_n=n)
            mesh = build_unit_square_mesh(n)
            prior = driver.build_prior_for(cfg, mesh)
            problem = PoissonProblem(mesh, driver.draw_observation_points(cfg),
                                     cfg.data_sigma)
            problem.set_data(driver.synthesize_data(cfg, problem, prior)[2])
            result = compute_map(problem, prior)
            assert result.converged, n
            cg_totals[n] = result.cg_iterations
        assert cg_totals[64] <= 2 * cg_totals[16], cg_totals


class TestDoublePassEig:
    def test_synthetic_operator_exact(self):
        # Operator built from its own eigendecomposition is recovered.
        rng = np.random.default_rng(5)
        n = 40
        a = rng.standard_normal((n, n))
        prior = DenseGaussian(np.zeros(n), a @ a.T + n * np.eye(n))
        lam_true = np.array([50.0, 20.0, 8.0, 3.0, 1.5])
        z = rng.standard_normal((n, 5))
        # C^{-1}-orthonormalize the block to build H = C^{-1} V L V^T C^{-1}
        prec = np.linalg.inv(prior.cov)
        g = z.T @ prec @ z
        v = z @ np.linalg.inv(np.linalg.cholesky(g)).T
        w = prec @ v
        h = w @ np.diag(lam_true) @ w.T

        lam, vecs = doublepass_randomized_eig(lambda x: h @ x, prior, k=5, p=10,
                                              rng=np.random.default_rng(6))
        np.testing.assert_allclose(lam, lam_true, rtol=1e-9)
        gram = vecs.T @ prec @ vecs
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)

    def test_poisson_matches_dense_generalized_eig(self, poisson_setup):
        # Gauss-Newton curvature: rank bounded by the observation count, so
        # the 50-column sketch spans the whole range of the operator.
        prior, problem = poisson_setup
        result = compute_map(problem, prior, cfg=TIGHT)
        state = problem.evaluate(result.m)
        action = lambda x: state.hessian_action(x, gauss_newton=True)
        lam, vecs = doublepass_randomized_eig(action, prior, k=30, p=20,
                                              rng=np.random.default_rng(7))

        _, r_dense, _ = dense_prior_matrices(prior)
        h_dense = np.column_stack([action(e) for e in np.eye(prior.dim)])
        h_dense = 0.5 * (h_dense + h_dense.T)
        lam_dense = scipy.linalg.eigh(h_dense, r_dense, eigvals_only=True)[::-1]
        keep = lam >= 1.0
        assert keep.sum() >= 3
        rel = np.abs(lam[keep] - lam_dense[:keep.sum()]) / lam_dense[:keep.sum()]
        assert rel.max() <= 1e-6

        gram = vecs.T @ r_dense @ vecs
        assert np.abs(gram - np.eye(len(lam))).max() <= 1e-8

    def test_rejects_oversized_request(self, linear_setup):
        prior = linear_setup[0]
        with pytest.raises(ValueError):
            doublepass_randomized_eig(lambda x: x, prior, k=prior.dim, p=20)

    def test_breakdown_reported(self):
        prior = DenseGaussian(np.zeros(6), np.eye(6))
        with pytest.raises(EigensolverBreakdown):
            doublepass_randomized_eig(lambda x: np.zeros(6), prior, k=2, p=2)


class TestTruncateSpectrum:
    def test_threshold_one(self):
        lam = np.array([3.0, 1.5, 0.2])
        vecs = np.eye(3)
        lam_r, v_r = truncate_spectrum(lam, vecs, 1.0)
        assert lam_r.tolist() == [3.0, 1.5]
        assert v_r.shape == (3, 2)

    def test_threshold_zero_keeps_positive(self):
        lam = np.array([3.0, 1.5, 0.2])
        lam_r, _ = truncate_spectrum(lam, np.eye(3), 0.0)
        assert lam_r.size == 3

    def test_empty_result_allowed(self):
        lam = np.array([0.5, 0.1])
        lam_r, v_r = truncate_spectrum(lam, np.eye(2), 1.0)
        assert lam_r.size == 0
        assert v_r.shape == (2, 0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            truncate_spectrum(np.array([1.0, 2.0]), np.eye(2))


@pytest.fixture(scope="module")
def laplace(linear_setup):
    prior, model, _, _, mean_dense, _ = linear_setup
    result = compute_map(model, prior, cfg=TIGHT)
    state = model.evaluate(result.m)
    lam, vecs = doublepass_randomized_eig(
        lambda x: state.hessian_action(x), prior, k=60, p=20,
        rng=np.random.default_rng(8))
    return LaplaceApprox.from_spectrum(prior, result.m, lam, vecs,
                                       threshold=1e-10)


class TestLowRankPosterior:

    def test_rank_zero_reduces_to_prior(self, linear_setup):
        prior = linear_setup[0]
        la = LaplaceApprox(prior, prior.mean + 1.0,
                           np.zeros(0), np.zeros((prior.dim, 0)))
        v = np.random.default_rng(9).standard_normal(prior.dim)
        np.testing.assert_allclose(la.apply_covariance(v),
                                   prior.apply_covariance(v), rtol=1e-12)
        assert np.array_equal(la.apply_cov_factor(v), prior.apply_cov_factor(v))
        d = v - la.m_map
        assert la.log_density(v) == -0.5 * float(d @ prior.apply_precision(d))
        s1 = la.sample(np.random.default_rng(10))
        s2 = prior.sample(np.random.default_rng(10))
        np.testing.assert_allclose(s1 - la.m_map, s2 - prior.mean, rtol=1e-10)

    def test_hinv_matches_dense_full_rank(self, linear_setup, laplace):
        prior, _, f, r_dense, _, _ = linear_setup
        h_dense = f.T @ f / 0.01 + r_dense
        rng = np.random.default_rng(11)
        for _ in range(5):
            v = rng.standard_normal(prior.dim)
            x = laplace.apply_covariance(v)
            x_dense = np.linalg.solve(h_dense, v)
            assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) <= 1e-8

    def test_eigen_identity(self, laplace):
        w0 = laplace.prior.apply_precision(laplace.vecs[:, 0])
        out = laplace.apply_covariance(w0)
        np.testing.assert_allclose(out, laplace.vecs[:, 0] / (1 + laplace.lam[0]),
                                   atol=1e-10)

    def test_inverse_pair(self, laplace):
        v = np.random.default_rng(12).standard_normal(laplace.dim)
        w = laplace.apply_covariance(laplace.apply_precision(v))
        assert np.linalg.norm(w - v) / np.linalg.norm(v) <= 1e-6

    def test_orthonormality(self, laplace, linear_setup):
        r_dense = linear_setup[3]
        gram = laplace.vecs.T @ r_dense @ laplace.vecs
        assert np.abs(gram - np.eye(laplace.rank)).max() <= 1e-8

    def test_sample_reproducible(self, laplace):
        s1 = laplace.sample(np.random.default_rng(13))
        s2 = laplace.sample(np.random.default_rng(13))
        assert np.array_equal(s1, s2)

    def test_sample_covariance_matches_dense(self, linear_setup, laplace):
        _, _, f, r_dense, mean_dense, cov_dense = linear_setup
        rng = np.random.default_rng(14)
        n_samp = 20000
        n = laplace.dim
        samples = np.empty((n_samp, n))
        for i in range(n_samp):
            samples[i] = laplace.sample(rng)
        emp_mean = samples.mean(axis=0)
        emp_cov = np.cov(samples.T)
        sd = np.sqrt(np.diag(cov_dense))
        np.testing.assert_allclose(laplace.m_map, mean_dense, rtol=1e-7)
        mean_err = np.abs(emp_mean - mean_dense) / (sd / np.sqrt(n_samp))
        assert mean_err.max() <= 5.0
        cov_se = np.sqrt((np.outer(sd, sd) ** 2 + cov_dense**2) / n_samp)
        assert np.max(np.abs(emp_cov - cov_dense) / cov_se) <= 5.0

    def test_log_density_maximal_at_map(self, laplace):
        rng = np.random.default_rng(15)
        peak = laplace.log_density(laplace.m_map)
        for _ in range(5):
            assert laplace.log_density(laplace.sample(rng)) < peak

    def test_log_density_differences_match_dense(self, linear_setup, laplace):
        prior, _, f, r_dense, _, _ = linear_setup
        h_dense = f.T @ f / 0.01 + r_dense
        rng = np.random.default_rng(16)
        m1 = laplace.sample(rng)
        m2 = laplace.sample(rng)
        diff = laplace.log_density(m1) - laplace.log_density(m2)
        d1 = m1 - laplace.m_map
        d2 = m2 - laplace.m_map
        dense = -0.5 * (d1 @ h_dense @ d1) + 0.5 * (d2 @ h_dense @ d2)
        assert diff == pytest.approx(dense, rel=1e-6)

    def test_eigenvalue_stability_under_refinement(self):
        # Dominant eigenvalues barely move between n=8 and n=16; the same
        # data, generated at the finer level, is inverted on both meshes.
        rng = np.random.default_rng(17)
        pts = rng.uniform(0.05, 0.95, size=(60, 2))
        mesh_t = build_unit_square_mesh(16)
        prior_t = BiLaplacianPrior(mesh_t, **PRIOR_PARAMS)
        m_true = prior_t.sample(np.random.default_rng(18))
        problem_t = PoissonProblem(mesh_t, pts, sigma=0.05)
        d = generate_synthetic_data(problem_t, m_true, seed=19)

        lams = {}
        for n in (8, 16):
            mesh = build_unit_square_mesh(n)
            prior = BiLaplacianPrior(mesh, **PRIOR_PARAMS)
            problem = PoissonProblem(mesh, pts, sigma=0.05)
            problem.set_data(d)
            result = compute_map(
                problem, prior, cfg=ExperimentConfig(newton_grad_rel_tol=1e-8))
            state = problem.evaluate(result.m)
            lam, _ = doublepass_randomized_eig(
                lambda x: state.hessian_action(x), prior, k=15, p=15,
                rng=np.random.default_rng(20))
            lams[n] = lam[:10]
        # n=8 is very coarse; the 20% bound of the refinement study applies
        # from n=16 on (exercised in the acceptance suite).
        rel = np.abs(lams[8] - lams[16]) / np.abs(lams[16])
        assert rel.max() <= 0.35
