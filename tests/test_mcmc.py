"""Kernel and proposal checks: exact enumeration, detailed balance, counting."""

import logging
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import pdebayes.mcmc as mc
from pdebayes import driver
from pdebayes.config import ExperimentConfig
from pdebayes.fem import build_unit_square_mesh
from pdebayes.laplace import LaplaceApprox, compute_map, doublepass_randomized_eig
from pdebayes.models import LinearizedPoissonProblem, ModelEvaluationError
from pdebayes.prior import BiLaplacianPrior
from pdebayes.targets import ChainState, PosteriorTarget

from helpers import (CallableTarget, DenseGaussian, DenseLinearModel,
                     TableProposal, dense_gaussian_posterior, dr_accept_prob,
                     prior_cost)


def make_dense_laplace(prior, mean, misfit_hessian):
    """Exact low-rank posterior Gaussian of a dense linear-Gaussian problem."""
    lam, u = scipy.linalg.eigh(misfit_hessian, np.linalg.inv(prior.cov))
    lam, u = lam[::-1], u[:, ::-1]
    lam = np.clip(lam, 0.0, None)
    return LaplaceApprox(prior, mean, lam, u)


@pytest.fixture(scope="module")
def gauss2d():
    """2-dim linear-Gaussian posterior with every structure the proposals use."""
    rng = np.random.default_rng(1)
    f = np.array([[1.0, 0.4], [-0.2, 0.8], [0.5, 0.5]])
    prior = DenseGaussian(np.array([0.3, -0.1]),
                          np.array([[1.0, 0.3], [0.3, 0.8]]))
    sigma = 1.2
    d = f @ prior.sample(rng) + sigma * rng.standard_normal(3)
    model = DenseLinearModel(f, d, sigma)
    target = PosteriorTarget(model, prior)
    mean, cov = dense_gaussian_posterior(f, d, sigma, prior.mean, prior.cov)
    laplace = make_dense_laplace(prior, mean, f.T @ f / sigma**2)
    return target, prior, laplace, mean, cov


ALL_PROPOSALS = ["rw", "pcn", "mala", "inf-mala", "h-pcn", "h-mala", "h-inf-mala"]


def make_proposal(name, prior, laplace):
    return {
        "rw": lambda: mc.RandomWalkProposal(prior, 0.7),
        "pcn": lambda: mc.AutoregressiveProposal(prior, 0.6),
        "mala": lambda: mc.LangevinProposal(prior, 0.15),
        "inf-mala": lambda: mc.DimensionRobustLangevinProposal(prior, 0.5),
        "h-pcn": lambda: mc.AutoregressiveProposal(laplace, 0.7),
        "h-mala": lambda: mc.LangevinProposal(laplace, 0.2),
        "h-inf-mala": lambda: mc.DimensionRobustLangevinProposal(
            laplace, 0.8, informed=True),
    }[name]()


class TestProposalDistributions:
    def test_pcn_beta_one_is_reference_draw(self):
        prior = DenseGaussian(np.array([1.0, -2.0]), np.diag([0.5, 2.0]))
        prop = mc.AutoregressiveProposal(prior, 1.0)
        target = CallableTarget(lambda m: 0.0, dim=2)
        state = target.make_state(np.array([5.0, 5.0]))
        rng = np.random.default_rng(2)
        draws = np.array([prop.sample(state, rng) for _ in range(4000)])
        assert np.abs(draws.mean(axis=0) - prior.mean).max() < 0.1
        np.testing.assert_allclose(np.cov(draws.T), prior.cov, atol=0.12)

    def test_mala_mean_at_stationary_point(self):
        prior = DenseGaussian(np.zeros(2), np.eye(2))
        target = CallableTarget(lambda m: -0.5 * m @ m, lambda m: -m, dim=2)
        prop = mc.LangevinProposal(prior, 0.2)
        state = target.make_state(np.zeros(2))
        np.testing.assert_allclose(prop.mean(state), np.zeros(2), atol=1e-15)

    def test_hpcn_mean_at_map(self, gauss2d):
        target, _, laplace, mean, _ = gauss2d
        prop = mc.AutoregressiveProposal(laplace, 0.5)
        state = target.make_state(mean.copy())
        np.testing.assert_allclose(prop.mean(state), mean, atol=1e-12)

    def test_inf_mala_matches_stated_form(self, gauss2d):
        # Mean must equal sqrt(1-b^2) m + (b sqrt(h)/2)(mean_pr - C grad_misfit).
        target, prior, _, _, _ = gauss2d
        h = 0.37
        prop = mc.DimensionRobustLangevinProposal(prior, h)
        beta = 4 * math.sqrt(h) / (4 + h)
        state = target.make_state(np.array([0.4, -0.9]))
        expect = (math.sqrt(1 - beta**2) * state.m
                  + beta * math.sqrt(h) / 2
                  * (prior.mean - prior.cov @ state.grad_misfit))
        np.testing.assert_allclose(prop.mean(state), expect, rtol=1e-12)

    def test_h_inf_mala_matches_stated_form(self, gauss2d):
        target, prior, laplace, _, _ = gauss2d
        h = 0.52
        prop = mc.DimensionRobustLangevinProposal(laplace, h, informed=True)
        beta = 4 * math.sqrt(h) / (4 + h)
        state = target.make_state(np.array([-0.3, 0.7]))
        hinv = np.column_stack([laplace.apply_covariance(e) for e in np.eye(2)])
        pull = np.linalg.solve(prior.cov, state.m - prior.mean)
        expect = (math.sqrt(1 - beta**2) * state.m
                  + beta * math.sqrt(h) / 2
                  * (state.m - hinv @ pull - hinv @ state.grad_misfit))
        np.testing.assert_allclose(prop.mean(state), expect, rtol=1e-11)

    def test_hmala_log_density_maximal_at_mean(self, gauss2d):
        # At the posterior mode the Langevin drift vanishes, so the proposal
        # density peaks exactly at the current point.
        target, _, laplace, mean, _ = gauss2d
        prop = mc.LangevinProposal(laplace, 0.3)
        state = target.make_state(mean.copy())
        np.testing.assert_allclose(prop.mean(state), mean, atol=1e-10)
        at_mean = prop.log_density(state, mean)
        assert at_mean == pytest.approx(0.0, abs=1e-18)
        rng = np.random.default_rng(6)
        for _ in range(5):
            assert prop.log_density(state, mean + 0.1 * rng.standard_normal(2)) < at_mean

    def test_parameter_validation(self, gauss2d):
        _, prior, laplace, _, _ = gauss2d
        with pytest.raises(ValueError):
            mc.AutoregressiveProposal(prior, 0.0)
        with pytest.raises(ValueError):
            mc.AutoregressiveProposal(prior, 1.5)
        with pytest.raises(ValueError):
            mc.LangevinProposal(prior, -0.1)
        with pytest.raises(ValueError):
            mc.DimensionRobustLangevinProposal(prior, 0.0)
        with pytest.raises(ValueError):
            mc.RandomWalkProposal(prior, 0.0)

    def test_gradient_requirement_rejected_at_setup(self):
        prior = DenseGaussian(np.zeros(2), np.eye(2))
        target = CallableTarget(lambda m: -0.5 * m @ m, dim=2)   # no gradient
        kernel = mc.MHKernel(mc.LangevinProposal(prior, 0.1))
        with pytest.raises(ValueError):
            mc.run_chain(target, kernel, np.zeros(2), 5, seed=0)

    def test_pcn_density_ratio_matches_dense(self):
        rng = np.random.default_rng(3)
        cov = np.array([[0.9, 0.2], [0.2, 0.4]])
        prior = DenseGaussian(np.array([0.1, 0.2]), cov)
        beta = 0.45
        prop = mc.AutoregressiveProposal(prior, beta)
        target = CallableTarget(lambda m: 0.0, dim=2)
        a = target.make_state(rng.standard_normal(2))
        b = target.make_state(rng.standard_normal(2))

        def dense_logq(frm, to):
            mean = prior.mean + math.sqrt(1 - beta**2) * (frm - prior.mean)
            diff = to - mean
            return -0.5 * diff @ np.linalg.solve(beta**2 * cov, diff)

        ratio = prop.log_density(b, a.m) - prop.log_density(a, b.m)
        dense = dense_logq(b.m, a.m) - dense_logq(a.m, b.m)
        assert ratio == pytest.approx(dense, rel=1e-12)

    def test_rw_symmetric(self, gauss2d):
        target, prior, _, _, _ = gauss2d
        prop = mc.RandomWalkProposal(prior, 0.8)
        rng = np.random.default_rng(4)
        a = target.make_state(rng.standard_normal(2))
        b = target.make_state(rng.standard_normal(2))
        assert prop.log_density(a, b.m) == pytest.approx(
            prop.log_density(b, a.m), rel=1e-12)


class TestAcceptProbability:
    def test_equal_posterior_symmetric(self):
        prior = DenseGaussian(np.zeros(1), np.eye(1))
        target = CallableTarget(lambda m: 1.23, dim=1)
        prop = mc.RandomWalkProposal(prior, 1.0)
        a = target.make_state(np.array([0.0]))
        b = target.make_state(np.array([1.0]))
        assert dr_accept_prob([prop], a, [], b) == pytest.approx(1.0)

    def test_half_posterior_ratio(self):
        prior = DenseGaussian(np.zeros(1), np.eye(1))
        target = CallableTarget(lambda m: math.log(0.5) if m[0] > 0.5 else 0.0,
                                dim=1)
        prop = mc.RandomWalkProposal(prior, 1.0)
        a = target.make_state(np.array([0.0]))
        b = target.make_state(np.array([1.0]))
        assert dr_accept_prob([prop], a, [], b) == pytest.approx(0.5, rel=1e-12)

    def test_standard_normal_unit_step(self):
        prior = DenseGaussian(np.zeros(1), np.eye(1))
        target = CallableTarget(lambda m: -0.5 * float(m @ m), dim=1)
        prop = mc.RandomWalkProposal(prior, 1.0)
        a = target.make_state(np.array([0.0]))
        b = target.make_state(np.array([1.0]))
        assert dr_accept_prob([prop], a, [], b) == pytest.approx(
            math.exp(-0.5), rel=1e-12)

    def test_no_overflow_at_extreme_log_posteriors(self):
        prior = DenseGaussian(np.zeros(1), np.eye(1))
        target = CallableTarget(lambda m: -1e6 * float(m[0] ** 2), dim=1)
        prop = mc.RandomWalkProposal(prior, 1.0)
        a = target.make_state(np.array([0.0]))
        b = target.make_state(np.array([1.0]))
        assert dr_accept_prob([prop], a, [], b) == 0.0
        assert dr_accept_prob([prop], b, [], a) == 1.0

    def test_detailed_balance_identity(self, gauss2d):
        # pi(a) q(b|a) alpha(a->b) = pi(b) q(a|b) alpha(b->a), every proposal.
        target, prior, laplace, _, _ = gauss2d
        rng = np.random.default_rng(5)
        for name in ALL_PROPOSALS:
            prop = make_proposal(name, prior, laplace)
            for _ in range(3):
                a = target.make_state(rng.standard_normal(2))
                b = target.make_state(rng.standard_normal(2))
                lhs = (a.log_posterior + prop.log_density(a, b.m)
                       + mc.dr_accept_log_prob([prop], a, [], b))
                rhs = (b.log_posterior + prop.log_density(b, a.m)
                       + mc.dr_accept_log_prob([prop], b, [], a))
                assert lhs == pytest.approx(rhs, rel=1e-12), name


def three_state_target():
    logpi = {0.0: math.log(0.5), 1.0: math.log(0.3), 2.0: math.log(0.2)}
    return CallableTarget(lambda m: logpi[float(m[0])], dim=1), [0.0, 1.0, 2.0]


class TestThreeStateEnumeration:
    def stationary(self, t):
        vals, vecs = np.linalg.eig(t.T)
        idx = np.argmin(np.abs(vals - 1.0))
        pi = np.real(vecs[:, idx])
        return pi / pi.sum()

    def test_mh_exact_stationary(self):
        target, states = three_state_target()
        table = np.array([[0.2, 0.5, 0.3],
                          [0.4, 0.1, 0.5],
                          [0.25, 0.45, 0.3]])
        prop = TableProposal(states, table)
        chain_states = [target.make_state(np.array([s])) for s in states]
        t = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                alpha = dr_accept_prob([prop], chain_states[i], [], chain_states[j])
                t[i, j] = table[i, j] * alpha
            t[i, i] = 1.0 - t[i].sum()
        pi = self.stationary(t)
        np.testing.assert_allclose(pi, [0.5, 0.3, 0.2], atol=1e-12)

    def test_two_stage_dr_exact_stationary(self):
        target, states = three_state_target()
        table1 = np.array([[0.1, 0.6, 0.3],
                           [0.5, 0.2, 0.3],
                           [0.3, 0.4, 0.3]])
        table2 = np.array([[0.3, 0.3, 0.4],
                           [0.2, 0.5, 0.3],
                           [0.45, 0.25, 0.3]])
        props = [TableProposal(states, table1), TableProposal(states, table2)]
        cs = [target.make_state(np.array([s])) for s in states]

        t = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                a1 = dr_accept_prob(props, cs[i], [], cs[j])
                t[i, j] += table1[i, j] * a1
                for k in range(3):
                    a2 = dr_accept_prob(props, cs[i], [cs[j]], cs[k])
                    t[i, k] += table1[i, j] * (1 - a1) * table2[i, k] * a2
        for i in range(3):
            t[i, i] += 1.0 - t[i].sum()
        assert np.all(t >= -1e-15)
        pi = self.stationary(t)
        np.testing.assert_allclose(pi, [0.5, 0.3, 0.2], atol=1e-12)

    def test_dr_unit_second_stage_branch(self):
        # Uniform symmetric stages and equal end densities force alpha2 = 1.
        target, states = three_state_target()
        uniform = TableProposal(states, np.full((3, 3), 1 / 3))
        same = CallableTarget(lambda m: -1.0 if m[0] != 1.0 else -2.0, dim=1)
        a = same.make_state(np.array([0.0]))
        b = same.make_state(np.array([1.0]))
        c = same.make_state(np.array([2.0]))
        assert dr_accept_prob([uniform, uniform], a, [b], c) == pytest.approx(1.0)

    def test_dr_degenerate_denominator_forces_rejection(self):
        # Stage-1 move a->b certain to be accepted makes the stage-2
        # denominator vanish; the branch must reject.
        target, states = three_state_target()
        uniform = TableProposal(states, np.full((3, 3), 1 / 3))
        increasing = CallableTarget(lambda m: float(m[0]), dim=1)
        a = increasing.make_state(np.array([0.0]))
        b = increasing.make_state(np.array([1.0]))
        c = increasing.make_state(np.array([2.0]))
        assert dr_accept_prob([uniform, uniform], a, [b], c) == 0.0


def dr_transition_matrix(log_pi, tables):
    """One-step transition matrix of delayed rejection over states 0..K-1.

    Enumerates every path of stage-k proposals y_k ~ tables[k][i], each
    rejected with probability 1 - alpha_k before the next stage; a path
    rejected at every stage stays at i.
    """
    k = len(log_pi)
    target = CallableTarget(lambda m: log_pi[int(m[0])], dim=1)
    states = [target.make_state(np.array([float(s)])) for s in range(k)]
    props = [TableProposal(range(k), table) for table in tables]
    t = np.zeros((k, k))

    def walk(i, rejected, weight):
        stage = len(rejected)
        if stage == len(props):
            t[i, i] += weight
            return
        for j in range(k):
            alpha = dr_accept_prob(props, states[i], rejected, states[j])
            w = weight * tables[stage][i, j]
            t[i, j] += w * alpha
            walk(i, rejected + [states[j]], w * (1.0 - alpha))

    for i in range(k):
        walk(i, [], 1.0)
    return t


@st.composite
def finite_targets(draw, n_stages):
    """A target on K in 2..5 states and n_stages strictly positive tables."""
    k = draw(st.integers(2, 5))
    log_pi = draw(st.lists(st.floats(-5, 5), min_size=k, max_size=k))
    rows = st.lists(st.floats(0.05, 1), min_size=k, max_size=k)
    tables = [np.array(draw(st.lists(rows, min_size=k, max_size=k)))
              for _ in range(n_stages)]
    return log_pi, [table / table.sum(axis=1, keepdims=True) for table in tables]


# The stage count is a parameter, not drawn, so that every count gets its
# share of cases. Fixed examples and no example database: the same cases
# run every time.
@pytest.mark.parametrize("n_stages", [1, 2, 3])
@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(data=st.data())
def test_dr_kernel_satisfies_detailed_balance(n_stages, data):
    log_pi, tables = data.draw(finite_targets(n_stages))
    t = dr_transition_matrix(log_pi, tables)
    pi = np.exp(np.array(log_pi) - max(log_pi))
    pi /= pi.sum()
    assert np.all(t >= 0.0)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    flow = pi[:, None] * t
    assert np.abs(flow - flow.T).max() <= 1e-12


class TestSteps:
    def test_always_accept_path(self):
        prior = DenseGaussian(np.zeros(2), np.diag([1.0, 2.0]))
        target = CallableTarget(lambda m: -prior.cost(m), dim=2)
        kernel = mc.MHKernel(mc.AutoregressiveProposal(prior, 1.0))
        rec = mc.run_chain(target, kernel, np.array([3.0, -3.0]), 200, seed=6)
        assert rec.stage_accepts[0] == 200

    def test_fixed_seed_reproducible(self, gauss2d):
        target, prior, laplace, _, _ = gauss2d
        kernel = mc.DRKernel([mc.AutoregressiveProposal(laplace, 1.0),
                              mc.LangevinProposal(laplace, 0.2)])
        rec1 = mc.run_chain(target, kernel, np.zeros(2), 100, seed=7,
                            projector=lambda m: m.copy())
        rec2 = mc.run_chain(target, kernel, np.zeros(2), 100, seed=7,
                            projector=lambda m: m.copy())
        assert np.array_equal(rec1.coords, rec2.coords)
        assert np.array_equal(rec1.accepted, rec2.accepted)
        rec3 = mc.run_chain(target, kernel, np.zeros(2), 100, seed=8,
                            projector=lambda m: m.copy())
        assert not np.array_equal(rec1.coords, rec3.coords)

    def test_dr_single_stage_equals_mh(self, gauss2d):
        target, prior, laplace, _, _ = gauss2d
        prop = mc.AutoregressiveProposal(laplace, 0.6)
        rec_mh = mc.run_chain(target, mc.MHKernel(prop), np.zeros(2), 150,
                              seed=9, projector=lambda m: m.copy())
        rec_dr = mc.run_chain(target, mc.DRKernel([prop]), np.zeros(2), 150,
                              seed=9, projector=lambda m: m.copy())
        assert np.array_equal(rec_mh.coords, rec_dr.coords)

    def test_all_stages_rejected_keeps_state(self, gauss2d):
        target, prior, laplace, _, _ = gauss2d
        far = CallableTarget(lambda m: -1e8 * float((m - 50.0) @ (m - 50.0)),
                             dim=2)
        kernel = mc.DRKernel([mc.RandomWalkProposal(prior, 0.1),
                              mc.RandomWalkProposal(prior, 0.01)])
        start = np.array([50.0, 50.0])
        rec = mc.run_chain(far, kernel, start, 20, seed=10,
                           projector=lambda m: m.copy())
        accepted_any = rec.accepted > 0
        for i in range(20):
            if not accepted_any[:i + 1].any():
                np.testing.assert_array_equal(rec.coords[i], start)

    def test_dr_failure_counts_only_attempted_stages(self):
        # Every proposed point fails to evaluate, so stage 2 is never reached.
        start = np.zeros(2)
        failing = CallableTarget(
            lambda m: 0.0 if np.array_equal(m, start) else math.nan, dim=2)
        prior = DenseGaussian(np.zeros(2), np.eye(2))
        kernel = mc.DRKernel([mc.RandomWalkProposal(prior, 0.5),
                              mc.RandomWalkProposal(prior, 0.1)])
        rec = mc.run_chain(failing, kernel, start, 10, seed=11)
        assert rec.stage_attempts.tolist() == [10, 0]
        assert rec.stage_accepts.tolist() == [0, 0]
        assert not rec.accepted.any()

    def test_dr_nan_ratio_rejects_without_drawing(self, caplog):
        # The NaN is rejected by _accept alone: no uniform is drawn after the
        # proposal's sample, and one warning is logged.
        class NanDensityWalk(mc.RandomWalkProposal):
            def log_density(self, from_state, to):
                return math.nan

        prior = DenseGaussian(np.zeros(2), np.eye(2))
        target = CallableTarget(lambda m: 0.0, dim=2)
        current = target.make_state(np.zeros(2))
        kernel = mc.DRKernel([NanDensityWalk(prior, 0.5)])
        rng = np.random.default_rng(12)
        with caplog.at_level(logging.WARNING, logger=mc.__name__):
            state, code, attempted, accepted = kernel.step(target, current, rng)
        reference = np.random.default_rng(12)
        reference.standard_normal(2)
        assert rng.bit_generator.state == reference.bit_generator.state
        nan_warnings = [r for r in caplog.records if r.getMessage()
                        == "NaN acceptance ratio; rejecting the proposed point"]
        assert len(nan_warnings) == 1
        assert state is current and code == 0
        assert attempted.tolist() == [1] and accepted.tolist() == [0]

    def test_dr_nan_ratio_ends_the_step(self, caplog):
        # A NaN at stage 1 makes every later stage's ratio NaN (it enters
        # through 1 - alpha_1), so the step ends there: stage 2 is neither
        # sampled nor evaluated, and one warning is logged.
        class NanDensityWalk(mc.RandomWalkProposal):
            def log_density(self, from_state, to):
                return math.nan

        class CountedWalk(mc.RandomWalkProposal):
            samples = 0

            def sample(self, state, rng):
                CountedWalk.samples += 1
                return super().sample(state, rng)

        evaluations = []
        prior = DenseGaussian(np.zeros(2), np.eye(2))
        target = CallableTarget(lambda m: evaluations.append(m) or 0.0, dim=2)
        current = target.make_state(np.zeros(2))
        proposals = [NanDensityWalk(prior, 0.5), CountedWalk(prior, 0.1)]
        kernel = mc.DRKernel(proposals)
        rng = np.random.default_rng(13)
        with caplog.at_level(logging.WARNING, logger=mc.__name__):
            state, code, attempted, accepted = kernel.step(target, current, rng)
        reference = np.random.default_rng(13)
        reference.standard_normal(2)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert CountedWalk.samples == 0 and len(evaluations) == 2
        nan_warnings = [r for r in caplog.records if r.getMessage()
                        == "NaN acceptance ratio; rejecting the proposed point"]
        assert len(nan_warnings) == 1
        assert state is current and code == 0
        assert attempted.tolist() == [1, 0] and accepted.tolist() == [0, 0]
        # The stage-2 ratio the step skipped would have been NaN.
        y1 = target.make_state(np.ones(2))
        y2 = target.make_state(np.full(2, 0.5))
        assert math.isnan(mc.dr_accept_log_prob(proposals, current, [y1], y2))

    def test_chain_mean_matches_posterior(self, gauss2d):
        target, prior, laplace, mean, cov = gauss2d
        kernel = mc.MHKernel(mc.AutoregressiveProposal(laplace, 0.9))
        recs = [mc.run_chain(target, kernel,
                             laplace.sample(np.random.default_rng(20 + i)),
                             4000, seed=30 + i, projector=lambda m: m.copy())
                for i in range(4)]
        allc = np.concatenate([r.coords for r in recs])
        se = np.sqrt(np.diag(cov)) / np.sqrt(len(allc) / 10.0)
        assert np.abs(allc.mean(axis=0) - mean).max() <= 4 * np.abs(se).max()


class FailingModel:
    """Evaluates like model at start and raises error everywhere else."""

    def __init__(self, model, start, error):
        self.model = model
        self.start = start
        self.error = error

    def evaluate(self, m):
        if not np.array_equal(m, self.start):
            raise self.error("cannot evaluate here")
        return self.model.evaluate(m)


class TestModelFailures:
    """ModelEvaluationError rejects a point; any other error stops the run."""

    @pytest.fixture(params=["mh", "dili"])
    def kernel(self, request, gauss2d):
        laplace = gauss2d[2]
        if request.param == "mh":
            return mc.MHKernel(mc.AutoregressiveProposal(laplace, 0.5))
        return mc.DiliKernel(laplace, lis_step=0.4, cs_beta=0.7)

    def test_model_failure_rejects_and_is_logged(self, gauss2d, kernel, caplog):
        model, prior = gauss2d[0].model, gauss2d[1]
        start = np.zeros(2)
        target = PosteriorTarget(FailingModel(model, start, ModelEvaluationError),
                                 prior)
        with caplog.at_level(logging.WARNING, logger=mc.__name__):
            rec = mc.run_chain(target, kernel, start, 5, seed=19)
        assert rec.accepted.tolist() == [0] * 5
        failures = [r for r in caplog.records
                    if r.getMessage().startswith("model failure")]
        assert len(failures) == 5 * kernel.n_stages

    def test_other_runtime_error_stops_the_chain(self, gauss2d, kernel):
        model, prior = gauss2d[0].model, gauss2d[1]
        start = np.zeros(2)
        target = PosteriorTarget(FailingModel(model, start, RuntimeError), prior)
        with pytest.raises(RuntimeError, match="cannot evaluate here") as err:
            mc.run_chain(target, kernel, start, 5, seed=19)
        assert not isinstance(err.value, ModelEvaluationError)

    def test_qoi_failure_is_nan_and_other_errors_propagate(self, gauss2d):
        target = gauss2d[0]

        class NoQoi:
            def __init__(self, error):
                self.error = error

            def qoi(self):
                raise self.error("no quantity of interest")

        m = np.zeros(2)
        assert math.isnan(ChainState(target, m, 0.0, NoQoi(ModelEvaluationError)).qoi())
        with pytest.raises(RuntimeError, match="no quantity of interest"):
            ChainState(target, m, 0.0, NoQoi(RuntimeError)).qoi()


class TestPosteriorGradientConsistency:
    def test_gradient_matches_fd_of_log_posterior(self):
        rng = np.random.default_rng(19)
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, 0.1, 0.5, theta1=2.0, theta2=0.5,
                                 alpha=np.pi / 4)
        pts = rng.uniform(0.1, 0.9, size=(12, 2))
        model = LinearizedPoissonProblem(mesh, pts, sigma=0.1)
        model.set_data(rng.standard_normal(12))
        target = PosteriorTarget(model, prior)
        m0 = prior.sample(rng)
        state = target.make_state(m0)
        g = state.grad_log_posterior
        eps = 1e-5
        for _ in range(5):
            v = rng.standard_normal(prior.dim)
            v /= np.linalg.norm(v)
            fd = (target.make_state(m0 + eps * v).log_posterior
                  - target.make_state(m0 - eps * v).log_posterior) / (2 * eps)
            assert abs(fd - g @ v) / abs(fd) <= 1e-5


class TestPriorTargetSampling:
    def test_pcn_chain_recovers_prior_covariance(self):
        # Likelihood-free target: every pCN move is accepted and the chain is
        # an exact AR(1) in function space with stationary law the prior.
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, 0.1, 0.5, theta1=2.0, theta2=0.5,
                                 alpha=np.pi / 4)
        target = CallableTarget(lambda m: -prior_cost(prior, m), dim=prior.dim)
        beta = 0.6
        kernel = mc.MHKernel(mc.AutoregressiveProposal(prior, beta))
        n_steps = 20000
        rec = mc.run_chain(target, kernel, prior.sample(np.random.default_rng(0)),
                           n_steps, seed=17, projector=lambda m: m.copy())
        assert rec.stage_accepts[0] == n_steps

        from helpers import dense_prior_matrices
        _, _, c_dense = dense_prior_matrices(prior)
        # lag-1 coefficient sqrt(1-beta^2) gives the exact correlation time
        rho = np.sqrt(1 - beta**2)
        n_eff = n_steps * (1 - rho) / (1 + rho)
        sd = np.sqrt(np.diag(c_dense))
        mean_dev = np.abs(rec.coords.mean(axis=0) - prior.mean) / (sd / np.sqrt(n_eff))
        assert mean_dev.max() <= 5.0
        emp_cov = np.cov(rec.coords.T)
        cov_se = np.sqrt((np.outer(sd, sd) ** 2 + c_dense**2) / n_eff)
        assert np.max(np.abs(emp_cov - c_dense) / cov_se) <= 5.0


class TestHpcnAcceptanceRatioDense:
    def test_matches_dense_computation_on_linear_model(self):
        # Every term of the H-pCN acceptance ratio recomputed densely.
        rng = np.random.default_rng(18)
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, 0.1, 0.5, theta1=2.0, theta2=0.5,
                                 alpha=np.pi / 4)
        pts = rng.uniform(0.1, 0.9, size=(12, 2))
        model = LinearizedPoissonProblem(mesh, pts, sigma=0.1)
        f = model.dense_forward_matrix()
        d = f @ prior.sample(rng) + 0.1 * rng.standard_normal(12)
        model.set_data(d)
        target = PosteriorTarget(model, prior)

        from helpers import dense_prior_matrices
        _, r_dense, c_dense = dense_prior_matrices(prior)
        h_misfit = f.T @ f / 0.01
        lam, u = scipy.linalg.eigh(h_misfit, r_dense)
        lam, u = np.clip(lam[::-1], 0, None), u[:, ::-1]
        mean_post = np.linalg.solve(h_misfit + r_dense,
                                    f.T @ d / 0.01 + r_dense @ prior.mean)
        laplace = LaplaceApprox.from_spectrum(prior, mean_post, lam, u, 1.0)
        h_dense = r_dense + (r_dense @ laplace.vecs) @ np.diag(laplace.lam) \
            @ (r_dense @ laplace.vecs).T

        beta = 0.55
        prop = mc.AutoregressiveProposal(laplace, beta)
        keep = np.sqrt(1 - beta**2)

        def dense_logq(frm, to):
            mu = mean_post + keep * (frm - mean_post)
            diff = to - mu
            return -0.5 / beta**2 * diff @ h_dense @ diff

        def dense_logpost(m):
            r = f @ m - d
            return (-0.5 * (r @ r) / 0.01
                    - 0.5 * (m - prior.mean) @ r_dense @ (m - prior.mean))

        for _ in range(5):
            a = target.make_state(prior.sample(rng))
            b = target.make_state(laplace.sample(rng))
            ours = mc.dr_accept_log_prob([prop], a, [], b)
            dense = min(0.0, dense_logpost(b.m) - dense_logpost(a.m)
                        + dense_logq(b.m, a.m) - dense_logq(a.m, b.m))
            assert ours == pytest.approx(dense, abs=1e-8)


class TestSolveCounting:
    @pytest.fixture()
    def pde_target(self):
        rng = np.random.default_rng(11)
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, 0.1, 0.5, theta1=2.0, theta2=0.5,
                                 alpha=np.pi / 4)
        pts = rng.uniform(0.1, 0.9, size=(10, 2))
        model = LinearizedPoissonProblem(mesh, pts, sigma=0.5)
        model.set_data(rng.standard_normal(10))
        return PosteriorTarget(model, prior), prior, model

    def test_pcn_needs_one_forward_per_proposal(self, pde_target):
        target, prior, model = pde_target
        n = 25
        mc.run_chain(target, mc.MHKernel(mc.AutoregressiveProposal(prior, 0.5)),
                     prior.mean, n, seed=12)
        assert model.counter.forward == n + 1
        assert model.counter.adjoint == 0

    def test_mala_needs_one_gradient_per_proposal(self, pde_target):
        target, prior, model = pde_target
        n = 25
        mc.run_chain(target, mc.MHKernel(mc.LangevinProposal(prior, 0.05)),
                     prior.mean, n, seed=13)
        assert model.counter.forward == n + 1
        assert model.counter.adjoint == n + 1
        assert model.counter.incremental == 0


# ---------------------------------------------------------------------------
# Langevin moves through the reference factor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["dense", "linearized", "poisson"])
def langevin_setup(request, gauss2d):
    """(target, prior, laplace): the dense 2-dim problem, or the default
    experiment's pipeline at mesh n = 8 for either PDE model."""
    if request.param == "dense":
        target, prior, laplace, _, _ = gauss2d
        return target, prior, laplace
    cfg = ExperimentConfig(model_kind=request.param, mesh_n=8, data_count=30,
                           eig_k=20, eig_oversampling=10)
    mesh = build_unit_square_mesh(cfg.mesh_n)
    prior = driver.build_prior_for(cfg, mesh)
    problem = driver.PROBLEMS[cfg.model_kind](
        mesh, driver.draw_observation_points(cfg), cfg.data_sigma)
    problem.set_data(driver.synthesize_data(cfg, problem, prior)[2])
    m_map = compute_map(problem, prior, cfg=cfg).m
    map_state = problem.evaluate(m_map)
    lam, vecs = doublepass_randomized_eig(
        map_state.hessian_action, prior, k=cfg.eig_k, p=cfg.eig_oversampling,
        rng=np.random.default_rng(cfg.eig_seed))
    laplace = LaplaceApprox.from_spectrum(prior, m_map, lam, vecs,
                                          threshold=cfg.eig_threshold)
    return PosteriorTarget(problem, prior), prior, laplace


class TestLangevinFactorForm:
    """MALA (prior reference) and H-MALA (Laplace reference) move through the
    reference factor and accept through a closed-form log ratio; both must
    equal the Gaussian proposal they stand for."""

    @staticmethod
    def proposal(name, prior, laplace):
        if name == "mala":
            return mc.LangevinProposal(prior, 1e-3)
        return mc.LangevinProposal(laplace, 0.2)

    @pytest.mark.parametrize("name", ["mala", "h-mala"])
    def test_log_ratio_equals_density_difference(self, langevin_setup, name):
        target, prior, laplace = langevin_setup
        prop = self.proposal(name, prior, laplace)
        rng = np.random.default_rng(31)
        for _ in range(4):
            a = target.make_state(laplace.sample(rng))
            b = target.make_state(prop.sample(a, rng))
            expected = prop.log_density(b, a.m) - prop.log_density(a, b.m)
            assert abs(expected) > 1e-3
            assert prop.log_ratio(a, b) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("name", ["mala", "h-mala"])
    def test_draw_equals_mean_plus_scaled_factor(self, langevin_setup, name):
        target, prior, laplace = langevin_setup
        prop = self.proposal(name, prior, laplace)
        rng = np.random.default_rng(32)
        for _ in range(4):
            state = target.make_state(laplace.sample(rng))
            z = rng.standard_normal(prior.dim)
            expected = prop.mean(state) + prop.scale * prop.reference.apply_cov_factor(z)
            drawn = prop.draw(state, z)
            # The Laplace actions take a low-rank part off prior-scale terms,
            # so their rounding is relative to the size of those terms.
            size = (np.linalg.norm(state.m)
                    + prop.tau * np.linalg.norm(prior.apply_covariance(
                        state.grad_log_posterior))
                    + prop.scale * np.linalg.norm(prior.apply_cov_factor(z)))
            assert np.linalg.norm(drawn - expected) <= 1e-12 * size


# ---------------------------------------------------------------------------
# Per-step and per-state memos: each density and mean is computed once
# ---------------------------------------------------------------------------

def gaussian_callable_target():
    """CallableTarget N(mean, cov) with its gradient, and the DenseGaussian."""
    gauss = DenseGaussian(np.array([0.5, -0.4]),
                          np.array([[0.6, -0.2], [-0.2, 0.9]]))
    return CallableTarget(lambda m: -gauss.cost(m),
                          lambda m: -gauss.grad(m), dim=2), gauss


def dr_stage_proposals(kind, n_stages, gauss2d):
    """Target, start and DR proposals wide enough to reach every stage often."""
    if kind == "dense":
        target, prior, reference, _, _ = gauss2d
        stages = [mc.RandomWalkProposal(prior, 3.0),
                  mc.LangevinProposal(reference, 0.8),
                  mc.DimensionRobustLangevinProposal(reference, 2.0, informed=True)]
    else:
        target, reference = gaussian_callable_target()
        stages = [mc.RandomWalkProposal(reference, 2.5),
                  mc.LangevinProposal(reference, 0.5),
                  mc.DimensionRobustLangevinProposal(reference, 1.5)]
    return target, reference.mean, stages[:n_stages]


def plain_dr_step(proposals, target, current, rng):
    """DRKernel.step without its memo: every density evaluated on each call."""
    rejected = []
    for j, proposal in enumerate(proposals):
        proposed = target.make_state(proposal.sample(current, rng))
        log_alpha = mc.dr_accept_log_prob(proposals, current, rejected, proposed)
        if mc._accept(rng, log_alpha):
            return proposed, j + 1
        rejected.append(proposed)
    return current, 0


def count_calls(monkeypatch, obj, name):
    """Wrap obj.name (an instance attribute, undone after the test); returns
    the list of the first positional argument of every call."""
    seen = []
    method = getattr(obj, name)

    def counted(*args, **kwargs):
        seen.append(args[0] if args else None)
        return method(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return seen


class TestStepMemo:
    @pytest.mark.parametrize("kind", ["dense", "callable"])
    @pytest.mark.parametrize("n_stages", [2, 3])
    def test_memoized_acceptance_equals_plain_recursion(self, gauss2d, kind,
                                                        n_stages):
        # One memo shared across the stages of a step, as in DRKernel.step.
        target, start, proposals = dr_stage_proposals(kind, n_stages, gauss2d)
        rng = np.random.default_rng(21)
        current = target.make_state(start)
        for _ in range(40):
            memo = {}

            def log_q(k, a, b):
                key = (k, id(a), id(b))
                if key not in memo:
                    memo[key] = proposals[k].log_density(a, b.m)
                return memo[key]

            rejected = []
            for proposal in proposals:
                proposed = target.make_state(proposal.sample(current, rng))
                plain = mc.dr_accept_log_prob(proposals, current, rejected, proposed)
                memoized = mc.dr_accept_log_prob(proposals, current, rejected,
                                                 proposed, log_q)
                assert memoized == plain
                rejected.append(proposed)
            current = rejected[0]

    @pytest.mark.parametrize("kind", ["dense", "callable"])
    @pytest.mark.parametrize("n_stages", [2, 3])
    def test_kernel_chain_equals_plain_steps(self, gauss2d, kind, n_stages):
        target, start, proposals = dr_stage_proposals(kind, n_stages, gauss2d)
        kernel = mc.DRKernel(proposals)
        ours = target.make_state(start)
        plain = target.make_state(start)
        rng_ours = np.random.default_rng(22)
        rng_plain = np.random.default_rng(22)
        codes = []
        for _ in range(150):
            ours, code, _, _ = kernel.step(target, ours, rng_ours)
            plain, plain_code = plain_dr_step(proposals, target, plain, rng_plain)
            assert code == plain_code
            assert np.array_equal(ours.m, plain.m)
            assert ours.log_posterior == plain.log_posterior
            codes.append(code)
        assert set(codes) == set(range(n_stages + 1))

    def test_stage_two_adds_two_densities_and_one_ratio(self, gauss2d, monkeypatch):
        # Stage 1 evaluates q1(x->y1) and q1(y1->x); stage 2 adds q1(y2->y1),
        # q1(y1->y2) and one closed-form H-MALA log ratio, evaluates no
        # stage-2 density, and looks the rest up.
        target, prior, laplace, _, _ = gauss2d
        proposals = [mc.AutoregressiveProposal(prior, 1.0),
                     mc.LangevinProposal(laplace, 0.2)]
        calls = [count_calls(monkeypatch, p, "log_density") for p in proposals]
        ratios = count_calls(monkeypatch, proposals[1], "log_ratio")
        n = 200
        rec = mc.run_chain(target, mc.DRKernel(proposals), laplace.mean, n, seed=23)
        reached = int(rec.stage_attempts[1])
        assert 0 < reached < n
        assert len(calls[0]) == 2 * n + 2 * reached
        assert calls[1] == []
        assert len(ratios) == reached

    @pytest.mark.parametrize("name", ["inf-mala", "h-inf-mala"])
    def test_langevin_mean_computed_once_per_state(self, gauss2d, monkeypatch, name):
        target, prior, laplace, _, _ = gauss2d
        prop = make_proposal(name, prior, laplace)
        # Every computation of a Langevin mean is one covariance action.
        computed = count_calls(monkeypatch, prop.reference, "apply_covariance")
        asked = count_calls(monkeypatch, prop, "mean")   # keeps states alive
        n = 100
        mc.run_chain(target, mc.MHKernel(prop), laplace.mean, n, seed=24)
        assert len(asked) == 3 * n
        assert len(computed) == len({id(state) for state in asked})
        assert len(computed) < 2 * n
        assert not prop.mean(asked[-1]).flags.writeable

    @pytest.mark.parametrize("name", ["mala", "h-mala"])
    def test_langevin_factor_transpose_once_per_state(self, gauss2d, monkeypatch,
                                                       name):
        # An MH step draws through the reference factor from the kept
        # w = S^T grad log pi and accepts through the closed-form log ratio:
        # S^T is applied once per state (the start and each proposed point),
        # and no mean or covariance action is computed.
        target, prior, laplace, _, _ = gauss2d
        prop = make_proposal(name, prior, laplace)
        factor_t = count_calls(monkeypatch, prop.reference, "apply_cov_factor_t")
        covariance = count_calls(monkeypatch, prop.reference, "apply_covariance")
        means = count_calls(monkeypatch, prop, "mean")
        n = 100
        rec = mc.run_chain(target, mc.MHKernel(prop), laplace.mean, n, seed=24)
        assert 0 < rec.stage_accepts[0] < n
        assert len(factor_t) == n + 1
        assert covariance == [] and means == []

    def test_autoregressive_mh_step_keeps_every_call(self, gauss2d, monkeypatch):
        # The pCN mean is not cached: an MH step still makes two log_density
        # and three mean calls.
        target, prior, laplace, _, _ = gauss2d
        prop = mc.AutoregressiveProposal(laplace, 0.7)
        densities = count_calls(monkeypatch, prop, "log_density")
        means = count_calls(monkeypatch, prop, "mean")
        n = 50
        mc.run_chain(target, mc.MHKernel(prop), laplace.mean, n, seed=25)
        assert len(densities) == 2 * n
        assert len(means) == 3 * n

    def test_prior_gradient_reused_by_the_posterior_gradient(self, monkeypatch):
        rng = np.random.default_rng(26)
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, 0.1, 0.5, theta1=2.0, theta2=0.5,
                                 alpha=np.pi / 4)
        pts = rng.uniform(0.1, 0.9, size=(10, 2))
        model = LinearizedPoissonProblem(mesh, pts, sigma=0.5)
        model.set_data(rng.standard_normal(10))
        target = PosteriorTarget(model, prior)
        m = prior.sample(rng)
        actions = count_calls(monkeypatch, prior, "apply_precision")
        state = target.make_state(m)
        g = state.grad_log_posterior
        assert len(actions) == 1
        monkeypatch.undo()
        assert state.log_posterior == -model.evaluate(m).cost - prior_cost(prior, m)
        assert np.array_equal(g, -model.evaluate(m).gradient() - prior.grad(m))

    def test_h_inf_mala_mean_reuses_the_prior_gradient(self, gauss2d, monkeypatch):
        # Each step applies the prior precision once for the proposed state's
        # log posterior and once in each of the two Laplace log_density
        # calls; the curvature-informed mean reads the state's gradient.
        target, prior, laplace, _, _ = gauss2d
        prop = mc.DimensionRobustLangevinProposal(laplace, 0.8, informed=True)
        actions = count_calls(monkeypatch, prior, "apply_precision")
        n = 100
        mc.run_chain(target, mc.MHKernel(prop), laplace.mean, n, seed=28)
        assert len(actions) == 3 * n + 1

    def test_dili_complement_move_is_two_vector_actions(self, dili_setup, monkeypatch):
        # One action per evaluated state (start, subspace and complement
        # candidates) and one per direction of the complement correction,
        # each on a single vector.
        target, prior, laplace, kernel = dili_setup
        actions = count_calls(monkeypatch, prior, "apply_precision")
        n = 100
        mc.run_chain(target, kernel, laplace.mean, n, seed=29)
        assert len(actions) == 4 * n + 1
        assert all(np.shape(v) == (prior.dim,) for v in actions)

    def test_kept_state_repeats_previous_row(self):
        qoi_calls = []
        target, gauss = gaussian_callable_target()
        target._qoi = lambda m: qoi_calls.append(m) or float(m[0] - 2.0 * m[1])
        kernel = mc.MHKernel(mc.RandomWalkProposal(gauss, 2.0))
        rec = mc.run_chain(target, kernel, np.zeros(2), 200, seed=27,
                           projector=lambda m: m.copy())
        moves = int(np.count_nonzero(rec.accepted[1:]))
        assert 0 < moves < 150
        assert len(qoi_calls) == 1 + moves
        expected = [float(c[0] - 2.0 * c[1]) for c in rec.coords]
        assert rec.qoi.tolist() == expected


@pytest.fixture(scope="module")
def dili_setup(gauss2d):
    target, prior, laplace, mean, cov = gauss2d
    kernel = mc.DiliKernel(laplace, lis_step=0.4, cs_beta=0.7)
    return target, prior, laplace, kernel


class TestDiliKernel:

    def test_split_reconstruction(self, dili_setup):
        _, _, laplace, kernel = dili_setup
        rng = np.random.default_rng(14)
        for _ in range(5):
            m = rng.standard_normal(laplace.dim)
            r, c = kernel.split(m)
            recon = laplace.vecs @ r + c
            assert np.linalg.norm(recon - m) <= 1e-12 * np.linalg.norm(m)

    def test_split_of_eigvector(self, dili_setup):
        _, _, laplace, kernel = dili_setup
        r, c = kernel.split(laplace.vecs[:, 0])
        expect = np.zeros(laplace.rank)
        expect[0] = 1.0
        np.testing.assert_allclose(r, expect, atol=1e-12)
        np.testing.assert_allclose(c, 0.0, atol=1e-12)

    def test_split_of_complement_vector(self, dili_setup):
        _, _, laplace, kernel = dili_setup
        rng = np.random.default_rng(15)
        m = rng.standard_normal(laplace.dim)
        _, c = kernel.split(m)
        r2, c2 = kernel.split(c)
        np.testing.assert_allclose(r2, 0.0, atol=1e-12)
        np.testing.assert_allclose(c2, c, atol=1e-12)

    def test_requires_retained_direction(self, gauss2d):
        _, prior, _, _, _ = gauss2d
        empty = LaplaceApprox(prior, prior.mean, np.zeros(0),
                              np.zeros((prior.dim, 0)))
        with pytest.raises(ValueError):
            mc.DiliKernel(empty, lis_step=0.1, cs_beta=0.8)

    @pytest.mark.parametrize("step, beta", [
        (0.1, 0.0), (0.1, 1.5), (0.0, 0.8), (1.5, 0.8)])
    def test_rejects_out_of_range_settings(self, gauss2d, step, beta):
        laplace = gauss2d[2]
        with pytest.raises(ValueError):
            mc.DiliKernel(laplace, lis_step=step, cs_beta=beta)

    def test_gaussian_target_mean(self, gauss2d):
        target, prior, laplace, = gauss2d[0], gauss2d[1], gauss2d[2]
        mean, cov = gauss2d[3], gauss2d[4]
        kernel = mc.DiliKernel(laplace, lis_step=0.5, cs_beta=0.8)
        recs = [mc.run_chain(target, kernel,
                             laplace.sample(np.random.default_rng(40 + i)),
                             5000, seed=50 + i, projector=lambda m: m.copy())
                for i in range(4)]
        allc = np.concatenate([r.coords for r in recs])
        se = np.sqrt(np.diag(cov)) / np.sqrt(len(allc) / 10.0)
        assert np.abs(allc.mean(axis=0) - mean).max() <= 4 * np.abs(se).max()

    def test_reports_two_acceptance_rates(self, dili_setup):
        target, _, _, kernel = dili_setup
        rec = mc.run_chain(target, kernel, np.zeros(2), 50, seed=16)
        assert rec.stage_attempts.shape == (2,)
        assert rec.acceptance_rates().shape == (2,)

    def test_nan_ratio_rejects_and_is_logged(self, dili_setup, caplog):
        # A log density of +inf everywhere gives inf - inf in both moves.
        _, _, _, kernel = dili_setup
        target = CallableTarget(lambda m: math.inf, dim=2)
        current = target.make_state(np.zeros(2))
        with caplog.at_level(logging.WARNING, logger=mc.__name__):
            state, code, attempted, accepted = kernel.step(
                target, current, np.random.default_rng(18))
        nan_warnings = [r for r in caplog.records if r.getMessage()
                        == "NaN acceptance ratio; rejecting the proposed point"]
        assert len(nan_warnings) == 2
        assert state is current and code == 0
        assert attempted.tolist() == [1, 1]
        assert accepted.tolist() == [0, 0]

    def test_single_step_chain(self, dili_setup):
        target, _, _, kernel = dili_setup
        rec = mc.run_chain(target, kernel, np.zeros(2), 1, seed=17)
        assert rec.n_steps == 1
        assert rec.log_posterior.shape == (1,)
