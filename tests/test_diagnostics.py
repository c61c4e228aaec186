"""Diagnostics against hand arithmetic, loop oracles, and known processes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdebayes.diagnostics import (autocorrelation, ess, mpsrf, qoi_moments,
                                  summarize, vhat, within_between_cov)
from pdebayes.driver import _fmt, _write_qoi_tables
from pdebayes.fem import build_unit_square_mesh
from pdebayes.prior import BiLaplacianPrior
from pdebayes.laplace import LaplaceApprox
from pdebayes.mcmc import ChainRecord

from helpers import (ar1_chains, dense_prior_matrices, ref_acf, ref_ess,
                     ref_mpsrf, ref_vhat, ref_within_between,
                     strided_acf_estimate, strided_ess)


class TestWithinBetween:
    def test_identical_chains_zero_between(self):
        rng = np.random.default_rng(0)
        one = rng.standard_normal((1, 50, 3))
        coords = np.repeat(one, 4, axis=0)
        w, b = within_between_cov(coords)
        assert np.abs(b).max() == 0.0
        assert np.abs(w).max() > 0.0

    def test_hand_case_m2_n2_scalar(self):
        # chains {0, 2} and {1, 5}: within variances 2 and 8 -> W = 5;
        # chain means 1 and 3, grand mean 2 -> B = N * (1+1) / (M-1) = 4.
        coords = np.array([[[0.0], [2.0]], [[1.0], [5.0]]])
        w, b = within_between_cov(coords)
        assert w[0, 0] == pytest.approx(5.0)
        assert b[0, 0] == pytest.approx(4.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        coords = rng.standard_normal((3, 40, 4))
        w, b = within_between_cov(coords)
        w_ref, b_ref = ref_within_between(coords)
        np.testing.assert_allclose(w, w_ref, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, atol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        coords = rng.standard_normal((4, 30, 5))
        w, b = within_between_cov(coords)
        np.testing.assert_allclose(w, w.T, atol=1e-14)
        np.testing.assert_allclose(b, b.T, atol=1e-14)
        assert np.linalg.eigvalsh(w).min() >= -1e-12
        assert np.linalg.eigvalsh(b).min() >= -1e-12

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            within_between_cov(np.zeros((1, 10, 2)))
        with pytest.raises(ValueError):
            within_between_cov(np.zeros((3, 1, 2)))


class TestVhat:
    def test_zero_between(self):
        w = np.eye(2)
        v = vhat(w, np.zeros((2, 2)), 10, 4)
        np.testing.assert_allclose(v, 0.9 * w)

    def test_limit_coefficient(self):
        w = np.eye(1)
        b = np.eye(1)
        n = 10**7
        v = vhat(w, b, n, 4)
        assert v[0, 0] == pytest.approx(1.0, rel=1e-5)

    def test_scalar_hand_case(self):
        v = vhat(np.array([[5.0]]), np.array([[4.0]]), 2, 2)
        assert v[0, 0] == pytest.approx(0.5 * 5.0 + (3 / 4) * 4.0)


class TestMpsrf:
    def test_identical_chains_floor(self):
        rng = np.random.default_rng(3)
        one = rng.standard_normal((1, 64, 3))
        coords = np.repeat(one, 4, axis=0)
        w, b = within_between_cov(coords)
        n = coords.shape[1]
        assert mpsrf(w, b, n, 4) == pytest.approx(np.sqrt((n - 1) / n), abs=1e-12)

    def test_scalar_hand_case(self):
        w = np.array([[5.0]])
        b = np.array([[4.0]])
        expect = np.sqrt((2 - 1) / 2 + (3 / (2 * 2)) * (4.0 / 5.0))
        assert mpsrf(w, b, 2, 2) == pytest.approx(expect, rel=1e-14)

    def test_matches_dense_oracle_k3(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        w = a @ a.T + 3 * np.eye(3)
        c = rng.standard_normal((3, 3))
        b = c @ c.T
        assert mpsrf(w, b, 50, 4) == pytest.approx(ref_mpsrf(w, b, 50, 4),
                                                   rel=1e-12)

    def test_always_at_least_floor(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            coords = rng.standard_normal((3, 20, 2))
            w, b = within_between_cov(coords)
            assert mpsrf(w, b, 20, 3) >= np.sqrt(19 / 20) - 1e-12

    def test_iid_chains_converge_below_threshold(self):
        rng = np.random.default_rng(6)
        coords = rng.standard_normal((4, 5000, 3))
        w, b = within_between_cov(coords)
        assert mpsrf(w, b, 5000, 4) < 1.01

    def test_singular_w_error_after_jitter(self):
        w = np.zeros((2, 2))
        b = np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            mpsrf(w, b, 10, 2)


@settings(derandomize=True, deadline=None, database=None)
@given(m=st.integers(2, 5), n=st.integers(4, 120), k=st.integers(1, 3),
       phi=st.floats(-0.9, 0.95), spread=st.floats(0.0, 5.0),
       seed=st.integers(0, 2**32 - 1), copies=st.booleans())
def test_mpsrf_floor_and_ess_bounds_on_random_chains(m, n, k, phi, spread, seed,
                                                     copies):
    # AR(1) coordinates, each chain shifted by its own random offset; or m
    # copies of one chain, whose B = 0 puts the MPSRF on its floor.
    rng = np.random.default_rng(seed)
    coords = np.stack([ar1_chains(m, n, phi, rng) for _ in range(k)], axis=2)
    if copies:
        coords[:] = coords[0]
    else:
        coords += spread * rng.standard_normal((m, 1, k))
    w, b = within_between_cov(coords)
    assert mpsrf(w, b, n, m) >= np.sqrt((n - 1) / n) - 1e-12
    for i in range(k):
        assert 0 < ess(coords, i) <= m * n


def pooled_variance(coords, i):
    """Vhat_ii of coordinate i of (M, N, K) chains, from the loop oracles."""
    m, n, _ = coords.shape
    return float(ref_vhat(*ref_within_between(coords), n, m)[i, i])


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(7)
        coords = rng.standard_normal((4, 100, 1))
        rho0 = autocorrelation(coords[:, :, 0], 0, pooled_variance(coords, 0))
        assert 0.99 <= rho0 <= 1.0

    def test_variogram_matches_loop(self):
        rng = np.random.default_rng(8)
        coords = rng.standard_normal((3, 30, 2))
        vii = pooled_variance(coords, 1)
        for t in (1, 3, 7):
            assert autocorrelation(coords[:, :, 1], t, vii) == pytest.approx(
                ref_acf(coords, 1, t, vii), rel=1e-12)

    def test_constant_chains_flagged(self):
        coords = np.ones((3, 20, 1))
        with pytest.raises(ZeroDivisionError):
            autocorrelation(coords[:, :, 0], 1, pooled_variance(coords, 0))

    @pytest.mark.parametrize("lag", [-1, 20])
    def test_lag_outside_chain_rejected(self, lag):
        with pytest.raises(ValueError, match="lag"):
            autocorrelation(np.arange(60.0).reshape(3, 20), lag, 1.0)

    def test_ar1_decay(self):
        # Averaged over replicates the estimate tracks phi^t.
        rng = np.random.default_rng(9)
        phi = 0.5
        lags = [1, 2, 3]
        reps = 50
        estimates = np.zeros((reps, len(lags)))
        for r in range(reps):
            series = ar1_chains(4, 400, phi, rng)
            w, b = within_between_cov(series[:, :, None])
            vii = float(vhat(w, b, 400, 4)[0, 0])
            for c, t in enumerate(lags):
                estimates[r, c] = autocorrelation(series, t, vii)
        mean_est = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(reps)
        for c, t in enumerate(lags):
            assert abs(mean_est[c] - phi**t) <= 5 * se[c]


class TestExactAgainstStridedCode:
    """ess and acf_qoi.txt equal, to the last bit, the strided code of
    tests/helpers.py that wrote every existing artifact."""

    @pytest.fixture(scope="class")
    def coords(self):
        # (M, N, K) as summarize stacks it: each coordinate is a strided view.
        rng = np.random.default_rng(18)
        return np.stack([ar1_chains(4, 1500, 0.98, rng) for _ in range(3)], axis=2)

    def test_ess_on_strided_coordinates(self, coords):
        assert not coords[:, :, 0].flags.c_contiguous
        w, b = within_between_cov(coords)
        vh = vhat(w, b, coords.shape[1], coords.shape[0])
        for i in range(coords.shape[2]):
            assert ess(coords, i) == strided_ess(coords, i)
            vii = float(vh[i, i])
            assert ess(coords, i, vhat_ii=vii) == strided_ess(coords, i, vhat_ii=vii)

    def test_ess_on_qoi_layout(self, coords):
        shaped = np.ascontiguousarray(coords[:, :, 1])[:, :, None]
        assert ess(shaped, 0) == strided_ess(shaped, 0)

    def test_every_acf_qoi_value(self, coords, tmp_path):
        qoi = np.ascontiguousarray(coords[:, :, 2])
        _write_qoi_tables(str(tmp_path), qoi)
        rows = (tmp_path / "acf_qoi.txt").read_text().splitlines()
        w, b = within_between_cov(qoi[:, :, None])
        vii = float(vhat(w, b, qoi.shape[1], qoi.shape[0])[0, 0])
        expect = [strided_acf_estimate(qoi[:, :, None], 0, t, vhat_ii=vii)
                  for t in range(501)]
        # %.17g writes each double exactly.
        assert rows == ["# lag rho"] + [f"{t} {_fmt(v)}" for t, v in enumerate(expect)]


class TestEss:
    def test_matches_loop_oracle_small(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            coords = ar1_chains(3, 60, 0.4, rng)[:, :, None]
            assert ess(coords, 0) == pytest.approx(ref_ess(coords, 0),
                                                   rel=1e-12)

    def test_iid_within_ten_percent(self):
        rng = np.random.default_rng(11)
        coords = rng.standard_normal((4, 5000, 1))
        total = 4 * 5000
        assert abs(ess(coords, 0) - total) / total <= 0.10

    def test_ar1_phi09_within_twenty_percent(self):
        rng = np.random.default_rng(12)
        coords = ar1_chains(4, 5000, 0.9, rng)[:, :, None]
        total = 4 * 5000
        expect = total * (1 - 0.9) / (1 + 0.9)
        assert abs(ess(coords, 0) - expect) / expect <= 0.20

    def test_clamped_to_total(self):
        # Perfectly anticorrelated alternating chains would exceed MN.
        base = np.array([1.0, -1.0] * 25)
        coords = np.stack([np.stack([base + 0.01 * j]) for j in range(4)])
        coords = coords.reshape(4, 50, 1)
        value = ess(coords, 0)
        assert 0 < value <= 4 * 50

    def test_requires_minimum_length(self):
        with pytest.raises(ValueError):
            ess(np.zeros((2, 3, 1)), 0)


class TestQoiMoments:
    def test_constant_qoi(self):
        qoi = np.full((2, 30), 1.7)
        moments, missing = qoi_moments(qoi)
        np.testing.assert_allclose(moments[:, 0], 1.7)
        np.testing.assert_allclose(moments[:, 1], 1.7**2)
        np.testing.assert_allclose(moments[:, 2], 1.7**3)
        assert missing.tolist() == [0, 0]

    def test_hand_list(self):
        moments, _ = qoi_moments(np.array([[1.0, 2.0, 3.0]]))
        assert moments[0, 1] == pytest.approx(14 / 3)

    def test_iid_normal_moments(self):
        rng = np.random.default_rng(13)
        qoi = rng.standard_normal((1, 200000))
        moments, _ = qoi_moments(qoi)
        assert abs(moments[0, 0]) <= 0.02
        assert abs(moments[0, 1] - 1.0) <= 0.02

    def test_missing_excluded_and_counted(self):
        qoi = np.array([[1.0, np.nan, 3.0, np.nan]])
        moments, missing = qoi_moments(qoi)
        assert moments[0, 0] == pytest.approx(2.0)
        assert missing.tolist() == [2]

    def test_all_missing_flagged(self):
        moments, missing = qoi_moments(np.full((1, 5), np.nan))
        assert np.isnan(moments[0]).all()
        assert missing.tolist() == [5]


class TestProjection:
    def test_projection_identities(self):
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, 0.1, 0.5, theta1=2.0, theta2=0.5,
                                 alpha=np.pi / 4)
        rng = np.random.default_rng(14)
        raw = rng.standard_normal((prior.dim, 3))
        # orthonormalize against the precision to build a valid basis
        _, r_dense, _ = dense_prior_matrices(prior)
        g = raw.T @ r_dense @ raw
        vecs = raw @ np.linalg.inv(np.linalg.cholesky(g)).T
        la = LaplaceApprox(prior, prior.mean, np.array([3.0, 2.0, 1.5]), vecs)

        np.testing.assert_allclose(la.project(vecs[:, 1]), [0, 1, 0], atol=1e-10)
        np.testing.assert_allclose(la.project(np.zeros(prior.dim)), 0.0,
                                   atol=1e-15)
        m = rng.standard_normal(prior.dim)
        dense = vecs.T @ r_dense @ m
        np.testing.assert_allclose(la.project(m), dense, rtol=1e-10)

    def test_matches_laplace_project(self):
        mesh = build_unit_square_mesh(4)
        prior = BiLaplacianPrior(mesh, 0.1, 0.5)
        rng = np.random.default_rng(15)
        raw = rng.standard_normal((prior.dim, 2))
        _, r_dense, _ = dense_prior_matrices(prior)
        g = raw.T @ r_dense @ raw
        vecs = raw @ np.linalg.inv(np.linalg.cholesky(g)).T
        la = LaplaceApprox(prior, prior.mean, np.array([3.0, 2.0]), vecs)
        m = rng.standard_normal(prior.dim)
        np.testing.assert_allclose(la.project(m), vecs.T @ r_dense @ m,
                                   rtol=1e-10)


def chain_record(coords, qoi, solves=10, attempts=100, accepts=40):
    n = coords.shape[0]
    return ChainRecord(coords=coords, qoi=qoi, log_posterior=np.zeros(n),
                       accepted=np.zeros(n, dtype=int),
                       stage_attempts=np.array([attempts]),
                       stage_accepts=np.array([accepts]),
                       solves=solves, seed=0, kernel_name="test")


class TestSummarize:
    def test_pure_function(self):
        rng = np.random.default_rng(16)
        coords = rng.standard_normal((3, 100, 2))
        qoi = rng.standard_normal((3, 100))
        records = [chain_record(coords[j], qoi[j]) for j in range(3)]
        r1 = summarize(records)
        r2 = summarize(records)
        assert r1.mpsrf == r2.mpsrf
        assert np.array_equal(r1.ess_values, r2.ess_values)
        assert r1.acceptance_rates[0] == pytest.approx(0.4)
        assert r1.total_solves == 30
        assert r1.nps_per_es == pytest.approx(30 / r1.ess_avg)

    def test_rejects_nan_coordinates(self):
        coords = np.zeros((2, 10, 1))
        coords[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            summarize([chain_record(c, np.zeros(10)) for c in coords])

    def test_rejects_unequal_lengths(self):
        rng = np.random.default_rng(17)
        records = [chain_record(rng.standard_normal((n, 1)), np.zeros(n))
                   for n in (10, 11)]
        with pytest.raises(ValueError, match="equal length"):
            summarize(records)
