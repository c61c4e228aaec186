"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. The heavy chain criteria (6-8) run the full pipeline at desk scale
(n=32, 4 chains x 5,000 samples) and take a few minutes each.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

import pdebayes.mcmc as mc
from pdebayes.config import ExperimentConfig, parse_config
from pdebayes.diagnostics import ess, mpsrf, summarize, vhat, within_between_cov
from pdebayes.driver import run_experiment
from pdebayes.fem import build_unit_square_mesh
from pdebayes.laplace import LaplaceApprox, compute_map, doublepass_randomized_eig
from pdebayes.models import PoissonProblem, LinearizedPoissonProblem, generate_synthetic_data
from pdebayes.prior import BiLaplacianPrior
from pdebayes.targets import PosteriorTarget

from helpers import (CallableTarget, DenseGaussian, DenseLinearModel,
                     TableProposal, ar1_chains, dense_gaussian_posterior,
                     dense_prior_matrices, dr_accept_prob, ref_ess, ref_mpsrf,
                     ref_vhat, ref_within_between)

PRIOR_PARAMS = dict(gamma=0.1, delta=0.5, theta1=2.0, theta2=0.5, alpha=np.pi / 4)
TIGHT = ExperimentConfig(newton_grad_rel_tol=1e-10, newton_grad_abs_tol=1e-10)


def announce(num, detail):
    print(f"\n[criterion {num}] PASS  {detail}")


# ---------------------------------------------------------------------------
# 1. Adjoint correctness
# ---------------------------------------------------------------------------

def test_criterion_1_adjoint_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    mesh = build_unit_square_mesh(8)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    problem = PoissonProblem(mesh, pts, sigma=0.05)
    m_true = 0.5 * rng.standard_normal(problem.dim)
    problem.set_data(generate_synthetic_data(problem, m_true, seed=102))
    m0 = 0.3 * rng.standard_normal(problem.dim)
    state = problem.evaluate(m0)
    grad = state.gradient()
    eps = 1e-4

    grad_err = 0.0
    hess_err = 0.0
    for _ in range(10):
        v = rng.standard_normal(problem.dim)
        v /= np.linalg.norm(v)
        fd = (problem.evaluate(m0 + eps * v).cost
              - problem.evaluate(m0 - eps * v).cost) / (2 * eps)
        grad_err = max(grad_err, abs(fd - grad @ v) / abs(fd))
        hv = state.hessian_action(v)
        fd_h = (problem.evaluate(m0 + eps * v).gradient()
                - problem.evaluate(m0 - eps * v).gradient()) / (2 * eps)
        hess_err = max(hess_err, np.linalg.norm(hv - fd_h) / np.linalg.norm(fd_h))

    elapsed = time.time() - t0
    assert grad_err <= 1e-5
    assert hess_err <= 1e-4
    assert elapsed < 10.0
    announce(1, f"grad FD rel err {grad_err:.2e} <= 1e-5, "
                f"hess FD rel err {hess_err:.2e} <= 1e-4, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 2. Linear-Gaussian oracle
# ---------------------------------------------------------------------------

def test_criterion_2_linear_gaussian_oracle():
    t0 = time.time()
    rng = np.random.default_rng(201)
    mesh = build_unit_square_mesh(8)
    prior = BiLaplacianPrior(mesh, **PRIOR_PARAMS)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))
    model = LinearizedPoissonProblem(mesh, pts, sigma=0.1)
    f = model.dense_forward_matrix()
    m_true = prior.sample(rng)
    d = f @ m_true + 0.1 * rng.standard_normal(len(pts))
    model.set_data(d)

    _, r_dense, c_dense = dense_prior_matrices(prior)
    mean_dense, cov_dense = dense_gaussian_posterior(f, d, 0.1, prior.mean,
                                                     c_dense)
    result = compute_map(model, prior, cfg=TIGHT)
    map_err = np.linalg.norm(result.m - mean_dense) / np.linalg.norm(mean_dense)
    assert map_err <= 1e-8

    state = model.evaluate(result.m)
    lam, vecs = doublepass_randomized_eig(
        lambda x: state.hessian_action(x), prior, k=60, p=20,
        rng=np.random.default_rng(202))
    laplace = LaplaceApprox.from_spectrum(prior, result.m, lam, vecs,
                                          threshold=1e-10)
    h_dense = f.T @ f / 0.01 + r_dense
    hinv_err = 0.0
    for _ in range(5):
        v = rng.standard_normal(prior.dim)
        x_dense = np.linalg.solve(h_dense, v)
        hinv_err = max(hinv_err, np.linalg.norm(
            laplace.apply_covariance(v) - x_dense) / np.linalg.norm(x_dense))
    assert hinv_err <= 1e-6

    n_samp = 20000
    samples = np.empty((n_samp, prior.dim))
    srng = np.random.default_rng(203)
    for i in range(n_samp):
        samples[i] = laplace.sample(srng)
    emp_cov = np.cov(samples.T)
    sd = np.sqrt(np.diag(cov_dense))
    cov_se = np.sqrt((np.outer(sd, sd) ** 2 + cov_dense**2) / n_samp)
    cov_dev = np.max(np.abs(emp_cov - cov_dense) / cov_se)
    assert cov_dev <= 5.0

    elapsed = time.time() - t0
    assert elapsed < 60.0
    announce(2, f"MAP rel err {map_err:.2e} <= 1e-8, Hinv rel err "
                f"{hinv_err:.2e} <= 1e-6, cov dev {cov_dev:.2f} <= 5 SE, "
                f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 3. Randomized eigensolver
# ---------------------------------------------------------------------------

def test_criterion_3_randomized_eigensolver():
    t0 = time.time()
    rng = np.random.default_rng(301)
    mesh = build_unit_square_mesh(8)
    prior = BiLaplacianPrior(mesh, **PRIOR_PARAMS)
    pts = rng.uniform(0.05, 0.95, size=(25, 2))
    problem = PoissonProblem(mesh, pts, sigma=0.02)
    m_true = prior.sample(rng)
    problem.set_data(generate_synthetic_data(problem, m_true, seed=302))
    result = compute_map(problem, prior, cfg=TIGHT)
    state = problem.evaluate(result.m)
    action = lambda x: state.hessian_action(x, gauss_newton=True)

    lam, vecs = doublepass_randomized_eig(action, prior, k=30, p=20,
                                          rng=np.random.default_rng(303))
    _, r_dense, _ = dense_prior_matrices(prior)
    h_dense = np.column_stack([action(e) for e in np.eye(prior.dim)])
    h_dense = 0.5 * (h_dense + h_dense.T)
    lam_dense = scipy.linalg.eigh(h_dense, r_dense, eigvals_only=True)[::-1]

    keep = lam >= 1.0
    assert keep.sum() >= 3
    eig_err = np.max(np.abs(lam[keep] - lam_dense[:keep.sum()])
                     / lam_dense[:keep.sum()])
    assert eig_err <= 1e-6
    gram_err = np.abs(vecs.T @ r_dense @ vecs - np.eye(len(lam))).max()
    assert gram_err <= 1e-8

    elapsed = time.time() - t0
    assert elapsed < 10.0
    announce(3, f"{int(keep.sum())} pairs with lam>=1 match dense to "
                f"{eig_err:.2e} <= 1e-6, orthonormality {gram_err:.2e} <= 1e-8, "
                f"{elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 4. Kernel stationarity oracles
# ---------------------------------------------------------------------------

def _three_state_stationary(t):
    vals, vecs = np.linalg.eig(t.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return pi / pi.sum()


def test_criterion_4a_exact_stationarity():
    t0 = time.time()
    states = [0.0, 1.0, 2.0]
    target_pi = np.array([0.5, 0.3, 0.2])
    logpi = {s: math.log(p) for s, p in zip(states, target_pi)}
    target = CallableTarget(lambda m: logpi[float(m[0])], dim=1)
    cs = [target.make_state(np.array([s])) for s in states]

    table = np.array([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.25, 0.45, 0.3]])
    prop = TableProposal(states, table)
    t_mh = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                t_mh[i, j] = table[i, j] * dr_accept_prob([prop], cs[i], [], cs[j])
        t_mh[i, i] = 1.0 - t_mh[i].sum()
    mh_err = np.abs(_three_state_stationary(t_mh) - target_pi).max()
    assert mh_err <= 1e-12

    table2 = np.array([[0.3, 0.3, 0.4], [0.2, 0.5, 0.3], [0.45, 0.25, 0.3]])
    props = [TableProposal(states, table), TableProposal(states, table2)]
    t_dr = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            a1 = dr_accept_prob(props, cs[i], [], cs[j])
            t_dr[i, j] += table[i, j] * a1
            for k in range(3):
                a2 = dr_accept_prob(props, cs[i], [cs[j]], cs[k])
                t_dr[i, k] += table[i, j] * (1 - a1) * table2[i, k] * a2
    for i in range(3):
        t_dr[i, i] += 1.0 - t_dr[i].sum()
    dr_err = np.abs(_three_state_stationary(t_dr) - target_pi).max()
    assert dr_err <= 1e-12

    elapsed = time.time() - t0
    announce("4a", f"MH stationary dev {mh_err:.1e}, two-stage DR dev "
                   f"{dr_err:.1e}, both <= 1e-12, {elapsed:.1f}s")


def test_criterion_4b_all_kernels_gaussian_target():
    t0 = time.time()
    rng = np.random.default_rng(401)
    n = 10
    f = rng.standard_normal((12, n)) * 0.6
    prior = DenseGaussian(np.zeros(n), scipy.linalg.toeplitz(0.6 ** np.arange(n)))
    sigma = 2.0
    d = f @ prior.sample(rng) + sigma * rng.standard_normal(12)
    model = DenseLinearModel(f, d, sigma)
    target = PosteriorTarget(model, prior)
    mean_post, cov_post = dense_gaussian_posterior(f, d, sigma, prior.mean,
                                                   prior.cov)
    lam, u = scipy.linalg.eigh(f.T @ f / sigma**2, np.linalg.inv(prior.cov))
    lam, u = np.clip(lam[::-1], 0, None), u[:, ::-1]
    exact = LaplaceApprox(prior, mean_post, lam, u)
    truncated = LaplaceApprox.from_spectrum(prior, mean_post, lam, u, 1.0)

    kernels = {
        "mh/rw": mc.MHKernel(mc.RandomWalkProposal(prior, 0.6)),
        "mh/pcn": mc.MHKernel(mc.AutoregressiveProposal(prior, 0.55)),
        "mh/mala": mc.MHKernel(mc.LangevinProposal(prior, 0.12)),
        "mh/inf-mala": mc.MHKernel(mc.DimensionRobustLangevinProposal(prior, 0.55)),
        "mh/h-pcn": mc.MHKernel(mc.AutoregressiveProposal(truncated, 0.8)),
        "mh/h-mala": mc.MHKernel(mc.LangevinProposal(truncated, 0.35)),
        "mh/h-inf-mala": mc.MHKernel(mc.DimensionRobustLangevinProposal(
            truncated, 1.2, informed=True)),
        "dr": mc.DRKernel([mc.AutoregressiveProposal(truncated, 1.0),
                           mc.LangevinProposal(truncated, 0.25)]),
        "dili": mc.DiliKernel(truncated, lis_step=0.5, cs_beta=0.8,
                              lis_center="map"),
    }
    worst = {}
    for name, kernel in kernels.items():
        records = []
        for i in range(4):
            start = exact.sample(np.random.default_rng([402, i])) * 1.5
            records.append(mc.run_chain(target, kernel, start, 20000,
                                        seed=410 + i,
                                        projector=lambda m: m.copy()))
        report = summarize(records)
        pooled = np.concatenate([r.coords for r in records])
        se = np.sqrt(np.diag(cov_post)) / np.sqrt(report.ess_values)
        dev = np.abs(pooled.mean(axis=0) - mean_post) / se
        worst[name] = (dev.max(), report.mpsrf)
        assert dev.max() <= 4.0, f"{name}: mean off by {dev.max():.2f} SE"
        assert report.mpsrf < 1.01, f"{name}: MPSRF {report.mpsrf:.4f}"

    elapsed = time.time() - t0
    assert elapsed < 120.0
    top = max(worst.items(), key=lambda kv: kv[1][0])
    announce("4b", f"9 kernel/proposal combos x 4x20000: worst mean dev "
                   f"{top[1][0]:.2f} SE ({top[0]}), all MPSRF < 1.01, "
                   f"{elapsed:.0f}s < 120s")


# ---------------------------------------------------------------------------
# 5. Diagnostics oracles
# ---------------------------------------------------------------------------

def test_criterion_5_diagnostics_oracles():
    t0 = time.time()
    rng = np.random.default_rng(501)

    one = rng.standard_normal((1, 64, 3))
    coords = np.repeat(one, 4, axis=0)
    w, b = within_between_cov(coords)
    floor = math.sqrt(63 / 64)
    identical_dev = abs(mpsrf(w, b, 64, 4) - floor)
    assert identical_dev <= 1e-13

    match_err = 0.0
    for _ in range(5):
        small = ar1_chains(3, 60, 0.4, rng)[:, :, None]
        many = np.concatenate([small, rng.standard_normal((3, 60, 2))], axis=2)
        w, b = within_between_cov(many)
        w_ref, b_ref = ref_within_between(many)
        match_err = max(match_err, np.abs(w - w_ref).max(),
                        np.abs(b - b_ref).max(),
                        np.abs(vhat(w, b, 60, 3) - ref_vhat(w_ref, b_ref, 60, 3)).max(),
                        abs(mpsrf(w, b, 60, 3) - ref_mpsrf(w_ref, b_ref, 60, 3)),
                        abs(ess(many, 0) - ref_ess(many, 0)))
    assert match_err <= 1e-12

    iid = rng.standard_normal((4, 5000, 1))
    total = 4 * 5000
    iid_dev = abs(ess(iid, 0) - total) / total
    assert iid_dev <= 0.10

    ar = ar1_chains(4, 5000, 0.9, rng)[:, :, None]
    expect = total * (1 - 0.9) / (1 + 0.9)
    ar_dev = abs(ess(ar, 0) - expect) / expect
    assert ar_dev <= 0.20

    elapsed = time.time() - t0
    assert elapsed < 30.0
    announce(5, f"identical-chain MPSRF at floor (dev {identical_dev:.1e}), "
                f"dense-oracle match {match_err:.1e} <= 1e-12, iid ESS dev "
                f"{iid_dev:.1%} <= 10%, AR(1) ESS dev {ar_dev:.1%} <= 20%, "
                f"{elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 6-8. Desk-scale pipeline comparisons
# ---------------------------------------------------------------------------

BASE_32 = """
mesh.n = 32
data.count = 300
data.sigma = 0.005
data.seed = 21
data.truth_mesh = 32
eig.k = 100
eig.oversampling = 20
mcmc.chains = 4
mcmc.samples = 5000
mcmc.seed = 77
mcmc.project_dim = 25
"""


@pytest.fixture(scope="module")
def hpcn32(tmp_path_factory):
    """Shared n=32 H-pCN(0.4) pipeline run used by criteria 6 and 7."""
    cfg = parse_config(BASE_32 + "mcmc.method = h-pcn\nmcmc.beta = 0.4\n")
    out = tmp_path_factory.mktemp("hpcn32")
    entries = run_experiment(cfg, str(out))
    return entries, out


def test_criterion_6_informed_versus_prior_proposals(hpcn32, tmp_path):
    t0 = time.time()
    hpcn_report, _ = hpcn32
    cfg = parse_config(BASE_32 + "mcmc.method = pcn\nmcmc.beta = 0.005\n")
    pcn_report = run_experiment(cfg, str(tmp_path / "pcn"))

    ess_ratio = hpcn_report["ess_avg"] / pcn_report["ess_avg"]
    nps_ratio = pcn_report["nps_per_es"] / hpcn_report["nps_per_es"]
    assert ess_ratio >= 5.0
    assert nps_ratio >= 5.0

    elapsed = time.time() - t0
    assert elapsed < 900.0
    announce(6, f"avg ESS h-pcn/pcn = {hpcn_report['ess_avg']:.0f}/"
                f"{pcn_report['ess_avg']:.0f} = {ess_ratio:.1f}x >= 5x, "
                f"NPS/ES pcn/h-pcn = {nps_ratio:.1f}x >= 5x, "
                f"{elapsed:.0f}s < 900s")


def test_criterion_7_mesh_independence(hpcn32, tmp_path):
    t0 = time.time()
    hpcn_report, out32 = hpcn32
    cfg16 = parse_config(BASE_32.replace("mesh.n = 32", "mesh.n = 16")
                         + "mcmc.method = h-pcn\nmcmc.beta = 0.4\n")
    rep16 = run_experiment(cfg16, str(tmp_path / "n16"))

    ar32 = float(hpcn_report["ar"])
    ar16 = float(rep16["ar"])
    ar_gap = abs(ar32 - ar16)
    assert ar_gap <= 0.10

    lam16 = np.loadtxt(str(tmp_path / "n16" / "eigenvalues.txt"))[:10, 1]
    lam32_all = np.loadtxt(str(out32 / "eigenvalues.txt"))[:, 1]
    lam32 = lam32_all[:10]
    rel = np.abs(lam16 - lam32) / np.abs(lam32)
    assert rel.max() <= 0.20
    # of the k=100 requested pairs roughly sixty carry information
    assert 30 <= int(np.sum(lam32_all > 1.0)) <= 90

    elapsed = time.time() - t0
    assert elapsed < 1200.0
    announce(7, f"acceptance rate n=16 {ar16:.2f} vs n=32 {ar32:.2f} "
                f"(gap {100 * ar_gap:.1f}pp <= 10pp), dominant-10 eigenvalue "
                f"drift {100 * rel.max():.1f}% <= 20%, {elapsed:.0f}s < 1200s")


def test_criterion_8_large_noise_study(tmp_path):
    t0 = time.time()
    base = """
mesh.n = 32
data.count = 60
data.sigma = 0.1
data.seed = 31
eig.k = 100
eig.oversampling = 20
mcmc.chains = 4
mcmc.samples = 5000
mcmc.seed = 78
mcmc.project_dim = 5
"""
    rep_pcn = run_experiment(
        parse_config(base + "mcmc.method = pcn\nmcmc.beta = 0.2\n"),
        str(tmp_path / "pcn"))
    rep_hpcn = run_experiment(
        parse_config(base + "mcmc.method = h-pcn\nmcmc.beta = 0.9\n"),
        str(tmp_path / "hpcn"))

    assert rep_pcn["mpsrf"] < 1.05
    assert rep_hpcn["mpsrf"] < 1.05
    assert rep_hpcn["ess_avg"] >= rep_pcn["ess_avg"]

    elapsed = time.time() - t0
    assert elapsed < 600.0
    announce(8, f"MPSRF pcn {rep_pcn['mpsrf']:.3f} and h-pcn "
                f"{rep_hpcn['mpsrf']:.3f} < 1.05, avg ESS h-pcn "
                f"{rep_hpcn['ess_avg']:.0f} >= pcn {rep_pcn['ess_avg']:.0f}, "
                f"{elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 9. End-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    import filecmp
    cfg_text = """
mesh.n = 8
data.count = 30
data.sigma = 0.02
eig.k = 40
eig.oversampling = 15
mcmc.method = dr
mcmc.chains = 2
mcmc.samples = 150
mcmc.project_dim = 6
"""
    cfg = parse_config(cfg_text)
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    files = ("chain_00.csv", "chain_01.csv", "report.txt", "truth.txt",
             "data.txt", "map.txt", "eigenvalues.txt", "acf_qoi.txt",
             "hist_qoi.txt", "config_used.txt")
    for name in files:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name
    announce(9, f"two identical runs produced byte-identical artifacts "
                f"({len(files)} files compared)")
