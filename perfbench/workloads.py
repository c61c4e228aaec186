"""Benchmark workloads and the checks on their outputs.

Each workload is the default experiment with a few overrides. A run of the
benchmark with workload seed s executes pipelines j = 0, 1, 2, ... with
pipeline seed 100*s + j, which sets eig.seed and mcmc.seed, so the same
workload seed always gives the same inputs. data.seed keeps its default: every
pipeline of every run inverts the same data, so all pipelines do the same
Newton work and differ only in their random sketch and chains. Why each
workload exists, and which layer it stresses, is in README.md next to this
file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Pipeline seeds of one run are 100*seed + j; a run stops before j reaches it.
SEED_STRIDE = 100
# |z| bound on every pooled chain mean of a projected coordinate.
Z_BOUND = 5.0
# Chain batches per chain for the batch-means standard error.
BATCHES_PER_CHAIN = 10
# The dense gradient at the MAP may exceed the Newton tolerance by this factor
# (roundoff between the sparse adjoint gradient and the dense operator).
GRAD_SLACK = 1.1


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    samples: int
    min_pipelines: int = 3           # untraced pipelines per run, at least
    expected_failure: tuple | None = None   # (stage, cause type) accepted
    oracle: bool = False
    finite_report: bool = True


# Why each workload exists, and why map-n64 is not gated: README.md.
WORKLOADS = {
    "hpcn-n32": Workload(
        name="hpcn-n32",
        overrides={}, samples=150),
    "dr-linear-n32": Workload(
        name="dr-linear-n32",
        overrides={"model_kind": "linearized", "mcmc_method": "dr"},
        samples=400, oracle=True, finite_report=False),
    "map-n64": Workload(
        name="map-n64",
        overrides={"mesh_n": 64}, samples=100, min_pipelines=1,
        expected_failure=("map", "MapConvergenceError")),
}


def pipeline_seed(seed: int, j: int) -> int:
    return SEED_STRIDE * seed + j


def make_config(pb, workload: Workload, seed: int, out_dir: str):
    cfg = pb.config.ExperimentConfig(
        eig_seed=seed, mcmc_seed=seed,
        mcmc_samples=workload.samples, output_dir=out_dir)
    for key, value in workload.overrides.items():
        setattr(cfg, key, value)
    return cfg


# -- output checks -------------------------------------------------------

def read_report(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _chain_paths(out_dir: str) -> list:
    return sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir)
                  if f.startswith("chain_") and f.endswith(".csv"))


def _chain_coords(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = [i for i, n in enumerate(names) if n.startswith("c_")]
    return data[:, cols]


def check_success(workload: Workload, cfg, out_dir: str, captured: dict) -> list:
    """Checks on a pipeline that finished; returns failure messages."""
    errors = []
    report = read_report(os.path.join(out_dir, "report.txt"))
    if not captured["map_converged"]:
        errors.append("MAP did not converge")
    rates = [float(x) for x in report["ar"].split(",")]
    if not all(0.0 < r < 1.0 for r in rates):
        errors.append(f"acceptance rates {rates} not all in (0, 1)")
    if workload.finite_report:
        for key, value in report.items():
            for token in value.split(","):
                try:
                    x = float(token)
                except ValueError:
                    continue
                if not math.isfinite(x):
                    errors.append(f"report value {key} = {value} is not finite")
    paths = _chain_paths(out_dir)
    if len(paths) != cfg.mcmc_chains:
        errors.append(f"{len(paths)} chain files, expected {cfg.mcmc_chains}")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 2
        if rows != cfg.mcmc_samples:
            errors.append(f"{os.path.basename(path)} has {rows} rows, "
                          f"expected {cfg.mcmc_samples}")
    if workload.oracle:
        errors += check_gaussian_oracle(cfg, out_dir, captured)
    return errors


def check_gaussian_oracle(cfg, out_dir: str, captured: dict) -> list:
    """Dense check of the linearized posterior, computed here, not by pdebayes.driver.

    The posterior is N(m*, H^{-1}) with H = F^T F / sigma^2 + R and
    m* = H^{-1}(F^T d / sigma^2 + R m0), R the prior precision. Checks that the
    dense gradient H m - b at the returned MAP meets the Newton tolerance, and
    that each pooled chain mean of the projected coordinates lies within
    Z_BOUND batch-means standard errors of the exact projected mean.
    """
    problem, prior = captured["problem"], captured["prior"]
    n = prior.dim
    f_mat = problem.dense_forward_matrix()
    r_mat = np.column_stack([prior.apply_precision(e) for e in np.eye(n)])
    h_mat = f_mat.T @ f_mat / problem.sigma**2 + r_mat
    b = f_mat.T @ problem.data / problem.sigma**2 + r_mat @ prior.mean
    m_star = np.linalg.solve(h_mat, b)

    errors = []
    g0 = np.linalg.norm(h_mat @ prior.mean - b)
    g_map = np.linalg.norm(h_mat @ captured["map_m"] - b)
    tol = max(cfg.newton_grad_abs_tol, cfg.newton_grad_rel_tol * g0)
    captured["oracle_grad_rel"] = float(g_map / g0)
    captured["oracle_map_rel_err"] = float(
        np.linalg.norm(captured["map_m"] - m_star) / np.linalg.norm(m_star))
    if not g_map <= GRAD_SLACK * tol:
        errors.append(f"dense gradient at the MAP {g_map:.3e} exceeds the "
                      f"Newton tolerance {tol:.3e}")

    vecs = captured["eig_vecs"]
    k = min(cfg.mcmc_project_dim, vecs.shape[1])
    w = np.column_stack([prior.apply_precision(vecs[:, j]) for j in range(k)])
    exact = w.T @ m_star
    chains = [_chain_coords(p) for p in _chain_paths(out_dir)]
    batch = cfg.mcmc_samples // BATCHES_PER_CHAIN
    means = np.concatenate([
        c[:batch * BATCHES_PER_CHAIN].reshape(BATCHES_PER_CHAIN, batch, -1).mean(axis=1)
        for c in chains])
    se = means.std(axis=0, ddof=1) / math.sqrt(means.shape[0])
    z = (means.mean(axis=0) - exact) / se
    captured["oracle_max_abs_z"] = float(np.max(np.abs(z)))
    if not np.all(np.abs(z) <= Z_BOUND):
        errors.append(f"pooled chain means off the exact posterior mean: "
                      f"max |z| = {np.max(np.abs(z)):.2f} > {Z_BOUND}")
    return errors
