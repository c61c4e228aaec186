"""Experiment orchestration: data, MAP, low-rank posterior, chains, reports.

run_experiment executes the full pipeline for one configuration and writes
all artifacts into the output directory: the truth field and data, the MAP
field, the curvature spectrum, one CSV per chain, plot-ready ACF and
histogram tables for the quantity of interest, and a key-value diagnostics
report. Every byte of output is determined by (config, seeds).
"""

from __future__ import annotations

import logging
import os

import numpy as np

from . import mcmc
from .config import ExperimentConfig, serialize, validate
from .diagnostics import autocorrelation, summarize, vhat, within_between_cov
from .fem import build_unit_square_mesh
from .laplace import (LaplaceApprox, MapConvergenceError, compute_map,
                      doublepass_randomized_eig)
from .models import (LinearizedPoissonProblem, PoissonProblem,
                     generate_synthetic_data)
from .prior import BiLaplacianPrior
from .targets import PosteriorTarget

logger = logging.getLogger(__name__)

FLOAT_FMT = "%.17g"
# Observation points are uniform on OBS_BOX squared, clear of the boundary.
OBS_BOX = (0.05, 0.95)
ACF_MAX_LAG = 500

PROBLEMS = {"poisson": PoissonProblem, "linearized": LinearizedPoissonProblem}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _write_lines(path: str, lines) -> None:
    """Write an artifact: each line of the iterable ends with a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def build_prior_for(cfg: ExperimentConfig, mesh) -> BiLaplacianPrior:
    return BiLaplacianPrior(
        mesh, cfg.prior_gamma, cfg.prior_delta,
        theta1=cfg.prior_theta1, theta2=cfg.prior_theta2,
        alpha=cfg.prior_alpha, mean=cfg.prior_mean)


def draw_observation_points(cfg: ExperimentConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.data_seed)
    return rng.uniform(*OBS_BOX, size=(cfg.data_count, 2))


def synthesize_data(cfg: ExperimentConfig, problem, prior):
    """Truth field and observations, on the configured truth mesh.

    The truth field is a prior sample; observations come from a once-refined
    solve on the truth mesh, so the inversion never sees its own
    discretization. Returns (truth mesh size, m_true, data vector).
    """
    n_truth = cfg.data_truth_mesh or problem.mesh.n
    if n_truth != problem.mesh.n:
        prior = build_prior_for(cfg, build_unit_square_mesh(n_truth))
    m_true = prior.sample(np.random.default_rng(cfg.data_seed + 1))
    d = generate_synthetic_data(problem, m_true, seed=cfg.data_seed + 2)
    return n_truth, m_true, d


def build_proposal(name: str, cfg: ExperimentConfig, prior, laplace):
    """The proposal of an MH method name; an `h-` name uses the Laplace reference."""
    informed = name.startswith("h-")
    reference = laplace if informed else prior
    base = name.removeprefix("h-")
    if base == "rw":
        return mcmc.RandomWalkProposal(reference, cfg.mcmc_step)
    if base == "pcn":
        return mcmc.AutoregressiveProposal(reference, cfg.mcmc_beta)
    if base == "mala":
        return mcmc.LangevinProposal(reference, cfg.mcmc_tau)
    if base == "inf-mala":
        return mcmc.DimensionRobustLangevinProposal(reference, cfg.mcmc_h, informed)
    raise ValueError(f"unknown method '{name}'")


def build_kernel(cfg: ExperimentConfig, prior, laplace):
    method = cfg.mcmc_method
    if method == "dr":
        return mcmc.DRKernel([
            mcmc.AutoregressiveProposal(laplace, cfg.mcmc_dr_beta),
            build_proposal(cfg.mcmc_dr_stage2, cfg, prior, laplace)])
    if method == "dili":
        return mcmc.DiliKernel(laplace, cfg.mcmc_dili_tau, cfg.mcmc_dili_beta)
    return mcmc.MHKernel(build_proposal(method, cfg, prior, laplace))


def write_chain_csv(record: mcmc.ChainRecord, path: str) -> None:
    """CSV with a seed/kernel comment header; full float precision."""
    k = record.coords.shape[1]
    cols = ["iter", "accepted", "log_posterior", "qoi"] + [
        f"c_{j + 1}" for j in range(k)]
    lines = [f"# seed={record.seed}, kernel={record.kernel_name}", ",".join(cols)]
    row = "%d,%d," + ",".join([FLOAT_FMT] * (k + 2))
    rows = zip(record.accepted.tolist(), record.log_posterior.tolist(),
               record.qoi.tolist(), record.coords.tolist())
    lines += [row % (i, a, lp, q, *c) for i, (a, lp, q, c) in enumerate(rows)]
    _write_lines(path, lines)


def write_report(entries: dict, path: str) -> None:
    """Report as `key = value` lines with stable ordering."""
    _write_lines(path, (f"{key} = {_fmt(value) if isinstance(value, float) else value}"
                        for key, value in entries.items()))


def _write_field(path: str, values: np.ndarray, header: str) -> None:
    _write_lines(path, [f"# {header}"] + [_fmt(v) for v in values])


def _write_qoi_tables(out_dir: str, qoi: np.ndarray):
    finite = np.isfinite(qoi)
    acf = ["# lag rho"]
    if finite.all():
        w, b = within_between_cov(qoi[:, :, None])
        vh = float(vhat(w, b, qoi.shape[1], qoi.shape[0])[0, 0])
        if vh > 0:
            acf += [f"{t} {_fmt(autocorrelation(qoi, t, vh))}"
                    for t in range(0, min(ACF_MAX_LAG, qoi.shape[1] - 1) + 1)]
    else:
        acf.append("# skipped: QoI contains failed samples")
    _write_lines(os.path.join(out_dir, "acf_qoi.txt"), acf)

    hist = ["# bin_lo bin_hi count density"]
    values = qoi[finite]
    if values.size:
        counts, edges = np.histogram(values, bins=50, density=False)
        width = edges[1] - edges[0]
        hist += [f"{_fmt(lo)} {_fmt(hi)} {c} {_fmt(c / (values.size * width))}"
                 for c, lo, hi in zip(counts, edges[:-1], edges[1:])]
    _write_lines(os.path.join(out_dir, "hist_qoi.txt"), hist)


def stage_data(cfg: ExperimentConfig, mesh, prior, points, out_dir: str):
    """Build the problem and its data, write truth.txt and data.txt; the problem."""
    problem = PROBLEMS[cfg.model_kind](mesh, points, cfg.data_sigma)
    n_truth, m_true, data = synthesize_data(cfg, problem, prior)
    problem.set_data(data)
    _write_field(os.path.join(out_dir, "truth.txt"), m_true,
                 f"truth field, mesh n={n_truth}")
    _write_lines(os.path.join(out_dir, "data.txt"), ["# x y value"] + [
        f"{_fmt(x)} {_fmt(y)} {_fmt(v)}" for (x, y), v in zip(points, data)])
    return problem


def stage_map(cfg: ExperimentConfig, problem, prior, out_dir: str):
    """Newton-CG MAP, written to map.txt; the MapResult, if it converged."""
    map_result = compute_map(problem, prior, cfg=cfg)
    if not map_result.converged:
        raise MapConvergenceError(map_result)
    _write_field(os.path.join(out_dir, "map.txt"), map_result.m,
                 f"MAP field, mesh n={cfg.mesh_n}")
    return map_result


def stage_eig(cfg: ExperimentConfig, prior, map_result, out_dir: str):
    """Curvature spectrum at the MAP, written to eigenvalues.txt; the
    LaplaceApprox and the chains' projector, the first mcmc.project_dim
    eigenvectors times the prior precision. The Hessian is the MAP state's own."""
    map_state = map_result.state.model_state
    lam, vecs = doublepass_randomized_eig(
        lambda v: map_state.hessian_action(v, gauss_newton=False),
        prior, k=cfg.eig_k, p=cfg.eig_oversampling,
        rng=np.random.default_rng(cfg.eig_seed))
    _write_lines(os.path.join(out_dir, "eigenvalues.txt"),
                 ["# index eigenvalue"] + [
                     f"{i} {_fmt(lv)}" for i, lv in enumerate(lam, start=1)])
    laplace = LaplaceApprox.from_spectrum(prior, map_result.m, lam, vecs,
                                          threshold=cfg.eig_threshold)
    w_proj = prior.apply_precision(vecs[:, :cfg.mcmc_project_dim])
    return laplace, lambda m: w_proj.T @ m


def stage_chains(cfg: ExperimentConfig, problem, prior, laplace, projector,
                 out_dir: str):
    """Run the chains, one chain_XX.csv each; the ChainRecords."""
    kernel = build_kernel(cfg, prior, laplace)
    target = PosteriorTarget(problem, prior)

    records = []
    for i in range(cfg.mcmc_chains):
        start_rng = np.random.default_rng([cfg.mcmc_seed, i])
        if cfg.mcmc_start == "laplace_sample":
            start = laplace.sample(start_rng)
        elif cfg.mcmc_start == "prior_sample":
            start = prior.sample(start_rng)
        else:
            start = laplace.m_map
        rec = mcmc.run_chain(target, kernel, start, cfg.mcmc_samples,
                             seed=cfg.mcmc_seed + i, projector=projector,
                             kernel_name=cfg.mcmc_method)
        records.append(rec)
        write_chain_csv(rec, os.path.join(out_dir, f"chain_{i:02d}.csv"))
    return records


def stage_diagnostics(cfg: ExperimentConfig, map_result, laplace, records,
                      setup_solves: int, out_dir: str):
    """Summarize the chains, write the QoI tables and report.txt; the report
    entries."""
    report_data = summarize(records)
    _write_qoi_tables(out_dir, np.stack([r.qoi for r in records]))
    entries = {
        "method": cfg.mcmc_method,
        "chains": cfg.mcmc_chains,
        "samples": cfg.mcmc_samples,
        "mesh_n": cfg.mesh_n,
        "parameter_dim": laplace.dim,
        "map_iterations": map_result.iterations,
        "map_cg_iterations": map_result.cg_iterations,
        "map_grad_norm": map_result.grad_norm,
        "eig_rank_retained": laplace.rank,
        "project_dim": records[0].coords.shape[1],
        "mpsrf": report_data.mpsrf,
        "ess_min": report_data.ess_min,
        "ess_min_index": report_data.ess_min_index + 1,
        "ess_max": report_data.ess_max,
        "ess_max_index": report_data.ess_max_index + 1,
        "ess_avg": report_data.ess_avg,
        "ar": ",".join(_fmt(r) for r in report_data.acceptance_rates),
        "setup_solves": setup_solves,
        "sampling_solves": report_data.total_solves,
        "nps_per_es": report_data.nps_per_es,
    }
    for j, (moments, missing) in enumerate(zip(report_data.qoi_moments,
                                               report_data.qoi_missing)):
        entries[f"qoi_moments_chain_{j:02d}"] = ",".join(_fmt(v) for v in moments)
        entries[f"qoi_missing_chain_{j:02d}"] = int(missing)
    write_report(entries, os.path.join(out_dir, "report.txt"))
    return entries


def _stage(name: str, fn, *args):
    """Run one stage; the one place a failure becomes StageError(name, exc)."""
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Execute data -> MAP -> low-rank posterior -> chains -> diagnostics.

    Returns the report dictionary; writes all artifacts under out_dir. An
    invalid config raises ConfigError before any work. Later failures are
    re-raised as StageError with the failing stage name; artifacts produced
    before the failure are left in place.
    """
    validate(cfg)
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "config_used.txt"),
                 serialize(cfg).splitlines())

    mesh = _stage("setup", build_unit_square_mesh, cfg.mesh_n)
    prior = _stage("setup", build_prior_for, cfg, mesh)
    points = _stage("setup", draw_observation_points, cfg)
    problem = _stage("data", stage_data, cfg, mesh, prior, points, out_dir)
    map_result = _stage("map", stage_map, cfg, problem, prior, out_dir)
    laplace, projector = _stage("eig", stage_eig, cfg, prior, map_result, out_dir)
    setup_solves = problem.counter.total
    records = _stage("chains", stage_chains, cfg, problem, prior, laplace,
                     projector, out_dir)
    return _stage("diagnostics", stage_diagnostics, cfg, map_result, laplace,
                  records, setup_solves, out_dir)
