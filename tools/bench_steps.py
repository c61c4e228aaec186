"""Time one MCMC step of every kernel on the default experiment at n = 32.

For each model kind (Poisson, linearized) this builds the default
experiment's prior, synthetic data, MAP, low-rank Laplace approximation and
chain projector at mesh n = 32 the way pdebayes.driver.run_experiment does,
then for each of the 9 methods (pdebayes.config.METHODS, with the config's
default step sizes) builds the kernel with pdebayes.driver.build_kernel and
runs chains of STEPS steps from the MAP with pdebayes.mcmc.run_chain.

One counted chain records, per step: PDE solves (ChainRecord.solves),
proposal log_density calls, proposal mean calls, prior precision actions and
the covariance, factor and factor-transpose actions (apply_covariance,
apply_cov_factor, apply_cov_factor_t) of the prior and of the Laplace
approximation, each class counted on its own, so a Laplace action that calls
the prior's counts once on both; the counting wrappers sit on
GaussianProposal.log_density, on the mean of each proposal class and on the
operator methods, as the benchmark's trace wraps them. It also records the
acceptance rate of each stage. A method that a checkout lacks counts 0. The
counts repeat exactly, since a chain is deterministic for its seed. The
wrappers are then removed, and REPEATS timed chains of the same seed give the
median microseconds per step and every value.

The record, with the machine, Python, numpy, scipy and BLAS versions and the
BLAS thread count, is stored under --label in the JSON file --out (other
labels already in the file are kept), so one file can hold the numbers of two
checkouts that share this one's driver.synthesize_data(cfg, problem, prior):

    python3 tools/bench_steps.py --src /path/to/parent/src --label parent --out BENCH.json
    python3 tools/bench_steps.py --label change --out BENCH.json

BLAS runs one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set before the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench_map import BLAS_THREAD_VARS, KINDS, machine_record  # noqa: E402

MESH_N = 32
STEPS = 300
REPEATS = 3
CHAIN_SEED = 1


OPERATOR_ACTIONS = ("apply_covariance", "apply_cov_factor", "apply_cov_factor_t")


class CallCounter:
    """Counts proposal log_density and mean calls, prior precision actions and
    the reference operators' covariance and factor actions while installed."""

    def __init__(self, pb):
        mcmc = pb.mcmc
        owners = [("log_density", mcmc.GaussianProposal, "log_density"),
                  ("apply_precision", pb.prior.BiLaplacianPrior, "apply_precision")]
        owners += [("mean", cls, "mean")
                   for cls in (mcmc.RandomWalkProposal, mcmc.AutoregressiveProposal,
                               mcmc.LangevinProposal,
                               mcmc.DimensionRobustLangevinProposal)]
        for label, cls in (("prior", pb.prior.BiLaplacianPrior),
                           ("laplace", pb.laplace.LaplaceApprox)):
            owners += [(f"{label}.{attr}", cls, attr) for attr in OPERATOR_ACTIONS]
        self.calls = dict.fromkeys([key for key, _, _ in owners], 0)
        self._originals = [(key, cls, attr, cls.__dict__[attr])
                           for key, cls, attr in owners if attr in cls.__dict__]

    def install(self):
        for key, cls, attr, method in self._originals:
            def counted(*args, _method=method, _key=key, **kwargs):
                self.calls[_key] += 1
                return _method(*args, **kwargs)

            setattr(cls, attr, counted)

    def remove(self):
        for _, cls, attr, method in self._originals:
            setattr(cls, attr, method)


def build_setup(pb, kind: str):
    """(prior, problem, laplace, projector) of the default experiment."""
    import numpy as np

    driver = pb.driver
    cfg = pb.config.ExperimentConfig(model_kind=kind, mesh_n=MESH_N)
    mesh = pb.fem.build_unit_square_mesh(MESH_N)
    prior = driver.build_prior_for(cfg, mesh)
    problem = driver.PROBLEMS[kind](mesh, driver.draw_observation_points(cfg),
                                    cfg.data_sigma)
    problem.set_data(driver.synthesize_data(cfg, problem, prior)[2])
    m_map = pb.laplace.compute_map(problem, prior, cfg=cfg).m
    map_state = problem.evaluate(m_map)
    lam, vecs = pb.laplace.doublepass_randomized_eig(
        lambda v: map_state.hessian_action(v, gauss_newton=False),
        prior, k=cfg.eig_k, p=cfg.eig_oversampling,
        rng=np.random.default_rng(cfg.eig_seed))
    laplace = pb.laplace.LaplaceApprox.from_spectrum(
        prior, m_map, lam, vecs, threshold=cfg.eig_threshold)
    w_proj = prior.apply_precision(vecs[:, :min(cfg.mcmc_project_dim, vecs.shape[1])])
    return prior, problem, laplace, lambda m: w_proj.T @ m


def bench_method(pb, counter, setup, kind: str, method: str) -> dict:
    prior, problem, laplace, projector = setup
    cfg = pb.config.ExperimentConfig(model_kind=kind, mesh_n=MESH_N,
                                     mcmc_method=method)
    kernel = pb.driver.build_kernel(cfg, prior, laplace)
    target = pb.targets.PosteriorTarget(problem, prior)

    def chain():
        return pb.mcmc.run_chain(target, kernel, laplace.m_map, STEPS,
                                 seed=CHAIN_SEED, projector=projector)

    counter.calls = dict.fromkeys(counter.calls, 0)
    counter.install()
    try:
        record = chain()
    finally:
        counter.remove()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        chain()
        times.append(time.perf_counter() - t0)
    case = {"kind": kind, "method": method, "n": MESH_N, "steps": STEPS,
            "us_per_step": statistics.median(times) / STEPS * 1e6,
            "times_s": times,
            "solves_per_step": record.solves / STEPS,
            "log_density_per_step": counter.calls["log_density"] / STEPS,
            "mean_per_step": counter.calls["mean"] / STEPS,
            "prior_precision_per_step": counter.calls["apply_precision"] / STEPS,
            "acceptance": record.acceptance_rates().tolist()}
    for label in ("prior", "laplace"):
        for attr in OPERATOR_ACTIONS:
            name = attr.removeprefix("apply_")
            case[f"{label}_{name}_per_step"] = counter.calls[f"{label}.{attr}"] / STEPS
    return case


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"),
                        help="directory that holds the pdebayes package "
                             "(default: src/ of this checkout)")
    parser.add_argument("--label", required=True,
                        help="key under which the record is stored in --out")
    parser.add_argument("--out", required=True, help="JSON file to update")
    args = parser.parse_args()

    # Before numpy is imported, so that BLAS starts with one thread.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.abspath(args.src))
    pb = importlib.import_module("pdebayes")
    for layer in ("config", "driver", "fem", "laplace", "mcmc", "prior", "targets"):
        importlib.import_module(f"pdebayes.{layer}")

    counter = CallCounter(pb)
    cases = []
    for kind in KINDS:
        setup = build_setup(pb, kind)
        for method in pb.config.METHODS:
            case = bench_method(pb, counter, setup, kind, method)
            print(json.dumps(case), flush=True)
            cases.append(case)

    results = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            results = json.load(fh)
    results[args.label] = {"machine": machine_record(), "repeats": REPEATS,
                           "cases": cases}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
