"""Time the Newton-CG MAP of the default experiment at several mesh sizes.

For each model kind (Poisson, linearized) and mesh n in {16, 32, 64} this
builds the default experiment's prior, observation points and synthetic data
(pdebayes.driver), then runs pdebayes.laplace.compute_map with the config's
default newton.* settings: one warm-up run, then REPEATS = 3 timed runs, of
which it records the median and every value.
For each case it also records the Newton iterations, the total CG iterations
(MapResult.cg_iterations), the number of model Hessian actions (one per CG
iteration), the final gradient norm and whether the MAP converged; a
MapConvergenceError is recorded with its iteration count and gradient norm,
not raised. The counts are those of the
warm-up run; compute_map is deterministic, so every run repeats them.

The record, with the machine, Python, numpy, scipy and BLAS versions and the
BLAS thread count, is stored under --label in the JSON file --out (other
labels already in the file are kept), so one file can hold the numbers of two
checkouts that share this one's driver.synthesize_data(cfg, problem, prior):

    python3 tools/bench_map.py --src /path/to/parent/src --label parent --out BENCH.json
    python3 tools/bench_map.py --label change --out BENCH.json

BLAS runs one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set before the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (16, 32, 64)
REPEATS = 3
KINDS = ("poisson", "linearized")


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


class HessianActionCounter:
    """Counts calls of hessian_action on every state class of pdebayes.models."""

    def __init__(self, models):
        self.calls = 0
        for cls in (models.PoissonState, models.LinearizedState):
            method = cls.hessian_action

            def counted(state, *args, _method=method, **kwargs):
                self.calls += 1
                return _method(state, *args, **kwargs)

            cls.hessian_action = counted


def build_case(pb, kind: str, n: int):
    """(problem, prior) of the default experiment with model kind and mesh n."""
    driver = pb.driver
    cfg = pb.config.ExperimentConfig(model_kind=kind, mesh_n=n)
    mesh = pb.fem.build_unit_square_mesh(n)
    prior = driver.build_prior_for(cfg, mesh)
    problem = driver.PROBLEMS[kind](mesh, driver.draw_observation_points(cfg),
                                    cfg.data_sigma)
    problem.set_data(driver.synthesize_data(cfg, problem, prior)[2])
    return problem, prior


def run_map(pb, problem, prior) -> dict:
    t0 = time.perf_counter()
    try:
        res = pb.laplace.compute_map(problem, prior)
    except pb.laplace.MapConvergenceError as exc:
        return {"time_s": time.perf_counter() - t0, "converged": False,
                "newton_iterations": exc.iterations, "cg_iterations": None,
                "grad_norm": exc.grad_norm, "error": "MapConvergenceError"}
    return {"time_s": time.perf_counter() - t0, "converged": bool(res.converged),
            "newton_iterations": res.iterations,
            "cg_iterations": res.cg_iterations,
            "grad_norm": res.grad_norm}


def bench_case(pb, counter, kind: str, n: int) -> dict:
    problem, prior = build_case(pb, kind, n)
    counter.calls = 0
    record = run_map(pb, problem, prior)
    record["hessian_actions"] = counter.calls
    times = [run_map(pb, problem, prior)["time_s"] for _ in range(REPEATS)]
    record.pop("time_s")
    record.update({"kind": kind, "n": n, "dim": prior.dim,
                   "median_s": statistics.median(times), "times_s": times})
    return record


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
    for layer in ("config", "driver", "fem", "laplace", "models"):
        importlib.import_module(f"pdebayes.{layer}")

    counter = HessianActionCounter(pb.models)
    cases = []
    for kind in KINDS:
        for n in SIZES:
            case = bench_case(pb, counter, kind, n)
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
