"""Time the layers of the default experiment: the Newton-CG MAP, the Hessian
actions and the eigensolver, one MCMC step and the diagnostics.

One run records six sets of cases:

- memory: for each model kind and mesh n in {16, 32, 64}, one
  pdebayes.driver.run_experiment of the default config with chains of
  MEMORY_SAMPLES steps, in a fresh Python process: the peak resident set
  size (ru_maxrss, in MB) after importing pdebayes and after each stage
  (setup, data, map, eig, chains, diagnostics; the driver's _stage runner
  is wrapped to read it), so that the stage that sets a run's high-water
  mark can be seen.

- map: for each model kind (Poisson, linearized) and mesh n in {16, 32, 64},
  pdebayes.laplace.compute_map with the config's default newton.* settings:
  one counted warm-up run, then REPEATS = 3 timed runs, of which it records
  the median and every value. A case records the Newton iterations, the total
  CG iterations (MapResult.cg_iterations), the number of model Hessian
  actions (one per CG iteration), the final gradient norm, whether the MAP
  converged and why it stopped (MapResult.reason: gradient, iteration_cap or
  line_search_stall), and the median time per CG iteration.
- hessian: for each model kind and mesh n in {16, 32, 64}, the model at the
  MAP of build_sampling_setup, evaluated afresh (pdebayes.driver's set-up,
  as the map case) with its gradient formed: the microseconds of its first
  Hessian action, and the median microseconds of HESSIAN_CALLS vector
  actions, full and Gauss-Newton; the median milliseconds of REPEATS slab
  passes, the full action on one slab of the eigensolver's sketch (an
  (N, laplace.EIG_SLAB) block in one call); and the median wall time of
  REPEATS calls of pdebayes.laplace.doublepass_randomized_eig with the
  config's eig.* settings, each on a fresh state, as stage_eig calls it. Every timing records the
  solves it made by kind (forward, adjoint, incremental), and the eigensolve
  also its number of hessian_action calls.
- steps: for each model kind at n = 32 and each of the 9 methods
  (pdebayes.config.METHODS, with the config's default step sizes), the kernel
  of pdebayes.driver.build_kernel runs one counted chain of STEPS steps from
  the MAP with pdebayes.mcmc.run_chain, then REPEATS timed chains of the same
  seed, of which it records the median microseconds per step and every value.
  The counted chain gives, per step: PDE solves (ChainRecord.solves), proposal
  log_density and mean calls, prior precision actions, the covariance, factor
  and factor-transpose actions of the prior and of the Laplace approximation
  (each class counted on its own, so a Laplace action that calls the prior's
  counts once on both), and the acceptance rate of each stage.
- solves: for the prior's A (pdebayes.driver.build_prior_for with the
  default config) and the eliminated Poisson stiffness at coefficient 1, at
  mesh n in {16, 32, 64}: the median microseconds of SOLVE_CALLS calls of
  LAPACK dpbtrf and of dpbtrs with one vector right-hand side, in lower
  (lower=1) and in upper (lower=0) band storage, each call timed on its own
  and the two storages alternating call by call. The stiffness's lower band
  is pdebayes.fem.StiffnessAssembler's (with pdebayes.models.DIRICHLET_TAGS),
  and its upper band is the one pdebayes.models.LinearizedPoissonProblem
  builds and hands to SpdSolver, copied before it is factorized.
- diagnostics: seeded stationary AR(1) chains (phi = DIAG_PHI) shaped like
  the default run's records: DIAG_CHAINS mcmc.ChainRecords of DIAG_STEPS steps
  with DIAG_COORDS projected coordinates and a QoI. It records the median and
  every value of REPEATS timed runs of pdebayes.diagnostics.summarize(records)
  and of pdebayes.driver._write_qoi_tables(out_dir, qoi), with the report's
  MPSRF and ESS values and the sha256 of acf_qoi.txt, which two checkouts
  that keep the estimators' arithmetic give identically.

Every set-up is built by the driver's own functions (build_prior_for,
draw_observation_points, stage_data, stage_map, stage_eig), which write their
artifacts into a temporary directory; the chains project with the projector
that stage_eig returns. Counts come from the warm-up run or the
counted chain, inside a CallCounter; the timed runs are never wrapped. MAP and
chains are deterministic, so every run repeats the counts.

The record, with the machine, Python, numpy, scipy and BLAS versions and the
BLAS thread count, is stored under --label in the JSON file --out (other
labels already in the file are kept), so one file can hold the numbers of two
checkouts. Time each checkout with its own copy of the tool, which calls that
checkout's driver:

    python3 /path/to/parent/tools/bench_layers.py --label parent --out BENCH.json
    python3 tools/bench_layers.py --label change --out BENCH.json

The two checkouts are timed one after the other, so their timings carry the
host's drift between the runs; only the counts compare exactly. BLAS runs one
thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set
before the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KINDS = ("poisson", "linearized")
MAP_SIZES = (16, 32, 64)
STEP_N = 32
STEPS = 300
REPEATS = 3
CHAIN_SEED = 1
OPERATOR_ACTIONS = ("apply_covariance", "apply_cov_factor", "apply_cov_factor_t")
SOLVE_CALLS = 200
HESSIAN_CALLS = 50
DIAG_CHAINS = 4
DIAG_STEPS = 5000
DIAG_COORDS = 25
DIAG_PHI = 0.98
DIAG_SEED = 1
MEMORY_SAMPLES = 400

# The memory case's child: argv is src, model kind, mesh n, samples, out dir.
MEMORY_CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from pdebayes import config, driver

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

peaks = {"import": peak_mb()}
run_stage = driver._stage

def recorded(name, fn, *args):
    out = run_stage(name, fn, *args)
    peaks[name] = peak_mb()
    return out

driver._stage = recorded
cfg = config.ExperimentConfig(model_kind=sys.argv[2], mesh_n=int(sys.argv[3]),
                              mcmc_samples=int(sys.argv[4]))
driver.run_experiment(cfg, sys.argv[5])
print(json.dumps(peaks))
"""


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


class CallCounter:
    """Counts calls of class methods while its with block runs.

    owners lists (key, class, method name); the calls of all methods under one
    key add up in calls[key]. On enter, each method found in its class's own
    __dict__ is wrapped; on exit, also after an exception, the original is put
    back. A method that a class lacks counts 0.
    """

    def __init__(self, owners):
        self.owners = owners
        self.calls = dict.fromkeys([key for key, _, _ in self.owners], 0)

    def __enter__(self):
        self._originals = [(key, cls, attr, cls.__dict__[attr])
                           for key, cls, attr in self.owners if attr in cls.__dict__]
        for key, cls, attr, method in self._originals:
            def counted(*args, _method=method, _key=key, **kwargs):
                self.calls[_key] += 1
                return _method(*args, **kwargs)

            setattr(cls, attr, counted)
        return self

    def __exit__(self, *exc_info):
        for _, cls, attr, method in self._originals:
            setattr(cls, attr, method)


def map_owners(pb) -> list:
    return [("hessian_action", cls, "hessian_action")
            for cls in (pb.models.PoissonState, pb.models.LinearizedState)]


def step_owners(pb) -> list:
    mcmc = pb.mcmc
    owners = [("log_density", mcmc.GaussianProposal, "log_density"),
              ("apply_precision", pb.prior.BiLaplacianPrior, "apply_precision")]
    owners += [("mean", cls, "mean")
               for cls in (mcmc.RandomWalkProposal, mcmc.AutoregressiveProposal,
                           mcmc.LangevinProposal, mcmc.DimensionRobustLangevinProposal)]
    for label, cls in (("prior", pb.prior.BiLaplacianPrior),
                       ("laplace", pb.laplace.LaplaceApprox)):
        owners += [(f"{label}.{attr}", cls, attr) for attr in OPERATOR_ACTIONS]
    return owners


def build_problem(pb, cfg, out_dir: str):
    """(prior, problem with data) of cfg, from the driver's set-up and data stage."""
    mesh = pb.fem.build_unit_square_mesh(cfg.mesh_n)
    prior = pb.driver.build_prior_for(cfg, mesh)
    points = pb.driver.draw_observation_points(cfg)
    return prior, pb.driver.stage_data(cfg, mesh, prior, points, out_dir)


def build_sampling_setup(pb, cfg, out_dir: str):
    """(prior, problem, laplace, projector) of cfg, from the driver's stages
    up to the eigensolve."""
    prior, problem = build_problem(pb, cfg, out_dir)
    map_result = pb.driver.stage_map(cfg, problem, prior, out_dir)
    laplace, projector = pb.driver.stage_eig(cfg, prior, map_result, out_dir)
    return prior, problem, laplace, projector


def run_map(pb, cfg, problem, prior) -> dict:
    t0 = time.perf_counter()
    res = pb.laplace.compute_map(problem, prior, cfg=cfg)
    return {"time_s": time.perf_counter() - t0, "converged": bool(res.converged),
            "reason": res.reason, "newton_iterations": res.iterations,
            "cg_iterations": res.cg_iterations,
            "grad_norm": res.grad_norm}


def bench_map(pb, kind: str, n: int, out_dir: str) -> dict:
    cfg = pb.config.ExperimentConfig(model_kind=kind, mesh_n=n)
    prior, problem = build_problem(pb, cfg, out_dir)
    with CallCounter(map_owners(pb)) as counter:
        record = run_map(pb, cfg, problem, prior)
    record["hessian_actions"] = counter.calls["hessian_action"]
    times = [run_map(pb, cfg, problem, prior)["time_s"] for _ in range(REPEATS)]
    record.pop("time_s")
    record.update({"kind": kind, "n": n, "dim": prior.dim,
                   "median_s": statistics.median(times), "times_s": times,
                   "ms_per_cg_iteration": statistics.median(times)
                   / max(record["cg_iterations"], 1) * 1e3})
    return record


def solves_by_kind(counter) -> tuple:
    """(forward, adjoint, incremental) solves of a models.SolveCounter."""
    return (counter.forward, counter.adjoint, counter.incremental)


def counted_solves(problem, fn) -> tuple:
    """(seconds, solves by kind) of one call of fn()."""
    before = solves_by_kind(problem.counter)
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    return seconds, [a - b for a, b in zip(solves_by_kind(problem.counter), before)]


def fresh_state(problem, m):
    """The model evaluated at m with its gradient formed, as a MAP state is."""
    state = problem.evaluate(m)
    state.gradient()
    return state


def bench_hessian(pb, cfg, out_dir: str, calls: int = HESSIAN_CALLS) -> dict:
    import numpy as np

    prior, problem, laplace, _ = build_sampling_setup(pb, cfg, out_dir)
    m_map = laplace.m_map
    rng = np.random.default_rng(cfg.mesh_n)
    v = rng.standard_normal(prior.dim)
    state = fresh_state(problem, m_map)
    first_s, first_solves = counted_solves(problem, lambda: state.hessian_action(v))
    case = {"kind": cfg.model_kind, "n": cfg.mesh_n, "dim": prior.dim,
            "first_action_us": first_s * 1e6, "first_action_solves": first_solves}
    for name, gauss_newton in (("full", False), ("gauss_newton", True)):
        runs = [counted_solves(problem, lambda: state.hessian_action(v, gauss_newton))
                for _ in range(calls)]
        case[f"{name}_action_us"] = statistics.median(r[0] for r in runs) * 1e6
        case[f"{name}_action_solves"] = runs[0][1]

    block = rng.standard_normal((prior.dim, pb.laplace.EIG_SLAB))
    runs = [counted_solves(problem, lambda: state.hessian_action(block))
            for _ in range(REPEATS)]
    case.update({"slab_columns": block.shape[1],
                 "slab_ms": statistics.median(r[0] for r in runs) * 1e3,
                 "slab_solves": runs[0][1]})

    def eig(eig_state):
        return pb.laplace.doublepass_randomized_eig(
            lambda x: eig_state.hessian_action(x, gauss_newton=False),
            prior, k=cfg.eig_k, p=cfg.eig_oversampling,
            rng=np.random.default_rng(cfg.eig_seed))

    eig_state = fresh_state(problem, m_map)
    with CallCounter(map_owners(pb)) as counter:
        eig_solves = counted_solves(problem, lambda: eig(eig_state))[1]
    times = []
    for _ in range(REPEATS):
        eig_state = fresh_state(problem, m_map)
        times.append(counted_solves(problem, lambda: eig(eig_state))[0])
    case.update({"eig_columns": cfg.eig_k + cfg.eig_oversampling,
                 "eig_median_s": statistics.median(times), "eig_times_s": times,
                 "eig_solves": eig_solves,
                 "eig_hessian_calls": counter.calls["hessian_action"]})
    return case


def timed(fn) -> list:
    """Wall times of REPEATS calls of fn()."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def bench_step(pb, setup, kind: str, method: str) -> dict:
    prior, problem, laplace, projector = setup
    cfg = pb.config.ExperimentConfig(model_kind=kind, mesh_n=STEP_N,
                                     mcmc_method=method)
    kernel = pb.driver.build_kernel(cfg, prior, laplace)
    target = pb.targets.PosteriorTarget(problem, prior)

    def chain():
        return pb.mcmc.run_chain(target, kernel, laplace.m_map, STEPS,
                                 seed=CHAIN_SEED, projector=projector)

    with CallCounter(step_owners(pb)) as counter:
        record = chain()
    times = timed(chain)
    calls = counter.calls
    case = {"kind": kind, "method": method, "n": STEP_N, "steps": STEPS,
            "us_per_step": statistics.median(times) / STEPS * 1e6,
            "times_s": times,
            "solves_per_step": record.solves / STEPS,
            "log_density_per_step": calls["log_density"] / STEPS,
            "mean_per_step": calls["mean"] / STEPS,
            "prior_precision_per_step": calls["apply_precision"] / STEPS,
            "acceptance": record.acceptance_rates().tolist()}
    for label in ("prior", "laplace"):
        for attr in OPERATOR_ACTIONS:
            name = attr.removeprefix("apply_")
            case[f"{label}_{name}_per_step"] = calls[f"{label}.{attr}"] / STEPS
    return case


def bench_memory(src: str, kind: str, n: int, out_dir: str,
                 samples: int = MEMORY_SAMPLES) -> dict:
    """The memory case of one model kind and mesh size: MEMORY_CHILD run
    with the pdebayes package under src, writing its artifacts to out_dir."""
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD, src, kind, str(n), str(samples), out_dir],
        capture_output=True, text=True, check=True)
    return {"kind": kind, "n": n, "samples": samples,
            "peak_rss_mb": json.loads(proc.stdout.splitlines()[-1])}


def linearized_band(pb, mesh):
    """The upper band of the eliminated Laplacian that
    pb.models.LinearizedPoissonProblem factorizes when it is built, copied as
    it reaches SpdSolver (which factorizes it in place)."""
    solver = pb.fem.SpdSolver
    original = solver.__init__
    bands = []

    def capturing(self, band, lower):
        bands.append(band.copy(order="F"))
        original(self, band, lower)

    solver.__init__ = capturing
    try:
        pb.models.LinearizedPoissonProblem(mesh, [[0.5, 0.5]], 1.0)
    finally:
        solver.__init__ = original
    band, = bands
    return band


def bench_solves(pb, sizes=MAP_SIZES, calls: int = SOLVE_CALLS) -> list:
    """The solves cases: dpbtrf and vector dpbtrs per band storage, per
    operator and mesh size."""
    import numpy as np
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    cases = []
    for n in sizes:
        cfg = pb.config.ExperimentConfig(mesh_n=n)
        mesh = pb.fem.build_unit_square_mesh(n)
        prior = pb.driver.build_prior_for(cfg, mesh)
        assembler = pb.fem.StiffnessAssembler(
            mesh, mesh.boundary_vertices(pb.models.DIRICHLET_TAGS))
        b = np.random.default_rng(n).standard_normal(mesh.num_vertices)
        for operator, bands in (
                ("prior", {lower: pb.fem.band_storage(prior.A, lower)
                           for lower in (1, 0)}),
                ("poisson", {1: assembler.assemble(np.ones(mesh.num_triangles)),
                             0: linearized_band(pb, mesh)})):
            factors = {lower: dpbtrf(bands[lower], lower=lower)[0]
                       for lower in (1, 0)}
            factor_us = {1: [], 0: []}
            solve_us = {1: [], 0: []}
            for _ in range(calls):
                for lower in (1, 0):
                    work = bands[lower].copy(order="F")
                    t0 = time.perf_counter()
                    dpbtrf(work, lower=lower, overwrite_ab=1)
                    t1 = time.perf_counter()
                    dpbtrs(factors[lower], b, lower=lower)
                    t2 = time.perf_counter()
                    factor_us[lower].append((t1 - t0) * 1e6)
                    solve_us[lower].append((t2 - t1) * 1e6)
            case = {"operator": operator, "n": n, "dim": mesh.num_vertices,
                    "kd": bands[1].shape[0] - 1, "calls": calls}
            for lower, storage in ((1, "lower"), (0, "upper")):
                case[f"dpbtrf_{storage}_us"] = statistics.median(factor_us[lower])
                case[f"dpbtrs_{storage}_us"] = statistics.median(solve_us[lower])
            cases.append(case)
    return cases


def ar1_records(pb, chains: int, steps: int, coords: int) -> list:
    """chains ChainRecords of stationary AR(1) series with coefficient
    DIAG_PHI: coords projected coordinates, and the QoI as one more series."""
    import numpy as np

    rng = np.random.default_rng(DIAG_SEED)
    x = np.empty((chains, steps, coords + 1))
    x[:, 0] = rng.standard_normal((chains, coords + 1))
    innov = np.sqrt(1.0 - DIAG_PHI**2) * rng.standard_normal(x.shape)
    for t in range(1, steps):
        x[:, t] = DIAG_PHI * x[:, t - 1] + innov[:, t]
    return [pb.mcmc.ChainRecord(
        coords=x[j, :, :coords], qoi=x[j, :, coords].copy(),
        log_posterior=np.zeros(steps), accepted=np.zeros(steps, dtype=np.int64),
        stage_attempts=np.array([steps]), stage_accepts=np.array([steps // 4]),
        solves=steps, seed=j, kernel_name="ar1") for j in range(chains)]


def bench_diagnostics(pb, out_dir: str, chains: int = DIAG_CHAINS,
                      steps: int = DIAG_STEPS, coords: int = DIAG_COORDS) -> dict:
    import numpy as np

    records = ar1_records(pb, chains, steps, coords)
    qoi = np.stack([r.qoi for r in records])
    report = pb.diagnostics.summarize(records)
    pb.driver._write_qoi_tables(out_dir, qoi)
    with open(os.path.join(out_dir, "acf_qoi.txt"), "rb") as fh:
        acf_digest = hashlib.sha256(fh.read()).hexdigest()
    summarize_times = timed(lambda: pb.diagnostics.summarize(records))
    qoi_times = timed(lambda: pb.driver._write_qoi_tables(out_dir, qoi))
    return {"chains": chains, "steps": steps, "coords": coords, "phi": DIAG_PHI,
            "summarize_median_s": statistics.median(summarize_times),
            "summarize_times_s": summarize_times,
            "qoi_tables_median_s": statistics.median(qoi_times),
            "qoi_tables_times_s": qoi_times,
            "mpsrf": report.mpsrf, "ess_values": report.ess_values.tolist(),
            "ess_min": report.ess_min, "ess_avg": report.ess_avg,
            "ess_max": report.ess_max, "acf_qoi_sha256": acf_digest}


def write_record(path: str, label: str, record: dict) -> None:
    """Store record under label in the JSON file path, keeping its other labels."""
    results = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            results = json.load(fh)
    results[label] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")


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
    for layer in ("config", "driver", "fem", "laplace", "mcmc", "models", "prior",
                  "targets"):
        importlib.import_module(f"pdebayes.{layer}")

    record = {"machine": machine_record(), "repeats": REPEATS, "memory": [],
              "map": [], "hessian": [], "steps": []}
    for kind in KINDS:
        for n in MAP_SIZES:
            with tempfile.TemporaryDirectory() as out_dir:
                record["memory"].append(bench_memory(os.path.abspath(args.src),
                                                     kind, n, out_dir))
            print(json.dumps(record["memory"][-1]), flush=True)
    record["solves"] = bench_solves(pb)
    for case in record["solves"]:
        print(json.dumps(case), flush=True)
    with tempfile.TemporaryDirectory() as out_dir:
        for kind in KINDS:
            for n in MAP_SIZES:
                record["map"].append(bench_map(pb, kind, n, out_dir))
                print(json.dumps(record["map"][-1]), flush=True)
        for kind in KINDS:
            for n in MAP_SIZES:
                cfg = pb.config.ExperimentConfig(model_kind=kind, mesh_n=n)
                record["hessian"].append(bench_hessian(pb, cfg, out_dir))
                print(json.dumps(record["hessian"][-1]), flush=True)
        for kind in KINDS:
            cfg = pb.config.ExperimentConfig(model_kind=kind, mesh_n=STEP_N)
            setup = build_sampling_setup(pb, cfg, out_dir)
            for method in pb.config.METHODS:
                record["steps"].append(bench_step(pb, setup, kind, method))
                print(json.dumps(record["steps"][-1]), flush=True)
        record["diagnostics"] = bench_diagnostics(pb, out_dir)
        print(json.dumps(record["diagnostics"]), flush=True)
    write_record(args.out, args.label, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
