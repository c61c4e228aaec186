"""One pipeline in a fresh process: run_experiment on one workload and seed.

Usage (normally started by run.py):
    python3 perfbench/child.py --workload NAME --seed PIPELINE_SEED --dir DIR
                               [--trace 0|1]

Writes DIR/result.json with timings, peak memory, the outcome, artifact
digests, failure counts and check messages; with --trace 1 also the per-layer
table and DIR/spans.jsonl. The pipeline artifacts go to DIR/artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import os
import resource
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
LAYERS = ("config", "fem", "models", "prior", "laplace", "targets", "mcmc",
          "diagnostics", "driver")


def import_program():
    """Import pdebayes from the checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    pb = importlib.import_module("pdebayes")
    for layer in LAYERS:
        importlib.import_module(f"pdebayes.{layer}")
    if os.path.dirname(os.path.abspath(pb.__file__)) != os.path.join(SRC, "pdebayes"):
        raise ImportError(f"pdebayes imported from {pb.__file__}, not from {SRC}")
    return pb


class ChainLogCounter(logging.Handler):
    """Counts the per-chain failures that pdebayes.mcmc only logs."""

    def __init__(self, captured: dict):
        super().__init__(level=logging.WARNING)
        self.captured = captured

    def emit(self, record: logging.LogRecord) -> None:
        kind = "nan_ratios" if str(record.msg).startswith("NaN") else "proposal_failures"
        per_chain = self.captured[kind]
        chain = self.captured["chains_started"] - 1
        per_chain[chain] = per_chain.get(chain, 0) + 1


def install_capture(pb, captured: dict) -> None:
    """Hooks on pdebayes.driver's calls into laplace and mcmc: the set-up clock
    stops at the first build_kernel call, and the objects the checks need are
    kept."""
    driver, mcmc = pb.driver, pb.mcmc
    compute_map, eig = driver.compute_map, driver.doublepass_randomized_eig
    build_kernel, run_chain = driver.build_kernel, mcmc.run_chain

    def captured_compute_map(problem, prior, *args, **kwargs):
        captured["problem"], captured["prior"] = problem, prior
        try:
            res = compute_map(problem, prior, *args, **kwargs)
        except pb.laplace.MapConvergenceError as exc:
            captured.update(map_converged=False, map_iters=exc.iterations,
                            map_grad_norm=exc.grad_norm)
            raise
        captured.update(map_converged=res.converged, map_iters=res.iterations,
                        map_grad_norm=res.grad_norm, map_m=res.m)
        return res

    def captured_eig(*args, **kwargs):
        lam, vecs = eig(*args, **kwargs)
        captured["eig_vecs"] = vecs
        return lam, vecs

    def captured_build_kernel(cfg, prior, laplace):
        captured.setdefault("t_kernel", time.perf_counter())
        captured["rank_retained"] = laplace.rank
        return build_kernel(cfg, prior, laplace)

    def captured_run_chain(*args, **kwargs):
        captured["chains_started"] += 1
        rec = run_chain(*args, **kwargs)
        captured["records"].append(rec)
        return rec

    driver.compute_map = captured_compute_map
    driver.doublepass_randomized_eig = captured_eig
    driver.build_kernel = captured_build_kernel
    mcmc.run_chain = captured_run_chain
    logging.getLogger("pdebayes.mcmc").addHandler(ChainLogCounter(captured))


def digests(art_dir: str) -> dict:
    """SHA-256 of every artifact except config_used.txt, which names the
    output directory and so differs between pipelines of the same seed."""
    out = {}
    for name in sorted(set(os.listdir(art_dir)) - {"config_used.txt"}):
        with open(os.path.join(art_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def acceptance(records) -> dict:
    """Accepted share per stage, pooled over chains, and share of steps that
    moved at any stage."""
    att = sum(r.stage_attempts for r in records)
    acc = sum(r.stage_accepts for r in records)
    out = {f"stage{i + 1}": float(a / max(t, 1)) for i, (a, t) in enumerate(zip(acc, att))}
    steps = sum(r.n_steps for r in records)
    out["any"] = float(sum(int((r.accepted > 0).sum()) for r in records) / steps)
    return out


def layer_metrics(recorder, captured, cfg, result) -> dict:
    """Per-layer table: wrapped-call statistics plus counts and ratios."""
    table = spans.call_table(recorder)
    out = {f"{name}.{key}": value for name, row in table.items()
           for key, value in row.items()}
    steps = cfg.mcmc_chains * cfg.mcmc_samples

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def per_step(name):
        return spans.count_within(recorder, name, "mcmc.run_chain") / steps

    counter = captured["problem"].counter
    out["models.solves.forward"] = counter.forward
    out["models.solves.adjoint"] = counter.adjoint
    out["models.solves.incremental"] = counter.incremental
    newton = captured["map_iters"]
    cg = spans.count_within(recorder, "models.hessian_action", "laplace.compute_map")
    out["trace.spans"] = len(recorder.names)
    out["trace.est_overhead_s"] = len(recorder.names) * spans.wrapper_cost_s()
    out.update({
        "laplace.map_s": total("laplace.compute_map"),
        "laplace.newton_iters": newton,
        "laplace.cg_iters": cg,
        "laplace.cg_per_newton": cg / max(newton, 1),
        "laplace.converged": int(captured["map_converged"]),
    })
    if result["ok"]:
        out.update({
            "models.solves_per_step": float(result["report"]["sampling_solves"]) / steps,
            "laplace.eig_s": total("laplace.doublepass_randomized_eig"),
            "laplace.eig_hessian_actions": spans.count_within(
                recorder, "models.hessian_action", "laplace.doublepass_randomized_eig"),
            "laplace.rank_retained": captured["rank_retained"],
            "targets.evals_per_step": per_step("targets.make_state"),
            "mcmc.run_chain_s_per_chain": total("mcmc.run_chain") / cfg.mcmc_chains,
            "mcmc.log_density_per_step": per_step("mcmc.proposal.log_density"),
            "mcmc.mean_per_step": per_step("mcmc.proposal.mean"),
        })
        out.update({f"mcmc.accept.{k}": v for k, v in result["acceptance"].items()})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    pb = import_program()
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        spans.install(recorder, pb)
    captured = {"chains_started": 0, "records": [], "proposal_failures": {},
                "nan_ratios": {}}
    install_capture(pb, captured)

    art_dir = os.path.join(args.dir, "artifacts")
    cfg = workloads.make_config(pb, workload, args.seed, art_dir)
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        pb.driver.run_experiment(cfg, art_dir)
    except pb.driver.StageError as exc:
        error = exc
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    result = {
        "workload": workload.name, "seed": args.seed, "traced": bool(args.trace),
        "ok": error is None,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": captured.get("t_kernel", t0 + wall) - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": cfg.mcmc_chains * cfg.mcmc_samples,
        "failure": None,
        "map_iters": captured.get("map_iters"),
        "map_grad_norm": captured.get("map_grad_norm"),
        "proposal_failures": captured["proposal_failures"],
        "nan_ratios": captured["nan_ratios"],
        "digests": digests(art_dir),
        "errors": [],
    }
    if error is None:
        result["report"] = workloads.read_report(os.path.join(art_dir, "report.txt"))
        result["acceptance"] = acceptance(captured["records"])
        result["errors"] = workloads.check_success(workload, cfg, art_dir, captured)
        for key in ("oracle_map_rel_err", "oracle_grad_rel", "oracle_max_abs_z"):
            if key in captured:
                result[key] = captured[key]
    else:
        cause = type(error.cause).__name__
        result["failure"] = {"stage": error.stage, "cause": cause, "message": str(error)}
        if (error.stage, cause) != workload.expected_failure:
            result["errors"].append(f"unexpected failure: {error}")
    if recorder is not None and "problem" in captured:
        result["layers"] = layer_metrics(recorder, captured, cfg, result)
        recorder.write(os.path.join(args.dir, "spans.jsonl"))

    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
