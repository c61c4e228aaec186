"""Pipeline benchmark for pdebayes: end-to-end metrics, output checks, traced layers.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each pipeline runs pdebayes.driver.run_experiment in a fresh process
(perfbench/child.py) with one BLAS thread. A run executes pipelines with chain
and eigensolver seed 100*N + j, j = 0, 1, ..., until S seconds are spent (at
least the workload's min_pipelines), then repeats pipeline 0 to check that its
artifacts are byte-identical. With --trace 0 the repeat is untraced and the
end-to-end metrics are reported; with --trace 1 the repeat is traced and the
per-layer metrics are reported. The metric names and units come from
BENCHMARK.json. The last line of standard output is one JSON object; the exit
code is 0 only if every check passed. Everything a run writes goes under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# One BLAS thread: more threads add run-to-run variance, and a different
# count can change the last digits of reported floats, so artifact digests
# are only comparable at a fixed count.
BLAS_THREADS = 1
PIPELINE_TIMEOUT_S = 170


def machine_record() -> dict:
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
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": BLAS_THREADS}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_pipeline(workload: str, seed: int, run_dir: str, tag: str, traced: bool,
                 env: dict) -> dict:
    pipe_dir = os.path.join(run_dir, tag)
    os.makedirs(pipe_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--dir", pipe_dir, "--trace", str(int(traced))]
    with open(os.path.join(pipe_dir, "child.log"), "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=PIPELINE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"pipeline {tag} timed out after {PIPELINE_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"pipeline {tag} exited with code {code}; see "
                           f"{os.path.join(pipe_dir, 'child.log')}")
    with open(os.path.join(pipe_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summary_of(values: list) -> dict:
    return {"value": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def end_to_end(untraced: list, attempted: int, failed: int) -> dict:
    """Medians over the untraced pipelines of a run.

    The pipelines of a run do the same work (same data, fresh chain seeds).
    Medians, not the fastest pipeline: a shared host has episodes faster than
    its usual speed as well as slower ones, and the fastest pipeline of a run
    depends on whether the run caught one. cpu_s (process CPU time during
    run_experiment) is reported but not gated: a gap between it and wall_s is
    time lost to other processes on the same core, not a slower core.
    """
    out = {
        "wall_s": summary_of([r["wall_s"] for r in untraced]),
        "cpu_s": summary_of([r["cpu_s"] for r in untraced]),
        "setup_s": summary_of([r["setup_s"] for r in untraced]),
        "peak_rss_mb": summary_of([r["peak_rss_mb"] for r in untraced]),
        "fail_frac": {"value": failed / attempted, "n": attempted},
    }
    ok = [r for r in untraced if r["ok"]]
    if ok:
        out["steps_per_s"] = summary_of(
            [r["steps"] / (r["wall_s"] - r["setup_s"]) for r in ok])
    return out


def per_layer(traced: dict, first: dict, untraced_wall: float, attempted: int,
              failed: int) -> dict:
    """Per-layer numbers of the traced repeat of pipeline 0, plus quality
    figures of pipeline 0 and the tracing overhead against the untraced
    median wall time."""
    out = {k: {"value": v} for k, v in traced["layers"].items()}
    for key, row in out.items():
        stem, _, stat = key.rpartition(".")
        if stat in ("p50_us", "p99_us"):
            row["n"] = traced["layers"][f"{stem}.calls"]
    out["mcmc.proposal_failures"] = {"value": sum(traced["proposal_failures"].values())}
    out["mcmc.nan_ratios"] = {"value": sum(traced["nan_ratios"].values())}
    out["pipeline.fail_frac"] = {"value": failed / attempted, "n": attempted}
    overhead = traced["wall_s"] - untraced_wall
    out["trace.overhead_s"] = {"value": overhead}
    out["trace.overhead_frac"] = {"value": overhead / untraced_wall}
    if first["ok"]:
        rep = first["report"]
        out["quality.ess_per_s"] = {"value": float(rep["ess_avg"]) / first["wall_s"]}
        out["quality.nps_per_es"] = {"value": float(rep["nps_per_es"])}
        out["quality.mpsrf"] = {"value": float(rep["mpsrf"])}
        out["quality.ess_min"] = {"value": float(rep["ess_min"])}
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 machine: dict, spec: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    run_dir = os.path.join(OUT, f"{name}-s{seed}-t{int(traced)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = child_env(machine["nproc"])

    untraced = []
    t0 = time.perf_counter()
    while True:
        j = len(untraced)
        untraced.append(run_pipeline(name, workloads.pipeline_seed(seed, j),
                                     run_dir, f"p{j:02d}", False, env))
        # Stop when one more pipeline of average length would overrun.
        projected = (time.perf_counter() - t0) * (1 + 1 / len(untraced))
        if len(untraced) >= workload.min_pipelines and projected > seconds:
            break
        if len(untraced) == workloads.SEED_STRIDE:
            break
    repeat = run_pipeline(name, workloads.pipeline_seed(seed, 0), run_dir,
                          "repeat", traced, env)
    pipelines = untraced + [repeat]

    tags = [str(r["seed"]) for r in untraced] + [f"{repeat['seed']}-repeat"]
    errors = [f"{t}: {e}" for t, r in zip(tags, pipelines) for e in r["errors"]]
    if repeat["digests"] != untraced[0]["digests"]:
        diff = sorted(k for k in set(repeat["digests"]) | set(untraced[0]["digests"])
                      if repeat["digests"].get(k) != untraced[0]["digests"].get(k))
        errors.append(f"pipeline seed {untraced[0]['seed']} is not deterministic: {diff}")
    attempted = len(pipelines)
    failed = sum(not r["ok"] for r in pipelines)
    by_stage = {}
    for r in pipelines:
        if r["failure"]:
            key = f"{r['failure']['stage']}:{r['failure']['cause']}"
            by_stage[key] = by_stage.get(key, 0) + 1

    # An untraced repeat is one more sample of the same work.
    e2e = end_to_end(untraced if traced else pipelines, attempted, failed)
    layers = (per_layer(repeat, untraced[0], e2e["wall_s"]["value"], attempted, failed)
              if traced else {})
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        row = (layers if traced else e2e).get(m["name"])
        if row is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": row["value"], "unit": m["unit"]}
    if missing and name in {w["name"] for w in spec["workloads"]}:
        errors.append(f"metrics not measured: {missing}")

    summary = {
        "workload": name, "seed": seed, "traced": traced, "machine": machine,
        "correct": not errors, "errors": errors, "attempted": attempted,
        "failed": failed, "failures_by_stage": by_stage,
        "per_chain_failures": {
            t: {"proposal_failures": r["proposal_failures"], "nan_ratios": r["nan_ratios"]}
            for t, r in zip(tags, pipelines)},
        "digests": {t: r["digests"] for t, r in zip(tags, pipelines)},
        "end_to_end": e2e, "per_layer": layers, "metrics": metrics,
    }
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print_table(summary, spec)
    return summary


def unit_of(name: str, spec: dict) -> str:
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    if name.endswith("frac"):
        return "ratio"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def print_table(summary: dict, spec: dict) -> None:
    m = summary["machine"]
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"attempted {summary['attempted']}  failed {summary['failed']} "
          f"{summary['failures_by_stage'] or ''}")
    print(f"   python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"{m['blas']}, {m['blas_threads']} BLAS thread(s), nproc {m['nproc']}, "
          f"{m['cpu']}")
    print("-- end to end (median over untraced pipelines, n [min .. max])")
    for key, row in summary["end_to_end"].items():
        extent = f"  [{row['min']:.4g} .. {row['max']:.4g}]" if "min" in row else ""
        print(f"   {key:<44} {row['value']:>14.6g} {unit_of(key, spec):<8} "
              f"n={row['n']}{extent}")
    if summary["per_layer"]:
        print("-- per layer (traced repeat of pipeline 0; n = calls)")
        for key in sorted(summary["per_layer"]):
            row = summary["per_layer"][key]
            print(f"   {key:<44} {row['value']:>14.6g} {unit_of(key, spec):<8} "
                  f"n={row.get('n', 1)}")
    print("-- checks: " + ("all passed" if summary["correct"]
                           else "FAILED: " + "; ".join(summary["errors"])))
    for tag, dig in summary["digests"].items():
        short = ({k: v[:12] for k, v in dig.items()
                  if k == "report.txt" or k.startswith("chain_")}
                 or {k: v[:12] for k, v in dig.items()})
        print(f"   sha256 {tag}: {short}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement time per workload (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "pdebayes", "driver.py")):
        print(f"error: no pdebayes sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    machine = machine_record()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(n, args.seed, seconds, bool(args.trace),
                                  machine, spec) for n in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(s["correct"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in s["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
