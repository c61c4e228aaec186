"""Measure a baseline: repeated runs of run.py per workload, with quartiles.

Usage, from the root of a checkout:
    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--seconds S]
                                  [--out perfbench/baseline.json]

For each workload it runs `run.py --trace 0` once per seed and reports, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to the metric's bound. It then makes one
traced run per workload, with the first seed, for the per-layer table. Workloads default to those
listed in BENCHMARK.json; the run length is its run_seconds. An existing
--out file is updated workload by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, machine_record


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            out = json.load(fh)
    out["machine"] = machine_record()
    seeds = seed_list(args.seeds)
    for name in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in seeds:
            res = run_once(name, seed, args.seconds, 0)
            attempted += res["attempted"]
            failed += res["failed"]
            for key, row in res["metrics"].items():
                values.setdefault(key, []).append(row["value"])
            print(name, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        e2e = {}
        for key, vals in values.items():
            med = statistics.median(vals)
            row = {"median": med, "values": vals}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med, bound=bounds.get(key))
                print(f"  {key}: median {med:.5g}  spread {(q3 - q1) / med:.4f}  "
                      f"bound {bounds.get(key)}", flush=True)
            e2e[key] = row
        traced = run_once(name, seeds[0], args.seconds, 1)
        out["workloads"][name] = {
            "seeds": args.seeds, "run_seconds": args.seconds,
            "end_to_end": e2e, "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": attempted, "failed": failed}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
