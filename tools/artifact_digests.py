"""Artifact digests of a small fixed config matrix, for comparing commits.

Runs pdebayes.driver.run_experiment for every MCMC method under both model
kinds at mesh n=8, 30 observations, eig.k 20 + 10 oversampling, 2 chains of
80 samples and 6 projected coordinates, each in a temporary directory. Under
both model kinds it also runs the paths that matrix leaves out: chains
started from a prior sample or the MAP, data from a truth mesh of n=16, and
delayed rejection with an H-inf-MALA second stage: 26 configs in all. Prints
one line per artifact of each config, in name order, then one line for the
config itself:

    <model.kind> <mcmc.method> <override or -> <artifact name> <sha256>
    <model.kind> <mcmc.method> <override or -> config <sha256>

Every artifact except config_used.txt (which names the output directory) is
listed; the config digest is that of pdebayes.config.serialize(cfg). A config
that raises lists the artifacts it wrote, then an `error <exception type>`
line, and prints its traceback to stderr. One digest per artifact means that
a change to one artifact leaves every other line of a diff unchanged. Run it
on two checkouts and diff the outputs:

    python3 tools/artifact_digests.py > a.txt
    python3 tools/artifact_digests.py --src /path/to/other/src > b.txt
    diff a.txt b.txt

Set OPENBLAS_NUM_THREADS=1 (or the thread count of the other run): a
different BLAS thread count can change the last digits of reported floats.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETTINGS = {
    "mesh_n": 8,
    "data_count": 30,
    "eig_k": 20,
    "eig_oversampling": 10,
    "mcmc_chains": 2,
    "mcmc_samples": 80,
    "mcmc_project_dim": 6,
}
# (method, field, value): one non-default setting per extra config, run
# under both model kinds.
OVERRIDES = [
    ("h-pcn", "mcmc_start", "prior_sample"),
    ("h-pcn", "mcmc_start", "map"),
    ("h-pcn", "data_truth_mesh", 16),
    ("dr", "mcmc_dr_stage2", "h-inf-mala"),
]


def digests(art_dir: str) -> list:
    """(name, sha256) of every artifact but config_used.txt, by name."""
    out = []
    for name in sorted(set(os.listdir(art_dir)) - {"config_used.txt"}):
        with open(os.path.join(art_dir, name), "rb") as fh:
            out.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"),
                        help="directory that holds the pdebayes package "
                             "(default: src/ of this checkout)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from pdebayes.config import METHODS, MODEL_KINDS, ExperimentConfig, serialize
    from pdebayes.driver import run_experiment

    runs = [(kind, method, {}) for kind in MODEL_KINDS for method in METHODS]
    runs += [(kind, method, {name: value}) for kind in MODEL_KINDS
             for method, name, value in OVERRIDES]
    for kind, method, extra in runs:
        cfg = ExperimentConfig(model_kind=kind, mcmc_method=method,
                               **SETTINGS, **extra)
        label = " ".join(f"{name.replace('_', '.', 1)}={value}"
                         for name, value in extra.items()) or "-"
        config_sha = hashlib.sha256(serialize(cfg).encode()).hexdigest()
        error = None
        with tempfile.TemporaryDirectory() as out_dir:
            try:
                run_experiment(cfg, out_dir)
            except Exception as exc:
                # One failing config must not hide the others' digests.
                traceback.print_exc()
                error = type(exc).__name__
            lines = digests(out_dir)
        if error:
            lines.append(("error", error))
        lines.append(("config", config_sha))
        for name, value in lines:
            print(f"{kind} {method} {label} {name} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
