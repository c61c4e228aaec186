"""Spans around the public calls of each pdebayes layer, recorded from outside.

The program is not modified: `install` replaces public functions and methods
with timing wrappers in the running process. Spans (name, start, end, parent)
are kept in memory and written out when the pipeline ends; self times are
derived afterwards from the parent links.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# Calls with at least this many samples get a p99 in the table.
P99_MIN_CALLS = 1000


class SpanRecorder:
    """Append-only span store with an explicit stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.wrapped: set[str] = set()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def arrays(self):
        return (np.array(self.names, dtype=object), np.array(self.starts),
                np.array(self.ends), np.array(self.parents, dtype=np.int64))

    def write(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent id (-1 = root)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts,
                                                 self.ends, self.parents)):
                fh.write(json.dumps({"id": i, "name": n, "start_s": s - t0,
                                     "end_s": e - t0, "parent": p}) + "\n")


def wrapper_cost_s(calls: int = 100_000) -> float:
    """Seconds one span adds to a call, from timing a wrapped no-op."""
    fn = SpanRecorder().wrap("null", lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def _boundaries(pb):
    """(span name, owner, attribute) for every wrapped public call.

    Calls of the same role on the Poisson and the linearized model share one
    name, so the table reads the same on every workload.
    """
    fem, models, prior, laplace = pb.fem, pb.models, pb.prior, pb.laplace
    targets, mcmc, diagnostics, driver = pb.targets, pb.mcmc, pb.diagnostics, pb.driver
    out = [
        ("fem.build_unit_square_mesh", fem, "build_unit_square_mesh"),
        ("fem.SpdSolver.factorize", fem.SpdSolver, "__init__"),
        ("fem.SpdSolver.solve", fem.SpdSolver, "solve"),
        ("fem.StiffnessAssembler.assemble", fem.StiffnessAssembler, "assemble"),
        ("models.generate_synthetic_data", models, "generate_synthetic_data"),
        ("prior.apply_covariance", prior.BiLaplacianPrior, "apply_covariance"),
        ("prior.apply_precision", prior.BiLaplacianPrior, "apply_precision"),
        ("prior.apply_cov_factor", prior.BiLaplacianPrior, "apply_cov_factor"),
        ("laplace.compute_map", laplace, "compute_map"),
        ("laplace.doublepass_randomized_eig", laplace, "doublepass_randomized_eig"),
        ("laplace.LaplaceApprox.build", laplace.LaplaceApprox, "__init__"),
        ("laplace.LaplaceApprox.apply_covariance", laplace.LaplaceApprox, "apply_covariance"),
        ("laplace.LaplaceApprox.apply_precision", laplace.LaplaceApprox, "apply_precision"),
        ("laplace.LaplaceApprox.apply_cov_factor", laplace.LaplaceApprox, "apply_cov_factor"),
        ("laplace.LaplaceApprox.log_density", laplace.LaplaceApprox, "log_density"),
        ("targets.make_state", targets.PosteriorTarget, "make_state"),
        ("targets.fill_gradient", targets.PosteriorTarget, "fill_gradient"),
        ("mcmc.run_chain", mcmc, "run_chain"),
        ("mcmc.proposal.sample", mcmc.GaussianProposal, "sample"),
        ("mcmc.proposal.log_density", mcmc.GaussianProposal, "log_density"),
        ("diagnostics.summarize", diagnostics, "summarize"),
        ("diagnostics.ess", diagnostics, "ess"),
        ("driver.run_experiment", driver, "run_experiment"),
        ("driver.synthesize_data", driver, "synthesize_data"),
        ("driver.build_kernel", driver, "build_kernel"),
        ("driver.write_chain_csv", driver, "write_chain_csv"),
        ("driver.write_report", driver, "write_report"),
    ]
    for cls in (models.PoissonProblem, models.LinearizedPoissonProblem):
        out.append(("models.evaluate", cls, "evaluate"))
    for cls in (models.PoissonState, models.LinearizedState):
        out += [("models.gradient", cls, "gradient"),
                ("models.hessian_action", cls, "hessian_action"),
                ("models.qoi", cls, "qoi")]
    for cls in (mcmc.MHKernel, mcmc.DRKernel, mcmc.DiliKernel):
        out.append(("mcmc.step", cls, "step"))
    for cls in (mcmc.RandomWalkProposal, mcmc.AutoregressiveProposal,
                mcmc.LangevinProposal, mcmc.DimensionRobustLangevinProposal):
        out.append(("mcmc.proposal.mean", cls, "mean"))
    return out


def install(recorder: SpanRecorder, pb) -> None:
    """Wrap every boundary; module functions are replaced in every pdebayes
    module that imported them by name, so calls through any alias are seen."""
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "pdebayes" or k.startswith("pdebayes."))]
    for name, owner, attr in _boundaries(pb):
        if isinstance(owner, type):
            setattr(owner, attr, recorder.wrap(name, owner.__dict__[attr]))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def call_table(recorder: SpanRecorder) -> dict:
    """Per wrapped call: calls, total and self seconds, p50 and p99 in microseconds.

    Self time is a span's duration minus the durations of its direct children.
    Calls never made get a row with zero calls and no percentiles.
    """
    names, starts, ends, parents = recorder.arrays()
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
             for name in sorted(recorder.wrapped)}
    if names.size == 0:
        return table
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent],
                        minlength=names.size)
    self_t = dur - child
    for name in sorted(set(names.tolist())):
        sel = names == name
        d = dur[sel]
        row = {"calls": int(d.size), "total_s": float(d.sum()),
               "self_s": float(self_t[sel].sum()),
               "p50_us": float(np.percentile(d, 50) * 1e6)}
        if d.size >= P99_MIN_CALLS:
            row["p99_us"] = float(np.percentile(d, 99) * 1e6)
        table[name] = row
    return table


def count_within(recorder: SpanRecorder, name: str, container: str) -> int:
    """Spans called `name` that start and end inside any `container` span."""
    names, starts, ends, _ = recorder.arrays()
    inner = names == name
    total = 0
    for i in np.flatnonzero(names == container):
        total += int(np.sum(inner & (starts >= starts[i]) & (ends <= ends[i])))
    return total
