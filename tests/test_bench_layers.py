"""tools/bench_layers.py: its call counter, its output file and its set-up.

The tool is imported from its file; nothing here times anything.
"""

import filecmp
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import pdebayes
import pdebayes.driver  # the one layer the package itself does not import
from pdebayes.config import parse_config
from pdebayes.diagnostics import summarize
from pdebayes.driver import _write_qoi_tables, run_experiment

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"

SMALL_LINEARIZED = """
mesh.n = 6
model.kind = linearized
data.count = 20
eig.k = 10
eig.oversampling = 5
mcmc.chains = 2
mcmc.samples = 10
mcmc.project_dim = 3
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_layers = load_tool()


class Counted:
    def double(self, x):
        return 2 * x

    def triple(self, x):
        return 3 * x


class Inherits(Counted):
    pass


OWNERS = [("mult", Counted, "double"), ("mult", Counted, "triple"),
          ("inherited", Inherits, "double"), ("absent", Counted, "missing")]


def all_owners():
    return OWNERS + bench_layers.map_owners(pdebayes) + bench_layers.step_owners(pdebayes)


class TestCallCounter:
    def test_counts_inside_the_block_only(self):
        obj = Counted()
        obj.double(1)
        with bench_layers.CallCounter(OWNERS) as counter:
            assert obj.double(2) == 4
            assert obj.triple(2) == 6
            assert Inherits().double(3) == 6
        obj.triple(1)
        assert counter.calls == {"mult": 3, "inherited": 0, "absent": 0}

    def test_restores_every_attribute_after_normal_exit(self):
        owners = all_owners()
        originals = [cls.__dict__.get(attr) for _, cls, attr in owners]
        with bench_layers.CallCounter(owners):
            assert Counted.__dict__["double"] is not originals[0]
        for (_, cls, attr), original in zip(owners, originals):
            assert cls.__dict__.get(attr) is original
        assert "missing" not in Counted.__dict__
        assert "double" not in Inherits.__dict__

    def test_restores_every_attribute_after_an_exception(self):
        owners = all_owners()
        originals = [cls.__dict__.get(attr) for _, cls, attr in owners]
        with pytest.raises(ZeroDivisionError):
            with bench_layers.CallCounter(owners):
                Counted().double(1 / 0)
        for (_, cls, attr), original in zip(owners, originals):
            assert cls.__dict__.get(attr) is original


def test_write_record_keeps_other_labels(tmp_path):
    out = tmp_path / "bench.json"
    bench_layers.write_record(str(out), "parent", {"cases": [1]})
    bench_layers.write_record(str(out), "change", {"cases": [2]})
    bench_layers.write_record(str(out), "parent", {"cases": [3]})
    assert json.loads(out.read_text()) == {"parent": {"cases": [3]},
                                           "change": {"cases": [2]}}


def test_setup_matches_run_experiment(tmp_path):
    """The tool's set-up is the driver's: the same MAP and the same artifacts."""
    cfg = parse_config(SMALL_LINEARIZED)
    run_dir, setup_dir = tmp_path / "run", tmp_path / "setup"
    run_experiment(cfg, str(run_dir))
    setup_dir.mkdir()
    prior, problem, laplace, projector = bench_layers.build_sampling_setup(
        pdebayes, cfg, str(setup_dir))
    assert np.array_equal(laplace.m_map, np.loadtxt(run_dir / "map.txt"))
    names = ["truth.txt", "data.txt", "map.txt", "eigenvalues.txt"]
    assert filecmp.cmpfiles(run_dir, setup_dir, names, shallow=False)[0] == names
    assert projector(laplace.m_map).shape == (cfg.mcmc_project_dim,)


@pytest.mark.parametrize("extra, converged, reason", [
    ("", True, "gradient"),
    ("newton.max_iters = 1\nnewton.grad_rel_tol = 1e-300\n"
     "newton.grad_abs_tol = 1e-300\n", False, "iteration_cap")],
    ids=["converged", "iteration_cap"])
def test_map_case_records_why_the_map_stopped(tmp_path, extra, converged, reason):
    cfg = parse_config(SMALL_LINEARIZED + extra)
    prior, problem = bench_layers.build_problem(pdebayes, cfg, str(tmp_path))
    case = bench_layers.run_map(pdebayes, cfg, problem, prior)
    assert (case["converged"], case["reason"]) == (converged, reason)
    assert "error" not in case
    if not converged:
        assert case["newton_iterations"] == 1


def test_diagnostics_case_reports_summarize_and_acf_table(tmp_path):
    """At a small shape: the case's report values are summarize's, its digest
    is that of the acf_qoi.txt the driver writes, and the records repeat."""
    shape = {"chains": 3, "steps": 80, "coords": 4}
    case = bench_layers.bench_diagnostics(pdebayes, str(tmp_path), **shape)
    records = bench_layers.ar1_records(pdebayes, *shape.values())
    assert [r.coords.shape for r in records] == [(80, 4)] * 3
    report = summarize(records)
    assert case["ess_values"] == report.ess_values.tolist()
    assert (case["mpsrf"], case["ess_min"], case["ess_avg"], case["ess_max"]) == (
        report.mpsrf, report.ess_min, report.ess_avg, report.ess_max)
    _write_qoi_tables(str(tmp_path), np.stack([r.qoi for r in records]))
    digest = hashlib.sha256((tmp_path / "acf_qoi.txt").read_bytes()).hexdigest()
    assert case["acf_qoi_sha256"] == digest
    for name in ("summarize", "qoi_tables"):
        assert len(case[f"{name}_times_s"]) == bench_layers.REPEATS
        assert case[f"{name}_median_s"] > 0


def test_solves_case_times_both_storages_of_both_operators():
    cases = bench_layers.bench_solves(pdebayes, sizes=(4,), calls=3)
    assert [(c["operator"], c["n"], c["kd"]) for c in cases] == [
        ("prior", 4, 6), ("poisson", 4, 6)]
    for case in cases:
        for name in ("dpbtrf", "dpbtrs"):
            for storage in ("lower", "upper"):
                assert case[f"{name}_{storage}_us"] > 0


@pytest.mark.parametrize("kind", ["poisson", "linearized"])
def test_hessian_case_counts_the_solves_of_each_timing(tmp_path, kind):
    cfg = parse_config(SMALL_LINEARIZED.replace("linearized", kind))
    case = bench_layers.bench_hessian(pdebayes, cfg, str(tmp_path), calls=3)
    columns = cfg.eig_k + cfg.eig_oversampling
    assert (case["kind"], case["n"], case["dim"]) == (kind, 6, 49)
    for name in ("first_action", "full_action", "gauss_newton_action"):
        assert case[f"{name}_solves"] == [0, 0, 2]
        assert case[f"{name}_us"] > 0
    assert case["slab_columns"] == pdebayes.laplace.EIG_SLAB
    assert case["slab_solves"] == [0, 0, 2 * case["slab_columns"]]
    assert case["eig_columns"] == columns
    assert case["eig_solves"] == [0, 0, 4 * columns]
    assert case["eig_hessian_calls"] == 2   # one slab per pass
    assert len(case["eig_times_s"]) == bench_layers.REPEATS
    assert case["slab_ms"] > 0 and case["eig_median_s"] > 0


def test_memory_case_reads_the_peak_after_each_stage(tmp_path):
    src = str(Path(pdebayes.__file__).resolve().parents[1])
    case = bench_layers.bench_memory(src, "linearized", 16, str(tmp_path), samples=10)
    assert (case["kind"], case["n"], case["samples"]) == ("linearized", 16, 10)
    peaks = case["peak_rss_mb"]
    assert list(peaks) == ["import", "setup", "data", "map", "eig", "chains",
                           "diagnostics"]
    assert peaks["import"] > 0 and list(peaks.values()) == sorted(peaks.values())
    assert (tmp_path / "report.txt").is_file()
