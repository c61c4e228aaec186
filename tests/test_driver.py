"""Pipeline orchestration: artifacts, determinism, oracle mode, CLI."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pdebayes.cli import main as cli_main
from pdebayes.config import (METHODS, MODEL_KINDS, ConfigError, ExperimentConfig,
                             parse_config)
from pdebayes import driver
from pdebayes.driver import (StageError, build_prior_for, run_experiment,
                             write_chain_csv)
from pdebayes.fem import build_unit_square_mesh
from pdebayes.laplace import (MAX_BACKTRACKS, MapConvergenceError,
                              doublepass_randomized_eig)
from pdebayes.mcmc import ChainRecord
from pdebayes.models import LinearizedPoissonProblem, ModelEvaluationError
from pdebayes.targets import PosteriorTarget

from helpers import (dense_gaussian_posterior, dense_prior_matrices,
                     read_chain_csv, read_report, solves_by_kind)

FAST_POISSON = """
mesh.n = 6
data.count = 20
data.sigma = 0.05
eig.k = 15
eig.oversampling = 10
mcmc.method = h-pcn
mcmc.beta = 0.6
mcmc.chains = 2
mcmc.samples = 60
mcmc.project_dim = 4
"""

MAP_NEVER_CONVERGES = """newton.max_iters = 1
newton.grad_rel_tol = 1e-300
newton.grad_abs_tol = 1e-300
"""

ORACLE_LINEARIZED = """
mesh.n = 6
model.kind = linearized
data.count = 20
data.sigma = 0.05
newton.grad_rel_tol = 1e-10
newton.grad_abs_tol = 1e-10
eig.k = 30
eig.oversampling = 12
eig.threshold = 1e-10
mcmc.method = h-pcn
mcmc.beta = 0.8
mcmc.chains = 2
mcmc.samples = 40
mcmc.project_dim = 3
"""


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fast")
    cfg = parse_config(FAST_POISSON)
    entries = run_experiment(cfg, str(out))
    return cfg, out, entries


class TestArtifacts:
    def test_expected_files(self, fast_run):
        _, out, _ = fast_run
        for name in ("config_used.txt", "truth.txt", "data.txt", "map.txt",
                     "eigenvalues.txt", "chain_00.csv", "chain_01.csv",
                     "acf_qoi.txt", "hist_qoi.txt", "report.txt"):
            assert (out / name).exists(), name

    def test_report_keys(self, fast_run):
        _, out, _ = fast_run
        report = read_report(str(out / "report.txt"))
        for key in ("mpsrf", "ess_min", "ess_max", "ess_avg", "ar",
                    "nps_per_es"):
            assert key in report, key

    def test_chain_csv_round_trip(self, fast_run):
        cfg, out, _ = fast_run
        comment, names, data = read_chain_csv(str(out / "chain_00.csv"))
        assert comment.startswith("# seed=")
        assert "kernel=h-pcn" in comment
        assert names[:4] == ["iter", "accepted", "log_posterior", "qoi"]
        assert names[4:] == [f"c_{j+1}" for j in range(4)]
        assert data.shape == (60, 8)

    def test_solve_accounting(self, fast_run):
        cfg, out, entries = fast_run
        # one forward per proposal; the start-up evaluation is setup cost
        expected = cfg.mcmc_chains * cfg.mcmc_samples
        assert entries["sampling_solves"] == expected
        report = read_report(str(out / "report.txt"))
        assert float(report["nps_per_es"]) == pytest.approx(
            expected / float(report["ess_avg"]), rel=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_byte_identical_reruns(self, tmp_path, method, kind):
        cfg = parse_config(FAST_POISSON.replace("mcmc.method = h-pcn",
                                                f"mcmc.method = {method}")
                           + f"model.kind = {kind}\n")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_experiment(cfg, str(out1))
        run_experiment(cfg, str(out2))
        for name in ("chain_00.csv", "chain_01.csv", "report.txt",
                     "truth.txt", "map.txt", "eigenvalues.txt"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    def test_seed_changes_chains(self, tmp_path):
        cfg1 = parse_config(FAST_POISSON)
        cfg2 = parse_config(FAST_POISSON + "mcmc.seed = 99\n")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_experiment(cfg1, str(out1))
        run_experiment(cfg2, str(out2))
        assert not filecmp.cmp(out1 / "chain_00.csv", out2 / "chain_00.csv",
                               shallow=False)
        # data generation does not depend on the chain seed
        assert filecmp.cmp(out1 / "data.txt", out2 / "data.txt", shallow=False)


class TestOracleMode:
    def test_laplace_vs_dense_check_passes(self, tmp_path):
        # The linearized posterior is Gaussian: the MAP is its mean, and the
        # spectrum is that of the pencil (F^T F / sigma^2, R), R the prior
        # precision. Both are computed densely from the run's own data.
        cfg = parse_config(ORACLE_LINEARIZED)
        entries = run_experiment(cfg, str(tmp_path))
        mesh = build_unit_square_mesh(cfg.mesh_n)
        prior = build_prior_for(cfg, mesh)
        table = np.loadtxt(tmp_path / "data.txt", ndmin=2)
        problem = LinearizedPoissonProblem(mesh, table[:, :2], cfg.data_sigma)
        problem.set_data(table[:, 2])
        f = problem.dense_forward_matrix()
        _, r, c = dense_prior_matrices(prior)
        mean, _ = dense_gaussian_posterior(f, problem.data, cfg.data_sigma,
                                           prior.mean, c)
        map_m = np.loadtxt(tmp_path / "map.txt")
        assert np.linalg.norm(map_m - mean) <= 1e-6 * np.linalg.norm(mean)

        lam_dense = scipy.linalg.eigh(f.T @ f / cfg.data_sigma**2, r,
                                      eigvals_only=True)[::-1][:10]
        lam = np.loadtxt(tmp_path / "eigenvalues.txt")[:10, 1]
        np.testing.assert_allclose(lam, lam_dense, rtol=1e-6)
        # the linearized model defines no flux; every QoI sample is missing
        assert entries["qoi_missing_chain_00"] == cfg.mcmc_samples


class TestDiliMethod:
    def test_reports_two_stage_rates_at_default_parameters(self, tmp_path):
        # default dili parameters are (beta, tau) = (0.8, 0.1)
        cfg = parse_config(FAST_POISSON.replace("mcmc.method = h-pcn",
                                                "mcmc.method = dili"))
        assert cfg.mcmc_dili_beta == 0.8
        assert cfg.mcmc_dili_tau == 0.1
        entries = run_experiment(cfg, str(tmp_path))
        rates = entries["ar"].split(",")
        assert len(rates) == 2
        assert all(0.0 <= float(r) <= 1.0 for r in rates)


class TestDrMethod:
    def test_reports_separate_stage_rates(self, tmp_path):
        # stage 1 is an independence draw from the posterior Gaussian, so its
        # rate is well below the conservative stage-2 fallback
        cfg = parse_config(FAST_POISSON.replace("mcmc.method = h-pcn",
                                                "mcmc.method = dr"))
        assert cfg.mcmc_dr_beta == 1.0
        entries = run_experiment(cfg, str(tmp_path))
        rates = [float(r) for r in entries["ar"].split(",")]
        assert len(rates) == 2
        assert all(0.0 <= r <= 1.0 for r in rates)


class TestStartModes:
    @pytest.mark.parametrize("mode", ["prior_sample", "map"])
    def test_start_mode_runs(self, tmp_path, mode):
        cfg = parse_config(FAST_POISSON + f"mcmc.start = {mode}\n")
        entries = run_experiment(cfg, str(tmp_path / mode))
        assert entries["samples"] == cfg.mcmc_samples

    def test_map_start_is_the_written_map(self, tmp_path, monkeypatch):
        starts = []
        run_chain = driver.mcmc.run_chain

        def recording_run_chain(target, kernel, start, *args, **kwargs):
            starts.append(start.copy())
            return run_chain(target, kernel, start, *args, **kwargs)

        monkeypatch.setattr(driver.mcmc, "run_chain", recording_run_chain)
        cfg = parse_config(FAST_POISSON + "mcmc.start = map\n")
        run_experiment(cfg, str(tmp_path))
        m_map = np.loadtxt(tmp_path / "map.txt")
        assert len(starts) == cfg.mcmc_chains
        assert all(np.array_equal(start, m_map) for start in starts)


class TestProjectDim:
    def test_project_dim_above_eig_k_projects_on_every_eigenvector(self, tmp_path):
        # mcmc.project_dim = 4 exceeds the 3 eigenvectors there are.
        cfg = parse_config(FAST_POISSON.replace("eig.k = 15", "eig.k = 3"))
        run_experiment(cfg, str(tmp_path))
        for i in range(cfg.mcmc_chains):
            _, names, _ = read_chain_csv(str(tmp_path / f"chain_{i:02d}.csv"))
            assert names[4:] == ["c_1", "c_2", "c_3"]
        assert read_report(str(tmp_path / "report.txt"))["project_dim"] == "3"


TRUTH_MESH_CONFIG = FAST_POISSON.replace("mesh.n = 6", "mesh.n = 8")


class TestTruthMesh:
    def test_naming_the_inversion_mesh_changes_no_artifact(self, tmp_path):
        run_experiment(parse_config(TRUTH_MESH_CONFIG), str(tmp_path / "a"))
        run_experiment(parse_config(TRUTH_MESH_CONFIG + "data.truth_mesh = 8\n"),
                       str(tmp_path / "b"))
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in set(names) - {"config_used.txt"}:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    @pytest.mark.parametrize("truth_mesh, builds", [(0, 1), (8, 1), (16, 2)])
    def test_set_up_objects_built_once_per_mesh(self, tmp_path, monkeypatch,
                                                truth_mesh, builds):
        # The data stage reuses the set-up mesh and prior; only a truth mesh
        # other than the inversion mesh gets a mesh and a prior of its own.
        calls = {"build_unit_square_mesh": 0, "build_prior_for": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(driver, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(driver, name, counted)
        run_experiment(parse_config(TRUTH_MESH_CONFIG
                                    + f"data.truth_mesh = {truth_mesh}\n"),
                       str(tmp_path))
        assert calls == {"build_unit_square_mesh": builds,
                         "build_prior_for": builds}
        truth = (tmp_path / "truth.txt").read_text().splitlines()
        n_truth = truth_mesh or 8
        assert truth[0] == f"# truth field, mesh n={n_truth}"
        assert len(truth) == 1 + (n_truth + 1) ** 2


class TestMapStateHandOff:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_eig_stage_reuses_the_map_state(self, tmp_path, monkeypatch, kind):
        # stage_eig takes the Hessian at the state compute_map stopped at: no
        # model evaluation and no forward or adjoint solve, only the two
        # incremental solves of each of the eigensolver's 2(k+p) Hessian
        # actions, and the same eigenpairs as a fresh evaluation at the MAP.
        cfg = parse_config(FAST_POISSON + f"model.kind = {kind}\n")
        mesh = build_unit_square_mesh(cfg.mesh_n)
        prior = build_prior_for(cfg, mesh)
        points = driver.draw_observation_points(cfg)
        problem = driver.stage_data(cfg, mesh, prior, points, str(tmp_path))
        map_result = driver.stage_map(cfg, problem, prior, str(tmp_path))
        evaluate = problem.evaluate

        def no_evaluation(m):
            raise AssertionError("model evaluated in stage_eig")

        monkeypatch.setattr(problem, "evaluate", no_evaluation)
        before = solves_by_kind(problem.counter)
        laplace, projector = driver.stage_eig(cfg, prior, map_result,
                                              str(tmp_path))
        solves = [a - b for a, b in zip(solves_by_kind(problem.counter), before)]
        assert solves == [0, 0, 4 * (cfg.eig_k + cfg.eig_oversampling)]

        fresh = evaluate(map_result.m)
        lam, fresh_vecs = doublepass_randomized_eig(
            lambda v: fresh.hessian_action(v, gauss_newton=False), prior,
            k=cfg.eig_k, p=cfg.eig_oversampling,
            rng=np.random.default_rng(cfg.eig_seed))
        assert np.array_equal(fresh_vecs[:, :laplace.rank], laplace.vecs)
        assert np.array_equal(lam[:laplace.rank], laplace.lam)
        w_proj = prior.apply_precision(fresh_vecs[:, :cfg.mcmc_project_dim])
        assert np.array_equal(w_proj.T @ map_result.m, projector(map_result.m))


class TestWriteChainCsv:
    def test_single_sample_layout(self, tmp_path):
        rec = ChainRecord(
            coords=np.array([[0.25, -1.5]]), qoi=np.array([0.5]),
            log_posterior=np.array([-2.0]), accepted=np.array([1]),
            stage_attempts=np.array([1]), stage_accepts=np.array([1]),
            solves=2, seed=7, kernel_name="pcn")
        path = tmp_path / "one.csv"
        write_chain_csv(rec, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "# seed=7, kernel=pcn"
        assert lines[1] == "iter,accepted,log_posterior,qoi,c_1,c_2"

    def test_values_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((5, 3))
        rec = ChainRecord(
            coords=coords, qoi=rng.standard_normal(5),
            log_posterior=rng.standard_normal(5),
            accepted=np.array([0, 1, 1, 0, 1]),
            stage_attempts=np.array([5]), stage_accepts=np.array([3]),
            solves=6, seed=1, kernel_name="rw")
        path = tmp_path / "chain.csv"
        write_chain_csv(rec, str(path))
        _, _, data = read_chain_csv(str(path))
        np.testing.assert_array_equal(data[:, 4:], coords)
        np.testing.assert_array_equal(data[:, 2], rec.log_posterior)


# Each stage, a driver-module name it calls before it writes anything, and
# the artifacts it writes, in pipeline order.
STAGES = [
    ("setup", "build_unit_square_mesh", []),
    ("data", "synthesize_data", ["truth.txt", "data.txt"]),
    ("map", "compute_map", ["map.txt"]),
    ("eig", "doublepass_randomized_eig", ["eigenvalues.txt"]),
    ("chains", "build_kernel", ["chain_00.csv", "chain_01.csv"]),
    ("diagnostics", "summarize", ["acf_qoi.txt", "hist_qoi.txt", "report.txt"]),
]


class StageFault(RuntimeError):
    pass


class TestStageErrors:
    @pytest.mark.parametrize("index", range(len(STAGES)),
                             ids=[stage for stage, _, _ in STAGES])
    def test_failure_is_stage_tagged(self, tmp_path, monkeypatch, index):
        tag, name, _ = STAGES[index]

        def fail(*args, **kwargs):
            raise StageFault(name)

        monkeypatch.setattr(driver, name, fail)
        with pytest.raises(StageError) as err:
            run_experiment(parse_config(FAST_POISSON), str(tmp_path))
        assert err.value.stage == tag
        assert type(err.value.cause) is StageFault
        assert (tmp_path / "config_used.txt").exists()
        for i, (_, _, artifacts) in enumerate(STAGES):
            for artifact in artifacts:
                assert (tmp_path / artifact).exists() == (i < index), artifact

    def test_map_convergence_failure_is_stage_tagged(self, tmp_path):
        # one Newton step cannot reach this tolerance
        cfg = parse_config(FAST_POISSON + "newton.max_iters = 1\n"
                           + "newton.grad_rel_tol = 1e-300\n"
                           + "newton.grad_abs_tol = 1e-300\n")
        with pytest.raises(StageError) as err:
            run_experiment(cfg, str(tmp_path))
        assert err.value.stage == "map"
        assert isinstance(err.value.cause, MapConvergenceError)
        assert (tmp_path / "truth.txt").exists()
        assert not (tmp_path / "map.txt").exists()

    def test_line_search_stall_ends_the_run_at_map(self, tmp_path, monkeypatch):
        # Every line-search trial fails, so the Newton iteration stalls at its
        # start: the run stops before map.txt instead of sampling from there.
        make_state, states = PosteriorTarget.make_state, []

        def start_state_only(target, m):
            states.append(m)
            if len(states) > 1:
                raise ModelEvaluationError("trial point rejected")
            return make_state(target, m)

        monkeypatch.setattr(PosteriorTarget, "make_state", start_state_only)
        with pytest.raises(StageError) as err:
            run_experiment(parse_config(FAST_POISSON), str(tmp_path))
        assert err.value.stage == "map"
        assert isinstance(err.value.cause, MapConvergenceError)
        assert "line_search_stall" in str(err.value.cause)
        assert len(states) == 1 + MAX_BACKTRACKS
        assert (tmp_path / "truth.txt").exists()
        assert not (tmp_path / "map.txt").exists()
        assert not (tmp_path / "eigenvalues.txt").exists()
        assert not list(tmp_path.glob("chain_*.csv"))

    def test_invalid_config_rejected_before_any_work(self, tmp_path):
        # a config built in code skips parse_config's validation
        cfg = parse_config(FAST_POISSON)
        cfg.mcmc_chains = 1
        with pytest.raises(ConfigError):
            run_experiment(cfg, str(tmp_path))
        assert not (tmp_path / "chain_00.csv").exists()

    def test_wrong_type_rejected_before_any_artifact(self, tmp_path):
        # A float sample count used to pass validate() and fail only when
        # the chains stage sized its arrays.
        cfg = ExperimentConfig(mesh_n=8, data_count=30, eig_k=20,
                               eig_oversampling=10, mcmc_chains=2,
                               mcmc_samples=10.5, mcmc_project_dim=6)
        with pytest.raises(ConfigError, match="mcmc.samples"):
            run_experiment(cfg, str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mcmc.beta = 7\n")
        code = cli_main(["solve", "--config", str(bad)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_override_rejected_before_sampling(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST_POISSON)
        out = tmp_path / "out"
        code = cli_main(["solve", "--config", str(cfg_file), "--chains", "1",
                         "--output", str(out)])
        assert code == 2
        assert "mcmc.chains" in capsys.readouterr().err
        assert not (out / "chain_00.csv").exists()

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, raw):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST_POISSON + f"prior.mean = {raw}\n")
        out = tmp_path / "out"
        code = cli_main(["solve", "--config", str(cfg_file), "--output", str(out)])
        assert code == 2
        assert "prior.mean" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        code = cli_main(["solve", "--config", "/nonexistent/path.cfg"])
        assert code == 2

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST_POISSON + MAP_NEVER_CONVERGES)
        code = cli_main(["solve", "--config", str(cfg_file),
                         "--output", str(tmp_path / "out")])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, raw, field, value", [
        ("--seed", "17", "mcmc_seed", 17),
        ("--chains", "3", "mcmc_chains", 3),
        ("--samples", "25", "mcmc_samples", 25),
        ("--method", "dili", "mcmc_method", "dili"),
        ("--output", "elsewhere", "output_dir", "elsewhere"),
    ])
    def test_each_override_lands_in_config_used(self, tmp_path, monkeypatch, capsys,
                                                flag, raw, field, value):
        # The run stops at the MAP, after config_used.txt is written.
        monkeypatch.chdir(tmp_path)
        base = FAST_POISSON + MAP_NEVER_CONVERGES + "output.dir = out\n"
        Path("run.cfg").write_text(base)
        assert getattr(parse_config(base), field) != value
        assert cli_main(["solve", "--config", "run.cfg", flag, raw]) == 3
        out = raw if flag == "--output" else "out"
        used = parse_config(Path(out, "config_used.txt").read_text())
        assert getattr(used, field) == value

    def test_successful_run_with_overrides(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(FAST_POISSON)
        out = tmp_path / "cli_out"
        code = cli_main(["solve", "--config", str(cfg_file),
                         "--samples", "30", "--chains", "2",
                         "--method", "pcn", "--seed", "5",
                         "--output", str(out)])
        assert code == 0
        report = read_report(str(out / "report.txt"))
        assert report["method"] == "pcn"
        assert report["samples"] == "30"


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_artifact_digests_tool_runs():
    # Every byte-identity comparison between two checkouts rests on this tool.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOLS / "artifact_digests.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    assert all(len(line.split()) == 5 for line in lines), lines
    assert not [line for line in lines if line.split()[3] == "error"]
    configs = {line.split()[4] for line in lines if line.split()[3] == "config"}
    assert len(configs) == 26


def test_artifact_diff_reports_rounding_and_sign_flips(tmp_path):
    chain = "# seed=1, kernel=mh\niter,accepted,log_posterior,qoi,c_1,c_2\n{}\n"
    rows = {"a": ["0,1,-2.5,0.5,1.0,4.0", "1,0,-2.5,0.5,-3.0,2.0"],
            "b": ["0,1,-2.5,0.5,-1.0,4.0", "1,1,-2.5,0.5,3.0,2.0000000004"]}
    for side in ("a", "b"):
        config = tmp_path / side / "linearized_dr"
        config.mkdir(parents=True)
        (config / "chain_00.csv").write_text(chain.format("\n".join(rows[side])))
        (config / "truth.txt").write_text("# truth\n1.5\n")
        (config / "config_used.txt").write_text(f"output_dir = {side}\n")
    proc = subprocess.run([sys.executable, str(TOOLS / "artifact_diff.py"),
                           str(tmp_path / "a"), str(tmp_path / "b")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "linearized_dr chain_00.csv max_rel 1.00e+00 (accepted) differing "
        "accepted,c_2 sign-flipped c_1 accepted rows differing 1",
        "2 artifacts compared: 1 identical, 1 differ"]
