"""Configuration grammar: defaults, validation, and round-trips."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from pdebayes.config import (ConfigError, ExperimentConfig, parse_config,
                             serialize, validate)


class TestDefaults:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.mesh_n == 32
        assert cfg.prior_gamma == 0.1
        assert cfg.prior_delta == 0.5
        assert cfg.data_count == 300
        assert cfg.data_sigma == 0.005
        assert cfg.prior_theta1 == 2.0
        assert cfg.prior_theta2 == 0.5
        assert cfg.prior_alpha == pytest.approx(math.pi / 4)
        assert cfg.mcmc_chains == 4
        assert cfg.mcmc_samples == 5000
        assert cfg.mcmc_start == "laplace_sample"
        assert cfg.mcmc_project_dim == 25

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("""
# a comment
mesh.n = 8   # trailing comment
eig.k = 30

data.sigma = 0.1
""")
        assert cfg.mesh_n == 8
        assert cfg.data_sigma == 0.1


class TestErrors:
    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("mesh.n = 4\nnot.a.key = 3\n")
        assert err.value.line == 2
        assert "unknown key" in str(err.value)

    def test_type_mismatch_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("\nmesh.n = two\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("key, value", [
        ("mcmc.beta", "1.5"),
        ("mcmc.chains", "1"),      # between-chain covariance needs 2
        ("mcmc.samples", "3"),     # effective sample size needs 4
    ])
    def test_out_of_range_with_line(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"mesh.n = 8\n{key} = {value}\n")
        assert err.value.line == 2
        assert "out of range" in str(err.value)

    def test_negative_sigma(self):
        with pytest.raises(ConfigError):
            parse_config("data.sigma = -0.1\n")

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            parse_config("mcmc.method = hmc\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config("mesh.n 4\n")
        assert err.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("mesh.n = 4\nmesh.n = 8\n")

    def test_box_ordering(self):
        with pytest.raises(ConfigError):
            parse_config("data.box_lo = 0.9\ndata.box_hi = 0.1\n")

    def test_eig_versus_dimension(self):
        with pytest.raises(ConfigError):
            parse_config("mesh.n = 4\neig.k = 100\n")


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = ExperimentConfig(mesh_n=16, prior_gamma=0.2,
                               prior_delta=0.07, data_exact=True,
                               mcmc_method="dr", mcmc_samples=123,
                               eig_k=40, output_dir="/tmp/x y")
        round_tripped = parse_config(serialize(cfg))
        assert round_tripped == cfg

    def test_full_precision_floats(self):
        cfg = ExperimentConfig(data_sigma=1 / 3)
        assert parse_config(serialize(cfg)).data_sigma == cfg.data_sigma


# A text that no key of the field's parse type accepts, by the default's type;
# free-text keys (str without a list of allowed values) accept any text.
WRONG_TYPE = {int: "1.5", float: "x", bool: "yes", str: "1.5"}
# Values of another type, set in code, that validate() rejects by the
# default's type: a bool is not a number.
WRONG_VALUES = {int: (1.5, True, "8", None), float: ("x", True, None),
                bool: (1, "true", None), str: (1.5, None)}
# Candidates for an out-of-range value; every range check rejects one of them.
OUT_OF_RANGE = ["-1", "0", "1.5", "1", "3"]
# Every key the config has had, in serialized order; a new key is appended.
# A key's cases are named by its place in this list and its field, so that
# removing a key renames no other key's cases.
KEY_HISTORY = [
    "mesh_n", "model_kind", "prior_gamma", "prior_delta", "prior_robin_beta",
    "prior_theta1", "prior_theta2", "prior_alpha", "prior_mean", "data_count",
    "data_sigma", "data_box_lo", "data_box_hi", "data_seed", "data_truth_mesh",
    "data_exact", "newton_grad_rel_tol", "newton_grad_abs_tol",
    "newton_max_iters", "newton_max_cg_iters", "newton_armijo_c",
    "newton_backtrack", "newton_gn_iters", "eig_k", "eig_oversampling",
    "eig_threshold", "eig_seed", "mcmc_method", "mcmc_step", "mcmc_beta",
    "mcmc_tau", "mcmc_h", "mcmc_dr_beta", "mcmc_dr_stage2", "mcmc_dili_beta",
    "mcmc_dili_tau", "mcmc_dili_center", "mcmc_chains", "mcmc_samples",
    "mcmc_seed", "mcmc_start", "mcmc_project_dim", "output_dir"]
FIELDS = dataclasses.fields(ExperimentConfig)
# Former keys: the Newton line-search and CG settings are constants in
# pdebayes.laplace, the Robin coefficient is derived from gamma and delta, and
# DILI has one subspace move. A config that names one is rejected.
REMOVED_KEYS = [name.replace("_", ".", 1) for name in KEY_HISTORY
                if name not in {f.name for f in FIELDS}]


def test_key_history_lists_every_field_in_order():
    assert [n for n in KEY_HISTORY if n in {f.name for f in FIELDS}] == \
        [f.name for f in FIELDS]


def _keys(select):
    """Parametrize over the fields whose range check select accepts, one case
    per field named by its place in KEY_HISTORY and the field."""
    return pytest.mark.parametrize(
        "f", [f for f in FIELDS if select(f.metadata["check"])],
        ids=lambda f: f"{KEY_HISTORY.index(f.name)}-{f.name}")


EVERY_KEY = _keys(lambda check: True)


class TestEveryKey:
    def key(self, f):
        return f.name.replace("_", ".", 1)

    @EVERY_KEY
    def test_serialized_in_field_order(self, f):
        lines = serialize(ExperimentConfig()).splitlines()
        assert len(lines) == len(FIELDS)
        assert lines[FIELDS.index(f)].partition(" = ")[0] == self.key(f)

    @EVERY_KEY
    def test_wrong_type_rejected_naming_key(self, f):
        for value in WRONG_VALUES[type(f.default)]:
            cfg = dataclasses.replace(ExperimentConfig(), **{f.name: value})
            with pytest.raises(ConfigError) as err:
                validate(cfg)
            assert self.key(f) in str(err.value)
        check = f.metadata["check"]
        raw = WRONG_TYPE[type(f.default)]
        if type(f.default) is str and not isinstance(check, tuple):
            assert getattr(parse_config(f"{self.key(f)} = {raw}\n"), f.name) == raw
            return
        with pytest.raises(ConfigError) as err:
            parse_config(f"# line 1\n{self.key(f)} = {raw}\n")
        assert err.value.line == 2
        assert self.key(f) in str(err.value)

    @_keys(callable)
    def test_out_of_range_rejected(self, f):
        check = f.metadata["check"]
        bad = [raw for raw in OUT_OF_RANGE if not check(float(raw))
               and (type(f.default) is not int or float(raw).is_integer())]
        assert bad, "no candidate lies outside the range"
        with pytest.raises(ConfigError) as err:
            parse_config(f"# line 1\n{self.key(f)} = {bad[0]}\n")
        assert err.value.line == 2
        assert "out of range" in str(err.value) and self.key(f) in str(err.value)

    @_keys(lambda check: isinstance(check, tuple))
    def test_value_outside_choices_rejected(self, f):
        with pytest.raises(ConfigError) as err:
            parse_config(f"# line 1\n{self.key(f)} = none-of-these\n")
        assert err.value.line == 2
        assert "must be one of" in str(err.value) and self.key(f) in str(err.value)


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_rejected_as_unknown(key):
    with pytest.raises(ConfigError) as err:
        parse_config(f"# line 1\n{key} = 1\n")
    assert err.value.line == 2
    assert f"unknown key '{key}'" in str(err.value)


FLOAT_FIELDS = [f for f in FIELDS
                if type(f.default) is float]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("f", FLOAT_FIELDS, ids=lambda f: f.name)
def test_non_finite_rejected_naming_key(f, raw):
    key = f.name.replace("_", ".", 1)
    with pytest.raises(ConfigError) as err:
        parse_config(f"# line 1\n{key} = {raw}\n")
    assert err.value.line == 2
    assert "not a finite number" in str(err.value) and key in str(err.value)
    # a config built in code goes through the same check
    cfg = ExperimentConfig()
    setattr(cfg, f.name, float(raw))
    with pytest.raises(ConfigError, match=key):
        validate(cfg)


# The values each range text admits; unchecked floats take any finite value.
FLOATS = {
    "positive": st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    "nonnegative": st.floats(min_value=0, allow_infinity=False),
    "in [0, 1]": st.floats(0, 1),
    "in (0, 1]": st.floats(0, 1, exclude_min=True),
    "": st.floats(allow_nan=False, allow_infinity=False),
}
INT_MINIMUM = {"positive integer": 1, "nonnegative integer": 0,
               "integer >= 2": 2, "integer >= 4": 4}
WORD = "[A-Za-z0-9_./-]+"


def valid_values(f):
    check, text, kind = f.metadata["check"], f.metadata["text"], type(f.default)
    if isinstance(check, tuple):
        return st.sampled_from(check)
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(INT_MINIMUM[text], 10**9)
    if kind is str:
        return st.from_regex(f"{WORD}( {WORD})*", fullmatch=True)
    return FLOATS[text]


@st.composite
def valid_configs(draw):
    """A config that validate() accepts, including its cross-key checks."""
    values = {f.name: draw(valid_values(f))
              for f in dataclasses.fields(ExperimentConfig)
              if f.name not in ("data_box_lo", "data_box_hi", "eig_k",
                                "eig_oversampling")}
    values["data_box_lo"], values["data_box_hi"] = sorted(draw(st.lists(
        FLOATS["in [0, 1]"], min_size=2, max_size=2, unique=True)))
    dim = (values["mesh_n"] + 1) ** 2
    values["eig_k"] = draw(st.integers(1, dim - 1))
    values["eig_oversampling"] = draw(st.integers(1, dim - values["eig_k"]))
    return ExperimentConfig(**values)


# Fixed examples and no example database: the same cases run every time.
@settings(derandomize=True, deadline=None, database=None)
@given(valid_configs())
def test_serialize_parse_round_trips_any_valid_config(cfg):
    assert parse_config(serialize(cfg)) == cfg
