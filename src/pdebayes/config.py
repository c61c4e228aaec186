"""Line-oriented experiment configuration.

The grammar is one `section.key = value` assignment per line, with `#`
comments and blank lines ignored. Unknown keys and malformed, non-finite or
out-of-range values are rejected with their line number. serialize() emits
every key in field order at full precision, so parse(serialize(c)) == c.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


METHODS = ("rw", "pcn", "mala", "inf-mala", "h-pcn", "h-mala", "h-inf-mala",
           "dr", "dili")
START_MODES = ("laplace_sample", "prior_sample", "map")
DR_STAGE2 = ("h-mala", "h-inf-mala")
MODEL_KINDS = ("poisson", "linearized")


def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


def _unit_interval(v):
    return 0 < v <= 1


def _fraction(v):
    return 0 <= v <= 1


def _key(default, check=None, text: str = ""):
    """A config field: its default, its range check (a predicate, or a tuple
    of the allowed values) and the text of the valid range. The parse type
    is the default's."""
    return field(default=default, metadata={"check": check, "text": text})


def _name(f) -> str:
    """The key of a config field: its first underscore becomes a dot."""
    return f.name.replace("_", ".", 1)


@dataclass
class ExperimentConfig:
    """Every config key, in serialize order."""

    mesh_n: int = _key(32, _positive, "positive integer")
    model_kind: str = _key("poisson", MODEL_KINDS)
    prior_gamma: float = _key(0.1, _positive, "positive")
    prior_delta: float = _key(0.5, _positive, "positive")
    prior_theta1: float = _key(2.0, _positive, "positive")
    prior_theta2: float = _key(0.5, _positive, "positive")
    prior_alpha: float = _key(math.pi / 4)
    prior_mean: float = _key(0.0)
    data_count: int = _key(300, _positive, "positive integer")
    data_sigma: float = _key(0.005, _positive, "positive")
    data_box_lo: float = _key(0.05, _fraction, "in [0, 1]")
    data_box_hi: float = _key(0.95, _fraction, "in [0, 1]")
    data_seed: int = _key(1, _nonnegative, "nonnegative integer")
    # 0 means the inversion mesh
    data_truth_mesh: int = _key(0, _nonnegative, "nonnegative integer")
    data_exact: bool = _key(False)
    newton_grad_rel_tol: float = _key(1e-6, _positive, "positive")
    newton_grad_abs_tol: float = _key(1e-12, _positive, "positive")
    newton_max_iters: int = _key(50, _positive, "positive integer")
    eig_k: int = _key(100, _positive, "positive integer")
    eig_oversampling: int = _key(20, _positive, "positive integer")
    eig_threshold: float = _key(1.0, _nonnegative, "nonnegative")
    eig_seed: int = _key(0, _nonnegative, "nonnegative integer")
    mcmc_method: str = _key("h-pcn", METHODS)
    mcmc_step: float = _key(1.0, _positive, "positive")
    mcmc_beta: float = _key(0.4, _unit_interval, "in (0, 1]")
    mcmc_tau: float = _key(0.06, _positive, "positive")
    mcmc_h: float = _key(0.1, _positive, "positive")
    mcmc_dr_beta: float = _key(1.0, _unit_interval, "in (0, 1]")
    mcmc_dr_stage2: str = _key("h-mala", DR_STAGE2)
    mcmc_dili_beta: float = _key(0.8, _unit_interval, "in (0, 1]")
    mcmc_dili_tau: float = _key(0.1, _unit_interval, "in (0, 1]")
    # The diagnostics need at least 2 chains (between-chain covariance) and
    # 4 samples per chain (effective sample size).
    mcmc_chains: int = _key(4, lambda v: v >= 2, "integer >= 2")
    mcmc_samples: int = _key(5000, lambda v: v >= 4, "integer >= 4")
    mcmc_seed: int = _key(10, _nonnegative, "nonnegative integer")
    mcmc_start: str = _key("laplace_sample", START_MODES)
    mcmc_project_dim: int = _key(25, _positive, "positive integer")
    output_dir: str = _key("out")


# What a key of each parse type (its default's type) holds.
_EXPECTS = {int: "an integer", float: "a number", bool: "true or false",
            str: "text"}


def _convert(f, raw: str, line: int):
    key, kind = _name(f), type(f.default)
    if kind is str:
        return raw
    if kind is bool:
        if raw.lower() not in ("true", "false"):
            raise ConfigError(f"{key} expects {_EXPECTS[bool]}, got '{raw}'", line)
        return raw.lower() == "true"
    try:
        return int(raw) if kind is int else float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects {_EXPECTS[kind]}, got '{raw}'", line) from None


def _has_type(f, value) -> bool:
    """Whether value is of f's parse type; a bool is not a number."""
    kind = type(f.default)
    if kind in (bool, str):
        return isinstance(value, kind)
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral if kind is int else numbers.Real)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key-value grammar into a validated configuration."""
    cfg = ExperimentConfig()
    by_key = {_name(f): f for f in fields(cfg)}
    seen = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got '{line}'", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in by_key:
            raise ConfigError(f"unknown key '{key}'", lineno)
        if key in seen:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        seen[key] = lineno
        if not raw:
            raise ConfigError(f"missing value for '{key}'", lineno)
        setattr(cfg, by_key[key].name, _convert(by_key[key], raw, lineno))
    validate(cfg, seen)
    return cfg


def validate(cfg: ExperimentConfig, lines: dict | None = None) -> None:
    """Reject a configuration that no run could complete, before any work.

    Applies the type, finite-number, range and cross-key checks. lines maps
    keys to the line they were read from, for the error message.
    """
    lines = lines or {}
    for f in fields(cfg):
        key, value, check = _name(f), getattr(cfg, f.name), f.metadata["check"]
        if not _has_type(f, value):
            raise ConfigError(f"{key} expects {_EXPECTS[type(f.default)]}, got {value!r}",
                              lines.get(key))
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} = {value} is not a finite number", lines.get(key))
        if isinstance(check, tuple):
            if value not in check:
                raise ConfigError(
                    f"{key} must be one of {', '.join(check)}; got '{value}'",
                    lines.get(key))
        elif check is not None and not check(value):
            raise ConfigError(f"{key} = {value} out of range ({f.metadata['text']})",
                              lines.get(key))
    if cfg.data_box_lo >= cfg.data_box_hi:
        raise ConfigError("data.box_lo must be below data.box_hi")
    dim = (cfg.mesh_n + 1) ** 2
    if cfg.eig_k + cfg.eig_oversampling > dim:
        raise ConfigError(
            f"eig.k + eig.oversampling = {cfg.eig_k + cfg.eig_oversampling} "
            f"exceeds the parameter dimension {dim}")


def serialize(cfg: ExperimentConfig) -> str:
    """Emit every key at full precision; parse(serialize(cfg)) == cfg."""
    lines = []
    for f in fields(cfg):
        value, kind = getattr(cfg, f.name), type(f.default)
        if kind is bool:
            text = "true" if value else "false"
        elif kind is float:
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{_name(f)} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
