"""Line-oriented experiment configuration.

The grammar is one `section.key = value` assignment per line, with `#`
comments and blank lines ignored. Unknown keys, malformed values, and
out-of-range values are rejected with their line number. serialize() emits
every key in schema order at full precision, so parse(serialize(c)) == c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


METHODS = ("rw", "pcn", "mala", "inf-mala", "h-pcn", "h-mala", "h-inf-mala",
           "dr", "dili")
START_MODES = ("laplace_sample", "prior_sample", "map")
DR_STAGE2 = ("h-mala", "h-inf-mala")
DILI_CENTERS = ("map", "current", "prior")
MODEL_KINDS = ("poisson", "linearized")


def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


def _unit_interval(v):
    return 0 < v <= 1


def _fraction(v):
    return 0 <= v <= 1


@dataclass
class ExperimentConfig:
    mesh_n: int = 32
    model_kind: str = "poisson"
    prior_gamma: float = 0.1
    prior_delta: float = 0.5
    prior_robin_beta: float | None = None      # None means sqrt(gamma*delta)/1.42
    prior_theta1: float = 2.0
    prior_theta2: float = 0.5
    prior_alpha: float = math.pi / 4
    prior_mean: float = 0.0
    data_count: int = 300
    data_sigma: float = 0.005
    data_box_lo: float = 0.05
    data_box_hi: float = 0.95
    data_seed: int = 1
    data_truth_mesh: int = 0                   # 0 means the inversion mesh
    data_exact: bool = False
    newton_grad_rel_tol: float = 1e-6
    newton_grad_abs_tol: float = 1e-12
    newton_max_iters: int = 50
    newton_max_cg_iters: int = 200
    newton_armijo_c: float = 1e-4
    newton_backtrack: float = 0.5
    newton_gn_iters: int = 5
    eig_k: int = 100
    eig_oversampling: int = 20
    eig_threshold: float = 1.0
    eig_seed: int = 0
    mcmc_method: str = "h-pcn"
    mcmc_step: float = 1.0
    mcmc_beta: float = 0.4
    mcmc_tau: float = 0.06
    mcmc_h: float = 0.1
    mcmc_dr_beta: float = 1.0
    mcmc_dr_stage2: str = "h-mala"
    mcmc_dili_beta: float = 0.8
    mcmc_dili_tau: float = 0.1
    mcmc_dili_center: str = "map"
    mcmc_chains: int = 4
    mcmc_samples: int = 5000
    mcmc_seed: int = 10
    mcmc_start: str = "laplace_sample"
    mcmc_project_dim: int = 25
    output_dir: str = "out"


# key -> (attribute, type tag, range check, description of the valid range)
_SCHEMA = {
    "mesh.n": ("mesh_n", int, _positive, "positive integer"),
    "model.kind": ("model_kind", MODEL_KINDS, None, ""),
    "prior.gamma": ("prior_gamma", float, _positive, "positive"),
    "prior.delta": ("prior_delta", float, _positive, "positive"),
    "prior.robin_beta": ("prior_robin_beta", "float_or_auto", _nonnegative,
                         "nonnegative or 'auto'"),
    "prior.theta1": ("prior_theta1", float, _positive, "positive"),
    "prior.theta2": ("prior_theta2", float, _positive, "positive"),
    "prior.alpha": ("prior_alpha", float, None, ""),
    "prior.mean": ("prior_mean", float, None, ""),
    "data.count": ("data_count", int, _positive, "positive integer"),
    "data.sigma": ("data_sigma", float, _positive, "positive"),
    "data.box_lo": ("data_box_lo", float, _fraction, "in [0, 1]"),
    "data.box_hi": ("data_box_hi", float, _fraction, "in [0, 1]"),
    "data.seed": ("data_seed", int, _nonnegative, "nonnegative integer"),
    "data.truth_mesh": ("data_truth_mesh", int, _nonnegative, "nonnegative integer"),
    "data.exact": ("data_exact", bool, None, ""),
    "newton.grad_rel_tol": ("newton_grad_rel_tol", float, _positive, "positive"),
    "newton.grad_abs_tol": ("newton_grad_abs_tol", float, _positive, "positive"),
    "newton.max_iters": ("newton_max_iters", int, _positive, "positive integer"),
    "newton.max_cg_iters": ("newton_max_cg_iters", int, _positive, "positive integer"),
    "newton.armijo_c": ("newton_armijo_c", float, _positive, "positive"),
    "newton.backtrack": ("newton_backtrack", float,
                         lambda v: 0 < v < 1, "in (0, 1)"),
    "newton.gn_iters": ("newton_gn_iters", int, _nonnegative, "nonnegative integer"),
    "eig.k": ("eig_k", int, _positive, "positive integer"),
    "eig.oversampling": ("eig_oversampling", int, _positive, "positive integer"),
    "eig.threshold": ("eig_threshold", float, _nonnegative, "nonnegative"),
    "eig.seed": ("eig_seed", int, _nonnegative, "nonnegative integer"),
    "mcmc.method": ("mcmc_method", METHODS, None, ""),
    "mcmc.step": ("mcmc_step", float, _positive, "positive"),
    "mcmc.beta": ("mcmc_beta", float, _unit_interval, "in (0, 1]"),
    "mcmc.tau": ("mcmc_tau", float, _positive, "positive"),
    "mcmc.h": ("mcmc_h", float, _positive, "positive"),
    "mcmc.dr_beta": ("mcmc_dr_beta", float, _unit_interval, "in (0, 1]"),
    "mcmc.dr_stage2": ("mcmc_dr_stage2", DR_STAGE2, None, ""),
    "mcmc.dili_beta": ("mcmc_dili_beta", float, _unit_interval, "in (0, 1]"),
    "mcmc.dili_tau": ("mcmc_dili_tau", float, _unit_interval, "in (0, 1]"),
    "mcmc.dili_center": ("mcmc_dili_center", DILI_CENTERS, None, ""),
    # The diagnostics need at least 2 chains (between-chain covariance) and
    # 4 samples per chain (effective sample size).
    "mcmc.chains": ("mcmc_chains", int, lambda v: v >= 2, "integer >= 2"),
    "mcmc.samples": ("mcmc_samples", int, lambda v: v >= 4, "integer >= 4"),
    "mcmc.seed": ("mcmc_seed", int, _nonnegative, "nonnegative integer"),
    "mcmc.start": ("mcmc_start", START_MODES, None, ""),
    "mcmc.project_dim": ("mcmc_project_dim", int, _positive, "positive integer"),
    "output.dir": ("output_dir", str, None, ""),
}


def _convert(key: str, raw: str, line: int):
    attr, kind, _, _ = _SCHEMA[key]
    value: object
    if kind is int:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got '{raw}'", line) from None
    elif kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key} expects a number, got '{raw}'", line) from None
    elif kind is bool:
        lowered = raw.lower()
        if lowered not in ("true", "false"):
            raise ConfigError(f"{key} expects true or false, got '{raw}'", line)
        value = lowered == "true"
    elif kind == "float_or_auto":
        if raw.lower() == "auto":
            value = None
        else:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(
                    f"{key} expects a number or 'auto', got '{raw}'", line) from None
    else:
        value = raw
    return attr, value


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key-value grammar into a validated configuration."""
    cfg = ExperimentConfig()
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
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}'", lineno)
        if key in seen:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        seen[key] = lineno
        if not raw:
            raise ConfigError(f"missing value for '{key}'", lineno)
        attr, value = _convert(key, raw, lineno)
        setattr(cfg, attr, value)
    validate(cfg, seen)
    return cfg


def validate(cfg: ExperimentConfig, lines: dict | None = None) -> None:
    """Reject a configuration that no run could complete, before any work.

    Applies every key's range check and the cross-key checks. lines maps
    keys to the line they were read from, for the error message.
    """
    lines = lines or {}
    for key, (attr, kind, check, range_doc) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(
                f"{key} must be one of {', '.join(kind)}; got '{value}'",
                lines.get(key))
        if check is not None and value is not None and not check(value):
            raise ConfigError(f"{key} = {value} out of range ({range_doc})",
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
    for key, (attr, kind, _, _) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if kind == "float_or_auto" and value is None:
            text = "auto"
        elif kind is bool:
            text = "true" if value else "false"
        elif kind is float:
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
