"""Multi-chain convergence and efficiency diagnostics.

Implements the within/between chain covariance split, the pooled posterior
covariance estimate, the multivariate potential scale reduction factor, the
multi-chain variogram autocorrelation estimate with the paired truncation
rule for the effective sample size, and per-chain moment estimates of the
quantity of interest. All functions are pure in their inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

logger = logging.getLogger(__name__)


def within_between_cov(coords: np.ndarray):
    """Within-chain covariance W and between-chain covariance B.

    W averages the per-chain sample covariances (denominator N-1); B scales
    the covariance of the chain means by N. Raises on degenerate input and
    flags constant chains, which make W singular.
    """
    coords = np.asarray(coords, dtype=float)
    m_chains, n, k = coords.shape
    if n < 2 or m_chains < 2:
        raise ValueError("need at least 2 chains of at least 2 samples")
    chain_means = coords.mean(axis=1)                      # (M, k)
    dev = coords - chain_means[:, None, :]
    w = np.einsum("mni,mnj->ij", dev, dev) / (m_chains * (n - 1))
    grand = chain_means.mean(axis=0)
    dmean = chain_means - grand
    b = n * (dmean.T @ dmean) / (m_chains - 1)
    if np.any(np.diag(w) == 0.0):
        logger.warning("constant chain coordinate detected; W is singular")
    return w, b


def vhat(w: np.ndarray, b: np.ndarray, n: int, m: int) -> np.ndarray:
    """Pooled posterior covariance estimate ((N-1)/N) W + ((M+1)/(MN)) B."""
    return ((n - 1) / n) * w + ((m + 1) / (m * n)) * b


def mpsrf(w: np.ndarray, b: np.ndarray, n: int, m: int) -> float:
    """Multivariate potential scale reduction factor.

    sqrt((N-1)/N + ((M+1)/(MN)) lam_max) with lam_max the largest generalized
    eigenvalue of B v = lam W v. A singular W receives one shot of logged
    jitter (1e-12 tr(W)/k) before failing.
    """
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    k = w.shape[0]
    try:
        lam = scipy.linalg.eigh(b, w, eigvals_only=True)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        jitter = 1e-12 * np.trace(w) / k
        logger.warning("W singular in MPSRF; adding jitter %.3e", jitter)
        try:
            lam = scipy.linalg.eigh(b, w + jitter * np.eye(k), eigvals_only=True)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise np.linalg.LinAlgError(
                "within-chain covariance is singular even after jitter") from exc
    lam_max = float(lam[-1])
    return float(np.sqrt((n - 1) / n + (m + 1) / (m * n) * lam_max))


def autocorrelation(series: np.ndarray, lag: int, vhat_ii: float) -> float:
    """Variogram autocorrelation 1 - v_t / (2 Vhat_ii) of (M, N) chains.

    v_t is the multi-chain lag-t squared-increment average.
    """
    m_chains, n = series.shape
    if vhat_ii == 0.0:
        raise ZeroDivisionError(
            "pooled variance is zero (constant chains); autocorrelation undefined")
    if not 0 <= lag < n:
        raise ValueError("lag must satisfy 0 <= t < N")
    if lag == 0:
        return 1.0
    d = series[:, lag:] - series[:, :-lag]
    return 1.0 - float(np.sum(d * d) / (m_chains * (n - lag))) / (2.0 * vhat_ii)


def ess(coords: np.ndarray, coordinate: int,
        vhat_ii: float | None = None) -> float:
    """Effective sample size MN / (1 + 2 sum_{t=1}^{t'} rho_t).

    The truncation lag t' is the first index T at which the successive pair
    rho_{2T} + rho_{2T+1} turns negative; the result is clamped to (0, MN].
    """
    coords = np.asarray(coords, dtype=float)
    m_chains, n = coords.shape[0], coords.shape[1]
    if n < 4:
        raise ValueError("effective sample size needs at least 4 samples")
    total = m_chains * n
    if vhat_ii is None:
        w, b = within_between_cov(coords)
        vh = vhat(w, b, n, m_chains)
        vhat_ii = float(vh[coordinate, coordinate])
    # One copy, so that no lag reads the coordinate through the K stride.
    series = np.ascontiguousarray(coords[:, :, coordinate])

    rho = []    # rho[t] at lag t, filled pair by pair
    for t_trunc in range((n - 1) // 2):
        rho += [autocorrelation(series, t, vhat_ii)
                for t in (2 * t_trunc, 2 * t_trunc + 1)]
        if rho[-2] + rho[-1] < 0.0:
            break
    acf_sum = sum(rho[1:t_trunc + 1])

    denom = 1.0 + 2.0 * acf_sum
    if denom <= 0.0:
        return float(total)
    return float(min(total / denom, total))


@dataclass
class DiagnosticsReport:
    """Summary of a multi-chain run: convergence, efficiency, QoI moments."""

    mpsrf: float
    ess_values: np.ndarray
    ess_min: float
    ess_min_index: int
    ess_max: float
    ess_max_index: int
    ess_avg: float
    acceptance_rates: np.ndarray
    total_solves: int
    nps_per_es: float
    qoi_moments: np.ndarray       # (M, 3)
    qoi_missing: np.ndarray       # per-chain missing counts


def qoi_moments(qoi: np.ndarray):
    """Per-chain first three raw moments of the QoI, skipping NaN entries.

    Returns (moments (M, 3), missing counts (M,)). A chain with no
    valid entries is flagged with NaN moments and a warning.
    """
    qoi = np.atleast_2d(np.asarray(qoi, dtype=float))
    m_chains = qoi.shape[0]
    missing = np.sum(np.isnan(qoi), axis=1)
    out = np.full((m_chains, 3), np.nan)
    for j in range(m_chains):
        valid = qoi[j][~np.isnan(qoi[j])]
        if valid.size == 0:
            logger.warning("chain %d has no valid QoI samples", j)
            continue
        out[j] = [np.mean(valid**k) for k in (1, 2, 3)]
    return out, missing


def summarize(records) -> DiagnosticsReport:
    """Full diagnostics over recorded chains (`mcmc.ChainRecord`s).

    Raises ValueError if the chains differ in length or a projected
    coordinate is NaN.
    """
    if len({r.n_steps for r in records}) != 1:
        raise ValueError("all chains must have equal length")
    coords = np.stack([r.coords for r in records])
    if np.isnan(coords).any():
        raise ValueError("projected coordinates must not contain NaN")
    m_chains, n, k = coords.shape
    w, b = within_between_cov(coords)
    vh = vhat(w, b, n, m_chains)
    scale = mpsrf(w, b, n, m_chains)
    ess_vals = np.array([ess(coords, i, vhat_ii=float(vh[i, i]))
                         for i in range(k)])
    imin = int(np.argmin(ess_vals))
    imax = int(np.argmax(ess_vals))

    att = np.maximum(np.stack([r.stage_attempts for r in records]).sum(axis=0), 1)
    rates = np.stack([r.stage_accepts for r in records]).sum(axis=0) / att
    total_solves = int(sum(r.solves for r in records))
    avg = float(ess_vals.mean())
    nps = total_solves / avg if avg > 0 else float("inf")
    moments, missing = qoi_moments(np.stack([r.qoi for r in records]))

    return DiagnosticsReport(
        mpsrf=scale, ess_values=ess_vals,
        ess_min=float(ess_vals[imin]), ess_min_index=imin,
        ess_max=float(ess_vals[imax]), ess_max_index=imax,
        ess_avg=avg, acceptance_rates=rates,
        total_solves=total_solves, nps_per_es=nps,
        qoi_moments=moments, qoi_missing=missing)
