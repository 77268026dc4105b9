"""Ground-truth engines: a link-level Monte Carlo simulator and adaptive
quadrature of the defining integrals. Both are independent of the closed
forms and are used to certify every analytic output.

Monte Carlo determinism: trials are split into fixed 65536-trial chunks and
each chunk gets its own counter-based (Philox) stream keyed by (seed, chunk
index). Per-chunk reductions happen inside the chunk and the cross-chunk
reduction runs in chunk order, so the estimate is bit-identical for any
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .channel import (
    SystemConfig,
    cdf_snr_dest,
    cdf_snr_dest_mixture_ka,
    pdf_snr_eve_max,
    sf_snr_dest,
)

_CHUNK = 65536
_MIN_TRIALS = 10_000
_LN2 = math.log(2.0)
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")


class QuadratureError(RuntimeError):
    """Tolerance failure carrying the achieved estimate and error bound."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def _tail_integral(fn, scale: float, settings: QuadratureSettings) -> float:
    # integral_0^inf fn(y) dy via y = -scale*log(1-u), u in [0, 1); the map
    # turns exponential decay into an O(1) integrand and keeps adaptivity
    # concentrated near y = 0 where the densities peak.
    def mapped(u: float) -> float:
        if u >= 1.0:
            return 0.0
        y = -scale * math.log1p(-u)
        return fn(y) * scale / (1.0 - u)

    value, err = quad(mapped, 0.0, 1.0,
                      epsabs=settings.abs_tol, epsrel=settings.rel_tol,
                      limit=settings.max_subdivisions)
    if err > max(settings.abs_tol, settings.rel_tol * abs(value)) * 1.01:
        raise QuadratureError("tail quadrature failed to reach tolerance", value, err)
    return value


def _eve_scale(cfg: SystemConfig) -> float:
    # roughly the mean of the strongest eavesdropper SNR
    return cfg.lambda_E * (cfg.M_E + math.log(cfg.N + 1.0))


def quad_cdf_ratio(x: float, cfg: SystemConfig,
                   settings: QuadratureSettings | None = None) -> float:
    """CDF of the secrecy ratio at x >= 1 by direct adaptive quadrature.

    Conditioning on the strongest eavesdropper SNR y, the selected link's
    gated CDF enters at argument x(1+y)-1; selection over K links raises the
    per-link CDF to the K-th power (max of i.i.d.), and the gate-after-
    selection variant wraps the ungated result in 1-zeta+zeta*(.).
    """
    if x < 1.0:
        raise ValueError("x must be at least 1: the ratio never falls below 1")
    settings = settings or QuadratureSettings()
    if cfg.zeta == 0.0:
        return 1.0
    scale = _eve_scale(cfg)

    def eve_pdf(y: float) -> float:
        return pdf_snr_eve_max(y, cfg.N, cfg.M_E, cfg.lambda_E)

    if cfg.scheme == "SS":
        if cfg.knowledge == "KA":
            def integrand(y: float) -> float:
                return (cdf_snr_dest_mixture_ka(x * (1.0 + y) - 1.0, cfg) ** cfg.K
                        * eve_pdf(y))
            value = _tail_integral(integrand, scale, settings)
        else:
            def integrand(y: float) -> float:
                return (cdf_snr_dest(x * (1.0 + y) - 1.0, cfg.M_D, cfg.lambda_D) ** cfg.K
                        * eve_pdf(y))
            value = (1.0 - cfg.zeta) + cfg.zeta * _tail_integral(integrand, scale, settings)
    else:
        def integrand(y: float) -> float:
            return (cdf_snr_dest(x * (1.0 + y) - 1.0, cfg.M_D, cfg.lambda_D)
                    * eve_pdf(y))
        single = _tail_integral(integrand, scale, settings)
        if cfg.knowledge == "KA":
            value = ((1.0 - cfg.zeta) + cfg.zeta * single) ** cfg.K
        else:
            value = (1.0 - cfg.zeta) + cfg.zeta * single ** cfg.K
    return min(1.0, max(0.0, value))


def _quad_survival_ratio(x: float, cfg: SystemConfig,
                         settings: QuadratureSettings) -> float:
    # 1 - F(x) computed as its own integral (no 1 - (1 - eps) loss), needed
    # by the ESR integrand which weights the far tail logarithmically.
    scale = _eve_scale(cfg)

    def eve_pdf(y: float) -> float:
        return pdf_snr_eve_max(y, cfg.N, cfg.M_E, cfg.lambda_E)

    if cfg.scheme == "SS":
        gate = cfg.zeta if cfg.knowledge == "KA" else 1.0

        def integrand(y: float) -> float:
            sf = sf_snr_dest(x * (1.0 + y) - 1.0, cfg.M_D, cfg.lambda_D)
            gated = gate * sf
            survived = 1.0 if gated >= 1.0 else -math.expm1(cfg.K * math.log1p(-gated))
            return survived * eve_pdf(y)

        value = _tail_integral(integrand, scale, settings)
    else:
        def integrand(y: float) -> float:
            return (sf_snr_dest(x * (1.0 + y) - 1.0, cfg.M_D, cfg.lambda_D)
                    * eve_pdf(y))
        single = min(1.0, max(0.0, _tail_integral(integrand, scale, settings)))
        gate = cfg.zeta if cfg.knowledge == "KA" else 1.0
        gated = gate * single
        value = 1.0 if gated >= 1.0 else -math.expm1(cfg.K * math.log1p(-gated))
    if cfg.knowledge == "KU":
        value *= cfg.zeta
    return min(1.0, max(0.0, value))


def quad_esr(cfg: SystemConfig, settings: QuadratureSettings | None = None) -> float:
    """Ergodic secrecy rate by nested adaptive quadrature.

    (1/ln 2) * integral_1^inf (1 - F(x))/x dx with the outer tail exp-mapped;
    the inner survival probability is itself an adaptive quadrature.
    """
    settings = settings or QuadratureSettings()
    if cfg.zeta == 0.0:
        return 0.0
    outer_scale = cfg.lambda_D * (cfg.M_D + math.log(cfg.K + 1.0)) + cfg.lambda_E

    def integrand(t: float) -> float:
        x = 1.0 + t
        return _quad_survival_ratio(x, cfg, settings) / x

    return _tail_integral(integrand, outer_scale, settings) / _LN2


def _rates_with_rng(cfg: SystemConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    # Draw order is part of the reproducibility contract: destination SNRs,
    # then eavesdropper SNRs, then backhaul gates.
    dest = rng.standard_exponential((count, cfg.K, cfg.M_D)).sum(axis=2) * cfg.lambda_D
    eve = (rng.standard_exponential((count, cfg.K, cfg.N, cfg.M_E)).sum(axis=3)
           * cfg.lambda_E).max(axis=2)
    active = rng.random((count, cfg.K)) < cfg.zeta

    ratio = (1.0 + dest) / (1.0 + eve)
    if cfg.scheme == "SS":
        score = dest
    else:
        score = ratio
    if cfg.knowledge == "KA":
        masked = np.where(active, score, -np.inf)
        chosen = np.argmax(masked, axis=1)
        transmitting = active.any(axis=1)
    else:
        chosen = np.argmax(score, axis=1)
        transmitting = np.take_along_axis(active, chosen[:, None], axis=1)[:, 0]
    chosen_ratio = np.take_along_axis(ratio, chosen[:, None], axis=1)[:, 0]
    rates = np.where(transmitting, np.maximum(np.log2(chosen_ratio), 0.0), 0.0)
    return rates


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mc_moments(cfg: SystemConfig, trials: int, seed: int,
                threads: int = 1) -> tuple[MonteCarloEstimate, MonteCarloEstimate]:
    if trials < _MIN_TRIALS:
        raise ValueError(f"trials must be at least {_MIN_TRIALS} (got {trials})")
    sizes = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        sizes.append(trials % _CHUNK)

    def chunk_stats(index_size: tuple[int, int]) -> tuple[float, float, float]:
        index, size = index_size
        rates = _rates_with_rng(cfg, _chunk_rng(seed, index), size)
        outage = rates <= cfg.R_th
        return (float(outage.sum()), float(rates.sum()), float((rates * rates).sum()))

    jobs = list(enumerate(sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(chunk_stats, jobs))
    else:
        rows = [chunk_stats(j) for j in jobs]

    outage_count = math.fsum(r[0] for r in rows)
    rate_sum = math.fsum(r[1] for r in rows)
    rate_sq_sum = math.fsum(r[2] for r in rows)
    n = float(trials)

    p = outage_count / n
    var_p = max(0.0, (outage_count - outage_count * outage_count / n) / (n - 1.0))
    sop = MonteCarloEstimate(p, math.sqrt(var_p / n), trials, seed)

    mean = rate_sum / n
    var_r = max(0.0, (rate_sq_sum - rate_sum * rate_sum / n) / (n - 1.0))
    esr = MonteCarloEstimate(mean, math.sqrt(var_r / n), trials, seed)
    return sop, esr


def mc_sop(cfg: SystemConfig, trials: int, seed: int, threads: int = 1) -> MonteCarloEstimate:
    """Simulated outage probability: fraction of trials with rate <= R_th."""
    return _mc_moments(cfg, trials, seed, threads)[0]


def mc_esr(cfg: SystemConfig, trials: int, seed: int, threads: int = 1) -> MonteCarloEstimate:
    """Simulated ergodic secrecy rate: sample mean of the per-trial rate."""
    return _mc_moments(cfg, trials, seed, threads)[1]
