"""Per-link SNR distributions and their backhaul-gated mixtures.

A frequency-selective link with M resolvable paths, each at average SNR
lambda, yields a post-combining SNR that is Gamma(M, lambda) distributed;
the strongest of N i.i.d. eavesdroppers takes the N-th power of the CDF.
An unreliable backhaul multiplies in a Bernoulli(zeta) gate, producing a
mixture with an atom at zero SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SCHEMES = ("SS", "OS")
_KNOWLEDGE = ("KA", "KU")


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario description.

    K transmitters, N non-colluding eavesdroppers, M_D/M_E multipath counts,
    lambda_D/lambda_E per-path average SNRs (linear), zeta backhaul
    reliability, R_th secrecy-rate threshold in bits per channel use,
    scheme SS (max destination SNR) or OS (max secrecy ratio), knowledge
    KA (backhaul states known at selection) or KU (gate applied after
    selection).
    """

    K: int
    N: int
    M_D: int
    M_E: int
    lambda_D: float
    lambda_E: float
    zeta: float = 1.0
    R_th: float = 1.0
    scheme: str = "SS"
    knowledge: str = "KA"

    def __post_init__(self):
        for name in ("K", "N", "M_D", "M_E"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer (got {value!r})")
        # the comparisons also reject NaN; an infinite SNR or threshold has
        # no closed form and would come out as 0, a NaN or a stray error
        if not (0.0 < self.lambda_D < math.inf):
            raise ValueError(f"lambda_D must be positive and finite (got {self.lambda_D!r})")
        if not (0.0 < self.lambda_E < math.inf):
            raise ValueError(f"lambda_E must be positive and finite (got {self.lambda_E!r})")
        if not (0.0 <= self.zeta <= 1.0):
            raise ValueError(f"zeta must lie in [0, 1] (got {self.zeta!r})")
        if not (0.0 <= self.R_th < 1024.0):
            raise ValueError(f"R_th must be nonnegative, finite and below 1024, "
                             f"so that 2^R_th fits a double (got {self.R_th!r})")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES} (got {self.scheme!r})")
        if self.knowledge not in _KNOWLEDGE:
            raise ValueError(f"knowledge must be one of {_KNOWLEDGE} (got {self.knowledge!r})")

    def rho(self) -> float:
        """Threshold on the SNR-ratio scale: 2^R_th (always >= 1)."""
        return 2.0 ** self.R_th


def sf_snr_dest(x: float, M: int, lam: float) -> float:
    """Survival function 1 - cdf_snr_dest, computed without cancellation."""
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0  # the term recursion would make 0 * inf = NaN
    u = x / lam
    term = math.exp(-u)
    total = term
    for m in range(1, M):
        term *= u / m
        total += term
    return min(1.0, total)


def cdf_snr_dest(x: float, M: int, lam: float) -> float:
    """Gamma(M, lam) CDF: 1 - e^(-x/lam) sum_{m<M} (x/lam)^m/m!."""
    if x <= 0.0:
        return 0.0
    return max(0.0, 1.0 - sf_snr_dest(x, M, lam))


def pdf_snr_dest(x: float, M: int, lam: float) -> float:
    """Gamma(M, lam) density x^(M-1) e^(-x/lam) / (lam^M (M-1)!)."""
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x < 0.0 or x == math.inf:
        return 0.0  # the log form would make inf - inf = NaN
    if x == 0.0:
        return 1.0 / lam if M == 1 else 0.0
    log_pdf = (M - 1) * math.log(x) - x / lam - M * math.log(lam) - math.lgamma(M)
    return math.exp(log_pdf)


def cdf_snr_eve_max(x: float, N: int, M_E: int, lambda_E: float) -> float:
    """CDF of the strongest of N i.i.d. eavesdropper SNRs."""
    return cdf_snr_dest(x, M_E, lambda_E) ** N


def pdf_snr_eve_max(x: float, N: int, M_E: int, lambda_E: float) -> float:
    """Density of the strongest of N i.i.d. eavesdropper SNRs."""
    if N == 1:
        return pdf_snr_dest(x, M_E, lambda_E)
    return N * cdf_snr_dest(x, M_E, lambda_E) ** (N - 1) * pdf_snr_dest(x, M_E, lambda_E)


def cdf_snr_dest_mixture_ka(x: float, cfg: SystemConfig) -> float:
    """Selected-link SNR CDF when only active-backhaul links count.

    The Bernoulli gate puts an atom of mass 1-zeta at zero, so for x >= 0
    the CDF is (1-zeta) + zeta * cdf_snr_dest(x, M_D, lambda_D).
    """
    if x < 0.0:
        return 0.0
    return (1.0 - cfg.zeta) + cfg.zeta * cdf_snr_dest(x, cfg.M_D, cfg.lambda_D)
