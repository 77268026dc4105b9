"""Secrecy outage and ergodic secrecy rate analysis for transmitter
selection over frequency-selective fading with unreliable backhaul.

Closed-form results (exact, high-SNR, asymptotic) are cross-checked in
tests and in the CLI selftest against an adaptive-quadrature oracle and a
deterministic Monte Carlo simulator.
"""

from .channel import (
    SystemConfig,
    cdf_snr_dest,
    cdf_snr_dest_mixture_ka,
    cdf_snr_eve_max,
    pdf_snr_dest,
    pdf_snr_eve_max,
    sf_snr_dest,
)
from .esr import (
    EsrResult,
    esr_asymptotic,
    esr_exact,
    esr_high_snr,
)
from .oracles import (
    MonteCarloEstimate,
    QuadratureError,
    mc_moments,
    quad_cdf_ratio,
    quad_esr,
)
from .sop import (
    SopResult,
    build_cdf_term_sum,
    cdf_ratio,
    diversity_order,
    sop,
    sop_asymptotic,
)

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "sf_snr_dest",
    "cdf_snr_dest",
    "pdf_snr_dest",
    "cdf_snr_eve_max",
    "pdf_snr_eve_max",
    "cdf_snr_dest_mixture_ka",
    "SopResult",
    "sop",
    "sop_asymptotic",
    "cdf_ratio",
    "diversity_order",
    "build_cdf_term_sum",
    "EsrResult",
    "esr_exact",
    "esr_high_snr",
    "esr_asymptotic",
    "MonteCarloEstimate",
    "QuadratureError",
    "mc_moments",
    "quad_cdf_ratio",
    "quad_esr",
    "__version__",
]
