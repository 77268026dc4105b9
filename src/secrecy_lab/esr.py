"""Ergodic secrecy rate by term-wise integration of the ratio-CDF complement.

The rate integral (1/ln 2) * integral_1^inf (1 - F(x))/x dx is evaluated
term by term on the TermSum produced by the sop module. Dividing a term
c * x^p * e^(-a x) / prod(x+b_q)^(m_q) by x lowers the polynomial power by
one; integrate_term handles the resulting shapes:

* p = 0: a simple pole at zero joins the partial-fraction basis, and each
  1/(x+b)^t piece integrates to an upper-incomplete-gamma kernel (a > 0) or
  a logarithm/finite-power piece (a = 0).
* p >= 1: partial fractions of the denominator alone, then the numerator
  x^(p-1) is re-expanded around each pole; every piece is again a kernel.

The high-SNR variant integrates the unity-dropped TermSum (a = 0
throughout); the asymptotic variant integrates the same TermSum with every
1 + b collapsed to its pole b, the leading behavior as the poles grow, which
leaves an expression affine in ln(lambda_D/lambda_E). All three rates share
one path: zeta = 0, the gate-after-selection rescaling (sop.gated_base),
the term sum and the log-space reduction.

A term's integral depends on its shape (a, p, poles) alone, and many terms
share one: the exact OS rate at K=3, N=2, M_D=M_E=3 has 2,462 terms over
459 shapes. Each distinct shape is integrated once per rate, its
ln|integral| and sign are taken once, and every term applies its own
coefficient to them in log space. Within a shape, each pole's binomial
weights for the x^(p-1) re-expansion are computed once, outside the loop
over its partial-fraction orders; every piece is still the product
c * weight * kernel it always was, and math.fsum rounds their sum
correctly whatever their order. Shapes in turn share their
kernels: those 459 integrals call _kernel 14,249 times over 91 distinct
(a, b, theta), because a is k/lam_D, b one of a few pole locations and theta
a small order. With the high-SNR rate (235 shapes) they make 694
partial-fraction decompositions over 290 pole sets. The kernel and the
partial-fraction rows (algebra.partial_fractions) are therefore memoized in
bounded per-process LRU caches. Both are pure functions of floats and ints
that are all in the cache key, so a cached value is the exact float a fresh
call returns, and every rate keeps its bits in any call order.

A rate below the 1e-300 support floor takes the rational branch with a
warning through the standard logging module, which loads on that warning
only. An exact or high-SNR term integral of 0.0, or one that overflows,
raises ArithmeticError naming the term's shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .algebra import RationalExpTerm, TermSum, partial_fractions
from .channel import SystemConfig
from .sop import build_cdf_term_sum, build_high_snr_term_sum, gated_base
from .specialfn import log_upper_incomplete_gamma_int

_LN2 = math.log(2.0)
_RATE_FLOOR = 1e-300

_FORM_EXACT = "exact"
_FORM_HIGH_SNR = "high_snr"
_FORM_ASYMPTOTIC = "asymptotic"


class DivergenceError(ArithmeticError):
    """The requested term integral does not converge."""


@dataclass(frozen=True)
class EsrResult:
    value: float
    form: str
    term_count: int

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("ergodic secrecy rate must be nonnegative")


@lru_cache(maxsize=4096)
def _kernel(a: float, b: float, theta: int) -> float:
    """integral_1^inf e^(-a x) / (x+b)^(theta+1) dx for a > 0, b >= 0.

    Equals a^theta * e^(a b) * Gamma(-theta, a(1+b)); evaluated in the log
    domain so the huge e^(a b) and tiny incomplete-gamma factors cancel
    before exponentiation. theta may be negative (the numerator re-expansion
    produces net positive powers of x+b). Memoized: the value depends only
    on (a, b, theta).
    """
    log_gamma = log_upper_incomplete_gamma_int(-theta, a * (1.0 + b))
    return math.exp(theta * math.log(a) + a * b + log_gamma)


def integrate_term(term: RationalExpTerm) -> float:
    """integral_1^inf x^(p-1) e^(-a x) / prod(x+b_q)^(m_q) dx, unit coefficient.

    p, a and the poles come from the term; its coefficient is NOT applied
    (callers fold it in log space).
    """
    a = term.exp_rate
    p = term.poly_power
    poles = tuple(term.poles)
    if 0.0 < a < _RATE_FLOOR:
        import logging  # loads on this warning only; most processes log nothing
        logging.getLogger(__name__).warning(
            "exponential rate %.3e is below the support floor; "
            "substituting the rational branch", a)
        a = 0.0
    total_degree = sum(m for _, m in poles)
    if a == 0.0 and total_degree <= p:
        raise DivergenceError(
            f"pole degree {total_degree} <= polynomial power {p} with no "
            "exponential decay: the tail integral diverges")
    if a == 0.0:
        return _integrate_rational(p, poles, asymptotic=False)
    if p == 0:
        # x^-1 is a simple pole at zero; its weight below is exactly 1.0
        p, poles = 1, ((0.0, 1),) + poles
    if not poles:
        return _kernel(a, 0.0, -p)
    rows = partial_fractions(poles, 0)
    pieces = []
    for (b, _m), row in zip(poles, rows):
        # x^(p-1) = sum_jj C(p-1,jj) (x+b)^jj (-b)^(p-1-jj)
        weights = [math.comb(p - 1, jj) * (-b) ** (p - 1 - jj) for jj in range(p)]
        for t, c in enumerate(row, start=1):
            if c == 0.0:
                continue
            for jj, weight in enumerate(weights):
                pieces.append(c * weight * _kernel(a, b, t - jj - 1))
    return math.fsum(pieces)


def _integrate_rational(p: int, poles: tuple, asymptotic: bool) -> float:
    """integral_1^inf x^(p-1)/prod(x+b_q)^(m_q) dx via the full proper split.

    Simple-pole logarithms diverge piecewise but their coefficients sum to
    zero, leaving -sum c_(j,1) ln(1+b_j); higher orders integrate to finite
    powers. With asymptotic=True each 1+b_j collapses to b_j (the zero pole
    keeps ln 1 = 0), which is the leading behavior as the poles grow.
    """
    if p == 0:
        p, poles = 1, ((0.0, 1),) + poles  # x^-1 is a simple pole at zero
    rows = partial_fractions(poles, p - 1)
    pieces = []
    for (b, _m), row in zip(poles, rows):
        for t, c in enumerate(row, start=1):
            if c == 0.0:
                continue
            if t == 1:
                if b > 0.0:
                    pieces.append(-c * math.log(b if asymptotic else 1.0 + b))
            else:
                base = b if asymptotic else 1.0 + b
                pieces.append(c / ((t - 1) * base ** (t - 1)))
    return math.fsum(pieces)


def _sum_integrated(term_sum: TermSum, integrator, form: str) -> float:
    # a term's integral depends on its shape alone, not on its coefficient,
    # so each distinct shape is integrated once, and its ln|integral| and
    # sign are taken once. Term coefficients can be astronomically large
    # while their integrals are correspondingly tiny; combine per term in
    # log space, then sum with exact rounding, so the rate depends on the
    # contributions alone, not on the order of the terms.
    integrals: dict[tuple, tuple] = {}  # shape -> (ln|integral|, sign)
    contributions = []
    for term in term_sum.terms:
        shape = (term.exp_rate, term.poly_power, term.poles)
        integral = integrals.get(shape)
        if integral is None:
            integral = integrals[shape] = _log_integral(term, integrator, form)
        log_abs, sign = integral
        contributions.append(term.sign * sign * math.exp(term.log_coeff + log_abs))
    return math.fsum(contributions) / _LN2


def _log_integral(term: RationalExpTerm, integrator, form: str) -> tuple[float, float]:
    """(ln|integral|, sign) of one term's integral, or an error naming its shape.

    The exact and high-SNR integrands are positive, so an integral of 0.0
    has underflowed and would drop a term whose coefficient may be huge.
    The asymptotic one is affine in ln b and is 0.0 at a pole b = 1, a
    true value that contributes nothing.
    """
    try:
        value = integrator(term)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or (value == 0.0 and form != _FORM_ASYMPTOTIC):
        raise ArithmeticError(
            f"{form} rate: the integral of the term shape (exp_rate={term.exp_rate!r}, "
            f"poly_power={term.poly_power}, poles={term.poles!r}) is {value!r}, "
            "outside the double range")
    return (math.log(abs(value)) if value else -math.inf, math.copysign(1.0, value))


def _rate(cfg: SystemConfig, form: str, build_term_sum, integrator) -> EsrResult:
    if cfg.knowledge == "KU":
        # gate after selection scales the rate linearly: zeta times the
        # always-on rate, exactly.
        base = _rate(gated_base(cfg), form, build_term_sum, integrator)
        return EsrResult(value=cfg.zeta * base.value, form=form,
                         term_count=base.term_count)
    term_sum = build_term_sum(cfg)
    value = _sum_integrated(term_sum, integrator, form)
    if value < 0.0 and form != _FORM_ASYMPTOTIC:
        # a rate is never negative, so the alternating terms cancelled past
        # double precision; the asymptote is affine in ln(lambda_D) and
        # legitimately negative at low lambda_D, so only it is clamped
        raise ArithmeticError(
            f"{form} rate term sum is negative ({value!r}) over "
            f"{len(term_sum.terms)} terms: cancellation exceeded double precision")
    # no secrecy rate exceeds E[log2(1 + gamma_D,sel)], at most log2(1 + K M_D
    # lambda_D) since gamma_D,sel <= sum_k gamma_D,k and by Jensen; the
    # high-SNR rate is that of gamma_D/gamma_E, which this does not bound
    bound = math.log2(1.0 + cfg.K * cfg.M_D * cfg.lambda_D)
    if form == _FORM_EXACT and value > bound:
        raise ArithmeticError(
            f"exact rate term sum {value!r} exceeds the bound log2(1 + K*M_D*lambda_D)"
            f" = {bound!r} over {len(term_sum.terms)} terms: cancellation exceeded"
            " double precision")
    return EsrResult(value=max(0.0, value), form=form,
                     term_count=len(term_sum.terms))


def _integrate_asymptotic(term: RationalExpTerm) -> float:
    return _integrate_rational(term.poly_power, tuple(term.poles), asymptotic=True)


def esr_exact(cfg: SystemConfig) -> EsrResult:
    """Exact ergodic secrecy rate in bits per channel use."""
    return _rate(cfg, _FORM_EXACT, build_cdf_term_sum, integrate_term)


def esr_high_snr(cfg: SystemConfig) -> EsrResult:
    """Rate of the unity-dropped CDF: every term integrates without kernels."""
    return _rate(cfg, _FORM_HIGH_SNR, build_high_snr_term_sum, integrate_term)


def esr_asymptotic(cfg: SystemConfig) -> EsrResult:
    """Large lambda_D/lambda_E limit: slope log2(10) per decade at zeta = 1."""
    return _rate(cfg, _FORM_ASYMPTOTIC, build_high_snr_term_sum,
                 _integrate_asymptotic)

