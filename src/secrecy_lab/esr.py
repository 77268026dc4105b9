"""Ergodic secrecy rate from the ratio-CDF complement.

The rate is (1/ln 2) * integral_1^inf (1 - F(x))/x dx. SS selection, and
either scheme at K = 1, integrate it term by term on the TermSum produced by
the sop module. Each term c * x^p * e^(-a x) / (x+b)^m has one pole;
integrate_term splits x^(p-1)/(x+b)^m over it (algebra.single_pole_split),
and each piece integrates to an upper-incomplete-gamma kernel (a > 0) or a
logarithm/finite-power piece (a = 0). The high-SNR variant integrates the
unity-dropped TermSum (a = 0); the asymptotic variant collapses every 1 + b
to b, the leading behavior as the poles grow, affine in ln(lambda_D/lambda_E).

OS selection over K >= 2 links reads the paper's one-link closed form: the
links are i.i.d., so each rate is the certified 1-D integral
(1/ln 2) * integral_0^inf [1 - (1 - zeta S_1(e^s))^K] ds of the exact or
the unity-dropped one-link survival S_1 (sop.one_link_base), and the
asymptote its affine limit. Its exp-sinh levels and the rounding that the
node sums carry must meet _TARGET, or the rate raises ArithmeticError
naming the row. Every rate shares zeta = 0, the gate-after-selection
rescaling (sop.gated_base) and the backstops.

A term's integral depends on its shape (a, p, poles) alone: the exact SS
rate at K=N=M_D=M_E=3, 20 dB, has 1,161 terms over 237 shapes, which call
_kernel 831 times over 96 distinct (a, b, theta). Each shape is integrated
once per rate, each term applies its coefficient in log space, and
math.fsum rounds the sum whatever its order. The kernel is memoized in a
bounded LRU cache, whose values are the floats a fresh call returns.

A rate below the 1e-300 support floor takes the rational branch with a
warning through the standard logging module, which loads on that warning
only. An exact or high-SNR term integral of 0.0, or one that overflows,
raises ArithmeticError naming the term's shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .algebra import RationalExpTerm, TermSum, single_pole_split
from .channel import SystemConfig
from .sop import build_cdf_term_sum, build_high_snr_term_sum, gated_base, one_link_base
from .specialfn import log_upper_incomplete_gamma_int

_LN2 = math.log(2.0)
_RATE_FLOOR = 1e-300
_EPS = 2.0 ** -52
_HALF_PI = math.pi / 2.0
_TARGET = 1e-9  # relative target of every one-link OS rate integral
_FINEST_STEP = 2.0 ** -9

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
    produces net positive powers of x+b). Memoized on (a, b, theta).
    """
    log_gamma = log_upper_incomplete_gamma_int(-theta, a * (1.0 + b))
    return math.exp(theta * math.log(a) + a * b + log_gamma)


def integrate_term(term: RationalExpTerm) -> float:
    """integral_1^inf x^(p-1) e^(-a x) / (x+b)^m dx, unit coefficient.

    p, a and the one pole (b, m), if any, come from the term; more poles
    raise ValueError. The coefficient is NOT applied (callers fold it in
    log space).
    """
    a = term.exp_rate
    p = term.poly_power
    poles = tuple(term.poles)
    if len(poles) > 1:
        raise ValueError(f"integrate_term takes at most one pole (got {poles!r})")
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
    if not poles:
        return _kernel(a, 0.0, -p)
    (b, theta), = poles
    if p == 0:
        # x^-1 is a simple pole at zero
        zero, row = single_pole_split(b, theta, -1)
        pieces = [zero * _kernel(a, 0.0, 0)] if zero != 0.0 else []
        pieces += [c * _kernel(a, b, t - 1) for t, c in enumerate(row, start=1) if c != 0.0]
    else:
        # x^(p-1) = sum_jj C(p-1,jj) (x+b)^jj (-b)^(p-1-jj)
        pieces = [math.comb(p - 1, jj) * (-b) ** (p - 1 - jj) * _kernel(a, b, theta - jj - 1)
                  for jj in range(p)]
    return math.fsum(pieces)


def _integrate_rational(p: int, poles: tuple, asymptotic: bool) -> float:
    """integral_1^inf x^(p-1)/(x+b)^m dx via the split over its one pole.

    The simple-pole logarithms diverge piecewise but their coefficients sum
    to zero, leaving -c_(b,1) ln(1+b) (at p = 0 the zero pole's is ln 1 = 0);
    higher orders integrate to finite powers. With asymptotic=True, 1+b
    collapses to b, the leading behavior as the pole grows.
    """
    (b, theta), = poles
    _zero, row = single_pole_split(b, theta, p - 1)
    base = b if asymptotic else 1.0 + b
    pieces = []
    for t, c in enumerate(row, start=1):
        if c == 0.0:
            continue
        if t == 1:
            pieces.append(-c * math.log(base))
        else:
            pieces.append(c / ((t - 1) * base ** (t - 1)))
    return math.fsum(pieces)


def _sum_integrated(term_sum: TermSum, integrator, form: str) -> float:
    # each distinct shape is integrated once, its ln|integral| and sign taken
    # once. Coefficients can be astronomically large while their integrals
    # are tiny; combine per term in log space, then sum with exact rounding,
    # so the rate depends on the contributions alone, not on their order.
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
    The asymptotic one is affine in ln b and truly 0.0 at a pole b = 1.
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
    if cfg.scheme == "OS" and cfg.K > 1:
        value, count = _one_link_rate(cfg, form, build_term_sum)
    else:
        term_sum = build_term_sum(cfg)
        value = _sum_integrated(term_sum, integrator, form)
        count = len(term_sum.terms)
    if value < 0.0 and form != _FORM_ASYMPTOTIC:
        # a rate is never negative, so the alternating terms cancelled past
        # double precision; the asymptote is affine in ln(lambda_D) and
        # legitimately negative at low lambda_D, so only it is clamped
        raise ArithmeticError(
            f"{form} rate term sum is negative ({value!r}) over "
            f"{count} terms: cancellation exceeded double precision")
    # no secrecy rate exceeds E[log2(1 + gamma_D,sel)], at most log2(1 + K M_D
    # lambda_D) since gamma_D,sel <= sum_k gamma_D,k and by Jensen; the
    # high-SNR rate is that of gamma_D/gamma_E, which this does not bound
    bound = math.log2(1.0 + cfg.K * cfg.M_D * cfg.lambda_D)
    if form == _FORM_EXACT and value > bound:
        raise ArithmeticError(
            f"exact rate term sum {value!r} exceeds the bound log2(1 + K*M_D*lambda_D)"
            f" = {bound!r} over {count} terms: cancellation exceeded"
            " double precision")
    return EsrResult(value=max(0.0, value), form=form, term_count=count)


def _one_link_rate(cfg: SystemConfig, form: str, build_term_sum) -> tuple[float, int]:
    """(rate, one-link term count) of OS/KA over K >= 2 links. The asymptote,
    the high-SNR rate's affine limit, is (S ln(lambda_D/lambda_E) + C)/ln 2:
    S = 1 - (1-zeta)^K, C = integral_0^inf [H(w) - S 1{w<1}]/w dw with H read
    at lambda_D = lambda_E = 1, as it depends on w = x lambda_E/lambda_D only.
    """
    base = one_link_base(cfg)
    if form == _FORM_ASYMPTOTIC:
        base = replace(base, lambda_D=1.0, lambda_E=1.0)
    terms = build_term_sum(base).terms
    if not terms:
        return 0.0, 0  # zeta = 0: no link ever transmits
    what = (f"{form} rate of OS/KA K={cfg.K} N={cfg.N} M_D={cfg.M_D} M_E={cfg.M_E} "
            f"zeta={cfg.zeta:g} lambda_D={cfg.lambda_D:g} lambda_E={cfg.lambda_E:g}")
    integrand = _os_integrand(terms, cfg.K, cfg.zeta)
    value = _exp_sinh(integrand, what)
    if form == _FORM_ASYMPTOTIC:
        slope = 1.0 - (1.0 - cfg.zeta) ** cfg.K

        def below_one(u: float) -> tuple[float, float]:  # S - H(e^-u)
            above, bound = integrand(-u)
            return slope - above, bound + _EPS * slope
        value = (slope * (math.log(cfg.lambda_D) - math.log(cfg.lambda_E))
                 + (value - _exp_sinh(below_one, what)))
    return value / _LN2, len(terms)


def _os_integrand(terms, K: int, zeta: float):
    """s -> (H(e^s), a bound on its rounding error), H = 1 - (1 - zeta S_1)^K.

    S_1 is the math.fsum of the one-link term values at x = e^s (1 -
    TermSum.eval would lose it where it is small), taking log x = s and each
    pole's log(x+b) once. Each value exp(L) is off by a few ulps of each part
    of L, relative; S_1's bound adds those and its clamp to [0, 1], and H
    moves by at most K zeta times that.
    """
    locations = sorted({term.poles[0][0] for term in terms})
    rows = [(t.log_coeff, t.sign, t.poly_power, t.exp_rate, locations.index(t.poles[0][0]),
             t.poles[0][1]) for t in terms]

    def integrand(s: float) -> tuple[float, float]:
        x = math.exp(s)
        logs = [math.log(x + b) for b in locations]
        values, weight = [], 0.0
        for log_coeff, sign, p, a, j, m in rows:
            value = math.exp(log_coeff - a * x + p * s - m * logs[j])
            values.append(sign * value)
            weight += value * (2.0 + abs(log_coeff) + a * x + p * abs(s) + m * (1.0 + abs(logs[j])))
        link = math.fsum(values)
        clamped = min(1.0, max(0.0, link))
        bound = 4.0 * _EPS * weight + abs(link - clamped)
        active = zeta * clamped
        value = 1.0 if active >= 1.0 else -math.expm1(K * math.log1p(-active))
        return value, K * zeta * bound + 4.0 * _EPS * value

    return integrand


def _exp_sinh(f, what: str) -> float:
    """integral_0^inf f(u) du to _TARGET, or ArithmeticError naming `what`.

    f(u) returns (value, rounding bound). The trapezoid rule in t on u =
    exp(pi/2 sinh t) halves its step h, each level adding odd nodes, until
    two levels agree. Each side of t = 0 stops at a weighted value below
    1e-6 _TARGET of the sum, or, towards u = inf where f decays like e^-u
    or faster, at a value below its bound; the rounding, h * sum of w *
    bound plus that tail, must meet _TARGET too.
    """
    weighted, bounds, total, tail = [], [], 0.0, 0.0
    h, first, step, estimate = 0.5, 0, 1, None
    try:
        while True:
            for side in (1, -1):
                k = first if side > 0 or first else step  # t = 0 once
                while True:
                    t = side * k * h
                    u = math.exp(_HALF_PI * math.sinh(t))
                    w = _HALF_PI * math.cosh(t) * u
                    value, bound = f(u)
                    weighted.append(w * value)
                    bounds.append(w * bound)
                    total += w * value
                    if side > 0 and abs(value) <= bound:
                        tail = max(tail, abs(value) + bound)
                        break
                    if abs(w * value) <= 1e-6 * _TARGET * abs(total):
                        break
                    k += step
            previous, estimate = estimate, h * math.fsum(weighted)
            if previous is not None and abs(estimate - previous) <= _TARGET * abs(estimate):
                break
            if h <= _FINEST_STEP:
                raise ArithmeticError(f"{what}: the exp-sinh levels still differ by "
                                      f"{abs(estimate - previous):.3e} at step {h:g}")
            h, first, step = h / 2.0, 1, 2
    except OverflowError as exc:
        raise ArithmeticError(f"{what}: the integrand leaves the double range") from exc
    rounding = h * math.fsum(bounds) + tail
    if rounding > _TARGET * abs(estimate):
        raise ArithmeticError(f"{what}: the node sums carry a rounding error of up to "
                              f"{rounding:.3e} into the integral {estimate!r}")
    return estimate


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

