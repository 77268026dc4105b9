"""Ergodic secrecy rate: exact, high-SNR and asymptotic.

SS selection (any K), and either scheme at K = 1, pick a link whose
destination SNR X is independent of the strongest eavesdropper SNR Y, so
the rate is (1/ln 2) * integral_0^inf F_Y(t) (1 - F_X(t)) / (1+t) dt. With
P_M(u) = sum_{j<M} u^j/j!, 1 - F_X(t) is the sum over k = 1..K of
C(K,k) (-1)^(k+1) zeta^k e^(-kt/lambda_D) P_{M_D}(t/lambda_D)^k, and F_Y(t)
the sum over n = 0..N of C(N,n) (-1)^n e^(-nt/lambda_E) P_{M_E}(t/lambda_E)^n,
so each product term integrates to one positive kernel,
integral_0^inf t^p e^(-at)/(1+t) dt = p! e^a Gamma(-p, a): no poles, no
partial fractions. The terms' exact integer coefficients are built once per
shape from algebra.poisson_powers (_rate_terms), and term_count is their
number. A row's sum goes through algebra.certify with its float rounding
bound, 4 eps times each value's weight: it stands in floats within TARGET,
is re-summed from the same integers in mpmath, or raises ArithmeticError
naming the row.

Every high-SNR rate drops the destination unity only. Here that is
E[(log2 X - log2(1+Y))^+] = (1/ln 2) integral_0^inf F_Y(u) (1 - F_X(1+u)) /
(1+u) du, whose (1+u)^i factors expand binomially into the same kernels.
Its limit as lambda_D grows is the asymptote (S ln lambda_D + E[ln G; G>0]
- S E[ln(1+Y)]) / ln 2, S = 1 - (1-zeta)^K, G = X/lambda_D: its slope reads
K and zeta alone.

OS selection over K >= 2 links reads the paper's one-link closed form: the
links are i.i.d., so each rate is the certified 1-D integral
(1/ln 2) * integral_0^inf [1 - (1 - zeta S_1(e^s))^K] ds of the one-link
survival S_1 that the outage reads (sop.one_link_base), exact or with the
destination unity dropped, and the asymptote the high-SNR rate's affine
limit, (S ln lambda_D + C)/ln 2, where C reads K, zeta and the lambda_D-free
base alone and is integrated once per such key. Its exp-sinh levels and the
rounding that the node sums carry must meet TARGET, or the rate raises
ArithmeticError naming the row. Every KA rate is memoized per config and
form, so a KU row, zeta times the rate of its always-on row
(sop.gated_base), reads it; every rate shares zeta = 0 and the backstops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .algebra import _EPS, TARGET, certify, poisson_powers
from .channel import SystemConfig
from .sop import build_cdf_term_sum, gated_base, one_link_base, row_label
from .specialfn import EULER_GAMMA, log_upper_incomplete_gamma_int

_LN2 = math.log(2.0)
_HALF_PI = math.pi / 2.0
_FINEST_STEP = 2.0 ** -9

_FORM_EXACT = "exact"
_FORM_HIGH_SNR = "high_snr"
_FORM_ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class EsrResult:
    value: float
    form: str
    term_count: int

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("ergodic secrecy rate must be nonnegative")


@lru_cache(maxsize=None)
def _rate_terms(K: int, N: int, M_D: int, M_E: int, form: str) -> tuple:
    """The exact terms of one shape's rate: (ln|c|, sign, c's numerator and
    denominator, k, n, i, j, p), the integers shared with the mpmath pass.

    A term is c zeta^k lambda_D^-i lambda_E^-j times the kernel of t^p at
    a = k/lambda_D + n/lambda_E, and times e^(-k/lambda_D) in the high-SNR
    rate, where the destination factor (1+t)^i is expanded binomially. The
    asymptote's terms are those of E[ln(1+Y)], at k = i = 0.
    """
    dest, eve = poisson_powers(M_D, K), poisson_powers(M_E, N)
    if form == _FORM_ASYMPTOTIC:  # 1 times 1 - F_Y = -sum_{n>=1} ...
        dest, eve = dest[:1], [(n, -pick, *rest) for n, pick, *rest in eve[1:]]
    else:  # 1 - F_X = -sum_{k>=1} ... times F_Y
        dest = [(k, -pick, *rest) for k, pick, *rest in dest[1:]]
    terms = []
    for (k, pick_d, den_d, power_d), (n, pick_e, den_e, power_e) in product(dest, eve):
        den = den_d * den_e
        log_den = math.log(den)
        for (i, c_d), (j, c_e) in product(power_d, power_e):
            for low in (range(i + 1) if form == _FORM_HIGH_SNR else (i,)):
                c = pick_d * pick_e * math.comb(i, low) * c_d * c_e
                terms.append((math.log(abs(c)) - log_den, 1 if c > 0 else -1, c, den,
                              k, n, i, j, low + j))
    return tuple(terms)


@lru_cache(maxsize=4096)
def _log_stieltjes(p: int, a: float) -> tuple[float, float]:
    """(ln of the kernel integral_0^inf t^p e^(-at)/(1+t) dt = p! e^a Gamma(-p, a),
    the Stieltjes transform of t^p e^(-at) at 1, and the sum of its parts'
    magnitudes), a > 0; finite where Gamma underflows."""
    log_gamma = log_upper_incomplete_gamma_int(-p, a)
    log_factorial = math.lgamma(p + 1)
    return log_factorial + a + log_gamma, log_factorial + a + abs(log_gamma)


def _float_sum(terms, cfg: SystemConfig, shift: float) -> tuple[float, float]:
    """(sum of the term values, its rounding bound), shift = 1/lambda_D in the
    high-SNR rate. Each value exp(L) is off by a few ulps of each part of L."""
    log_z, log_d, log_e = (math.log(cfg.zeta), math.log(cfg.lambda_D),
                           math.log(cfg.lambda_E))
    values, weight = [], 0.0
    for log_c, sign, _c, _den, k, n, i, j, p in terms:
        log_q, size = _log_stieltjes(p, k / cfg.lambda_D + n / cfg.lambda_E)
        value = math.exp(log_c + k * log_z - i * log_d - j * log_e - k * shift + log_q)
        values.append(sign * value)
        weight += value * (2.0 + abs(log_c) + k * abs(log_z) + i * abs(log_d)
                           + j * abs(log_e) + k * shift + size)
    return math.fsum(values), 4.0 * _EPS * weight


def _mp_terms(mpmath, terms, cfg: SystemConfig, high_snr: bool) -> list:
    """The term values of _float_sum in mpmath, each kernel, power and
    exponential computed once per call and multiplied in one fixed order."""
    lam_d, lam_e, zeta = map(mpmath.mpf, (cfg.lambda_D, cfg.lambda_E, cfg.zeta))
    kernels = {(k, n, p): math.factorial(p) * mpmath.exp(k / lam_d + n / lam_e)
               * mpmath.gammainc(-p, k / lam_d + n / lam_e)
               for k, n, p in {(k, n, p) for *_head, k, n, _i, _j, p in terms}}
    ks = {row[4] for row in terms}
    zeta_k = {k: zeta ** k for k in ks}
    shift_k = {k: mpmath.exp(-k / lam_d) if high_snr else 1 for k in ks}
    lam_d_i = {i: lam_d ** -i for i in {row[6] for row in terms}}
    lam_e_j = {j: lam_e ** -j for j in {row[7] for row in terms}}
    return [mpmath.mpf(c) / den * zeta_k[k] * lam_d_i[i] * lam_e_j[j] * kernels[k, n, p]
            * shift_k[k]
            for _log_c, _sign, c, den, k, n, i, j, p in terms]


def _mean_log_gain(K: int, M_D: int, zeta: float) -> float:
    """E[ln G; G > 0], G = X/lambda_D. Integrating by parts, each survival
    term c g^i e^(-kg) adds c (-gamma - ln k) at i = 0, c (i-1)!/k^i above."""
    return math.fsum(
        -pick * zeta ** k * (float(sum(Fraction(c * math.factorial(i - 1), den * k ** i)
                                       for i, c in power if i))
                             - EULER_GAMMA - math.log(k))
        for k, pick, den, power in poisson_powers(M_D, K)[1:])


def _closed_rate(cfg: SystemConfig, form: str) -> tuple[float, int]:
    """(rate, term count) of a KA row whose X and Y are independent."""
    terms = _rate_terms(cfg.K, cfg.N, cfg.M_D, cfg.M_E, form)
    high_snr = form == _FORM_HIGH_SNR
    try:
        total, bound = _float_sum(terms, cfg, 1.0 / cfg.lambda_D if high_snr else 0.0)
    except ArithmeticError:  # a kernel or a term value outside the double range
        total, bound = math.nan, math.inf
    value = certify(total, bound, lambda mpmath: _mp_terms(mpmath, terms, cfg, high_snr),
                    row_label(cfg, f"{form} rate"))
    if form != _FORM_ASYMPTOTIC:
        return value / _LN2, len(terms)
    slope = 1.0 - (1.0 - cfg.zeta) ** cfg.K
    value = slope * (math.log(cfg.lambda_D) - value) + _mean_log_gain(cfg.K, cfg.M_D, cfg.zeta)
    return value / _LN2, len(terms) + cfg.K


@lru_cache(maxsize=1024)
def _ka_rate(cfg: SystemConfig, form: str) -> tuple[float, int]:
    if cfg.zeta == 0.0:
        return 0.0, 0  # no link ever transmits
    if cfg.scheme == "OS" and cfg.K > 1:
        return _one_link_rate(cfg, form)
    return _closed_rate(cfg, form)


def _rate(cfg: SystemConfig, form: str) -> EsrResult:
    if cfg.knowledge == "KU":
        # gate after selection scales the rate linearly: zeta times the
        # always-on rate, exactly.
        base = _rate(gated_base(cfg), form)
        return EsrResult(value=cfg.zeta * base.value, form=form,
                         term_count=base.term_count)
    value, count = _ka_rate(cfg, form)
    if value < 0.0 and form != _FORM_ASYMPTOTIC:
        # a rate is never negative; the asymptote is affine in ln(lambda_D)
        # and legitimately negative at low lambda_D, so only it is clamped
        raise ArithmeticError(
            f"{row_label(cfg, f'{form} rate')}: its term sum is negative ({value!r}) over "
            f"{count} terms: cancellation exceeded double precision")
    # no secrecy rate exceeds E[log2(1 + gamma_D,sel)], at most log2(1 + K M_D
    # lambda_D) since gamma_D,sel <= sum_k gamma_D,k and by Jensen; dropping
    # the destination unity only lowers the rate
    bound = math.log2(1.0 + cfg.K * cfg.M_D * cfg.lambda_D)
    if form != _FORM_ASYMPTOTIC and value > bound:
        raise ArithmeticError(
            f"{row_label(cfg, f'{form} rate')}: {value!r} exceeds the bound log2(1 + "
            f"K*M_D*lambda_D) = {bound!r} over {count} terms: cancellation exceeded "
            "double precision")
    return EsrResult(value=max(0.0, value), form=form, term_count=count)


def _one_link_rate(cfg: SystemConfig, form: str) -> tuple[float, int]:
    """(rate, one-link term count) of OS/KA over K >= 2 links. The exact rate
    reads the one-link survival at u = 1, the high-SNR rate at u = 0 (see
    algebra.TermSum). The asymptote, the high-SNR rate's affine limit, is
    (S ln lambda_D + C)/ln 2, S = 1 - (1-zeta)^K, with C read once per
    lambda_D-free base (see _os_asymptote_constant).
    """
    base = one_link_base(cfg)
    what = row_label(cfg, f"{form} rate")
    if form == _FORM_ASYMPTOTIC:
        base = replace(base, lambda_D=1.0)
        try:
            constant = _os_asymptote_constant(base, cfg.K, cfg.zeta)
        except ArithmeticError as exc:
            raise ArithmeticError(f"{what}: {exc}") from exc
        value = (1.0 - (1.0 - cfg.zeta) ** cfg.K) * math.log(cfg.lambda_D) + constant
        return value / _LN2, len(build_cdf_term_sum(base).terms)
    term_sum = build_cdf_term_sum(base)
    integrand = _os_integrand(term_sum, cfg.K, cfg.zeta, 1.0 if form == _FORM_EXACT else 0.0)
    return _exp_sinh(integrand, what) / _LN2, len(term_sum.terms)


@lru_cache(maxsize=256)
def _os_asymptote_constant(base: SystemConfig, K: int, zeta: float) -> float:
    """C = integral_0^inf [H(w) - S 1{w<1}]/w dw of the OS asymptote, with H
    the high-SNR integrand of the one-link `base` at lambda_D = 1: it depends
    on w = x/lambda_D only, so every lambda_D of a row reads one C. The
    ArithmeticError of a missed target names the constant; the caller adds
    its row.
    """
    slope = 1.0 - (1.0 - zeta) ** K
    integrand = _os_integrand(build_cdf_term_sum(base), K, zeta, 0.0)

    def below_one(u: float) -> tuple[float, float]:  # S - H(e^-u)
        above, bound = integrand(-u)
        return slope - above, bound + _EPS * slope
    what = "the constant of its asymptote"
    return _exp_sinh(integrand, what) - _exp_sinh(below_one, what)


def _os_integrand(term_sum, K: int, zeta: float, unity: float):
    """s -> (H(e^s), a bound on its rounding error), H = 1 - (1 - zeta S_1)^K.

    S_1 is the one-link survival at x = e^s and u = unity, summed by
    math.fsum (1 - TermSum.eval would lose it where it is small); its bound
    adds the term sum's rounding bound and its clamp to [0, 1], and H moves
    by at most K zeta times that.
    """
    def integrand(s: float) -> tuple[float, float]:
        link, bound = term_sum.survival(math.exp(s), unity)
        clamped = min(1.0, max(0.0, link))
        bound += abs(link - clamped)
        active = zeta * clamped
        value = 1.0 if active >= 1.0 else -math.expm1(K * math.log1p(-active))
        return value, K * zeta * bound + 4.0 * _EPS * value

    return integrand


def _exp_sinh(f, what: str) -> float:
    """integral_0^inf f(u) du to TARGET, or ArithmeticError naming `what`.

    f(u) returns (value, rounding bound). The trapezoid rule in t on u =
    exp(pi/2 sinh t) halves its step h, each level adding odd nodes, until
    two levels agree. Each side of t = 0 stops at a weighted value below
    1e-6 TARGET of the sum, or, towards u = inf where f decays like e^-u
    or faster, at a value below its bound; the rounding, h * sum of w *
    bound plus that tail, must meet TARGET too.
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
                    if abs(w * value) <= 1e-6 * TARGET * abs(total):
                        break
                    k += step
            previous, estimate = estimate, h * math.fsum(weighted)
            if previous is not None and abs(estimate - previous) <= TARGET * abs(estimate):
                break
            if h <= _FINEST_STEP:
                raise ArithmeticError(f"{what}: the exp-sinh levels still differ by "
                                      f"{abs(estimate - previous):.3e} at step {h:g}")
            h, first, step = h / 2.0, 1, 2
    except OverflowError as exc:
        raise ArithmeticError(f"{what}: the integrand leaves the double range") from exc
    rounding = h * math.fsum(bounds) + tail
    if rounding > TARGET * abs(estimate):
        raise ArithmeticError(f"{what}: the node sums carry a rounding error of up to "
                              f"{rounding:.3e} into the integral {estimate!r}")
    return estimate


def esr_exact(cfg: SystemConfig) -> EsrResult:
    """Exact ergodic secrecy rate in bits per channel use."""
    return _rate(cfg, _FORM_EXACT)


def esr_high_snr(cfg: SystemConfig) -> EsrResult:
    """High-SNR rate: the destination unity dropped."""
    return _rate(cfg, _FORM_HIGH_SNR)


def esr_asymptotic(cfg: SystemConfig) -> EsrResult:
    """Large lambda_D limit: slope (1 - (1-zeta)^K) log2(10) per decade."""
    return _rate(cfg, _FORM_ASYMPTOTIC)
