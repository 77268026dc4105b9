"""Closed-form CDF of the secrecy ratio and the secrecy outage probability.

A KA config's outage is F(x) = P((1+X)/(1+Y) <= x) = 1 - E_Y[S_X(x(1+Y) -
1)], with X the selected destination SNR and Y the strongest eavesdropper
SNR. Both S_X (SS: the max over K gated links; at K = 1 one link, either
scheme) and the density of Y are finite sums of Poisson powers, so one
integer term table per shape (K, N, M_D, M_E) carries it (_term_table), and
algebra.TermSum reads it, certified by algebra.certify. The
same table with the destination unity dropped, E_Y[S_X(x(1+Y))], is the
survival that esr reads for the OS high-SNR rate. Other values use
identities:

* OS (max secrecy ratio) over K >= 2 i.i.d. links: F_OS = (1 - zeta +
  zeta * F_1)^K, with F_1 the K = 1 CDF at zeta = 1 (see one_link_base);
  esr integrates the same one-link sum for the OS rates.
* Gate after selection (KU): the always-on selection runs first and one
  backhaul gate then blocks the selected link with probability 1 - zeta,
  so F_KU = 1 - zeta + zeta * F_on, F_on the KA CDF at zeta = 1 (see
  gated_base); esr scales every KU rate by zeta the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .algebra import TermSum, poisson_powers
from .channel import SystemConfig

_FORM_EXACT = "exact"
_FORM_ASYMPTOTIC = "asymptotic"
_FORM_ASYMPTOTIC_PERFECT = "asymptotic_perfect_backhaul"


@dataclass(frozen=True)
class SopResult:
    value: float
    form: str
    term_count: int


@lru_cache(maxsize=None)
def _term_table(K: int, N: int, M_D: int, M_E: int) -> tuple:
    """The integer rows (c, den, k, n, i, mu, theta) of one shape's outage
    (see algebra.TermSum), from S_X and the eavesdropper-max density.

    S_X(t) is the sum over k of (-1)^(k+1) C(K,k) zeta^k e^(-kt/lambda_D)
    P_{M_D}(t/lambda_D)^k, the density of Y is N/(lambda_E (M_E-1)!)
    (y/lambda_E)^(M_E-1) e^(-y/lambda_E) times the sum over n of (-1)^n
    C(N-1,n) e^(-ny/lambda_E) P_{M_E}(y/lambda_E)^n, and t = x y + (x - u)
    splits t^i binomially into (x y)^mu (x-u)^(i-mu). Integrating over y
    leaves Gamma(theta)/a^theta, theta = mu + M_E + j, for the y^j term of
    the n-th power; c takes Gamma(theta) in, den is (M_D-1)!^k (M_E-1)!^(n+1).
    """
    eve_den = math.factorial(M_E - 1)
    rows = []
    for (k, pick_d, den_d, power_d), (n, pick_e, den_e, power_e) in product(
            poisson_powers(M_D, K)[1:], poisson_powers(M_E, N - 1)):
        for (i, c_d), (j, c_e) in product(power_d, power_e):
            for mu in range(i + 1):
                theta = mu + M_E + j
                c = (-pick_d * c_d * math.comb(i, mu) * N * pick_e * c_e
                     * math.factorial(theta - 1))
                rows.append((c, den_d * den_e * eve_den, k, n, i, mu, theta))
    return tuple(rows)


def gated_base(cfg: SystemConfig) -> SystemConfig:
    """The KA config whose term sum carries cfg's CDF and rates.

    A KA config is its own base. A KU config gates the always-on selection
    after the fact: F_KU = 1 - zeta + zeta * F_on and rate_KU = zeta *
    rate_on, where the base is KA at zeta = 1. At zeta = 0 no link ever
    transmits, and the base keeps zeta = 0 so that its term sum is empty.
    """
    if cfg.knowledge == "KA":
        return cfg
    return replace(cfg, zeta=1.0 if cfg.zeta > 0.0 else 0.0, knowledge="KA")


def one_link_base(cfg: SystemConfig) -> SystemConfig:
    """The one-link config (K = 1, zeta = 1, KA) whose term sum carries an
    OS/KA config's values: F_OS = (1 - zeta + zeta * F_1)^K. At zeta = 0 the
    base keeps zeta = 0, as gated_base does, so that its term sum is empty.
    """
    return replace(cfg, K=1, zeta=1.0 if cfg.zeta > 0.0 else 0.0, knowledge="KA")


def row_label(cfg: SystemConfig, value: str) -> str:
    """Names cfg's row in an error: `value` of scheme/knowledge and every parameter."""
    return (f"{value} of {cfg.scheme}/{cfg.knowledge} K={cfg.K} N={cfg.N} M_D={cfg.M_D} "
            f"M_E={cfg.M_E} zeta={cfg.zeta:g} lambda_D={cfg.lambda_D:g} "
            f"lambda_E={cfg.lambda_E:g}")


def _config_key(cfg: SystemConfig) -> tuple:
    if cfg.knowledge == "KU":
        raise ValueError(
            "gate after selection (KU) has no term sum of its own: "
            "F_KU = 1 - zeta + zeta * F_on, with F_on the always-on KA sum "
            "of gated_base(cfg)")
    if cfg.scheme == "OS" and cfg.K > 1:
        raise ValueError("OS over K >= 2 links has no term sum of its own: F_OS = "
                         "(1 - zeta + zeta * F_1)^K, F_1 that of one_link_base(cfg)")
    # the table reads no scheme: at K = 1 both schemes read one link's
    return (cfg.K, cfg.N, cfg.M_D, cfg.M_E, cfg.lambda_D, cfg.lambda_E, cfg.zeta)


@lru_cache(maxsize=1024)
def _term_sum_for_key(key: tuple) -> TermSum:
    """The term sum of one KA config; zeta = 0 has no terms."""
    K, N, M_D, M_E, _lam_d, _lam_e, zeta = key
    return TermSum(_term_table(K, N, M_D, M_E) if zeta else (), key)


def build_cdf_term_sum(cfg: SystemConfig) -> TermSum:
    """The TermSum carrying F(x) for a KA config (cached); KU and OS at K >= 2 raise."""
    return _term_sum_for_key(_config_key(cfg))


def cdf_ratio(x: float, cfg: SystemConfig) -> float:
    """F(x) = P(secrecy ratio <= x) for finite x >= 1."""
    if not 1.0 <= x < math.inf:
        raise ValueError(f"x must be finite and at least 1: the ratio CDF is only "
                         f"assembled on [1, inf) (got {x!r})")
    if cfg.knowledge == "KU":
        # zeta stays a single outer multiplier of the always-on curve;
        # folding it into the term coefficients instead leaves ~1e-12
        # relative noise after cancellation on deep K/N grids
        base = cdf_ratio(x, gated_base(cfg))
        return min(1.0, 1.0 - cfg.zeta + cfg.zeta * base)
    if cfg.scheme == "OS" and cfg.K > 1:
        base = 1.0 - cfg.zeta + cfg.zeta * cdf_ratio(x, one_link_base(cfg))
        value = base ** cfg.K
        if value == 0.0 < base:  # as algebra.certify, a positive value needs a double
            raise ArithmeticError(f"{row_label(cfg, 'outage')} at x={x!r} is about 10^"
                                  f"{cfg.K * math.log10(base):.6g}, outside the double range")
        return min(1.0, value)
    value = build_cdf_term_sum(cfg).eval(x)
    if not (-1e-9 <= value <= 1.0 + 1e-9):
        raise ArithmeticError(
            f"term sum evaluated outside the probability band at x={x}: {value}")
    return min(1.0, max(0.0, value))


def sop(cfg: SystemConfig) -> SopResult:
    """Exact outage probability: the ratio CDF at 2^R_th.

    term_count is the size of the base term sum (see gated_base): for OS
    over K >= 2 links, that of the one-link sum (see one_link_base).
    """
    base = gated_base(cfg)
    if base.scheme == "OS" and base.K > 1:
        base = one_link_base(base)
    term_sum = build_cdf_term_sum(base)
    value = cdf_ratio(cfg.rho(), cfg)
    return SopResult(value=value, form=_FORM_EXACT, term_count=len(term_sum.terms))


def _eve_moment(mu: int, N: int, M_E: int) -> Fraction:
    """E[Z^mu] exactly, Z the strongest of N unit-scale Gamma(M_E) SNRs.

    Z's density is N/(M_E-1)! z^(M_E-1) e^(-z) times the sum over n of
    (-1)^n C(N-1,n) e^(-nz) P_{M_E}(z)^n (see _term_table), and the z^j term
    of the n-th power integrates against z^mu to (mu+M_E+j-1)!/(n+1)^(mu+M_E+j).
    """
    eve_den = math.factorial(M_E - 1)
    return sum((Fraction(N * pick * c * math.factorial(mu + M_E + j - 1),
                         den * eve_den * (n + 1) ** (mu + M_E + j))
                for n, pick, den, power in poisson_powers(M_E, N - 1) for j, c in power),
               Fraction(0))


def sop_asymptotic(cfg: SystemConfig) -> SopResult:
    """Leading-order outage as lambda_D grows.

    With unreliable backhaul (zeta < 1) the outage settles at a floor that
    is independent of every other parameter: selection over active links
    leaves outage only when every backhaul is down, (1-zeta)^K, and
    gate-after-selection is blocked whenever the one selected gate is down,
    1-zeta. At zeta = 1 both schemes decay as lambda_D^(-K*M_D). A link is
    in outage when its SNR is at most t = rho(1+Y) - 1, with probability
    (t/lambda_D)^M_D / M_D! to leading order, so the SS outage over K links
    is E_Y[t^L] / (M_D!^K lambda_D^L), L = K*M_D, and the OS outage is the
    K-th power of the one-link value (L = M_D). With Y = lambda_E Z,
    t = (rho-1) + rho lambda_E Z splits binomially over the exact moments
    of Z (_eve_moment): every weight is nonnegative, as rho >= 1. The sum
    is exact in the Fractions of the float inputs, clamped to 1 and rounded
    once; term_count is its L + 1 binomial terms. The form labels the two
    regimes.
    """
    if cfg.zeta < 1.0:
        value = (1.0 - cfg.zeta) ** cfg.K if cfg.knowledge == "KA" else 1.0 - cfg.zeta
        return SopResult(value=value, form=_FORM_ASYMPTOTIC, term_count=1)
    links = cfg.K if cfg.scheme == "SS" else 1
    L = links * cfg.M_D
    rho = Fraction(cfg.rho())
    scale = rho * Fraction(cfg.lambda_E)
    mean_power = sum(math.comb(L, mu) * (rho - 1) ** (L - mu) * scale ** mu
                     * _eve_moment(mu, cfg.N, cfg.M_E) for mu in range(L + 1))
    value = mean_power / (math.factorial(cfg.M_D) ** links * Fraction(cfg.lambda_D) ** L)
    if cfg.scheme == "OS":
        value **= cfg.K
    return SopResult(value=float(min(value, 1)),
                     form=_FORM_ASYMPTOTIC_PERFECT, term_count=L + 1)


def diversity_order(cfg: SystemConfig) -> int:
    """High-SNR log-log decay slope of the outage probability.

    K * M_D with perfect backhaul (zeta = 1); 0 below it, where the outage
    settles at its floor (see sop_asymptotic).
    """
    return cfg.K * cfg.M_D if cfg.zeta == 1.0 else 0
