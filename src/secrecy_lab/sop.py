"""Closed-form CDF of the secrecy ratio and the secrecy outage probability.

One pipeline assembles the CDF complement of a KA config as a TermSum: the
destination-side slot sum of one link, the eavesdropper-survivor groups,
the k-th power by the generic product expansion, and inclusion-exclusion
over the k active links. Conditioning on the strongest eavesdropper SNR y,
the SS (max destination SNR) CDF is the K-th power of the gated mixture;
the k-th power of the slot sum (a per-link split of (x(1+y)-1)^m into x-
and y-powers) meets the closed moment integral over y once per
eavesdropper group; at K = 1 these are one link's recipes, either scheme.
The unity-dropped (high-SNR) form keeps the exact recipes whose lambda_D and
lambda_E powers cancel, without the exponential. Other values use identities:

* OS (max secrecy ratio) over K >= 2 i.i.d. links: F_OS = (1 - zeta +
  zeta * F_1)^K, with F_1 the K = 1 CDF at zeta = 1 (see one_link_base);
  esr integrates the same one-link sum for the OS rates.
* Gate after selection (KU): the always-on selection runs first and one
  backhaul gate then blocks the selected link with probability 1 - zeta,
  so F_KU = 1 - zeta + zeta * F_on, F_on the KA CDF at zeta = 1 (see
  gated_base); esr scales every KU rate by zeta the same way.

The builder emits exact rational recipes (see algebra.ExactTermRecipe),
whence every float is materialized. It works in integers: the slot
coefficients are scaled over their least common denominator D, the powers
k = 1..K are expanded in one ascending pass, and the k-link terms are
accumulated as numerators over one shared denominator per k (D^k times the
eavesdropper groups' factors). Each recipe then forms one reduced Fraction,
what Fraction arithmetic throughout gives without its per-operation gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator

from .algebra import (
    ExactTermRecipe,
    TermSum,
    expand_powers_of_sum,
    materialize_recipes,
)
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
def _dest_slots(M_D: int) -> tuple:
    """Destination-side summands as (Fraction, x power, y power, m).

    m indexes the Poisson term of the link CDF, mu the y-power picked from
    (x(1+y)-1)^m, drop the unit dropped from the remaining (x-1) factor
    (carrying the sign (-1)^drop and lowering the x power to m - drop).
    """
    slots = []
    for m in range(M_D):
        for mu in range(m + 1):
            for drop in range(m - mu + 1):
                frac = Fraction(math.comb(m, mu) * math.comb(m - mu, drop),
                                math.factorial(m))
                slots.append((-frac if drop % 2 else frac, m - drop, mu, m))
    return tuple(slots)


@lru_cache(maxsize=None)
def _eve_groups(N: int, M_E: int) -> tuple:
    """Eavesdropper factors summed per (n, sum of m_E): (n, me_hat, Fraction).

    Expanding [CDF of one eavesdropper]^(N-1) binomially leaves n surviving
    exponential factors, each with its own Poisson index m_E; each vector
    contributes (-1)^n C(N-1,n) N / ((M_E-1)! prod m_E_i!). Every recipe
    depends on the m_E vector only through its sum, so one group gathers the
    vectors of one sum.
    """
    base = Fraction(N, math.factorial(M_E - 1))
    acc: dict[tuple, Fraction] = {}
    for n in range(N):
        outer = base * math.comb(N - 1, n)
        if n % 2:
            outer = -outer
        for vec in product(range(M_E), repeat=n):
            key = (n, sum(vec))
            acc[key] = acc.get(key, Fraction(0)) + outer / math.prod(map(math.factorial, vec))
    return tuple((n, me_hat, frac) for (n, me_hat), frac in acc.items())


def _over_common_denominator(fracs) -> tuple[int, list[int]]:
    """(D, [f*D for f in fracs]) with D the least common denominator."""
    denom = math.lcm(*(f.denominator for f in fracs))
    return denom, [f.numerator * (denom // f.denominator) for f in fracs]


def _integer_powers(terms, K: int) -> Iterator[tuple[int, list[tuple]]]:
    """Yield (D^k, (sum of terms)^k expanded on integer coefficients), k = 1..K.

    terms are (Fraction, exponents...) and D is their least common
    denominator, so each coefficient c enters as the integer c*D and every
    expanded one over D^k is exactly the Fraction expansion's. Power k is
    built from power k-1, and each list is freed once the caller moves on.
    """
    denom, nums = _over_common_denominator([t[0] for t in terms])
    scaled = [(num,) + tuple(t[1:]) for num, t in zip(nums, terms)]
    for k, expanded in enumerate(expand_powers_of_sum(scaled, K), start=1):
        yield denom ** k, expanded


@lru_cache(maxsize=None)
def _ss_recipes(K: int, N: int, M_D: int, M_E: int) -> tuple:
    """Exact SS (max destination SNR) recipes of one shape, gated links.

    The k-th power of the destination slot sum is expanded once per k; the
    closed moment integral over the strongest eavesdropper SNR then attaches
    each eavesdropper group with a single pole of multiplicity theta at the
    ratio (n+1)/k. The moment integral contributes (theta-1)!/k^theta, and
    theta is at most theta_top, so the k-link terms share the denominator
    D^k * E * k^theta_top, where D^k comes with the power (see
    _integer_powers) and E is the eavesdropper coefficients' common
    denominator. Inclusion-exclusion over the k active links merges like
    terms as integers over that denominator, keyed with their k, and each
    recipe, which keeps e^(k(1-x)/lambda_D), forms one Fraction. The recipes
    come in the order their keys first appear; every sum over them is
    exactly rounded, so no value depends on that order. The recipes of one
    pole share one Fraction poles tuple object (materialize_recipes computes
    its floats once per object).
    """
    slots = _dest_slots(M_D)
    top_mu = max(mu for _frac, _poly, mu, _m in slots)
    groups = _eve_groups(N, M_E)
    eve_denom, eve_nums = _over_common_denominator([frac for _n, _me, frac in groups])
    eve = [(n, me_hat, num) for (n, me_hat, _frac), num in zip(groups, eve_nums)]
    nums: dict[tuple, int] = {}
    picks = {}  # k -> (signed binomial, denominator of the k-link numerators)
    for k, (dest_denom, expanded) in enumerate(_integer_powers(slots, K), start=1):
        theta_top = M_E + k * top_mu + max(me_hat for _n, me_hat, _num in eve)
        pick = math.comb(K, k)
        picks[k] = (pick if k % 2 else -pick, dest_denom * eve_denom * k ** theta_top)
        # per y power mu_hat of a k-link product, each group's integer
        # factor, theta, lambda_E power and one shared poles tuple
        by_mu = [[(eve_num * math.factorial(theta - 1) * k ** (theta_top - theta),
                   theta, -(M_E + me_hat), (((n + 1, k), theta),))
                  for n, me_hat, eve_num in eve
                  for theta in (M_E + mu_hat + me_hat,)]
                 for mu_hat in range(k * top_mu + 1)]
        for num, poly, mu_hat, m_hat in expanded:
            for factor, theta, le_pow, poles in by_mu[mu_hat]:
                key = (poly, k, theta - m_hat, le_pow, poles)
                nums[key] = nums.get(key, 0) + num * factor

    fraction_poles = {}  # poles -> its one Fraction poles tuple
    recipes = []
    for (poly, k, ld_pow, le_pow, poles), num in nums.items():
        if num:
            frac_poles = fraction_poles.get(poles)
            if frac_poles is None:
                frac_poles = fraction_poles[poles] = tuple(
                    (Fraction(p, q), m) for (p, q), m in poles)
            pick, denom = picks[k]
            recipes.append(ExactTermRecipe(Fraction(pick * num, denom), k, ld_pow, le_pow,
                                           k, poly, frac_poles))
    return tuple(recipes)


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


def _config_key(cfg: SystemConfig) -> tuple:
    if cfg.knowledge == "KU":
        raise ValueError(
            "gate after selection (KU) has no term sum of its own: "
            "F_KU = 1 - zeta + zeta * F_on, with F_on the always-on KA sum "
            "of gated_base(cfg)")
    if cfg.scheme == "OS" and cfg.K > 1:
        raise ValueError("OS over K >= 2 links has no term sum of its own: F_OS = "
                         "(1 - zeta + zeta * F_1)^K, F_1 that of one_link_base(cfg)")
    # the recipes read no scheme: at K = 1 both schemes build one link's
    return (cfg.K, cfg.N, cfg.M_D, cfg.M_E, cfg.lambda_D, cfg.lambda_E, cfg.zeta)


@lru_cache(maxsize=1024)
def _term_sum_for_key(key: tuple, unity_dropped: bool) -> TermSum:
    """The exact or the unity-dropped term sum of one KA config.

    Both come from the one exact build of the shape. A slot adds
    mu - m <= 0 to lam_dest_pow + lam_eve_pow, so the exact recipes where
    that sum is 0 are the products of the mu == m slots alone, those that
    drop the unity on both sides of the ratio: the unity-dropped form keeps
    them, each with its exact coefficient and pole tuple, and drops the exp.
    """
    K, N, M_D, M_E, lam_d, lam_e, zeta = key
    scales = (lam_d, lam_e, zeta)
    if zeta == 0.0:
        return TermSum(terms=(), recipes=(), scales=scales)
    recipes = _ss_recipes(K, N, M_D, M_E)
    if unity_dropped:
        recipes = tuple(replace(r, exp_k=0) for r in recipes
                        if r.lam_dest_pow + r.lam_eve_pow == 0)
    terms = materialize_recipes(recipes, lam_d, lam_e, zeta)
    return TermSum(terms=terms, recipes=recipes, scales=scales)


def build_cdf_term_sum(cfg: SystemConfig) -> TermSum:
    """The TermSum carrying F(x) for a KA config (cached); KU and OS at K >= 2 raise."""
    return _term_sum_for_key(_config_key(cfg), False)


def build_high_snr_term_sum(cfg: SystemConfig) -> TermSum:
    """TermSum of the unity-dropped CDF (no exp); KU and OS at K >= 2 raise."""
    return _term_sum_for_key(_config_key(cfg), True)


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
        link = cdf_ratio(x, one_link_base(cfg))
        return min(1.0, (1.0 - cfg.zeta + cfg.zeta * link) ** cfg.K)
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


def _perfect_backhaul_bracket(links: int, dest_factorial_count: int,
                              cfg: SystemConfig) -> tuple[float, int]:
    # Leading lambda_D^(-links*M_D per bracket) coefficient of the outage
    # CDF at rho: sum over the binomial split of (rho-1+rho*lambda_E*u)^Lam
    # against the strongest-eavesdropper density moments.
    lam = links
    rho = cfg.rho()
    log_lam_e = math.log(cfg.lambda_E)
    log_rho = math.log(rho)
    pieces = []
    for mu in range(lam + 1):
        if rho == 1.0 and mu != lam:
            continue  # (rho-1)^(lam-mu) vanishes
        for n, me_hat, eve_frac in _eve_groups(cfg.N, cfg.M_E):
            phi = cfg.M_E + mu + me_hat
            frac = (eve_frac * math.comb(lam, mu) * math.factorial(phi - 1)
                    / Fraction((n + 1) ** phi))
            log_mag = (math.log(abs(frac.numerator)) - math.log(frac.denominator)
                       + mu * (log_lam_e + log_rho))
            if mu != lam:
                log_mag += (lam - mu) * math.log(rho - 1.0)
            sign = 1 if frac > 0 else -1
            pieces.append(sign * math.exp(log_mag))
    total = math.fsum(pieces)
    log_scale = (-lam * math.log(cfg.lambda_D)
                 - dest_factorial_count * math.lgamma(cfg.M_D + 1))
    return total * math.exp(log_scale), len(pieces)


def sop_asymptotic(cfg: SystemConfig) -> SopResult:
    """Leading-order outage as lambda_D grows.

    With unreliable backhaul (zeta < 1) the outage settles at a floor that
    is independent of every other parameter: selection over active links
    leaves outage only when every backhaul is down, (1-zeta)^K, and
    gate-after-selection is blocked whenever the one selected gate is down,
    1-zeta. At zeta = 1 both schemes decay as lambda_D^(-K*M_D); the
    max-ratio scheme's value is the K-th power of its single-link bracket.
    The form labels the two regimes.
    """
    if cfg.zeta < 1.0:
        value = (1.0 - cfg.zeta) ** cfg.K if cfg.knowledge == "KA" else 1.0 - cfg.zeta
        return SopResult(value=value, form=_FORM_ASYMPTOTIC, term_count=1)
    if cfg.scheme == "SS":
        value, count = _perfect_backhaul_bracket(diversity_order(cfg), cfg.K, cfg)
    else:
        bracket, count = _perfect_backhaul_bracket(cfg.M_D, 1, cfg)
        value = bracket ** cfg.K
    return SopResult(value=min(1.0, max(0.0, value)),
                     form=_FORM_ASYMPTOTIC_PERFECT, term_count=count)


def diversity_order(cfg: SystemConfig) -> int:
    """High-SNR log-log decay slope of the outage probability.

    K * M_D with perfect backhaul (zeta = 1); 0 below it, where the outage
    settles at its floor (see sop_asymptotic).
    """
    return cfg.K * cfg.M_D if cfg.zeta == 1.0 else 0
