"""Closed-form CDF of the secrecy ratio and the secrecy outage probability.

The CDF complement is assembled as a TermSum for each of the four
scheme/knowledge combinations, from one pipeline: the destination-side
slot sum of one link, the eavesdropper-survivor groups, the k-th power by
the generic product expansion, and inclusion-exclusion over the k active
links.

* SS, selection over active links: conditioning on the strongest
  eavesdropper SNR y, the selected-link CDF is the K-th power of the gated
  mixture; the k-th power of the slot sum (a per-link split of
  (x(1+y)-1)^m into x- and y-powers) meets the closed moment integral over
  y once per eavesdropper group.
* OS, selection over active links: the K-th power of the single-link ratio
  CDF bracket; the bracket's complement is expanded to a term list once and
  raised to each k-th power, accumulating pole multiplicities per
  eavesdropper-survivor index.
* The unity-dropped (high-SNR) form filters the exact recipes: it keeps
  those whose lambda_D and lambda_E powers cancel, without the exponential
  (see _term_sum_for_key). So each shape's recipes are built once,
  whichever forms ask for them.
* Gate after selection (KU) has no term sum of its own. The always-on
  selection runs first and one backhaul gate then blocks the selected link
  with probability 1 - zeta, so F_KU = 1 - zeta + zeta * F_on, where F_on
  is the KA CDF at zeta = 1 (see gated_base). Every KU value goes through
  that identity, and esr scales every KU rate by zeta the same way.

Every builder emits exact rational recipes (see algebra.ExactTermRecipe);
floats are materialized from those, never accumulated independently.

The recipes are built in integer arithmetic: the slot coefficients are
scaled to integers over their least common denominator D, the powers
k = 1..K are expanded on those integers in one ascending pass (power k is
power k-1 times the slot sum), and the k-link terms are accumulated as integer
numerators over one shared denominator per k (D^k times the factors the
eavesdropper groups add). Each recipe then forms one reduced Fraction, equal
to what Fraction arithmetic throughout gives without its per-operation gcd.
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
    denominator. Each coefficient c enters as the integer c*D, so every
    expanded coefficient over D^k is exactly the Fraction expansion's. The
    powers ascend, each built from the one before, so the K powers cost one
    expansion, and each list is freed once the caller has moved past it.
    """
    denom, nums = _over_common_denominator([t[0] for t in terms])
    scaled = [(num,) + tuple(t[1:]) for num, t in zip(nums, terms)]
    for k, expanded in enumerate(expand_powers_of_sum(scaled, K), start=1):
        yield denom ** k, expanded


def _select_over_links(K: int, links) -> tuple:
    """Inclusion-exclusion over the k active links, merged into recipes.

    links yields (L, terms) for the k-link product, k = 1..K in turn. Each
    term is (integer numerator over L, x power, lambda_D power, lambda_E
    power, poles), each pole ((p, q), multiplicity) at the ratio p/q,
    written so that equal ratios of one k have equal pairs. Every recipe
    keeps e^(k(1-x)/lambda_D). Every key holds its k, so like terms merge as
    integers over that k's L, and each recipe forms one Fraction. The
    recipes come in the order their keys first appear; every sum over them
    is exactly rounded, so no value depends on that order. Many keys share
    one poles tuple, so each distinct tuple's Fraction poles are computed
    once, and its recipes share that one Fraction tuple object
    (materialize_recipes computes its floats once per object).
    """
    nums: dict[tuple, int] = {}
    picks = {}  # k -> (signed binomial, denominator of the k-link numerators)
    for k, (denom, terms) in enumerate(links, start=1):
        pick = math.comb(K, k)
        picks[k] = (pick if k % 2 else -pick, denom)
        for num, poly, ld_pow, le_pow, poles in terms:
            key = (poly, k, ld_pow, le_pow, poles)
            nums[key] = nums.get(key, 0) + num

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


@lru_cache(maxsize=None)
def _ss_recipes(K: int, N: int, M_D: int, M_E: int) -> tuple:
    """Exact SS (max destination SNR) recipes of one shape, gated links.

    The k-th power of the destination slot sum is expanded once per k; the
    closed moment integral over the strongest eavesdropper SNR then attaches
    each eavesdropper group with a single pole of multiplicity theta. The
    moment integral contributes (theta-1)!/k^theta, and theta is at most
    theta_top, so the k-link terms share the denominator
    D^k * E * k^theta_top, where D^k comes with the power (see
    _integer_powers) and E is the eavesdropper coefficients' common
    denominator.
    """
    slots = _dest_slots(M_D)
    top_mu = max(mu for _frac, _poly, mu, _m in slots)
    groups = _eve_groups(N, M_E)
    eve_denom, eve_nums = _over_common_denominator([frac for _n, _me, frac in groups])
    eve = [(n, me_hat, num) for (n, me_hat, _frac), num in zip(groups, eve_nums)]

    def links():
        for k, (dest_denom, expanded) in enumerate(_integer_powers(slots, K), start=1):
            theta_top = M_E + k * top_mu + max(me_hat for _n, me_hat, _num in eve)
            # per y power mu_hat of a k-link product, each group's integer
            # factor, theta, lambda_E power and one shared poles tuple
            by_mu = [[(eve_num * math.factorial(theta - 1) * k ** (theta_top - theta),
                       theta, -(M_E + me_hat), (((n + 1, k), theta),))
                      for n, me_hat, eve_num in eve
                      for theta in (M_E + mu_hat + me_hat,)]
                     for mu_hat in range(k * top_mu + 1)]
            terms = []
            for num, poly, mu_hat, m_hat in expanded:
                for factor, theta, le_pow, poles in by_mu[mu_hat]:
                    terms.append((num * factor, poly, theta - m_hat, le_pow, poles))
            yield dest_denom * eve_denom * k ** theta_top, terms
    return _select_over_links(K, links())


@lru_cache(maxsize=None)
def _os_recipes(K: int, N: int, M_D: int, M_E: int) -> tuple:
    """Exact OS (max secrecy ratio) recipes of one shape, gated links.

    The single-link ratio-CDF complement expands into terms carried as
    (coeff, x_power, lambda_D power, lambda_E power, pole multiplicity per
    survivor count); the k-link product accumulates exponents additively.
    The k-th power is expanded in integers over the denominator D^k (see
    _integer_powers), which all k-link terms share.
    """
    inner: list[tuple] = []
    for dest_frac, poly, mu, m in _dest_slots(M_D):
        for n, me_hat, eve_frac in _eve_groups(N, M_E):
            alpha = M_E + mu + me_hat
            frac = dest_frac * eve_frac * math.factorial(alpha - 1)
            mults = tuple(alpha if j == n else 0 for j in range(N))
            inner.append((frac, poly, alpha - m, -(M_E + me_hat)) + mults)

    pole_tuples = {}  # multiplicity vector -> its one poles tuple

    def links():
        for denom, expanded in _integer_powers(inner, K):
            terms = []
            for term in expanded:
                mults = term[4:]
                poles = pole_tuples.get(mults)
                if poles is None:
                    poles = pole_tuples[mults] = tuple(
                        ((j + 1, 1), mult) for j, mult in enumerate(mults) if mult)
                terms.append((term[0], term[1], term[2], term[3], poles))
            yield denom, terms
    return _select_over_links(K, links())


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


def _config_key(cfg: SystemConfig) -> tuple:
    if cfg.knowledge == "KU":
        raise ValueError(
            "gate after selection (KU) has no term sum of its own: "
            "F_KU = 1 - zeta + zeta * F_on, with F_on the always-on KA sum "
            "of gated_base(cfg)")
    return (cfg.K, cfg.N, cfg.M_D, cfg.M_E, cfg.lambda_D, cfg.lambda_E,
            cfg.zeta, cfg.scheme)


@lru_cache(maxsize=1024)
def _term_sum_for_key(key: tuple, unity_dropped: bool) -> TermSum:
    """The exact or the unity-dropped term sum of one KA config.

    Both come from the one exact build of the shape. A slot adds
    mu - m <= 0 to lam_dest_pow + lam_eve_pow, so the exact recipes where
    that sum is 0 are the products of the mu == m slots alone, those that
    drop the unity on both sides of the ratio: the unity-dropped form keeps
    them, each with its exact coefficient and pole tuple, and drops the exp.
    """
    K, N, M_D, M_E, lam_d, lam_e, zeta, scheme = key
    scales = (lam_d, lam_e, zeta)
    if zeta == 0.0:
        return TermSum(terms=(), recipes=(), scales=scales)
    build = _ss_recipes if scheme == "SS" else _os_recipes
    recipes = build(K, N, M_D, M_E)
    if unity_dropped:
        recipes = tuple(replace(r, exp_k=0) for r in recipes
                        if r.lam_dest_pow + r.lam_eve_pow == 0)
    terms = materialize_recipes(recipes, lam_d, lam_e, zeta)
    return TermSum(terms=terms, recipes=recipes, scales=scales)


def build_cdf_term_sum(cfg: SystemConfig) -> TermSum:
    """The TermSum carrying F(x) for a KA config (cached); KU raises."""
    return _term_sum_for_key(_config_key(cfg), False)


def build_high_snr_term_sum(cfg: SystemConfig) -> TermSum:
    """TermSum of the unity-dropped CDF (pure rational terms, no exp); KU raises."""
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
    value = build_cdf_term_sum(cfg).eval(x)
    if not (-1e-9 <= value <= 1.0 + 1e-9):
        raise ArithmeticError(
            f"term sum evaluated outside the probability band at x={x}: {value}")
    return min(1.0, max(0.0, value))


def sop(cfg: SystemConfig) -> SopResult:
    """Exact outage probability: the ratio CDF at 2^R_th.

    term_count is the size of the base term sum (see gated_base).
    """
    term_sum = build_cdf_term_sum(gated_base(cfg))
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
