"""Combinatorial and rational-function machinery behind the closed forms.

Two jobs live here:

* expansion of a K-th power of a term sum into a flat merged term list,
* partial-fraction decomposition of 1/prod(x+b_j)^(m_j) (optionally with a
  polynomial numerator) via truncated power series around each pole.

The module also owns the canonical carrier for every closed-form CDF:
``TermSum`` holds ``1 - sum of RationalExpTerm`` where each term is
``c * x^p * e^(-a x) / prod (x+b_q)^(m_q)``. Terms are materialized as floats
with the coefficient kept as ln |c| and its sign, and each TermSum also
carries an exact rational "recipe" per term (integer-fraction coefficient,
integer powers of the two scale parameters). The recipes allow the evaluator
to redo a catastrophically cancelling sum in arbitrary precision: the deep
tail of the outage CDF is ~1e-20 while individual terms are O(1), which no
double-precision summation can resolve. When even the deepest precision rung
cannot lift the sum clear of its rounding floor, evaluation raises
ArithmeticError instead of returning an uncertified float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

EXPANSION_TERM_CAP = 10_000_000

_MP_DPS_LADDER = (60, 120, 240, 480)


class CapacityError(RuntimeError):
    """Raised when an expansion would exceed the configured term cap."""


def expand_powers_of_sum(inner_terms: Sequence[tuple],
                         kappa: int) -> Iterator[list[tuple]]:
    """Yield (sum of inner terms)^k for k = 1..kappa as flat, merged term lists.

    Each inner term is ``(coeff, e1, e2, ...)`` with integer exponent slots
    (the two-slot case is a coefficient with an x power and a y power).
    Coefficients only need ``*`` and ``+`` between themselves. The recipe
    builders pass integers, their exact Fractions scaled over a common
    denominator D, and divide the k-th power by D^k; Fractions and floats
    work too. Power k is power k-1 times the sum, so like terms (identical
    exponent vectors) merge as they appear, and the kappa powers cost one
    expansion. Inside, each exponent vector is one integer code, so a
    product adds two integers instead of building a tuple; the merge order,
    and so every coefficient, is that of adding the vectors slot by slot.
    Each list holds one term per exponent vector, in the order the merge
    first meets the vector. Any multiplication step of more than
    EXPANSION_TERM_CAP raw products raises CapacityError before its power
    is yielded, never truncates.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    width = len(inner_terms[0]) - 1 if inner_terms else 0
    for t in inner_terms:
        if len(t) - 1 != width:
            raise ValueError("inner terms must share one exponent-vector width")
    # the code's digits are the slots, first slot most significant: slot i,
    # less its least inner exponent, is a digit of radix kappa * span_i + 1.
    # No digit of a power up to kappa overflows, so adding codes adds
    # vectors.
    lows = [min(t[i] for t in inner_terms) for i in range(1, width + 1)]
    radices = [kappa * (max(t[i] for t in inner_terms) - low) + 1
               for i, low in zip(range(1, width + 1), lows)]
    weights = [math.prod(radices[i + 1:]) for i in range(width)]
    inner = [(t[0], sum((e - low) * w for e, low, w in zip(t[1:], lows, weights)))
             for t in inner_terms]
    acc: dict[int, object] = {0: 1}
    for k in range(1, kappa + 1):
        if len(acc) * len(inner) > EXPANSION_TERM_CAP:
            raise CapacityError(
                f"expansion would create {len(acc) * len(inner)} raw terms "
                f"(cap {EXPANSION_TERM_CAP}); reduce K, N, or the multipath orders")
        nxt: dict[int, object] = {}
        for code_a, coeff_a in acc.items():
            for coeff_b, code_b in inner:
                key = code_a + code_b
                coeff = coeff_a * coeff_b
                prev = nxt.get(key)
                nxt[key] = coeff if prev is None else prev + coeff
        acc = nxt
        offsets = [k * low for low in lows]  # power k's digits are shifted k times
        # no local keeps the yielded list, so the caller can free it
        yield [(coeff,) + tuple((code // w) % r + off
                                for w, r, off in zip(weights, radices, offsets))
               for code, coeff in acc.items()]


@lru_cache(maxsize=4096)
def partial_fractions(poles: tuple, num_power: int = 0) -> tuple[tuple[float, ...], ...]:
    """Coefficients c_{j,t} with x^n/prod(x+b_q)^(m_q) = sum_j sum_t c_{j,t}/(x+b_j)^t.

    ``poles`` is a tuple of (location b, multiplicity m); locations must be
    pairwise distinct (group first) and may include 0 for the extra simple
    pole that the logarithmic integrals introduce. n is ``num_power``; the
    rows hold only the pole parts. The j-th row of the result has m_j
    entries ordered t = 1..m_j. Rows are tuples because they are memoized
    and shared between callers; a memoized row is the float a fresh call
    returns.
    """
    # Around pole j substitute x = u - b_j; the coefficient of 1/(x+b_j)^t is
    # the coefficient of u^(m_j - t) in  u^0..: (u - b_j)^num_power *
    # prod_{q != j} (u + b_q - b_j)^(-m_q), i.e. a truncated product series
    # followed by one series inversion (synthetic division).
    locations = [b for b, _ in poles]
    total_degree = sum(m for _, m in poles)
    if total_degree < 1:
        raise ValueError("total pole degree must be at least 1")
    for b, m in poles:
        if m < 1:
            raise ValueError(f"pole multiplicity must be positive (got {m} at {b})")
    for i, b in enumerate(locations):
        for other in locations[i + 1:]:
            if b == other:
                raise ValueError(f"coincident pole locations must be grouped first (b={b})")
    rows = []
    for j, (b_j, m_j) in enumerate(poles):
        cofactor = [1.0] + [0.0] * (m_j - 1)
        for q, (b_q, m_q) in enumerate(poles):
            if q == j:
                continue
            shift = b_q - b_j
            for _ in range(m_q):
                cofactor = _poly_mul_trunc(cofactor, [shift, 1.0], m_j)
        series = _series_invert(cofactor, m_j)
        if num_power:
            numer = [1.0]
            for _ in range(num_power):
                numer = _poly_mul_trunc(numer, [-b_j, 1.0], m_j)
            series = _poly_mul_trunc(series, numer, m_j)
        rows.append(tuple(series[m_j - t] for t in range(1, m_j + 1)))
    return tuple(rows)


def _poly_mul_trunc(a: list[float], b: list[float], keep: int) -> list[float]:
    out = [0.0] * min(keep, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0.0 or i >= keep:
            continue
        for k, bk in enumerate(b):
            pos = i + k
            if pos >= keep:
                break
            out[pos] += ai * bk
    return out


def _series_invert(p: list[float], keep: int) -> list[float]:
    if p[0] == 0.0:
        # the cofactor's constant term is a product of pole gaps, so it is
        # 0.0 only when they underflow: a numeric failure, not a bad input
        raise ArithmeticError("cannot invert a series with zero constant term")
    inv = [0.0] * keep
    inv[0] = 1.0 / p[0]
    for i in range(1, keep):
        s = 0.0
        for t in range(1, min(i, len(p) - 1) + 1):
            s += p[t] * inv[i - t]
        inv[i] = -s / p[0]
    return inv


@dataclass(frozen=True, slots=True)
class RationalExpTerm:
    """One summand c * x^p * e^(-a x) / prod (x+b_q)^(m_q).

    The coefficient is carried as ln |c| and the sign of c, so products of
    hundreds of binomials and gamma factors never leave the float range even
    when c itself would overflow a double; c is never zero. Pole locations
    are strictly positive (every pole arising from the fading algebra sits at
    a positive multiple of the SNR-scale ratio, so the term is analytic on
    [1, inf)).
    """

    log_coeff: float
    sign: int
    poly_power: int
    exp_rate: float
    poles: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1 (got {self.sign!r})")
        if self.poly_power < 0:
            raise ValueError("poly_power must be nonnegative")
        if self.exp_rate < 0:
            raise ValueError("exp_rate must be nonnegative")
        for b, m in self.poles:
            if b <= 0:
                raise ValueError(f"pole locations must be positive (got {b})")
            if m < 1:
                raise ValueError(f"pole multiplicities must be positive (got {m})")

    def value_at(self, x: float) -> float:
        """The term at x, summed in the log domain."""
        log_val = self.log_coeff - self.exp_rate * x
        if self.poly_power:
            log_val += self.poly_power * math.log(x)
        for b, m in self.poles:
            log_val -= m * math.log(x + b)
        return self.sign * math.exp(log_val)


@dataclass(frozen=True, slots=True)
class ExactTermRecipe:
    """Exact rebuild data for one term: value(x) = frac * zeta^zp * lam_d^dp *
    lam_e^ep * e^(exp_k (1-x)/lam_d) * x^poly / prod (x + r lam_d/lam_e)^m.

    Everything except the two scale parameters and zeta is exact integer
    arithmetic, so the term can be re-materialized at any precision.
    """

    frac: Fraction
    zeta_pow: int
    lam_dest_pow: int
    lam_eve_pow: int
    exp_k: int
    poly_power: int
    poles: tuple  # of (Fraction ratio, int multiplicity)


@dataclass(frozen=True)
class TermSum:
    """1 - sum of terms; the canonical closed-form CDF carrier.

    Evaluation detects catastrophic cancellation and redoes the sum in
    arbitrary precision from the exact recipes, one per term.
    """

    terms: tuple
    recipes: tuple = field(repr=False)
    scales: tuple = field(repr=False)  # (lambda_D, lambda_E, zeta)

    def eval(self, x: float) -> float:
        """1 - sum of the terms at x, or the mpmath rebuild when that cancels.

        math.fsum rounds the sum of the term values exactly, so the total
        depends on the values alone, not on the order of the terms.
        """
        values = [t.value_at(x) for t in self.terms]
        total = 1.0 - math.fsum(values)
        if values:
            gross = math.fsum(map(abs, values)) + 1.0
            # an off-band CDF has lost its digits too: (L + k/lam_D) - (k/lam_D) x
            # loses L once k/lam_D dwarfs it (1e20 at lam_D = -200 dB)
            if abs(total) < 1e-9 * gross or not -1e-9 <= total <= 1.0 + 1e-9:
                total = _eval_recipes_mp(self.recipes, x, self.scales)
        return total


def log_abs_fraction(frac: Fraction) -> float:
    """ln |frac| for fractions whose parts can dwarf the float range."""
    return math.log(abs(frac.numerator)) - math.log(frac.denominator)


def materialize_recipes(recipes: Sequence[ExactTermRecipe],
                        lam_dest: float, lam_eve: float, zeta: float) -> tuple:
    """Float RationalExpTerms from exact recipes (single source of truth).

    Each recipe pole's location is computed with one expression, numerator *
    lam_dest / (denominator * lam_eve) of its reduced ratio, so equal ratios
    give equal floats. The recipe builders give every recipe of one pole
    tuple the same tuple object (the benchmark ladder's 19,765 recipes carry
    1,846), so each tuple's float poles are computed once per call and its
    terms share them. The memo is keyed by the tuple's identity, so a lookup
    hashes no Fraction; the recipes are held for the whole call, so no
    identity is reused, and an equal tuple that is another object only
    recomputes the same floats. zeta and every coefficient must be nonzero
    (math.log raises otherwise): a zeta = 0 row has no terms. A pole
    location that underflows to 0.0 or overflows raises ArithmeticError
    naming its ratio.
    """
    recipes = tuple(recipes)  # keeps every pole tuple, and so its id, alive
    log_ld = math.log(lam_dest)
    log_le = math.log(lam_eve)
    log_z = math.log(zeta)
    float_poles: dict[int, tuple] = {}  # id of a recipe's poles -> float poles
    out = []
    for r in recipes:
        poles = float_poles.get(id(r.poles))
        if poles is None:
            poles = float_poles[id(r.poles)] = tuple(
                (_pole_location(ratio, lam_dest, lam_eve), mult) for ratio, mult in r.poles)
        rate = r.exp_k / lam_dest
        log_mag = (log_abs_fraction(r.frac)
                   + r.zeta_pow * log_z
                   + r.lam_dest_pow * log_ld
                   + r.lam_eve_pow * log_le
                   + rate)
        out.append(RationalExpTerm(log_mag, 1 if r.frac.numerator > 0 else -1,
                                   r.poly_power, rate, poles))
    return tuple(out)


def _pole_location(ratio: Fraction, lam_dest: float, lam_eve: float) -> float:
    location = ratio.numerator * lam_dest / (ratio.denominator * lam_eve)
    if not 0.0 < location < math.inf:
        raise ArithmeticError(
            f"pole location {ratio} * lambda_D / lambda_E = {location!r} at "
            f"lambda_D = {lam_dest!r}, lambda_E = {lam_eve!r} is outside the double range")
    return location


def _eval_recipes_mp(recipes: Sequence[ExactTermRecipe], x: float,
                     scales: tuple) -> float:
    # mpmath loads on the first fallback only; most processes make none
    import mpmath

    lam_dest, lam_eve, zeta = scales
    for dps in _MP_DPS_LADDER:
        with mpmath.workdps(dps):
            ld = mpmath.mpf(lam_dest)
            le = mpmath.mpf(lam_eve)
            zt = mpmath.mpf(zeta)
            xx = mpmath.mpf(x)
            total = mpmath.mpf(1)
            gross = abs(total)
            for r in recipes:
                v = mpmath.mpf(r.frac.numerator) / r.frac.denominator
                if r.zeta_pow:
                    v *= zt ** r.zeta_pow
                if r.lam_dest_pow:
                    v *= ld ** r.lam_dest_pow
                if r.lam_eve_pow:
                    v *= le ** r.lam_eve_pow
                if r.exp_k:
                    v *= mpmath.exp(r.exp_k * (1 - xx) / ld)
                if r.poly_power:
                    v *= xx ** r.poly_power
                for ratio, mult in r.poles:
                    v /= (xx + mpmath.mpf(ratio.numerator) * ld / (ratio.denominator * le)) ** mult
                total -= v
                gross += abs(v)
            # enough headroom left between the result and the rounding floor?
            if abs(total) > gross * mpmath.mpf(10) ** (15 - dps):
                return float(total)
    raise ArithmeticError(
        f"term sum at x={x!r} cancels below the {dps}-digit rounding floor "
        f"(|sum| {mpmath.nstr(abs(total), 3)}, gross {mpmath.nstr(gross, 3)}); "
        "no certified value")
