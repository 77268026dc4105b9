"""Combinatorial machinery behind the closed forms, their term-sum carrier,
and the certified sum that every closed form returns through.

Every closed form reads the exact integer coefficients of the Poisson
powers P_M(u)^k, P_M(u) = sum_{j<M} u^j/j!: the outage term table of sop
and the rate terms of esr. Over the common denominator (M-1)!, P_M is the
integer polynomial with coefficients (M-1)!/j!, and poisson_powers builds
each power by one integer convolution of the last power with it, so every
coefficient is exact.

``TermSum`` carries one KA config's outage: its integer term table, read
in floats through log-domain terms. The deep tail of the outage CDF is
~1e-20 while individual terms are O(1), which no double-precision
summation can resolve. So every outage and SS rate is certified: the
float sum stands when its rounding estimate is within TARGET of it, else
the same integers are re-summed in mpmath up _MP_DPS_LADDER, and a sum
that cancels below the deepest rung, or has no double, raises
ArithmeticError naming the row (certify).
"""

from __future__ import annotations

import math
from functools import lru_cache

TARGET = 1e-9  # relative target of every certified closed-form value
_MP_DPS_LADDER = (60, 120, 240, 480)
_EPS = 2.0 ** -52


@lru_cache(maxsize=None)
def poisson_powers(M: int, top: int) -> tuple:
    """(k, (-1)^k C(top, k), D^k, ((i, c), ...)) for k = 0..top, where P_M(u)^k =
    sum (c/D^k) u^i exactly: integers c over D = (M-1)!, P_M's common denominator.

    Power k is power k-1 convolved with the integers D/j!, j < M, so the
    coefficients of u^0 .. u^(k(M-1)) come in ascending order of i.
    """
    denom = math.factorial(M - 1)
    inner = [denom // math.factorial(j) for j in range(M)]
    powers = [[1]]
    for _k in range(top):
        last = powers[-1]
        powers.append([sum(last[i - j] * inner[j]
                           for j in range(max(0, i - len(last) + 1), min(i + 1, M)))
                       for i in range(len(last) + M - 1)])
    return tuple((k, (-1) ** k * math.comb(top, k), denom ** k, tuple(enumerate(power)))
                 for k, power in enumerate(powers))


def certify(total: float, bound: float, mp_terms, what: str) -> float:
    """A sum certified to TARGET relative, or ArithmeticError naming `what`.

    total is the float sum and bound the caller's estimate of its rounding
    error; the total stands when the bound is within TARGET of it (a NaN
    total or an infinite bound never does). Otherwise mp_terms(mpmath)
    lists the same term values in mpmath, re-summed up the precision ladder.
    """
    if bound <= TARGET * abs(total) < math.inf:
        return total
    return _certify_mp(mp_terms, what)


def _certify_mp(mp_terms, what: str) -> float:
    # mpmath loads on the first escalation only; most processes make none
    import mpmath

    for dps in _MP_DPS_LADDER:
        with mpmath.workdps(dps):
            values = mp_terms(mpmath)
            total, gross = mpmath.fsum(values), mpmath.fsum(values, absolute=True)
            # each term holds all but a few of its dps digits
            if gross * mpmath.mpf(10) ** (4 - dps) <= TARGET * abs(total):
                value = float(total)
                if not 0.0 < abs(value) < math.inf:
                    power = mpmath.nstr(mpmath.log10(abs(total)), 6)
                    raise ArithmeticError(f"{what} is about 10^{power}, outside the double range")
                return value
    raise ArithmeticError(
        f"{what}: its terms cancel below the {dps}-digit rounding floor (|sum| "
        f"{mpmath.nstr(abs(total), 3)}, gross {mpmath.nstr(gross, 3)}); no certified value")


class TermSum:
    """The outage of one KA config: F(x) = 1 - S(x) with S(x) = E_Y[S_X(x(1+Y) - u)].

    key is (K, N, M_D, M_E, lambda_D, lambda_E, zeta) and terms its shape's
    integer table: a row (c, den, k, n, i, mu, theta) is the term
    c/den zeta^k lambda_D^-i lambda_E^(mu-theta) x^mu (x-u)^(i-mu)
    e^(-k(x-u)/lambda_D) / a^theta, a = k x/lambda_D + (n+1)/lambda_E, the
    kernel scale. u = 1 gives the ratio survival; u = 0 drops the destination
    unity, the survival of X/(1+Y). Each term is taken in log space, with
    every x-free part of its log computed once per config.
    """

    __slots__ = ("terms", "key", "_kernels", "_rows")

    def __init__(self, terms: tuple, key: tuple):
        self.terms, self.key = terms, key
        self._kernels = sorted({(k, n) for _c, _den, k, n, *_rest in terms})
        self._rows = []
        if not terms:
            return  # zeta = 0: no link ever transmits
        logs = [math.log(v) for v in key[4:]]  # lambda_D, lambda_E, zeta
        for c, den, k, n, i, mu, theta in terms:
            parts = (math.log(abs(c)), -math.log(den), k * logs[2], -i * logs[0],
                     (mu - theta) * logs[1])
            self._rows.append((math.fsum(parts), 1 if c > 0 else -1,
                               2.0 + sum(map(abs, parts)), mu, i - mu, k,
                               self._kernels.index((k, n)), theta))

    def _values(self, x: float, unity: float) -> tuple[list, float]:
        """The float term values at x, and the sum of their magnitudes, each
        weighted by the parts of its log (a value exp(L) is off by a few ulps
        of each)."""
        lam_d, lam_e = self.key[4:6]
        if not 0.0 < x < math.inf:
            raise OverflowError(f"x={x!r} is outside the double range{self._where()}")
        w = x - unity
        rate, log_x = w / lam_d, math.log(x)
        log_w = math.log(w) if w else 0.0
        logs_a = []
        for k, n in self._kernels:
            a = k * x / lam_d + (n + 1) / lam_e
            if not a < math.inf:
                raise OverflowError(
                    f"kernel scale k*x/lambda_D + (n+1)/lambda_E = {a!r} at x={x!r}, k={k}, "
                    f"n={n} is outside the double range{self._where()}")
            logs_a.append(math.log(a))
        values, weight = [], 0.0
        for log_c, sign, size, mu, d, k, kernel, theta in self._rows:
            if d and not w:
                continue  # (x - u)^d vanishes
            log_a = logs_a[kernel]
            value = math.exp(log_c + mu * log_x + d * log_w - k * rate - theta * log_a)
            values.append(sign * value)
            weight += value * (size + mu * abs(log_x) + d * (1.0 + abs(log_w)) + k * rate
                               + theta * (1.0 + abs(log_a)))
        return values, weight

    def _where(self) -> str:
        K, N, M_D, M_E, lam_d, lam_e, zeta = self.key
        return (f", in the outage of K={K} N={N} M_D={M_D} M_E={M_E} zeta={zeta:g} "
                f"lambda_D={lam_d:g} lambda_E={lam_e:g}")

    def survival(self, x: float, unity: float) -> tuple[float, float]:
        """(S(x) in floats, a bound on its rounding error), u = unity."""
        values, weight = self._values(x, unity)
        return math.fsum(values), 4.0 * _EPS * weight

    def eval(self, x: float) -> float:
        """F(x) = 1 - S(x) through certify, whose float rounding estimate is
        4 eps times the gross 1 + sum |v|.

        math.fsum rounds the sum of the term values exactly, so the total
        depends on the values alone, not on the order of the terms.
        """
        values, _weight = self._values(x, 1.0)
        total = 1.0 - math.fsum(values)
        # a total off the probability band has lost its digits to the
        # cancellation as well
        bound = (4.0 * _EPS * (1.0 + math.fsum(map(abs, values)))
                 if -1e-9 <= total <= 1.0 + 1e-9 else math.inf)
        return certify(total, bound, lambda mpmath: self._mp_terms(mpmath, x),
                       f"term sum at x={x!r}{self._where()}")

    def _mp_terms(self, mpmath, x: float) -> list:
        """1 and the negated term values at x, in mpmath.

        Each power and exponential is computed once per call, for each
        exponent the rows use, and every term multiplies them in one fixed
        order, so each value is the per-row product's.
        """
        lam_d, lam_e, zeta, xx = map(mpmath.mpf, self.key[4:] + (x,))
        w = xx - 1
        rows = self.terms
        ks = {row[2] for row in rows}
        zeta_k = {k: zeta ** k for k in ks}
        decay_k = {k: mpmath.exp(-k * w / lam_d) for k in ks}
        lam_d_i = {i: lam_d ** -i for i in {row[4] for row in rows}}
        lam_e_j = {j: lam_e ** j for j in {mu - theta for *_head, mu, theta in rows}}
        x_mu = {mu: xx ** mu for mu in {row[5] for row in rows}}
        w_d = {d: w ** d for d in {i - mu for *_head, i, mu, _theta in rows}}
        scales = {(k, n): k * xx / lam_d + (n + 1) / lam_e for k, n in self._kernels}
        kernels = {(k, n, theta): scales[k, n] ** theta
                   for k, n, theta in {(row[2], row[3], row[6]) for row in rows}}
        return [1] + [-(mpmath.mpf(c) / den * zeta_k[k] * lam_d_i[i] * lam_e_j[mu - theta]
                        * x_mu[mu] * w_d[i - mu] * decay_k[k] / kernels[k, n, theta])
                      for c, den, k, n, i, mu, theta in rows]
