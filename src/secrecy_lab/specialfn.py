"""Scalar special functions shared by the closed-form and integration layers.

Everything here is pure float math on scalars: the log of the upper
incomplete gamma of integer order (including negative orders, which the tail
kernels evaluate routinely) and generalized exponential integrals with a
series / continued-fraction regime split.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015328606

_CF_MAX_ITER = 500
_TINY = 1e-300
# above this x the log form keeps e^(-x) out of E_n(x); below it E_n(x) is a
# normal double for every order the tail kernels reach
_CF_LOG_FROM = 700.0


def _require_finite(x: float) -> None:
    # inf or NaN would run a loop to its cap before failing; an ArithmeticError
    # lets a caller fall back to arbitrary precision
    if not math.isfinite(x):
        raise ArithmeticError(f"x={x!r} is not finite")


def _exp_integral_one_series(x: float) -> float:
    # E_1(x) = -gamma - ln x + sum_{j>=1} (-1)^(j+1) x^j / (j * j!), for small x.
    total = -EULER_GAMMA - math.log(x)
    power = 1.0
    for j in range(1, 200):
        power *= -x / j
        delta = -power / j
        total += delta
        if abs(delta) < 1e-18 * max(abs(total), _TINY):
            return total
    raise ArithmeticError(f"series for the exponential integral failed to converge at x={x}")


def _exp_integral_cf(n: int, x: float) -> float:
    # Modified Lentz continued fraction h = e^x E_n(x), evaluated directly at
    # order n: E_n(x) = e^(-x) / (x + n - 1*n/(x + 2 + ...)). Stable for
    # x >= 1 at any order, which the upward recurrence is not (its relative
    # error grows like x^n/n! when started from E_1 at large x). The caller
    # applies e^(-x), so the log form can keep it out of the double range.
    b = x + n
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER):
        a = -i * (n - 1 + i)
        b += 2.0
        d = a * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + a / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"continued fraction for E_{n}({x}) failed to converge")


def exp_integral(n: int, x: float) -> float:
    """Generalized exponential integral E_n(x) = integral_1^inf e^(-x t)/t^n dt.

    Orders n >= 1 only. For x < 1 the E_1 series seeds the upward recurrence
    E_{m+1} = (e^(-x) - x E_m)/m (stable there since each step shrinks by
    roughly x/m); for x >= 1 the continued fraction is evaluated at order n
    directly.
    """
    if x <= 0.0:
        raise ValueError("x must be positive: E_n diverges at the origin")
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_finite(x)
    if x >= 1.0:
        return _exp_integral_cf(n, x) * math.exp(-x)
    e = _exp_integral_one_series(x)
    ex = math.exp(-x)
    for m in range(1, n):
        e = (ex - x * e) / m
    return e


def log_upper_incomplete_gamma_int(s: int, x: float) -> float:
    """Natural log of Gamma(s, x) for integer s (any sign) and x > 0.

    Gamma(s, x) is positive for every x > 0, and its log stays finite far
    beyond the point where the value itself underflows. s >= 1 uses the
    Poisson partial sum Gamma(s,x) = (s-1)! e^(-x) sum_{j<s} x^j/j!; s = -n <= 0
    goes through Gamma(-n, x) = E_{n+1}(x)/x^n.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    _require_finite(x)
    if s >= 1:
        # log of the Poisson partial sum with the peak factored out, so the
        # result stays finite for x far beyond the exp underflow point.
        logs = [j * math.log(x) - math.lgamma(j + 1) for j in range(s)]
        peak = max(logs)
        rest = math.fsum(math.exp(v - peak) for v in logs)
        return math.lgamma(s) - x + peak + math.log(rest)
    n = -s
    if x > _CF_LOG_FROM:
        # E_{n+1}(x) = h e^(-x) leaves the normal doubles near x = 708
        log_e = math.log(_exp_integral_cf(n + 1, x)) - x
    else:
        log_e = math.log(exp_integral(n + 1, x))
    return log_e - n * math.log(x)

