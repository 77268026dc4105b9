import math

import pytest
from scipy.integrate import quad

from secrecy_lab.acceptance import _LOG_GAMMA_RECURRENCE_C
from secrecy_lab import specialfn
from secrecy_lab.specialfn import exp_integral, log_upper_incomplete_gamma_int

GAMMA_0_1 = 0.21938393439552027
GAMMA_M1_1 = 0.14849550677592205
E1_10 = 4.1569689296853243e-06


def _gamma(s, x):
    return math.exp(log_upper_incomplete_gamma_int(s, x))


class TestUpperIncompleteGamma:
    def test_order_one_is_exponential(self):
        assert _gamma(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_order_zero(self):
        assert _gamma(0, 1.0) == pytest.approx(GAMMA_0_1, rel=1e-12)

    def test_negative_order(self):
        assert _gamma(-1, 1.0) == pytest.approx(GAMMA_M1_1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_upper_incomplete_gamma_int(0, 0.0)
        with pytest.raises(ValueError):
            log_upper_incomplete_gamma_int(2, -1.0)

    @pytest.mark.parametrize("s", range(-5, 6))
    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0, 50.0])
    def test_recurrence(self, s, x):
        # Gamma(s+1,x) = s Gamma(s,x) + x^s e^(-x), measured as the
        # acceptance gate measures it: exp(ln G) carries about |ln G| ulps,
        # and kappa amplifies the inputs' relative errors (a plain 1e-12
        # relative bound fails at s = -5, x = 0.01)
        log_lo = log_upper_incomplete_gamma_int(s, x)
        log_hi = log_upper_incomplete_gamma_int(s + 1, x)
        lo, hi, tail = math.exp(log_lo), math.exp(log_hi), x ** s * math.exp(-x)
        kappa = (abs(s * lo) + tail) / hi
        bound = kappa * max(1.0, abs(log_lo), abs(log_hi)) * math.ulp(1.0)
        assert abs(hi - (s * lo + tail)) / hi <= _LOG_GAMMA_RECURRENCE_C * bound

    @pytest.mark.parametrize("s", range(-5, 6))
    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0, 50.0])
    def test_against_quadrature(self, s, x):
        ref, _ = quad(lambda t: t ** (s - 1) * math.exp(-t), x, math.inf,
                      epsabs=0.0, epsrel=1e-13, limit=800)
        assert _gamma(s, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("s, x, log_ref", [
        # mpmath log(gammainc(s, x)) at 40 digits
        (0, 1001.0, -1007.9097522876125),
        (-2, 1001.0, -1021.7292538886278),
        (0, 746.0, -752.616063397818),
        (-1, 1000.5, -1014.3185053271156),
    ])
    def test_log_stays_finite_past_the_underflow(self, s, x, log_ref):
        assert log_upper_incomplete_gamma_int(s, x) == pytest.approx(log_ref, rel=1e-13)


class TestExpIntegral:
    def test_frozen_values(self):
        assert exp_integral(1, 1.0) == pytest.approx(GAMMA_0_1, rel=1e-12)
        assert exp_integral(2, 1.0) == pytest.approx(GAMMA_M1_1, rel=1e-12)
        assert exp_integral(1, 10.0) == pytest.approx(E1_10, rel=1e-10)

    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 5.0, 30.0])
    def test_bounds_and_monotone_in_order(self, x):
        previous = math.exp(-x) / x
        for n in range(1, 8):
            value = exp_integral(n, x)
            assert 0.0 < value < math.exp(-x) / x
            assert value < previous
            previous = value

    def test_monotone_in_argument(self):
        values = [exp_integral(3, x) for x in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            exp_integral(1, 0.0)
        with pytest.raises(ValueError):
            exp_integral(1, -3.0)
        with pytest.raises(ValueError):
            exp_integral(0, 2.0)


@pytest.fixture
def no_loops(monkeypatch):
    # a non-finite x must raise before the series or the continued fraction
    def loop(*args):
        raise AssertionError("entered a loop")
    monkeypatch.setattr(specialfn, "_exp_integral_cf", loop)
    monkeypatch.setattr(specialfn, "_exp_integral_one_series", loop)


@pytest.mark.parametrize("x", [math.inf, math.nan])
@pytest.mark.parametrize("s", [-3, 0, 2])
def test_log_gamma_rejects_non_finite_x_naming_it(no_loops, s, x):
    # an ArithmeticError, so that a rate's float pass falls through to mpmath
    with pytest.raises(ArithmeticError, match=rf"x={x!r} is not finite") as info:
        log_upper_incomplete_gamma_int(s, x)
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("x", [math.inf, math.nan])
@pytest.mark.parametrize("n", [1, 4])
def test_exp_integral_rejects_non_finite_x_naming_it(no_loops, n, x):
    with pytest.raises(ArithmeticError, match=rf"x={x!r} is not finite"):
        exp_integral(n, x)
