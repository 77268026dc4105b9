import math
from dataclasses import replace
from fractions import Fraction

import pytest

from secrecy_lab import algebra
from secrecy_lab.algebra import TermSum, poisson_powers
from secrecy_lab.channel import SystemConfig
from secrecy_lab.sop import build_cdf_term_sum, sop


class TestPoissonPowers:
    @staticmethod
    def _fraction_power(M, k):
        # P_M(u)^k by Fraction polynomial products, {power of u: coefficient}
        power = {0: Fraction(1)}
        for _ in range(k):
            nxt = {}
            for i, c in power.items():
                for j in range(M):
                    nxt[i + j] = nxt.get(i + j, 0) + c * Fraction(1, math.factorial(j))
            power = nxt
        return power

    @pytest.mark.parametrize("M", range(1, 7))
    @pytest.mark.parametrize("top", range(7))
    def test_each_power_is_the_fraction_expansion_over_its_denominator(self, M, top):
        # top = 0 is the one-eavesdropper case: P_M^0 = 1 alone
        powers = poisson_powers(M, top)
        assert [k for k, *_rest in powers] == list(range(top + 1))
        for k, pick, denom, power in powers:
            assert pick == (-1) ** k * math.comb(top, k)
            assert denom == math.factorial(M - 1) ** k
            assert all(isinstance(c, int) for _i, c in power)
            assert [i for i, _c in power] == list(range(k * (M - 1) + 1))
            assert {i: Fraction(c, denom) for i, c in power} == self._fraction_power(M, k)


# K, N, M_D, M_E, lambda_D, lambda_E, zeta
KEY = (2, 3, 2, 2, 10.0, 3.0, 0.9)


class TestTermSum:
    @pytest.mark.parametrize("x, unity", [(0.5, 0.0), (1.0, 0.0), (40.0, 0.0),
                                          (1.0, 1.0), (2.5, 1.0), (40.0, 1.0)])
    def test_a_row_is_its_formula(self, x, unity):
        # c/den zeta^k lambda_D^-i lambda_E^(mu-theta) x^mu (x-u)^(i-mu)
        # e^(-k(x-u)/lambda_D) / (k x/lambda_D + (n+1)/lambda_E)^theta
        row = (-35, 6, 2, 1, 3, 1, 4)
        survival, bound = TermSum((row,), KEY).survival(x, unity)
        lam_d, lam_e, zeta = KEY[4:]
        expected = (-35 / 6 * zeta ** 2 * lam_d ** -3 * lam_e ** -3 * x * (x - unity) ** 2
                    * math.exp(-2 * (x - unity) / lam_d) / (2 * x / lam_d + 2 / lam_e) ** 4)
        assert survival == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert 0.0 <= bound <= 1e-12 * abs(survival)

    @pytest.mark.parametrize("x", [1.0, 2.0, 3.7, 41.5])
    def test_eval_is_one_minus_the_survival_bit_for_bit(self, x):
        term_sum = build_cdf_term_sum(SystemConfig(
            K=2, N=3, M_D=2, M_E=2, lambda_D=10.0, lambda_E=3.0, zeta=0.9,
            R_th=1.0, scheme="SS", knowledge="KA"))
        assert term_sum.key == KEY
        assert term_sum.eval(x).hex() == (1.0 - term_sum.survival(x, 1.0)[0]).hex()

    def test_at_x_one_only_the_rows_without_x_minus_one_count(self):
        # (x - 1)^(i - mu) vanishes at x = 1 for i > mu
        term_sum = build_cdf_term_sum(SystemConfig(
            K=2, N=3, M_D=2, M_E=2, lambda_D=10.0, lambda_E=3.0, zeta=0.9,
            R_th=0.0, scheme="SS", knowledge="KA"))
        kept = TermSum(tuple(r for r in term_sum.terms if r[4] == r[5]), term_sum.key)
        assert len(kept.terms) < len(term_sum.terms)
        assert term_sum.survival(1.0, 1.0) == kept.survival(1.0, 1.0)

    def test_no_rows_is_a_certain_outage(self):
        # zeta = 0: no link ever transmits
        term_sum = TermSum((), KEY[:-1] + (0.0,))
        assert term_sum.eval(2.0) == 1.0 and term_sum.survival(2.0, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("lam_d, lam_e, scale", [
        (10.0 ** -323, 10.0, "inf at x=2.0, k=1, n=0"), (1.0, 1e-310, "inf at x=2.0, k=1, n=0")])
    def test_a_kernel_scale_outside_the_double_range_raises_naming_the_row(self, lam_d, lam_e,
                                                                             scale):
        term_sum = build_cdf_term_sum(SystemConfig(
            K=1, N=1, M_D=1, M_E=1, lambda_D=lam_d, lambda_E=lam_e, zeta=1.0, R_th=1.0,
            scheme="SS", knowledge="KA"))
        with pytest.raises(ArithmeticError, match=rf"kernel scale .* = {scale} is outside the "
                           r"double range, in the outage of K=1 N=1 M_D=1 M_E=1 zeta=1 ") as info:
            term_sum.eval(2.0)
        assert not isinstance(info.value, ValueError)


class TestPrecisionLadder:
    # SS K=N=M=3 at lambda_D = 60 dB: the outage CDF at rho = 2 is ~5e-42
    # while its terms sum to ~50 in magnitude, so only the mpmath path can
    # certify it. The default ladder does (60 digits suffice); a ladder cut
    # to one 20-digit rung cannot, and must say so rather than return noise.
    DEEP_TAIL = SystemConfig(K=3, N=3, M_D=3, M_E=3, lambda_D=1e6,
                             lambda_E=10.0 ** 0.5, zeta=1.0, R_th=1.0,
                             scheme="SS", knowledge="KA")

    def test_deep_tail_certified_by_the_default_ladder(self):
        assert sop(self.DEEP_TAIL).value == pytest.approx(5.036e-42, rel=1e-3)

    def test_exhausted_ladder_raises(self, monkeypatch):
        monkeypatch.setattr(algebra, "_MP_DPS_LADDER", (20,))
        with pytest.raises(ArithmeticError, match="20-digit rounding floor"):
            sop(self.DEEP_TAIL)

    @pytest.mark.parametrize("zeta, x", [(1.0, 2.0), (0.9, 3.7)])
    def test_hoisted_factors_give_each_rows_own_product(self, zeta, x):
        # _mp_terms computes each power and exponential once per call; every
        # value must keep the mpf bits of the row's own product at the
        # ladder's first two rungs, on the deep tail (which escalates) and
        # with zeta below 1
        import mpmath

        term_sum = build_cdf_term_sum(replace(self.DEEP_TAIL, zeta=zeta))
        for dps in (60, 120):
            with mpmath.workdps(dps):
                lam_d, lam_e, zeta_mp, xx = map(mpmath.mpf, term_sum.key[4:] + (x,))
                w = xx - 1
                per_row = [1] + [
                    -(mpmath.mpf(c) / den * zeta_mp ** k * lam_d ** -i * lam_e ** (mu - theta)
                      * xx ** mu * w ** (i - mu) * mpmath.exp(-k * w / lam_d)
                      / (k * xx / lam_d + (n + 1) / lam_e) ** theta)
                    for c, den, k, n, i, mu, theta in term_sum.terms]
                hoisted = term_sum._mp_terms(mpmath, x)
                assert ([mpmath.mpf(v)._mpf_ for v in hoisted]
                        == [mpmath.mpf(v)._mpf_ for v in per_row])
