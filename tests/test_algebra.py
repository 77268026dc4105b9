import itertools
import math
import random
from fractions import Fraction

import pytest

from secrecy_lab import algebra
from secrecy_lab.algebra import (
    CapacityError,
    ExactTermRecipe,
    RationalExpTerm,
    TermSum,
    expand_powers_of_sum,
    materialize_recipes,
    partial_fractions,
)
from secrecy_lab.channel import SystemConfig
from secrecy_lab.sop import _integer_powers, build_cdf_term_sum, sop


def _power(inner, kappa):
    """(sum of inner terms)^kappa, the last power expand_powers_of_sum yields."""
    *_, last = expand_powers_of_sum(inner, kappa)
    return last


def _as_mapping(expanded):
    """{exponent vector: coefficient}; the expansion never repeats a vector."""
    mapping = {t[1:]: t[0] for t in expanded}
    assert len(mapping) == len(expanded)
    return mapping


class TestExpandPowerOfSum:
    def test_single_term_is_raised_componentwise(self):
        term = (2.0, 1, 3)
        out = _power([term], kappa=4)
        assert len(out) == 1
        coeff, xp, yp = out[0]
        assert xp == 4 and yp == 12
        assert coeff == pytest.approx(16.0, rel=1e-12)

    def test_binomial_square(self):
        one = (1.0, 0, 0)
        y = (1.0, 0, 1)
        got = _as_mapping(_power([one, y], kappa=2))
        assert got == {(0, 0): pytest.approx(1.0), (0, 1): pytest.approx(2.0),
                       (0, 2): pytest.approx(1.0)}

    def test_matches_direct_power_numerically(self):
        rng = random.Random(7)
        for _ in range(6):
            inner = [(rng.uniform(-2.0, 2.0), rng.randint(0, 2),
                      rng.randint(0, 2)) for _ in range(3)]
            out = _power(inner, kappa=3)
            for _ in range(20):
                x, y = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
                direct = sum(c * x ** i * y ** j for c, i, j in inner) ** 3
                expanded = sum(c * x ** i * y ** j for c, i, j in out)
                assert expanded == pytest.approx(direct, rel=1e-10)

    def test_works_on_exact_fractions(self):
        inner = [(Fraction(1, 2), 1, 0), (Fraction(-1, 3), 0, 1)]
        got = _as_mapping(_power(inner, kappa=2))
        assert got[(2, 0)] == Fraction(1, 4)
        assert got[(1, 1)] == Fraction(-1, 3)
        assert got[(0, 2)] == Fraction(1, 9)

    @pytest.mark.parametrize("inner", [
        [(Fraction(1, 2), 1, 0), (Fraction(-1, 3), 0, 1)],
        [(Fraction(3, 4), 0, 0), (Fraction(-5, 6), 1, 0), (Fraction(7, 10), 1, 1),
         (Fraction(1, 15), 0, 0)],
        [(Fraction(2), 2, 1), (Fraction(-1, 6), 0, 2), (Fraction(5, 12), 1, 2)],
        [(Fraction(-9, 14), 1, 0, 3), (Fraction(4, 21), 0, 3, 0)],
    ])
    @pytest.mark.parametrize("kappa", [1, 2, 3, 4])
    def test_integer_scaled_expansion_is_the_fraction_expansion(self, inner, kappa):
        # the recipe builders expand integers over a common denominator D
        # and divide by D^k; every ascending power must be the Fraction
        # expansion of that power exactly
        powers = list(_integer_powers(inner, kappa))
        assert len(powers) == kappa
        for (denom_power, expanded), reference in zip(powers,
                                                      expand_powers_of_sum(inner, kappa)):
            assert all(isinstance(t[0], int) for t in expanded)
            scaled_back = [(Fraction(t[0], denom_power),) + t[1:] for t in expanded]
            assert _as_mapping(scaled_back) == _as_mapping(reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_exponents_and_wide_vectors_match_every_product(self, seed):
        # the expansion packs each exponent vector into one integer code;
        # the k-fold product over every ordered pick of inner terms is the
        # reference, term for term
        rng = random.Random(seed)
        width = rng.randint(1, 5)
        inner = [(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)),)
                 + tuple(rng.randint(-4, 3) for _ in range(width))
                 for _ in range(rng.randint(1, 4))]
        for k, out in enumerate(expand_powers_of_sum(inner, 3), start=1):
            merged = {}
            for picks in itertools.product(inner, repeat=k):
                exps = tuple(map(sum, zip(*(t[1:] for t in picks))))
                merged[exps] = merged.get(exps, 0) + math.prod(t[0] for t in picks)
            assert _as_mapping(out) == merged

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setattr(algebra, "EXPANSION_TERM_CAP", 100)
        inner = [(Fraction(1), i, 0) for i in range(10)]
        with pytest.raises(CapacityError):
            _power(inner, kappa=5)

    def test_ascending_powers_hit_the_cap_at_the_same_power(self, monkeypatch):
        # power k multiplies a power of 9k - 8 terms by 10 inner terms, so a
        # cap of 100 first fails at k = 3 (10 * 10 = 100 passes at k = 2)
        monkeypatch.setattr(algebra, "EXPANSION_TERM_CAP", 100)
        inner = [(Fraction(1), i, 0) for i in range(10)]
        for k in (1, 2):
            assert len(_power(inner, k)) == 9 * k + 1
        with pytest.raises(CapacityError):
            _power(inner, 3)
        powers = expand_powers_of_sum(inner, 4)
        assert [len(next(powers)) for _ in range(2)] == [10, 19]
        with pytest.raises(CapacityError, match="190 raw terms"):
            next(powers)


class TestPartialFractions:
    def test_two_simple_poles_telescope(self):
        rows = partial_fractions(((1.0, 1), (2.0, 1)))
        assert rows[0][0] == pytest.approx(1.0, rel=1e-12)
        assert rows[1][0] == pytest.approx(-1.0, rel=1e-12)

    def test_zero_pole_with_double_pole(self):
        rows = partial_fractions(((0.0, 1), (2.0, 2)))
        assert rows[0][0] == pytest.approx(0.25, rel=1e-12)
        assert rows[1][0] == pytest.approx(-0.25, rel=1e-12)
        assert rows[1][1] == pytest.approx(-0.5, rel=1e-12)

    def test_recombination_random_pole_sets(self):
        rng = random.Random(20260815)
        for _ in range(12):
            count = rng.randint(1, 4)
            locations = rng.sample([0.5, 1.0, 1.5, 2.5, 4.0, 7.0], count)
            poles = tuple((b, rng.randint(1, 3)) for b in locations)
            if sum(m for _, m in poles) > 12:
                continue
            rows = partial_fractions(poles)
            for _ in range(50):
                x = rng.uniform(1.0, 100.0)
                direct = 1.0
                for b, m in poles:
                    direct /= (x + b) ** m
                recombined = sum(
                    c / (x + b) ** t
                    for (b, _m), row in zip(poles, rows)
                    for t, c in enumerate(row, start=1))
                assert recombined == pytest.approx(direct, rel=1e-9)

    def test_coincident_locations_rejected(self):
        with pytest.raises(ValueError, match="grouped"):
            partial_fractions(((1.0, 1), (1.0, 2)))

    def test_memo_cannot_be_poisoned(self):
        poles = ((0.0, 1), (2.0, 2), (5.0, 3))
        numer_poles = poles[1:]
        partial_fractions.cache_clear()
        cold = partial_fractions(poles)
        cold_numer = partial_fractions(numer_poles, 2)
        # what a caller receives is immutable at every level, so no caller
        # can rewrite the memoized rows that later calls share
        for rows in (partial_fractions(poles),
                     partial_fractions(numer_poles, 2)):
            with pytest.raises(TypeError):
                rows[0] = (99.0,)
            with pytest.raises(TypeError):
                rows[1][0] = 99.0
            with pytest.raises(AttributeError):
                rows[1].append(99.0)
        assert partial_fractions(poles) == cold
        assert partial_fractions(numer_poles, 2) == cold_numer
        assert partial_fractions.cache_info().hits >= 3


class TestRationalExpTerm:
    def test_value_at(self):
        term = RationalExpTerm(log_coeff=math.log(2.0), sign=1,
                               poly_power=1, exp_rate=0.5,
                               poles=((1.0, 2),))
        x = 3.0
        assert term.value_at(x) == pytest.approx(
            2.0 * x * math.exp(-0.5 * x) / (x + 1.0) ** 2, rel=1e-12)

    def test_positive_pole_locations_enforced(self):
        with pytest.raises(ValueError):
            RationalExpTerm(log_coeff=0.0, sign=1,
                            poly_power=0, exp_rate=1.0, poles=((-1.0, 1),))

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_is_plus_or_minus_one(self, sign):
        # materialized terms never carry a zero coefficient
        with pytest.raises(ValueError, match="sign"):
            RationalExpTerm(log_coeff=0.0, sign=sign,
                            poly_power=0, exp_rate=1.0, poles=((1.0, 1),))


class TestTermSumAndRecipes:
    def test_materialized_recipes_evaluate_like_the_formula(self):
        # c = 1/6 * zeta^2 * lam_D^-1 * lam_E^-2, pole at (3/2)*lam_D/lam_E
        recipe = ExactTermRecipe(frac=Fraction(1, 6), zeta_pow=2,
                                 lam_dest_pow=-1, lam_eve_pow=-2, exp_k=2,
                                 poly_power=1, poles=((Fraction(3, 2), 2),))
        lam_d, lam_e, zeta = 8.0, 2.0, 0.7
        terms = materialize_recipes([recipe], lam_d, lam_e, zeta)
        assert len(terms) == 1
        term = terms[0]
        x = 2.5
        # the exponential enters as e^(k(1-x)/lam_D): the decay in x plus a
        # constant factor folded into the coefficient
        expected = ((1.0 / 6.0) * zeta ** 2 / (lam_d * lam_e ** 2)
                    * x * math.exp(2.0 * (1.0 - x) / lam_d)
                    / (x + 1.5 * lam_d / lam_e) ** 2)
        assert term.value_at(x) == pytest.approx(expected, rel=1e-12)
        assert term.exp_rate == pytest.approx(2.0 / lam_d, rel=1e-15)

    def test_eval_is_constant_minus_terms(self):
        term = RationalExpTerm(log_coeff=math.log(0.25), sign=1,
                               poly_power=0, exp_rate=1.0, poles=((1.0, 1),))
        ts = TermSum(terms=(term,), recipes=(), scales=(1.0, 1.0, 1.0))
        x = 2.0
        assert ts.eval(x) == pytest.approx(
            1.0 - 0.25 * math.exp(-x) / (x + 1.0), rel=1e-12)


class TestSharedPoles:
    # materialize_recipes computes each recipe pole tuple's floats once,
    # keyed by the tuple's identity; that may change no bit

    @staticmethod
    def _recipe(frac, poles):
        return ExactTermRecipe(frac, 1, -1, 2, 1, 1, poles)

    def test_equal_poles_in_distinct_tuples_materialize_like_shared_ones(self):
        shared = ((Fraction(3, 2), 2), (Fraction(5, 3), 1))
        twin = tuple((Fraction(r.numerator, r.denominator), m) for r, m in shared)
        assert twin == shared and twin is not shared
        args = (8.0, 2.0, 0.7)
        one = materialize_recipes([self._recipe(Fraction(1, 3), shared),
                                   self._recipe(Fraction(-2, 7), shared)], *args)
        two = materialize_recipes([self._recipe(Fraction(1, 3), shared),
                                   self._recipe(Fraction(-2, 7), twin)], *args)
        assert one == two
        assert one[0].poles is one[1].poles  # one float tuple per recipe tuple
        assert one[0].poles == ((3 * 8.0 / (2 * 2.0), 2), (5 * 8.0 / (3 * 2.0), 1))

    def test_fresh_tuples_from_a_generator_keep_their_own_poles(self):
        # no recipe is freed during the call, so no identity is reused
        terms = materialize_recipes(
            (self._recipe(Fraction(1, n), ((Fraction(n, 7), 1),)) for n in range(1, 200)),
            8.0, 2.0, 0.7)
        assert [t.poles for t in terms] == [((n * 8.0 / (7 * 2.0), 1),) for n in range(1, 200)]

    @pytest.mark.parametrize("lam_d, lam_e, location", [
        (10.0 ** -323, 10.0, "0.0"), (1e300, 1e-300, "inf")])
    def test_pole_outside_the_double_range_raises_naming_its_ratio(self, lam_d, lam_e,
                                                                   location):
        recipe = self._recipe(Fraction(1, 3), ((Fraction(3, 2), 1),))
        with pytest.raises(ArithmeticError, match=rf"pole location 3/2 \* lambda_D / "
                           rf"lambda_E = {location} ") as info:
            materialize_recipes([recipe], lam_d, lam_e, 0.7)
        assert not isinstance(info.value, ValueError)

    @pytest.mark.parametrize("frac", [Fraction(-3, 4), Fraction(-10 ** 400, 3)])
    def test_negative_coefficient_gives_minus_one_and_log_of_its_magnitude(self, frac):
        (term,) = materialize_recipes(
            [ExactTermRecipe(frac, 0, 0, 0, 0, 0, ((Fraction(1), 1),))], 2.0, 3.0, 0.5)
        assert term.sign == -1
        assert term.log_coeff == math.log(-frac.numerator) - math.log(frac.denominator)

    @pytest.mark.parametrize("x", [1.0, 2.0, 3.7, 41.5])
    def test_eval_is_one_minus_the_exact_sum_of_each_term_bit_for_bit(self, x):
        term_sum = build_cdf_term_sum(SystemConfig(
            K=2, N=3, M_D=2, M_E=2, lambda_D=10.0, lambda_E=3.0, zeta=0.9,
            R_th=1.0, scheme="OS", knowledge="KA"))
        assert len({b for t in term_sum.terms for b, _m in t.poles}) > 1
        values = [t.value_at(x) for t in term_sum.terms]
        assert term_sum.eval(x).hex() == (1.0 - math.fsum(values)).hex()
        # each term has the bits of the direct formula
        for term, value in zip(term_sum.terms, values):
            log_val = term.log_coeff - term.exp_rate * x
            if term.poly_power:
                log_val += term.poly_power * math.log(x)
            for b, m in term.poles:
                log_val -= m * math.log(x + b)
            assert value.hex() == (term.sign * math.exp(log_val)).hex()


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
