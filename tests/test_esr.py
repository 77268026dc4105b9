"""Rate integration layer: kernels, term integrals, and full rate values.

Golden and frozen constants were produced by independent quadrature (mpmath
plus scipy cross-checks) before the closed forms were wired up.
"""

import logging
import math
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from scipy.integrate import quad

from secrecy_lab import esr as esr_module
from secrecy_lab.algebra import RationalExpTerm, TermSum
from secrecy_lab.channel import SystemConfig
from secrecy_lab.esr import (
    DivergenceError,
    EsrResult,
    _kernel,
    esr_asymptotic,
    esr_exact,
    esr_high_snr,
    integrate_term,
)
from secrecy_lab.oracles import quad_cdf_ratio, quad_esr
from secrecy_lab.sop import (
    build_cdf_term_sum,
    build_high_snr_term_sum,
    cdf_ratio,
    one_link_base,
    sop,
)

# double quadrature of the defining rate integral at K=N=1, M_D=M_E=1,
# lam_D=100, lam_E=1, zeta=1; equals (e^(1/lam)/ln2)(E1(1/lam) - e E1((1+lam)/lam))
GOLDEN_RATE = 5.0294816453969297

E_GAMMA_0_2 = 0.1329253696600895     # e * Gamma(0, 2)
E2_GAMMA_0_2P2 = 0.27480739805974807  # e^2 * Gamma(0, 2.2)
LN_2 = 0.69314718055994531

# float.hex of (esr_exact, esr_high_snr, esr_asymptotic) at zeta = 0.9,
# recorded before the kernels and partial-fraction rows were memoized, and
# re-derived once when the rate's term contributions came to be summed by
# math.fsum (from the earlier code's contributions, summed that way); keys
# (K, N, M_D, M_E), lambda_D, lambda_E, scheme, knowledge. The OS rows were
# re-pinned when OS over K >= 2 links came to integrate its one-link sum,
# each checked within 1e-9 relative of its reference first: quad_esr for the
# exact rate, a 40-digit quadrature of the K-fold unity-dropped recipes for
# the high-SNR rate and the asymptote. The last two rows are closed_ladder's
# OS (2, 3, 3, 3) row.
LADDER_LAMBDA_E = 10.0 ** 0.5
PINNED_RATE_HEXES = {
    ((2, 2, 2, 2), 10.0, 2.0, "SS", "KA"): (
        "0x1.fa3dada2423b5p+0", "0x1.1ade76525111dp+1", "0x1.178130d93a418p+1"),
    ((2, 2, 2, 2), 10.0, 2.0, "SS", "KU"): (
        "0x1.e1ba7ab00dab2p+0", "0x1.0cb2eb4b5550dp+1", "0x1.0b7c72220acb2p+1"),
    ((2, 2, 2, 2), 10.0, 2.0, "OS", "KA"): (
        "0x1.0790fd8b3d37ep+1", "0x1.29db6f41c86afp+1", "0x1.26f9c8564f406p+1"),
    ((2, 2, 2, 2), 10.0, 2.0, "OS", "KU"): (
        "0x1.f8f109a2f6c8ap+0", "0x1.1d5a38c72f41ep+1", "0x1.1cad1a74221edp+1"),
    ((3, 2, 2, 3), 100.0, LADDER_LAMBDA_E, "SS", "KA"): (
        "0x1.1cf3eb8652692p+2", "0x1.2526e2d942ab0p+2", "0x1.2523f2b6b6223p+2"),
    ((2, 3, 3, 3), 100.0, LADDER_LAMBDA_E, "OS", "KA"): (
        "0x1.24ccc3dd98f65p+2", "0x1.2c426b2028e7fp+2", "0x1.2c4181b068863p+2"),
    ((2, 3, 3, 3), 100.0, LADDER_LAMBDA_E, "OS", "KU"): (
        "0x1.1043ba11f2d52p+2", "0x1.1733e45e073f6p+2", "0x1.1733e40160159p+2"),
}

# SS esr_asymptotic at lambda_D = 1e4, lambda_E = 2, recorded with a direct
# float sum of the log-affine limit; keys (K, N, M_D, M_E), knowledge, zeta
SS_ASYMPTOTIC_RATES = {
    ((2, 2, 2, 2), "KA", 0.5): 8.89612116477321,
    ((2, 2, 2, 2), "KA", 1.0): 12.287712379549454,
    ((2, 2, 2, 2), "KU", 0.5): 6.143856189774727,
    ((2, 2, 2, 2), "KU", 1.0): 12.287712379549454,
    ((3, 2, 2, 3), "KA", 0.5): 10.03434981751342,
    ((3, 2, 2, 3), "KA", 1.0): 11.983072144310775,
    ((3, 2, 2, 3), "KU", 0.5): 5.991536072155387,
    ((3, 2, 2, 3), "KU", 1.0): 11.983072144310775,
    ((2, 3, 3, 1), "KA", 0.5): 9.90355647612664,
    ((2, 3, 3, 1), "KA", 1.0): 13.540791021298467,
    ((2, 3, 3, 1), "KU", 0.5): 6.770395510649234,
    ((2, 3, 3, 1), "KU", 1.0): 13.540791021298467,
}


def _cfg(**overrides):
    base = dict(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0, lambda_E=1.0,
                zeta=1.0, R_th=1.0, scheme="SS", knowledge="KA")
    base.update(overrides)
    return SystemConfig(**base)


def _unit_term(poly_power, exp_rate, poles):
    return RationalExpTerm(log_coeff=0.0, sign=1,
                           poly_power=poly_power, exp_rate=exp_rate,
                           poles=poles)


class TestIntegrateTerm:
    def test_exponential_over_simple_pole(self):
        # integral_1^inf e^-x/(x+1) dx
        term = _unit_term(poly_power=1, exp_rate=1.0, poles=((1.0, 1),))
        assert integrate_term(term) == pytest.approx(E_GAMMA_0_2, rel=1e-12)

    def test_telescoping_logarithm(self):
        # integral_1^inf 1/(x(x+1)) dx = ln 2
        term = _unit_term(poly_power=0, exp_rate=0.0, poles=((1.0, 1),))
        assert integrate_term(term) == pytest.approx(LN_2, rel=1e-12)

    def test_power_over_triple_pole(self):
        # integral_1^inf x/(x+2)^3 dx = 2/9 by the hand antiderivative
        # -(x+2)^-1 + 2 (x+2)^-2 evaluated... directly checked by quadrature
        term = _unit_term(poly_power=2, exp_rate=0.0, poles=((2.0, 3),))
        assert integrate_term(term) == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_divergent_tail_rejected(self):
        bad = _unit_term(poly_power=2, exp_rate=0.0, poles=((1.0, 1),))
        with pytest.raises(DivergenceError):
            integrate_term(bad)
        no_poles = _unit_term(poly_power=1, exp_rate=0.0, poles=())
        with pytest.raises(DivergenceError):
            integrate_term(no_poles)

    def test_sub_floor_rate_diverges_like_zero(self):
        # a rate below the support floor takes the rational branch, so it
        # must meet the same convergence test as rate 0
        for rate in (0.0, 1e-301):
            bad = _unit_term(poly_power=3, exp_rate=rate, poles=((1.0, 1),))
            with pytest.raises(DivergenceError):
                integrate_term(bad)
        fine = _unit_term(poly_power=0, exp_rate=1e-301, poles=((1.0, 1),))
        assert integrate_term(fine) == pytest.approx(LN_2, rel=1e-12)

    def test_sub_floor_rate_warns_once_per_shape_per_rate(self, caplog):
        # at lambda_D = 1e301 every exact term's rate k/lambda_D is below
        # 1e-300; each distinct shape is integrated, and warns, once per
        # rate call, and its warning names the rate it replaced
        cfg = _cfg(K=2, N=2, M_D=1, M_E=1, lambda_D=1e301, lambda_E=10.0)
        shapes = {(t.exp_rate, t.poly_power, t.poles)
                  for t in build_cdf_term_sum(cfg).terms}
        assert len({rate for rate, _p, _poles in shapes}) == 2
        assert all(0.0 < rate < 1e-300 for rate, _p, _poles in shapes)
        expected = Counter(f"{rate:.3e}" for rate, _p, _poles in shapes)
        with caplog.at_level(logging.WARNING, logger="secrecy_lab.esr"):
            for _ in range(2):
                caplog.clear()
                assert esr_exact(cfg).value > 0.0
                assert Counter(f"{r.args[0]:.3e}" for r in caplog.records) == expected
        assert all(r.levelno == logging.WARNING and "below the support floor" in r.getMessage()
                   for r in caplog.records)

    def test_matches_quadrature_random_terms(self):
        # integrate_term takes one pole; a two-pole draw must raise
        rng = random.Random(99)
        for _ in range(25):
            p = rng.randint(0, 3)
            a = rng.choice([0.0, rng.uniform(0.01, 2.0)])
            count = rng.randint(1, 2)
            locations = rng.sample([0.5, 1.5, 3.0, 8.0], count)
            poles = tuple((b, rng.randint(1, 3)) for b in locations)
            if a == 0.0 and sum(m for _, m in poles) <= p:
                continue
            term = _unit_term(p, a, poles)
            if count == 2:
                with pytest.raises(ValueError, match="one pole"):
                    integrate_term(term)
                continue

            def shape(x):
                value = x ** (p - 1) * math.exp(-a * x)
                for b, m in poles:
                    value /= (x + b) ** m
                return value

            est, _ = quad(shape, 1.0, math.inf, limit=800,
                          epsabs=0.0, epsrel=1e-12)
            assert integrate_term(term) == pytest.approx(est, rel=1e-9)


class TestKernels:
    # rate a = k/lam_D; the K-link SS recipes put the pole at
    # (n+1) lam_D/(k lam_E), the one-link recipes that OS reads at
    # (n+1) lam_D/lam_E
    def test_ss_pole_frozen_value(self):
        # lam_D = lam_E = 1, k = 1, n = 0
        assert _kernel(1.0, 1.0, 0) == pytest.approx(E_GAMMA_0_2, rel=1e-12)

    def test_os_pole_frozen_value(self):
        # lam_D = 10, lam_E = 1, k = 2, n = 0
        assert _kernel(0.2, 10.0, 0) == pytest.approx(E2_GAMMA_0_2P2, rel=1e-12)

    @pytest.mark.parametrize("pole", ["SS", "OS"])
    def test_gamma_recurrence(self, pole):
        # a K(theta-1) + theta K(theta) = e^-a (1+b)^-theta for the kernel's
        # own rate a and pole b
        cfg = _cfg(K=3, lambda_D=5.0, lambda_E=1.5)
        k, n = 2, 1
        a = k / cfg.lambda_D
        if pole == "SS":
            b = (n + 1) * cfg.lambda_D / (k * cfg.lambda_E)
        else:
            b = (n + 1) * cfg.lambda_D / cfg.lambda_E
        for theta in range(0, 5):
            lhs = a * _kernel(a, b, theta - 1) + theta * _kernel(a, b, theta)
            rhs = math.exp(-a) / (1.0 + b) ** theta
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("a, b, theta, ref", [
        # mpmath a^theta e^(ab) Gamma(-theta, a(1+b)) at 40 digits
        (1.0, 1000.0, 0, 3.67145515824e-4),
        (1.0, 1000.0, 2, 3.65683142403e-10),
        (1.0, 745.0, 0, 4.92476705071e-4),
        (0.5, 2000.0, 1, 3.02358478784e-7),
    ])
    def test_past_the_incomplete_gamma_underflow(self, a, b, theta, ref):
        # Gamma(-theta, a(1+b)) underflows a double once a(1+b) passes about
        # 708, while the kernel itself stays of order 1/b
        assert _kernel(a, b, theta) == pytest.approx(ref, rel=1e-9)

    def test_kernels_match_defining_integrals(self):
        rng = random.Random(31)
        for _ in range(10):
            cfg = _cfg(K=3, N=3,
                       lambda_D=rng.uniform(0.5, 300.0),
                       lambda_E=rng.uniform(0.5, 6.0))
            theta = rng.randint(0, 4)
            k = rng.randint(1, 3)
            n = rng.randint(0, 2)
            a = k / cfg.lambda_D
            for b in ((n + 1) * cfg.lambda_D / (k * cfg.lambda_E),
                      (n + 1) * cfg.lambda_D / cfg.lambda_E):
                est, _ = quad(lambda x: math.exp(-a * x) / (x + b) ** (theta + 1),
                              1.0, math.inf, limit=800, epsabs=0.0, epsrel=1e-12)
                assert _kernel(a, b, theta) == pytest.approx(est, rel=1e-9)


class TestExactRate:
    def test_golden_value(self):
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=100.0)
        assert esr_exact(cfg).value == pytest.approx(GOLDEN_RATE, rel=1e-12)

    def test_no_backhaul_is_zero(self):
        result = esr_exact(_cfg(zeta=0.0))
        assert result.value == 0.0
        assert result.form == "exact"

    def test_matches_quadrature_on_grid(self):
        for K, N, M_D, M_E, zeta, lam_d, scheme in product(
                (1, 2), (1, 2), (1, 2), (1, 2), (0.5, 1.0),
                (1.0, 10.0, 100.0), ("SS", "OS")):
            cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, zeta=zeta,
                       lambda_D=lam_d, lambda_E=1.0, scheme=scheme)
            assert esr_exact(cfg).value == pytest.approx(
                quad_esr(cfg), abs=1e-5)

    @pytest.mark.parametrize("cfg", [
        _cfg(lambda_D=10.0, lambda_E=1e-3, zeta=0.9),
        _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=1.0, lambda_E=1e-3),
    ], ids=["SS-2222-10dB-zeta0.9", "1111-0dB"])
    def test_matches_quadrature_far_below_eavesdropper_snr(self, cfg):
        # at lambda_E = -30 dB the kernels' incomplete gammas are taken at
        # a(1+b) of about (n+1)/lambda_E >= 1000, where their values
        # underflow a double
        assert esr_exact(cfg).value == pytest.approx(quad_esr(cfg), abs=1e-5)

    def test_gate_scaling_identity(self):
        for scheme in ("SS", "OS"):
            on = esr_exact(_cfg(scheme=scheme, knowledge="KU", zeta=1.0)).value
            half = esr_exact(_cfg(scheme=scheme, knowledge="KU", zeta=0.5)).value
            assert half == pytest.approx(0.5 * on, rel=1e-12)

    def test_gate_scaling_is_linear(self):
        values = {z: esr_exact(_cfg(knowledge="KU", zeta=z)).value
                  for z in (0.25, 0.5, 1.0)}
        slope_a = (values[1.0] - values[0.5]) / 0.5
        slope_b = (values[0.5] - values[0.25]) / 0.25
        assert slope_a == pytest.approx(slope_b, rel=1e-12)

    def test_single_transmitter_collapses_choices(self):
        reference = None
        for scheme, knowledge in product(("SS", "OS"), ("KA", "KU")):
            value = esr_exact(_cfg(K=1, zeta=0.8, scheme=scheme,
                                   knowledge=knowledge)).value
            if reference is None:
                reference = value
            assert value == pytest.approx(reference, rel=1e-12)

    def test_monotone_in_parameters(self):
        base = _cfg(zeta=0.8, lambda_D=10.0, lambda_E=1.0, N=2)
        value = esr_exact(base).value
        assert esr_exact(replace(base, lambda_D=20.0)).value >= value - 1e-9
        assert esr_exact(replace(base, zeta=0.9)).value >= value - 1e-9
        assert esr_exact(replace(base, N=1)).value >= value - 1e-9
        assert esr_exact(replace(base, lambda_E=0.5)).value >= value - 1e-9

    def test_ratio_scheme_dominates(self):
        for K, zeta, lam_d in product((2, 3), (0.6, 1.0), (2.0, 30.0)):
            ss = esr_exact(_cfg(K=K, zeta=zeta, lambda_D=lam_d)).value
            os_ = esr_exact(_cfg(K=K, zeta=zeta, lambda_D=lam_d,
                                 scheme="OS")).value
            assert os_ >= ss - 1e-9

    def test_negative_value_rejected_by_result_type(self):
        with pytest.raises(ValueError):
            EsrResult(value=-0.1, form="exact", term_count=1)


class TestHighSnrRate:
    def test_tracks_exact_at_design_point(self):
        cfg = _cfg(lambda_D=1e3, lambda_E=10.0 ** 0.9)
        gap = abs(esr_high_snr(cfg).value - esr_exact(cfg).value)
        assert gap <= 0.05

    def test_gate_scaling_identity(self):
        on = esr_high_snr(_cfg(knowledge="KU", zeta=1.0, lambda_D=1e3)).value
        part = esr_high_snr(_cfg(knowledge="KU", zeta=0.7, lambda_D=1e3)).value
        assert part == pytest.approx(0.7 * on, rel=1e-12)

    def test_single_transmitter_schemes_coincide(self):
        ss = esr_high_snr(_cfg(K=1, lambda_D=1e3)).value
        os_ = esr_high_snr(_cfg(K=1, lambda_D=1e3, scheme="OS")).value
        assert ss == pytest.approx(os_, rel=1e-12)

    def test_form_label(self):
        assert esr_high_snr(_cfg(lambda_D=1e3)).form == "high_snr"

    def test_negative_term_sum_raises_instead_of_reading_zero(self):
        # SS K=4, N=3, M_D=1, M_E=4 at (-7, 10) dB: the 48 unity-dropped
        # terms cancel to -5.1e-15, which a clamp would report as a rate of
        # exactly 0; the asymptote of the same terms is affine and may clamp
        # to 0
        cfg = _cfg(K=4, N=3, M_D=1, M_E=4, lambda_D=10.0 ** -0.7, lambda_E=10.0, zeta=0.9)
        with pytest.raises(ArithmeticError, match="negative"):
            esr_high_snr(cfg)
        with pytest.raises(ArithmeticError, match="negative"):
            esr_high_snr(replace(cfg, knowledge="KU"))
        assert esr_asymptotic(cfg).value == 0.0

    def test_exact_rate_above_its_bound_raises(self):
        # SS K=2, N=4, M_D=4, M_E=1 at (4.5, -29.2) dB: the 416 exact terms
        # sum to 1,303.8 bpcu where quad_esr reads 3.737, above
        # log2(1 + K M_D lambda_D) = 4.56, a bound no secrecy rate exceeds;
        # KU meets it through its base
        cfg = _cfg(K=2, N=4, M_D=4, M_E=1, lambda_D=10.0 ** 0.45, lambda_E=10.0 ** -2.92,
                   zeta=0.9)
        for row in (cfg, replace(cfg, knowledge="KU")):
            with pytest.raises(ArithmeticError, match=r"exceeds the bound .* = 4\.55"):
                esr_exact(row)

    def test_os_row_that_broke_both_backstops_reads_quadrature(self):
        # OS K = N = M = 3 at 10 dB: its K-fold terms summed to 2,278.7 bpcu
        # (exact) and -139,147.8 (high-SNR); the one-link integral reads
        # quad_esr's 1.632
        cfg = _cfg(K=3, N=3, M_D=3, M_E=3, lambda_E=10.0 ** 0.5, zeta=0.9, scheme="OS")
        assert esr_exact(cfg).value == pytest.approx(quad_esr(cfg), rel=1e-9)
        assert 0.0 < esr_high_snr(cfg).value < math.inf


class TestAsymptoticRate:
    def test_slope_per_decade(self):
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=1e4)
        diff = (esr_asymptotic(replace(cfg, lambda_D=1e5)).value
                - esr_asymptotic(cfg).value)
        assert diff == pytest.approx(math.log2(10.0), abs=1e-3)

    def test_smallest_case_closed_form(self):
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=5e3, lambda_E=1.0)
        expected = math.log(cfg.lambda_D / cfg.lambda_E) / math.log(2.0)
        assert esr_asymptotic(cfg).value == pytest.approx(expected, rel=1e-12)

    def test_matches_high_snr_far_out(self):
        cfg = _cfg(lambda_D=1e4, lambda_E=1.0)
        assert abs(esr_asymptotic(cfg).value
                   - esr_high_snr(cfg).value) <= 0.05

    def test_single_transmitter_routes_agree(self):
        # the two scheme variants take different derivations internally
        for N, M_D, M_E in ((1, 1, 1), (2, 2, 1), (3, 1, 2)):
            cfg = _cfg(K=1, N=N, M_D=M_D, M_E=M_E, lambda_D=1e5)
            ss = esr_asymptotic(cfg).value
            os_ = esr_asymptotic(replace(cfg, scheme="OS")).value
            assert ss == pytest.approx(os_, rel=1e-10)

    @pytest.mark.parametrize("shape, knowledge, zeta", sorted(SS_ASYMPTOTIC_RATES))
    def test_ss_pinned_values(self, shape, knowledge, zeta):
        K, N, M_D, M_E = shape
        cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=1e4, lambda_E=2.0,
                   zeta=zeta, knowledge=knowledge)
        assert esr_asymptotic(cfg).value == pytest.approx(
            SS_ASYMPTOTIC_RATES[shape, knowledge, zeta], rel=1e-12)

    def test_gate_scaling(self):
        on = esr_asymptotic(_cfg(knowledge="KU", lambda_D=1e4, zeta=1.0)).value
        part = esr_asymptotic(_cfg(knowledge="KU", lambda_D=1e4, zeta=0.6)).value
        assert part == pytest.approx(0.6 * on, rel=1e-12)


class TestMemoizedKernels:
    @staticmethod
    def _hexes(rows):
        out = {}
        for key in rows:
            (K, N, M_D, M_E), lam_d, lam_e, scheme, knowledge = key
            cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=lam_d,
                       lambda_E=lam_e, zeta=0.9, scheme=scheme,
                       knowledge=knowledge)
            out[key] = tuple(rate(cfg).value.hex() for rate in
                             (esr_exact, esr_high_snr, esr_asymptotic))
        return out

    def test_pinned_bits_cold_warm_and_reversed(self):
        rows = list(PINNED_RATE_HEXES)
        _kernel.cache_clear()
        assert self._hexes(rows) == PINNED_RATE_HEXES
        assert _kernel.cache_info().hits > 0
        assert self._hexes(rows) == PINNED_RATE_HEXES
        _kernel.cache_clear()
        assert self._hexes(rows[::-1]) == PINNED_RATE_HEXES

    def test_memos_are_bounded(self):
        maxsize = _kernel.cache_parameters()["maxsize"]
        assert maxsize is not None and 0 < maxsize <= 65536


class TestShapeMemo:
    # SS K=3, N=3, M_D=M_E=3 at 20 dB: 1,161 exact terms over 237 shapes
    CFG = _cfg(K=3, N=3, M_D=3, M_E=3, lambda_D=100.0, lambda_E=LADDER_LAMBDA_E,
               zeta=0.9)

    @staticmethod
    def _count_calls(monkeypatch, integrator):
        calls = []

        def counted(term):
            calls.append(term)
            return integrator(term)
        monkeypatch.setattr(esr_module, "integrate_term", counted)
        return calls

    def test_each_shape_integrated_once_per_rate(self, monkeypatch):
        calls = self._count_calls(monkeypatch, integrate_term)
        result = esr_exact(self.CFG)
        assert result.term_count == 1161
        assert len(calls) == 237
        assert len({(t.exp_rate, t.poly_power, t.poles) for t in calls}) == 237

    def test_zero_integral_raises_naming_its_shape(self, monkeypatch):
        # every exact integrand is positive, so 0.0 is an underflow
        calls = self._count_calls(monkeypatch, lambda term: 0.0)
        with pytest.raises(ArithmeticError, match="exact rate: the integral of the term shape "
                           r"\(exp_rate=.*, poly_power=\d+, poles=.*\) is 0\.0, outside"):
            esr_exact(self.CFG)
        assert len(calls) == 1

    def test_overflow_raises_the_same_named_error(self, monkeypatch):
        def overflows(term):
            raise OverflowError(34, "Numerical result out of range")
        monkeypatch.setattr(esr_module, "integrate_term", overflows)
        with pytest.raises(ArithmeticError, match="high_snr rate: the integral of the term "
                           "shape .* is inf, outside the double range") as info:
            esr_high_snr(self.CFG)
        assert type(info.value) is ArithmeticError

    def test_divergence_still_propagates(self, monkeypatch):
        def diverges(term):
            raise DivergenceError("diverges")
        monkeypatch.setattr(esr_module, "integrate_term", diverges)
        with pytest.raises(DivergenceError):
            esr_exact(self.CFG)


class TestIntegralsOutsideTheDoubleRange:
    # SS/KA K = N = 1, M_E = 2, lambda_E = 10, zeta = 1, far above the usual
    # destination SNRs: a term integral of about ln(b)/b^2 at the pole b =
    # lambda_D/lambda_E underflows past lambda_D ~ 1e160, and at 1e301 one
    # more shape's rational branch overflows
    @staticmethod
    def _cfg(M_D, lambda_D):
        return _cfg(K=1, N=1, M_D=M_D, M_E=2, lambda_D=lambda_D, lambda_E=10.0, zeta=1.0)

    def test_still_finite_below_the_underflow(self):
        assert esr_exact(self._cfg(2, 1e150)).value == pytest.approx(494.84, rel=1e-4)

    @pytest.mark.parametrize("M_D, lambda_D", [(1, 1e200), (2, 1e200), (2, 1e301)])
    def test_raises_naming_the_shape(self, M_D, lambda_D):
        # these read 0.0, 0.1152 and a bare OverflowError before
        with pytest.raises(ArithmeticError, match="exact rate: the integral of the term "
                           "shape .* outside the double range") as info:
            esr_exact(self._cfg(M_D, lambda_D))
        assert type(info.value) is ArithmeticError

    def test_asymptotic_zero_integral_is_a_value(self):
        # the asymptote is affine in ln b; at a pole b = 1 its integral is 0.0
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=2.0, lambda_E=2.0, zeta=1.0)
        assert esr_asymptotic(cfg).value == 0.0


class TestScaleRatiosOutsideTheDoubleRange:
    # lambda_D / lambda_E far below the double range: the pole gaps of a
    # shape underflow, or the pole itself does; both used to raise a
    # ValueError, as if the config were invalid

    def test_underflowed_pole_gaps_are_a_numeric_error(self):
        cfg = _cfg(lambda_D=1e-30, lambda_E=1e290)
        with pytest.raises(ArithmeticError, match="underflows to 0.0") as info:
            esr_exact(cfg)
        assert not isinstance(info.value, ValueError)
        assert sop(cfg).value == 1.0  # the outage is still certified

    def test_underflowed_pole_is_a_numeric_error_naming_its_ratio(self):
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=10.0 ** -323, lambda_E=10.0)
        for rate in (esr_exact, esr_high_snr, esr_asymptotic):
            with pytest.raises(ArithmeticError, match=r"pole location 1 \* lambda_D / "
                               r"lambda_E = 0\.0") as info:
                rate(cfg)
            assert not isinstance(info.value, ValueError)
        with pytest.raises(ArithmeticError, match="pole location"):
            sop(cfg)


class TestOrderFree:
    # every closed-form series is summed by math.fsum, so a value depends
    # only on the multiset of its term values: reversing a term sum's terms
    # and recipes keeps every bit of its CDF and its rate (a pairwise sum
    # moved the last bits of both, on both configs)
    SS_CFG = _cfg(K=3, N=3, M_D=2, M_E=2, lambda_D=100.0, lambda_E=LADDER_LAMBDA_E,
                  zeta=0.9)

    @pytest.mark.parametrize("cfg", [TestShapeMemo.CFG, SS_CFG], ids=["SS-3333", "SS"])
    def test_reversed_terms_keep_every_bit(self, cfg, monkeypatch):
        term_sum = build_cdf_term_sum(cfg)
        reversed_sum = TermSum(terms=term_sum.terms[::-1], recipes=term_sum.recipes[::-1],
                               scales=term_sum.scales)
        for x in (1.0, 2.0, 3.7):
            assert reversed_sum.eval(x).hex() == term_sum.eval(x).hex()
        rate = esr_exact(cfg).value
        monkeypatch.setattr(esr_module, "build_cdf_term_sum", lambda cfg: reversed_sum)
        assert esr_exact(cfg).value.hex() == rate.hex()


# OS rows against the oracles: (K, N, M_D, M_E), zeta, lambda_D and lambda_E
# in dB. The K-fold expansion read the first five 4e-8 to 4e-3 relative off
# quad_esr, raised on the next two and ran out of capacity on (4, 4, 4, 4).
OS_ORACLE_ROWS = [
    ((3, 3, 2, 2), 0.9, 20.0, 5.0),
    ((4, 2, 2, 2), 0.9, 20.0, 5.0),
    ((2, 3, 3, 3), 0.9, 20.0, 5.0),
    ((3, 2, 3, 3), 0.9, 20.0, 5.0),
    ((2, 2, 4, 4), 0.9, 20.0, 5.0),
    ((3, 3, 3, 3), 1.0, 20.0, 5.0),
    ((4, 3, 3, 3), 1.0, 20.0, 5.0),
    ((4, 4, 4, 4), 0.9, 20.0, 5.0),
    ((3, 2, 2, 2), 0.9, 10.0, -30.0),
]


def _os_row(shape, zeta, db_d, db_e, **overrides):
    K, N, M_D, M_E = shape
    return _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=10.0 ** (db_d / 10.0),
                lambda_E=10.0 ** (db_e / 10.0), zeta=zeta, scheme="OS", **overrides)


class TestOneLinkOs:
    # OS over K >= 2 i.i.d. links: F = (1 - zeta + zeta F_1)^K, and each
    # rate is a certified 1-D integral of the one-link sum

    @pytest.mark.parametrize("shape, zeta, db_d, db_e", OS_ORACLE_ROWS)
    def test_matches_quadrature(self, shape, zeta, db_d, db_e):
        cfg = _os_row(shape, zeta, db_d, db_e)
        assert esr_exact(cfg).value == pytest.approx(quad_esr(cfg), rel=1e-9, abs=0.0)
        assert sop(cfg).value == pytest.approx(quad_cdf_ratio(cfg.rho(), cfg),
                                               rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("N, M_D, M_E", [(1, 1, 1), (2, 3, 2), (3, 2, 4), (4, 4, 4)])
    def test_one_link_os_is_ss_bit_for_bit(self, N, M_D, M_E):
        for zeta, knowledge, lam_d in product((0.5, 1.0), ("KA", "KU"), (3.0, 300.0)):
            ss = _cfg(K=1, N=N, M_D=M_D, M_E=M_E, lambda_D=lam_d, lambda_E=2.0, zeta=zeta,
                      knowledge=knowledge)
            os_ = replace(ss, scheme="OS")
            for value in (lambda c: sop(c).value, lambda c: cdf_ratio(2.5, c),
                          lambda c: esr_exact(c).value, lambda c: esr_high_snr(c).value,
                          lambda c: esr_asymptotic(c).value):
                assert value(os_).hex() == value(ss).hex()

    def test_term_count_is_the_one_link_sums(self):
        cfg = _os_row((3, 2, 3, 3), 0.9, 20.0, 5.0)
        base = one_link_base(cfg)
        assert (base.K, base.zeta, base.knowledge) == (1, 1.0, "KA")
        assert sop(cfg).term_count == len(build_cdf_term_sum(base).terms) == 40
        assert esr_exact(cfg).term_count == 40
        assert esr_exact(replace(cfg, knowledge="KU")).term_count == 40
        assert esr_high_snr(cfg).term_count == len(build_high_snr_term_sum(base).terms)

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 3, 3), (4, 3, 3, 3)])
    def test_high_snr_rate_meets_its_asymptote(self, shape):
        cfg = _os_row(shape, 1.0, 90.0, 5.0)
        assert abs(esr_high_snr(cfg).value - esr_asymptotic(cfg).value) < 1e-8

    @pytest.mark.parametrize("knowledge", ["KA", "KU"])
    @pytest.mark.parametrize("zeta", [0.5, 0.9, 1.0])
    def test_asymptote_rises_by_its_slope_per_decade(self, knowledge, zeta):
        cfg = _os_row((3, 2, 2, 3), zeta, 40.0, 5.0, knowledge=knowledge)
        slope = 1.0 - (1.0 - zeta) ** 3 if knowledge == "KA" else zeta
        rise = (esr_asymptotic(replace(cfg, lambda_D=1e5)).value
                - esr_asymptotic(cfg).value)
        assert abs(rise - slope * math.log2(10.0)) < 1e-12

    def test_no_backhaul_keeps_the_empty_sum(self):
        cfg = _os_row((3, 2, 2, 2), 0.0, 20.0, 5.0)
        for knowledge in ("KA", "KU"):
            row = replace(cfg, knowledge=knowledge)
            assert sop(row).value == 1.0 and sop(row).term_count == 0
            for rate in (esr_exact, esr_high_snr, esr_asymptotic):
                assert rate(row).value == 0.0 and rate(row).term_count == 0

    def test_rounding_past_the_target_raises_naming_the_row(self, monkeypatch):
        # term values a million times noisier than doubles miss the target
        monkeypatch.setattr(esr_module, "_EPS", 1e6 * esr_module._EPS)
        with pytest.raises(ArithmeticError, match=r"exact rate of OS/KA K=3 N=2 M_D=2 M_E=2 "
                           r"zeta=0\.9 .*rounding error of up to"):
            esr_exact(_os_row((3, 2, 2, 2), 0.9, 20.0, 5.0))

    def test_levels_that_never_agree_raise_naming_the_row(self, monkeypatch):
        monkeypatch.setattr(esr_module, "_FINEST_STEP", 0.25)
        with pytest.raises(ArithmeticError, match=r"high_snr rate of OS/KA K=3 .*levels still "
                           r"differ"):
            esr_high_snr(_os_row((3, 2, 2, 2), 0.9, 20.0, 5.0))
