"""Closed-form outage results against golden oracle values and limit laws.

The golden constants were computed by the quadrature oracle (tight settings,
cross-checked with an independent high-precision integration) before the
closed forms existed; see the module docstring of oracles for the recording
protocol.
"""

import hashlib
import math
from dataclasses import replace
from itertools import product

import pytest

from secrecy_lab.channel import SystemConfig
from secrecy_lab.sop import (
    build_cdf_term_sum,
    build_high_snr_term_sum,
    cdf_ratio,
    diversity_order,
    sop,
    sop_asymptotic,
    sop_asymptotic_perfect_backhaul,
)

# quad_cdf_ratio(x=2) at K=2, N=2, M_D=M_E=2, lam_D=10, lam_E=1, zeta=1, SS/KA
GOLDEN_RATIO_CDF = 0.030717715588085443

# sha256 of repr((exact recipes, unity-dropped recipes)) at zeta = 0.9,
# recorded with separate exact and unity-dropped builders per scheme
RECIPE_DIGESTS = {
    ((2, 2, 2, 2), "SS", "KA"):
        "135da12b1a9d5faea3faa03419232c16f3dcde21ccc15c2c81fb44d87b459350",
    ((2, 2, 2, 2), "SS", "KU"):
        "654cdddac60d988f99761ef39451c83eda80e85eda46b80f3d97ec358ca4d119",
    ((2, 2, 2, 2), "OS", "KA"):
        "ebabc599500666ffc72e305f054246e5e125e9e2bebd7b41e6c6511b72b2b8dc",
    ((2, 2, 2, 2), "OS", "KU"):
        "bac9afcba824e95917c95646a8019393d8c5da6f135793c443013e9da29ea43b",
    ((3, 3, 3, 3), "SS", "KA"):
        "a34f699e1495e44ca2b58e2e64078ff4a8cff862d69174a933335eb4643bba4c",
    ((3, 3, 3, 3), "SS", "KU"):
        "2a0a6ea008e311880e5d96cfc358d435bed0d1ff844a5cb2dc4c19949a2e38dd",
    ((3, 3, 3, 3), "OS", "KA"):
        "d9fca7a63bad7ee9fe959e6e566f6643696315d80a5f45f270797ac586bd3c51",
    ((3, 3, 3, 3), "OS", "KU"):
        "4e292c7bc2cffc07796c925167e50ca0048e2e79d809eaf666dc22cfff4f099e",
    ((4, 2, 3, 2), "SS", "KA"):
        "93a0d35e0df3901574dddfba9264d56cc8cf34663b90b3bd6e51e933ac322047",
    ((4, 2, 3, 2), "SS", "KU"):
        "9b5d77e6d68aa5aae1f47d0ffffb4f198e4f4a52876195ac847739d5a57e7c85",
    ((4, 2, 3, 2), "OS", "KA"):
        "757f1fdf71dbabb21bbfe7b454984a5514d3edf1393bafee15ce62a058133c67",
    ((4, 2, 3, 2), "OS", "KU"):
        "98971c952bf21ed345dfdc6a7d84f9d360c0b8a35b6e787dddec0068b9c5e87e",
    ((4, 3, 3, 3), "SS", "KA"):
        "8f12b0bff68989f32535a1df24c5ceedb9a0d890a284c4916011a8dc039297a5",
    ((4, 3, 3, 3), "SS", "KU"):
        "66a823707704e244c7f5d299e05f5afe0b98069ed77b18cb4059582f5057685d",
    ((4, 3, 3, 3), "OS", "KA"):
        "8cde8f86e30e22107a73ab5f3f202e3a78b493125d81b30a870463f864960c9b",
    ((4, 3, 3, 3), "OS", "KU"):
        "9fade3daa4fbfd0759420711a217a20b64247e6ebb69ceed66d0b15cc6864c74",
}


def _cfg(**overrides):
    base = dict(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0, lambda_E=1.0,
                zeta=1.0, R_th=1.0, scheme="SS", knowledge="KA")
    base.update(overrides)
    return SystemConfig(**base)


class TestRatioCdf:
    def test_golden_value(self):
        assert cdf_ratio(2.0, _cfg()) == pytest.approx(
            GOLDEN_RATIO_CDF, rel=1e-12)

    def test_no_backhaul_saturates(self):
        for scheme, knowledge in product(("SS", "OS"), ("KA", "KU")):
            cfg = _cfg(zeta=0.0, scheme=scheme, knowledge=knowledge)
            for x in (1.0, 2.0, 50.0):
                assert cdf_ratio(x, cfg) == 1.0

    def test_below_support_rejected(self):
        with pytest.raises(ValueError):
            cdf_ratio(0.5, _cfg())

    def test_values_stay_in_unit_interval(self):
        for cfg in (_cfg(), _cfg(scheme="OS", K=3, N=3),
                    _cfg(knowledge="KU", zeta=0.4, M_D=1)):
            for x in (1.0, 1.5, 2.0, 8.0, 64.0, 1024.0):
                assert 0.0 <= cdf_ratio(x, cfg) <= 1.0

    def test_single_transmitter_collapses_choices(self):
        for x in (1.0, 2.0, 4.0, 16.0):
            values = {
                cdf_ratio(x, _cfg(K=1, zeta=0.8, scheme=s, knowledge=k))
                for s, k in product(("SS", "OS"), ("KA", "KU"))}
            assert max(values) - min(values) <= 1e-12 * max(values)

    def test_scheme_ordering_pointwise(self):
        for x, zeta, knowledge in product((1.0, 2.0, 6.0), (0.6, 1.0),
                                          ("KA", "KU")):
            ss = cdf_ratio(x, _cfg(zeta=zeta, knowledge=knowledge))
            os_ = cdf_ratio(x, _cfg(zeta=zeta, knowledge=knowledge,
                                    scheme="OS"))
            assert os_ <= ss + 1e-9

    def test_knowledge_ordering_pointwise(self):
        for x, scheme in product((1.0, 2.0, 6.0), ("SS", "OS")):
            ka = cdf_ratio(x, _cfg(zeta=0.7, scheme=scheme))
            ku = cdf_ratio(x, _cfg(zeta=0.7, scheme=scheme, knowledge="KU"))
            assert ka <= ku + 1e-9

    def test_term_sum_band(self):
        ts = build_cdf_term_sum(_cfg(K=3, N=2, scheme="OS"))
        for x in (1.0, 1.1, 2.0, 10.0, 200.0):
            assert -1e-9 <= ts.eval(x) <= 1.0 + 1e-9


@pytest.mark.parametrize("shape, scheme, knowledge", sorted(RECIPE_DIGESTS))
def test_recipes_pinned(shape, scheme, knowledge):
    K, N, M_D, M_E = shape
    cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=100.0, lambda_E=3.0,
               zeta=0.9, scheme=scheme, knowledge=knowledge)
    recipes = (build_cdf_term_sum(cfg).recipes,
               build_high_snr_term_sum(cfg).recipes)
    digest = hashlib.sha256(repr(recipes).encode()).hexdigest()
    assert digest == RECIPE_DIGESTS[shape, scheme, knowledge]


class TestSop:
    def test_is_ratio_cdf_at_threshold(self):
        cfg = _cfg(R_th=1.5)
        result = sop(cfg)
        assert result.value == cdf_ratio(2.0 ** 1.5, cfg)
        assert result.form == "exact"
        assert result.term_count > 0

    def test_no_backhaul(self):
        assert sop(_cfg(zeta=0.0)).value == 1.0

    def test_zero_threshold_vanishing_outage(self):
        cfg = _cfg(R_th=0.0, lambda_D=1e6)
        assert sop(cfg).value <= 1e-6

    def test_gate_after_selection_identity(self):
        for scheme, zeta in product(("SS", "OS"), (0.3, 0.7, 0.9)):
            ku = sop(_cfg(zeta=zeta, scheme=scheme, knowledge="KU")).value
            on = sop(_cfg(zeta=1.0, scheme=scheme, knowledge="KU")).value
            composed = 1.0 - zeta + zeta * on
            assert ku == pytest.approx(composed, rel=1e-12)

    def test_floor_attained_at_high_snr(self):
        for zeta, scheme, knowledge in product((0.5, 0.9), ("SS", "OS"),
                                               ("KA", "KU")):
            cfg = _cfg(zeta=zeta, scheme=scheme, knowledge=knowledge,
                       lambda_D=1e6)
            floor = (1.0 - zeta) ** cfg.K if knowledge == "KA" else 1.0 - zeta
            assert abs(sop(cfg).value - floor) <= 1e-3

    def test_floor_independent_of_eavesdropper_count(self):
        lo = sop(_cfg(zeta=0.9, N=1, lambda_D=1e6)).value
        hi = sop(_cfg(zeta=0.9, N=3, lambda_D=1e6)).value
        assert abs(lo - hi) <= 1e-3


class TestAsymptoticFloor:
    def test_selection_over_active_links(self):
        result = sop_asymptotic(_cfg(zeta=0.9))
        assert result.value == pytest.approx(0.01, rel=1e-15)
        assert result.form == "asymptotic"

    def test_gate_after_selection(self):
        for K in (1, 2, 3):
            cfg = _cfg(K=K, zeta=0.9, knowledge="KU")
            assert sop_asymptotic(cfg).value == pytest.approx(0.1, rel=1e-15)

    def test_single_transmitter_floors_coincide(self):
        ka = sop_asymptotic(_cfg(K=1, zeta=0.9)).value
        ku = sop_asymptotic(_cfg(K=1, zeta=0.9, knowledge="KU")).value
        assert ka == ku == pytest.approx(0.1, rel=1e-15)

    def test_perfect_backhaul_rejected(self):
        with pytest.raises(ValueError):
            sop_asymptotic(_cfg(zeta=1.0))


class TestPerfectBackhaulAsymptote:
    def test_single_transmitter_schemes_coincide(self):
        cfg = _cfg(K=1, lambda_D=1e4)
        ss = sop_asymptotic_perfect_backhaul(cfg).value
        os_ = sop_asymptotic_perfect_backhaul(replace(cfg, scheme="OS")).value
        assert ss == pytest.approx(os_, rel=1e-12)

    def test_decay_rate_matches_diversity_order(self):
        lo = sop_asymptotic_perfect_backhaul(_cfg(lambda_D=1e5)).value
        hi = sop_asymptotic_perfect_backhaul(_cfg(lambda_D=1e6)).value
        expected = 10.0 ** (2 * 2)
        assert lo / hi == pytest.approx(expected, rel=0.01)

    def test_approaches_exact_outage(self):
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=1e4, lambda_E=1.0)
        asym = sop_asymptotic_perfect_backhaul(cfg).value
        exact = sop(cfg).value
        assert asym == pytest.approx(exact, rel=0.05)

    def test_unreliable_backhaul_rejected(self):
        with pytest.raises(ValueError):
            sop_asymptotic_perfect_backhaul(_cfg(zeta=0.5))

    def test_form_label(self):
        result = sop_asymptotic_perfect_backhaul(_cfg())
        assert result.form == "asymptotic_perfect_backhaul"


class TestDiversityOrder:
    def test_values(self):
        assert diversity_order(_cfg(K=3, M_D=2)) == 6
        assert diversity_order(_cfg(K=1, M_D=1)) == 1

    @pytest.mark.parametrize("scheme", ["SS", "OS"])
    def test_matches_measured_slope(self, scheme):
        cfg = _cfg(K=2, M_D=1, scheme=scheme, lambda_E=1.0)
        p_lo = sop(replace(cfg, lambda_D=1e5)).value
        p_hi = sop(replace(cfg, lambda_D=1e6)).value
        slope = math.log10(p_lo / p_hi)
        order = diversity_order(cfg)
        assert slope == pytest.approx(order, rel=0.05)
