"""Planted faults: each test breaks one computation and asserts that its
acceptance criterion FAILs in quick mode. A criterion that cannot fail
certifies nothing.

Faults go into package code, never into the oracles, so the oracles' tables
and the Monte Carlo cache stay warm. Each test starts and ends with the
closed-form caches empty, so no faulty value outlives it.
"""

import importlib
import re
from dataclasses import replace
from functools import lru_cache

import pytest

from secrecy_lab import acceptance, algebra, esr, oracles

# the package's `sop` attribute is the function, not the module
sop = importlib.import_module("secrecy_lab.sop")

_CLOSED_FORM_CACHES = (sop._term_sum_for_key, sop._ss_recipes, sop._os_recipes, esr._kernel,
                       algebra.partial_fractions, acceptance._sop_closed,
                       acceptance._esr_closed)


@pytest.fixture(autouse=True)
def fresh_closed_forms():
    for cached in _CLOSED_FORM_CACHES:
        cached.cache_clear()
    yield
    for cached in _CLOSED_FORM_CACHES:
        cached.cache_clear()


def _fails(check):
    result = check(quick=True)
    assert not result.passed, result.detail
    return result


def test_criterion_1_fails_when_the_ku_identity_squares_zeta(monkeypatch):
    # F_KU = 1 - zeta^2 + zeta^2 F_on: the floor reads 1 - zeta^2
    cdf_ratio = sop.cdf_ratio

    def squared_gate(x, cfg):
        if cfg.knowledge == "KA":
            return cdf_ratio(x, cfg)
        gate = cfg.zeta ** 2
        return min(1.0, 1.0 - gate + gate * cdf_ratio(x, sop.gated_base(cfg)))
    monkeypatch.setattr(sop, "cdf_ratio", squared_gate)
    _fails(acceptance.check_asymptotic_floors)


def test_criterion_2_fails_when_the_link_cdf_drops_its_last_poisson_term(monkeypatch):
    # M_D paths summed as M_D - 1: the outage decays one order per link too slowly
    dest_slots = sop._dest_slots
    monkeypatch.setattr(sop, "_dest_slots", lambda M_D: dest_slots(max(1, M_D - 1)))
    _fails(acceptance.check_diversity_order)


def test_criterion_3_fails_when_the_backhaul_gate_is_counted_twice(monkeypatch):
    # zeta^(k+1) for zeta^k: still a CDF, 1 - zeta + zeta F, but the wrong one
    def gated_twice(build):
        return lambda *args: tuple(replace(r, zeta_pow=r.zeta_pow + 1) for r in build(*args))
    monkeypatch.setattr(sop, "_ss_recipes", gated_twice(sop._ss_recipes))
    monkeypatch.setattr(sop, "_os_recipes", gated_twice(sop._os_recipes))
    _fails(acceptance.check_sop_triple_oracle)


def test_criterion_3_fails_on_a_numeric_error_when_a_recipe_is_dropped(monkeypatch):
    # an incomplete SS sum leaves the probability band, so the closed form
    # raises; the gate reports that as a FAIL and still runs every check
    ss_recipes = sop._ss_recipes
    monkeypatch.setattr(sop, "_ss_recipes", lambda *args: ss_recipes(*args)[1:])
    results = acceptance.run_all(quick=True)
    assert len(results) == 9
    outage = results[2]
    assert outage.name == "outage triple-oracle agreement"
    assert not outage.passed and outage.detail.startswith("numeric error: "), outage.detail


def test_criterion_4_fails_when_the_kernel_is_off_by_1e_5(monkeypatch):
    kernel = esr._kernel
    monkeypatch.setattr(esr, "_kernel", lambda a, b, theta: kernel(a, b, theta) * (1.0 + 1e-5))
    _fails(acceptance.check_esr_triple_oracle)


def test_criterion_5_fails_when_the_simulated_gate_ignores_zeta(monkeypatch):
    # the Monte Carlo draws every KU row at zeta = 1; fresh MC cache only
    rates_with_rng = oracles._rates_with_rng

    def ungated(cfgs, rng, count):
        cfgs = tuple(replace(c, zeta=1.0) if c.knowledge == "KU" else c for c in cfgs)
        return rates_with_rng(cfgs, rng, count)
    monkeypatch.setattr(oracles, "_rates_with_rng", ungated)
    monkeypatch.setattr(acceptance, "_mc_table",
                        lru_cache(maxsize=None)(acceptance._mc_table.__wrapped__))
    result = acceptance.check_ku_identities(quick=True)
    assert not result.passed, result.detail


def test_criterion_6_fails_when_ku_gates_a_gated_base(monkeypatch):
    # the KU base keeps its zeta, so a K = 1 KU row gates its link twice
    monkeypatch.setattr(sop, "gated_base", lambda cfg: replace(cfg, knowledge="KA"))
    _fails(acceptance.check_degeneracies)


def test_criterion_7_slope_error_grows_when_the_asymptote_is_scaled(monkeypatch):
    # criterion 7 already FAILs on its high-SNR gap (README, known failure),
    # so the planted fault must show in the slope figure of its detail
    integrate = esr._integrate_asymptotic
    monkeypatch.setattr(esr, "_integrate_asymptotic", lambda term: 1.1 * integrate(term))
    detail = _fails(acceptance.check_esr_fidelity).detail
    slope_err = float(re.search(r"SS: slope err (\S+),", detail).group(1))
    assert slope_err > 1e-2, detail


def test_criterion_8_fails_when_the_schemes_swap_builders(monkeypatch):
    ss_recipes, os_recipes = sop._ss_recipes, sop._os_recipes
    monkeypatch.setattr(sop, "_ss_recipes", os_recipes)
    monkeypatch.setattr(sop, "_os_recipes", ss_recipes)
    _fails(acceptance.check_orderings)


def test_criterion_9_fails_when_the_kernel_is_off_by_1e_7(monkeypatch):
    # the name criterion 9 reads; 1e-7 stays below criterion 4's 1e-5
    kernel = acceptance._kernel
    monkeypatch.setattr(acceptance, "_kernel",
                        lambda a, b, theta: kernel(a, b, theta) * (1.0 + 1e-7))
    _fails(acceptance.check_special_functions)


def test_criterion_9_fails_when_the_log_gamma_is_off_by_1e_12(monkeypatch):
    # the recurrence rows on the one incomplete gamma: a relative error of
    # 1e-12 is thousands of times their condition bound
    log_gamma = acceptance.log_upper_incomplete_gamma_int
    monkeypatch.setattr(acceptance, "log_upper_incomplete_gamma_int",
                        lambda s, x: log_gamma(s, x) + 1e-12)
    detail = _fails(acceptance.check_special_functions).detail
    assert detail.startswith("log-form recurrence deviation"), detail
