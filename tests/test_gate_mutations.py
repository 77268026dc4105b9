"""Planted faults: each test breaks one computation and asserts that its
acceptance criterion FAILs in quick mode. A criterion that cannot fail
certifies nothing.

Faults go into package code, never into the oracles, so the oracles' tables
and the Monte Carlo cache stay warm. Each test starts and ends with the
closed-form caches empty, so no faulty value outlives it.
"""

import importlib
import math
import re
from dataclasses import replace
from functools import lru_cache

import pytest

from secrecy_lab import acceptance, esr, oracles

# the package's `sop` attribute is the function, not the module
sop = importlib.import_module("secrecy_lab.sop")

_CLOSED_FORM_CACHES = (sop._term_sum_for_key, sop._term_table, esr._log_stieltjes,
                       esr._ka_rate, acceptance._sop_closed)
_OTHER_SCHEME = {"SS": "OS", "OS": "SS"}


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
    term_table = sop._term_table
    monkeypatch.setattr(sop, "_term_table",
                        lambda K, N, M_D, M_E: term_table(K, N, max(1, M_D - 1), M_E))
    _fails(acceptance.check_diversity_order)


def test_criterion_3_fails_when_the_backhaul_gate_is_counted_twice(monkeypatch):
    # the term table read at zeta^2 for zeta, each link's gate counted twice:
    # still a CDF, but the wrong one
    term_sum = sop.TermSum
    monkeypatch.setattr(sop, "TermSum",
                        lambda terms, key: term_sum(terms, key[:-1] + (key[-1] ** 2,)))
    _fails(acceptance.check_sop_triple_oracle)


def test_criterion_3_fails_when_the_os_product_squares_zeta(monkeypatch):
    # F_OS = (1 - zeta^2 + zeta^2 F_1)^K: still a CDF, but the wrong one
    cdf_ratio = sop.cdf_ratio

    def squared_gate(x, cfg):
        if cfg.scheme == "OS" and cfg.K > 1 and cfg.knowledge == "KA":
            gate = cfg.zeta ** 2
            link = cdf_ratio(x, sop.one_link_base(cfg))
            return min(1.0, (1.0 - gate + gate * link) ** cfg.K)
        return cdf_ratio(x, cfg)
    monkeypatch.setattr(sop, "cdf_ratio", squared_gate)
    _fails(acceptance.check_sop_triple_oracle)


def test_criterion_3_fails_on_a_numeric_error_when_a_recipe_is_dropped(monkeypatch):
    # an incomplete sum leaves the probability band, so the closed form
    # raises; the gate reports that as a FAIL and still runs every check
    term_table = sop._term_table
    monkeypatch.setattr(sop, "_term_table", lambda *shape: term_table(*shape)[1:])
    results = acceptance.run_all(quick=True)
    assert len(results) == 9
    outage = results[2]
    assert outage.name == "outage triple-oracle agreement"
    assert not outage.passed and outage.detail.startswith("numeric error: "), outage.detail


def _scaled_kernel(kernel, factor):
    # the kernel times factor; it returns (ln kernel, its parts' size)
    def scaled(p, a):
        log_kernel, size = kernel(p, a)
        return log_kernel + math.log(factor), size
    return scaled


def test_criterion_4_fails_when_the_kernel_is_off_by_1e_5(monkeypatch):
    monkeypatch.setattr(esr, "_log_stieltjes", _scaled_kernel(esr._log_stieltjes, 1.0 + 1e-5))
    _fails(acceptance.check_esr_triple_oracle)


def test_criterion_4_fails_when_the_os_rate_integrand_is_off_by_1e_5(monkeypatch):
    os_integrand = esr._os_integrand

    def scaled(term_sum, K, zeta, unity):
        integrand = os_integrand(term_sum, K, zeta, unity)

        def off(s):
            value, bound = integrand(s)
            return value * (1.0 + 1e-5), bound
        return off
    monkeypatch.setattr(esr, "_os_integrand", scaled)
    _fails(acceptance.check_esr_triple_oracle)


def test_criterion_5_fails_when_the_simulated_gate_ignores_zeta(monkeypatch):
    # the Monte Carlo draws every KU row at zeta = 1; fresh MC cache only
    rates_with_rng = oracles._rates_with_rng

    def ungated(cfgs, rng, count, dest_sum):
        cfgs = tuple(replace(c, zeta=1.0) if c.knowledge == "KU" else c for c in cfgs)
        return rates_with_rng(cfgs, rng, count, dest_sum)
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
    # the SS asymptote times 1.1: its slope is 10% off, and so is its offset
    closed_rate = esr._closed_rate

    def scaled(cfg, form):
        value, count = closed_rate(cfg, form)
        return (1.1 * value if form == "asymptotic" else value), count
    monkeypatch.setattr(esr, "_closed_rate", scaled)
    detail = _fails(acceptance.check_esr_fidelity).detail
    slope_err = float(re.search(r"SS: slope err (\S+),", detail).group(1))
    assert slope_err > 1e-2, detail


def test_criterion_7_fails_when_the_asymptote_constant_is_off_by_1e_6(monkeypatch):
    # an offset leaves every slope as it is; only the offset clause sees it
    mean_log_gain = esr._mean_log_gain
    monkeypatch.setattr(esr, "_mean_log_gain", lambda *args: mean_log_gain(*args) + 1e-6)
    detail = _fails(acceptance.check_esr_fidelity).detail
    offset = float(re.search(r"\|high_snr - asymptotic\| = (\S+) ", detail).group(1))
    assert offset > 1e-9, detail
    assert float(re.search(r"SS: slope err (\S+),", detail).group(1)) <= 1e-2, detail


def test_criterion_8_fails_when_the_schemes_swap_builders(monkeypatch):
    # SS rows go through the one-link product and OS rows through the SS
    # K-fold sum; a KU row swaps once, at its always-on base
    cdf_ratio, rate = sop.cdf_ratio, esr._rate

    def swapped(cfg):
        return replace(cfg, scheme=_OTHER_SCHEME[cfg.scheme]) if cfg.knowledge == "KA" else cfg
    monkeypatch.setattr(sop, "cdf_ratio", lambda x, cfg: cdf_ratio(x, swapped(cfg)))
    monkeypatch.setattr(esr, "_rate", lambda cfg, *args: rate(swapped(cfg), *args))
    _fails(acceptance.check_orderings)


def test_criterion_9_fails_when_the_kernel_is_off_by_1e_7(monkeypatch):
    # the name criterion 9 reads; 1e-7 stays below criterion 4's 1e-5
    monkeypatch.setattr(acceptance, "_log_stieltjes",
                        _scaled_kernel(acceptance._log_stieltjes, 1.0 + 1e-7))
    _fails(acceptance.check_special_functions)


def test_criterion_9_fails_when_the_log_gamma_is_off_by_1e_12(monkeypatch):
    # the recurrence rows on the one incomplete gamma: a relative error of
    # 1e-12 is thousands of times their condition bound
    log_gamma = acceptance.log_upper_incomplete_gamma_int
    monkeypatch.setattr(acceptance, "log_upper_incomplete_gamma_int",
                        lambda s, x: log_gamma(s, x) + 1e-12)
    detail = _fails(acceptance.check_special_functions).detail
    assert detail.startswith("log-form recurrence deviation"), detail
