"""Planted faults: each test breaks one computation and asserts that its
acceptance criterion FAILs in quick mode. A criterion that cannot fail
certifies nothing.
"""

from dataclasses import replace

from secrecy_lab import acceptance, oracles


def test_criterion_5_fails_when_the_simulated_gate_ignores_zeta(monkeypatch):
    # the Monte Carlo draws every KU row at zeta = 1; fresh MC cache only
    rates_with_rng = oracles._rates_with_rng

    def ungated(cfgs, rng, count):
        cfgs = tuple(replace(c, zeta=1.0) if c.knowledge == "KU" else c for c in cfgs)
        return rates_with_rng(cfgs, rng, count)
    monkeypatch.setattr(oracles, "_rates_with_rng", ungated)
    monkeypatch.setattr(acceptance, "_MC_PAIRS", {})
    result = acceptance.check_ku_identities(quick=True)
    assert not result.passed, result.detail
