"""Closed-form outage results against golden oracle values and limit laws.

The golden constants were computed by the quadrature oracle (tight settings,
cross-checked with an independent high-precision integration) before the
closed forms existed; see the module docstring of oracles for the recording
protocol.
"""

import hashlib
import importlib
import math
import random
from dataclasses import replace
from itertools import product

import mpmath
import pytest

from secrecy_lab import esr as esr_module
from secrecy_lab.channel import SystemConfig
from secrecy_lab.esr import esr_asymptotic, esr_exact, esr_high_snr
from secrecy_lab.oracles import quad_cdf_ratio
from secrecy_lab.sop import (
    build_cdf_term_sum,
    cdf_ratio,
    diversity_order,
    gated_base,
    one_link_base,
    sop,
    sop_asymptotic,
)

# the package's `sop` attribute is the function, not the module
sop_module = importlib.import_module("secrecy_lab.sop")

# quad_cdf_ratio(x=2) at K=2, N=2, M_D=M_E=2, lam_D=10, lam_E=1, zeta=1, SS/KA
GOLDEN_RATIO_CDF = 0.030717715588085443

# sha256 of repr(sorted(rows)) of each shape's integer term table, a
# digest of the row multiset whatever order the builder emits the rows in;
# recorded when the outage came to be read from the table, after every SS
# shape here and below was checked against quad_cdf_ratio at lambda_D =
# 100, lambda_E = 3, zeta = 0.9 and x = 1, 2, 3.7 (at most 2.6e-9 relative
# off it). KU reads the KA table through F_KU = 1 - zeta + zeta * F_on, and
# OS over K >= 2 links reads the one-link table through F_OS = (1 - zeta +
# zeta * F_1)^K, so their cells check that the builder rejects such a config.
TABLE_DIGESTS = {
    ((2, 2, 2, 2), "SS", "KA"):
        "cf8173e739c0693a03f93a8313183f1e8aeecb93ca978e6a7d1ca9d0bb5ec59d",
    ((3, 3, 3, 3), "SS", "KA"):
        "4a8fcd7b801e7365f4773c721049200bdd2fca733259f3c5c43de891e672afa4",
    ((4, 2, 3, 2), "SS", "KA"):
        "cf7ac6ed5e4ad6d58307ed72ade977ef7d983ca342f042905e2aa81a15681eed",
    ((4, 3, 3, 3), "SS", "KA"):
        "11947c8f7f64daad4a24ac8d9f2d3c468de092edf94a87b6c77faec8f4f03695",
}

TABLE_CELLS = sorted({(shape, scheme, knowledge) for shape, _, _ in TABLE_DIGESTS
                       for scheme in ("SS", "OS") for knowledge in ("KA", "KU")})

# float.hex of (sop, cdf_ratio(3.0), esr_exact) and sop's term_count on KU
# rows at lambda_E = 3, recorded while KU still had zeta-folded term sums of
# its own, and re-derived once when the closed-form sums came to be exactly
# rounded by math.fsum (from the earlier code's term values, summed that
# way); keys (K, N, M_D, M_E), scheme, zeta, lambda_D. Values are
# (sop hex, term_count, cdf_ratio hex, esr_exact hex). The OS rows at
# zeta > 0 were re-pinned when OS came to read the one-link sum, each
# checked within 1e-9 relative of its reference first: quad_cdf_ratio for an
# always-on CDF above 1e-6, a 60-digit rebuild of the K-fold recipes below
# it, quad_esr for the rate; term_count became the one-link sum's size.
# The SS esr_exact hexes were re-pinned when SS rates came to be closed-form
# sums of the kernel integral_0^inf t^p e^(-at)/(1+t) dt, each checked
# within 1e-9 relative of quad_esr first (at most 4.4e-12 off it). Every
# row at zeta > 0 was re-pinned when the outage came to be read from the
# integer term table: each outage and cdf_ratio(3.0) checked first against
# quad_cdf_ratio above 1e-6 (at most 1.3e-10 relative off it) and against a
# 60-digit sum of the earlier exact recipes below it (at most 1.6e-16), each
# OS esr_exact against quad_esr (at most 7.3e-14); term_count became the
# table's size, and no SS esr_exact hex moved.
KU_PINNED_HEXES = {
    ((2, 2, 2, 2), "SS", 0.0, 1.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "SS", 0.0, 100.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "SS", 0.0, 1e6): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "SS", 0.5, 1.0): (
        "0x1.fe639c672b581p-1", 27, "0x1.ffcc6b41cc3b8p-1", "0x1.136f10f41fb0fp-6"),
    ((2, 2, 2, 2), "SS", 0.5, 100.0): (
        "0x1.0021c4fcb4765p-1", 27, "0x1.008ed0388da58p-1", "0x1.3669b10d3174ep+1"),
    ((2, 2, 2, 2), "SS", 0.5, 1e6): (
        "0x1.0000000000000p-1", 27, "0x1.0000000000000p-1", "0x1.221769449d611p+3"),
    ((2, 2, 2, 2), "SS", 0.9, 1.0): (
        "0x1.fd19b3201ad1bp-1", 27, "0x1.ffa327766f9e4p-1", "0x1.efc7eb5105d82p-6"),
    ((2, 2, 2, 2), "SS", 0.9, 100.0): (
        "0x1.9b7fe16a26a7ap-4", 27, "0x1.a1a21cc7f7b58p-4", "0x1.175f1f58ac82dp+2"),
    ((2, 2, 2, 2), "SS", 0.9, 1e6): (
        "0x1.9999999999998p-4", 27, "0x1.9999999999998p-4", "0x1.051511f0f40a9p+4"),
    ((2, 2, 2, 2), "SS", 1.0, 1.0): (
        "0x1.fcc738ce56b02p-1", 27, "0x1.ff98d6839876fp-1", "0x1.136f10f41fb0fp-5"),
    ((2, 2, 2, 2), "SS", 1.0, 100.0): (
        "0x1.0e27e5a3b2800p-11", 27, "0x1.1da0711b4b000p-9", "0x1.3669b10d3174ep+2"),
    ((2, 2, 2, 2), "SS", 1.0, 1e6): (
        "0x1.8669aeb982f10p-64", 27, "0x1.018ad10feb8d8p-61", "0x1.221769449d611p+4"),
    ((2, 2, 2, 2), "OS", 0.0, 1.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "OS", 0.0, 100.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "OS", 0.0, 1e6): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "OS", 0.5, 1.0): (
        "0x1.fe4d87deff985p-1", 9, "0x1.ffcb43745abd6p-1", "0x1.2f6c09fc7f2d0p-6"),
    ((2, 2, 2, 2), "OS", 0.5, 100.0): (
        "0x1.0011280472c1bp-1", 9, "0x1.004dd4c791c83p-1", "0x1.3d9e6c4f030f9p+1"),
    ((2, 2, 2, 2), "OS", 0.5, 1e6): (
        "0x1.0000000000000p-1", 9, "0x1.0000000000000p-1", "0x1.23e1d96a00d37p+3"),
    ((2, 2, 2, 2), "OS", 0.9, 1.0): (
        "0x1.fcf1f49165abcp-1", 9, "0x1.ffa11304a354ep-1", "0x1.11146f633f422p-5"),
    ((2, 2, 2, 2), "OS", 0.9, 100.0): (
        "0x1.9a90a6a6747e8p-4", 9, "0x1.9dfa5e6d000fdp-4", "0x1.1ddb617a4f8e0p+2"),
    ((2, 2, 2, 2), "OS", 0.9, 1e6): (
        "0x1.9999999999998p-4", 9, "0x1.9999999999998p-4", "0x1.06b1aa129a57ep+4"),
    ((2, 2, 2, 2), "OS", 1.0, 1.0): (
        "0x1.fc9b0fbdff30ap-1", 9, "0x1.ff9686e8b57acp-1", "0x1.2f6c09fc7f2d0p-5"),
    ((2, 2, 2, 2), "OS", 1.0, 100.0): (
        "0x1.1280472c1ae45p-12", 9, "0x1.37531e4720dbep-10", "0x1.3d9e6c4f030f9p+2"),
    ((2, 2, 2, 2), "OS", 1.0, 1e6): (
        "0x1.5df94ea7517f1p-65", 9, "0x1.d6711bf1226ebp-63", "0x1.23e1d96a00d37p+4"),
    ((3, 2, 2, 3), "SS", 0.0, 1.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "SS", 0.0, 100.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "SS", 0.0, 1e6): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "SS", 0.5, 1.0): (
        "0x1.ffd492e2fad66p-1", 76, "0x1.fffd40106d0d2p-1", "0x1.d27a69fa10e9ap-9"),
    ((3, 2, 2, 3), "SS", 0.5, 100.0): (
        "0x1.000611d0a9cf3p-1", 76, "0x1.002d6295527f8p-1", "0x1.27968fd1557d1p+1"),
    ((3, 2, 2, 3), "SS", 0.5, 1e6): (
        "0x1.0000000000000p-1", 76, "0x1.0000000000000p-1", "0x1.1e693010e0247p+3"),
    ((3, 2, 2, 3), "SS", 0.9, 1.0): (
        "0x1.ffb1d53229e84p-1", 76, "0x1.fffb0cea5de46p-1", "0x1.a3d49294426bep-8"),
    ((3, 2, 2, 3), "SS", 0.9, 100.0): (
        "0x1.99f100898d410p-4", 76, "0x1.9c2725330a5f9p-4", "0x1.0a07816f99bd6p+2"),
    ((3, 2, 2, 3), "SS", 0.9, 1e6): (
        "0x1.9999999999998p-4", 76, "0x1.9999999999998p-4", "0x1.01c511a8c9ba6p+4"),
    ((3, 2, 2, 3), "SS", 1.0, 1.0): (
        "0x1.ffa925c5f5accp-1", 76, "0x1.fffa8020da1a3p-1", "0x1.d27a69fa10e9ap-8"),
    ((3, 2, 2, 3), "SS", 1.0, 100.0): (
        "0x1.84742a73cc000p-14", 76, "0x1.6b14aa93fc400p-11", "0x1.27968fd1557d1p+2"),
    ((3, 2, 2, 3), "SS", 1.0, 1e6): (
        "0x1.459be07007641p-92", 76, "0x1.e2ad46cf0a78ap-89", "0x1.1e693010e0247p+4"),
    ((3, 2, 2, 3), "OS", 0.0, 1.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "OS", 0.0, 100.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "OS", 0.0, 1e6): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "OS", 0.5, 1.0): (
        "0x1.ffd2df758e00ap-1", 12, "0x1.fffd35a0949f2p-1", "0x1.ff0b0194b89b2p-9"),
    ((3, 2, 2, 3), "OS", 0.5, 100.0): (
        "0x1.00019083186e8p-1", 12, "0x1.000ddee69e8bcp-1", "0x1.3050b839ab547p+1"),
    ((3, 2, 2, 3), "OS", 0.5, 1e6): (
        "0x1.0000000000000p-1", 12, "0x1.0000000000000p-1", "0x1.2095249b2cb7dp+3"),
    ((3, 2, 2, 3), "OS", 0.9, 1.0): (
        "0x1.ffaec56d32ce0p-1", 12, "0x1.fffafa210b84dp-1", "0x1.cbf04e390c8bap-8"),
    ((3, 2, 2, 3), "OS", 0.9, 100.0): (
        "0x1.99b020f95fd10p-4", 12, "0x1.9a61569284a8dp-4", "0x1.11e23f671a326p+2"),
    ((3, 2, 2, 3), "OS", 0.9, 1e6): (
        "0x1.9999999999998p-4", 12, "0x1.9999999999998p-4", "0x1.03b96dbedb724p+4"),
    ((3, 2, 2, 3), "OS", 1.0, 1.0): (
        "0x1.ffa5beeb1c015p-1", 12, "0x1.fffa6b41293e4p-1", "0x1.ff0b0194b89b2p-8"),
    ((3, 2, 2, 3), "OS", 1.0, 100.0): (
        "0x1.9083186e85561p-16", 12, "0x1.bbdcd3d1774c4p-13", "0x1.3050b839ab547p+2"),
    ((3, 2, 2, 3), "OS", 1.0, 1e6): (
        "0x1.d23ff98635a4dp-95", 12, "0x1.636bfa26ecde5p-91", "0x1.2095249b2cb7dp+4"),
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

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("knowledge", ["KA", "KU"])
    def test_non_finite_threshold_rejected(self, x, knowledge):
        # a usage error, not a term sum outside the probability band
        with pytest.raises(ValueError, match="finite"):
            cdf_ratio(x, _cfg(knowledge=knowledge))

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
        ts = build_cdf_term_sum(_cfg(K=3, N=2))
        for x in (1.0, 1.1, 2.0, 10.0, 200.0):
            assert -1e-9 <= ts.eval(x) <= 1.0 + 1e-9


def _table_digest(terms):
    return hashlib.sha256(repr(sorted(terms)).encode()).hexdigest()


@pytest.mark.parametrize("shape, scheme, knowledge", TABLE_CELLS)
def test_tables_pinned(shape, scheme, knowledge):
    K, N, M_D, M_E = shape
    cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=100.0, lambda_E=3.0,
               zeta=0.9, scheme=scheme, knowledge=knowledge)
    if knowledge == "KU" or scheme == "OS":
        with pytest.raises(ValueError, match="F_KU" if knowledge == "KU" else "F_OS"):
            build_cdf_term_sum(cfg)
        return
    assert _table_digest(build_cdf_term_sum(cfg).terms) == TABLE_DIGESTS[shape, scheme, knowledge]


# sha256 over every small shape, one line repr(sorted(rows)) + "\n" per
# (K, N, M_D, M_E) in product(range(1, 4), repeat=4), checked as
# TABLE_DIGESTS is
SMALL_SHAPES_DIGEST = "f03079d9abc05de6983a67b2b5269cc17a1eb12d6a22256ae309919ee36261fb"


def test_tables_pinned_on_every_small_shape():
    digest = hashlib.sha256()
    for shape in product(range(1, 4), repeat=4):
        digest.update((repr(sorted(sop_module._term_table(*shape))) + "\n").encode())
    assert digest.hexdigest() == SMALL_SHAPES_DIGEST


@pytest.mark.parametrize("scheme", ["SS", "OS"])
def test_rates_of_one_shape_build_its_table_once(scheme):
    # every OS rate reads the one-link table, whatever its scales, and so
    # does the outage; SS rates read terms of their own, so only the outage
    # builds its table
    build = sop_module._term_table
    build.cache_clear()
    esr_module._ka_rate.cache_clear()
    cfg = _cfg(K=2, N=3, M_D=3, M_E=2, lambda_D=123.0, lambda_E=7.0, zeta=0.8,
               scheme=scheme)
    esr_exact(cfg)
    assert build.cache_info().misses == (1 if scheme == "OS" else 0)
    esr_high_snr(cfg)
    esr_asymptotic(cfg)
    sop(cfg)
    assert build.cache_info().misses == 1


@pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0])
def test_builder_rejects_gate_after_selection(zeta):
    # a KU config has no term sum of its own; the error names the identity
    with pytest.raises(ValueError, match=r"F_KU = 1 - zeta \+ zeta \* F_on"):
        build_cdf_term_sum(_cfg(zeta=zeta, knowledge="KU"))


@pytest.mark.parametrize("K", [2, 3])
def test_builder_rejects_os_over_several_links(K):
    # OS over K >= 2 links reads the one-link sum; the error names the identity
    with pytest.raises(ValueError, match=r"F_OS = \(1 - zeta \+ zeta \* F_1\)\^K"):
        build_cdf_term_sum(_cfg(K=K, zeta=0.9, scheme="OS"))
    assert build_cdf_term_sum(one_link_base(_cfg(K=K, zeta=0.9, scheme="OS"))).terms


@pytest.mark.parametrize("shape, scheme",
                         sorted({key[:2] for key in KU_PINNED_HEXES}))
def test_gate_after_selection_bits_pinned(shape, scheme):
    K, N, M_D, M_E = shape
    for (shape_, scheme_, zeta, lam_d), pinned in KU_PINNED_HEXES.items():
        if (shape_, scheme_) != (shape, scheme):
            continue
        cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=lam_d, lambda_E=3.0,
                   zeta=zeta, scheme=scheme, knowledge="KU")
        result = sop(cfg)
        got = (result.value.hex(), result.term_count,
               cdf_ratio(3.0, cfg).hex(), esr_exact(cfg).value.hex())
        assert got == pinned, (zeta, lam_d)


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

    @pytest.mark.parametrize("scheme", ["SS", "OS"])
    @pytest.mark.parametrize("knowledge", ["KA", "KU"])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_destination_far_below_the_eavesdroppers(self, scheme, knowledge, K):
        # lambda_D = -200 dB: the outage, 1 - O(1e-80), rounds to 1 (the
        # pole-form float terms read +-1 each at x = 1 and left the band,
        # 3.0 at K = 1)
        cfg = _cfg(K=K, lambda_D=1e-20, zeta=0.9, R_th=0.0, scheme=scheme,
                   knowledge=knowledge)
        assert sop(cfg).value == 1.0


def _scan_rows(count: int = 60):
    """(id, config) of a seeded sample across the shapes and scales the API accepts."""
    rng = random.Random(30)
    for index in range(count):
        K, N, M_D, M_E = (rng.randint(1, 4) for _ in range(4))
        db_d, db_e = rng.uniform(-10.0, 30.0), rng.uniform(-20.0, 15.0)
        cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=10.0 ** (db_d / 10.0),
                   lambda_E=10.0 ** (db_e / 10.0), zeta=rng.choice((0.5, 0.9, 1.0)),
                   R_th=rng.choice((0.0, 0.5, 1.0, 2.0)), scheme=rng.choice(("SS", "OS")),
                   knowledge=rng.choice(("KA", "KU")))
        yield f"{index}-{cfg.scheme}{cfg.knowledge}-{K}{N}{M_D}{M_E}-R{cfg.R_th:g}", cfg


def _resum(x: float, cfg: SystemConfig):
    """The outage at x in 60 digits: 1 minus the base table's rows, each
    c/den zeta^k lambda_D^-i lambda_E^(mu-theta) x^mu (x-1)^(i-mu)
    e^(-k(x-1)/lambda_D) / (k x/lambda_D + (n+1)/lambda_E)^theta, mapped
    through F_KU = 1 - zeta + zeta F_on and F_OS = (1 - zeta + zeta F_1)^K."""
    with mpmath.workdps(60):
        zeta = mpmath.mpf(cfg.zeta)
        if cfg.knowledge == "KU":
            return 1 - zeta + zeta * _resum(x, gated_base(cfg))
        if cfg.scheme == "OS" and cfg.K > 1:
            return (1 - zeta + zeta * _resum(x, one_link_base(cfg))) ** cfg.K
        lam_d, lam_e, x = mpmath.mpf(cfg.lambda_D), mpmath.mpf(cfg.lambda_E), mpmath.mpf(x)
        rows = sop_module._term_table(cfg.K, cfg.N, cfg.M_D, cfg.M_E) if cfg.zeta else ()
        return 1 - mpmath.fsum(
            mpmath.mpf(c) / den * zeta ** k * lam_d ** -i * lam_e ** (mu - theta) * x ** mu
            * (x - 1) ** (i - mu) * mpmath.exp(-k * (x - 1) / lam_d)
            / (k * x / lam_d + (n + 1) / lam_e) ** theta
            for c, den, k, n, i, mu, theta in rows)


@pytest.mark.parametrize("cfg", [pytest.param(cfg, id=name) for name, cfg in _scan_rows()])
def test_seeded_scan_meets_quadrature(cfg):
    # R_th = 0 puts x at 1, where (x - 1)^(i - mu) leaves only the i = mu
    # terms; below 1e-6 quadrature is the weaker side, and both are tiny
    reference = quad_cdf_ratio(cfg.rho(), cfg)
    value = sop(cfg).value
    if reference > 1e-6:
        assert value == pytest.approx(reference, rel=1e-8, abs=0.0)
    else:
        assert value == pytest.approx(reference, rel=0.0, abs=1e-12)
    # the second referee holds every row, the deep tail too, to the
    # certified sum's relative target
    assert value == pytest.approx(float(_resum(cfg.rho(), cfg)), rel=1e-9, abs=0.0)


def test_float_sums_that_miss_the_target_escalate():
    # SS K=3 N=2 M_D=1 M_E=4 at (20.0, -19.1) dB, zeta = 1, R_th = 0.5: the
    # worst of 400 SS/KA outages drawn from random.Random(6) (K, N, M_D, M_E
    # by randint(1, 4), lambda_D uniform in [0, 40] dB, lambda_E in [-20, 15]
    # dB, zeta and R_th by choice). Its terms cancel by 1.7e8, and the float
    # sum read 1.13e-7 relative off; its rounding estimate misses the target
    rng = random.Random(6)
    for _index in range(153):
        K, N, M_D, M_E = (rng.randint(1, 4) for _ in range(4))
        db_d, db_e = rng.uniform(0.0, 40.0), rng.uniform(-20.0, 15.0)
        zeta, R_th = rng.choice((0.5, 0.9, 1.0)), rng.choice((0.0, 0.5, 1.0, 2.0))
    cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=10.0 ** (db_d / 10.0),
               lambda_E=10.0 ** (db_e / 10.0), zeta=zeta, R_th=R_th)
    assert (K, N, M_D, M_E, zeta, R_th) == (3, 2, 1, 4, 1.0, 0.5)
    assert (round(db_d, 2), round(db_e, 2)) == (19.98, -19.12)
    assert sop(cfg).value == pytest.approx(float(_resum(cfg.rho(), cfg)), rel=1e-9, abs=0.0)


class TestOutsideTheDoubleRange:
    # lambda_D = 400 dB at K = 4, M_D = 4: the outage is about 1e-640
    ROW = _cfg(K=4, N=2, M_D=4, M_E=2, lambda_D=1e40, lambda_E=3.0)

    def test_an_outage_cancelling_below_the_last_rung_names_the_row(self):
        with pytest.raises(ArithmeticError, match=r"^term sum at x=2\.0, in the outage of K=4 "
                           r"N=2 M_D=4 M_E=2 zeta=1 lambda_D=1e\+40 lambda_E=3: its terms "
                           r"cancel below the 480-digit rounding floor"):
            sop(self.ROW)

    def test_an_os_outage_without_a_double_raises_naming_the_row(self):
        # the one-link outage, about 1e-160, is certified; its K-th power
        # underflowed to 0.0 without a word
        row = replace(self.ROW, scheme="OS")
        assert 0.0 < cdf_ratio(2.0, one_link_base(row)) < 1e-150
        with pytest.raises(ArithmeticError, match=r"^outage of OS/KA K=4 N=2 M_D=4 M_E=2 zeta=1 "
                           r"lambda_D=1e\+40 lambda_E=3 at x=2\.0 is about 10\^-6\d\d\.\d+, "
                           r"outside the double range"):
            sop(row)


@pytest.mark.parametrize("lam_d, lam_e", [(1e300, 1e-300), (1e200, 1e-120)])
@pytest.mark.parametrize("K", [1, 2])
def test_scale_ratio_past_the_double_range_reads_quadrature(K, lam_d, lam_e):
    # lambda_D/lambda_E overflows a double, which raised while the outage had
    # poles there; each kernel scale k x/lambda_D + (n+1)/lambda_E is finite
    cfg = _cfg(K=K, lambda_D=lam_d, lambda_E=lam_e, zeta=0.9)
    assert sop(cfg).value == pytest.approx(quad_cdf_ratio(cfg.rho(), cfg), rel=1e-9, abs=0.0)


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


def _quad_perfect_backhaul(cfg):
    """The zeta = 1 outage asymptote to 40 digits, from the eavesdropper CDF
    alone: E_Y[(rho(1+Y) - 1)^L] / (M_D!^links lambda_D^L), the OS value the
    K-th power of the one-link one. With Y = lambda_E Z and h the power,
    E[h(Y)] = h(0) + int h'(lambda_E z) lambda_E P(Z > z) dz, where P(Z > z)
    = 1 - (1 - Q(M_E, z))^N reads the regularized upper gamma Q."""
    links = cfg.K if cfg.scheme == "SS" else 1
    L = links * cfg.M_D
    with mpmath.workdps(40):
        rho, lam_e = mpmath.mpf(cfg.rho()), mpmath.mpf(cfg.lambda_E)

        def tail(z):
            upper = mpmath.gammainc(cfg.M_E, z, mpmath.inf, regularized=True)
            return (L * rho * lam_e * (rho - 1 + rho * lam_e * z) ** (L - 1)
                    * -mpmath.expm1(cfg.N * mpmath.log1p(-upper)))

        moment = (rho - 1) ** L + mpmath.quad(tail, [0, 1, 4 * cfg.M_E, mpmath.inf])
        value = moment / (mpmath.factorial(cfg.M_D) ** links * mpmath.mpf(cfg.lambda_D) ** L)
        return value ** cfg.K if cfg.scheme == "OS" else value


# (K, M_D, N, M_E, scheme, R_th): every (K, M_D) pair over {1, 2, 4}, each
# N and M_E in {1, 3}, both schemes and R_th in {0, 2}
_REFERENCE_ROWS = [
    (1, 1, 1, 1, "SS", 0.0), (1, 1, 3, 3, "SS", 2.0), (1, 2, 3, 1, "OS", 2.0),
    (1, 4, 1, 3, "SS", 2.0), (1, 4, 3, 1, "OS", 0.0), (2, 1, 3, 3, "OS", 0.0),
    (2, 2, 1, 1, "OS", 2.0), (2, 2, 3, 3, "SS", 2.0), (2, 4, 3, 3, "SS", 0.0),
    (2, 4, 1, 1, "OS", 2.0), (4, 1, 1, 3, "SS", 2.0), (4, 1, 3, 3, "OS", 2.0),
    (4, 2, 3, 1, "SS", 0.0), (4, 2, 1, 3, "OS", 2.0), (4, 4, 1, 1, "OS", 0.0),
    (4, 4, 3, 3, "SS", 2.0),
]


class TestPerfectBackhaulAsymptote:
    @pytest.mark.parametrize("K, M_D, N, M_E, scheme, R_th", _REFERENCE_ROWS)
    def test_within_an_ulp_of_the_quadrature(self, K, M_D, N, M_E, scheme, R_th):
        cfg = _cfg(K=K, M_D=M_D, N=N, M_E=M_E, scheme=scheme, R_th=R_th, lambda_D=1e3,
                   lambda_E=10.0 ** 0.5)
        got = sop_asymptotic(cfg).value
        assert 0.0 < got < 1.0
        assert abs(mpmath.mpf(got) - _quad_perfect_backhaul(cfg)) <= math.ulp(got)

    @pytest.mark.parametrize("lam_e, lam_d, expected", [(1e20, 1e3, 1.0), (1e30, 1e300, 0.0)])
    @pytest.mark.parametrize("scheme", ["SS", "OS"])
    def test_past_the_double_range_saturates(self, scheme, lam_e, lam_d, expected):
        # powers of lambda_E or lambda_D, or the value itself, leave the double range
        cfg = _cfg(K=4, N=4, M_D=4, M_E=4, R_th=2.0, lambda_E=lam_e, lambda_D=lam_d,
                   scheme=scheme)
        assert sop_asymptotic(cfg).value == expected

    def test_term_count_is_the_binomial_split(self):
        for scheme, L in (("SS", 2 * 3), ("OS", 3)):
            assert sop_asymptotic(_cfg(K=2, M_D=3, scheme=scheme)).term_count == L + 1

    def test_single_transmitter_schemes_coincide(self):
        cfg = _cfg(K=1, lambda_D=1e4)
        ss = sop_asymptotic(cfg).value
        os_ = sop_asymptotic(replace(cfg, scheme="OS")).value
        assert ss.hex() == os_.hex()

    def test_decay_rate_matches_diversity_order(self):
        lo = sop_asymptotic(_cfg(lambda_D=1e5)).value
        hi = sop_asymptotic(_cfg(lambda_D=1e6)).value
        expected = 10.0 ** (2 * 2)
        assert lo / hi == pytest.approx(expected, rel=0.01)

    def test_approaches_exact_outage(self):
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=1e4, lambda_E=1.0)
        asym = sop_asymptotic(cfg).value
        exact = sop(cfg).value
        assert asym == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("scheme", ["SS", "OS"])
    @pytest.mark.parametrize("K", [1, 2])
    def test_approaches_exact_outage_at_zero_threshold(self, scheme, K):
        # R_th = 0 puts the threshold at rho = 1, where only the mu = Lam
        # term of the binomial split survives
        cfg = _cfg(K=K, N=2, M_D=2, M_E=2, lambda_D=1e5, zeta=1.0, R_th=0.0,
                   scheme=scheme)
        assert cfg.rho() == 1.0
        asym = sop_asymptotic(cfg).value
        assert asym == pytest.approx(sop(cfg).value, rel=1e-3)

    def test_form_label(self):
        result = sop_asymptotic(_cfg())
        assert result.form == "asymptotic_perfect_backhaul"


class TestDiversityOrder:
    def test_values(self):
        assert diversity_order(_cfg(K=3, M_D=2)) == 6
        assert diversity_order(_cfg(K=1, M_D=1)) == 1

    @pytest.mark.parametrize("knowledge", ["KA", "KU"])
    def test_unreliable_backhaul_settles_at_its_floor(self, knowledge):
        cfg = _cfg(K=2, M_D=1, zeta=0.9, knowledge=knowledge, lambda_E=1.0)
        assert diversity_order(cfg) == 0
        p_lo = sop(replace(cfg, lambda_D=1e5)).value
        p_hi = sop(replace(cfg, lambda_D=1e6)).value
        assert math.log10(p_lo / p_hi) == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("scheme", ["SS", "OS"])
    def test_matches_measured_slope(self, scheme):
        cfg = _cfg(K=2, M_D=1, scheme=scheme, lambda_E=1.0)
        p_lo = sop(replace(cfg, lambda_D=1e5)).value
        p_hi = sop(replace(cfg, lambda_D=1e6)).value
        slope = math.log10(p_lo / p_hi)
        order = diversity_order(cfg)
        assert slope == pytest.approx(order, rel=0.05)
