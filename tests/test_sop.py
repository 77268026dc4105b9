"""Closed-form outage results against golden oracle values and limit laws.

The golden constants were computed by the quadrature oracle (tight settings,
cross-checked with an independent high-precision integration) before the
closed forms existed; see the module docstring of oracles for the recording
protocol.
"""

import hashlib
import importlib
import math
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from secrecy_lab.channel import SystemConfig
from secrecy_lab.esr import esr_asymptotic, esr_exact, esr_high_snr
from secrecy_lab.sop import (
    build_cdf_term_sum,
    build_high_snr_term_sum,
    cdf_ratio,
    diversity_order,
    sop,
    sop_asymptotic,
)

# the package's `sop` attribute is the function, not the module
sop_module = importlib.import_module("secrecy_lab.sop")

# quad_cdf_ratio(x=2) at K=2, N=2, M_D=M_E=2, lam_D=10, lam_E=1, zeta=1, SS/KA
GOLDEN_RATIO_CDF = 0.030717715588085443

# sha256 of repr((sorted reprs of the exact recipes, sorted reprs of the
# unity-dropped recipes)) at zeta = 0.9: a digest of the two recipe
# multisets, whatever order the builders emit them in. Recorded from the
# builders that still sorted their recipes. KU reads these KA recipes through
# F_KU = 1 - zeta + zeta * F_on, so its cells check that the builders reject
# a KU config.
RECIPE_DIGESTS = {
    ((2, 2, 2, 2), "SS", "KA"):
        "4c53bd6b205dfa22a1f1ce912ef56a2010c28ce694b2875c07cc5cf6b8b3da1b",
    ((2, 2, 2, 2), "OS", "KA"):
        "c7362cb6852e612de0176910402d186294cf16600666f215003b1c52a40b9a9d",
    ((3, 3, 3, 3), "SS", "KA"):
        "48b9f87cbb941119f2dc37a29b5daad111596b6b947f583e2a2ebedf398dc0ae",
    ((3, 3, 3, 3), "OS", "KA"):
        "7b98356370f35c93ecdfa264e968df2d9b6582497d28dbd350bdc7d6dec02c75",
    ((4, 2, 3, 2), "SS", "KA"):
        "885bc1cb9ebf9feeff15ab6f05ca3b11653954930f7ed1fc00d374045963a863",
    ((4, 2, 3, 2), "OS", "KA"):
        "415e33976edb089aed6c287e865d60a5f885def6cddae41e8d115fdbe3a94e50",
    ((4, 3, 3, 3), "SS", "KA"):
        "52ef03c682954b41a095034c24b208a45c063de700c107a2553d4b715053fadc",
    ((4, 3, 3, 3), "OS", "KA"):
        "93a5331684d5ee4e7151d9fd2b52f8ebe33c9651d3803d4cac77642539aac5ce",
}

RECIPE_CELLS = sorted(set(RECIPE_DIGESTS)
                      | {(shape, scheme, "KU") for shape, scheme, _ in RECIPE_DIGESTS})

# float.hex of (sop, cdf_ratio(3.0), esr_exact) and sop's term_count on KU
# rows at lambda_E = 3, recorded while KU still had zeta-folded term sums of
# its own, and re-derived once when the closed-form sums came to be exactly
# rounded by math.fsum (from the earlier code's term values, summed that
# way); keys (K, N, M_D, M_E), scheme, zeta, lambda_D. Values are
# (sop hex, term_count, cdf_ratio hex, esr_exact hex).
KU_PINNED_HEXES = {
    ((2, 2, 2, 2), "SS", 0.0, 1.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "SS", 0.0, 100.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "SS", 0.0, 1e6): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "SS", 0.5, 1.0): (
        "0x1.fe639c672b582p-1", 42, "0x1.ffcc6b41cc3b8p-1", "0x1.136f10f420724p-6"),
    ((2, 2, 2, 2), "SS", 0.5, 100.0): (
        "0x1.0021c4fcb4760p-1", 42, "0x1.008ed0388da48p-1", "0x1.3669b10d3174dp+1"),
    ((2, 2, 2, 2), "SS", 0.5, 1e6): (
        "0x1.0000000000000p-1", 42, "0x1.0000000000000p-1", "0x1.221769449d61cp+3"),
    ((2, 2, 2, 2), "SS", 0.9, 1.0): (
        "0x1.fd19b3201ad1cp-1", 42, "0x1.ffa327766f9e4p-1", "0x1.efc7eb5107341p-6"),
    ((2, 2, 2, 2), "SS", 0.9, 100.0): (
        "0x1.9b7fe16a26a2ap-4", 42, "0x1.a1a21cc7f7a6ap-4", "0x1.175f1f58ac82cp+2"),
    ((2, 2, 2, 2), "SS", 0.9, 1e6): (
        "0x1.9999999999998p-4", 42, "0x1.9999999999998p-4", "0x1.051511f0f40b3p+4"),
    ((2, 2, 2, 2), "SS", 1.0, 1.0): (
        "0x1.fcc738ce56b03p-1", 42, "0x1.ff98d6839876fp-1", "0x1.136f10f420724p-5"),
    ((2, 2, 2, 2), "SS", 1.0, 100.0): (
        "0x1.0e27e5a3afc00p-11", 42, "0x1.1da0711b48f00p-9", "0x1.3669b10d3174dp+2"),
    ((2, 2, 2, 2), "SS", 1.0, 1e6): (
        "0x1.8669aeb982f10p-64", 42, "0x1.018ad10feb8d8p-61", "0x1.221769449d61cp+4"),
    ((2, 2, 2, 2), "OS", 0.0, 1.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "OS", 0.0, 100.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "OS", 0.0, 1e6): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((2, 2, 2, 2), "OS", 0.5, 1.0): (
        "0x1.fe4d87deff984p-1", 78, "0x1.ffcb43745abd6p-1", "0x1.2f6c09fc54bf7p-6"),
    ((2, 2, 2, 2), "OS", 0.5, 100.0): (
        "0x1.0011280472c0fp-1", 78, "0x1.004dd4c791c88p-1", "0x1.3d9e6c4f03ab8p+1"),
    ((2, 2, 2, 2), "OS", 0.5, 1e6): (
        "0x1.0000000000000p-1", 78, "0x1.0000000000000p-1", "0x1.23e1d96a008bbp+3"),
    ((2, 2, 2, 2), "OS", 0.9, 1.0): (
        "0x1.fcf1f49165abbp-1", 78, "0x1.ffa11304a354fp-1", "0x1.11146f631912bp-5"),
    ((2, 2, 2, 2), "OS", 0.9, 100.0): (
        "0x1.9a90a6a67473dp-4", 78, "0x1.9dfa5e6d00146p-4", "0x1.1ddb617a501a6p+2"),
    ((2, 2, 2, 2), "OS", 0.9, 1e6): (
        "0x1.9999999999998p-4", 78, "0x1.9999999999998p-4", "0x1.06b1aa129a175p+4"),
    ((2, 2, 2, 2), "OS", 1.0, 1.0): (
        "0x1.fc9b0fbdff309p-1", 78, "0x1.ff9686e8b57adp-1", "0x1.2f6c09fc54bf7p-5"),
    ((2, 2, 2, 2), "OS", 1.0, 100.0): (
        "0x1.1280472c0f000p-12", 78, "0x1.37531e4722200p-10", "0x1.3d9e6c4f03ab8p+2"),
    ((2, 2, 2, 2), "OS", 1.0, 1e6): (
        "0x1.5df94ea7517f2p-65", 78, "0x1.d6711bf1226eap-63", "0x1.23e1d96a008bbp+4"),
    ((3, 2, 2, 3), "SS", 0.0, 1.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "SS", 0.0, 100.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "SS", 0.0, 1e6): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "SS", 0.5, 1.0): (
        "0x1.ffd492e2fad66p-1", 136, "0x1.fffd40106d0d2p-1", "0x1.d27a69fa19afap-9"),
    ((3, 2, 2, 3), "SS", 0.5, 100.0): (
        "0x1.000611d0a9ce8p-1", 136, "0x1.002d6295527aep-1", "0x1.27968fd1557bbp+1"),
    ((3, 2, 2, 3), "SS", 0.5, 1e6): (
        "0x1.0000000000000p-1", 136, "0x1.0000000000000p-1", "0x1.1e693010e01d3p+3"),
    ((3, 2, 2, 3), "SS", 0.9, 1.0): (
        "0x1.ffb1d53229e84p-1", 136, "0x1.fffb0cea5de46p-1", "0x1.a3d492944a514p-8"),
    ((3, 2, 2, 3), "SS", 0.9, 100.0): (
        "0x1.99f100898d36ap-4", 136, "0x1.9c2725330a1c8p-4", "0x1.0a07816f99bc2p+2"),
    ((3, 2, 2, 3), "SS", 0.9, 1e6): (
        "0x1.9999999999998p-4", 136, "0x1.9999999999998p-4", "0x1.01c511a8c9b3ep+4"),
    ((3, 2, 2, 3), "SS", 1.0, 1.0): (
        "0x1.ffa925c5f5accp-1", 136, "0x1.fffa8020da1a3p-1", "0x1.d27a69fa19afap-8"),
    ((3, 2, 2, 3), "SS", 1.0, 100.0): (
        "0x1.84742a739e000p-14", 136, "0x1.6b14aa93d7000p-11", "0x1.27968fd1557bbp+2"),
    ((3, 2, 2, 3), "SS", 1.0, 1e6): (
        "0x1.459be07007641p-92", 136, "0x1.e2ad46cf0a78ap-89", "0x1.1e693010e01d3p+4"),
    ((3, 2, 2, 3), "OS", 0.0, 1.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "OS", 0.0, 100.0): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "OS", 0.0, 1e6): (
        "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0", "0x0.0p+0"),
    ((3, 2, 2, 3), "OS", 0.5, 1.0): (
        "0x1.ffd2df758e00ap-1", 507, "0x1.fffd35a0949f2p-1", "0x1.ff06d09df2e4dp-9"),
    ((3, 2, 2, 3), "OS", 0.5, 100.0): (
        "0x1.0001908318702p-1", 507, "0x1.000ddee69e91ep-1", "0x1.3050b4b314359p+1"),
    ((3, 2, 2, 3), "OS", 0.5, 1e6): (
        "0x1.0000000000000p-1", 507, "0x1.0000000000000p-1", "0x1.2095250f1a432p+3"),
    ((3, 2, 2, 3), "OS", 0.9, 1.0): (
        "0x1.ffaec56d32ce0p-1", 507, "0x1.fffafa210b84ep-1", "0x1.cbec888e27679p-8"),
    ((3, 2, 2, 3), "OS", 0.9, 100.0): (
        "0x1.99b020f95fe89p-4", 507, "0x1.9a61569285015p-4", "0x1.11e23c3ac5637p+2"),
    ((3, 2, 2, 3), "OS", 0.9, 1e6): (
        "0x1.9999999999998p-4", 507, "0x1.9999999999998p-4", "0x1.03b96e27313c7p+4"),
    ((3, 2, 2, 3), "OS", 1.0, 1.0): (
        "0x1.ffa5beeb1c015p-1", 507, "0x1.fffa6b41293e5p-1", "0x1.ff06d09df2e4dp-8"),
    ((3, 2, 2, 3), "OS", 1.0, 100.0): (
        "0x1.9083187028000p-16", 507, "0x1.bbdcd3d23c000p-13", "0x1.3050b4b314359p+2"),
    ((3, 2, 2, 3), "OS", 1.0, 1e6): (
        "0x1.d23ff98635a4ep-95", 507, "0x1.636bfa26ecde6p-91", "0x1.2095250f1a432p+4"),
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
        ts = build_cdf_term_sum(_cfg(K=3, N=2, scheme="OS"))
        for x in (1.0, 1.1, 2.0, 10.0, 200.0):
            assert -1e-9 <= ts.eval(x) <= 1.0 + 1e-9


def _recipe_multisets(cfg):
    """The exact and the unity-dropped recipes, each as its sorted reprs."""
    return tuple(sorted(map(repr, build(cfg).recipes))
                 for build in (build_cdf_term_sum, build_high_snr_term_sum))


@pytest.mark.parametrize("shape, scheme, knowledge", RECIPE_CELLS)
def test_recipes_pinned(shape, scheme, knowledge):
    K, N, M_D, M_E = shape
    cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=100.0, lambda_E=3.0,
               zeta=0.9, scheme=scheme, knowledge=knowledge)
    if knowledge == "KU":
        for build in (build_cdf_term_sum, build_high_snr_term_sum):
            with pytest.raises(ValueError, match="KU"):
                build(cfg)
        return
    digest = hashlib.sha256(repr(_recipe_multisets(cfg)).encode()).hexdigest()
    assert digest == RECIPE_DIGESTS[shape, scheme, knowledge]


# sha256 over every small shape, one line repr(_recipe_multisets(cfg)) + "\n"
# per (K, N, M_D, M_E) in product(range(1, 4), repeat=4) and scheme (SS, then
# OS), at the RECIPE_DIGESTS point; recorded from the builders that still
# sorted their recipes
SMALL_SHAPES_DIGEST = "f154e8249170d36dc8747c2c2bbccf1de69ef8e720617c37f7411acfa8bd9368"


def test_recipes_pinned_on_every_small_shape():
    digest = hashlib.sha256()
    for (K, N, M_D, M_E), scheme in product(product(range(1, 4), repeat=4), ("SS", "OS")):
        cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=100.0, lambda_E=3.0,
                   zeta=0.9, scheme=scheme)
        digest.update((repr(_recipe_multisets(cfg)) + "\n").encode())
    assert digest.hexdigest() == SMALL_SHAPES_DIGEST


def test_unity_dropped_recipes_are_the_scale_free_exact_ones():
    # the products of the mu == m slots alone are the exact recipes whose
    # lambda_D and lambda_E powers cancel, without the exponential
    for (K, N, M_D, M_E), scheme in product(product(range(1, 4), repeat=4), ("SS", "OS")):
        cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=100.0, lambda_E=3.0,
                   zeta=0.9, scheme=scheme)
        scale_free = Counter(replace(r, exp_k=0) for r in build_cdf_term_sum(cfg).recipes
                             if r.lam_dest_pow + r.lam_eve_pow == 0)
        assert Counter(build_high_snr_term_sum(cfg).recipes) == scale_free


@pytest.mark.parametrize("scheme", ["SS", "OS"])
def test_rates_of_one_shape_build_its_recipes_once(scheme):
    # the unity-dropped recipes are filtered from the exact ones, so the
    # high-SNR and asymptotic rates build nothing after the exact term sum
    builders = (sop_module._ss_recipes, sop_module._os_recipes)
    for builder in builders:
        builder.cache_clear()
    cfg = _cfg(K=2, N=3, M_D=3, M_E=2, lambda_D=123.0, lambda_E=7.0, zeta=0.8,
               scheme=scheme)
    build_cdf_term_sum(cfg)
    misses = [builder.cache_info().misses for builder in builders]
    assert sum(misses) == 1
    esr_high_snr(cfg)
    esr_asymptotic(cfg)
    assert [builder.cache_info().misses for builder in builders] == misses


@pytest.mark.parametrize("build", [build_cdf_term_sum, build_high_snr_term_sum])
@pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0])
def test_builders_reject_gate_after_selection(build, zeta):
    # a KU config has no term sum of its own; the error names the identity
    with pytest.raises(ValueError, match=r"F_KU = 1 - zeta \+ zeta \* F_on"):
        build(_cfg(zeta=zeta, knowledge="KU"))


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
        # lambda_D = -200 dB: at x = 1 every float term reads +-1 and the sum
        # leaves the band (3.0 at K = 1); the exact recipes give the outage,
        # 1 - O(1e-80), which rounds to 1
        cfg = _cfg(K=K, lambda_D=1e-20, zeta=0.9, R_th=0.0, scheme=scheme,
                   knowledge=knowledge)
        assert sop(cfg).value == 1.0


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


class TestPerfectBackhaulAsymptote:
    def test_single_transmitter_schemes_coincide(self):
        cfg = _cfg(K=1, lambda_D=1e4)
        ss = sop_asymptotic(cfg).value
        os_ = sop_asymptotic(replace(cfg, scheme="OS")).value
        assert ss == pytest.approx(os_, rel=1e-12)

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
