"""Rate integration layer: kernels, term integrals, and full rate values.

Golden and frozen constants were produced by independent quadrature (mpmath
plus scipy cross-checks) before the closed forms were wired up.
"""

import importlib
import math
import warnings
from dataclasses import replace
from itertools import product

import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import exp1

from secrecy_lab import algebra
from secrecy_lab import esr as esr_module
from secrecy_lab.algebra import TermSum
from secrecy_lab.channel import SystemConfig, cdf_snr_eve_max, pdf_snr_eve_max, sf_snr_dest
from secrecy_lab.esr import (
    EsrResult,
    esr_asymptotic,
    esr_exact,
    esr_high_snr,
)
from secrecy_lab.oracles import quad_cdf_ratio, quad_esr

# the package's `sop` attribute is the function, not the module
sop_module = importlib.import_module("secrecy_lab.sop")
from secrecy_lab.sop import (
    build_cdf_term_sum,
    cdf_ratio,
    one_link_base,
    sop,
)

# double quadrature of the defining rate integral at K=N=1, M_D=M_E=1,
# lam_D=100, lam_E=1, zeta=1; equals (e^(1/lam)/ln2)(E1(1/lam) - e E1((1+lam)/lam))
GOLDEN_RATE = 5.0294816453969297


# float.hex of (esr_exact, esr_high_snr, esr_asymptotic) at zeta = 0.9,
# recorded before the kernels and partial-fraction rows were memoized, and
# re-derived once when the rate's term contributions came to be summed by
# math.fsum (from the earlier code's contributions, summed that way); keys
# (K, N, M_D, M_E), lambda_D, lambda_E, scheme, knowledge. The OS rows were
# re-pinned when OS over K >= 2 links came to integrate its one-link sum,
# each checked within 1e-9 relative of its reference first: quad_esr for the
# exact rate, a 40-digit quadrature of the K-fold unity-dropped recipes for
# the high-SNR rate and the asymptote. The last two rows are closed_ladder's
# OS (2, 3, 3, 3) row. The SS rows were re-pinned when SS rates came to be
# closed-form sums of the kernel integral_0^inf t^p e^(-at)/(1+t) dt, each
# checked within 1e-9 relative of its reference first: quad_esr for the
# exact rate, and for the new high-SNR rate and asymptote the QUADPACK
# integrals of their definitions from channel's CDFs (_quad_high_snr,
# _quad_asymptote), which they met within 4e-15. The OS rows were re-pinned
# when OS came to read the one-link term table, whose high-SNR rate drops
# the destination unity alone: each exact rate checked within 9.7e-13 of
# quad_esr first, each high-SNR rate within 9.7e-16 of _quad_os_high_snr,
# and each asymptote within 6.8e-16 of the same QUADPACK integrals at
# lambda_D = 1, S log2(lambda_D) + C from channel's functions alone.
LADDER_LAMBDA_E = 10.0 ** 0.5
PINNED_RATE_HEXES = {
    ((2, 2, 2, 2), 10.0, 2.0, "SS", "KA"): (
        "0x1.fa3dada2423bep+0", "0x1.e95cffd67d233p+0", "0x1.e07d99ebb705fp+0"),
    ((2, 2, 2, 2), 10.0, 2.0, "SS", "KU"): (
        "0x1.e1ba7ab00dab0p+0", "0x1.d2ff4b70d2bccp+0", "0x1.cf97747823813p+0"),
    ((2, 2, 2, 2), 10.0, 2.0, "OS", "KA"): (
        "0x1.0790fd8b3d37fp+1", "0x1.fcce4c7c4ad21p+0", "0x1.f507b8556f996p+0"),
    ((2, 2, 2, 2), 10.0, 2.0, "OS", "KU"): (
        "0x1.f8f109a2f6c8cp+0", "0x1.e899a09ad3b8ap+0", "0x1.e669cf267ecf6p+0"),
    ((3, 2, 2, 3), 100.0, LADDER_LAMBDA_E, "SS", "KA"): (
        "0x1.1cf3eb86526a8p+2", "0x1.1c8ef570e2fffp+2", "0x1.1c8b9b17efd25p+2"),
    ((2, 3, 3, 3), 100.0, LADDER_LAMBDA_E, "OS", "KA"): (
        "0x1.24ccc3dd98f6cp+2", "0x1.247853e3f896bp+2", "0x1.247743631ad4ep+2"),
    ((2, 3, 3, 3), 100.0, LADDER_LAMBDA_E, "OS", "KU"): (
        "0x1.1043ba11f2d56p+2", "0x1.0ffd2f92d5585p+2", "0x1.0ffd2f14c21fap+2"),
}

# SS esr_asymptotic at lambda_D = 1e4, lambda_E = 2, re-pinned when the
# asymptote became the limit of the destination-unity-dropped rate, each
# within 5e-16 relative of _quad_asymptote; keys (K, N, M_D, M_E),
# knowledge, zeta
SS_ASYMPTOTIC_RATES = {
    ((2, 2, 2, 2), "KA", 0.5): 8.663762401323686,
    ((2, 2, 2, 2), "KA", 1.0): 11.977900694950089,
    ((2, 2, 2, 2), "KU", 0.5): 5.988950347475044,
    ((2, 2, 2, 2), "KU", 1.0): 11.977900694950089,
    ((3, 2, 2, 3), "KA", 0.5): 9.85400755581587,
    ((3, 2, 2, 3), "KA", 1.0): 11.776966702370714,
    ((3, 2, 2, 3), "KU", 0.5): 5.888483351185357,
    ((3, 2, 2, 3), "KU", 1.0): 11.776966702370714,
    ((2, 3, 3, 1), "KA", 0.5): 9.545206488860396,
    ((2, 3, 3, 1), "KA", 1.0): 13.062991038276808,
    ((2, 3, 3, 1), "KU", 0.5): 6.531495519138404,
    ((2, 3, 3, 1), "KU", 1.0): 13.062991038276808,
}


def _cfg(**overrides):
    base = dict(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0, lambda_E=1.0,
                zeta=1.0, R_th=1.0, scheme="SS", knowledge="KA")
    base.update(overrides)
    return SystemConfig(**base)


def _quad_sum(f, scales):
    # integral_0^inf f, split at 1/4 to 64 times each scale. A rough pass
    # sets the absolute tolerance, 1e-13 of the integral, that pieces where
    # f is negligible meet; each piece must meet it or 1e-12 relative
    edges = [0.0] + sorted({scale * 2.0 ** m for scale in scales for m in range(-2, 7)})
    bounds = list(zip(edges, edges[1:] + [math.inf]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        rough = math.fsum(quad(f, lo, hi, limit=200, epsrel=1e-6)[0] for lo, hi in bounds)
    return math.fsum(quad(f, lo, hi, limit=800, epsabs=1e-13 * abs(rough), epsrel=1e-12)[0]
                     for lo, hi in bounds)


def _one_minus_power(s, K):
    # 1 - (1 - s)^K without cancellation, for s in [0, 1]
    return 1.0 if s >= 1.0 else -math.expm1(K * math.log1p(-s))


def _dest_survival(cfg, x, lam_d):
    # P(X > x) of the SS/KA selected link, 1 - (1 - zeta S_D(x))^K
    return _one_minus_power(cfg.zeta * sf_snr_dest(x, cfg.M_D, lam_d), cfg.K)


def _quad_high_snr(cfg):
    """(1/ln 2) integral_0^inf F_Y(u) (1 - F_X(1+u))/(1+u) du from channel's CDFs."""
    def f(u):
        return (cdf_snr_eve_max(u, cfg.N, cfg.M_E, cfg.lambda_E)
                * _dest_survival(cfg, 1.0 + u, cfg.lambda_D) / (1.0 + u))
    return _quad_sum(f, [cfg.lambda_E, cfg.lambda_D]) / math.log(2.0)


def _quad_asymptote(cfg):
    """(S ln lambda_D + E[ln G; G>0] - S E[ln(1+Y)]) / ln 2 from channel's CDFs.

    With S_G(g) = P(X > lambda_D g), E[ln G; G>0] = integral_1^inf S_G/g dg
    - integral_0^1 (S - S_G)/g dg by parts, and E[ln(1+Y)] =
    integral_0^inf (1 - F_Y(t))/(1+t) dt.
    """
    slope = 1.0 - (1.0 - cfg.zeta) ** cfg.K
    below = quad(lambda g: (slope - _dest_survival(cfg, g, 1.0)) / g, 0.0, 1.0,
                 limit=800, epsabs=0.0, epsrel=1e-12)[0]
    above = quad(lambda g: _dest_survival(cfg, g, 1.0) / g, 1.0, math.inf,
                 limit=800, epsabs=0.0, epsrel=1e-12)[0]
    log_one_plus_y = _quad_sum(
        lambda t: _one_minus_power(sf_snr_dest(t, cfg.M_E, cfg.lambda_E), cfg.N) / (1.0 + t),
        [cfg.lambda_E])
    return (slope * math.log(cfg.lambda_D) + above - below
            - slope * log_one_plus_y) / math.log(2.0)


def _os_link_survival(cfg, x):
    # E_Y[sf_D(x(1+Y))]: one always-on link's survival with the destination
    # unity dropped, split where either factor turns
    def f(y):
        return (pdf_snr_eve_max(y, cfg.N, cfg.M_E, cfg.lambda_E)
                * sf_snr_dest(x * (1.0 + y), cfg.M_D, cfg.lambda_D))
    turns = [scale * 2.0 ** m for scale in (cfg.lambda_E, cfg.lambda_D / x) for m in range(-2, 6)]
    edges = [0.0] + sorted(t for t in turns if t > 0.0) + [math.inf]
    return math.fsum(quad(f, lo, hi, epsabs=1e-17, epsrel=1e-13, limit=200)[0]
                     for lo, hi in zip(edges, edges[1:]))


def _quad_os_high_snr(cfg):
    """(1/ln 2) integral_0^inf [1 - (1 - zeta S(e^s))^K] ds of OS/KA from channel's
    functions alone, S the one-link survival of X/(1+Y), split around its knee
    s = ln(lambda_D/(1 + lambda_E)). S(e^s) < e^-2900 past x = e^8 lambda_D."""
    def f(s):
        return _one_minus_power(cfg.zeta * _os_link_survival(cfg, math.exp(s)), cfg.K)
    knee = math.log(cfg.lambda_D / (1.0 + cfg.lambda_E))
    edges = [0.0] + sorted({knee + m for m in (-3, -1, 0, 1, 2, 4) if knee + m > 0.0})
    edges.append(max(edges[-1] + 1.0, math.log(cfg.lambda_D) + 8.0))
    with warnings.catch_warnings():
        # pieces where the survival has vanished cannot meet a relative tolerance
        warnings.simplefilter("ignore", IntegrationWarning)
        return math.fsum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                         for lo, hi in zip(edges, edges[1:])) / math.log(2.0)


@pytest.fixture(autouse=True)
def fresh_rates():
    # KA rates are memoized per config and form: a value computed under a
    # planted fault must not outlive its test
    esr_module._ka_rate.cache_clear()
    yield
    esr_module._ka_rate.cache_clear()


class TestKernel:
    # integral_0^inf t^p e^(-at)/(1+t) dt = p! e^a Gamma(-p, a), taken as a
    # logarithm; the reference is mpmath's gammainc at 40 digits
    @staticmethod
    def _reference(p, a):
        import mpmath
        with mpmath.workdps(40):
            return float(math.factorial(p) * mpmath.exp(a) * mpmath.gammainc(-p, mpmath.mpf(a)))

    @pytest.mark.parametrize("p, a", [(0, 745.0), (0, 1000.0), (2, 1000.0), (5, 2000.5)])
    def test_past_the_incomplete_gamma_underflow(self, p, a):
        # Gamma(-p, a) underflows a double once a passes about 708, while the
        # kernel stays near (p!)/a, as at lambda_E = -30 dB
        log_kernel, _size = esr_module._log_stieltjes(p, a)
        assert math.exp(log_kernel) == pytest.approx(self._reference(p, a), rel=1e-12)

    @pytest.mark.parametrize("p, a", [(0, 1e-300), (3, 1e-5), (6, 0.7)])
    def test_small_rates(self, p, a):
        # at lambda_D far above the eavesdroppers' the kernel grows like
        # (p-1)!/a^p, or ln(1/a) at p = 0
        log_kernel, _size = esr_module._log_stieltjes(p, a)
        assert math.exp(log_kernel) == pytest.approx(self._reference(p, a), rel=1e-12)


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

    def test_negative_term_sum_raises_instead_of_reading_zero(self, monkeypatch):
        # SS K=4, N=3, M_D=1, M_E=4 at (-7, 10) dB: the term-by-term
        # integrator's 48 unity-dropped terms cancelled to -5.1e-15; the
        # closed form reads 1.55e-19, the QUADPACK integral of its definition.
        # The asymptote is affine in ln(lambda_D) and clamps to 0 here
        cfg = _cfg(K=4, N=3, M_D=1, M_E=4, lambda_D=10.0 ** -0.7, lambda_E=10.0, zeta=0.9)
        assert esr_high_snr(cfg).value == pytest.approx(_quad_high_snr(cfg), rel=1e-9, abs=0.0)
        assert _quad_asymptote(cfg) < 0.0 and esr_asymptotic(cfg).value == 0.0
        # the backstop: a negative sum raises instead of clamping to 0
        monkeypatch.setattr(esr_module, "_ka_rate", lambda cfg, form: (-5.1e-15, 48))
        for row, zeta in ((cfg, "0.9"), (replace(cfg, knowledge="KU"), "1")):
            # a KU row reads its always-on row, which the error names
            with pytest.raises(ArithmeticError, match=rf"^high_snr rate of SS/KA K=4 N=3 M_D=1 "
                               rf"M_E=4 zeta={zeta} lambda_D=0\.199526 lambda_E=10: its term sum "
                               rf"is negative \(-5\.1e-15\) over 48 terms"):
                esr_high_snr(row)
        assert esr_asymptotic(cfg).value == 0.0

    def test_exact_rate_above_its_bound_raises(self, monkeypatch):
        # SS K=2, N=4, M_D=4, M_E=1 at (4.5, -29.2) dB: the term-by-term
        # integrator's 416 exact terms summed to 1,303.8 bpcu, above
        # log2(1 + K M_D lambda_D) = 4.56, a bound no secrecy rate exceeds;
        # the closed form reads quad_esr's 3.737
        cfg = _cfg(K=2, N=4, M_D=4, M_E=1, lambda_D=10.0 ** 0.45, lambda_E=10.0 ** -2.92,
                   zeta=0.9)
        assert esr_exact(cfg).value == pytest.approx(quad_esr(cfg), rel=1e-9, abs=0.0)
        # the backstop, which KU meets through its base
        monkeypatch.setattr(esr_module, "_ka_rate", lambda cfg, form: (1303.8, 416))
        for row in (cfg, replace(cfg, knowledge="KU")):
            with pytest.raises(ArithmeticError, match=r"exceeds the bound .* = 4\.55"):
                esr_exact(row)

    def test_high_snr_rate_above_its_bound_raises_naming_the_row(self, monkeypatch):
        # dropping the destination unity only lowers a rate, so the exact
        # rate's bound holds for the high-SNR rate of every row too
        cfg = _cfg(K=3, N=2, lambda_D=10.0, zeta=0.9, scheme="OS")
        monkeypatch.setattr(esr_module, "_ka_rate", lambda cfg, form: (7.5, 9))
        for row in (cfg, replace(cfg, knowledge="KU")):
            with pytest.raises(ArithmeticError, match=r"high_snr rate of OS/KA K=3 N=2 M_D=2 "
                               r"M_E=2 zeta=(0\.9|1) lambda_D=10 lambda_E=1: 7\.5 exceeds the "
                               r"bound log2\(1 \+ K\*M_D\*lambda_D\) = 5\.93"):
                esr_high_snr(row)

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
        # K = N = M = 1: log2 lambda_D - (gamma + e^(1/lambda_E) E1(1/lambda_E)) / ln 2,
        # E[ln X] of an exponential X less E[ln(1+Y)]
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=5e3, lambda_E=1.0)
        expected = (math.log2(cfg.lambda_D) - (0.5772156649015329 + math.exp(1.0 / cfg.lambda_E)
                                               * exp1(1.0 / cfg.lambda_E)) / math.log(2.0))
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
        memos = (esr_module._log_stieltjes, esr_module._ka_rate,
                 esr_module._os_asymptote_constant)
        for memo in memos:
            memo.cache_clear()
        assert self._hexes(rows) == PINNED_RATE_HEXES
        assert esr_module._log_stieltjes.cache_info().hits > 0
        assert self._hexes(rows) == PINNED_RATE_HEXES
        assert esr_module._ka_rate.cache_info().hits > 0
        for memo in memos:
            memo.cache_clear()
        assert self._hexes(rows[::-1]) == PINNED_RATE_HEXES

    def test_memos_are_bounded(self):
        for memo in (esr_module._log_stieltjes, esr_module._ka_rate,
                     esr_module._os_asymptote_constant):
            maxsize = memo.cache_parameters()["maxsize"]
            assert maxsize is not None and 0 < maxsize <= 65536

    def test_a_ku_row_after_its_always_on_row_integrates_nothing(self, monkeypatch):
        # OS over K >= 2 links: the KU rate is zeta times the memoized KA rate
        # of its always-on row, so it runs no exp-sinh integral of its own
        calls = []
        exp_sinh = esr_module._exp_sinh
        monkeypatch.setattr(esr_module, "_exp_sinh",
                            lambda *args: calls.append(args) or exp_sinh(*args))
        esr_module._ka_rate.cache_clear()
        esr_module._os_asymptote_constant.cache_clear()
        on = _cfg(K=3, zeta=1.0, lambda_D=100.0, scheme="OS")
        for rate in (esr_exact, esr_high_snr, esr_asymptotic):
            value = rate(on).value
            before = len(calls)
            assert before > 0
            assert rate(replace(on, zeta=0.7, knowledge="KU")).value == 0.7 * value
            assert len(calls) == before


class TestIntegralsOutsideTheDoubleRange:
    # SS/KA K = N = 1, M_E = 2, lambda_E = 10, zeta = 1, far above the usual
    # destination SNRs: the term-by-term integrator's term integral of about
    # ln(b)/b^2 at the pole b = lambda_D/lambda_E underflowed past lambda_D ~
    # 1e160, and at 1e301 one more shape's rational branch overflowed. The
    # closed form's kernels, taken in log form, stay in range
    @staticmethod
    def _cfg(M_D, lambda_D):
        return _cfg(K=1, N=1, M_D=M_D, M_E=2, lambda_D=lambda_D, lambda_E=10.0, zeta=1.0)

    def test_still_finite_below_the_underflow(self):
        assert esr_exact(self._cfg(2, 1e150)).value == pytest.approx(494.84, rel=1e-4)

    @pytest.mark.parametrize("M_D, lambda_D", [(1, 1e200), (2, 1e200), (2, 1e301)])
    def test_reads_quadrature(self, M_D, lambda_D):
        # these read 0.0, 0.1152 and a bare OverflowError once, then raised
        cfg = self._cfg(M_D, lambda_D)
        assert esr_exact(cfg).value == pytest.approx(quad_esr(cfg), rel=1e-9, abs=0.0)

    def test_asymptotic_zero_integral_is_a_value(self):
        # at lambda_D = lambda_E = 2 the affine asymptote, 1 - (gamma +
        # e^0.5 E1(0.5)) / ln 2, is negative, and reads 0
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=2.0, lambda_E=2.0, zeta=1.0)
        assert _quad_asymptote(cfg) < 0.0
        assert esr_asymptotic(cfg).value == 0.0


class TestScaleRatiosOutsideTheDoubleRange:
    # lambda_D / lambda_E far below the double range: the pole gaps of a
    # shape underflow, or the pole itself does; both used to raise a
    # ValueError, as if the config were invalid

    def test_underflowed_pole_gaps_are_a_numeric_error(self):
        # (-300, 2900) dB: the closed-form terms cancel by about 1e1280,
        # past even the 480-digit rung of the mpmath fallback
        cfg = _cfg(lambda_D=1e-30, lambda_E=1e290)
        with pytest.raises(ArithmeticError, match=r"exact rate of SS/KA K=2 N=2 M_D=2 M_E=2 "
                           r"zeta=1 lambda_D=1e-30 lambda_E=1e\+290: its terms cancel below "
                           r"the 480-digit rounding floor") as info:
            esr_exact(cfg)
        assert not isinstance(info.value, ValueError)
        assert sop(cfg).value == 1.0  # the outage is still certified

    def test_overflowed_kernel_scale_is_a_numeric_error_naming_the_row(self):
        # the rates, about 1e-647 and far less, have no double; the
        # asymptote reads lambda_D through ln(lambda_D) alone, and its
        # negative affine value reads 0. The outage's kernel scale x/lambda_D
        # overflows (its pole location underflowed once), and so does that of
        # every OS rate at K >= 2
        cfg = _cfg(K=1, N=1, M_D=1, M_E=1, lambda_D=10.0 ** -323, lambda_E=10.0)
        for rate in (esr_exact, esr_high_snr):
            with pytest.raises(ArithmeticError, match=r"rate of SS/KA K=1 N=1 M_D=1 M_E=1 "
                               r"zeta=1 lambda_D=9\.88131e-324 lambda_E=10 is about "
                               r"10\^-\d.*, outside the double range") as info:
                rate(cfg)
            assert not isinstance(info.value, ValueError)
        assert _quad_asymptote(cfg) < 0.0 and esr_asymptotic(cfg).value == 0.0
        with pytest.raises(ArithmeticError, match=r"kernel scale k\*x/lambda_D \+ \(n\+1\)/lambda_E "
                           r"= inf at x=2\.0, k=1, n=0 is outside the double range, in the "
                           r"outage of K=1 N=1 M_D=1 M_E=1 zeta=1 lambda_D=9\.88131e-324"):
            sop(cfg)
        for rate in (esr_exact, esr_high_snr):
            with pytest.raises(ArithmeticError, match=r"rate of OS/KA K=2 N=1 .*lambda_D=9\.88131e"
                               r"-324 lambda_E=10: the integrand leaves the double range"):
                rate(replace(cfg, K=2, scheme="OS"))


# SS rows against quad_esr: (K, N, M_D, M_E), zeta, lambda_D and lambda_E in
# dB. The term-by-term integrator raised "negative" on the first and last,
# read the second 2.4e-6 relative off without a word, and summed the third
# past its Jensen bound.
SS_ORACLE_ROWS = [
    ((3, 4, 3, 2), 0.5, 20.0, -30.0),
    ((4, 4, 4, 4), 0.9, 40.0, -10.0),
    ((2, 4, 4, 1), 0.9, 4.5, -29.2),
    ((4, 4, 3, 2), 0.9, 30.0, -30.0),
]


def _ss_row(shape, zeta, db_d, db_e, **overrides):
    K, N, M_D, M_E = shape
    return _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=10.0 ** (db_d / 10.0),
                lambda_E=10.0 ** (db_e / 10.0), zeta=zeta, **overrides)


class TestClosedFormSs:
    # SS for any K, and either scheme at K = 1: X and Y are independent, so
    # each rate is a closed-form sum of the kernel
    # integral_0^inf t^p e^(-at)/(1+t) dt

    @pytest.mark.parametrize("shape, zeta, db_d, db_e", SS_ORACLE_ROWS)
    def test_weak_eavesdropper_rows_read_quadrature(self, shape, zeta, db_d, db_e):
        for knowledge in ("KA", "KU"):
            cfg = _ss_row(shape, zeta, db_d, db_e, knowledge=knowledge)
            assert esr_exact(cfg).value == pytest.approx(quad_esr(cfg), rel=1e-9, abs=0.0)

    def test_a_cancelling_sum_escalates_to_mpmath(self, monkeypatch):
        # K = N = M = 4 at (0, 15) dB: the float terms cancel by 3.5e15 and
        # read 3.8e-14; quadrature is the weaker side this far down
        calls = []
        certify_mp = algebra._certify_mp
        monkeypatch.setattr(algebra, "_certify_mp",
                            lambda *args: calls.append(args) or certify_mp(*args))
        cfg = _ss_row((4, 4, 4, 4), 0.5, 0.0, 15.0)
        assert esr_exact(cfg).value == pytest.approx(quad_esr(cfg), rel=1e-6, abs=0.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("form", ["exact", "high_snr"])
    def test_hoisted_factors_give_each_terms_own_product(self, form):
        # the escalating row above: _mp_terms computes each power and
        # exponential once per call, and every value must keep the mpf bits
        # of the term's own product at the ladder's first two rungs
        import mpmath

        cfg = _ss_row((4, 4, 4, 4), 0.5, 0.0, 15.0)
        terms = esr_module._rate_terms(4, 4, 4, 4, form)
        high_snr = form == "high_snr"
        for dps in (60, 120):
            with mpmath.workdps(dps):
                lam_d, lam_e, zeta = map(mpmath.mpf, (cfg.lambda_D, cfg.lambda_E, cfg.zeta))
                kernels = {(k, n, p): math.factorial(p) * mpmath.exp(k / lam_d + n / lam_e)
                           * mpmath.gammainc(-p, k / lam_d + n / lam_e)
                           for k, n, p in {(k, n, p) for *_head, k, n, _i, _j, p in terms}}
                per_term = [mpmath.mpf(c) / den * zeta ** k * lam_d ** -i * lam_e ** -j
                            * kernels[k, n, p] * (mpmath.exp(-k / lam_d) if high_snr else 1)
                            for _log_c, _sign, c, den, k, n, i, j, p in terms]
                hoisted = esr_module._mp_terms(mpmath, terms, cfg, high_snr)
                assert [v._mpf_ for v in hoisted] == [v._mpf_ for v in per_term]

    def test_rows_that_stay_in_floats_call_no_mpmath(self, monkeypatch):
        def no_mpmath(*args):
            raise AssertionError("escalated")
        monkeypatch.setattr(algebra, "_certify_mp", no_mpmath)
        for shape, zeta, db_d, db_e in SS_ORACLE_ROWS:
            for rate in (esr_exact, esr_high_snr, esr_asymptotic):
                assert rate(_ss_row(shape, zeta, db_d, db_e)).value > 0.0

    def test_term_counts(self):
        # K = N = M_D = M_E = 2: P_2(u)^k has k + 1 powers of u, so 1 - F_X
        # has 2 + 3 terms and F_Y 1 + 2 + 3; the high-SNR rate expands each
        # destination power u^i into i + 1 binomial terms, (1 + 2) + (1 + 2 +
        # 3); the asymptote reads the 2 + 3 terms of 1 - F_Y and K terms of
        # E[ln G; G > 0]
        cfg = _cfg(zeta=0.9)
        counts = [rate(cfg).term_count for rate in (esr_exact, esr_high_snr, esr_asymptotic)]
        assert counts == [5 * 6, 9 * 6, 5 + 2]
        assert [rate(replace(cfg, knowledge="KU")).term_count
                for rate in (esr_exact, esr_high_snr, esr_asymptotic)] == counts

    @pytest.mark.parametrize("shape, zeta, db_e", [
        ((2, 2, 2, 2), 1.0, 9.0), ((1, 1, 1, 1), 1.0, 0.0), ((3, 2, 3, 2), 0.9, 5.0),
        ((1, 3, 2, 1), 0.5, -10.0)])
    def test_high_snr_rate_meets_quadrature_and_the_exact_rate(self, shape, zeta, db_e):
        # drop only the destination unity: the gap to the exact rate shrinks
        # as lambda_D grows, where dropping both left a constant 0.086 bpcu
        # at criterion 7's row (the first)
        gaps = []
        for db_d in (30.0, 50.0, 70.0):
            cfg = _ss_row(shape, zeta, db_d, db_e)
            high_snr = esr_high_snr(cfg).value
            assert high_snr == pytest.approx(_quad_high_snr(cfg), rel=1e-9, abs=0.0)
            gaps.append(abs(esr_exact(cfg).value - high_snr))
        assert gaps[1] < 0.05 * gaps[0] and gaps[2] < 0.05 * gaps[1] and gaps[2] < 1e-4

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 2, 1), (3, 2, 3, 2)])
    @pytest.mark.parametrize("zeta", [0.5, 0.9, 1.0])
    def test_asymptote_meets_quadrature_and_rises_by_its_slope(self, shape, zeta):
        # the slope, (1 - (1-zeta)^K) log2(10) per decade, reads K and zeta
        # alone, so N moves the offset only
        cfg = _ss_row(shape, zeta, 40.0, 5.0)
        assert esr_asymptotic(cfg).value == pytest.approx(_quad_asymptote(cfg), rel=1e-9)
        for knowledge, slope in (("KA", 1.0 - (1.0 - zeta) ** cfg.K), ("KU", zeta)):
            for N in (1, 2, 4):
                row = replace(cfg, N=N, knowledge=knowledge)
                rise = (esr_asymptotic(replace(row, lambda_D=1e5)).value
                        - esr_asymptotic(row).value)
                assert abs(rise - slope * math.log2(10.0)) < 1e-12

    def test_high_snr_rate_meets_its_asymptote(self):
        # criterion 7's row at 50 and 90 dB
        for db_d, tol in ((50.0, 1e-9), (90.0, 1e-12)):
            cfg = _ss_row((2, 2, 2, 2), 1.0, db_d, 9.0)
            assert abs(esr_high_snr(cfg).value - esr_asymptotic(cfg).value) < tol


class TestOrderFree:
    # every closed-form series is summed by math.fsum, so a value depends
    # only on the multiset of its term values: reversing the outage table
    # keeps every bit of the outage and of the OS rates, and reversing a
    # rate's closed-form terms every bit of the rate (a pairwise sum moved
    # the last bits of both)
    SS_3333 = _cfg(K=3, N=3, M_D=3, M_E=3, lambda_D=100.0, lambda_E=LADDER_LAMBDA_E,
                   zeta=0.9)
    SS_CFG = _cfg(K=3, N=3, M_D=2, M_E=2, lambda_D=100.0, lambda_E=LADDER_LAMBDA_E,
                  zeta=0.9)
    OS_CFG = replace(SS_CFG, scheme="OS")

    @pytest.mark.parametrize("cfg", [SS_3333, SS_CFG, OS_CFG], ids=["SS-3333", "SS", "OS"])
    def test_reversed_terms_keep_every_bit(self, cfg, monkeypatch):
        term_sum = build_cdf_term_sum(one_link_base(cfg) if cfg.scheme == "OS" else cfg)
        reversed_sum = TermSum(term_sum.terms[::-1], term_sum.key)
        for x in (1.0, 2.0, 3.7):
            assert reversed_sum.eval(x).hex() == term_sum.eval(x).hex()
            assert (reversed_sum.survival(x, 0.0)[0].hex()
                    == term_sum.survival(x, 0.0)[0].hex())
        values = (lambda c: sop(c).value, lambda c: esr_exact(c).value,
                  lambda c: esr_high_snr(c).value, lambda c: esr_asymptotic(c).value)
        forward = [value(cfg).hex() for value in values]
        rate_terms, term_table = esr_module._rate_terms, sop_module._term_table
        monkeypatch.setattr(esr_module, "_rate_terms", lambda *key: rate_terms(*key)[::-1])
        monkeypatch.setattr(sop_module, "_term_table", lambda *shape: term_table(*shape)[::-1])
        sop_module._term_sum_for_key.cache_clear()
        esr_module._ka_rate.cache_clear()
        assert [value(cfg).hex() for value in values] == forward
        sop_module._term_sum_for_key.cache_clear()


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
        # P_3(u) has 3 powers of u, split into i + 1 terms each, times the 1 +
        # 3 eavesdropper terms of N = 2, M_E = 3; every rate reads that table
        cfg = _os_row((3, 2, 3, 3), 0.9, 20.0, 5.0)
        base = one_link_base(cfg)
        assert (base.K, base.zeta, base.knowledge) == (1, 1.0, "KA")
        assert sop(cfg).term_count == len(build_cdf_term_sum(base).terms) == 6 * 4
        for rate in (esr_exact, esr_high_snr, esr_asymptotic):
            assert rate(cfg).term_count == rate(replace(cfg, knowledge="KU")).term_count == 24

    @pytest.mark.parametrize("N, M_D, M_E", [(1, 1, 1), (2, 3, 2), (3, 2, 4)])
    def test_unity_dropped_survival_is_that_of_x_over_one_plus_y(self, N, M_D, M_E):
        # u = 0 in t = x y + (x - u) drops the destination unity: the one-link
        # survival of X/(1+Y) that the high-SNR rate reads, below x = 1 too
        cfg = _cfg(K=1, N=N, M_D=M_D, M_E=M_E, lambda_D=50.0, lambda_E=2.0)
        term_sum = build_cdf_term_sum(cfg)
        for x in (0.01, 0.5, 1.0, 4.0, 30.0):
            survival, bound = term_sum.survival(x, 0.0)
            assert survival == pytest.approx(_os_link_survival(cfg, x), rel=1e-10)
            assert 0.0 < bound < 1e-12

    @pytest.mark.parametrize("shape, zeta, db_d, db_e", [
        ((3, 3, 2, 2), 0.9, 20.0, 5.0), ((2, 3, 3, 3), 0.9, 20.0, 5.0),
        ((3, 2, 2, 2), 0.9, 10.0, -30.0)])
    def test_high_snr_rate_meets_the_channel_reference(self, shape, zeta, db_d, db_e):
        # the destination unity dropped from the one-link ratio, as for SS
        cfg = _os_row(shape, zeta, db_d, db_e)
        assert esr_high_snr(cfg).value == pytest.approx(_quad_os_high_snr(cfg), rel=1e-9)

    def test_high_snr_gap_shrinks_100_fold_per_20_db(self):
        # dropping both unities left the gap near +0.19 here at every lambda_D
        gaps = [esr_high_snr(cfg).value - esr_exact(cfg).value
                for cfg in (_os_row((3, 3, 2, 2), 0.9, db_d, 5.0) for db_d in (20.0, 40.0, 60.0))]
        assert gaps[0] < 0.0 and abs(gaps[0]) < 1e-2
        for wide, narrow in zip(gaps, gaps[1:]):
            assert 50.0 < wide / narrow < 200.0

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
        monkeypatch.setattr(algebra, "_EPS", 1e6 * algebra._EPS)
        with pytest.raises(ArithmeticError, match=r"exact rate of OS/KA K=3 N=2 M_D=2 M_E=2 "
                           r"zeta=0\.9 .*rounding error of up to"):
            esr_exact(_os_row((3, 2, 2, 2), 0.9, 20.0, 5.0))

    def test_a_lambda_d_sweep_integrates_the_asymptote_constant_once(self, monkeypatch):
        # the constant reads K, zeta and the lambda_D-free base alone; every
        # rate keeps the bits it has on empty memos
        cfg = _os_row((3, 2, 2, 3), 0.9, 40.0, 5.0)
        sweep = [replace(cfg, lambda_D=lam) for lam in (1e4, 1e5, 1e6)]
        cold = []
        for row in sweep:
            esr_module._ka_rate.cache_clear()
            esr_module._os_asymptote_constant.cache_clear()
            cold.append(esr_asymptotic(row).value.hex())
        calls = []
        exp_sinh = esr_module._exp_sinh
        monkeypatch.setattr(esr_module, "_exp_sinh",
                            lambda *args: calls.append(args) or exp_sinh(*args))
        esr_module._ka_rate.cache_clear()
        esr_module._os_asymptote_constant.cache_clear()
        assert [esr_asymptotic(row).value.hex() for row in sweep] == cold
        assert len(calls) == 2  # above and below w = 1, once

    def test_a_missed_asymptote_constant_names_each_row(self, monkeypatch):
        # a failure is not memoized: every row that reads the constant
        # raises naming itself
        monkeypatch.setattr(esr_module, "_FINEST_STEP", 0.25)
        esr_module._ka_rate.cache_clear()
        esr_module._os_asymptote_constant.cache_clear()
        for lam in (1e4, 1e5):
            with pytest.raises(ArithmeticError, match=rf"^asymptotic rate of OS/KA K=3 .* "
                               rf"lambda_D={lam:g} .*: the constant of its asymptote: "
                               r"the exp-sinh levels still differ"):
                esr_asymptotic(_os_row((3, 2, 2, 2), 0.9, 10.0 * math.log10(lam), 5.0))

    def test_levels_that_never_agree_raise_naming_the_row(self, monkeypatch):
        monkeypatch.setattr(esr_module, "_FINEST_STEP", 0.25)
        with pytest.raises(ArithmeticError, match=r"high_snr rate of OS/KA K=3 .*levels still "
                           r"differ"):
            esr_high_snr(_os_row((3, 2, 2, 2), 0.9, 20.0, 5.0))
