import math

import pytest
from scipy.integrate import quad

from secrecy_lab.channel import (
    SystemConfig,
    cdf_snr_dest,
    cdf_snr_dest_mixture_ka,
    cdf_snr_eve_max,
    pdf_snr_dest,
    pdf_snr_eve_max,
    sf_snr_dest,
)

CDF_2_2_1 = 0.59399415029016192      # 1 - 3 e^-2
EVE_MAX_1_2_1_1 = 0.39957640089372805  # (1 - e^-1)^2
PDF_3_3_2 = 0.12551071508349178      # 9 e^-1.5 / 16
MIXTURE_2_HALF = 0.79699707514508096  # 1 - 0.5 * 3 e^-2


def _cfg(**overrides):
    base = dict(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0, lambda_E=1.0,
                zeta=1.0, R_th=1.0, scheme="SS", knowledge="KA")
    base.update(overrides)
    return SystemConfig(**base)


class TestDestinationCdf:
    def test_at_origin(self):
        assert cdf_snr_dest(0.0, 2, 1.0) == 0.0

    def test_exponential_special_case(self):
        assert cdf_snr_dest(1.0, 1, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-14)

    def test_two_path_value(self):
        assert cdf_snr_dest(2.0, 2, 1.0) == pytest.approx(CDF_2_2_1, rel=1e-13)

    def test_negative_argument(self):
        assert cdf_snr_dest(-0.5, 3, 2.0) == 0.0

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_infinite_and_nan_arguments(self, M):
        # the term recursion would make 0 * inf = NaN, which min(1, .) read as 1
        assert sf_snr_dest(math.inf, M, 2.0) == 0.0
        assert cdf_snr_dest(math.inf, M, 2.0) == 1.0
        with pytest.raises(ValueError, match="NaN"):
            sf_snr_dest(math.nan, M, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            cdf_snr_dest(math.nan, M, 2.0)

    def test_survival_complement(self):
        for x in (0.1, 1.0, 7.0):
            assert sf_snr_dest(x, 3, 2.0) == pytest.approx(
                1.0 - cdf_snr_dest(x, 3, 2.0), abs=1e-15)

    @pytest.mark.parametrize("M,lam", [(1, 1.0), (2, 1.0), (3, 2.0), (2, 10.0)])
    def test_nondecreasing_and_saturating(self, M, lam):
        grid = [100.0 * lam * i / 199 for i in range(200)]
        values = [cdf_snr_dest(x, M, lam) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0 - 1e-6


class TestDestinationPdf:
    def test_shape_two_vanishes_at_origin(self):
        assert pdf_snr_dest(0.0, 2, 1.0) == 0.0

    def test_exponential_value(self):
        assert pdf_snr_dest(1.0, 1, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_three_path_value(self):
        assert pdf_snr_dest(3.0, 3, 2.0) == pytest.approx(PDF_3_3_2, rel=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_infinite_and_nan_arguments(self, M):
        # the log form makes NaN of both; sf and cdf raise on NaN as well
        assert pdf_snr_dest(math.inf, M, 2.0) == 0.0
        assert pdf_snr_eve_max(math.inf, 2, M, 2.0) == 0.0
        for N in (1, 2):
            with pytest.raises(ValueError, match="NaN"):
                pdf_snr_eve_max(math.nan, N, M, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            pdf_snr_dest(math.nan, M, 2.0)

    @pytest.mark.parametrize("a,b", [(0.2, 1.5), (1.0, 4.0), (0.0, 12.0)])
    def test_integrates_to_cdf_difference(self, a, b):
        est, _ = quad(lambda x: pdf_snr_dest(x, 3, 2.0), a, b, limit=200)
        assert est == pytest.approx(
            cdf_snr_dest(b, 3, 2.0) - cdf_snr_dest(a, 3, 2.0), abs=1e-8)


class TestEavesdropperMax:
    def test_single_eavesdropper_reduction(self):
        for x in (0.3, 1.0, 5.0):
            assert cdf_snr_eve_max(x, 1, 2, 1.5) == cdf_snr_dest(x, 2, 1.5)
            assert pdf_snr_eve_max(x, 1, 2, 1.5) == pytest.approx(
                pdf_snr_dest(x, 2, 1.5), rel=1e-14)

    def test_at_origin(self):
        assert cdf_snr_eve_max(0.0, 3, 2, 1.0) == 0.0
        assert pdf_snr_eve_max(0.0, 2, 2, 1.0) == 0.0

    def test_two_exponential_value(self):
        assert cdf_snr_eve_max(1.0, 2, 1, 1.0) == pytest.approx(
            EVE_MAX_1_2_1_1, rel=1e-13)

    def test_pdf_normalization(self):
        est, _ = quad(lambda x: pdf_snr_eve_max(x, 3, 2, 1.0), 0.0, math.inf,
                      limit=400)
        assert est == pytest.approx(1.0, abs=1e-8)


class TestBackhaulMixture:
    def test_full_reliability_reduces_to_plain_cdf(self):
        cfg = _cfg(zeta=1.0)
        for x in (0.0, 0.7, 3.0):
            assert cdf_snr_dest_mixture_ka(x, cfg) == pytest.approx(
                cdf_snr_dest(x, cfg.M_D, cfg.lambda_D), abs=1e-15)

    def test_atom_at_zero(self):
        assert cdf_snr_dest_mixture_ka(0.0, _cfg(zeta=0.9)) == pytest.approx(
            0.1, abs=1e-15)

    def test_two_path_value(self):
        cfg = _cfg(M_D=2, lambda_D=1.0, zeta=0.5)
        assert cdf_snr_dest_mixture_ka(2.0, cfg) == pytest.approx(
            MIXTURE_2_HALF, rel=1e-13)

    def test_mixture_identity(self):
        cfg = _cfg(M_D=3, lambda_D=2.0, zeta=0.35)
        for x in (0.0, 0.2, 1.1, 6.0, 40.0):
            direct = cdf_snr_dest_mixture_ka(x, cfg)
            composed = (1.0 - cfg.zeta) + cfg.zeta * cdf_snr_dest(
                x, cfg.M_D, cfg.lambda_D)
            assert abs(direct - composed) <= 1e-15

    def test_negative_argument(self):
        assert cdf_snr_dest_mixture_ka(-1.0, _cfg(zeta=0.5)) == 0.0


class TestSystemConfigValidation:
    def test_rho(self):
        assert _cfg(R_th=1.0).rho() == 2.0
        assert _cfg(R_th=0.0).rho() == 1.0

    @pytest.mark.parametrize("field,value", [
        ("K", 0), ("N", -1), ("M_D", 0), ("M_E", 0),
        ("lambda_D", 0.0), ("lambda_E", -2.0),
        ("zeta", 1.4), ("R_th", -0.1),
        ("scheme", "XX"), ("knowledge", "??"),
    ])
    def test_errors_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            _cfg(**{field: value})

    # an infinite SNR or threshold used to come out as a silent 0.0, a
    # misleading DivergenceError, a pole error or a NaN deep inside
    @pytest.mark.parametrize("field,value", [
        ("lambda_D", math.inf), ("lambda_D", math.nan),
        ("lambda_E", math.inf), ("lambda_E", math.nan),
        ("R_th", math.inf), ("R_th", math.nan),
    ])
    def test_non_finite_values_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            _cfg(**{field: value})

    def test_large_finite_values_pass(self):
        cfg = _cfg(lambda_D=1e300, lambda_E=1e-300, R_th=100.0)
        assert cfg.rho() == 2.0 ** 100

    # 2^R_th used to overflow with a bare OverflowError inside sop()
    @pytest.mark.parametrize("r_th", [1024.0, 2000.0, 1e300])
    def test_threshold_past_the_double_range_names_the_field(self, r_th):
        with pytest.raises(ValueError, match="R_th must be .*below 1024"):
            _cfg(R_th=r_th)

    def test_largest_threshold_has_a_finite_ratio(self):
        r_th = math.nextafter(1024.0, 0.0)
        assert math.isfinite(_cfg(R_th=r_th).rho())
