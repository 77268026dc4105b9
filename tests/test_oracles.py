import math

import numpy as np
import pytest
from scipy.stats import kstest

from secrecy_lab.channel import SystemConfig, cdf_snr_dest
from secrecy_lab.oracles import (
    QuadratureError,
    QuadratureSettings,
    _chunk_rng,
    _rates_with_rng,
    mc_esr,
    mc_sop,
    quad_cdf_ratio,
    quad_esr,
)


def _cfg(**overrides):
    base = dict(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0, lambda_E=1.0,
                zeta=1.0, R_th=1.0, scheme="SS", knowledge="KA")
    base.update(overrides)
    return SystemConfig(**base)


class TestSimulatorDeterminism:
    def test_bit_identical_reruns(self):
        cfg = _cfg()
        a = mc_sop(cfg, 20000, seed=5)
        b = mc_sop(cfg, 20000, seed=5)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_worker_count_does_not_change_results(self):
        cfg = _cfg(K=3, N=2, zeta=0.8, knowledge="KU")
        serial = mc_esr(cfg, 150000, seed=9, threads=1)
        pooled = mc_esr(cfg, 150000, seed=9, threads=4)
        assert serial.mean == pooled.mean
        assert serial.stderr == pooled.stderr

    def test_seed_changes_the_stream(self):
        cfg = _cfg()
        assert mc_sop(cfg, 20000, seed=1).mean != mc_sop(cfg, 20000, seed=2).mean

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            mc_sop(_cfg(), 5000, seed=1)


class TestSimulatorDistributions:
    def test_gamma_sampling_against_cdf(self):
        # the simulator draws each link SNR as a sum of M exponentials; the
        # KS distance to the target CDF must clear the 1% critical value
        M, lam, n = 3, 2.0, 100000
        rng = _chunk_rng(seed=12, chunk_index=0)
        samples = rng.standard_exponential((n, M)).sum(axis=1) * lam
        stat = kstest(samples, lambda x: np.vectorize(cdf_snr_dest)(x, M, lam)).statistic
        assert stat < 1.628 / math.sqrt(n)

    def test_exponential_mean_sanity(self):
        n, lam = 1000000, 7.0
        rng = _chunk_rng(seed=3, chunk_index=0)
        samples = rng.standard_exponential(n) * lam
        stderr = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - lam) <= 3.0 * stderr

    def test_single_trial_surface(self):
        rates = _rates_with_rng(_cfg(), _chunk_rng(seed=0, chunk_index=0), 1)
        assert rates.shape == (1,) and rates[0] >= 0.0

    def test_no_backhaul_trivials(self):
        cfg = _cfg(zeta=0.0)
        sop_est = mc_sop(cfg, 20000, seed=4)
        esr_est = mc_esr(cfg, 20000, seed=4)
        assert sop_est.mean == 1.0 and sop_est.stderr == 0.0
        assert esr_est.mean == 0.0 and esr_est.stderr == 0.0

    def test_threshold_boundary_insensitive(self):
        # the rate distribution is continuous, so a 1e-9 threshold shift
        # moves the outage estimate by noise only
        lo = mc_sop(_cfg(R_th=1.0 - 1e-9), 200000, seed=8)
        hi = mc_sop(_cfg(R_th=1.0 + 1e-9), 200000, seed=8)
        spread = max(lo.stderr, hi.stderr, 1e-6)
        assert abs(lo.mean - hi.mean) <= 4.0 * spread

    def test_gate_scaling_within_noise(self):
        on = mc_esr(_cfg(knowledge="KU", zeta=1.0), 200000, seed=6)
        half = mc_esr(_cfg(knowledge="KU", zeta=0.5), 200000, seed=6)
        combined = math.hypot(half.stderr, 0.5 * on.stderr)
        assert abs(half.mean - 0.5 * on.mean) <= 3.0 * combined


class TestQuadratureOracle:
    def test_no_backhaul_trivials(self):
        assert quad_cdf_ratio(2.0, _cfg(zeta=0.0)) == pytest.approx(1.0, abs=1e-9)
        assert quad_esr(_cfg(zeta=0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_single_transmitter_schemes_identical(self):
        ss = quad_cdf_ratio(2.0, _cfg(K=1))
        os_ = quad_cdf_ratio(2.0, _cfg(K=1, scheme="OS"))
        assert ss == pytest.approx(os_, abs=1e-10)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_tolerance_failure_carries_diagnostics(self):
        strangled = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-14,
                                       max_subdivisions=1)
        with pytest.raises(QuadratureError) as info:
            quad_cdf_ratio(2.0, _cfg(K=3, N=3, M_D=2, M_E=2), strangled)
        err = info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0

    def test_agrees_with_simulator(self):
        cfg = _cfg(zeta=0.9, knowledge="KU", scheme="OS")
        est = mc_sop(cfg, 400000, seed=21)
        assert abs(quad_cdf_ratio(cfg.rho(), cfg) - est.mean) <= 3.0 * est.stderr
        rate = mc_esr(cfg, 400000, seed=21)
        assert abs(quad_esr(cfg) - rate.mean) <= max(3.0 * rate.stderr, 0.02)
