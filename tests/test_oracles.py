import ast
import hashlib
import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from scipy.stats import kstest

from secrecy_lab import acceptance, oracles
from secrecy_lab.channel import SystemConfig, cdf_snr_dest
from secrecy_lab.oracles import (
    QuadratureError,
    _chunk_rng,
    _mc_moments,
    _mc_moments_many,
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


class TestSharedDraws:
    # every row of two interleaved (K, N, M_D, M_E) shapes; 70000 trials
    # make a full chunk and a ragged one
    ROWS = tuple(_cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=lam, zeta=zeta,
                      scheme=scheme, knowledge=knowledge, R_th=r_th)
                 for lam, zeta, scheme, knowledge, r_th, (K, N, M_D, M_E) in product(
                     (2.0, 50.0), (0.0, 0.5, 1.0), ("SS", "OS"), ("KA", "KU"),
                     (0.5, 1.5), ((2, 2, 2, 1), (3, 1, 1, 2))))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_batched_equals_row_by_row(self, threads):
        batched = _mc_moments_many(self.ROWS, 70000, seed=17, threads=threads)
        assert len(batched) == len(self.ROWS)
        for cfg, pair in zip(self.ROWS, batched):
            alone = _mc_moments(cfg, 70000, seed=17, threads=1)
            for shared, single in zip(pair, alone):
                assert shared.mean == single.mean
                assert shared.stderr == single.stderr

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity masks")
    def test_default_threads_follow_the_affinity_mask(self):
        # a process pinned to one CPU gets one Monte Carlo thread, however
        # many CPUs the machine has
        cpu = min(os.sched_getaffinity(0))
        code = ("import os; os.sched_setaffinity(0, {%d}); "
                "from secrecy_lab.oracles import default_threads; "
                "print(default_threads())" % cpu)
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "1"


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
        (rates,) = _rates_with_rng((_cfg(),), _chunk_rng(seed=0, chunk_index=0), 1)
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

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_tolerance_failure_carries_diagnostics(self, monkeypatch):
        monkeypatch.setattr(oracles, "_ABS_TOL", 1e-14)
        monkeypatch.setattr(oracles, "_REL_TOL", 1e-14)
        monkeypatch.setattr(oracles, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureError) as info:
            quad_cdf_ratio(2.0, _cfg(K=3, N=3, M_D=2, M_E=2))
        err = info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0

    def test_agrees_with_simulator(self):
        cfg = _cfg(zeta=0.9, knowledge="KU", scheme="OS")
        est = mc_sop(cfg, 400000, seed=21)
        assert abs(quad_cdf_ratio(cfg.rho(), cfg) - est.mean) <= 3.0 * est.stderr
        rate = mc_esr(cfg, 400000, seed=21)
        assert abs(quad_esr(cfg) - rate.mean) <= max(3.0 * rate.stderr, 0.02)


# float.hex() of quad_esr and quad_cdf_ratio(rho) for K = N = 2, M_D = M_E = M,
# lambda_D = 10, lambda_E = 10^0.5, zeta = 0.9, R_th = 1, recorded before the
# eavesdropper node cache existed
_QUAD_BITS = (
    ("SS", "KA", 1, "0x1.649b244f2668ep+0", "0x1.af79340014873p-2"),
    ("SS", "KA", 2, "0x1.76e4785daa9eap+0", "0x1.609b718ee4af0p-2"),
    ("SS", "KU", 1, "0x1.58cb484b21c40p+0", "0x1.c3e189c60c752p-2"),
    ("SS", "KU", 2, "0x1.6764911e0697ep+0", "0x1.7c3da59eb8d26p-2"),
    ("OS", "KA", 1, "0x1.795374eac6a43p+0", "0x1.8ae51071842b5p-2"),
    ("OS", "KA", 2, "0x1.8cde1219bf42ap+0", "0x1.3696919e68b5ep-2"),
    ("OS", "KU", 1, "0x1.6fd0f730f0400p+0", "0x1.9b3cf07cfa483p-2"),
    ("OS", "KU", 2, "0x1.7fcf3bef01153p+0", "0x1.4d8d905aa0dcep-2"),
)


# sha256 of the newline-joined float.hex() of quad_esr over the quick rate
# grid, in _esr_grid(True) order, recorded before quad_esr shared inner
# integrals across rows
_QUICK_ESR_GRID_SHA256 = "0d7c1584d20dc302c04b909c2c3bd0855a08c138055791c9d0a873fd9a180e08"

# sha256 of the newline-joined float.hex() of quad_cdf_ratio(rho) over the
# full outage grid (1,728 rows, K = 3 KU rows at zeta 0.5 and 0.9 among
# them), in _sop_grid(False) order, recorded while quad_cdf_ratio still had
# a branch of its own for each scheme under KU
_FULL_SOP_GRID_SHA256 = "b104ac74fff11acfc0bef62f966888f4129935187bba3f513970c7c4a0422dfa"


def _empty_tables(monkeypatch):
    monkeypatch.setattr(oracles, "_NODE_TABLES", {})
    monkeypatch.setattr(oracles, "_SURVIVAL_TABLES", {})


class TestQuadratureBits:
    # every rate row of one (K, N, M_D, M_E) shape: SS/OS x KA/KU x 3 zeta x
    # 2 lambda_D
    SHAPE_ROWS = tuple(_cfg(lambda_D=lam, lambda_E=10.0 ** 0.5, zeta=zeta,
                            scheme=scheme, knowledge=knowledge)
                       for scheme, knowledge, zeta, lam in product(
                           ("SS", "OS"), ("KA", "KU"), (0.5, 0.9, 1.0), (1.0, 10.0)))

    @pytest.mark.parametrize("scheme,knowledge,M,esr_hex,sop_hex", _QUAD_BITS)
    def test_pinned_on_cold_and_warm_node_cache(self, monkeypatch, scheme,
                                                knowledge, M, esr_hex, sop_hex):
        cfg = _cfg(M_D=M, M_E=M, lambda_E=10.0 ** 0.5, zeta=0.9,
                   scheme=scheme, knowledge=knowledge)
        _empty_tables(monkeypatch)
        assert quad_esr(cfg).hex() == esr_hex
        _empty_tables(monkeypatch)
        assert quad_cdf_ratio(cfg.rho(), cfg).hex() == sop_hex
        assert oracles._NODE_TABLES  # the calls above filled it
        assert quad_esr(cfg).hex() == esr_hex
        assert quad_cdf_ratio(cfg.rho(), cfg).hex() == sop_hex

    def test_rows_of_one_shape_equal_a_row_alone(self, monkeypatch):
        alone = []
        for cfg in self.SHAPE_ROWS:
            _empty_tables(monkeypatch)
            alone.append(quad_esr(cfg).hex())
        _empty_tables(monkeypatch)
        cold = [quad_esr(cfg).hex() for cfg in self.SHAPE_ROWS]
        # SS: one family per (gate, lambda_D), the KU gate being 1; OS: one
        # per lambda_D
        assert len(oracles._SURVIVAL_TABLES) == 3 * 2 + 2
        warm = [quad_esr(cfg).hex() for cfg in self.SHAPE_ROWS]
        _empty_tables(monkeypatch)
        backward = [quad_esr(cfg).hex() for cfg in reversed(self.SHAPE_ROWS)][::-1]
        assert cold == alone
        assert warm == alone
        assert backward == alone

    def test_tables_stay_within_their_bounds(self, monkeypatch):
        # at most 64 tables of at most 65,536 points each; filled past
        # smaller bounds, the tables stop there and the bits stay the same
        assert (oracles._TABLES_MAX, oracles._ENTRIES_PER_TABLE_MAX) == (64, 1 << 16)
        rows = self.SHAPE_ROWS[::5]
        _empty_tables(monkeypatch)
        expected = [quad_esr(cfg).hex() for cfg in rows]
        monkeypatch.setattr(oracles, "_TABLES_MAX", 2)
        monkeypatch.setattr(oracles, "_ENTRIES_PER_TABLE_MAX", 16)
        _empty_tables(monkeypatch)
        assert [quad_esr(cfg).hex() for cfg in rows] == expected
        for tables in (oracles._SURVIVAL_TABLES, oracles._NODE_TABLES):
            assert 0 < len(tables) <= 2
            assert all(len(table) <= 16 for table in tables.values())
        assert max(map(len, oracles._SURVIVAL_TABLES.values())) == 16

    def test_quick_rate_grid_pinned(self):
        hexes = "\n".join(quad_esr(cfg).hex() for cfg in acceptance._esr_grid(True))
        assert hashlib.sha256(hexes.encode()).hexdigest() == _QUICK_ESR_GRID_SHA256

    def test_full_outage_grid_pinned(self):
        hexes = "\n".join(quad_cdf_ratio(cfg.rho(), cfg).hex()
                          for cfg in acceptance._sop_grid(False))
        assert hashlib.sha256(hexes.encode()).hexdigest() == _FULL_SOP_GRID_SHA256

    @pytest.mark.parametrize("scheme", ["SS", "OS"])
    def test_gate_after_selection_at_full_reliability_is_bitwise_ka(self, scheme):
        # with a backhaul that never fails, gating after selection is KA
        ka = _cfg(K=3, lambda_E=10.0 ** 0.5, scheme=scheme, knowledge="KA")
        ku = _cfg(K=3, lambda_E=10.0 ** 0.5, scheme=scheme, knowledge="KU")
        assert quad_esr(ku).hex() == quad_esr(ka).hex()


def test_oracles_import_only_the_channel_model():
    # the oracles certify the closed forms, so they restate the gate-after-
    # selection identity instead of importing the closed forms' mapping: one
    # shared bug would pass both sides of every check
    tree = ast.parse(open(oracles.__file__, encoding="utf-8").read())
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"channel"}
    assert not {name for name in absolute if name.split(".")[0] == "secrecy_lab"}
