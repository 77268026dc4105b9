import ast
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from scipy.stats import kstest

from secrecy_lab import acceptance, oracles
from secrecy_lab.channel import (
    SystemConfig,
    cdf_snr_dest,
    cdf_snr_dest_mixture_ka,
    cdf_snr_eve_max,
    pdf_snr_eve_max,
    sf_snr_dest,
)
from secrecy_lab.esr import esr_exact
from secrecy_lab.oracles import (
    QuadratureError,
    _chunk_rng,
    _gate_masks,
    _group_rates,
    _rates_with_rng,
    _selection,
    mc_moments,
    quad_cdf_ratio,
    quad_esr,
)


def _cfg(**overrides):
    base = dict(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0, lambda_E=1.0,
                zeta=1.0, R_th=1.0, scheme="SS", knowledge="KA")
    base.update(overrides)
    return SystemConfig(**base)


def _mc_alone(cfg, trials, seed, threads=1):
    # the (outage, rate) estimates of a pass over one config
    return mc_moments([cfg], trials, seed, threads)[0]


class TestSimulatorDeterminism:
    def test_bit_identical_reruns(self):
        cfg = _cfg()
        a = _mc_alone(cfg, 20000, seed=5)[0]
        b = _mc_alone(cfg, 20000, seed=5)[0]
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_worker_count_does_not_change_results(self):
        cfg = _cfg(K=3, N=2, zeta=0.8, knowledge="KU")
        serial = _mc_alone(cfg, 150000, seed=9, threads=1)[1]
        pooled = _mc_alone(cfg, 150000, seed=9, threads=4)[1]
        assert serial.mean == pooled.mean
        assert serial.stderr == pooled.stderr

    def test_seed_changes_the_stream(self):
        cfg = _cfg()
        assert _mc_alone(cfg, 20000, seed=1)[0].mean != _mc_alone(cfg, 20000, seed=2)[0].mean

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            _mc_alone(_cfg(), 5000, seed=1)

    # each of these used to alias another stream, crash inside the chunk
    # loop or run serially without a word
    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.0, True, "7"])
    def test_seed_outside_the_unsigned_64_bit_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed: expected an unsigned 64-bit integer"):
            _mc_alone(_cfg(), 20000, seed=seed)

    @pytest.mark.parametrize("trials", [5000, 1e5, 100000.0, True, "100000"])
    def test_trials_must_be_an_integer_of_at_least_the_minimum(self, trials):
        with pytest.raises(ValueError, match=r"^trials: expected an integer of at least 10000"):
            _mc_alone(_cfg(), trials, seed=1)

    @pytest.mark.parametrize("threads", [0, -3, 2.0, True])
    def test_threads_must_be_a_positive_integer(self, threads):
        with pytest.raises(ValueError, match=r"^threads: expected an integer of at least 1"):
            _mc_alone(_cfg(), 20000, seed=1, threads=threads)

    @pytest.mark.parametrize("lambda_E, total", [(1.0, "inf"), (1e308, "nan")])
    def test_overflowing_rates_raise(self, lambda_E, total):
        # at lambda_D = 1e308 the destination SNRs overflow: the rates are
        # inf, and NaN where the eavesdropper SNRs overflow too
        cfg = _cfg(N=1, M_E=1, lambda_D=1e308, lambda_E=lambda_E, zeta=0.5, scheme="OS")
        named = rf"^Monte Carlo rate of SystemConfig\(K=2, N=1, .*\): rate sum {total},"
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match=named):
            _mc_alone(cfg, 10000, seed=1)

    def test_largest_seed_accepted(self):
        assert _mc_alone(_cfg(), 20000, seed=2 ** 64 - 1)[0].mean >= 0.0


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
        batched = mc_moments(self.ROWS, 70000, seed=17, threads=threads)
        assert len(batched) == len(self.ROWS)
        for cfg, pair in zip(self.ROWS, batched):
            alone = _mc_alone(cfg, 70000, seed=17)
            for shared, single in zip(pair, alone):
                assert shared.mean == single.mean
                assert shared.stderr == single.stderr

    def test_odd_ragged_chunk_equals_row_by_row(self):
        # K = 3 rows whose second chunk has an odd trial count: each link's
        # rate is taken over a (K, 4465) array, each row's alone too
        rows = tuple(_cfg(K=3, N=2, M_D=2, M_E=1, lambda_D=lam, zeta=zeta, scheme=scheme,
                          knowledge=knowledge)
                     for lam, zeta, scheme, knowledge in product(
                         (2.0, 50.0), (0.5, 1.0), ("SS", "OS"), ("KA", "KU")))
        trials = 65536 + 4465
        assert trials % 65536 % 2 == 1
        for cfg, pair in zip(rows, mc_moments(rows, trials, seed=23)):
            alone = _mc_alone(cfg, trials, seed=23)
            for shared, single in zip(pair, alone):
                assert shared.mean == single.mean
                assert shared.stderr == single.stderr

    def test_many_gate_levels_equal_row_by_row(self):
        # a chunk keeps one gate mask per zeta below 1: seven levels at K = 3,
        # over a full chunk and a ragged one
        rows = tuple(_cfg(K=3, lambda_D=lam, zeta=zeta, scheme=scheme, knowledge=knowledge)
                     for lam, zeta, scheme, knowledge in product(
                         (2.0, 50.0), (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0), ("SS", "OS"),
                         ("KA", "KU")))
        for cfg, pair in zip(rows, mc_moments(rows, 70000, seed=29)):
            alone = _mc_alone(cfg, 70000, seed=29)
            for shared, single in zip(pair, alone):
                assert shared.mean == single.mean
                assert shared.stderr == single.stderr

    def test_blocked_draws_equal_one_draw(self):
        # the eavesdropper SNRs are drawn in trial blocks; the stream is
        # trial-major, so the blocks hold the values of one draw, and the
        # gate draw after them is the same too
        trials, shape = 65536 + 4465, (3, 2, 2)
        one = _chunk_rng(seed=7, chunk_index=1)
        whole, gates = one.standard_exponential((trials, *shape)), one.random((trials, 3))
        rng = _chunk_rng(seed=7, chunk_index=1)
        blocks = [rng.standard_exponential((min(oracles._DRAW_BLOCK, trials - start), *shape))
                  for start in range(0, trials, oracles._DRAW_BLOCK)]
        assert len(blocks) > 2 and len(blocks[-1]) < oracles._DRAW_BLOCK
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert rng.random((trials, 3)).tobytes() == gates.tobytes()

    def test_one_family_draws_its_destinations_once(self, monkeypatch):
        # two shapes of the (K, M_D) = (3, 2) family: each chunk draws their
        # destination rows once, and each shape still reads the stream a pass
        # of its own would, over a full chunk of four leaves and a ragged one
        rows = tuple(_cfg(K=3, N=N, M_D=2, M_E=M_E, lambda_D=lam, zeta=zeta, scheme=scheme,
                          knowledge=knowledge)
                     for (N, M_E), lam, zeta, scheme, knowledge in product(
                         ((1, 3), (3, 1)), (2.0, 50.0), (0.5, 1.0), ("SS", "OS"),
                         ("KA", "KU")))
        trials = 65536 + 4465
        draws = []
        link_rows = oracles._link_rows
        monkeypatch.setattr(oracles, "_link_rows",
                            lambda *args: draws.append(args[2:]) or link_rows(*args))
        shared = mc_moments(rows, trials, seed=31)
        # per chunk, (K, paths[, branches]) of the family's destination rows,
        # then of each shape's eavesdroppers
        assert draws == [(3, 2), (3, 3, 1), (3, 1, 3)] * 2
        for cfg, pair in zip(rows, shared):
            alone = _mc_alone(cfg, trials, seed=31)
            for together, single in zip(pair, alone):
                assert together.mean == single.mean
                assert together.stderr == single.stderr

    @pytest.mark.parametrize("count", [1, 7, 8, 129, 4465, 16384, 16385, 34464, 40002, 65536])
    def test_leaf_sums_added_up_the_tree_equal_one_sum(self, count):
        # the selections run per leaf of numpy's pairwise-sum tree; their
        # sums, added back up the tree, must be ndarray.sum's bits over the
        # whole chunk. This fails if numpy changes how it sums
        rate = np.random.default_rng(count).lognormal(0.0, 3.0, count)
        squares = rate * rate

        def leaf(start, stop):
            part = rate[start:stop]
            return np.array([part.sum(), (part * part).sum()])

        total, total_squares = oracles._pairwise(leaf, 0, count)
        assert total.hex() == rate.sum().hex()
        assert total_squares.hex() == squares.sum().hex()

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


def _moments_sha256(pairs) -> str:
    lines = "\n".join(f"{o.mean.hex()} {o.stderr.hex()} {r.mean.hex()} {r.stderr.hex()}"
                      for o, r in pairs)
    return hashlib.sha256(lines.encode()).hexdigest()


class TestSimulatorBits:
    # sha256 of the (outage, rate) means and stderrs of mc_moments at
    # one thread, one float.hex() line per row, recorded while each config
    # still made its own selection from the shared draws
    QUICK_OUTAGE_GRID_SHA256 = "89ccc0e8936d7e6688d9ab84893e3da92749b1f686ec7b86c43a664d7e38164e"
    SHAPES_SHA256 = "453e87e35594e2aedabdc58a37834889303e185cf5e595d8ebd7702378f5d9a4"
    # K up to 4 and M_D up to 4, every zeta branch; 70000 trials make a full
    # chunk and a ragged one
    SHAPE_ROWS = tuple(_cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=lam,
                            lambda_E=10.0 ** 0.5, zeta=zeta, scheme=scheme,
                            knowledge=knowledge)
                       for (K, N, M_D, M_E), lam, zeta, scheme, knowledge in product(
                           ((3, 2, 3, 2), (4, 1, 4, 3), (4, 3, 2, 2)), (2.0, 50.0),
                           (0.0, 0.5, 1.0), ("SS", "OS"), ("KA", "KU")))

    def test_quick_outage_grid_pinned(self):
        pairs = mc_moments(tuple(acceptance._sop_grid(True)), acceptance.QUICK_TRIALS,
                                 acceptance.ACCEPT_SEED, threads=1)
        assert _moments_sha256(pairs) == self.QUICK_OUTAGE_GRID_SHA256

    def test_larger_shapes_pinned(self):
        assert len(self.SHAPE_ROWS) == 72
        pairs = mc_moments(self.SHAPE_ROWS, 70000, seed=17, threads=1)
        assert _moments_sha256(pairs) == self.SHAPES_SHA256

    # path counts on both sides of numpy's 8-element pairwise block, where
    # the simulator's sums switch from slices to ndarray.sum; recorded while
    # every path sum was an ndarray.sum
    WIDE_SHAPES_SHA256 = "799922334645a7619ec16ede29506fd8692c6d9edea009cf48c81963318e0461"
    WIDE_SHAPE_ROWS = tuple(_cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=lam,
                                 lambda_E=10.0 ** 0.5, zeta=zeta, scheme=scheme,
                                 knowledge=knowledge)
                            for (K, N, M_D, M_E), lam, zeta, scheme, knowledge in product(
                                ((2, 4, 8, 1), (1, 5, 9, 7), (3, 2, 1, 17)), (2.0, 50.0),
                                (0.5, 1.0), ("SS", "OS"), ("KA", "KU")))

    def test_shapes_past_the_pairwise_block_pinned(self):
        assert len(self.WIDE_SHAPE_ROWS) == 48
        pairs = mc_moments(self.WIDE_SHAPE_ROWS, 70000, seed=17, threads=1)
        assert _moments_sha256(pairs) == self.WIDE_SHAPES_SHA256


class _CraftedDraws:
    """Stands in for a chunk's generator: hands out crafted arrays in the
    simulator's draw order (destination, eavesdropper, gates), each draw
    in one piece or in consecutive blocks of trials, reshaped to the shape
    asked for."""

    def __init__(self, dest, eve, gates):
        self._draws = {"exponential": [dest, eve], "gates": [gates]}

    def _next(self, kind, shape):
        draws = self._draws[kind]
        block, rest = draws[0][:shape[0]], draws[0][shape[0]:]
        if len(rest):
            draws[0] = rest
        else:
            draws.pop(0)
        assert len(block) == shape[0]
        return block.reshape(shape)

    def standard_exponential(self, shape):
        return self._next("exponential", shape)

    def random(self, shape):
        return self._next("gates", shape)


def _masks(gates, rows):
    # the chunk's gate masks of rows from a crafted trial-major gate draw
    return _gate_masks(_CraftedDraws(None, None, gates), len(gates), rows)


def _argmax_rates(cfg, dest_sum, eve_max, gate_u):
    # reference: each config alone, np.argmax over links on trial-major draws
    dest = dest_sum * cfg.lambda_D
    ratio = (1.0 + dest) / (1.0 + eve_max * cfg.lambda_E)
    active = gate_u < cfg.zeta
    score = dest if cfg.scheme == "SS" else ratio
    if cfg.knowledge == "KA":
        chosen = np.argmax(np.where(active, score, -np.inf), axis=1)
        transmitting = active.any(axis=1)
    else:
        chosen = np.argmax(score, axis=1)
        transmitting = np.take_along_axis(active, chosen[:, None], axis=1)[:, 0]
    chosen_ratio = np.take_along_axis(ratio, chosen[:, None], axis=1)[:, 0]
    return np.where(transmitting, np.maximum(np.log2(chosen_ratio), 0.0), 0.0)


def _scan_rates(cfg, dest_sum, eve_max, gate_u):
    # reference with the simulator's NaN rule: links scanned in order, the
    # best so far replaced on a strict >, the chosen rate blended in by
    # np.where; a NaN score never wins, and a NaN at link 0 is never replaced
    dest = dest_sum * cfg.lambda_D
    ratio = (1.0 + dest) / (1.0 + eve_max * cfg.lambda_E)
    active = gate_u < cfg.zeta
    score = dest if cfg.scheme == "SS" else ratio
    if cfg.knowledge == "KA":
        score = np.where(active, score, -np.inf)
    trials = np.arange(len(score))
    chosen, best = np.zeros(len(score), dtype=int), score[:, 0]
    for k in range(1, score.shape[1]):
        better = score[:, k] > best
        chosen[better] = k
        best = np.where(better, score[:, k], best)
    transmitting = active.any(axis=1) if cfg.knowledge == "KA" else active[trials, chosen]
    rate = np.maximum(np.log2(ratio[trials, chosen]), 0.0)
    return np.where(transmitting, rate, 0.0)


def _link_rows(draws):
    # trial-major (trials, K) draws as the simulator's (K, trials) link rows
    return np.ascontiguousarray(draws.T)


class TestSelection:
    ROWS = tuple(dict(lambda_D=lam, zeta=zeta, scheme=scheme, knowledge=knowledge)
                 for lam, zeta, scheme, knowledge in product(
                     (2.0, 50.0), (0.0, 0.5, 1.0), ("SS", "OS"), ("KA", "KU")))

    @staticmethod
    def _draws(K, count):
        # draws from a few values make exact ties between links; blocks of
        # trials tie on every link (SS on the destination SNR, OS on the
        # ratio too, with the gates differing) or have every gate off at
        # zeta 0.5, one block exactly at the gate threshold. 643 trials
        # leave a tail off every SIMD width
        N, M_D, M_E = 2, 2, 1
        pick = np.random.default_rng(K)
        dest = pick.choice([0.5, 1.0, 2.0], size=(count, K, M_D))
        eve = pick.choice([0.25, 1.0, 3.0], size=(count, K, N, M_E))
        gates = pick.choice([0.0, 0.25, 0.5, 0.75, 0.9375], size=(count, K))
        dest[:128] = 1.0
        eve[64:128] = 1.0
        gates[128:192] = 0.75
        gates[192:256] = 0.5
        rows = tuple(_cfg(K=K, N=N, M_D=M_D, M_E=M_E, R_th=r_th, **row)
                     for row, r_th in product(TestSelection.ROWS, (0.5, 1.0)))
        return rows, dest, eve, gates

    @pytest.mark.parametrize("count", [640, 643])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_ties_and_dark_trials_match_argmax(self, K, count):
        # each (lambda_D, lambda_E) group's selections against np.argmax
        # over links per config; the simulator takes each link's log2 rate
        # and the reference the selected one's
        rows, dest, eve, gates = self._draws(K, count)
        dest_sum, eve_max = dest.sum(axis=2), eve.sum(axis=3).max(axis=2)
        masks = _masks(gates, rows)  # shared across groups, as within a chunk
        for lam in (2.0, 50.0):
            group = [cfg for cfg in rows if cfg.lambda_D == lam]
            rates = dict(_group_rates(group, _link_rows(dest_sum), _link_rows(eve_max), masks,
                                      np.arange(count)))
            assert len(rates) == len({_selection(cfg) for cfg in group})
            for cfg in group:
                rate = rates[_selection(cfg)]
                expected = _argmax_rates(cfg, dest_sum, eve_max, gates)
                assert rate.dtype == expected.dtype and rate.shape == (count,)
                assert rate.tobytes() == expected.tobytes(), cfg

    @pytest.mark.parametrize("count", [643, 2 * oracles._DRAW_BLOCK + 643,
                                       2 * oracles._LEAF + 643])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_chunk_statistics_match_argmax(self, K, count):
        # the whole chunk, from the draws in the simulator's order to each
        # config's (outage count, rate sum, sum of squares); past one block
        # each draw comes in several, and past one leaf the selections run
        # per leaf of the pairwise tree
        rows, dest, eve, gates = self._draws(K, count)
        draws = _CraftedDraws(dest.copy(), eve.copy(), gates.copy())
        stats = _rates_with_rng(rows, draws, count, oracles._link_rows(draws, count, K, 2))
        dest_sum, eve_max = dest.sum(axis=2), eve.sum(axis=3).max(axis=2)
        assert len(stats) == len(rows)
        for cfg, stat in zip(rows, stats):
            rate = _argmax_rates(cfg, dest_sum, eve_max, gates)
            expected = (np.count_nonzero(rate <= cfg.R_th), rate.sum(), (rate * rate).sum())
            assert [x.hex() for x in stat] == [float(x).hex() for x in expected], cfg

    def test_overflowing_snrs_match_a_strict_scan(self):
        # at lambda_D near the double's limit destination SNRs overflow and
        # rates are inf; a link gated off must still read +0.0 (a product
        # with the gate would read inf * 0 = NaN). With lambda_E there too,
        # OS ratios of two overflowed SNRs are NaN, where np.argmax takes
        # the first NaN and the simulator's strict > never does
        count, K = 643, 3
        pick = np.random.default_rng(5)
        dest = pick.choice([0.5, 1.5, 3.0], size=(count, K, 2))
        eve = pick.choice([0.5, 1.5, 3.0], size=(count, K, 2, 1))
        gates = pick.choice([0.0, 0.25, 0.5, 0.75], size=(count, K))
        dest_sum, eve_max = dest.sum(axis=2), eve.sum(axis=3).max(axis=2)
        for lambda_E in (1.0, 1e308):
            rows = [_cfg(K=K, M_D=2, M_E=1, lambda_D=1e308, lambda_E=lambda_E, zeta=zeta,
                         scheme=scheme, knowledge=knowledge)
                    for zeta, scheme, knowledge in product(
                        (0.5, 1.0), ("SS", "OS"), ("KA", "KU"))]
            with np.errstate(all="ignore"):
                rates = dict(_group_rates(rows, _link_rows(dest_sum), _link_rows(eve_max),
                                          _masks(gates, rows), np.arange(count)))
                expected = [_scan_rates(cfg, dest_sum, eve_max, gates) for cfg in rows]
            assert np.isinf(expected[0]).any()
            if lambda_E > 1.0:
                assert any(np.isnan(rate).any() for rate in expected)
            for cfg, rate in zip(rows, expected):
                assert rates[_selection(cfg)].tobytes() == rate.tobytes(), cfg

    def test_full_reliability_rows_share_one_selection(self, monkeypatch):
        # at zeta = 1 every gate draw is on, so a KU row reads the KA row's
        # selection: the quick grid's 256 rows make 128 selections a chunk,
        # each reduced once per leaf block; a full chunk splits into
        # 65536 / _LEAF equal leaves
        for K, scheme in product((1, 3), ("SS", "OS")):
            ka = _cfg(K=K, scheme=scheme)
            assert _selection(replace(ka, knowledge="KU")) == _selection(ka)
        reduced = []
        rate_stats = oracles._rate_stats
        monkeypatch.setattr(oracles, "_rate_stats",
                            lambda *args: reduced.append(args) or rate_stats(*args))
        mc_moments(tuple(acceptance._sop_grid(True)), 65536, acceptance.ACCEPT_SEED)
        leaves = 65536 // oracles._LEAF
        assert {len(rate) for rate, _thresholds in reduced} == {oracles._LEAF}
        assert len(reduced) == 128 * leaves

    def test_chunk_memory_peak(self):
        # tracemalloc peak of one 65,536-trial chunk over the 16 quick-grid
        # rows of shape (2, 2, 2, 2): 16.76 MiB while every rate array of a
        # shape was held until its statistics were taken, 10.07 MiB with
        # each selection's rates reduced before the next are built, 6.13 MiB
        # with bool gate masks in place of the gate draw, one score alive at
        # a time and the eavesdropper draw in trial blocks, 6.63 MiB once a
        # chunk kept one np.arange(trials) for all its selections, 3.29 MiB
        # with every draw in trial blocks and the selections run per leaf of
        # at most 16,384 trials
        rows = tuple(cfg for cfg in acceptance._sop_grid(True)
                     if (cfg.K, cfg.N, cfg.M_D, cfg.M_E) == (2, 2, 2, 2))
        assert len(rows) == 16
        mc_moments(rows, 65536, acceptance.ACCEPT_SEED)  # imports and first-call setup
        tracemalloc.start()
        try:
            mc_moments(rows, 65536, acceptance.ACCEPT_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * 2 ** 20, peak / 2 ** 20


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
        rng = _chunk_rng(seed=0, chunk_index=0)
        ((outages, total, squares),) = _rates_with_rng((_cfg(),), rng, 1,
                                                       oracles._link_rows(rng, 1, 2, 2))
        assert outages in (0.0, 1.0) and total >= 0.0 and squares == total * total

    def test_no_backhaul_trivials(self):
        cfg = _cfg(zeta=0.0)
        sop_est, esr_est = _mc_alone(cfg, 20000, seed=4)
        assert sop_est.mean == 1.0 and sop_est.stderr == 0.0
        assert esr_est.mean == 0.0 and esr_est.stderr == 0.0

    def test_threshold_boundary_insensitive(self):
        # the rate distribution is continuous, so a 1e-9 threshold shift
        # moves the outage estimate by noise only
        lo = _mc_alone(_cfg(R_th=1.0 - 1e-9), 200000, seed=8)[0]
        hi = _mc_alone(_cfg(R_th=1.0 + 1e-9), 200000, seed=8)[0]
        spread = max(lo.stderr, hi.stderr, 1e-6)
        assert abs(lo.mean - hi.mean) <= 4.0 * spread

    def test_gate_scaling_within_noise(self):
        on = _mc_alone(_cfg(knowledge="KU", zeta=1.0), 200000, seed=6)[1]
        half = _mc_alone(_cfg(knowledge="KU", zeta=0.5), 200000, seed=6)[1]
        combined = math.hypot(half.stderr, 0.5 * on.stderr)
        assert abs(half.mean - 0.5 * on.mean) <= 3.0 * combined


class TestQuadratureOracle:
    def test_no_backhaul_trivials(self):
        assert quad_cdf_ratio(2.0, _cfg(zeta=0.0)) == pytest.approx(1.0, abs=1e-9)
        assert quad_esr(_cfg(zeta=0.0)) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, x):
        # both used to read 0.0, where the CDF at infinity is 1
        with pytest.raises(ValueError, match="finite"):
            quad_cdf_ratio(x, _cfg())

    def test_single_transmitter_schemes_identical(self):
        ss = quad_cdf_ratio(2.0, _cfg(K=1))
        os_ = quad_cdf_ratio(2.0, _cfg(K=1, scheme="OS"))
        assert ss == pytest.approx(os_, abs=1e-10)

    def test_tolerance_failure_carries_diagnostics(self, monkeypatch):
        monkeypatch.setattr(oracles, "_ABS_TOL", 1e-14)
        monkeypatch.setattr(oracles, "_REL_TOL", 1e-14)
        monkeypatch.setattr(oracles, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureError) as info:
            quad_cdf_ratio(2.0, _cfg(K=3, N=3, M_D=2, M_E=2))
        err = info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0

    def test_tolerance_failure_fails_its_check(self, monkeypatch):
        # a QuadratureError is an ArithmeticError, which the checks report as
        # a FAIL line instead of raising out of the gate
        monkeypatch.setattr(oracles, "_ABS_TOL", 1e-14)
        monkeypatch.setattr(oracles, "_REL_TOL", 1e-14)
        monkeypatch.setattr(oracles, "_MAX_SUBDIVISIONS", 1)
        result = acceptance.check_sop_triple_oracle(quick=True)
        assert not result.passed
        assert result.detail.startswith(
            "numeric error: tail quadrature failed to reach tolerance"), result.detail

    def test_a_limit_too_small_for_the_breakpoints_is_a_quadrature_error(self, monkeypatch):
        # QUADPACK rejects a subdivision limit below its breakpoints (ier 6);
        # that escaped as a ValueError, past the checks and the CLI
        monkeypatch.setattr(oracles, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureError, match=r"breakpoints: .*_qagpe rejected .*\(ier 6\)"):
            quad_esr(_cfg(K=2, lambda_D=10.0))
        result = acceptance.check_esr_triple_oracle(quick=True)
        assert not result.passed
        assert result.detail.startswith("numeric error: "), result.detail

    def test_agrees_with_simulator(self):
        cfg = _cfg(zeta=0.9, knowledge="KU", scheme="OS")
        est, rate = _mc_alone(cfg, 400000, seed=21)
        assert abs(quad_cdf_ratio(cfg.rho(), cfg) - est.mean) <= 3.0 * est.stderr
        assert abs(quad_esr(cfg) - rate.mean) <= max(3.0 * rate.stderr, 0.02)


# float.hex() of quad_esr and quad_cdf_ratio(rho) for K = N = 2, M_D = M_E = M,
# lambda_D = 10, lambda_E = 10^0.5, zeta = 0.9, R_th = 1; the quad_cdf_ratio
# bits were recorded before the eavesdropper node cache existed, the quad_esr
# bits once only OS with K >= 2 kept the nested rate quadrature, and those of
# the OS rows once its outer integral got breakpoints at the ratio's knee.
# The last column is the rate of the nested quadrature without breakpoints,
# which every row used before: the single integral and the split nested one
# must match it within their tolerance. It also holds the OS rows' bits
# before the breakpoints (OS KU 2's were 0x1.7fcf3bef01154p+0, one ulp above)
_QUAD_BITS = (
    ("SS", "KA", 1, "0x1.649b244f26002p+0", "0x1.af79340014873p-2", "0x1.649b244f2668ep+0"),
    ("SS", "KA", 2, "0x1.76e4785da957ep+0", "0x1.609b718ee4af0p-2", "0x1.76e4785daa9eap+0"),
    ("SS", "KU", 1, "0x1.58cb484b21531p+0", "0x1.c3e189c60c752p-2", "0x1.58cb484b21c40p+0"),
    ("SS", "KU", 2, "0x1.6764911e0550ap+0", "0x1.7c3da59eb8d26p-2", "0x1.6764911e0697ep+0"),
    ("OS", "KA", 1, "0x1.795374eac6f43p+0", "0x1.8ae51071842b5p-2", "0x1.795374eac6a43p+0"),
    ("OS", "KA", 2, "0x1.8cde1219befc9p+0", "0x1.3696919e68b5ep-2", "0x1.8cde1219bf42ap+0"),
    ("OS", "KU", 1, "0x1.6fd0f730f08cfp+0", "0x1.9b3cf07cfa483p-2", "0x1.6fd0f730f0400p+0"),
    ("OS", "KU", 2, "0x1.7fcf3bef00d4cp+0", "0x1.4d8d905aa0dcep-2", "0x1.7fcf3bef01153p+0"),
)


# sha256 of the newline-joined float.hex() of quad_esr over the quick rate
# grid, in _esr_grid(True) order, recorded once the nested rate quadrature
# (OS with K >= 2) got breakpoints at the ratio's knee; before them it was
# c5737a4addf7de860338116cd7078b57ecbe41ed62425a4089973733f08d8ae2, and the
# OS rows moved by at most 3.1e-11 relative, closer to the closed forms
_QUICK_ESR_GRID_SHA256 = "f560a5c2c23dcd0a8896fa840c1dafb0ec92bbc08ac029350ce15fc6f2f23d05"

# sha256 of the newline-joined float.hex() of quad_cdf_ratio(rho) over the
# full outage grid (1,728 rows, K = 3 KU rows at zeta 0.5 and 0.9 among
# them), in _sop_grid(False) order, recorded while quad_cdf_ratio still had
# a branch of its own for each scheme under KU
_FULL_SOP_GRID_SHA256 = "b104ac74fff11acfc0bef62f966888f4129935187bba3f513970c7c4a0422dfa"


def _channel_integrand(x, cfg, survival):
    # reference for oracles._eve_integrand, composed of the channel functions
    scale = oracles._eve_scale(cfg)

    def dest(arg):
        if survival:
            return sf_snr_dest(arg, cfg.M_D, cfg.lambda_D)
        if cfg.scheme == "OS":
            return cdf_snr_dest(arg, cfg.M_D, cfg.lambda_D)
        return cdf_snr_dest_mixture_ka(arg, cfg) ** cfg.K

    def mapped(u):
        if u >= 1.0:
            return 0.0
        y = -scale * math.log1p(-u)
        density = pdf_snr_eve_max(y, cfg.N, cfg.M_E, cfg.lambda_E)
        return dest(x * (1.0 + y) - 1.0) * density * scale / (1.0 - u)

    return mapped


def _channel_rate_integrand(cfg, scale):
    # reference for oracles._rate_integrand, composed of the channel functions
    def mapped(u):
        if u >= 1.0:
            return 0.0
        t = -scale * math.log1p(-u)
        # 1 - F_X: some of the K links is on and above t
        gated = cfg.zeta * sf_snr_dest(t, cfg.M_D, cfg.lambda_D)
        survival = 1.0 if gated >= 1.0 else -math.expm1(cfg.K * math.log1p(-gated))
        return (cdf_snr_eve_max(t, cfg.N, cfg.M_E, cfg.lambda_E) * survival / (1.0 + t)
                * scale / (1.0 - u))

    return mapped


class TestInnerIntegrand:
    # u = 0 at x = 1 puts the destination SNR at 0; the small and large
    # lambda_D and u near 1 reach survival sums that round to 1 or 0, and
    # u = 0 at x = 1.6253, lambda_D = 1e4, M_D = 4 one that rounds above 1;
    # the eavesdropper density is nonzero at u = 0 only for N = M_E = 1
    NODES = (0.0, 1e-300, 1e-12, 1e-6, *(i / 64 for i in range(1, 64)),
             1.0 - 1e-9, 1.0 - 2.0 ** -52, 1.0)

    @pytest.mark.parametrize("scheme", ["SS", "OS"])
    @pytest.mark.parametrize("M_D", [1, 2, 3, 4])
    def test_bitwise_equal_to_the_channel_functions(self, scheme, M_D):
        # the survival integrand serves the OS rate alone
        _empty_tables()
        for (N, M_E), lam, zeta, x, survival in product(
                ((1, 1), (2, 2)), (1e-3, 10.0, 1e4), (0.5, 0.9, 1.0),
                (1.0, 1.5, 1.6253, 37.25, 1e4), (True, False) if scheme == "OS" else (False,)):
            cfg = _cfg(K=3, N=N, M_D=M_D, M_E=M_E, lambda_D=lam, lambda_E=10.0 ** 0.5,
                       zeta=zeta, scheme=scheme)
            flat = oracles._eve_integrand(x, cfg, survival)
            reference = _channel_integrand(x, cfg, survival)
            for u in self.NODES:
                expected = reference(u).hex()
                assert flat(u).hex() == expected, (cfg, x, survival, u)
                assert flat(u).hex() == expected  # the node read from its table

    @pytest.mark.parametrize("M_D", [1, 2, 3, 4])
    def test_rate_integrand_bitwise_equal_to_the_channel_functions(self, M_D):
        # the scales put the nodes' t from 0 through the far tails of both
        # survival sums; at lambda_D = 1e-3 they round to 0, at 1e4 to 1
        for K, (N, M_E), lam, zeta, scale in product(
                (1, 3), ((1, 1), (2, 2), (3, 4)), (1e-3, 10.0, 1e4), (0.5, 0.9, 1.0),
                (1e-3, 1.0, 37.25, 1e4)):
            cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=lam, lambda_E=10.0 ** 0.5,
                       zeta=zeta)
            flat = oracles._rate_integrand(cfg, scale)
            reference = _channel_rate_integrand(cfg, scale)
            for u in self.NODES:
                assert flat(u).hex() == reference(u).hex(), (cfg, scale, u)


def _empty_tables():
    oracles._node_table.cache_clear()
    oracles._survival_table.cache_clear()
    oracles._ka_esr.cache_clear()
    oracles._ka_cdf_integral.cache_clear()


class TestQuadratureBits:
    # every rate row of one (K, N, M_D, M_E) shape: SS/OS x KA/KU x 3 zeta x
    # 2 lambda_D
    SHAPE_ROWS = tuple(_cfg(lambda_D=lam, lambda_E=10.0 ** 0.5, zeta=zeta,
                            scheme=scheme, knowledge=knowledge)
                       for scheme, knowledge, zeta, lam in product(
                           ("SS", "OS"), ("KA", "KU"), (0.5, 0.9, 1.0), (1.0, 10.0)))

    @pytest.mark.parametrize("scheme,knowledge,M,esr_hex,sop_hex,nested_esr_hex", _QUAD_BITS)
    def test_pinned_on_cold_and_warm_node_cache(self, scheme, knowledge,
                                                M, esr_hex, sop_hex, nested_esr_hex):
        cfg = _cfg(M_D=M, M_E=M, lambda_E=10.0 ** 0.5, zeta=0.9,
                   scheme=scheme, knowledge=knowledge)
        _empty_tables()
        rate = quad_esr(cfg)
        assert rate == pytest.approx(float.fromhex(nested_esr_hex), rel=1e-9, abs=0.0)
        assert rate.hex() == esr_hex
        _empty_tables()
        assert quad_cdf_ratio(cfg.rho(), cfg).hex() == sop_hex
        assert oracles._node_table.cache_info().currsize  # the calls above filled it
        assert quad_esr(cfg).hex() == esr_hex
        assert quad_cdf_ratio(cfg.rho(), cfg).hex() == sop_hex

    def test_rows_of_one_shape_equal_a_row_alone(self):
        alone = []
        for cfg in self.SHAPE_ROWS:
            _empty_tables()
            alone.append(quad_esr(cfg).hex())
        _empty_tables()
        cold = [quad_esr(cfg).hex() for cfg in self.SHAPE_ROWS]
        # one family per lambda_D, from the OS rows; the SS rows integrate
        # once and store nothing
        assert oracles._survival_table.cache_info().currsize == 2
        warm = [quad_esr(cfg).hex() for cfg in self.SHAPE_ROWS]
        _empty_tables()
        backward = [quad_esr(cfg).hex() for cfg in reversed(self.SHAPE_ROWS)][::-1]
        assert cold == alone
        assert warm == alone
        assert backward == alone

    def test_tables_stay_within_their_bounds(self, monkeypatch):
        # at most 64 tables of at most 65,536 points each, and at most 256
        # memoized KA values of each oracle; filled past smaller bounds, the
        # tables and memos stop there and the bits stay the same
        factories = (oracles._survival_table, oracles._node_table)
        memos = (oracles._ka_esr, oracles._ka_cdf_integral)
        assert [cache.cache_info().maxsize for cache in factories + memos] == [64, 64, 256, 256]
        assert oracles._ENTRIES_PER_TABLE_MAX == 1 << 16
        rows = self.SHAPE_ROWS[::5]

        def values():
            return [(quad_esr(cfg).hex(), quad_cdf_ratio(cfg.rho(), cfg).hex()) for cfg in rows]
        _empty_tables()
        expected = values()
        made = {}  # factory name -> every table it made

        def small(factory):
            def make(*key):
                table = factory.__wrapped__(*key)
                made.setdefault(factory.__name__, []).append(table)
                return table
            return lru_cache(maxsize=2)(make)
        for factory in factories:
            monkeypatch.setattr(oracles, factory.__name__, small(factory))
        for memo in memos:
            monkeypatch.setattr(oracles, memo.__name__, lru_cache(maxsize=2)(memo.__wrapped__))
        monkeypatch.setattr(oracles, "_ENTRIES_PER_TABLE_MAX", 16)
        assert values() == expected
        for cache in factories + memos:
            assert 0 < getattr(oracles, cache.__name__).cache_info().currsize <= 2
        for factory in factories:
            assert all(len(table) <= 16 for table in made[factory.__name__])
        assert max(map(len, made["_survival_table"])) == 16

    def test_quick_rate_grid_pinned(self):
        # the nested quadrature's grid came within 1.4e-10 relative of the
        # closed forms, the single integral within 3.1e-11
        rates = [quad_esr(cfg) for cfg in acceptance._esr_grid(True)]
        hexes = "\n".join(rate.hex() for rate in rates)
        assert hashlib.sha256(hexes.encode()).hexdigest() == _QUICK_ESR_GRID_SHA256
        for cfg, rate in zip(acceptance._esr_grid(True), rates):
            assert rate == pytest.approx(esr_exact(cfg).value, rel=1e-9, abs=0.0), cfg

    # sha256 of the newline-joined float.hex() of quad_esr and of
    # quad_cdf_ratio(rho) over K >= 3, M_D >= 3 rows: the outage bits recorded
    # while the inner integrands still called the channel functions, the rate
    # bits once the nested rate quadrature got breakpoints at the ratio's knee
    LARGE_ROWS = tuple(_cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=lam,
                            lambda_E=10.0 ** 0.5, zeta=0.9, scheme=scheme,
                            knowledge=knowledge)
                       for (K, N, M_D, M_E), lam, scheme, knowledge in product(
                           ((3, 2, 3, 2), (4, 1, 4, 3)), (10.0, 100.0), ("SS", "OS"),
                           ("KA", "KU")))
    LARGE_ESR_SHA256 = "5ad1e128eca851df098dd9f472a498fe593d61135fcbf8ce0526619a175304b4"
    # quad_esr before those breakpoints, in row order (sha256 1324951e...)
    LARGE_UNSPLIT_ESR_HEXES = (
        "0x1.1df2739235745p+1", "0x1.09b9ac314d386p+1", "0x1.36cef6975f7aep+1",
        "0x1.2320eea6a9df6p+1", "0x1.60e836789c626p+2", "0x1.423f213f3693ep+2",
        "0x1.6d1f5bfe8d537p+2", "0x1.4eb435f244a84p+2", "0x1.54654e06d41e5p+1",
        "0x1.386db99e53f20p+1", "0x1.7fc965cfc0ecfp+1", "0x1.6333818ee677ep+1",
        "0x1.7d3cfccee4ceap+2", "0x1.5a3cfdb3c3f25p+2", "0x1.92a0cc2b2058cp+2",
        "0x1.6f5431926801cp+2",
    )
    # quad_esr of the nested quadrature every row used before, in row order
    LARGE_NESTED_ESR_HEXES = (
        "0x1.1df273922ddbfp+1", "0x1.09b9ac314be5ep+1", "0x1.36cef6975f7aep+1",
        "0x1.2320eea6a9df8p+1", "0x1.60e83678a247ap+2", "0x1.423f213f34dc1p+2",
        "0x1.6d1f5bfe8d537p+2", "0x1.4eb435f244a85p+2", "0x1.54654e06d4f13p+1",
        "0x1.386db99e55442p+1", "0x1.7fc965cfc0ecfp+1", "0x1.6333818ee677cp+1",
        "0x1.7d3cfccee4438p+2", "0x1.5a3cfdb3c466ep+2", "0x1.92a0cc2b2058cp+2",
        "0x1.6f5431926801cp+2",
    )
    LARGE_SOP_SHA256 = "840a85769f94431bd43958306df19af394efc22f4e8b4fe481125d2f62614ab0"

    def test_larger_shapes_pinned(self):
        rates = [quad_esr(cfg) for cfg in self.LARGE_ROWS]
        for rate, nested, unsplit in zip(rates, self.LARGE_NESTED_ESR_HEXES,
                                         self.LARGE_UNSPLIT_ESR_HEXES, strict=True):
            assert rate == pytest.approx(float.fromhex(nested), rel=1e-9, abs=0.0)
            assert rate == pytest.approx(float.fromhex(unsplit), rel=1e-9, abs=0.0)
        esr_hexes = "\n".join(rate.hex() for rate in rates)
        sop_hexes = "\n".join(quad_cdf_ratio(cfg.rho(), cfg).hex() for cfg in self.LARGE_ROWS)
        assert hashlib.sha256(esr_hexes.encode()).hexdigest() == self.LARGE_ESR_SHA256
        assert hashlib.sha256(sop_hexes.encode()).hexdigest() == self.LARGE_SOP_SHA256

    def test_full_outage_grid_pinned(self):
        hexes = "\n".join(quad_cdf_ratio(cfg.rho(), cfg).hex()
                          for cfg in acceptance._sop_grid(False))
        assert hashlib.sha256(hexes.encode()).hexdigest() == _FULL_SOP_GRID_SHA256

    @pytest.mark.parametrize("knowledge", ["KA", "KU"])
    def test_memoized_values_honor_the_quadpack_settings(self, monkeypatch, knowledge):
        # a KU row reads its always-on row's memoized KA value; with a
        # subdivision limit the quadrature cannot meet, the warm row fails
        # as a cold one would instead of returning the stored value
        cfg = _cfg(lambda_D=0.1, lambda_E=10.0 ** 0.5, zeta=0.9, knowledge=knowledge)
        _empty_tables()
        assert quad_esr(cfg) > 0.0 and quad_cdf_ratio(cfg.rho(), cfg) < 1.0
        assert oracles._ka_esr.cache_info().currsize == 1
        assert oracles._ka_cdf_integral.cache_info().currsize == 1
        monkeypatch.setattr(oracles, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureError):
            quad_esr(cfg)
        with pytest.raises(QuadratureError):
            quad_cdf_ratio(cfg.rho(), cfg)

    def test_inner_survival_memo_honors_the_quadpack_settings(self, monkeypatch):
        # the OS rate's inner integrals are memoized per family and x; under
        # settings a fresh quadrature cannot meet, a stored x fails as a
        # cold one would instead of returning the stored value
        cfg = _cfg(lambda_E=3.0, zeta=0.9, scheme="OS")
        x = 1.1211914426761411  # a node of the outer quadrature
        _empty_tables()
        assert quad_esr(cfg) > 0.0
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "_quad_unit", None)  # the stored value is read
            assert oracles._os_survival(cfg)(x) == 0.8994293209009615
        monkeypatch.setattr(oracles, "_MAX_SUBDIVISIONS", 1)
        monkeypatch.setattr(oracles, "_ABS_TOL", 1e-14)
        monkeypatch.setattr(oracles, "_REL_TOL", 1e-14)
        with pytest.raises(QuadratureError):
            oracles._os_survival(cfg)(x)

    def test_ku_row_reuses_its_always_on_quadratures(self):
        # every KU row is one multiply-add on its always-on KA value
        ka = _cfg(K=3, lambda_E=10.0 ** 0.5, scheme="OS")
        ku = _cfg(K=3, lambda_E=10.0 ** 0.5, zeta=0.9, scheme="OS", knowledge="KU")
        _empty_tables()
        rate, outage = quad_esr(ka), quad_cdf_ratio(ku.rho(), ka)
        misses = oracles._ka_esr.cache_info().misses, oracles._ka_cdf_integral.cache_info().misses
        assert quad_esr(ku) == 0.9 * rate
        assert quad_cdf_ratio(ku.rho(), ku) == min(1.0, 1.0 - 0.9 + 0.9 * outage)
        assert (oracles._ka_esr.cache_info().misses,
                oracles._ka_cdf_integral.cache_info().misses) == misses

    def test_os_outage_rows_share_one_link_average(self):
        # under OS the eavesdropper average is one link's, read by rows of
        # every K and zeta, each with the bits of a row on empty tables
        rows = [_cfg(K=K, lambda_E=10.0 ** 0.5, zeta=zeta, scheme="OS", knowledge=knowledge)
                for K, zeta, knowledge in product((1, 2, 3), (0.5, 0.9, 1.0), ("KA", "KU"))]
        x = rows[0].rho()
        alone = []
        for cfg in rows:
            _empty_tables()
            alone.append(quad_cdf_ratio(x, cfg).hex())
        _empty_tables()
        assert [quad_cdf_ratio(x, cfg).hex() for cfg in rows] == alone
        assert oracles._ka_cdf_integral.cache_info().misses == 1

    @pytest.mark.parametrize("scheme", ["SS", "OS"])
    def test_gate_after_selection_at_full_reliability_is_bitwise_ka(self, scheme):
        # with a backhaul that never fails, gating after selection is KA
        ka = _cfg(K=3, lambda_E=10.0 ** 0.5, scheme=scheme, knowledge="KA")
        ku = _cfg(K=3, lambda_E=10.0 ** 0.5, scheme=scheme, knowledge="KU")
        assert quad_esr(ku).hex() == quad_esr(ka).hex()


class TestSingleRateIntegral:
    # SS/KA rows whose eavesdroppers sit 60 to 80 dB below the destination:
    # without breakpoints at the eavesdropper scale, QUADPACK misses its
    # tolerance on both. The values are the nested quadrature's.
    @pytest.mark.parametrize("K,N,M_D,M_E,lambda_D_dB,zeta,nested", [
        (3, 4, 2, 3, 30.0, 0.9, 11.385355346297894),
        (2, 2, 2, 1, 50.0, 0.1, 3.2777072160479723),
    ])
    def test_rows_far_above_the_eavesdroppers(self, K, N, M_D, M_E, lambda_D_dB, zeta,
                                              nested):
        cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=10.0 ** (lambda_D_dB / 10.0),
                   lambda_E=1e-3, zeta=zeta)
        assert quad_esr(cfg) == pytest.approx(nested, rel=1e-9, abs=0.0)

    # OS/KA rows far above or near the eavesdroppers, whose nested rate
    # quadrature gets two to four breakpoints at the ratio's knee. The values
    # are the nested quadrature's without breakpoints.
    @pytest.mark.parametrize("K,N,M_D,M_E,lambda_D_dB,lambda_E_dB,unsplit", [
        (2, 2, 2, 1, 30.0, -30.0, 10.986533572092942),
        (3, 4, 2, 3, 30.0, -30.0, 11.385357619515403),
        (2, 2, 2, 2, 50.0, -10.0, 17.232556599220263),
        (3, 2, 3, 3, 40.0, 5.0, 11.777456031898454),
        (4, 3, 3, 3, 20.0, 5.0, 5.096452686089329),
    ])
    def test_knee_breakpoints_keep_the_rate(self, K, N, M_D, M_E, lambda_D_dB, lambda_E_dB,
                                            unsplit):
        cfg = _cfg(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=10.0 ** (lambda_D_dB / 10.0),
                   lambda_E=10.0 ** (lambda_E_dB / 10.0), zeta=0.9, scheme="OS")
        assert quad_esr(cfg) == pytest.approx(unsplit, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("N,M_D,M_E", list(product((1, 3), repeat=3)))
    def test_single_link_nested_quadrature_agrees(self, N, M_D, M_E):
        # at K = 1 the nested OS quadrature integrates over the ratio's law and
        # the single integral over t: the change of integration order
        _empty_tables()
        for lambda_D_dB, lambda_E_dB in product((0.0, 20.0, 40.0), (-10.0, 5.0)):
            cfg = _cfg(K=1, N=N, M_D=M_D, M_E=M_E, lambda_D=10.0 ** (lambda_D_dB / 10.0),
                       lambda_E=10.0 ** (lambda_E_dB / 10.0), zeta=0.9, scheme="OS")
            assert oracles._single_esr(cfg) == pytest.approx(
                oracles._nested_esr(cfg), rel=1e-9, abs=0.0), cfg

    @pytest.mark.parametrize("cfg", [
        _cfg(K=3, lambda_E=10.0 ** 0.5, zeta=0.9),
        _cfg(K=1, lambda_E=10.0 ** 0.5, zeta=0.9, scheme="OS"),
        _cfg(K=3, lambda_E=10.0 ** 0.5, zeta=0.9, knowledge="KU"),
    ], ids=["SS", "OS-K1", "SS-KU"])
    def test_single_integral_fills_no_table(self, cfg):
        _empty_tables()
        assert quad_esr(cfg) > 0.0
        assert oracles._survival_table.cache_info().currsize == 0
        assert oracles._node_table.cache_info().currsize == 0


class TestQuadpack:
    """The oracles call scipy's QUADPACK extension as scipy.integrate.quad
    would, and get the bits quad returns."""

    @staticmethod
    def _quad_unit_calls(monkeypatch):
        # each _quad_unit call's (mapped, points) and the QUADPACK routine and
        # (value, error bound) it got, for oracles that nest no quadrature
        calls = []
        quad_unit, quadpack = oracles._quad_unit, oracles.quadpack

        def spied_unit(mapped, points=None):
            calls.append([mapped, points])
            value = quad_unit(mapped, points)
            assert value == calls[-1][3][0]
            return value

        def spied_quadpack(routine, *args):
            result = quadpack(routine, *args)
            calls[-1] += [routine, result]
            return result

        monkeypatch.setattr(oracles, "_quad_unit", spied_unit)
        monkeypatch.setattr(oracles, "quadpack", spied_quadpack)
        return calls

    @pytest.mark.parametrize("lambda_D,routine,breakpoints", [
        (0.1, "_qagse", 0), (10.0, "_qagpe", 1), (1e3, "_qagpe", 2)])
    def test_oracles_match_quad_bit_for_bit(self, monkeypatch, lambda_D, routine,
                                            breakpoints):
        # the rate integral with none, one and two of _single_esr's
        # breakpoints, and the outage integral
        from scipy.integrate import quad

        calls = self._quad_unit_calls(monkeypatch)
        cfg = _cfg(lambda_D=lambda_D, lambda_E=10.0 ** 0.5, zeta=0.9)
        quad_esr(cfg)
        quad_cdf_ratio(cfg.rho(), cfg)
        (rate_call, outage_call) = calls
        assert rate_call[2] == routine and outage_call[2] == "_qagse"
        assert len(rate_call[1] or ()) == breakpoints
        for mapped, points, _routine, result in calls:
            expected = quad(mapped, 0.0, 1.0, epsabs=oracles._ABS_TOL,
                            epsrel=oracles._REL_TOL, limit=oracles._MAX_SUBDIVISIONS,
                            points=points)
            assert [x.hex() for x in result] == [x.hex() for x in expected]

    def test_infinite_range_call_matches_quad_bit_for_bit(self):
        # the call criterion 9 makes for each kernel
        from scipy.integrate import quad

        def integrand(x):
            return math.exp(-0.3 * x) / (x + 7.5) ** 3

        ours = oracles.quadpack("_qagie", integrand, 1.0, 1, (), 0, 0.0, 1e-12, 800)
        theirs = quad(integrand, 1.0, math.inf, limit=800, epsabs=0.0, epsrel=1e-12)
        assert [x.hex() for x in ours] == [x.hex() for x in theirs]

    def test_invalid_input_raises_like_quad(self, monkeypatch):
        # no subinterval allowed: QUADPACK's ier 6
        from scipy.integrate import quad

        mapped = oracles._eve_integrand(2.0, _cfg(), survival=False)
        with pytest.raises(ValueError):
            quad(mapped, 0.0, 1.0, limit=0)
        monkeypatch.setattr(oracles, "_MAX_SUBDIVISIONS", 0)
        with pytest.raises(ValueError, match="ier 6"):
            oracles._quad_unit(mapped)

    def test_oracle_calls_leave_scipy_integrate_unloaded(self):
        # in a fresh interpreter, each oracle and criterion 9 load QUADPACK's
        # extension alone, not the scipy subpackages around it
        code = (
            "import sys\n"
            "from secrecy_lab import acceptance, oracles\n"
            "from secrecy_lab.channel import SystemConfig\n"
            "cfg = SystemConfig(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0, lambda_E=1.0,\n"
            "                   zeta=0.9, R_th=1.0, scheme='OS', knowledge='KA')\n"
            "oracles.quad_esr(cfg)\n"
            "oracles.quad_cdf_ratio(cfg.rho(), cfg)\n"
            "oracles.mc_moments([cfg], 10000, 1)\n"
            "assert acceptance.check_special_functions(quick=True).passed\n"
            "print(','.join(m for m in ('scipy.integrate._quadpack', 'scipy.integrate',\n"
            "                           'scipy.special', 'scipy.optimize')\n"
            "               if m in sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=300,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.splitlines()[-1] == "scipy.integrate._quadpack"


def test_oracles_import_only_the_channel_model():
    # the oracles certify the closed forms, so they restate the gate-after-
    # selection identity instead of importing the closed forms' mapping: one
    # shared bug would pass both sides of every check
    with open(oracles.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"channel"}
    assert not {name for name in absolute if name.split(".")[0] == "secrecy_lab"}
