"""Ground-truth engines: a link-level Monte Carlo simulator and adaptive
quadrature of the defining integrals. Both are independent of the closed
forms and are used to certify every analytic output.

Monte Carlo determinism: trials are split into fixed 65536-trial chunks and
each chunk gets its own counter-based (Philox) stream keyed by (seed, chunk
index). Per-chunk reductions happen inside the chunk and the cross-chunk
reduction runs in chunk order, so the estimate is bit-identical for any
worker count. The draws depend only on (K, N, M_D, M_E), so configs of one
such shape share draws and still get the bits of a pass of their own.

Monte Carlo reductions: numpy's pairwise sum adds a run of fewer than 8
elements one by one from 0.0, so a path sum over fewer than 8 paths is a
left fold of whole-array adds over the path slices, with ndarray.sum's
bits; 8 or more paths keep ndarray.sum. The eavesdropper maximum is an
np.maximum fold over the N slices, exact in any order.

Monte Carlo selection: once a chunk's three draws are made, each is copied
to one contiguous row per link. A shape's configs are grouped by (lambda_D,
lambda_E); a group builds its destination SNRs and ratios once, for both
schemes, and frees them before the next group. Per scheme, the unmasked
selection ignores the gates and runs once: KU rows at every zeta gate its
pick, and KA rows at zeta = 1 take its rate, because every gate draw lies
in [0, 1) and so every link is on. KA rows below zeta = 1 get one masked
selection per zeta, on masks computed once per zeta. Links are compared one
row at a time with a strict >, which keeps np.argmax's first maximum on
ties; a trial with every link masked picks link 0 and transmits nothing.
The log2 rate is taken once per selection, on a contiguous array, so every
rate array has the bits of a per-config argmax over links.

Gate after selection (KU): the always-on selection runs first and one
backhaul gate then blocks the selected link, so a KU row is its always-on KA
row gated once: F = 1 - zeta + zeta*F_on and 1 - F = zeta*(1 - F_on). The
oracle restates that identity here instead of sharing the closed forms'
mapping, so one wrong mapping cannot pass both sides of a check.

Rate quadrature: the rate of a selected link with destination SNR X and
strongest eavesdropper SNR Y is log2((1+X)/(1+Y))^+, and
ln((1+X)/(1+Y))^+ = integral_0^inf 1{Y <= t < X}/(1+t) dt. Where X and Y
are independent, P(Y <= t < X) = F_Y(t)(1 - F_X(t)), so the ESR is the
single integral (1/ln 2) integral_0^inf F_Y(t)(1 - F_X(t))/(1+t) dt. That
holds under SS for any K, because the selection reads destination SNRs
only, and under either scheme at K = 1; a trial with every link gated off
has X = 0 and adds nothing. A KU row is its always-on row scaled by zeta.
OS with K >= 2 selects on the ratio, which reads the eavesdroppers, so
there `quad_esr` integrates the ratio's survival 1 - F(x), itself an
integral over Y at each outer node x.

Quadrature sharing (OS, K >= 2): the inner integral depends on x, (M_D,
lambda_D) and the eavesdropper law only. Rows that agree there and share K
and lambda_E (and so the outer map) meet the same x, and the first row's
inner value serves the others. QUADPACK is deterministic and every input of
the inner integral is in its key, so a stored value is the exact float a
fresh quadrature would return: every result is bit-identical to one
computed on empty tables, in any row order. The eavesdropper density is
likewise stored per node. Each table comes from an lru_cache factory keyed
by what its values depend on, so evicting a table moves no bit either.

Integrands: each quadrature integrates one Python function per node,
`_eve_integrand` over Y and `_rate_integrand` over t. Both restate the
Gamma survival sum of `channel.sf_snr_dest` and the CDF forms built on it
with the same operations in the same order, instead of calling them through
nested frames, so every node value is the float the channel functions give.

Imports: numpy and scipy load on the first oracle call, inside `quadpack`
and the Monte Carlo functions, so a process that evaluates only closed
forms never pays for them. Of scipy, only the top-level package and the
QUADPACK extension module load, never scipy.integrate: the oracles call
the extension's _qagse, _qagpe and _qagie with the arguments
scipy.integrate.quad would pass, so every result has quad's bits. The
import sits in those functions, never in an integrand: a repeated import is
a cached dictionary lookup, but a per-node one would run hundreds of
thousands of times per sweep.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

from .channel import SystemConfig, pdf_snr_eve_max

_CHUNK = 65536
_MIN_TRIALS = 10_000
_LN2 = math.log(2.0)
_MASK64 = (1 << 64) - 1

# QUADPACK tolerances and subdivision limit of every oracle integral
_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 2000

# How far a closed form may sit from each oracle, for the acceptance checks
# and the CLI alike: an absolute quadrature tolerance, and _MC_SIGMAS Monte
# Carlo standard errors, never below a floor. Zero observed outages leave
# stderr = 0, and the 3-sigma Wilson upper bound at zero successes is
# 9/(trials+9), so the outage floor of 9/trials keeps the gate at the
# simulation's resolution.
_MC_SIGMAS = 3.0


@dataclass(frozen=True)
class Agreement:
    quad_tol: float
    mc_floor: float
    per_trial: bool  # the floor is mc_floor / trials

    def mc_tol(self, stderr: float, trials: int) -> float:
        return max(_MC_SIGMAS * stderr, self._scaled(self.mc_floor, trials))

    def mc_z(self, delta: float, stderr: float, trials: int) -> float:
        """|delta| in standard errors, the floor's share as the least one."""
        return abs(delta) / max(stderr, self._scaled(self.mc_floor / _MC_SIGMAS, trials))

    def _scaled(self, floor: float, trials: int) -> float:
        return floor / trials if self.per_trial else floor


SOP_AGREEMENT = Agreement(quad_tol=1e-6, mc_floor=9.0, per_trial=True)
ESR_AGREEMENT = Agreement(quad_tol=1e-5, mc_floor=0.02, per_trial=False)


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float


class QuadratureError(ArithmeticError):
    """Tolerance failure carrying the achieved estimate and error bound.

    An ArithmeticError, like the closed forms' numeric failures, so the CLI
    and the acceptance checks report it the same way.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


_QUADPACK = "scipy.integrate._quadpack"


def quadpack(routine: str, *args) -> tuple[float, float]:
    """(value, error bound) of QUADPACK's `routine` ("_qagse", "_qagpe" or
    "_qagie") on the arguments scipy.integrate.quad would pass it.

    quad hands such calls unchanged to scipy's QUADPACK extension module, but
    importing scipy.integrate loads hundreds of scipy modules first. The
    extension alone is loaded from scipy's integrate/ directory by its import
    spec; an extension module enters sys.modules as it loads, where a later
    import of scipy.integrate finds it too. As in quad, ier 6 (invalid
    input) raises ValueError; quad only warns on the other codes, and the
    callers here test the error bound themselves.
    """
    module = sys.modules.get(_QUADPACK)
    if module is None:
        import importlib.machinery
        import importlib.util

        import scipy

        spec = importlib.machinery.PathFinder.find_spec(
            _QUADPACK, [os.path.join(path, "integrate") for path in scipy.__path__])
        if spec is None:
            raise ImportError(f"no {_QUADPACK} extension under {list(scipy.__path__)}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    value, error_bound, ier = getattr(module, routine)(*args)
    if ier == 6:
        raise ValueError(f"QUADPACK {routine} rejected its input as invalid (ier 6)")
    return value, error_bound


def _quad_unit(mapped, points=None) -> float:
    # integral_0^1 mapped(u) du, raising when QUADPACK misses the tolerance;
    # points are interior breakpoints where the integrand changes scale,
    # passed as quad passes them: the sorted distinct points inside (0, 1),
    # then two zeros
    if points is None:
        value, err = quadpack("_qagse", mapped, 0.0, 1.0, (), 0,
                              _ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS)
    else:
        import numpy as np

        inner = np.unique(points)
        inner = inner[(0.0 < inner) & (inner < 1.0)]
        value, err = quadpack("_qagpe", mapped, 0.0, 1.0, np.concatenate((inner, (0.0, 0.0))),
                              (), 0, _ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS)
    if err > max(_ABS_TOL, _REL_TOL * abs(value)) * 1.01:
        raise QuadratureError("tail quadrature failed to reach tolerance", value, err)
    return value


def _eve_scale(cfg: SystemConfig) -> float:
    # roughly the mean of the strongest eavesdropper SNR
    return cfg.lambda_E * (cfg.M_E + math.log(cfg.N + 1.0))


# Memo tables {point: value}, one per key their values depend on: the 64
# most recently used tables are kept, each holding at most
# _ENTRIES_PER_TABLE_MAX points. Values depend only on their keys, so a race
# between threads at worst repeats work.
_ENTRIES_PER_TABLE_MAX = 1 << 16


@lru_cache(maxsize=64)
def _node_table(N: int, M_E: int, lambda_E: float) -> dict:
    """Eavesdropper nodes u -> (1+y, f_E(y), 1-u) of one eavesdropper law.

    The law also fixes the map's scale. QUADPACK bisects [0, 1] the same
    way for every integrand, so the inner integrals of all thresholds and
    rows of one eavesdropper law keep landing on the same u; the density is
    evaluated once per node.
    """
    return {}


def _eve_integrand(x: float, cfg: SystemConfig, survival: bool):
    """u -> integrand on [0, 1) of integral_0^inf g(x(1+y)-1) f_E(y) dy.

    f_E is the density of the strongest eavesdropper SNR y and g(arg) what
    the links contribute at destination SNR arg: one link's survival
    function (survival=True, the OS rate's inner integral) or CDF; for the
    CDF under SS, where the K links share y, the gated K-link form
    (1-zeta+zeta*cdf)^K.
    y = -scale*log(1-u), u in [0, 1): the map turns exponential decay into an
    O(1) integrand and keeps adaptivity concentrated near y = 0 where the
    densities peak.

    The integrand is one Python frame per node: the Gamma(M_D, lambda_D)
    survival sum is `sf_snr_dest`'s, restated with the same operations in
    the same order, and g follows `cdf_snr_dest` and
    `cdf_snr_dest_mixture_ka` the same way, so every value is the float the
    channel functions give (tests check this bit for bit).
    """
    scale, table = _eve_scale(cfg), _node_table(cfg.N, cfg.M_E, cfg.lambda_E)
    N, M_E, lambda_E = cfg.N, cfg.M_E, cfg.lambda_E
    K, lambda_D, zeta = cfg.K, cfg.lambda_D, cfg.zeta
    orders = range(1, cfg.M_D)
    ss = cfg.scheme == "SS"

    def mapped(u: float) -> float:
        if u >= 1.0:
            return 0.0
        node = table.get(u)
        if node is None:
            y = -scale * math.log1p(-u)
            node = (1.0 + y, pdf_snr_eve_max(y, N, M_E, lambda_E), 1.0 - u)
            if len(table) < _ENTRIES_PER_TABLE_MAX:
                table[u] = node
        one_plus_y, density, one_minus_u = node
        arg = x * one_plus_y - 1.0
        if arg <= 0.0:
            sf = 1.0
        else:
            v = arg / lambda_D
            term = math.exp(-v)
            total = term
            for m in orders:
                term *= v / m
                total += term
            sf = total if total < 1.0 else 1.0  # min(1.0, total)
        if survival:
            value = sf
        else:
            value = 1.0 - sf
            value = value if value > 0.0 else 0.0  # max(0.0, 1.0 - sf)
            if ss:
                value = 0.0 if arg < 0.0 else ((1.0 - zeta) + zeta * value) ** K
        return value * density * scale / one_minus_u

    return mapped


def _always_on(cfg: SystemConfig) -> SystemConfig:
    # the KA row whose selection a KU row gates: a backhaul that never fails
    return replace(cfg, zeta=1.0, knowledge="KA")


def quad_cdf_ratio(x: float, cfg: SystemConfig) -> float:
    """CDF of the secrecy ratio at finite x >= 1 by direct adaptive quadrature.

    Conditioning on the strongest eavesdropper SNR y, a link's CDF enters at
    argument x(1+y)-1. SS selects on the destination SNR alone, so the K
    links share one y and the K-th power of one link's gated CDF is
    averaged; under OS each link has its own eavesdroppers, so one link's
    average is gated and raised to the K-th power. A KU row gates its
    always-on row once: 1-zeta+zeta*F_on.
    """
    if not 1.0 <= x < math.inf:
        raise ValueError(f"x must be finite and at least 1: the ratio never falls "
                         f"below 1 (got {x!r})")
    if cfg.zeta == 0.0:
        return 1.0
    if cfg.knowledge == "KU":
        return min(1.0, 1.0 - cfg.zeta + cfg.zeta * quad_cdf_ratio(x, _always_on(cfg)))
    value = _quad_unit(_eve_integrand(x, cfg, survival=False))
    if cfg.scheme == "OS":
        value = ((1.0 - cfg.zeta) + cfg.zeta * value) ** cfg.K
    return min(1.0, max(0.0, value))


def _outer_scale(cfg: SystemConfig) -> float:
    # roughly where the rate integrand's mass ends, in destination SNR
    return cfg.lambda_D * (cfg.M_D + math.log(cfg.K + 1.0)) + cfg.lambda_E


def _rate_integrand(cfg: SystemConfig, scale: float):
    """u -> integrand on [0, 1) of integral_0^inf F_Y(t)(1 - F_X(t))/(1+t) dt.

    F_Y is the CDF of the strongest eavesdropper SNR and 1 - F_X the gated
    K-link survival 1-(1-zeta*sf)^K of the selected destination SNR, with
    t = -scale*log(1-u). As in `_eve_integrand`, the two Gamma survival sums
    restate `sf_snr_dest` with the same operations in the same order, and
    F_Y follows `cdf_snr_eve_max`, so every value is the float the channel
    functions give (tests check this bit for bit).
    """
    N, M_E, lambda_E = cfg.N, cfg.M_E, cfg.lambda_E
    K, lambda_D, zeta = cfg.K, cfg.lambda_D, cfg.zeta
    eve_orders, dest_orders = range(1, M_E), range(1, cfg.M_D)

    def mapped(u: float) -> float:
        if u >= 1.0:
            return 0.0
        t = -scale * math.log1p(-u)
        v = t / lambda_E
        term = math.exp(-v)
        total = term
        for m in eve_orders:
            term *= v / m
            total += term
        cdf = 1.0 - (total if total < 1.0 else 1.0)
        cdf = cdf if cdf > 0.0 else 0.0  # max(0.0, 1.0 - min(1.0, total))
        v = t / lambda_D
        term = math.exp(-v)
        total = term
        for m in dest_orders:
            term *= v / m
            total += term
        gated = zeta * (total if total < 1.0 else 1.0)
        sf = 1.0 if gated >= 1.0 else -math.expm1(K * math.log1p(-gated))
        return cdf ** N * sf / (1.0 + t) * scale / (1.0 - u)

    return mapped


@lru_cache(maxsize=64)
def _survival_table(M_D: int, lambda_D: float, N: int, M_E: int, lambda_E: float) -> dict:
    """Inner survival integrals x -> value of the OS rate of one family.

    A family is (M_D, lambda_D) and the eavesdropper law (see the module
    docstring). Each value is the single-link integral as QUADPACK returns
    it; it is clamped where it is read.
    """
    return {}


def _os_survival(cfg: SystemConfig):
    """x -> 1 - F(x) under OS, each inner integral computed once per family and x.

    The survival probability is its own integral (no 1 - (1 - eps) loss),
    because the ESR integrand weights the far tail logarithmically.
    """
    K, gate = cfg.K, cfg.zeta
    table = _survival_table(cfg.M_D, cfg.lambda_D, cfg.N, cfg.M_E, cfg.lambda_E)

    def survival(x: float) -> float:
        inner = table.get(x)
        if inner is None:
            inner = _quad_unit(_eve_integrand(x, cfg, survival=True))
            if len(table) < _ENTRIES_PER_TABLE_MAX:
                table[x] = inner
        gated = gate * min(1.0, max(0.0, inner))
        value = 1.0 if gated >= 1.0 else -math.expm1(K * math.log1p(-gated))
        return min(1.0, max(0.0, value))

    return survival


def _nested_esr(cfg: SystemConfig) -> float:
    # (1/ln 2) * integral_1^inf (1 - F(x))/x dx of a KA OS row, with the
    # outer tail mapped like the inner one, x - 1 = -scale*log(1-u)
    scale = _outer_scale(cfg)
    survival = _os_survival(cfg)

    def mapped(u: float) -> float:
        if u >= 1.0:
            return 0.0
        t = -scale * math.log1p(-u)
        x = 1.0 + t
        return survival(x) / x * scale / (1.0 - u)

    return _quad_unit(mapped) / _LN2


def _single_esr(cfg: SystemConfig) -> float:
    # the single integral of a KA row whose X and Y are independent. The
    # integrand turns on at the eavesdropper scale; where that lies below
    # the outer one (far below when lambda_D >> lambda_E), QUADPACK gets
    # breakpoints at t = 1 and 16 eavesdropper scales inside the outer one
    scale = _outer_scale(cfg)
    ratio = _eve_scale(cfg) / scale
    points = [-math.expm1(-m * ratio) for m in (1.0, 16.0) if m * ratio < 1.0]
    return _quad_unit(_rate_integrand(cfg, scale), points or None) / _LN2


def quad_esr(cfg: SystemConfig) -> float:
    """Ergodic secrecy rate by adaptive quadrature.

    A KU row is zeta times its always-on row (1 - F = zeta*(1 - F_on)). A KA
    row whose selected destination SNR X is independent of its eavesdropper
    maximum Y (SS for any K, either scheme at K = 1) is the single integral
    (1/ln 2) * integral_0^inf F_Y(t)(1 - F_X(t))/(1+t) dt. OS with K >= 2,
    whose selection reads Y, is (1/ln 2) * integral_1^inf (1 - F(x))/x dx
    with the survival of the ratio itself an adaptive quadrature.
    """
    if cfg.zeta == 0.0:
        return 0.0
    if cfg.knowledge == "KU":
        return cfg.zeta * quad_esr(_always_on(cfg))
    if cfg.scheme == "OS" and cfg.K > 1:
        return _nested_esr(cfg)
    return _single_esr(cfg)


def _shape(cfg: SystemConfig) -> tuple[int, int, int, int]:
    # what the Monte Carlo draws depend on, besides the seed and the chunk
    return cfg.K, cfg.N, cfg.M_D, cfg.M_E


def _path_sum(draws):
    """draws.sum(axis=-1), bit for bit (see "Monte Carlo reductions" above).

    A left fold of whole-array adds over the slices of a short last axis is
    several times faster than ndarray.sum's reduction along it.
    """
    paths = draws.shape[-1]
    if paths >= 8:
        return draws.sum(axis=-1)
    total = draws[..., 0] + 0.0  # a copy, as the sum's first add gives
    for m in range(1, paths):
        total += draws[..., m]
    return total


def _rates_with_rng(cfgs: tuple[SystemConfig, ...], rng: np.random.Generator,
                    count: int) -> list[np.ndarray]:
    """Per-trial secrecy rates of every config, all from one set of draws.

    The configs share (K, N, M_D, M_E); the rest of each config is applied to
    the unit-scale draws afterwards, so every rate array is bit-identical to
    a draw made for its config alone. Draw order is part of the
    reproducibility contract: destination SNRs, then eavesdropper SNRs, then
    backhaul gates.
    """
    import numpy as np

    K, N, M_D, M_E = _shape(cfgs[0])
    dest_sum = _path_sum(rng.standard_exponential((count, K, M_D)))
    # scaling by lambda_E > 0 is monotone under rounding, so the scaled
    # maximum over eavesdroppers equals the maximum of the scaled sums; a
    # maximum is exact in any order
    eve_sums = _path_sum(rng.standard_exponential((count, K, N, M_E)))
    eve_max = eve_sums[..., 0]
    for n in range(1, N):
        eve_max = np.maximum(eve_max, eve_sums[..., n])
    gate_u = rng.random((count, K))
    # one contiguous row per link, copied only after every draw is made
    dest_sum, eve_max, gate_u = (np.ascontiguousarray(a.T) for a in (dest_sum, eve_max, gate_u))

    masks: dict = {}  # KA zeta below 1 -> (per-link active masks, any link active)
    groups: dict = {}  # (lambda_D, lambda_E) -> indices of its configs
    for i, cfg in enumerate(cfgs):
        if cfg.knowledge == "KA" and cfg.zeta < 1.0 and cfg.zeta not in masks:
            on = gate_u < cfg.zeta
            masks[cfg.zeta] = on, on.any(axis=0)
        groups.setdefault((cfg.lambda_D, cfg.lambda_E), []).append(i)
    rates = [None] * len(cfgs)
    for (lambda_D, lambda_E), members in groups.items():
        # one group's SNR arrays at a time: they are freed when it returns
        for i, rate in zip(members, _group_rates(
                [cfgs[i] for i in members], dest_sum * lambda_D, eve_max * lambda_E,
                gate_u, masks)):
            rates[i] = rate
    return rates


def _first_max(score, payloads, on=None) -> list:
    """Per trial, each payload's row at the first link of maximal score.

    Only links whose `on` mask is set compete; a trial with every link off
    takes link 0. Rows are links; the strict > keeps np.argmax's
    first-maximum rule on ties.
    """
    import numpy as np

    best = score[0] if on is None else np.where(on[0], score[0], -np.inf)
    picked = [payload[0] for payload in payloads]
    for k in range(1, len(score)):
        better = score[k] > best
        if on is not None:
            better &= on[k]
        best = np.where(better, score[k], best)
        picked = [np.where(better, payload[k], row) for payload, row in zip(payloads, picked)]
    return picked


def _group_rates(cfgs: list, dest, eve, gate_u, masks: dict) -> list:
    # rates of configs that share lambda_D and lambda_E. Per scheme, one
    # unmasked selection serves KU at every zeta and KA at zeta = 1 (each
    # gate draw lies in [0, 1), so every link is on), and KA below zeta = 1
    # gets one masked selection per zeta
    import numpy as np

    ratio = (1.0 + dest) / (1.0 + eve)

    def rate(chosen_ratio):
        return np.maximum(np.log2(chosen_ratio), 0.0)

    rates: dict = {}  # (scheme, knowledge, zeta) -> rate array
    unmasked: dict = {}  # scheme -> that selection's rate and the gate draw of its link
    for cfg in cfgs:
        key = (cfg.scheme, cfg.knowledge, cfg.zeta)
        if key in rates:
            continue
        score = dest if cfg.scheme == "SS" else ratio
        if cfg.knowledge == "KA" and cfg.zeta < 1.0:
            on, any_on = masks[cfg.zeta]
            (chosen,) = _first_max(score, [ratio], on)
            rates[key] = np.where(any_on, rate(chosen), 0.0)
            continue
        if cfg.scheme not in unmasked:
            chosen, chosen_u = _first_max(score, [ratio, gate_u])
            unmasked[cfg.scheme] = rate(chosen), chosen_u
        on_rate, on_u = unmasked[cfg.scheme]
        rates[key] = on_rate if cfg.zeta == 1.0 else np.where(on_u < cfg.zeta, on_rate, 0.0)
    return [rates[cfg.scheme, cfg.knowledge, cfg.zeta] for cfg in cfgs]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    import numpy as np

    key = np.array([seed & _MASK64, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mc_moments(cfgs: Sequence[SystemConfig], trials: int, seed: int,
               threads: int = 1) -> list[tuple[MonteCarloEstimate, MonteCarloEstimate]]:
    """Simulated P(rate <= R_th) and mean rate of every config, in input order.

    Configs of one (K, N, M_D, M_E) shape share draws; every chunk of a shape
    comes from the stream a pass of its own would use, and only one shape's
    rate arrays are held at a time, so each pair is bit-identical to a pass
    over its config alone, for any mix of shapes and any thread count.
    """
    if trials < _MIN_TRIALS:
        raise ValueError(f"trials must be at least {_MIN_TRIALS} (got {trials})")
    import numpy as np

    groups: dict = {}  # shape -> indices of its configs
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_shape(cfg), []).append(i)
    sizes = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        sizes.append(trials % _CHUNK)

    def chunk_stats(index_size: tuple[int, int]) -> list[tuple[float, float, float]]:
        index, size = index_size
        stats = [None] * len(cfgs)
        for members in groups.values():
            group = tuple(cfgs[i] for i in members)
            for i, rates in zip(members, _rates_with_rng(group, _chunk_rng(seed, index), size)):
                outage = np.count_nonzero(rates <= cfgs[i].R_th)
                stats[i] = (float(outage), float(rates.sum()),
                            float((rates * rates).sum()))
        return stats

    jobs = list(enumerate(sizes))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # off the import path

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(chunk_stats, jobs))
    else:
        chunks = [chunk_stats(j) for j in jobs]

    n = float(trials)
    pairs = []
    for rows in zip(*chunks):  # one config's per-chunk sums, in chunk order
        outage_count = math.fsum(r[0] for r in rows)
        rate_sum = math.fsum(r[1] for r in rows)
        rate_sq_sum = math.fsum(r[2] for r in rows)

        p = outage_count / n
        var_p = max(0.0, (outage_count - outage_count * outage_count / n) / (n - 1.0))
        sop = MonteCarloEstimate(p, math.sqrt(var_p / n))

        mean = rate_sum / n
        var_r = max(0.0, (rate_sq_sum - rate_sum * rate_sum / n) / (n - 1.0))
        esr = MonteCarloEstimate(mean, math.sqrt(var_r / n))
        pairs.append((sop, esr))
    return pairs


def default_threads() -> int:
    """Monte Carlo worker threads: the CPUs this process may run on, at most 8.

    os.cpu_count() counts every CPU of the machine, which oversubscribes a
    process limited by an affinity mask (taskset, cgroup cpusets).
    """
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)

