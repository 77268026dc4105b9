"""Ground-truth engines: a link-level Monte Carlo simulator and adaptive
quadrature of the defining integrals. Both are independent of the closed
forms and are used to certify every analytic output.

Monte Carlo determinism: trials are split into fixed 65536-trial chunks and
each chunk gets its own counter-based (Philox) stream keyed by (seed, chunk
index). Per-chunk reductions happen inside the chunk and the cross-chunk
reduction runs in chunk order, so the estimate is bit-identical for any
worker count. The draws depend only on (K, N, M_D, M_E), so configs of one
such shape share draws and still get the bits of a pass of their own. A
shape's stream opens with its destination draw, which depends on (K, M_D)
alone: shapes of one such family share it, drawn once per chunk, and each
shape restores the generator's state from just after it before making its
own eavesdropper and gate draws, which are then the values of its own
stream.

Monte Carlo reductions: numpy's pairwise sum adds a run of fewer than 8
elements one by one from 0.0, so a path sum over fewer than 8 paths is a
left fold of whole-array adds over the path slices, with ndarray.sum's
bits; 8 or more paths keep ndarray.sum. The eavesdropper maximum is an
np.maximum fold over the N slices, exact in any order. A run of more than
128 elements is split at n2 = n//2 - (n//2 mod 8), and the halves' sums
are added. A chunk's selections run per leaf of that tree, splitting the
chunk the same way until a block holds at most _LEAF trials; each block's
rate sum and sum of squares are ndarray sums, added back up the tree, so
each equals ndarray.sum over the whole chunk's rates, bit for bit (tests
check this on lengths either side of the leaf size). Outage counts are
integers and add exactly.

Monte Carlo selection: each of a chunk's draws is reduced to one contiguous
row per link, a (K, trials) array, before the next draw is made. A shape's
configs are grouped by (lambda_D, lambda_E); a group builds its ratios and
per-link rates max(log2(ratio), 0) once per block, for both schemes. The
log2 is taken once per link, over the block's contiguous (K, trials) array,
and the selections gather rates instead of ratios. numpy's log2 gives an element
the same bits wherever it sits in an array (tests check this across SIMD
tails), so every rate array has the bits of a per-config argmax over links
followed by log2 of the chosen ratio. A selection scans the links in order,
picking link k where its score beats the best so far by a strict >, which
keeps np.argmax's first maximum on ties. It then gathers the picked entries
by flat index (pick * trials + trial) instead of blending rows with
np.where, whose branch per element a random mask mispredicts. OS selects
first, on the ratio rows; SS then selects on the destination SNRs
lambda_D * dest_sum, the product the ratio's numerator was built from. Per
scheme, KA rows below zeta = 1 get one masked selection per zeta, in which
an off link scores -inf, below every score, so a trial with every link off
picks link 0 and transmits nothing. The unmasked selection ignores the gates
and runs once: KU rows below zeta = 1 gate its pick, and rows at zeta = 1
take its rate, KU and KA alike, because every gate draw lies in [0, 1) and
so every link is on. With K = 1 there is nothing to select: both schemes
share the one pick, and a KA row below zeta = 1 is the KU row at its zeta.

Monte Carlo gates and masks: every use of a gate draw is the comparison
gate_u < zeta, so right after each block of the draw a chunk fills one bool
(K, trials) mask per distinct zeta below 1 among its configs, and drops the
block. A KU row gathers its mask at the unmasked pick. Every score is +0.0
or more, and every rate +0.0 or more, +inf where a destination SNR
overflows, or NaN where two overflowed SNRs meet in a ratio. A gate keeps a
rate where its link is on and gives +0.0 elsewhere, as a bitwise and of the
rate's bits with all-ones or zero words: exact for every float, where a
product with the 0/1 mask would turn inf * 0 into NaN. A masked selection
scans the unmasked scores and folds its mask into the scan: link k >= 1 is
picked only where it is on, since an off link's -inf beats nothing, and only
the best so far is masked, one (trials,) row at a time, as an int64 minimum
of the score's bits with -inf's bits at off links and the largest int64 at
on links; read as int64, the bits of every score are at least -inf's, so the
minimum is -inf or the score itself. Both give np.where's bits without its
branches, and no masked copy of the (K, trials) scores is made.

Monte Carlo memory: only three kinds of array span the whole chunk: its
family's destination sums, and one shape's eavesdropper maxima and gate
masks, each a (K, trials) row per link. Every draw is made in blocks of
_DRAW_BLOCK trials, each block's path sums (and eavesdropper maximum)
folded straight into the rows, and each gate block compared into the
masks: the stream is trial-major, so consecutive draws of (b, ...) give
the values of one (trials, ...) draw. Ratios, scores, link rates, picks and
rates are built per leaf block of at most _LEAF trials (see "Monte Carlo
reductions"), each block's gate masks copied out contiguous. Within a
block, one (lambda_D, lambda_E) group's arrays are alive at a time, and
one score at a time within it: the ratio rows are dropped before SS forms
its destination SNRs. Each selection's rate array is reduced to its
statistics (outage count per threshold, sum, sum of squares) as soon as
it is made, and dropped before the next one is built; rows that share a
selection share its array and its statistics. A scheme's masked
selections run before its unmasked one, whose pick is alive through no
other selection.

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
integral over Y at each outer node x. That survival falls off around the
ratio's knee, lambda_D over one plus the eavesdropper scale, which lies far
inside the outer scale when lambda_D >> lambda_E; QUADPACK gets
breakpoints at 1/4, 1, 4 and 16 knees, as the single integral gets them at
1 and 16 eavesdropper scales, so it splits the range there instead of
bisecting its way toward the knee.

Quadrature sharing: a KU row gates its always-on KA row, which is a row of
its own in most sweeps, so the KA value of each oracle (the rate, and the
eavesdropper average inside the outage CDF) is memoized per config and
point. Under OS that average is one link's and reads neither K nor zeta, so
it is keyed by the one-link law (K = 1, zeta = 1), which rows of every K and
zeta share. Under OS with K >= 2 the inner integral depends on x, (M_D,
lambda_D) and the eavesdropper law only. Rows that agree there and share K
and lambda_E (and so the outer map) meet the same x, and the first row's
inner value serves the others. QUADPACK is deterministic and every input of
each integral is in its key, the tolerances and subdivision limit among
them, so a stored value is the exact float a fresh quadrature would return:
every result is bit-identical to one computed on empty tables, in any row
order. The eavesdropper density is likewise stored per node. Each memo is a
bounded lru_cache keyed by what its values depend on, so evicting an entry
moves no bit either.

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
_DRAW_BLOCK = 4096  # trials per block of a draw (see "Monte Carlo memory")
_LEAF = 16384  # most trials per selection block (see "Monte Carlo reductions")
_MIN_TRIALS = 10_000
_LN2 = math.log(2.0)

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
        try:
            value, err = quadpack("_qagpe", mapped, 0.0, 1.0, np.concatenate((inner, (0.0, 0.0))),
                                  (), 0, _ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS)
        except ValueError as exc:  # ier 6: a subdivision limit below the breakpoints
            raise QuadratureError(f"{len(inner)} breakpoints: {exc}", math.nan, math.nan) from exc
    if err > max(_ABS_TOL, _REL_TOL * abs(value)) * 1.01:
        raise QuadratureError("tail quadrature failed to reach tolerance", value, err)
    return value


def _quad_settings() -> tuple[float, float, int]:
    # what every QUADPACK value depends on besides its integrand: part of
    # each value memo's key, so a changed setting is a fresh quadrature
    return _ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS


def _breakpoints(scale: float, outer: float, multiples: tuple[float, ...]) -> list[float] | None:
    # the u of t = m*scale on the map t = -outer*log(1-u), for each multiple
    # m whose t lies below the outer scale; None, for _quad_unit, if none does
    ratio = scale / outer
    return [-math.expm1(-m * ratio) for m in multiples if m * ratio < 1.0] or None


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


# Value memos of the KA quadratures, which each KU row gates (see "Quadrature
# sharing"): the _VALUES_MAX most recently used values are kept
_VALUES_MAX = 256


@lru_cache(maxsize=_VALUES_MAX)
def _ka_cdf_integral(x: float, cfg: SystemConfig, *settings) -> float:
    # the eavesdropper average of a KA row's CDF at x; `settings` is
    # _quad_settings(), in the key only
    return _quad_unit(_eve_integrand(x, cfg, survival=False))


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
    # under OS one link's average is read, which reads neither K nor zeta
    law = replace(cfg, K=1, zeta=1.0) if cfg.scheme == "OS" else cfg
    value = _ka_cdf_integral(x, law, *_quad_settings())
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
def _survival_table(M_D: int, lambda_D: float, N: int, M_E: int, lambda_E: float,
                    *settings) -> dict:
    """Inner survival integrals x -> value of the OS rate of one family:
    (M_D, lambda_D) and the eavesdropper law (see the module docstring).

    `settings` is _quad_settings(), in the key only. Each value is the
    single-link integral as QUADPACK returns it, clamped where it is read.
    """
    return {}


def _os_survival(cfg: SystemConfig):
    """x -> 1 - F(x) under OS, each inner integral computed once per family and x.

    The survival probability is its own integral (no 1 - (1 - eps) loss),
    because the ESR integrand weights the far tail logarithmically.
    """
    K, gate = cfg.K, cfg.zeta
    table = _survival_table(cfg.M_D, cfg.lambda_D, cfg.N, cfg.M_E, cfg.lambda_E,
                            *_quad_settings())

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
    # outer tail mapped like the inner one, x - 1 = -scale*log(1-u). The
    # survival falls off around the ratio's knee lambda_D/(1 + eavesdropper
    # scale), far inside the outer scale when lambda_D >> lambda_E, so
    # QUADPACK gets breakpoints at 1/4, 1, 4 and 16 knees inside the outer one
    scale = _outer_scale(cfg)
    survival = _os_survival(cfg)
    knee = cfg.lambda_D / (_eve_scale(cfg) + 1.0)
    points = _breakpoints(knee, scale, (0.25, 1.0, 4.0, 16.0))

    def mapped(u: float) -> float:
        if u >= 1.0:
            return 0.0
        t = -scale * math.log1p(-u)
        x = 1.0 + t
        return survival(x) / x * scale / (1.0 - u)

    return _quad_unit(mapped, points) / _LN2


def _single_esr(cfg: SystemConfig) -> float:
    # the single integral of a KA row whose X and Y are independent. The
    # integrand turns on at the eavesdropper scale; where that lies below
    # the outer one (far below when lambda_D >> lambda_E), QUADPACK gets
    # breakpoints at t = 1 and 16 eavesdropper scales inside the outer one
    scale = _outer_scale(cfg)
    points = _breakpoints(_eve_scale(cfg), scale, (1.0, 16.0))
    return _quad_unit(_rate_integrand(cfg, scale), points) / _LN2


@lru_cache(maxsize=_VALUES_MAX)
def _ka_esr(cfg: SystemConfig, *settings) -> float:
    # quad_esr of a KA row; `settings` is _quad_settings(), in the key only
    if cfg.scheme == "OS" and cfg.K > 1:
        return _nested_esr(cfg)
    return _single_esr(cfg)


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
    return _ka_esr(cfg, *_quad_settings())


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


def _link_rows(rng: np.random.Generator, count: int, K: int, paths: int,
               branches: int = 1):
    """The C-contiguous (K, count) rows of each link's largest of `branches`
    sums of `paths` unit exponentials, drawn as one trial-major
    (count, K, branches, paths) draw in blocks of _DRAW_BLOCK trials, each
    block folded into the rows (see "Monte Carlo memory").

    Scaling by lambda > 0 is monotone under rounding, so the scaled maximum
    over branches equals the maximum of the scaled sums; a maximum is exact
    in any order.
    """
    import numpy as np

    rows = np.empty((K, count))
    for start in range(0, count, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, count - start)
        sums = _path_sum(rng.standard_exponential((size, K, branches, paths)))
        top = sums[..., 0]  # overwritten by the fold, as nothing reads it again
        for n in range(1, branches):
            np.maximum(top, sums[..., n], out=top)
        rows[:, start:start + size] = top.T
        del sums, top
    return rows


def _rates_with_rng(cfgs: tuple[SystemConfig, ...], rng: np.random.Generator, count: int,
                    dest_sum) -> list[tuple[float, float, float]]:
    """(outage count, rate sum, sum of squares) of every config over one chunk.

    The configs share (K, N, M_D, M_E) and one set of draws; the rest of each
    config is applied to the unit-scale draws afterwards, so every config's
    statistics are bit-identical to those of a draw made for it alone. Draw
    order is part of the reproducibility contract: destination SNRs, then
    eavesdropper SNRs, then backhaul gates. `dest_sum` is the destination
    draw's (K, count) rows (see `_link_rows`), with `rng` just past it. The
    selections run per leaf block of the pairwise tree (see "Monte Carlo
    reductions"), and each selection's rate array is reduced before the next
    one is built.
    """
    import numpy as np

    K, N, _M_D, M_E = _shape(cfgs[0])
    eve_max = _link_rows(rng, count, K, M_E, N)
    gates = _gate_masks(rng, count, cfgs)
    # every selection's flat indices, made after the draws are folded; one
    # link needs none (see _first_max)
    trial = np.arange(min(count, _LEAF)) if K > 1 else None

    groups: dict = {}  # (lambda_D, lambda_E) -> {selection: indices of its configs}
    for i, cfg in enumerate(cfgs):
        groups.setdefault((cfg.lambda_D, cfg.lambda_E), {}).setdefault(
            _selection(cfg), []).append(i)

    def leaf(start: int, stop: int):
        # the configs' statistics over trials start..stop, one row each
        block = slice(start, stop)
        on = {zeta: np.ascontiguousarray(mask[:, block]) for zeta, mask in gates.items()}
        picks = None if trial is None else trial[:stop - start]
        stats = np.empty((len(cfgs), 3))
        for selections in groups.values():
            group = [cfgs[i] for rows in selections.values() for i in rows]
            for key, rate in _group_rates(group, dest_sum[:, block], eve_max[:, block], on,
                                          picks):
                rows = selections[key]
                at = _rate_stats(rate, {cfgs[i].R_th for i in rows})
                del rate  # before the next selection is built
                for i in rows:
                    stats[i] = at[cfgs[i].R_th]
        return stats

    return [tuple(map(float, row)) for row in _pairwise(leaf, 0, count)]


def _pairwise(leaf, start: int, count: int):
    """leaf(start, stop) of the leaves of numpy's pairwise-sum tree over
    `count` elements from `start`, added back up the tree.

    numpy's pairwise sum splits a run of more than 128 elements at
    n2 = n//2 - (n//2 mod 8) and adds the two halves' sums. A run of at most
    _LEAF elements is one leaf here, so where leaf returns ndarray sums over
    its run of one array, the result is that array's sum, bit for bit (see
    "Monte Carlo reductions").
    """
    if count <= _LEAF:
        return leaf(start, start + count)
    half = count // 2 - count // 2 % 8
    return _pairwise(leaf, start, half) + _pairwise(leaf, start + half, count - half)


def _gate_masks(rng: np.random.Generator, count: int, cfgs) -> dict:
    """zeta -> the links on, u < zeta, as C-contiguous (K, count) bool rows,
    for each zeta below 1 among cfgs; u is the trial-major (count, K) gate
    draw, made in blocks of _DRAW_BLOCK trials. Every use of a gate draw is
    that comparison."""
    import numpy as np

    K = cfgs[0].K
    masks = {zeta: np.empty((K, count), dtype=bool)
             for zeta in dict.fromkeys(cfg.zeta for cfg in cfgs if cfg.zeta < 1.0)}
    for start in range(0, count, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, count - start)
        gate_u = rng.random((size, K)).T
        for zeta, mask in masks.items():
            np.less(gate_u, zeta, out=mask[:, start:start + size])
    return masks


def _first_max(score, trial, on=None):
    """Per trial, the flat index pick * trials + trial of the first link of
    maximal score, or None with one link, where row 0 is every pick; with
    `on`, that of np.where(on, score, -inf), bit for bit. `trial` is the
    block's np.arange(trials), None with one link.

    Rows are links, each array C-contiguous (K, trials). A link is picked
    where its score beats the best so far by a strict >, which keeps
    np.argmax's first maximum on ties. The best so far is the score at the
    pick, gathered by its flat index, and is not needed after the last link.
    With `on`, link k >= 1 is picked where it is on as well: an off link's
    -inf beats nothing. Only the best so far is masked, so link 0 off, or a
    pick of it, leaves -inf there; a later pick is on.
    """
    import numpy as np

    K, count = score.shape
    if K == 1:
        return None
    best, index = score[0] if on is None else _masked(score[0], on[0]), None
    for k in range(1, K):
        better = score[k] > best
        if on is not None:
            better &= on[k]
        link = better * (k * count)
        link += trial
        # link k lies past every earlier pick, so the larger flat index wins
        index = link if index is None else np.maximum(index, link, out=link)
        if k < K - 1:
            best = score.ravel().take(index)
            if on is not None:
                best = _masked(best, on.ravel().take(index))
    return index


def _at(rows, index):
    # each trial's entry of C-contiguous (K, trials) rows at its pick's flat
    # index from _first_max
    return rows[0] if index is None else rows.ravel().take(index)


# the bits of -inf read as an int64, and the largest int64
_NEG_INF_WORD = -(1 << 52)
_MAX_WORD = (1 << 63) - 1


def _masked(score, on):
    """np.where(on, score, -inf), bit for bit, for one row of scores.

    Read as int64, the bits of every score (+0.0 or more, or NaN of either
    sign) are at least those of -inf, and no int64 exceeds _MAX_WORD, so a
    minimum with -inf's bits at off links and _MAX_WORD at on links yields
    -inf or the score's own bits. The minimum is taken in the array of those
    words.
    """
    import numpy as np

    words = np.negative(on, dtype=np.int64)  # all ones at on links
    words &= _MAX_WORD ^ _NEG_INF_WORD
    words ^= _NEG_INF_WORD
    np.minimum(score.view(np.int64), words, out=words)
    return words.view(np.float64)


def _gated(rate, on):
    """`rate` where `on` is set and +0.0 elsewhere, bit for bit as
    np.where(on, rate, 0.0), as a bitwise and with all-ones or zero words.

    Exact for every float, infinities and NaN included, and free of
    np.where's branch per element, which a random mask mispredicts.
    """
    import numpy as np

    words = np.negative(on, dtype=np.int64)
    words &= rate.view(np.int64)
    return words.view(np.float64)


def _selection(cfg: SystemConfig) -> tuple[str, str, float]:
    # (scheme, knowledge, zeta) of the selection a config's rates come from.
    # With one link there is nothing to select: both schemes pick it, and a
    # KA row's "some link is on" is the KU row's "the picked link is on", so
    # every K = 1 row is the SS KU row at its zeta, bit for bit. At zeta = 1
    # every gate draw is on, so KU is KA there
    scheme, knowledge = ("SS", "KU") if cfg.K == 1 else (cfg.scheme, cfg.knowledge)
    return scheme, "KA" if cfg.zeta == 1.0 else knowledge, cfg.zeta


def _group_rates(cfgs: list, dest_sum, eve_max, gates: dict, trial):
    """Yield (selection, per-trial rates) once per distinct selection (see
    `_selection`) of configs that share lambda_D and lambda_E.

    dest_sum and eve_max are a block's unit-scale link rows, each a
    (K, trials) array, and `gates` its links on per zeta below 1 as C-contiguous
    (K, trials) bool rows (see `_gate_masks`); `trial` is the block's
    np.arange(trials), shared by every selection, or None with one link (see
    `_first_max`). Per scheme, KA below zeta = 1 gets one masked selection per
    zeta, and then one unmasked selection serves KA at zeta = 1 and KU at
    every zeta. Each link's rate is taken once, and the selections gather
    rates. Each array is yielded as soon as it is made and dropped before the
    next is built; OS runs first, on the ratio rows, which are dropped before
    SS forms its destination SNRs.
    """
    import numpy as np

    lambda_D = cfgs[0].lambda_D
    # (1 + dest)/(1 + eve), formed in the scaled eavesdropper array
    score = eve_max * cfgs[0].lambda_E
    score += 1.0
    dest = dest_sum * lambda_D
    dest += 1.0
    np.divide(dest, score, out=score)
    del dest
    link_rates = np.log2(score)
    np.maximum(link_rates, 0.0, out=link_rates)

    selections = dict.fromkeys(_selection(cfg) for cfg in cfgs)
    for scheme in ("OS", "SS"):
        keys = [key for key in selections if key[0] == scheme]
        if not keys:
            continue
        if scheme == "SS":
            del score  # the ratio rows, before the same destination SNRs are formed
            score = dest_sum * lambda_D
        masked_keys = [key for key in keys if key[1] == "KA" and key[2] < 1.0]
        for key in masked_keys:
            on = gates[key[2]]
            chosen = _at(link_rates, _first_max(score, trial, on))
            # a trial with every link off picks link 0 and transmits nothing
            rate = _gated(chosen, on.any(axis=0))
            del chosen
            yield key, rate
            del rate
        index = on_rate = None  # the unmasked pick and its rates
        for key in keys:
            if key in masked_keys:
                continue
            if on_rate is None:
                index = _first_max(score, trial)
                on_rate = _at(link_rates, index)
            zeta = key[2]
            rate = on_rate if zeta == 1.0 else _gated(on_rate, _at(gates[zeta], index))
            yield key, rate
            del rate
        del index, on_rate


def _rate_stats(rate, thresholds) -> dict:
    """R_th -> (outage count, rate sum, sum of squares) of one rate array."""
    import numpy as np

    total, squares = float(rate.sum()), float((rate * rate).sum())
    return {r_th: (float(np.count_nonzero(rate <= r_th)), total, squares)
            for r_th in thresholds}


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    import numpy as np

    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mc_moments(cfgs: Sequence[SystemConfig], trials: int, seed: int,
               threads: int = 1) -> list[tuple[MonteCarloEstimate, MonteCarloEstimate]]:
    """Simulated P(rate <= R_th) and mean rate of every config, in input order.

    Configs of one (K, N, M_D, M_E) shape share draws, and shapes of one
    (K, M_D) family share each chunk's destination draw; every chunk of a shape
    comes from the stream a pass of its own would use, its selections run per
    leaf of numpy's pairwise-sum tree, whose sums add back up to the whole
    chunk's, and each selection's rate array is reduced before the next is
    built, so each pair is bit-identical to a pass over its config alone, for
    any mix of shapes and any thread count. `trials` must be an int of at
    least 10000, `seed` an unsigned 64-bit int and `threads` a positive int;
    anything else raises ValueError naming the argument. A config whose rate
    sum or sum of squares is not finite raises ArithmeticError naming it.
    """
    for name, value, low in (("trials", trials, _MIN_TRIALS), ("threads", threads, 1)):
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"{name}: expected an integer of at least {low} (got {value!r})")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed: expected an unsigned 64-bit integer (got {seed!r})")

    families: dict = {}  # (K, M_D) -> {shape: indices of its configs}
    for i, cfg in enumerate(cfgs):
        families.setdefault((cfg.K, cfg.M_D), {}).setdefault(_shape(cfg), []).append(i)
    sizes = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        sizes.append(trials % _CHUNK)

    def chunk_stats(index_size: tuple[int, int]) -> list[tuple[float, float, float]]:
        index, size = index_size
        stats = [None] * len(cfgs)
        for (K, M_D), shapes in families.items():
            # every shape's stream opens with the family's destination draw
            rng = _chunk_rng(seed, index)
            dest_sum = _link_rows(rng, size, K, M_D)
            after_dest = rng.bit_generator.state
            for members in shapes.values():
                rng.bit_generator.state = after_dest
                group = tuple(cfgs[i] for i in members)
                for i, stat in zip(members, _rates_with_rng(group, rng, size, dest_sum)):
                    stats[i] = stat
            del dest_sum  # before the next family's rows are drawn
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
    for cfg, rows in zip(cfgs, zip(*chunks)):  # one config's per-chunk sums, in chunk order
        outage_count = math.fsum(r[0] for r in rows)
        rate_sum = math.fsum(r[1] for r in rows)
        rate_sq_sum = math.fsum(r[2] for r in rows)
        if not (math.isfinite(rate_sum) and math.isfinite(rate_sq_sum)):
            raise ArithmeticError(f"Monte Carlo rate of {cfg!r}: rate sum {rate_sum!r}, sum of "
                                  f"squares {rate_sq_sum!r}; a simulated SNR overflows")

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

