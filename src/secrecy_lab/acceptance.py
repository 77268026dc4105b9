"""Self-contained acceptance checks: one named check per contract criterion.

One driver, `_check`, turns each check body's (passed, detail) into a
CheckResult, and turns an ArithmeticError raised by a closed form into that
check's FAIL with a "numeric error" detail, so the report always has one line
per criterion. The detail string carries the worst offending configuration,
picked by one reducer (`_worst`, the first maximum), so a failure is
diagnosable from the one-line report. Closed forms are cached per config and
shared between checks; each quadrature value is read by one check only. One
Monte Carlo pass with one fixed seed estimates every grid row (`_mc_table`):
common random numbers across rows, so MC-backed comparisons of neighboring
rows are pathwise consistent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache, wraps
from itertools import chain, product
from operator import itemgetter

from .channel import SystemConfig
from .esr import _log_stieltjes, esr_asymptotic, esr_exact, esr_high_snr
from .oracles import (ESR_AGREEMENT, SOP_AGREEMENT, default_threads, mc_moments,
                      quad_cdf_ratio, quad_esr, quadpack)
from .sop import diversity_order, sop, sop_asymptotic
from .specialfn import exp_integral, log_upper_incomplete_gamma_int

ACCEPT_SEED = 20260815  # fixed: common random numbers across grid rows
FULL_TRIALS = 1_000_000
QUICK_TRIALS = 100_000

_THREADS = default_threads()
_LAMBDA_E = 10.0 ** 0.5  # 5 dB
# criterion 9: a budget of c = 6 ulps of max(1, |ln G|) per logarithm, plus
# about 2 ulps for the exp, the tail's pow and exp and the sum, on both
# sides, gives |deviation| / G(s+1,x) <= 2 (c + 2) kappa max(1, |ln G|) eps.
# That budget is not proven for every (s, x): in effect C is a 4x margin
# over the grid's worst point (4.2), while a wrong order misses by O(1)
_LOG_GAMMA_RECURRENCE_C = 16.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def _check(name: str):
    """Make a check from a body returning (passed, detail); numeric errors FAIL it."""
    def decorate(body):
        @wraps(body)
        def check(quick: bool = False) -> CheckResult:
            try:
                passed, detail = body(quick)
            except ArithmeticError as exc:
                passed, detail = False, f"numeric error: {exc}"
            return CheckResult(name=name, passed=passed, detail=detail)
        return check
    return decorate


def _worst(pairs):
    """The first (value, label) pair of greatest value, (0.0, None) if none exceeds 0."""
    return max(chain([(0.0, None)], pairs), key=itemgetter(0))


def _db(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


@lru_cache(maxsize=None)
def _mc_table(quick: bool) -> dict:
    """Monte Carlo (outage, rate) estimates of every grid row, from one pass."""
    rows = tuple(_sop_grid(quick))
    trials = QUICK_TRIALS if quick else FULL_TRIALS
    return dict(zip(rows, mc_moments(rows, trials, ACCEPT_SEED, threads=_THREADS)))


# The checks read each row's outage several times (768 hits in the quick
# gate): without this cache its checks take about 10 ms (15%) longer once
# the oracles are warm. Rates need none, as esr._ka_rate caches them.
@lru_cache(maxsize=None)
def _sop_closed(cfg: SystemConfig) -> float:
    return sop(cfg).value


def _sop_grid(quick: bool):
    ks = (1, 2) if quick else (1, 2, 3)
    ns = (1, 2) if quick else (1, 2, 3)
    zetas = (0.5, 1.0) if quick else (0.5, 0.9, 1.0)
    dbs = (0.0, 20.0) if quick else (0.0, 10.0, 20.0, 30.0)
    for K, N, M_D, M_E, zeta, db, scheme, knowledge in product(
            ks, ns, (1, 2), (1, 2), zetas, dbs, ("SS", "OS"), ("KA", "KU")):
        yield SystemConfig(K=K, N=N, M_D=M_D, M_E=M_E, lambda_D=_db(db),
                           lambda_E=_LAMBDA_E, zeta=zeta, R_th=1.0,
                           scheme=scheme, knowledge=knowledge)


def _esr_grid(quick: bool):
    for cfg in _sop_grid(quick):
        if cfg.K <= 2 and cfg.N <= 2:
            yield cfg


@_check("asymptotic outage floors")
def check_asymptotic_floors(quick: bool = False):
    """Outage floor at 60 dB equals the all-backhaul-down probability."""
    ks = (1, 2) if quick else (1, 2, 3)
    cfgs = (SystemConfig(K=K, N=N, M_D=2, M_E=2, lambda_D=1e6, lambda_E=_LAMBDA_E,
                         zeta=zeta, R_th=1.0, scheme=scheme, knowledge=knowledge)
            for zeta, K, scheme, N, knowledge in product(
                (0.5, 0.9), ks, ("SS", "OS"), (1, 3), ("KA", "KU")))
    worst, cfg = _worst((abs(_sop_closed(c) - sop_asymptotic(c).value), c) for c in cfgs)
    return worst <= 1e-3, f"max |sop - floor| = {worst:.3e} (tol 1e-03) at {_brief(cfg)}"


@_check("secrecy diversity order")
def check_diversity_order(quick: bool = False):
    """log10 outage slope across 50 -> 60 dB equals K*M_D within 5 percent."""
    pairs = ((1, 1), (1, 2), (2, 1)) if quick else ((1, 1), (1, 2), (2, 1), (2, 2))

    def slope_errors():
        for (K, M_D), scheme in product(pairs, ("SS", "OS")):
            base = SystemConfig(K=K, N=2, M_D=M_D, M_E=2, lambda_D=1e5,
                                lambda_E=_LAMBDA_E, zeta=1.0, R_th=1.0,
                                scheme=scheme, knowledge="KA")
            slope = math.log10(_sop_closed(base) / _sop_closed(replace(base, lambda_D=1e6)))
            order = diversity_order(base)
            yield abs(slope - order) / order, base
    worst, cfg = _worst(slope_errors())
    return worst <= 0.05, f"max slope error = {worst:.2%} (tol 5%) at {_brief(cfg)}"


def _triple_oracle(quick: bool, grid, closed_form, quad, which: int, agreement,
                   closed_label: str, mc_label: str):
    # closed form vs quadrature and vs the MC estimate `which` of the pair
    trials = QUICK_TRIALS if quick else FULL_TRIALS
    rows, mc = list(grid(quick)), _mc_table(quick)
    worst_quad, quad_cfg = _worst((abs(closed_form(c) - quad(c)), c) for c in rows)
    worst_mc, mc_cfg = _worst(
        (abs(closed_form(c) - mc[c][which].mean)
         - agreement.mc_tol(mc[c][which].stderr, trials), c) for c in rows)
    return (worst_quad <= agreement.quad_tol and worst_mc <= 0.0,
            f"{len(rows)} rows; max |{closed_label}-quad| = {worst_quad:.3e} "
            f"(tol {agreement.quad_tol:.0e}) at {_brief(quad_cfg)}; "
            f"max MC excess{mc_label} = {worst_mc:.3e} at {_brief(mc_cfg)}")


@_check("outage triple-oracle agreement")
def check_sop_triple_oracle(quick: bool = False):
    """Outage closed form vs quadrature and vs MC over the grid."""
    return _triple_oracle(quick, _sop_grid, _sop_closed,
                          lambda cfg: quad_cdf_ratio(cfg.rho(), cfg), 0, SOP_AGREEMENT,
                          "closed", " beyond 3-sigma")


@_check("rate triple-oracle agreement")
def check_esr_triple_oracle(quick: bool = False):
    """Exact rate vs quadrature and vs MC on K, N <= 2."""
    return _triple_oracle(quick, _esr_grid, lambda cfg: esr_exact(cfg).value, quad_esr, 1,
                          ESR_AGREEMENT, "exact", "")


@_check("gate-after-selection identities")
def check_ku_identities(quick: bool = False):
    """Gate-after-selection in the MC: 1-z+z*F for outage, z-scaling for rate.

    The simulation selects first and then gates the chosen link, while the
    closed forms and the quadrature restate F_KU = 1-z+z*F_on, so this check
    reads the simulation alone. The always-on row (zeta = 1, KA) of each KU
    row is a grid row of the same shape, and both share draws. Their gap is
    mean((g - z)(1 - o_on)) over the gates g, with variance
    z(1-z)(1-p_on)/n, at most the KU estimate's own, so 3 KU standard
    errors bound it conservatively.
    """
    mc = _mc_table(quick)
    ku_rows = [cfg for cfg in _sop_grid(quick) if cfg.knowledge == "KU"]

    def deviations():
        for cfg in ku_rows:
            on, ku = mc[replace(cfg, zeta=1.0, knowledge="KA")], mc[cfg]
            for what, est, gated in (
                    ("outage", ku[0], 1.0 - cfg.zeta + cfg.zeta * on[0].mean),
                    ("rate", ku[1], cfg.zeta * on[1].mean)):
                gap = abs(est.mean - gated)
                z = gap / est.stderr if est.stderr > 0.0 else (math.inf if gap else 0.0)
                yield z, (gap, f"{what} at {_brief(cfg)}")
    worst_z, hit = _worst(deviations())
    worst_gap, worst_what = hit or (0.0, "n/a")
    return worst_z <= 3.0, (
        f"{len(ku_rows)} KU rows vs their gated always-on rows, Monte Carlo; "
        f"max deviation = {worst_gap:.3e} ({worst_z:.2f} sigma, tol 3) in {worst_what}")


@_check("degenerate-parameter collapses")
def check_degeneracies(quick: bool = False):
    """K=1 collapses scheme and knowledge choices; zeta=0 is total outage."""
    lams = ((1.0, 100.0) if not quick else (10.0,))

    def spreads():
        for N, M_D, M_E, zeta, lam_d in product((1, 3), (1, 2), (1, 2), (0.6, 1.0), lams):
            base = SystemConfig(K=1, N=N, M_D=M_D, M_E=M_E, lambda_D=lam_d,
                                lambda_E=_LAMBDA_E, zeta=zeta, R_th=1.0,
                                scheme="SS", knowledge="KA")
            variants = [replace(base, scheme=s, knowledge=k)
                        for s in ("SS", "OS") for k in ("KA", "KU")]
            for what, closed in (("outage", _sop_closed), ("rate", lambda c: esr_exact(c).value)):
                values = [closed(c) for c in variants]
                yield ((max(values) - min(values)) / max(max(values), 1e-300),
                       f"{what} spread at {_brief(base)}")
    worst, worst_what = _worst(spreads())
    zero = SystemConfig(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0,
                        lambda_E=_LAMBDA_E, zeta=0.0, R_th=1.0,
                        scheme="OS", knowledge="KU")
    exact_zero = _sop_closed(zero) == 1.0 and esr_exact(zero).value == 0.0
    detail = f"max K=1 spread = {worst:.3e} (tol 1e-12); {worst_what or ''}"
    if not exact_zero:
        detail += "; zeta=0 did not give outage 1 / rate 0 exactly"
    return worst <= 1e-12 and exact_zero, detail


@_check("high-SNR / asymptotic rate fidelity")
def check_esr_fidelity(quick: bool = False):
    """High-SNR rate gap at the pinned config, its asymptote's offset at
    lambda_D = 1e5, asymptotic slope, N-independence."""
    cfg = SystemConfig(K=2, N=2, M_D=2, M_E=2, lambda_D=1e3,
                       lambda_E=10.0 ** 0.9, zeta=1.0, R_th=1.0,
                       scheme="SS", knowledge="KA")
    gap = abs(esr_high_snr(cfg).value - esr_exact(cfg).value)
    far = replace(cfg, lambda_D=1e5)
    offset = abs(esr_high_snr(far).value - esr_asymptotic(far).value)
    slope_ok = True
    slope_detail = []
    for scheme in ("SS", "OS"):
        slopes = {}
        for N in (1, 2, 3):
            c_lo = replace(cfg, scheme=scheme, N=N, lambda_D=1e4)
            c_hi = replace(cfg, scheme=scheme, N=N, lambda_D=1e5)
            slopes[N] = esr_asymptotic(c_hi).value - esr_asymptotic(c_lo).value
        err = abs(slopes[2] - math.log2(10.0))
        n_spread = abs(slopes[1] - slopes[3])
        slope_ok = slope_ok and err <= 1e-2 and n_spread <= 1e-2
        slope_detail.append(f"{scheme}: slope err {err:.1e}, N-spread {n_spread:.1e}")
    return gap <= 0.05 and offset <= 1e-9 and slope_ok, (
        f"|high_snr - exact| = {gap:.4f} bpcu (tol 0.05) at {_brief(cfg)}; "
        f"|high_snr - asymptotic| = {offset:.1e} (tol 1e-09) at lam_D=1e+05; "
        + "; ".join(slope_detail))


def _mc_excess(gap: float, a, b) -> float:
    # a gap between MC means beyond 3 combined standard errors of a and b
    return gap - 3.0 * math.hypot(a.stderr, b.stderr)


@_check("scheme and knowledge orderings")
def check_orderings(quick: bool = False):
    """Scheme and knowledge orderings, closed form and MC, over the grid."""
    mc = _mc_table(quick)

    def violations():
        for cfg in _sop_grid(quick):
            at = f" at {_brief(cfg)}"
            row = mc[cfg]
            if cfg.scheme == "SS":
                other = replace(cfg, scheme="OS")
                yield _sop_closed(other) - _sop_closed(cfg), "outage OS>SS" + at  # OS <= SS
                yield (esr_exact(cfg).value - esr_exact(other).value,
                       "rate SS>OS" + at)  # OS >= SS
                os_ = mc[other]
                yield (_mc_excess(os_[0].mean - row[0].mean, row[0], os_[0]),
                       "MC outage OS>SS" + at)
                yield (_mc_excess(row[1].mean - os_[1].mean, row[1], os_[1]),
                       "MC rate SS>OS" + at)
            if cfg.knowledge == "KA":
                gated = replace(cfg, knowledge="KU")
                yield _sop_closed(cfg) - _sop_closed(gated), "outage KA>KU" + at  # KA <= KU
                ku = mc[gated]
                yield (_mc_excess(row[0].mean - ku[0].mean, row[0], ku[0]),
                       "MC outage KA>KU" + at)
    worst, worst_what = _worst(violations())
    return worst <= 1e-9, (f"max ordering violation = {worst:.3e} (slack 1e-09); "
                           f"{worst_what or 'none'}")


@_check("special-function suite")
def check_special_functions(quick: bool = False):
    """Gamma recurrence, tail-integral bounds, kernel-vs-quadrature identity."""
    grid = list(product(range(-5, 6), (0.01, 0.1, 1.0, 10.0, 50.0)))

    def log_recurrence():
        # Gamma(s+1,x) = s Gamma(s,x) + x^s e^(-x) across orders, on the log
        # form the kernels call, relative to its condition bound: kappa =
        # (|s G(s,x)| + x^s e^-x) / G(s+1,x) amplifies the inputs' relative
        # errors, and exp(ln G) carries about |ln G| ulps
        for s, x in grid:
            log_lo = log_upper_incomplete_gamma_int(s, x)
            log_hi = log_upper_incomplete_gamma_int(s + 1, x)
            lo, hi, tail = math.exp(log_lo), math.exp(log_hi), x ** s * math.exp(-x)
            kappa = (abs(s * lo) + tail) / hi
            bound = kappa * max(1.0, abs(log_lo), abs(log_hi)) * math.ulp(1.0)
            yield (abs(hi - (s * lo + tail)) / hi / bound,
                   f"log-form gamma recurrence s={s} x={x}")
    log_worst, worst_what = _worst(log_recurrence())
    if log_worst > _LOG_GAMMA_RECURRENCE_C:
        return False, (f"log-form recurrence deviation {log_worst:.2f} x its condition "
                       f"bound (tol {_LOG_GAMMA_RECURRENCE_C:g}) at {worst_what}")

    def tail_bounds():
        # e^-x/(x+n) <= E_n(x) <= e^-x/(x+n-1), monotone in n; each figure
        # is positive exactly when its inequality fails
        for n, x in product(range(1, 7), (0.05, 0.5, 1.0, 5.0, 30.0)):
            val = exp_integral(n, x)
            lo, hi = math.exp(-x) / (x + n), math.exp(-x) / (x + n - 1)
            yield (max(lo - val, val - hi) / max(val, 1e-300),
                   f"tail-integral bound n={n} x={x}")
            yield exp_integral(n + 1, x) - val, f"tail-integral monotonicity n={n} x={x}"
    bound_worst, worst_what = _worst(tail_bounds())
    if bound_worst > 0.0:
        return False, f"bound violation {bound_worst:.3e} at {worst_what}"
    rng = random.Random(ACCEPT_SEED)

    def kernel_errors():
        # the rate kernel, integral_0^inf t^p e^(-at)/(1+t) dt, against
        # quadrature of its definition, at a = k/lambda_D + n/lambda_E with
        # p, k, n and lambda_D (up to criterion 7's 50 dB) covering the
        # gate's rows
        for _ in range(10 if quick else 20):
            lam_d, lam_e = 10.0 ** rng.uniform(-0.3, 5.0), rng.uniform(0.5, 8.0)
            p, k, n = rng.randint(0, 6), rng.randint(1, 3), rng.randint(0, 2)
            a = k / lam_d + n / lam_e
            closed = math.exp(_log_stieltjes(p, a)[0])
            # in u = a t, where the integrand peaks near u = p whatever a is.
            # Pure relative tolerance: the integrals span many decades, where
            # scipy's default absolute floor would swamp the comparison.
            # _qagie on [0, inf) is the call quad(f, 0, inf, limit=800,
            # epsabs=0, epsrel=1e-12) makes
            est, _ = quadpack("_qagie", lambda u: u ** p * math.exp(-u) / (a + u),
                              0.0, 1, (), 0, 0.0, 1e-12, 800)
            est /= a ** p
            yield (abs(closed - est) / max(abs(est), 1e-300),
                   f"kernel p={p} k={k} n={n} a={a:.4g}")
    kernel_worst, worst_what = _worst(kernel_errors())
    return kernel_worst <= 1e-9, (
        f"log-form recurrence <= {log_worst:.2f} x its "
        f"condition bound (tol {_LOG_GAMMA_RECURRENCE_C:g}), bounds hold, max "
        f"kernel-vs-quadrature rel = {kernel_worst:.3e} (tol 1e-09) at {worst_what}")


_CHECKS = (
    check_asymptotic_floors,
    check_diversity_order,
    check_sop_triple_oracle,
    check_esr_triple_oracle,
    check_ku_identities,
    check_degeneracies,
    check_esr_fidelity,
    check_orderings,
    check_special_functions,
)


def run_all(quick: bool = False) -> list[CheckResult]:
    """Run the nine acceptance checks in contract order."""
    return [check(quick=quick) for check in _CHECKS]


def _brief(cfg: SystemConfig | None) -> str:
    if cfg is None:
        return "n/a"
    return (f"{cfg.scheme}/{cfg.knowledge} K={cfg.K} N={cfg.N} "
            f"M_D={cfg.M_D} M_E={cfg.M_E} zeta={cfg.zeta:g} "
            f"lam_D={cfg.lambda_D:g} lam_E={cfg.lambda_E:g}")
