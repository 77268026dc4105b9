"""Self-contained acceptance checks: one named check per contract criterion.

Every check returns a CheckResult and never raises on a numeric miss; the
detail string carries the worst offending configuration so a failure is
diagnosable from the one-line report. Monte Carlo passes and closed forms
are cached per config and shared between checks; each quadrature value is
read by one check only. One fixed seed gives common random numbers across
grid rows, so MC-backed comparisons of neighboring rows are pathwise
consistent, and one Monte Carlo pass serves every grid row.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

from .channel import SystemConfig
from .esr import _kernel, esr_asymptotic, esr_exact, esr_high_snr
from .oracles import (ESR_AGREEMENT, SOP_AGREEMENT, _mc_moments_many, default_threads,
                      quad_cdf_ratio, quad_esr)
from .sop import diversity_order, sop, sop_asymptotic
from .specialfn import (
    exp_integral,
    log_upper_incomplete_gamma_int,
    upper_incomplete_gamma_int,
)

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


def _db(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


_MC_PAIRS: dict = {}  # (config, trials) -> (outage, rate) estimates


def _mc_pair(cfg: SystemConfig, quick: bool):
    # one pass fills every grid row that is not cached yet
    trials = QUICK_TRIALS if quick else FULL_TRIALS
    if (cfg, trials) not in _MC_PAIRS:
        rows = [c for c in _sop_grid(quick) if (c, trials) not in _MC_PAIRS]
        if cfg not in rows:
            rows.append(cfg)
        pairs = _mc_moments_many(tuple(rows), trials, ACCEPT_SEED, threads=_THREADS)
        _MC_PAIRS.update(((c, trials), pair) for c, pair in zip(rows, pairs))
    return _MC_PAIRS[(cfg, trials)]


@lru_cache(maxsize=None)
def _sop_closed(cfg: SystemConfig) -> float:
    return sop(cfg).value


@lru_cache(maxsize=None)
def _esr_closed(cfg: SystemConfig) -> float:
    return esr_exact(cfg).value


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


def check_asymptotic_floors(quick: bool = False) -> CheckResult:
    """Outage floor at 60 dB equals the all-backhaul-down probability."""
    worst = 0.0
    worst_cfg = None
    ks = (1, 2) if quick else (1, 2, 3)
    for zeta, K, scheme, N, knowledge in product(
            (0.5, 0.9), ks, ("SS", "OS"), (1, 3), ("KA", "KU")):
        cfg = SystemConfig(K=K, N=N, M_D=2, M_E=2, lambda_D=1e6,
                           lambda_E=_LAMBDA_E, zeta=zeta, R_th=1.0,
                           scheme=scheme, knowledge=knowledge)
        gap = abs(_sop_closed(cfg) - sop_asymptotic(cfg).value)
        if gap > worst:
            worst, worst_cfg = gap, cfg
    passed = worst <= 1e-3
    return CheckResult(
        name="asymptotic outage floors",
        passed=passed,
        detail=f"max |sop - floor| = {worst:.3e} (tol 1e-03) at {_brief(worst_cfg)}")


def check_diversity_order(quick: bool = False) -> CheckResult:
    """log10 outage slope across 50 -> 60 dB equals K*M_D within 5 percent."""
    worst_rel = 0.0
    worst_cfg = None
    pairs = ((1, 1), (1, 2), (2, 1)) if quick else ((1, 1), (1, 2), (2, 1), (2, 2))
    for (K, M_D), scheme in product(pairs, ("SS", "OS")):
        base = SystemConfig(K=K, N=2, M_D=M_D, M_E=2, lambda_D=1e5,
                            lambda_E=_LAMBDA_E, zeta=1.0, R_th=1.0,
                            scheme=scheme, knowledge="KA")
        p50 = _sop_closed(base)
        p60 = _sop_closed(replace(base, lambda_D=1e6))
        slope = math.log10(p50 / p60)
        order = diversity_order(base)
        rel = abs(slope - order) / order
        if rel > worst_rel:
            worst_rel, worst_cfg = rel, base
    passed = worst_rel <= 0.05
    return CheckResult(
        name="secrecy diversity order",
        passed=passed,
        detail=f"max slope error = {worst_rel:.2%} (tol 5%) at {_brief(worst_cfg)}")


def _triple_oracle(quick: bool, name: str, grid, closed_form, quad, which: int,
                   agreement, closed_label: str, mc_label: str) -> CheckResult:
    # closed form vs quadrature and vs the MC estimate `which` of the pair
    trials = QUICK_TRIALS if quick else FULL_TRIALS
    worst_quad = worst_mc = 0.0
    worst_quad_cfg = worst_mc_cfg = None
    for rows, cfg in enumerate(grid(quick), start=1):
        closed = closed_form(cfg)
        gap_q = abs(closed - quad(cfg))
        if gap_q > worst_quad:
            worst_quad, worst_quad_cfg = gap_q, cfg
        est = _mc_pair(cfg, quick)[which]
        excess = abs(closed - est.mean) - agreement.mc_tol(est.stderr, trials)
        if excess > worst_mc:
            worst_mc, worst_mc_cfg = excess, cfg
    return CheckResult(
        name=name,
        passed=worst_quad <= agreement.quad_tol and worst_mc <= 0.0,
        detail=(f"{rows} rows; max |{closed_label}-quad| = {worst_quad:.3e} "
                f"(tol {agreement.quad_tol:.0e}) at {_brief(worst_quad_cfg)}; "
                f"max MC excess{mc_label} = {max(0.0, worst_mc):.3e} at {_brief(worst_mc_cfg)}"))


def check_sop_triple_oracle(quick: bool = False) -> CheckResult:
    """Outage closed form vs quadrature and vs MC over the grid."""
    return _triple_oracle(quick, "outage triple-oracle agreement", _sop_grid, _sop_closed,
                          lambda cfg: quad_cdf_ratio(cfg.rho(), cfg), 0, SOP_AGREEMENT,
                          "closed", " beyond 3-sigma")


def check_esr_triple_oracle(quick: bool = False) -> CheckResult:
    """Exact rate vs quadrature and vs MC on K, N <= 2."""
    return _triple_oracle(quick, "rate triple-oracle agreement", _esr_grid, _esr_closed,
                          quad_esr, 1, ESR_AGREEMENT, "exact", "")


def check_ku_identities(quick: bool = False) -> CheckResult:
    """Gate-after-selection in the MC: 1-z+z*F for outage, z-scaling for rate.

    The simulation selects first and then gates the chosen link, while the
    closed forms and the quadrature restate F_KU = 1-z+z*F_on, so this check
    reads the simulation alone. The always-on row (zeta = 1, KA) of each KU
    row is a grid row of the same shape, and both share draws. Their gap is
    mean((g - z)(1 - o_on)) over the gates g, with variance
    z(1-z)(1-p_on)/n, at most the KU estimate's own, so 3 KU standard
    errors bound it conservatively.
    """
    worst_z = worst_gap = 0.0
    worst_what = "n/a"
    rows = 0
    for cfg in _sop_grid(quick):
        if cfg.knowledge != "KU":
            continue
        rows += 1
        on = _mc_pair(replace(cfg, zeta=1.0, knowledge="KA"), quick)
        ku = _mc_pair(cfg, quick)
        for what, est, gated in (
                ("outage", ku[0], 1.0 - cfg.zeta + cfg.zeta * on[0].mean),
                ("rate", ku[1], cfg.zeta * on[1].mean)):
            gap = abs(est.mean - gated)
            z = gap / est.stderr if est.stderr > 0.0 else (math.inf if gap else 0.0)
            if z > worst_z:
                worst_z, worst_gap, worst_what = z, gap, f"{what} at {_brief(cfg)}"
    passed = worst_z <= 3.0
    return CheckResult(
        name="gate-after-selection identities",
        passed=passed,
        detail=(f"{rows} KU rows vs their gated always-on rows, Monte Carlo; "
                f"max deviation = {worst_gap:.3e} ({worst_z:.2f} sigma, tol 3) "
                f"in {worst_what}"))


def check_degeneracies(quick: bool = False) -> CheckResult:
    """K=1 collapses scheme and knowledge choices; zeta=0 is total outage."""
    worst = 0.0
    worst_what = ""
    lams = ((1.0, 100.0) if not quick else (10.0,))
    for N, M_D, M_E, zeta, lam_d in product((1, 3), (1, 2), (1, 2),
                                            (0.6, 1.0), lams):
        base = SystemConfig(K=1, N=N, M_D=M_D, M_E=M_E, lambda_D=lam_d,
                            lambda_E=_LAMBDA_E, zeta=zeta, R_th=1.0,
                            scheme="SS", knowledge="KA")
        variants = [replace(base, scheme=s, knowledge=k)
                    for s in ("SS", "OS") for k in ("KA", "KU")]
        sops = [_sop_closed(c) for c in variants]
        esrs = [_esr_closed(c) for c in variants]
        spread_s = (max(sops) - min(sops)) / max(max(sops), 1e-300)
        spread_e = (max(esrs) - min(esrs)) / max(max(esrs), 1e-300)
        if spread_s > worst:
            worst, worst_what = spread_s, f"outage spread at {_brief(base)}"
        if spread_e > worst:
            worst, worst_what = spread_e, f"rate spread at {_brief(base)}"
    zero = SystemConfig(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0,
                        lambda_E=_LAMBDA_E, zeta=0.0, R_th=1.0,
                        scheme="OS", knowledge="KU")
    exact_zero = _sop_closed(zero) == 1.0 and _esr_closed(zero) == 0.0
    passed = worst <= 1e-12 and exact_zero
    detail = f"max K=1 spread = {worst:.3e} (tol 1e-12); {worst_what}"
    if not exact_zero:
        detail += "; zeta=0 did not give outage 1 / rate 0 exactly"
    return CheckResult(name="degenerate-parameter collapses", passed=passed,
                       detail=detail)


def check_esr_fidelity(quick: bool = False) -> CheckResult:
    """High-SNR rate gap at the pinned config, asymptotic slope, N-independence."""
    cfg = SystemConfig(K=2, N=2, M_D=2, M_E=2, lambda_D=1e3,
                       lambda_E=10.0 ** 0.9, zeta=1.0, R_th=1.0,
                       scheme="SS", knowledge="KA")
    gap = abs(esr_high_snr(cfg).value - _esr_closed(cfg))
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
    passed = gap <= 0.05 and slope_ok
    return CheckResult(
        name="high-SNR / asymptotic rate fidelity",
        passed=passed,
        detail=(f"|high_snr - exact| = {gap:.4f} bpcu (tol 0.05) at {_brief(cfg)}; "
                + "; ".join(slope_detail)))


def check_orderings(quick: bool = False) -> CheckResult:
    """Scheme and knowledge orderings, closed form and MC, over the grid."""
    slack = 1e-9
    worst = 0.0
    worst_what = ""
    for cfg in _sop_grid(quick):
        if cfg.scheme == "SS":
            other = replace(cfg, scheme="OS")
            gap = _sop_closed(other) - _sop_closed(cfg)  # OS <= SS
            if gap > worst:
                worst, worst_what = gap, f"outage OS>SS at {_brief(cfg)}"
            e_gap = _esr_closed(cfg) - _esr_closed(other)  # OS >= SS
            if e_gap > worst:
                worst, worst_what = e_gap, f"rate SS>OS at {_brief(cfg)}"
            m_self, m_other = _mc_pair(cfg, quick)[0], _mc_pair(other, quick)[0]
            mc_gap = (m_other.mean - m_self.mean
                      - 3.0 * math.hypot(m_self.stderr, m_other.stderr))
            if mc_gap > worst:
                worst, worst_what = mc_gap, f"MC outage OS>SS at {_brief(cfg)}"
            e_self, e_other = _mc_pair(cfg, quick)[1], _mc_pair(other, quick)[1]
            mc_e_gap = (e_self.mean - e_other.mean
                        - 3.0 * math.hypot(e_self.stderr, e_other.stderr))
            if mc_e_gap > worst:
                worst, worst_what = mc_e_gap, f"MC rate SS>OS at {_brief(cfg)}"
        if cfg.knowledge == "KA":
            gated = replace(cfg, knowledge="KU")
            gap = _sop_closed(cfg) - _sop_closed(gated)  # KA <= KU
            if gap > worst:
                worst, worst_what = gap, f"outage KA>KU at {_brief(cfg)}"
            m_ka, m_ku = _mc_pair(cfg, quick)[0], _mc_pair(gated, quick)[0]
            mc_gap = (m_ka.mean - m_ku.mean
                      - 3.0 * math.hypot(m_ka.stderr, m_ku.stderr))
            if mc_gap > worst:
                worst, worst_what = mc_gap, f"MC outage KA>KU at {_brief(cfg)}"
    passed = worst <= slack
    return CheckResult(
        name="scheme and knowledge orderings",
        passed=passed,
        detail=f"max ordering violation = {worst:.3e} (slack 1e-09); {worst_what or 'none'}")


def check_special_functions(quick: bool = False) -> CheckResult:
    """Gamma recurrence, tail-integral bounds, kernel-vs-quadrature identity."""
    from scipy.integrate import quad

    worst = 0.0
    worst_what = ""
    # recurrence Gamma(s+1,x) = s Gamma(s,x) + x^s e^(-x) across orders
    for s in range(-5, 6):
        for x in (0.01, 0.1, 1.0, 10.0, 50.0):
            lhs = upper_incomplete_gamma_int(s + 1, x)
            rhs = s * upper_incomplete_gamma_int(s, x) + x ** s * math.exp(-x)
            rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
            if rel > worst:
                worst, worst_what = rel, f"gamma recurrence s={s} x={x}"
    if worst > 1e-12:
        return CheckResult("special-function suite", False,
                           f"recurrence deviation {worst:.3e} at {worst_what}")
    # the same recurrence on the log form the kernels call, relative to its
    # condition bound: kappa = (|s G(s,x)| + x^s e^-x) / G(s+1,x) amplifies
    # the inputs' relative errors, and exp(ln G) carries about |ln G| ulps
    log_worst = 0.0
    for s in range(-5, 6):
        for x in (0.01, 0.1, 1.0, 10.0, 50.0):
            log_lo = log_upper_incomplete_gamma_int(s, x)
            log_hi = log_upper_incomplete_gamma_int(s + 1, x)
            lo, hi, tail = math.exp(log_lo), math.exp(log_hi), x ** s * math.exp(-x)
            kappa = (abs(s * lo) + tail) / hi
            bound = kappa * max(1.0, abs(log_lo), abs(log_hi)) * math.ulp(1.0)
            ratio = abs(hi - (s * lo + tail)) / hi / bound
            if ratio > log_worst:
                log_worst, worst_what = ratio, f"log-form gamma recurrence s={s} x={x}"
    if log_worst > _LOG_GAMMA_RECURRENCE_C:
        return CheckResult("special-function suite", False,
                           f"log-form recurrence deviation {log_worst:.2f} x its condition "
                           f"bound (tol {_LOG_GAMMA_RECURRENCE_C:g}) at {worst_what}")
    # tail-integral bounds e^-x/(x+n) <= E_n(x) <= e^-x/(x+n-1), monotone in n
    bound_worst = 0.0
    for n in range(1, 7):
        for x in (0.05, 0.5, 1.0, 5.0, 30.0):
            val = exp_integral(n, x)
            lo = math.exp(-x) / (x + n)
            hi = math.exp(-x) / (x + n - 1)
            if not (lo <= val <= hi):
                bound_worst = max(bound_worst,
                                  max(lo - val, val - hi) / max(val, 1e-300))
                worst_what = f"tail-integral bound n={n} x={x}"
            if exp_integral(n + 1, x) > val:
                bound_worst = max(bound_worst, exp_integral(n + 1, x) - val)
                worst_what = f"tail-integral monotonicity n={n} x={x}"
    if bound_worst > 0.0:
        return CheckResult("special-function suite", False,
                           f"bound violation {bound_worst:.3e} at {worst_what}")
    # kernels against quadrature of their defining integrals
    rng = random.Random(ACCEPT_SEED)
    kernel_worst = 0.0
    for _ in range(10 if quick else 20):
        cfg = SystemConfig(K=3, N=3, M_D=2, M_E=2,
                           lambda_D=rng.uniform(0.5, 200.0),
                           lambda_E=rng.uniform(0.5, 8.0),
                           zeta=1.0, R_th=1.0, scheme="SS", knowledge="KA")
        theta = rng.randint(0, 4)
        k = rng.randint(1, 3)
        n = rng.randint(0, 2)
        # the SS recipes put the pole at (n+1)/k times lambda_D/lambda_E,
        # the OS recipes at n+1 times it
        for scheme, pole in (("SS", (n + 1) * cfg.lambda_D / (k * cfg.lambda_E)),
                             ("OS", (n + 1) * cfg.lambda_D / cfg.lambda_E)):
            a = k / cfg.lambda_D
            closed = _kernel(a, pole, theta)
            # pure relative tolerance: these integrals can sit near 1e-12
            # where scipy's default absolute floor would swamp the comparison
            est, _ = quad(lambda x: math.exp(-a * x) / (x + pole) ** (theta + 1),
                          1.0, math.inf, limit=800, epsabs=0.0, epsrel=1e-12)
            rel = abs(closed - est) / max(abs(est), 1e-300)
            if rel > kernel_worst:
                kernel_worst, worst_what = rel, (
                    f"{scheme}-pole kernel theta={theta} k={k} n={n}")
    passed = kernel_worst <= 1e-9
    return CheckResult(
        name="special-function suite",
        passed=passed,
        detail=(f"recurrence <= 1e-12, log-form recurrence <= {log_worst:.2f} x its "
                f"condition bound (tol {_LOG_GAMMA_RECURRENCE_C:g}), bounds hold, max "
                f"kernel-vs-quadrature rel = {kernel_worst:.3e} (tol 1e-09) at {worst_what}"))


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
