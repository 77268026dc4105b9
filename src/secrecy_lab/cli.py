"""Sweep runner: JSON config in, deterministic CSV (and optional SVG) out.

Subcommands
    run       evaluate a sweep config and write a CSV
    compare   evaluate analytic values against both oracles and report
    selftest  run the built-in acceptance checks

A sweep config is a single JSON object:

    {
      "base": {"K": 2, "N": 2, "M_D": 2, "M_E": 2, "lambda_E_dB": 5.0,
               "zeta": 1.0, "R_th": 1.0, "scheme": "SS", "knowledge": "KA"},
      "sweep_axis": "lambda_D_dB",
      "axis_values": [0, 10, 20, 30],
      "variants": [{"scheme": "OS"}, {"K": 3, "knowledge": "KU"}],
      "outputs": ["sop_exact", "sop_asymptotic", "mc"],
      "trials": 1000000,
      "seed": 7
    }

dB values are converted to linear scale once at ingestion. Seed precedence:
--seed flag, then SECRECY_LAB_SEED, then the config value. One Monte Carlo
pass on --threads worker threads serves every row; rows are evaluated and
written in config order, with every float rendered at 17 significant
digits, so output bytes depend only on (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .channel import SystemConfig
from .esr import esr_asymptotic, esr_exact, esr_high_snr
from .oracles import (_MIN_TRIALS, ESR_AGREEMENT, SOP_AGREEMENT, default_threads,
                      mc_moments, quad_cdf_ratio, quad_esr)
from .sop import diversity_order, sop, sop_asymptotic

_AXES = ("lambda_D_dB",)
_ID_COLUMNS = ("variant_id", "scheme", "knowledge", "K", "N", "M_D", "M_E",
               "zeta", "lambda_D_dB", "lambda_E_dB", "R_th")
_OUTPUTS = ("sop_exact", "sop_asymptotic", "esr_exact", "esr_high_snr",
            "esr_asymptotic", "mc", "quad")
_VARIANT_KEYS = ("scheme", "knowledge", "K", "N", "M_D", "M_E", "zeta")
_BASE_KEYS = ("K", "N", "M_D", "M_E", "lambda_D_dB", "lambda_E_dB",
              "zeta", "R_th", "scheme", "knowledge")

# analytic-minus-oracle columns: name, analytic column, oracle column, and
# the oracle-agreement row the delta answers to
_DELTAS = (
    ("sop_exact_quad_delta", "sop_exact", "quad_sop", SOP_AGREEMENT),
    ("esr_exact_quad_delta", "esr_exact", "quad_esr", ESR_AGREEMENT),
    ("sop_exact_mc_delta", "sop_exact", "mc_sop", SOP_AGREEMENT),
    ("esr_exact_mc_delta", "esr_exact", "mc_esr", ESR_AGREEMENT),
)


class ConfigError(ValueError):
    """Schema violation; message starts with the offending field name."""


@dataclass(frozen=True)
class SweepSpec:
    base: SystemConfig
    axis_values: tuple[float, ...]
    variants: tuple[tuple[tuple[str, object], ...], ...]
    outputs: tuple[str, ...]
    trials: int
    seed: int

    def __post_init__(self):
        # checked here, so a seed from the flag or the environment and the
        # outputs that compare adds are checked like the config's own
        trials, seed = self.trials, self.seed
        if isinstance(trials, bool) or not isinstance(trials, int) or trials <= 0:
            raise ConfigError(f"trials: expected a positive integer (got {trials!r})")
        if "mc" in self.outputs and trials < _MIN_TRIALS:
            raise ConfigError(f"trials: Monte Carlo output needs at least "
                              f"{_MIN_TRIALS} (got {trials})")
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise ConfigError(f"seed: expected an unsigned 64-bit integer (got {seed!r})")

    def rows(self):
        """Yield (variant_id, config, axis_dB) in output order."""
        variant_maps = [dict(v) for v in self.variants] or [{}]
        for idx, overrides in enumerate(variant_maps):
            cfg = _apply_overrides(self.base, overrides)
            for i, db in enumerate(self.axis_values):
                lambda_D = _db_to_linear(db, f"axis_values[{i}]")
                yield f"v{idx}", replace(cfg, lambda_D=lambda_D), db


def _db_to_linear(db, field: str) -> float:
    # a finite dB value can still leave the double range in linear scale:
    # 10^(dB/10) overflows above about 3083 dB and is 0 below about -3233 dB
    db = _finite(db, field)
    try:
        value = 10.0 ** (db / 10.0)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{field}: expected a finite number with a positive, "
                          f"finite linear value (got {db!r} dB)")
    return value


def _linear_to_db(lam: float) -> float:
    return 10.0 * math.log10(lam)


def _apply_overrides(base: SystemConfig, overrides: dict) -> SystemConfig:
    try:
        return replace(base, **overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _require(mapping: dict, field: str, kinds, what: str):
    if field not in mapping:
        raise ConfigError(f"{field}: required field missing")
    value = mapping[field]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{field}: expected {what} (got {value!r})")
    return value


def _finite(value, field: str) -> float:
    # NaN fails the comparison; ints past the double range are caught before
    # float() overflows
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{field}: expected a finite number (got {value!r})")
    return float(value)


def parse_sweep_spec(doc: dict) -> SweepSpec:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = set(doc) - {"base", "sweep_axis", "axis_values", "variants",
                          "outputs", "trials", "seed"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown field")

    base_doc = _require(doc, "base", dict, "an object")
    for key in base_doc:
        if key not in _BASE_KEYS:
            raise ConfigError(f"base.{key}: unknown field")
    for field in ("K", "N", "M_D", "M_E"):
        _require(base_doc, field, int, "an integer")
    _require(base_doc, "lambda_E_dB", (int, float), "a number")
    kwargs = {
        "K": base_doc["K"], "N": base_doc["N"],
        "M_D": base_doc["M_D"], "M_E": base_doc["M_E"],
        # the sweep axis supplies lambda_D per row; a base value, if given,
        # only seeds the placeholder
        "lambda_D": _db_to_linear(base_doc.get("lambda_D_dB", 0.0), "lambda_D_dB"),
        "lambda_E": _db_to_linear(base_doc["lambda_E_dB"], "lambda_E_dB"),
        "zeta": _finite(base_doc.get("zeta", 1.0), "zeta"),
        "R_th": _finite(base_doc.get("R_th", 1.0), "R_th"),
        "scheme": base_doc.get("scheme", "SS"),
        "knowledge": base_doc.get("knowledge", "KA"),
    }
    try:
        base = SystemConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    axis = doc.get("sweep_axis", "lambda_D_dB")
    if axis not in _AXES:
        raise ConfigError(f"sweep_axis: must be one of {_AXES} (got {axis!r})")
    values = _require(doc, "axis_values", list, "a list of numbers")
    if not values:
        raise ConfigError("axis_values: must be nonempty")
    axis_values = []
    for i, value in enumerate(values):
        _db_to_linear(value, f"axis_values[{i}]")  # fail now, not mid-sweep
        axis_values.append(float(value))
    if any(b <= a for a, b in zip(axis_values, axis_values[1:])):
        raise ConfigError("axis_values: must be strictly increasing")

    variants_doc = doc.get("variants", [])
    if not isinstance(variants_doc, list):
        raise ConfigError("variants: expected a list of objects")
    variants = []
    for i, entry in enumerate(variants_doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"variants[{i}]: expected an object")
        for key, value in entry.items():
            if key not in _VARIANT_KEYS:
                raise ConfigError(f"variants[{i}].{key}: unknown override")
        overrides = dict(entry)
        if "zeta" in overrides:
            overrides["zeta"] = _finite(overrides["zeta"], f"variants[{i}].zeta")
        _apply_overrides(base, overrides)  # validate now, not mid-sweep
        variants.append(tuple(sorted(overrides.items())))

    outputs_doc = _require(doc, "outputs", list, "a list of output names")
    if not outputs_doc:
        raise ConfigError("outputs: must be nonempty")
    for name in outputs_doc:
        if name not in _OUTPUTS:
            raise ConfigError(f"outputs: unknown output {name!r}")
    outputs = tuple(n for n in _OUTPUTS if n in outputs_doc)

    return SweepSpec(base=base, axis_values=tuple(axis_values),
                     variants=tuple(variants), outputs=outputs,
                     trials=doc.get("trials", 1_000_000), seed=doc.get("seed", 0))


def load_sweep_spec(path: str) -> SweepSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_sweep_spec(doc)


def _columns(outputs) -> list[str]:
    oracle_columns = {"mc": ("mc_sop", "mc_sop_stderr", "mc_esr", "mc_esr_stderr"),
                      "quad": ("quad_sop", "quad_esr")}
    cols = list(_ID_COLUMNS)
    for name in outputs:  # in _OUTPUTS order
        cols += oracle_columns.get(name, (name,))
    return cols + [delta for delta, analytic, oracle, _tol in _DELTAS
                   if analytic in cols and oracle in cols]


def _evaluate_row(variant_id: str, cfg: SystemConfig, axis_db: float,
                  spec: SweepSpec) -> dict:
    """Identity, closed-form and quadrature cells of one row."""
    row = {
        "variant_id": variant_id, "scheme": cfg.scheme,
        "knowledge": cfg.knowledge, "K": cfg.K, "N": cfg.N,
        "M_D": cfg.M_D, "M_E": cfg.M_E, "zeta": cfg.zeta,
        "lambda_D_dB": axis_db, "lambda_E_dB": _linear_to_db(cfg.lambda_E),
        "R_th": cfg.R_th,
    }
    outputs = spec.outputs
    if "sop_exact" in outputs:
        row["sop_exact"] = sop(cfg).value
    if "sop_asymptotic" in outputs:
        row["sop_asymptotic"] = sop_asymptotic(cfg).value
    if "esr_exact" in outputs:
        row["esr_exact"] = esr_exact(cfg).value
    if "esr_high_snr" in outputs:
        row["esr_high_snr"] = esr_high_snr(cfg).value
    if "esr_asymptotic" in outputs:
        row["esr_asymptotic"] = esr_asymptotic(cfg).value
    if "quad" in outputs:
        row["quad_sop"] = quad_cdf_ratio(cfg.rho(), cfg)
        row["quad_esr"] = quad_esr(cfg)
    return row


def _format_cell(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ArithmeticError(f"non-finite value {value!r} in output row")
        return format(value, ".17g")
    return str(value)


def evaluate_sweep(spec: SweepSpec, threads: int) -> list[dict]:
    """All rows in config order; one Monte Carlo pass on `threads` workers."""
    jobs = list(spec.rows())
    mc = [()] * len(jobs)
    if "mc" in spec.outputs:
        mc = mc_moments([cfg for _vid, cfg, _db in jobs], spec.trials, spec.seed, threads)
    rows = []
    for (vid, cfg, db), estimates in zip(jobs, mc):
        try:
            row = _evaluate_row(vid, cfg, db, spec)
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"row {vid} ({cfg.scheme}/{cfg.knowledge} K={cfg.K} N={cfg.N} "
                f"M_D={cfg.M_D} M_E={cfg.M_E} zeta={cfg.zeta:g} "
                f"lambda_D={cfg.lambda_D:g}): {exc}") from exc
        for name, est in zip(("mc_sop", "mc_esr"), estimates):
            row[name], row[f"{name}_stderr"] = est.mean, est.stderr
        for delta, analytic, oracle, _tol in _DELTAS:
            if analytic in row and oracle in row:
                row[delta] = row[analytic] - row[oracle]
        rows.append(row)
    return rows


def write_csv(rows: list[dict], outputs, out_path: str) -> None:
    cols = _columns(outputs)
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in cols))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _where(row: dict) -> str:
    return f"{row['variant_id']} lambda_D_dB={row['lambda_D_dB']:g}"


def _row_failures(row: dict, spec: SweepSpec) -> list[str]:
    failures = []
    for delta, analytic, oracle, agreement in _DELTAS:
        if delta not in row:
            continue
        tol = (agreement.mc_tol(row[f"{oracle}_stderr"], spec.trials)
               if oracle.startswith("mc_") else agreement.quad_tol)
        if abs(row[delta]) > tol:
            failures.append(f"{_where(row)}: |{analytic} - {oracle}| = "
                            f"{abs(row[delta]):.3e} > {tol:.3e}")
    return failures


def _tolerance_failures(rows: list[dict], spec: SweepSpec) -> list[str]:
    return [line for row in rows for line in _row_failures(row, spec)]


def _svg_for_variant(variant_id: str, rows: list[dict], outputs) -> str:
    """Polyline chart of each requested value column against the sweep axis."""
    width, height, margin = 640, 420, 50
    series_cols = [c for c in _columns(outputs) if c not in _ID_COLUMNS
                   and not c.endswith("_stderr") and not c.endswith("_delta")]
    xs = [row["lambda_D_dB"] for row in rows]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    values = [row[c] for row in rows for c in series_cols]
    y_lo, y_hi = min(values), max(values)
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f", "#bcbd22")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">lambda_D_dB</text>',
        f'<text x="{margin}" y="{margin - 16}" font-size="12">{variant_id}'
        f' (y range {y_lo:.3g} to {y_hi:.3g})</text>',
    ]
    for i, col in enumerate(series_cols):
        color = palette[i % len(palette)]
        points = " ".join(f"{px(row['lambda_D_dB']):.2f},{py(row[col]):.2f}"
                          for row in rows)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{width - margin + 4}" '
                     f'y="{margin + 14 * i}" font-size="11" '
                     f'fill="{color}">{col}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svgs(rows: list[dict], outputs, svg_dir: str) -> list[str]:
    os.makedirs(svg_dir, exist_ok=True)
    written = []
    by_variant: dict[str, list[dict]] = {}
    for row in rows:
        by_variant.setdefault(row["variant_id"], []).append(row)
    for variant_id, variant_rows in by_variant.items():
        path = os.path.join(svg_dir, f"{variant_id}.svg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_svg_for_variant(variant_id, variant_rows, outputs))
        written.append(path)
    return written


def _resolve_seed(spec: SweepSpec, flag_seed) -> SweepSpec:
    if flag_seed is not None:
        return replace(spec, seed=flag_seed)
    env = os.environ.get("SECRECY_LAB_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"seed: SECRECY_LAB_SEED must be an integer "
                              f"(got {env!r})") from exc
        return replace(spec, seed=value)
    return spec


def _cmd_run(args) -> int:
    spec = _resolve_seed(load_sweep_spec(args.config), args.seed)
    rows = evaluate_sweep(spec, args.threads)
    write_csv(rows, spec.outputs, args.out)
    if args.svg:
        for path in write_svgs(rows, spec.outputs, args.svg):
            print(f"wrote {path}")
    print(f"wrote {args.out} ({len(rows)} rows)")
    failures = _tolerance_failures(rows, spec)
    for line in failures:
        print(f"tolerance: {line}", file=sys.stderr)
    if failures and args.strict:
        return 1
    return 0


def _diversity_report(spec: SweepSpec, rows: list[dict]) -> list[str]:
    """Measured outage decay per decade next to the design order K*M_D."""
    lines = []
    if len(spec.axis_values) < 2:
        return lines
    db_lo, db_hi = spec.axis_values[-2], spec.axis_values[-1]
    sop_at = {(row["variant_id"], row["lambda_D_dB"]): row["sop_exact"] for row in rows}
    for variant_id, cfg, db in spec.rows():
        lo, hi = sop_at[variant_id, db_lo], sop_at[variant_id, db_hi]
        if db != db_lo or cfg.zeta != 1.0 or lo <= 0.0 or hi <= 0.0:
            continue
        decades = (db_hi - db_lo) / 10.0
        slope = math.log10(lo / hi) / decades
        order = diversity_order(cfg)
        lines.append(f"diversity {variant_id}: measured slope {slope:.4f} "
                     f"per decade, K*M_D = {order}")
    return lines


def _cmd_compare(args) -> int:
    spec = _resolve_seed(load_sweep_spec(args.config), args.seed)
    # comparison needs the analytic values and both oracles regardless of
    # what the config asked to tabulate
    needed = {"sop_exact", "esr_exact", "mc", "quad"}
    spec = replace(spec, outputs=tuple(n for n in _OUTPUTS
                                       if n in (set(spec.outputs) | needed)))
    rows = evaluate_sweep(spec, args.threads)
    failures = _tolerance_failures(rows, spec)
    max_sop_quad = max(abs(r["sop_exact_quad_delta"]) for r in rows)
    max_esr_quad = max(abs(r["esr_exact_quad_delta"]) for r in rows)
    max_sop_z = max(SOP_AGREEMENT.mc_z(r["sop_exact_mc_delta"], r["mc_sop_stderr"],
                                       spec.trials) for r in rows)
    max_esr_z = max(ESR_AGREEMENT.mc_z(r["esr_exact_mc_delta"], r["mc_esr_stderr"],
                                       spec.trials) for r in rows)
    for row in rows:
        status = "FAIL" if _row_failures(row, spec) else "ok"
        print(f"{_where(row)}: sop_exact={row['sop_exact']:.6e} "
              f"|d_quad|={abs(row['sop_exact_quad_delta']):.2e} "
              f"|d_mc|={abs(row['sop_exact_mc_delta']):.2e} "
              f"esr_exact={row['esr_exact']:.6f} "
              f"|d_quad|={abs(row['esr_exact_quad_delta']):.2e} "
              f"|d_mc|={abs(row['esr_exact_mc_delta']):.2e} {status}")
    for line in _diversity_report(spec, rows):
        print(line)
    for line in failures:
        print(f"tolerance: {line}", file=sys.stderr)
    summary = {
        "rows": len(rows),
        "failures": len(failures),
        "max_sop_quad_delta": max_sop_quad,
        "max_esr_quad_delta": max_esr_quad,
        "max_sop_mc_z": max_sop_z,
        "max_esr_mc_z": max_esr_z,
        "passed": not failures,
    }
    print("SUMMARY " + json.dumps(summary, sort_keys=True))
    return 0 if not failures else 1


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(quick=args.quick)
    for result in results:
        print(result.line())
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _thread_count(text: str) -> int:
    # below 1 is a usage error rather than a silent serial run
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer (got {text!r})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrecy-lab",
        description="Secrecy outage and ergodic secrecy rate sweeps with "
                    "oracle cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    threads_help = ("Monte Carlo worker threads (default: the CPUs this "
                    "process may run on, at most 8)")
    run_p = sub.add_parser("run", help="evaluate a sweep config and write CSV")
    run_p.add_argument("--config", required=True, help="path to JSON sweep config")
    run_p.add_argument("--out", required=True, help="path of the CSV to write")
    run_p.add_argument("--strict", action="store_true",
                       help="exit nonzero if any oracle tolerance fails")
    run_p.add_argument("--threads", type=_thread_count, default=default_threads(),
                       help=threads_help)
    run_p.add_argument("--seed", type=int, default=None,
                       help="override config and SECRECY_LAB_SEED")
    run_p.add_argument("--svg", metavar="DIR",
                       help="also write one SVG line chart per variant")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare",
                           help="analytic vs quadrature and Monte Carlo report")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--threads", type=_thread_count, default=default_threads(),
                       help=threads_help)
    cmp_p.add_argument("--seed", type=int, default=None)
    cmp_p.set_defaults(func=_cmd_compare)

    self_p = sub.add_parser("selftest", help="run the acceptance checks")
    self_p.add_argument("--quick", action="store_true",
                        help="reduced grids and trials")
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
