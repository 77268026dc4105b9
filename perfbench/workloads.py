"""The benchmark's workloads and the checks applied to each call's output.

An operation is one sweep row or one acceptance check. A call's outcome
sorts every operation into one of three groups:

* ``failed``: the row is missing because the call aborted, or a value is
  non-finite, out of range, or off its committed quadrature reference by
  more than the CLI's own tolerance; for the gate, a ``[FAIL]`` line, or
  every check when the ``N/M checks passed`` line is missing. Only these
  make a run incorrect.
* ``known``: a failure that ``reference.json`` lists for this commit's
  program (ROADMAP item 1's OS, M >= 3 exact-rate error and the
  criterion-7 gate check). They stay counted and printed, so a fix shows as
  a drop in ``failed_frac``; a listed cell that now passes is simply ok.
* ok: everything else.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# the CLI's own comparison gates (secrecy_lab.cli._SOP_QUAD_TOL, _ESR_QUAD_TOL)
SOP_TOL = 1e-6
ESR_TOL = 1e-5

ROW_KEYS = ("scheme", "knowledge", "K", "N", "M_D", "M_E", "zeta", "lambda_D_dB")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None  # sweep config in configs/, None for the gate
    ops: int            # operations one call attempts

    def cli_args(self, out_csv: str) -> list[str]:
        if self.config is None:
            return ["selftest", "--quick"]
        return ["run", "--config", os.path.join(CONFIG_DIR, self.config),
                "--out", out_csv, "--threads", "1"]


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("gate_quick", None, 9),
    Workload("closed_ladder", "closed_ladder.json", 13),
)}


@dataclass
class Outcome:
    attempted: int
    failed: dict = field(default_factory=dict)  # op -> reason
    known: dict = field(default_factory=dict)   # op -> reason

    def summary(self) -> str:
        """The failed fraction, known failures included."""
        return (f"{len(self.failed) + len(self.known)}/{self.attempted} "
                f"(new {len(self.failed)}, known {len(self.known)})")


def check_call(workload: Workload, returncode: int, stdout: str, csv_path: str | None,
               reference: dict) -> Outcome:
    known = reference["known_failures"][workload.name]
    if workload.config is None:
        return check_gate(returncode, stdout, known, workload.ops)
    return check_sweep(returncode, csv_path, reference["rows"][workload.name], known)


_GATE_LINE = re.compile(r"^\[(PASS|FAIL)\] (.+?): ")
_GATE_TOTAL = re.compile(r"^(\d+)/(\d+) checks passed$", re.MULTILINE)


def _all_failed(ops: int, reason: str) -> Outcome:
    return Outcome(ops, failed={i: reason for i in range(ops)})


def check_gate(returncode: int, stdout: str, known: list, expected_ops: int) -> Outcome:
    total = _GATE_TOTAL.search(stdout)
    if total is None or returncode not in (0, 1):
        return _all_failed(expected_ops, f"exit {returncode}, no summary line")
    passed, ran = int(total.group(1)), int(total.group(2))
    marks = [m.groups() for m in map(_GATE_LINE.match, stdout.splitlines()) if m]
    fails = [name for mark, name in marks if mark == "FAIL"]
    if len(marks) != ran or ran - len(fails) != passed or returncode != int(bool(fails)):
        return _all_failed(max(ran, expected_ops), f"exit {returncode}, inconsistent report")
    outcome = Outcome(ran)
    known_names = {k["op"] for k in known}
    for name in fails:
        group = outcome.known if name in known_names else outcome.failed
        group[name] = "[FAIL]"
    return outcome


def check_sweep(returncode: int, csv_path: str | None, ref_rows: list,
                known: list) -> Outcome:
    n = len(ref_rows)
    if returncode != 0 or not csv_path or not os.path.isfile(csv_path):
        return _all_failed(n, f"exit {returncode}, no CSV")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) > n:
        return _all_failed(n, f"{len(rows) - n} rows more than the reference")
    outcome = Outcome(n)
    known_cells = {(k["op"], k["cell"]) for k in known}
    for i, ref in enumerate(ref_rows):
        if i >= len(rows):
            outcome.failed[i] = "missing row"
            continue
        cells = _bad_cells(rows[i], ref)
        unknown = [c for c in cells if (i, c.split(":")[0]) not in known_cells]
        if unknown:
            outcome.failed[i] = "; ".join(unknown)
        elif cells:
            outcome.known[i] = "; ".join(cells)
    return outcome


def _bad_cells(row: dict, ref: dict) -> list[str]:
    """Cells of one CSV row that miss their check, as 'column: reason'."""
    for key in ROW_KEYS:
        got, want = row.get(key), ref[key]
        if got != (want if isinstance(want, str) else format(want, ".17g")):
            return [f"{key}: {got!r} != {want!r}"]
    values = {}
    for key, text in row.items():
        if key in ROW_KEYS or key in ("variant_id", "lambda_E_dB", "R_th"):
            continue
        try:
            values[key] = float(text)
        except (TypeError, ValueError):
            return [f"{key}: unparsable {text!r}"]
        if not math.isfinite(values[key]):
            return [f"{key}: non-finite"]
    bad = []
    for key in ("sop_exact", "sop_asymptotic"):
        if key in values and not 0.0 <= values[key] <= 1.0:
            bad.append(f"{key}: {values[key]!r} outside [0, 1]")
    for key in ("esr_exact", "esr_high_snr", "esr_asymptotic"):
        if key in values and values[key] < 0.0:
            bad.append(f"{key}: {values[key]!r} negative")
    if "sop_exact" in values:
        gap = abs(values["sop_exact"] - ref["quad_sop"])
        if gap > SOP_TOL:
            bad.append(f"sop_exact: off quadrature by {gap:.3e} > {SOP_TOL:g}")
    if "esr_exact" in values:
        gap = abs(values["esr_exact"] - ref["quad_esr"])
        if gap > ESR_TOL:
            bad.append(f"esr_exact: off quadrature by {gap:.3e} > {ESR_TOL:g}")
    return bad
