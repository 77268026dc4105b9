#!/usr/bin/env python3
"""Compute the committed references that timed benchmark runs only read.

    python3 perfbench/make_reference.py

For every row of every sweep workload: the quadrature oracle's outage
probability ``quad_cdf_ratio(rho)`` and ergodic secrecy rate ``quad_esr``,
which the timed runs compare the CLI's closed forms against. Then it runs
each workload once through the CLI and lists every failure the checks find
as a known failure of this commit's program. Writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import workloads as wl

ROOT = os.path.dirname(wl.HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from secrecy_lab.cli import load_sweep_spec  # noqa: E402
from secrecy_lab.oracles import quad_cdf_ratio, quad_esr  # noqa: E402

LISTABLE_CELLS = ("sop_exact", "esr_exact")


def reference_rows(config_path: str) -> list:
    spec = load_sweep_spec(config_path)
    rows = []
    for _vid, cfg, db in spec.rows():
        rows.append({
            "scheme": cfg.scheme, "knowledge": cfg.knowledge, "K": cfg.K,
            "N": cfg.N, "M_D": cfg.M_D, "M_E": cfg.M_E, "zeta": cfg.zeta,
            "lambda_D_dB": db,
            "quad_sop": quad_cdf_ratio(cfg.rho(), cfg),
            "quad_esr": quad_esr(cfg),
        })
    return rows


def known_failures(workload, reference: dict, work_dir: str) -> list:
    out_csv = os.path.join(work_dir, f"{workload.name}.csv")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SECRECY_LAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "secrecy_lab.cli", *workload.cli_args(out_csv)],
        cwd=work_dir, env=env, capture_output=True, text=True, check=False)
    outcome = wl.check_call(workload, proc.returncode, proc.stdout, out_csv, reference)
    listed = []
    for op, reason in sorted(outcome.failed.items(), key=lambda kv: str(kv[0])):
        if workload.config is None:
            listed.append({"op": op, "cell": "check", "reason": reason})
            continue
        for part in reason.split("; "):
            cell = part.split(":")[0]
            if cell not in LISTABLE_CELLS:
                raise SystemExit(f"{workload.name} row {op}: {part} is not a "
                                 "closed-form miss against quadrature; not listing it")
            listed.append({"op": op, "cell": cell, "reason": part})
    return listed


def main() -> int:
    reference = {"rows": {}, "known_failures": {}}
    for workload in wl.WORKLOADS.values():
        reference["known_failures"][workload.name] = []
        if workload.config is not None:
            start = time.perf_counter()
            rows = reference_rows(os.path.join(wl.CONFIG_DIR, workload.config))
            reference["rows"][workload.name] = rows
            print(f"{workload.name}: {len(rows)} reference rows in "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    with tempfile.TemporaryDirectory(dir=wl.HERE) as work_dir:
        for workload in wl.WORKLOADS.values():
            listed = known_failures(workload, reference, work_dir)
            reference["known_failures"][workload.name] = listed
            ops = len({k["op"] for k in listed})
            print(f"{workload.name}: {ops}/{workload.ops} operations fail at this "
                  "commit", file=sys.stderr)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
