"""Tests of the benchmark itself: metric names, reference checks, aborts."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import pytest

import layers
import run
import workloads as wl


def _benchmark_names(key: str) -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def _reference() -> dict:
    with open(wl.REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_names_match_benchmark_json():
    assert list(run.metric_units(trace=False)) == _benchmark_names("end_to_end")
    assert list(wl.WORKLOADS) == _benchmark_names("workloads")


def test_traced_call_prints_every_per_layer_metric(tmp_path):
    config = {
        "base": {"K": 1, "N": 1, "M_D": 1, "M_E": 1, "lambda_E_dB": 5.0},
        "axis_values": [10],
        "outputs": ["sop_exact", "esr_exact", "mc", "quad"],
        "trials": 10000,
    }
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(config))
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(wl.HERE, "layers.py"), "--record", str(record),
         "--", "run", "--config", str(config_path), "--out", str(tmp_path / "t.csv"),
         "--threads", "1"],
        env=dict(os.environ, PYTHONPATH=run.SRC), capture_output=True, text=True,
        timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(record.read_text())["metrics"]
    printed = list(metrics) + list(layers.RUNNER_METRICS)
    assert sorted(printed) == sorted(_benchmark_names("per_layer"))
    assert list(run.metric_units(trace=True)) == _benchmark_names("per_layer")
    assert metrics["cli.rows"] == 1 and metrics["oracles.mc_chunks"] == 1


def _write_csv(path, ref_rows, values):
    cols = ["variant_id", *wl.ROW_KEYS, "lambda_E_dB", "R_th", *values[0]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i, (ref, vals) in enumerate(zip(ref_rows, values)):
            ident = [ref[k] if isinstance(ref[k], str) else format(ref[k], ".17g")
                     for k in wl.ROW_KEYS]
            writer.writerow([f"v{i}", *ident, "5", "1",
                             *(format(v, ".17g") for v in vals.values())])


@pytest.mark.parametrize("cell, shift, fails", [
    ("quad_esr", 0.5 * wl.ESR_TOL, False),
    ("quad_esr", 2.0 * wl.ESR_TOL, True),
    ("quad_sop", 2.0 * wl.SOP_TOL, True),
])
def test_reference_perturbed_past_tolerance_fails(tmp_path, cell, shift, fails):
    ref_rows = [dict(r) for r in _reference()["rows"]["closed_ladder"][:3]]
    values = [{"sop_exact": r["quad_sop"], "esr_exact": r["quad_esr"],
               "esr_high_snr": r["quad_esr"]} for r in ref_rows]
    csv_path = tmp_path / "out.csv"
    _write_csv(csv_path, ref_rows, values)
    ref_rows[1][cell] += shift
    outcome = wl.check_sweep(0, str(csv_path), ref_rows, [])
    assert outcome.attempted == 3
    assert list(outcome.failed) == ([1] if fails else [])
    # listed as a known failure of the program, the same miss is kept apart
    known = [{"op": 1, "cell": {"quad_esr": "esr_exact", "quad_sop": "sop_exact"}[cell]}]
    listed = wl.check_sweep(0, str(csv_path), ref_rows, known)
    assert not listed.failed and list(listed.known) == ([1] if fails else [])


def test_aborted_cli_call_fails_every_row(tmp_path):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"base": {"K": 0}}))
    out_csv = tmp_path / "never.csv"
    sample = run.spawn([sys.executable, "-m", "secrecy_lab.cli", "run", "--config",
                        str(bad_config), "--out", str(out_csv)], str(tmp_path), 120)
    assert sample.returncode != 0
    ladder = wl.WORKLOADS["closed_ladder"]
    outcome = wl.check_call(ladder, sample.returncode, sample.stdout, str(out_csv),
                            _reference())
    assert outcome.attempted == ladder.ops == len(outcome.failed)

    gate = wl.WORKLOADS["gate_quick"]
    cut_short = "[PASS] asymptotic outage floors: fine\n"
    outcome = wl.check_call(gate, 1, cut_short, None, _reference())
    assert outcome.attempted == gate.ops == len(outcome.failed)

