#!/usr/bin/env python3
"""Benchmark for secrecy-lab: each workload as fresh CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` times the workload with tracing off: it imports
``secrecy_lab.cli`` in fresh interpreters a few times (``setup_s``), then
starts ``python3 -m secrecy_lab.cli`` calls one after another until
``--seconds`` have passed (at least one call), and reports the median
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` of those processes. ``--trace 1``
makes one untraced call, then one traced call through ``perfbench/layers.py``,
and reports the per-layer metrics, with the tracing overhead as the traced
``wall_s`` minus the untraced one. Neither workload has a random input (the
gate pins its own seed), so ``--seed`` is only recorded.

Every call's output is checked (see workloads.py). Human-readable lines go
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A record of the run (metadata,
every sample, every failure, and for traced runs the per-layer self times)
goes to perfbench/out/, and traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import layers
import workloads as wl

ROOT = os.path.dirname(wl.HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(wl.HERE, "out")

SETUP_IMPORTS = 3
# the whole run must end within 180 s; later calls get what is left
RUN_DEADLINE_S = 170.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def spawn(argv: list[str], cwd: str, timeout: float) -> Sample:
    """Run argv to completion; wall time from spawn to exit and its rusage."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SECRECY_LAB_SEED", None)
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, stdout, stderr)


def sha256_of(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def metadata(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "secrecy_lab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "versions": versions, "seed": seed}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: float,
                 reference: dict, deadline: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.deadline = deadline
        self.work_dir = os.path.join(OUT_DIR, f"work-{workload.name}-{os.getpid()}")
        self.out_csv = os.path.join(self.work_dir, f"{workload.name}.csv")
        self.calls: list[dict] = []
        self.outcomes: list[wl.Outcome] = []

    def _left(self) -> float:
        return self.deadline - time.perf_counter()

    def setup_times(self) -> list[float]:
        probe = ("import secrecy_lab.cli, sys; "
                 "sys.stdout.write(secrecy_lab.cli.__file__)")
        times = []
        for _ in range(SETUP_IMPORTS):
            sample = spawn([sys.executable, "-c", probe], self.work_dir, self._left())
            if sample.returncode != 0 or not sample.stdout.startswith(SRC + os.sep):
                raise RuntimeError("cannot import secrecy_lab.cli from "
                                   f"{SRC}: {sample.stderr.strip()[-300:]}")
            times.append(sample.wall_s)
        return times

    def call(self, traced: bool, record_path: str | None = None) -> Sample:
        if os.path.exists(self.out_csv):
            os.remove(self.out_csv)
        cli_args = self.workload.cli_args(self.out_csv)
        if traced:
            argv = [sys.executable, os.path.join(wl.HERE, "layers.py"),
                    "--record", record_path, "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "secrecy_lab.cli", *cli_args]
        sample = spawn(argv, self.work_dir, self._left())
        outcome = wl.check_call(self.workload, sample.returncode, sample.stdout,
                                self.out_csv, self.reference)
        self.outcomes.append(outcome)
        self.calls.append({
            "traced": traced, "wall_s": sample.wall_s, "cpu_s": sample.cpu_s,
            "peak_rss_mb": sample.peak_rss_mb, "exit_code": sample.returncode,
            "csv_sha256": sha256_of(self.out_csv), "outcome": outcome.summary(),
            "failed": {str(k): v for k, v in outcome.failed.items()},
            "known": {str(k): v for k, v in outcome.known.items()},
        })
        return sample

    def untraced_calls(self, seconds: float) -> list[Sample]:
        """Calls one after another until ``seconds`` have passed, at least one,
        and none that could not end well before the run's deadline."""
        start = time.perf_counter()
        samples = [self.call(traced=False)]
        while (time.perf_counter() - start < seconds
               and self._left() > 1.5 * samples[-1].wall_s):
            samples.append(self.call(traced=False))
        return samples

    def execute(self, trace: bool) -> dict:
        """Runs the workload, writes the run's record, returns its metrics."""
        os.makedirs(self.work_dir, exist_ok=True)
        tag = f"{self.workload.name}-seed{self.seed}-trace{int(trace)}"
        record = {"workload": self.workload.name, "trace": trace,
                  "seconds": self.seconds, "metadata": metadata(self.seed)}
        try:
            if not trace:
                setup = self.setup_times()
                samples = self.untraced_calls(self.seconds)
                metrics = {
                    "wall_s": statistics.median(s.wall_s for s in samples),
                    "cpu_s": statistics.median(s.cpu_s for s in samples),
                    "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
                    "setup_s": statistics.median(setup),
                }
                record["setup_s"] = setup
            else:
                # one untraced call is the base of the tracing overhead
                samples = self.untraced_calls(0.0)
                spans_path = os.path.join(OUT_DIR, f"{tag}-spans.json")
                traced = self.call(traced=True, record_path=spans_path)
                try:
                    with open(spans_path, encoding="utf-8") as fh:
                        layer_record = json.load(fh)
                except FileNotFoundError:
                    # the traced call died before writing; its outcome
                    # already counts every operation as failed
                    layer_record = {"self_s": {}, "metrics": {
                        name: 0 for name in metric_units(True)
                        if name not in layers.RUNNER_METRICS}}
                metrics = dict(layer_record["metrics"])
                metrics["trace.wall_s"] = traced.wall_s
                metrics["trace.overhead_s"] = (
                    traced.wall_s - statistics.median(s.wall_s for s in samples))
                record["self_s"] = layer_record["self_s"]
                record["spans_file"] = os.path.relpath(spans_path, ROOT)
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)
        record["calls"] = self.calls
        record["metrics"] = metrics
        with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        return metrics

    def totals(self) -> wl.Outcome:
        """Every call's outcome in one, keyed by (call index, operation)."""
        merged = wl.Outcome(0)
        for n, outcome in enumerate(self.outcomes):
            merged.attempted += outcome.attempted
            for mine, theirs in ((merged.failed, outcome.failed),
                                 (merged.known, outcome.known)):
                mine.update({(n, op): reason for op, reason in theirs.items()})
        return merged


def metric_units(trace: bool) -> dict:
    if not trace:
        return dict(END_TO_END)
    return {name: unit for name, unit, *_rest in layers.METRICS}


def report(workload: wl.Workload, metrics: dict, units: dict, merged: wl.Outcome,
           calls: int) -> None:
    print(f"{workload.name}: {calls} call(s), failed_frac {merged.summary()}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {units[name]}")
    for op, reason in list(merged.failed.items())[:10]:
        print(f"  FAILED {op}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded with the run; the workloads fix their inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "secrecy_lab", "cli.py")):
        print(f"no secrecy-lab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        with open(wl.REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {wl.REFERENCE_PATH}: {exc}; run make_reference.py",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # Every process of the run inherits one CPU. Timings then see one CPU's
    # speed, and the gate's two Monte Carlo threads share it, which made its
    # wall time spread less from run to run on a 2-CPU machine.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    units = metric_units(bool(args.trace))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = wl.WORKLOADS[name]
        deadline = time.perf_counter() + RUN_DEADLINE_S
        run = Run(workload, args.seed, args.seconds, reference, deadline)
        try:
            metrics = run.execute(bool(args.trace))
        except (OSError, RuntimeError, KeyError, json.JSONDecodeError) as exc:
            print(f"{name}: benchmark could not run: {exc}", file=sys.stderr)
            return 2
        merged = run.totals()
        report(workload, metrics, units, merged, len(run.calls))
        result["attempted"] += merged.attempted
        result["failed"] += len(merged.failed)
        result["correct"] = result["correct"] and not merged.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
