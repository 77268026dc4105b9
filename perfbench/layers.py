"""Traced in-process run of one secrecy-lab CLI call, for per-layer metrics.

    PYTHONPATH=src python3 perfbench/layers.py --record FILE -- <cli args>

runs ``secrecy_lab.cli.main(<cli args>)`` in this process after replacing
the module attributes that the package looks up at its call sites (for
example ``secrecy_lab.esr.integrate_term`` or ``secrecy_lab.sop._os_recipes``)
with wrappers that record spans or counts. No file of the package changes.
Spans stay in memory and are written to FILE, with the per-layer metrics
derived from them, when the call returns. The process exits with the CLI's
exit code and writes to stdout and stderr only what the CLI writes, so its
output is checked exactly like an untraced call.

A span is (id, name, start, end, parent, op, thread). ``op`` is the
operation the span serves: the sweep row index or the acceptance check name.
Spans opened on a worker thread with nothing open on that thread (the gate's
Monte Carlo pool) take the innermost open row or check as parent.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter

# Acceptance checks in the order secrecy_lab.acceptance._CHECKS runs them,
# by function name without the "check_" prefix.
CHECKS = (
    "asymptotic_floors",
    "diversity_order",
    "sop_triple_oracle",
    "esr_triple_oracle",
    "ku_identities",
    "degeneracies",
    "esr_fidelity",
    "orderings",
    "special_functions",
)

_RECIPE_BUILDERS = ("_ss_recipes", "_os_recipes", "_ss_high_snr_recipes",
                    "_os_high_snr_recipes")

# name, unit, better, the end-to-end metric it should move, on which workloads
METRICS = (
    ("cli.rows", "count", "higher", "wall_s", "closed_ladder"),
    ("cli.parse_s", "s", "lower", "wall_s, setup_s", "closed_ladder"),
    ("cli.write_csv_s", "s", "lower", "wall_s", "closed_ladder"),
    ("oracles.mc_chunks", "count", "lower", "wall_s", "gate_quick"),
    ("oracles.mc_chunk_s", "s", "lower", "wall_s", "gate_quick"),
    ("oracles.mc_rng_s", "s", "lower", "wall_s", "gate_quick"),
    ("oracles.mc_reduce_s", "s", "lower", "wall_s", "gate_quick"),
    ("oracles.quad_esr_calls", "count", "lower", "wall_s", "gate_quick"),
    ("oracles.quad_esr_s", "s", "lower", "wall_s", "gate_quick"),
    ("oracles.quad_sop_s", "s", "lower", "wall_s", "gate_quick"),
    ("channel.calls", "count", "lower", "wall_s", "gate_quick"),
    ("sop.recipe_build_calls", "count", "lower", "wall_s, peak_rss_mb", "closed_ladder"),
    ("sop.recipe_build_s", "s", "lower", "wall_s, peak_rss_mb", "closed_ladder"),
    ("sop.recipes_built", "count", "lower", "wall_s, peak_rss_mb", "closed_ladder"),
    ("algebra.expand_power_of_sum_s", "s", "lower", "wall_s, peak_rss_mb", "closed_ladder"),
    ("sop.recipe_cache_hit_ratio", "ratio", "higher", "wall_s", "gate_quick"),
    ("algebra.materialize_s", "s", "lower", "wall_s", "closed_ladder"),
    ("algebra.terms_materialized", "count", "lower", "wall_s", "closed_ladder"),
    ("esr.integrate_term_calls", "count", "lower", "wall_s", "closed_ladder"),
    ("esr.integrate_term_s", "s", "lower", "wall_s", "closed_ladder"),
    ("specialfn.incomplete_gamma_calls", "count", "lower", "wall_s",
     "closed_ladder"),
    ("algebra.termsum_eval_calls", "count", "lower", "wall_s", "gate_quick, then closed_ladder"),
    ("algebra.termsum_eval_s", "s", "lower", "wall_s", "gate_quick, then closed_ladder"),
    ("algebra.mp_fallback_calls", "count", "lower", "wall_s", "gate_quick, then closed_ladder"),
    ("algebra.mp_fallback_s", "s", "lower", "wall_s", "gate_quick, then closed_ladder"),
    ("algebra.mp_fallback_ratio", "ratio", "lower", "wall_s", "gate_quick, then closed_ladder"),
    ("sop.sop_s", "s", "lower", "wall_s", "closed_ladder"),
    ("esr.esr_exact_s", "s", "lower", "wall_s", "closed_ladder"),
    ("esr.esr_high_snr_s", "s", "lower", "wall_s", "closed_ladder"),
    ("esr.esr_asymptotic_s", "s", "lower", "wall_s", "closed_ladder"),
    *((f"acceptance.{name}_s", "s", "lower", "wall_s", "gate_quick") for name in CHECKS),
    ("acceptance.checks_failed", "count", "lower", "failed_frac", "gate_quick"),
    ("share.mc_chunks", "ratio", "lower", "wall_s", "gate_quick"),
    ("share.quad_esr", "ratio", "lower", "wall_s", "gate_quick"),
    ("share.integrate_term", "ratio", "lower", "wall_s", "closed_ladder"),
    ("share.recipe_build", "ratio", "lower", "wall_s", "closed_ladder"),
    ("trace.wall_s", "s", "lower", "none: traced process, spawn to exit", "all"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s", "all"),
)

# Filled in by the benchmark runner, which times the traced process itself.
RUNNER_METRICS = ("trace.wall_s", "trace.overhead_s")


class Tracer:
    """In-memory span and count recorder shared by every wrapper."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_roots: list[tuple] = []  # (span id, op) of open rows/checks
        self._thread_counts: list[Counter] = []
        self._lock = threading.Lock()
        self.cells: dict[str, list] = {}  # counts of the counted() wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, by: int = 1) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
        counts[name] += by

    def counts(self) -> Counter:
        total = Counter({name: cell[0] for name, cell in self.cells.items()})
        for counts in self._thread_counts:
            total.update(counts)
        return total

    def call(self, name, fn, args, kwargs, op=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if stack:
            parent, parent_op = stack[-1]
        elif self._op_roots:
            parent, parent_op = self._op_roots[-1]
        else:
            parent, parent_op = None, None
        span_id = next(self._ids)
        op_id = parent_op if op is None else op
        stack.append((span_id, op_id))
        if op is not None:
            self._op_roots.append((span_id, op_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if op is not None:
                self._op_roots.remove((span_id, op_id))
            self.spans.append((span_id, name, start, end, parent, op_id,
                               threading.get_ident()))

    def spanned(self, name, fn, op_of=None):
        """fn wrapped in a span; op_of(*args) names a new operation."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = None if op_of is None else op_of(*args, **kwargs)
            return self.call(name, fn, args, kwargs, op)
        return wrapper

    def counted(self, name, fn):
        """fn wrapped in a bare call count, for hot leaf functions.

        The quadrature integrands and ESR kernels that call these never run
        on two threads at once, so a plain list cell is enough, and it keeps
        the wrapper cheap on millions of calls.
        """
        cell = self.cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper


class _TimedGenerator:
    """Proxy for the per-chunk numpy Generator that puts each draw in a span.

    The Monte Carlo chunk draws with these two methods; anything else passes
    through untimed.
    """

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_exponential(self, *args, **kwargs):
        return self._tracer.call("oracles.mc_rng", self._rng.standard_exponential,
                                 args, kwargs)

    def random(self, *args, **kwargs):
        return self._tracer.call("oracles.mc_rng", self._rng.random, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def install(tracer: Tracer) -> tuple[dict, list]:
    """Wrap the package's call-site attributes.

    Returns the recipe caches and the attributes that were not there to
    wrap: after a refactor those layers read zero instead of failing the run.
    """
    import secrecy_lab.acceptance as acceptance
    import secrecy_lab.algebra as algebra
    import secrecy_lab.cli as cli
    import secrecy_lab.esr as esr
    import secrecy_lab.oracles as oracles

    # the package re-exports the function sop, which hides the submodule
    sop_mod = sys.modules["secrecy_lab.sop"]

    missing = []

    def present(module, attr):
        if hasattr(module, attr):
            return True
        missing.append(f"{module.__name__}.{attr}")
        return False

    def wrap(module, attr, name, **kw):
        if present(module, attr):
            setattr(module, attr, tracer.spanned(name, getattr(module, attr), **kw))

    row_index: dict = {}

    def row_op(variant_id, cfg, axis_db, spec):
        key = id(spec)
        if key not in row_index:
            row_index.clear()
            row_index[key] = {(vid, db): i for i, (vid, _c, db) in enumerate(spec.rows())}
        return row_index[key][(variant_id, axis_db)]

    wrap(cli, "load_sweep_spec", "cli.parse")
    wrap(cli, "write_csv", "cli.write_csv")
    wrap(cli, "_evaluate_row", "cli.row", op_of=row_op)
    for module in (cli, acceptance):
        wrap(module, "sop", "sop.sop")
        wrap(module, "esr_exact", "esr.esr_exact")
        wrap(module, "esr_high_snr", "esr.esr_high_snr")
        wrap(module, "esr_asymptotic", "esr.esr_asymptotic")
        wrap(module, "quad_esr", "oracles.quad_esr")
        wrap(module, "quad_cdf_ratio", "oracles.quad_sop")

    wrap(oracles, "_rates_with_rng", "oracles.mc_chunk")
    if present(oracles, "_chunk_rng"):
        chunk_rng = oracles._chunk_rng
        oracles._chunk_rng = functools.wraps(chunk_rng)(
            lambda seed, index: _TimedGenerator(chunk_rng(seed, index), tracer))
    for attr in ("pdf_snr_eve_max", "cdf_snr_dest", "sf_snr_dest",
                 "cdf_snr_dest_mixture_ka"):
        if present(oracles, attr):
            setattr(oracles, attr, tracer.counted("channel", getattr(oracles, attr)))

    caches = {attr: getattr(sop_mod, attr) for attr in _RECIPE_BUILDERS
              if present(sop_mod, attr) and hasattr(getattr(sop_mod, attr), "cache_info")}
    for attr, cached in caches.items():
        def build(*args, _cached=cached):
            misses = _cached.cache_info().misses
            recipes = _cached(*args)
            if _cached.cache_info().misses > misses:
                tracer.count("sop.recipes_built", len(recipes))
            return recipes
        setattr(sop_mod, attr, tracer.spanned("sop.recipe_build",
                                              functools.wraps(cached)(build)))
    wrap(sop_mod, "expand_power_of_sum", "algebra.expand_power_of_sum")
    if present(sop_mod, "materialize_recipes"):
        materialize = sop_mod.materialize_recipes

        def materialize_counted(*args, **kwargs):
            terms = materialize(*args, **kwargs)
            tracer.count("algebra.terms_materialized", len(terms))
            return terms
        sop_mod.materialize_recipes = tracer.spanned(
            "algebra.materialize", functools.wraps(materialize)(materialize_counted))
    wrap(algebra.TermSum, "eval", "algebra.termsum_eval")
    wrap(algebra, "_eval_recipes_mp", "algebra.mp_fallback")

    wrap(esr, "integrate_term", "esr.integrate_term")
    if present(esr, "log_upper_incomplete_gamma_int"):
        esr.log_upper_incomplete_gamma_int = tracer.counted(
            "specialfn.incomplete_gamma", esr.log_upper_incomplete_gamma_int)

    def check_wrapper(check):
        name = check.__name__.removeprefix("check_")

        @functools.wraps(check)
        def run_check(*args, **kwargs):
            result = tracer.call(f"acceptance.{name}", check, args, kwargs, op=name)
            if not result.passed:
                tracer.count("acceptance.checks_failed")
            return result
        return run_check
    if present(acceptance, "_CHECKS"):
        acceptance._CHECKS = tuple(check_wrapper(c) for c in acceptance._CHECKS)
    return caches, missing


def self_times(spans) -> dict:
    """Per span name: total duration minus what same-thread children cover."""
    by_id = {s[0]: s for s in spans}
    child_time: Counter = Counter()
    for span_id, _name, start, end, parent, _op, thread in spans:
        if parent in by_id and by_id[parent][6] == thread:
            child_time[parent] += end - start
    out: Counter = Counter()
    for span_id, name, start, end, *_rest in spans:
        out[name] += (end - start) - child_time[span_id]
    return dict(out)


def layer_metrics(spans, counts: Counter, cache_hits: int, cache_misses: int) -> dict:
    """Every METRICS value except RUNNER_METRICS, from one traced call."""
    calls: Counter = Counter()
    incl: Counter = Counter()
    by_op: Counter = Counter()
    for _id, name, start, end, _parent, op, _thread in spans:
        calls[name] += 1
        incl[name] += end - start
        if name.startswith("acceptance."):
            by_op[op] += end - start
    own = Counter(self_times(spans))
    main = incl["cli.main"]

    def share(seconds):
        return seconds / main if main > 0 else 0.0

    lookups = cache_hits + cache_misses
    evals = calls["algebra.termsum_eval"]
    out = {
        "cli.rows": calls["cli.row"],
        "cli.parse_s": incl["cli.parse"],
        "cli.write_csv_s": incl["cli.write_csv"],
        "oracles.mc_chunks": calls["oracles.mc_chunk"],
        "oracles.mc_chunk_s": incl["oracles.mc_chunk"],
        "oracles.mc_rng_s": incl["oracles.mc_rng"],
        "oracles.mc_reduce_s": own["oracles.mc_chunk"],
        "oracles.quad_esr_calls": calls["oracles.quad_esr"],
        "oracles.quad_esr_s": incl["oracles.quad_esr"],
        "oracles.quad_sop_s": incl["oracles.quad_sop"],
        "channel.calls": counts["channel"],
        "sop.recipe_build_calls": calls["sop.recipe_build"],
        "sop.recipe_build_s": incl["sop.recipe_build"],
        "sop.recipes_built": counts["sop.recipes_built"],
        "algebra.expand_power_of_sum_s": incl["algebra.expand_power_of_sum"],
        "sop.recipe_cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "algebra.materialize_s": incl["algebra.materialize"],
        "algebra.terms_materialized": counts["algebra.terms_materialized"],
        "esr.integrate_term_calls": calls["esr.integrate_term"],
        "esr.integrate_term_s": incl["esr.integrate_term"],
        "specialfn.incomplete_gamma_calls": counts["specialfn.incomplete_gamma"],
        "algebra.termsum_eval_calls": evals,
        "algebra.termsum_eval_s": incl["algebra.termsum_eval"],
        "algebra.mp_fallback_calls": calls["algebra.mp_fallback"],
        "algebra.mp_fallback_s": incl["algebra.mp_fallback"],
        "algebra.mp_fallback_ratio": calls["algebra.mp_fallback"] / evals if evals else 0.0,
        "sop.sop_s": incl["sop.sop"],
        "esr.esr_exact_s": incl["esr.esr_exact"],
        "esr.esr_high_snr_s": incl["esr.esr_high_snr"],
        "esr.esr_asymptotic_s": incl["esr.esr_asymptotic"],
        "acceptance.checks_failed": counts["acceptance.checks_failed"],
        "share.mc_chunks": share(own["oracles.mc_chunk"] + own["oracles.mc_rng"]),
        "share.quad_esr": share(own["oracles.quad_esr"]),
        "share.integrate_term": share(own["esr.integrate_term"]),
        "share.recipe_build": share(own["sop.recipe_build"]
                                    + own["algebra.expand_power_of_sum"]),
    }
    for name in CHECKS:
        out[f"acceptance.{name}_s"] = by_op[name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", required=True,
                        help="JSON file for spans and per-layer metrics")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import secrecy_lab.cli as cli

    tracer = Tracer()
    caches, missing = install(tracer)
    code = 1
    try:
        code = tracer.call("cli.main", cli.main, (cli_args,), {}, op="main")
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        # written even when the call raises, so the run still sees its spans
        hits = sum(c.cache_info().hits for c in caches.values())
        misses = sum(c.cache_info().misses for c in caches.values())
        spans = sorted(tracer.spans)
        counts = tracer.counts()
        record = {
            "exit_code": code,
            "not_wrapped": missing,
            "metrics": layer_metrics(spans, counts, hits, misses),
            "self_s": self_times(spans),
            "counts": dict(counts),
            "span_fields": ["id", "name", "start", "end", "parent", "op", "thread"],
            "spans": spans,
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
