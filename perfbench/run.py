"""Benchmark of the wavelogic engine: checked simplify, derivation search and
wide truth tables.

Run from the root of a checkout (stdlib only, nothing to build)::

    python3 perfbench/run.py --workload simplify_checked --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all             # one row per workload

One process is one closed-loop client: it issues the next operation when the
previous one returns. Input ``i`` comes from ``(seed, i)`` (see
``inputs.py``); the timed phase runs inputs 0, 1, 2, ... until the time spent
inside operations reaches ``--seconds``. Each output is checked against its
reference outside the timed region (see ``workloads.py``).

Times are scaled to a reference host speed by a probe run between
operations (see ``probe.py``); the report line before the result also gives
them raw. ``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics instead: it runs a fixed prefix of inputs alternately
without and with the tracer of ``tracer.py`` until ``--seconds`` have passed,
takes counts from the first traced pass and self times as the median over
traced passes, and writes the first traced pass's spans to
``perfbench/out/`` (gzipped TSV). ``METRICS.md`` says which end-to-end metric each
per-layer metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
operations that raised or whose output failed its check; ``correct`` is false
only if some output failed its check (a wrong answer, not a crash).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import factor, probe  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("simplify_checked", "prove_padded", "table_wide")

# Inputs per pass in a traced run, sized so that an untraced and a traced
# pass together take well under the run time.
TRACE_OPS = {"simplify_checked": 40, "prove_padded": 120, "table_wide": 30}
SETUP_SAMPLES = 11

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from probe import probe
before = probe()
start = time.perf_counter()
import wavelogic
wavelogic.all_rules()
took = time.perf_counter() - start
after = probe()
print(wavelogic.__file__)
print(repr(took), repr((before + after) / 2))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
    "merges_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    if not (SRC / "wavelogic" / "__init__.py").is_file():
        fail(f"no wavelogic sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import wavelogic

    if Path(wavelogic.__file__).resolve().parent != SRC / "wavelogic":
        fail(f"imported wavelogic from {wavelogic.__file__}, not from {SRC}")
    return wavelogic


def measure_setup() -> float:
    """Median time of ``import wavelogic`` plus ``all_rules()`` in fresh
    interpreters, each scaled by the probes its interpreter ran just before
    and after; a first, unmeasured start writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for attempt in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            fail(f"set-up interpreter failed: {done.stderr.strip()}")
        where, took, gauge = done.stdout.split()
        if Path(where).resolve().parent != SRC / "wavelogic":
            fail(f"set-up imported wavelogic from {where}")
        if attempt:
            samples.append(float(took) * factor(float(gauge)))
    return statistics.median(samples)


def run_pass(op, items, tracer=None):
    """Run each input once; return (seconds per op, outputs or exceptions)."""
    times, outcomes = [], []
    for index, item in enumerate(items):
        start = time.perf_counter()
        try:
            out = op(item) if tracer is None else tracer.run_op(index, op, item)
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            out = exc
        times.append(time.perf_counter() - start)
        outcomes.append(out)
    return times, outcomes


def timed_stream(op, check, make, seed: int, seconds: float):
    """Closed loop over inputs 0, 1, 2, ... until ``seconds`` of operation
    time have passed. A probe runs between operations; each operation is
    paired with the mean of the probes on either side. Each output is
    checked right after its operation and then dropped, so memory does not
    grow with the number of operations. Making inputs, probing and checking
    are not timed."""
    items, times, verdicts, probes = [], [], [], []
    busy = 0.0
    before = probe()
    while busy < seconds:
        item = make(seed, len(items))
        t, out = run_pass(op, [item])
        after = probe()
        items.append(item)
        times.extend(t)
        verdicts.append(verdict(check, item, out[0]))
        probes.append((before + after) / 2)
        before = after
        busy += t[0]
    return items, times, verdicts, probes


def verdict(check, item, out):
    """(notes from the check, failure or None) for one operation."""
    from workloads import CheckFailed

    if isinstance(out, Exception):
        return None, ("raised", type(out).__name__, str(out)[:120])
    try:
        return check(item, out), None
    except CheckFailed as exc:
        return None, ("wrong", "CheckFailed", str(exc)[:120])
    except Exception as exc:  # the reference could not read the output
        return None, ("wrong", type(exc).__name__, str(exc)[:120])


def check_all(check, items, outcomes):
    return [verdict(check, item, out) for item, out in zip(items, outcomes)]


def describe_inputs(wl, inputs, workload, items) -> dict:
    """Input properties, so a claim limited to one property can cite its share."""
    def spread(values):
        return {"min": min(values), "median": statistics.median(values), "max": max(values)}

    if workload == "prove_padded":
        exprs = [wl.parse_expr(p.padded) for p in items]
        k = Counter(len(p.kinds) for p in items)
        kinds = Counter(kind for p in items for kind in p.kinds)
        isomorphic = sum(
            wl.is_isomorphic(wl.from_boolean(wl.parse_expr(p.padded)), wl.from_boolean(wl.parse_expr(p.target)))
            for p in items
        )
        extra = {
            "target_nodes": spread([inputs.size(wl.parse_expr(p.target)) for p in items]),
            "k_share": {str(n): round(c / len(items), 4) for n, c in sorted(k.items())},
            "pad_kinds": dict(sorted(kinds.items())),
            "already_isomorphic_share": round(isomorphic / len(items), 4),
        }
    else:
        exprs = [wl.parse_expr(s) for s in items]
        extra = {}
    return {
        "inputs": len(items),
        "circuit_nodes": spread([len(wl.from_boolean(e).nodes) for e in exprs]),
        "syntax_nodes": spread([inputs.size(e) for e in exprs]),
        "variables": spread([len(inputs.var_names(e)) for e in exprs]),
        "merges": spread([inputs.merges(e) for e in exprs]),
        **extra,
    }


def tally(verdicts) -> dict:
    failures = [(i, f) for i, (_, f) in enumerate(verdicts) if f is not None]
    notes = [n for n, f in verdicts if f is None]
    merges_in = sum(n.get("merges_in", 0) for n in notes)
    merges_out = sum(n.get("merges_out", 0) for n in notes)
    return {
        "attempted": len(verdicts),
        "failures": failures,
        "wrong": sum(1 for _, f in failures if f[0] == "wrong"),
        "undecided": sum(n.get("undecided", 0) for n in notes),
        "merges_ratio": merges_out / merges_in if merges_in else 1.0,
    }


def end_to_end(wl, workload: str, seed: int, seconds: float):
    # These import wavelogic, so they load after load_package() set the path.
    import inputs
    import workloads

    op, check = workloads.WORKLOADS[workload]
    setup = measure_setup()
    wl.all_rules()
    items, times, verdicts, probes = timed_stream(op, check, inputs.GENERATORS[workload], seed, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tallied = tally(verdicts)
    n = len(times)
    host = factor(sum(t * p for t, p in zip(times, probes)) / sum(times))
    norm = [t * host for t in times]
    deciles = statistics.quantiles(norm, n=10) if n >= 2 else [norm[0]] * 9
    raw_deciles = statistics.quantiles(times, n=10) if n >= 2 else [times[0]] * 9
    values = {
        "setup_s": setup,
        "ops_per_s": n / sum(norm),
        "op_p50_ms": 1000 * statistics.median(norm),
        "op_p90_ms": 1000 * deciles[8],
        "ok_ratio": (n - len(tallied["failures"])) / n,
        "decided_ratio": (n - len(tallied["failures"]) - tallied["undecided"]) / n,
        "merges_ratio": tallied["merges_ratio"],
        "peak_rss_mb": peak_mb,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "operations": n,
        "beyond_p90": sum(1 for x in norm if x > deciles[8]),
        "raw": {
            "ops_per_s": n / sum(times),
            "op_p50_ms": 1000 * statistics.median(times),
            "op_p90_ms": 1000 * raw_deciles[8],
            "probe_ms": 1000 * sum(t * p for t, p in zip(times, probes)) / sum(times),
        },
        "fail_ratio": len(tallied["failures"]) / n,
        "undecided_ratio": tallied["undecided"] / n,
        "failures": [[i, *f] for i, f in tallied["failures"]],
        "input_properties": describe_inputs(wl, inputs, workload, items),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return tallied, metrics, report


def per_layer(wl, workload: str, seed: int, seconds: float):
    import inputs
    import tracer as tr
    import workloads

    op, check = workloads.WORKLOADS[workload]
    tracer = tr.Tracer(wl)
    tracer.install()
    try:
        tracer.run_op("setup", wl.all_rules)
    finally:
        tracer.uninstall()
    setup_seconds, _ = tr.summarise(tracer.spans)
    check_soundness_s = setup_seconds["rules.check_soundness"]
    setup_s = sum(end - start for name, start, end, _, _ in tracer.spans if name == "bench.op")

    make = inputs.GENERATORS[workload]
    items = [make(seed, i) for i in range(TRACE_OPS[workload])]
    plain, traced, layer_runs = [], [], []
    first = None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(sum(run_pass(op, items)[0]))
        tracer.reset()
        tracer.install()
        try:
            times, outcomes = run_pass(op, items, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(times))
        layer_runs.append(tr.summarise(tracer.spans)[0])
        if first is None:
            first = (Counter(tracer.counts), tr.summarise(tracer.spans)[1], outcomes)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{workload}-{seed}.tsv.gz")
    counts, calls, outcomes = first
    tallied = tally(check_all(check, items, outcomes))

    def self_s(name):
        return statistics.median(run[name] for run in layer_runs)

    values = {}
    for name in (
        "semantics.truth_table", "circuit.validate", "rules.RewriteRule.find",
        "rules.RewriteRule.apply", "patterns.Editor.finish", "patterns.find_cells",
        "circuit.canonical_form", "engine.simplify", "engine.prove_equal", "engine.apply",
        "engine.replay", "boolexpr.from_boolean", "boolexpr.to_boolean", "parser.parse_expr",
        "parser.format_expr", "semantics.TruthTable.format",
    ):
        values[name.replace("RewriteRule.", "") + ".s"] = (self_s(name), "s")
    for name in ("semantics.truth_table", "circuit.validate", "circuit.canonical_form"):
        values[name + ".calls"] = (calls[name], "count")
    for name in ("semantics.rows", "rules.sites", "rules.candidates", "engine.steps"):
        values[name] = (counts[name], "count")
    candidates = counts["rules.candidates"]
    values["engine.useful_ratio"] = (counts["engine.steps"] / candidates if candidates else 0.0, "ratio")
    values["rules.check_soundness.s"] = (check_soundness_s, "s")
    values["setup.all_rules.s"] = (setup_s, "s")
    for module in tr.MEASURED:
        total = statistics.median(
            sum(v for k, v in run.items() if k.startswith(module + ".")) for run in layer_runs
        )
        values[f"layer.{module}.s"] = (total, "s")
    values["trace.untraced_ops_per_s"] = (len(items) / statistics.median(plain), "1/s")
    values["trace.traced_ops_per_s"] = (len(items) / statistics.median(traced), "1/s")
    values["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    report = {
        "workload": workload,
        "seed": seed,
        "operations_per_pass": len(items),
        "passes": len(traced),
        "failures": [[i, *f] for i, f in tallied["failures"]],
    }
    return tallied, metrics, report


def run_all(args) -> int:
    """Each workload in its own process (so peak memory is its own), one row each."""
    rows = []
    for workload in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])
        rows.append((workload, result, report))
    for workload, result, report in rows:
        cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
        if not args.trace:
            cells += [f"fail_ratio={report['fail_ratio']:.6g} ratio",
                      f"undecided_ratio={report['undecided_ratio']:.6g} ratio"]
        print(f"{workload:<17} attempted={result['attempted']} failed={result['failed']}  " + "  ".join(cells))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = load_package()
    measure = per_layer if args.trace else end_to_end
    try:
        tallied, metrics, report = measure(wl, args.workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        fail("the benchmark itself failed")
    print(json.dumps(report))
    print(json.dumps({
        "correct": tallied["wrong"] == 0,
        "attempted": tallied["attempted"],
        "failed": len(tallied["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
