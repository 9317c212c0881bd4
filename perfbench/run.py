"""Closed-loop benchmark of `balsub find`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_sweep --seed 1 --seconds 40 --trace 0

One operation is one `find` as `balsub find` performs it, in-process: parse
the host's edge-list text, `top_level`, re-verify the certificate with
`verify_subdivision`, and serialize it with `to_json_dict()`.  A single
thread issues the next operation only when the previous one has returned,
walking the workload's host list in whole passes and stopping at the pass
boundary nearest to `--seconds` (the first pass always completes).

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` untraced and traced passes
alternate and the object holds the per-layer metrics and the tracing
overhead.  Either way the run writes its full results (hosts, routes,
certificate sizes, every latency) under `perfbench/results/`.

The exit status is 0 when every certificate re-verified, 1 when any
operation failed or a pass disagreed with the first, and 2 when the
benchmark could not run at all (no result line is printed then).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metric_units, layer_metrics
from workloads import WORKLOADS, build_hosts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 7
# the tail is read where at least this many samples lie beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "find_s_p50": "s",
    "find_s_tail": "s",
    "hosts_per_s": "1/s",
    "k_sum": "count",
    "verified_rate": "ratio",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.hosts_per_s": "1/s",
    "trace.untraced_hosts_per_s": "1/s",
    "trace.overhead": "ratio",
}


class SetupError(Exception):
    """The benchmark cannot run here: no `balsub` source tree to import."""


def fresh_import():
    """Import `balsub` from this checkout's `src/`, discarding any copy
    already imported so the import is paid again."""
    if not (SRC / "balsub" / "__init__.py").is_file():
        raise SetupError(f"no balsub package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "balsub" or k.startswith("balsub.")]:
        del sys.modules[name]
    bs = importlib.import_module("balsub")
    if not Path(bs.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"balsub imported from {bs.__file__}, not from {SRC}")
    return bs


def set_up(workload, seed: int):
    """Import `balsub` and build the hosts SETUP_REPEATS times; keeps the
    last import and hosts, returns them with every set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts without the last one's garbage
        start = time.perf_counter()
        bs = fresh_import()
        hosts = build_hosts(bs, workload, seed)
        times.append(time.perf_counter() - start)
    return bs, hosts, times


def find_once(bs, host) -> dict:
    """One `balsub find`: parse, run the pipeline, re-verify, serialize."""
    g = bs.from_edge_list(host.text)
    outcome = bs.top_level(g, host.config)
    cert = outcome.certificate
    result = {"kind": outcome.kind, "route": outcome.trace.route}
    if cert is None:
        result["error"] = "no certificate"
        return result
    passed = bs.verify_subdivision(g, cert).passed
    result["doc"] = cert.to_json_dict()
    if not passed:
        result["error"] = "certificate failed re-verification"
    return result


def run_pass(bs, hosts, tracer=None, first_op: int = 0) -> dict:
    """One closed-loop pass over the host list."""
    latencies, results = [], []
    start = time.perf_counter()
    for i, host in enumerate(hosts):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = time.perf_counter()
        try:
            result = find_once(bs, host)
        except Exception as exc:  # an operation that raises counts as failed
            result = {"error": f"{type(exc).__name__}: {exc}",
                      "traceback": traceback.format_exc()}
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    return {"wall": time.perf_counter() - start, "latencies": latencies,
            "results": results}


def check_documents(bs, hosts, first: dict) -> None:
    """Gate on the first pass: each emitted document, read back from its
    JSON text, must verify against the host parsed from its edge list."""
    for host, result in zip(hosts, first["results"]):
        if "error" in result:
            continue
        doc = json.loads(json.dumps(result["doc"]))
        cert = bs.SubdivisionCertificate.from_json_dict(doc)
        if not bs.verify_subdivision(bs.from_edge_list(host.text), cert).passed:
            result["error"] = "emitted document failed verification"


def check_repeats(first: dict, later: dict) -> None:
    """Every pass must emit the documents of the first pass."""
    for a, b in zip(first["results"], later["results"]):
        if "error" not in b and b.get("doc") != a.get("doc"):
            b["error"] = "certificate differs from the first pass"


def tail(samples: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(samples)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    i = len(xs) - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(setup_times, passes, hosts) -> tuple[dict, dict]:
    """Timings are taken per pass, so a run's figures do not depend on how
    many passes fit its time, and averaged over passes: the machine the
    benchmark was sized on switches between a fast and a slower state every
    few tens of seconds, and a median over passes snaps to whichever state
    held most of the run, which spread the figures more from run to run."""
    tails = [tail(p["latencies"]) for p in passes]
    ops = [r for p in passes for r in p["results"]]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "find_s_p50": statistics.fmean(statistics.median(p["latencies"]) for p in passes),
        "find_s_tail": statistics.fmean(value for value, _pct in tails),
        "hosts_per_s": statistics.fmean(len(hosts) / p["wall"] for p in passes),
        "k_sum": sum(len(r["doc"]["branch"]) for r in passes[0]["results"]
                     if "error" not in r),
        "verified_rate": sum("error" not in r for r in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(passes), "samples_per_pass": len(hosts),
              "tail_percentile": tails[0][1], "setup_times": setup_times}
    return metrics, detail


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        hosts_filter=None) -> dict:
    """Set up, measure, check; returns the full results document.
    `hosts_filter` picks a sub-list of hosts (used by the self-test)."""
    workload = WORKLOADS[workload_name]
    bs, hosts, setup_times = set_up(workload, seed)
    if hosts_filter is not None:
        hosts = hosts_filter(hosts)
    start = time.perf_counter()
    untraced, traced, span_sets = [], [], []
    ops = 0
    while True:
        if not trace or len(untraced) <= len(traced):
            untraced.append(run_pass(bs, hosts))
            current = untraced[-1]
        else:
            with Tracer() as tracer:
                traced.append(run_pass(bs, hosts, tracer, ops))
            span_sets.append(tracer.spans)
            current = traced[-1]
        ops += len(hosts)
        if len(untraced) + len(traced) == 1:
            check_documents(bs, hosts, current)
        else:
            check_repeats(untraced[0], current)
        # stop at the pass boundary nearest to `seconds`, so that a run's
        # length does not overshoot by up to a whole pass
        elapsed = time.perf_counter() - start
        if elapsed + current["wall"] / 2 >= seconds and (not trace or traced):
            break

    all_passes = untraced + traced
    failed = sum("error" in r for p in all_passes for r in p["results"])
    doc = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "hosts": [
            dict(host.describe(), kind=r.get("kind"), route=r.get("route"),
                 k=len(r["doc"]["branch"]) if "doc" in r else 0,
                 ell=r["doc"]["ell"] if "doc" in r else None,
                 **({"error": r["error"]} if "error" in r else {}))
            for host, r in zip(hosts, untraced[0]["results"])
        ],
        "errors": [
            {k: r[k] for k in ("error", "kind", "route", "traceback") if k in r}
            for p in all_passes for r in p["results"] if "error" in r
        ][:5],
    }
    e2e, detail = end_to_end(setup_times, untraced, hosts)
    doc["detail"] = detail
    doc["latencies"] = [p["latencies"] for p in untraced]
    if not trace:
        doc["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in e2e.items()}
        return doc

    per_pass = [layer_metrics(spans) for spans in span_sets]
    units = layer_metric_units()
    layers = {
        k: (statistics.median_low if unit == "count" else statistics.median)(
            [m[k] for m in per_pass])
        for k, unit in units.items()
    }
    traced_rate = statistics.median(len(hosts) / p["wall"] for p in traced)
    layers["trace.hosts_per_s"] = traced_rate
    layers["trace.untraced_hosts_per_s"] = e2e["hosts_per_s"]
    layers["trace.overhead"] = e2e["hosts_per_s"] / traced_rate
    units.update(TRACE_UNITS)
    doc["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    doc["detail"]["traced_passes"] = len(traced)
    doc["spans"] = span_sets
    return doc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def write_results(doc: dict) -> Path:
    """Write the results document; spans go to a JSON-lines file beside it."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}"
    spans = doc.pop("spans", None)
    if spans is not None:
        doc["spans_file"] = f"{stem}-spans.jsonl"
        with open(RESULTS / doc["spans_file"], "w", encoding="utf-8") as fh:
            for pass_index, pass_spans in enumerate(spans):
                for span in pass_spans:
                    fh.write(json.dumps([pass_index] + span) + "\n")
    path = RESULTS / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    path = write_results(doc)
    for name, m in doc["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    detail = doc["detail"]
    print(f"timings over {detail['passes']} untraced passes of "
          f"{detail['samples_per_pass']} operations; tail at "
          f"p{detail['tail_percentile']:.1f}; results in {path.relative_to(ROOT)}")
    for err in doc["errors"]:
        sys.stderr.write(f"failed operation: {err['error']}\n")
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
