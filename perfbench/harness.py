"""Run one workload for a fixed time, check it, and report its metrics.

The untraced run (``--trace 0``) gives the end-to-end metrics.  The
traced run (``--trace 1``) alternates plain and traced jobs, then runs
one job that counts kernel calls and times the polyring kernels; it gives
the per-layer metrics and the tracing overhead.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import tempfile
import time

import boolgb
from probes import polyring_probes
from reference import timed
from tracing import SPANS, Tracer
from workloads import WORKLOADS, Outcome

N = 6
WARMUP_N = 3
SETUPS = 5

END_TO_END = {"setup_s": "s", "corrected_wall_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "polyring.mono_divides_ns": "ns",
    "polyring.mono_lcm_ns": "ns",
    "polyring.mono_mul_full_ns": "ns",
    "polyring.mono_mul_boolean_ns": "ns",
    "polyring.key_deglex_ns": "ns",
    "polyring.key_degrevlex_ns": "ns",
    "polyring.parse_poly_us": "us",
    "polyring.format_poly_us": "us",
    "polyring.self_s": "s",
    "groebner.buchberger_s": "s",
    "groebner.interreduce_s": "s",
    "groebner.is_groebner_basis_s": "s",
    "groebner.is_reduced_basis_s": "s",
    "groebner.normal_form_s": "s",
    "groebner.dump_basis_s": "s",
    "groebner.load_basis_s": "s",
    "groebner.self_s": "s",
    "groebner.pairs_generated": "count",
    "groebner.pairs_pruned": "count",
    "groebner.pairs_reduced": "count",
    "groebner.reductions_to_zero": "count",
    "groebner.raw_basis_size": "count",
    "groebner.interreduce_dropped": "count",
    "groebner.useful_reduction_ratio": "ratio",
    "groebner.mono_divides_calls": "count",
    "groebner.mono_lcm_calls": "count",
    "construction.make_H_s": "s",
    "construction.make_G_s": "s",
    "construction.count_standard_monomials_s": "s",
    "construction.self_s": "s",
    "oracle.enumerate_solutions_s": "s",
    "oracle.points_per_s": "1/s",
    "oracle.self_s": "s",
    "cli.gb_s": "s",
    "cli.self_s": "s",
    "perfbench.self_s": "s",
    "trace.overhead_pct": "%",
}

# spans reported as "<span>_s"; parse and format are timed by the probes
SPAN_METRICS = [span for span in dict.fromkeys(name for *_, name in SPANS)
                if span + "_s" in PER_LAYER]
LAYERS = ("polyring", "groebner", "construction", "oracle", "cli", "perfbench")


def _run_job(workload, out):
    """One job; an exception is a failed operation, not the end of the run."""
    try:
        workload.job(out)
    except Exception as exc:  # noqa: BLE001 - counted in error_rate
        out.check(False, f"{type(exc).__name__}: {exc}")


def _timed(workload, out, tracer=None, job_id=0):
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        _run_job(workload, out)
    else:
        with tracer.job(job_id):
            _run_job(workload, out)
    return time.perf_counter() - start


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def measure(name, seed, seconds, workdir, n=N, import_s=0.0):
    """Untraced run: end-to-end metrics plus a human-readable report."""
    cls = WORKLOADS[name]
    setup_s = []
    for _ in range(SETUPS):
        gc.collect()
        workload, _, corrected_s = timed(lambda: cls(n, seed, workdir))
        setup_s.append(corrected_s)
    _run_job(cls(min(WARMUP_N, n), seed, workdir), Outcome())  # warm-up

    out = Outcome()
    job_s, corrected = [], []
    begin = time.perf_counter()
    while True:
        gc.collect()
        _, took, corrected_s = timed(lambda: _run_job(workload, out))
        job_s.append(took)
        corrected.append(corrected_s)
        # start another job only while at least half of it fits, so the
        # measured time is the run length give or take half a job
        if time.perf_counter() - begin + statistics.median(job_s) / 2 > seconds:
            break

    metrics = {
        "setup_s": import_s + statistics.median(setup_s),
        "corrected_wall_s": statistics.median(corrected),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {"jobs": len(job_s), "job_s_min": min(job_s),
              "job_s_median": statistics.median(job_s), "job_s_max": max(job_s),
              "error_rate": out.error_rate}
    if out.query_ms:
        report.update(query_p50_ms=statistics.median(out.query_ms),
                      query_p99_ms=_percentile(out.query_ms, 99),
                      query_samples=len(out.query_ms))
    return out, metrics, report


def trace(name, seed, seconds, workdir, n=N):
    """Traced run: per-layer metrics and the tracer it recorded."""
    cls = WORKLOADS[name]
    tracer = Tracer(boolgb)
    with tracer.job(-1):  # set-up is job -1
        workload = cls(n, seed, workdir)
    _run_job(cls(min(WARMUP_N, n), seed, workdir), Outcome())  # warm-up

    out = Outcome()
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        plain.append(_timed(workload, out))
        traced.append(_timed(workload, out, tracer, len(traced)))
        # leave room for another pair and for the counting job
        ahead = 2 * statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - begin + ahead > seconds:
            break
    with tracer.counting():
        _run_job(workload, out)

    totals, self_time = tracer.span_totals()
    jobs = range(len(traced))

    def over_jobs(values):
        return statistics.median(values) if values else 0.0

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(polyring_probes(n))
    for span in SPAN_METRICS:
        values = [totals[j].get(span, 0.0) for j in jobs]
        if not any(values):  # called during set-up only
            values = [totals.get(-1, {}).get(span, 0.0)]
        metrics[span + "_s"] = over_jobs(values)
    for layer in LAYERS:
        metrics[layer + ".self_s"] = over_jobs(
            [self_time[j].get(layer, 0.0) for j in jobs])

    enumerations = [s for s in tracer.spans
                    if s[0] == "oracle.enumerate_solutions" and s[4] >= 0]
    if enumerations:
        busy = sum(end - start for _, start, end, _, _ in enumerations)
        metrics["oracle.points_per_s"] = len(enumerations) * 2 ** (3 * n) / busy

    if "groebner.buchberger" in tracer.last:
        (F, *_), (raw, stats) = tracer.last["groebner.buchberger"]
        nonzero = len(raw) - len(F)
        reduced = stats.reductions_to_zero + nonzero
        metrics.update({
            "groebner.pairs_generated": stats.pairs_generated,
            "groebner.pairs_pruned": stats.pairs_skipped_by_criteria,
            "groebner.pairs_reduced": reduced,
            "groebner.reductions_to_zero": stats.reductions_to_zero,
            "groebner.raw_basis_size": len(raw),
            "groebner.useful_reduction_ratio": nonzero / reduced if reduced else 0.0,
        })
    if "groebner.interreduce" in tracer.last:
        (before, *_), after = tracer.last["groebner.interreduce"]
        metrics["groebner.interreduce_dropped"] = len(before) - len(after)
    metrics.update(tracer.counts)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return out, metrics, tracer


def run(name, seed, seconds, traced, out_dir, n=N, import_s=0.0):
    """Run one workload; returns (result object, report lines)."""
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
        if traced:
            out, metrics, tracer = trace(name, seed, seconds, workdir, n)
            units = PER_LAYER
            tracer.write(os.path.join(out_dir, f"trace-{name}-{seed}.json"),
                         {"workload": name, "seed": seed, "n": n})
            report = {}
        else:
            out, metrics, report = measure(name, seed, seconds, workdir, n, import_s)
            units = END_TO_END
    lines = [f"workload {name} n={n} seed={seed} trace={int(traced)}"]
    lines += [f"{key} = {metrics[key]:.6g} {unit}" for key, unit in units.items()]
    lines += [f"{key} = {value:.6g}" for key, value in report.items()]
    lines += [f"FAILED: {what}" for what in out.failures[:20]]
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }
    return result, lines


def main(argv, import_s, out_dir):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        out_dir, n=N, import_s=import_s)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
