"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]
                                [--trace 0|1] [--out FILE]

Workloads are interleaved (seed 1 of every workload, then seed 2, ...),
so slow drift of a shared machine lands on all of them alike.  For every
workload and metric it prints the median and the spread, the distance
between the first and third quartile as a share of the median; with
``--trace 0`` the spread is set against a third of the metric's bound in
BENCHMARK.json.  ``--out`` writes every run's result as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, traced):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(traced)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            runs[workload].append({"seed": seed, **result})
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()},
                  flush=True)

    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for metric in results[0]["metrics"]:
            stats = summarize([r["metrics"][metric]["value"] for r in results])
            summary[workload][metric] = stats
            line = (f"{workload:22} {metric:36} median {stats['median']:.6g}"
                    f"  spread {stats['spread']:.4f}")
            if metric in bounds:
                ok = stats["spread"] < bounds[metric] / 3 or metric == "setup_s"
                line += f"  bound {bounds[metric]}  {'ok' if ok else 'WIDE'}"
            print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"run_seconds": bench["run_seconds"], "trace": args.trace,
                       "python": platform.python_version(),
                       "cpus": os.cpu_count(), "machine": platform.machine(),
                       "summary": summary, "runs": runs}, fh, indent=1)


if __name__ == "__main__":
    main()
