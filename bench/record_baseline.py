"""Run every workload over several seeds and record the results.

    python3 bench/record_baseline.py [--out bench/baseline.json]

For each workload it runs bench/run.py once per seed in SEEDS with --trace 0
and once with --trace 1 and seed TRACE_SEED, then writes every run, the
median of each end-to-end metric, its spread (distance between the first and
third quartile over the median) and a description of the machine.  Each run
also keeps the wall-clock throughput that the summary prints, so the scaled
`throughput` can be checked against it.  Compare two such files only when
they come from the same machine.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
TRACE_SEED = 1
WALL_LINE = re.compile(r"wall-clock throughput (\S+) 1/s; wall time / scaled time (\S+)")


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": commit,
    }


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s%s" % (workload, seed, proc.stdout, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = WALL_LINE.search(proc.stdout)
    result["wall_throughput"] = float(wall.group(1))
    result["wall_scale_ratio"] = float(wall.group(2))
    return result


def summarize(runs):
    out = {}
    columns = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
    columns["wall_throughput"] = [r["wall_throughput"] for r in runs]
    for name, values in columns.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    record = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in SEEDS:
            runs.append(dict(bench(name, seed, seconds, 0), seed=seed))
            print(name, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        traced = dict(bench(name, TRACE_SEED, seconds, 1), seed=TRACE_SEED)
        record["workloads"][name] = {
            "summary": summarize(runs),
            "runs": runs,
            "traced": traced,
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
