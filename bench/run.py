"""kaccrystal benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  Each measurement runs in a fresh
child process (bench/worker.py).  With --trace 0 the result holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, compared against an untraced run of the same rounds.  The last
line of standard output is the JSON result; the lines before it are a
readable summary.  The exit code is 0 only when every output checked out.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep", "crystal_big", "bijection")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("throughput", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)

# (metric, unit, span name or count key, what is read)
PER_LAYER = (
    ("kac.tables_s", "s", "kac.tables", "self"),
    ("kac.tables_built", "count", "kac.tables", "calls"),
    ("kac.tables_hit_ratio", "ratio", None, "hit_ratio"),
    ("kac.generate_s", "s", "kac.generate", "self"),
    ("kac.vertices", "count", "kac.vertices", "count"),
    ("kac.edges", "count", "kac.edges", "count"),
    ("kac.vertices_per_s", "1/s", None, "vertices_per_s"),
    ("kac.to_json_s", "s", "kac.to_json", "self"),
    ("kac.apply_kac_s", "s", "kac.apply_kac", "self"),
    ("kac.apply_kac_calls", "count", "kac.apply_kac", "calls"),
    ("verify.check_axioms_s", "s", "verify.check_axioms", "self"),
    ("verify.check_connected_s", "s", "verify.check_connected", "self"),
    ("verify.check_character_s", "s", "verify.check_character", "self"),
    ("verify.check_rho_commutation_s", "s", "verify.check_rho_commutation", "self"),
    ("verify.rho_elements", "count", "verify.rho_elements", "count"),
    ("rsk.rho_s", "s", "rsk.rho", "self"),
    ("rsk.rho_calls", "count", "rsk.rho", "calls"),
    ("rsk.rho_inverse_s", "s", "rsk.rho_inverse", "self"),
    ("rsk.rho_inverse_calls", "count", "rsk.rho_inverse", "calls"),
    ("rsk.apply_kappa_s", "s", "rsk.apply_kappa", "self"),
    ("rsk.apply_kappa_calls", "count", "rsk.apply_kappa", "calls"),
    ("embedding.xi_s", "s", "embedding.xi", "self"),
    ("embedding.xi_calls", "count", "embedding.xi", "calls"),
    ("embedding.pi_bar_s", "s", "embedding.pi_bar", "self"),
    ("embedding.pi_bar_calls", "count", "embedding.pi_bar", "calls"),
    ("embedding.pi_bar_reject_ratio", "ratio", None, "reject_ratio"),
    ("embedding.transport_iso_s", "s", "embedding.transport_iso", "self"),
    ("embedding.transport_iso_calls", "count", "embedding.transport_iso", "calls"),
    ("wordops.tableau_apply_s", "s", "wordops.tableau_apply", "self"),
    ("wordops.tableau_apply_calls", "count", "wordops.tableau_apply", "calls"),
    ("tableaux.enumerate_sst_s", "s", "tableaux.enumerate_sst", "self"),
    ("tableaux.enumerate_sst_calls", "count", "tableaux.enumerate_sst", "calls"),
    ("cli.serialize_self_s", "s", "cli.main", "self"),
    ("trace.busy_s", "s", None, "busy"),
    ("trace.coverage_ratio", "ratio", None, "coverage"),
    ("trace.overhead_ratio", "ratio", None, "overhead"),
    ("trace.items", "count", None, "items"),
    ("trace.spans", "count", None, "spans"),
    ("wall.throughput", "1/s", None, "wall_throughput"),
    ("wall.scale_ratio", "ratio", None, "wall_scale"),
)


class BenchError(Exception):
    pass


def tail_percentile(values):
    """(q, value): the highest whole percentile with at least ten samples
    above it, by nearest rank, capped at 99.  Below 20 samples no percentile
    above the median qualifies, and the value is the median."""
    ordered = sorted(values)
    n = len(ordered)
    q = min(99, math.floor(100 - 1000.0 / n))
    if q <= 50:
        return 50, statistics.median(ordered)
    return q, ordered[math.ceil(q * n / 100.0) - 1]


def layer_metrics(layers, counts, busy, top, spans, items, overhead, plain):
    """Per-layer metric values from a traced run's self times and counts.

    Self times are wall-clock seconds; `busy` is the traced run's wall-clock
    busy time, speed-meter ticks included as in the spans, which the
    top-level spans should nearly cover.  `plain` is the untraced run, whose
    unscaled throughput is reported beside the scaled end-to-end figures.
    """

    def self_s(name):
        return layers.get(name, (0.0, 0))[0]

    def calls(name):
        return layers.get(name, (0.0, 0))[1]

    lookups = calls("kac.table_lookup")
    derived = {
        "hit_ratio": (lookups - calls("kac.tables")) / lookups if lookups else 0.0,
        "vertices_per_s": (
            counts.get("kac.vertices", 0) / self_s("kac.generate") if calls("kac.generate") else 0.0
        ),
        "reject_ratio": (
            counts.get("embedding.pi_bar_rejects", 0) / calls("embedding.pi_bar")
            if calls("embedding.pi_bar")
            else 0.0
        ),
        "busy": busy,
        "coverage": top / busy if busy else 0.0,
        "overhead": overhead,
        "items": items,
        "spans": spans,
        "wall_throughput": plain["attempted"] / plain["raw_busy_s"],
        "wall_scale": plain["raw_busy_s"] / plain["busy_s"],
    }
    out = {}
    for metric, unit, key, kind in PER_LAYER:
        if kind == "self":
            value = self_s(key)
        elif kind == "calls":
            value = calls(key)
        elif kind == "count":
            value = counts.get(key, 0)
        else:
            value = derived[kind]
        out[metric] = {"value": value, "unit": unit}
    return out


def run_child(args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError("worker failed (%d): %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_crystal_outputs(result):
    """Read back the files the `crystal` commands wrote; returns failures."""
    outputs = result["outputs"]
    if not outputs:
        return []
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    with open(os.path.join(HERE, "edge_digests.json")) as fh:
        recorded = json.load(fh)
    failures = []
    for weight, path in outputs:
        try:
            reason = workloads.check_crystal_file(path, weight, recorded[weight])
            os.remove(path)
        except (OSError, ValueError, KeyError) as exc:
            reason = "%s: %s: %s" % (weight, type(exc).__name__, exc)
        if reason is not None:
            failures.append(reason)
    return failures


def measure(workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", str(seed)]
    crystal_dir = os.path.join(OUT, "crystal_%d" % os.getpid())
    shutil.rmtree(crystal_dir, ignore_errors=True)
    os.makedirs(crystal_dir)
    run_args = common + ["--mode", "run", "--out-dir", crystal_dir]
    span_file = os.path.join(OUT, "trace_%s.tsv" % workload)
    failures = []
    try:
        if not trace:
            setups = [
                run_child(common + ["--mode", "setup"])["setup_s"] for _ in range(SETUP_PROBES)
            ]
            runs = [run_child(run_args + ["--seconds", str(seconds)])]
            setups.append(runs[0]["setup_s"])
        else:
            # the untraced half fixes the calls; the traced half repeats them
            plain = run_child(run_args + ["--seconds", str(seconds / 2.0)])
            traced = run_child(run_args + ["--units", str(plain["units"]), "--trace", span_file])
            runs = [plain, traced]
        for res in runs:
            crystal_failures = check_crystal_outputs(res)
            res["failed"] += len(crystal_failures)
            failures += res["errors"] + crystal_failures
    finally:
        shutil.rmtree(crystal_dir, ignore_errors=True)
    main = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    summary = {
        "units": main["units"],
        "items": main["attempted"],
        "failures": failures,
        "raw_throughput": main["attempted"] / main["raw_busy_s"],
        "speed": main["raw_busy_s"] / main["busy_s"],
    }
    if not trace:
        lat = main["latencies_ms"]
        q, tail = tail_percentile(lat)
        summary.update(tail_percentile=q, samples=len(lat), fail_ratio=failed / attempted)
        values = {
            "throughput": main["attempted"] / main["busy_s"],
            "item_p50_ms": statistics.median(lat),
            "item_tail_ms": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "success_ratio": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        summary["span_file"] = os.path.relpath(span_file, ROOT)
        metrics = layer_metrics(
            main["layers"],
            main["counts"],
            main["raw_busy_s"] + main["handler_s"],
            main["top_s"],
            main["spans"],
            main["attempted"],
            main["busy_s"] / runs[0]["busy_s"] - 1.0,
            runs[0],
        )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kaccrystal", "__init__.py")):
        sys.stderr.write("no kaccrystal sources under %s\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        result, summary = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("benchmark failed: %s\n" % (exc,))
        return 1
    print("workload %s, seed %d, %d calls, %d items" % (
        args.workload, args.seed, summary["units"], summary["items"]))
    print("  wall-clock throughput %.6g 1/s; wall time / scaled time %.3f" % (
        summary["raw_throughput"], summary["speed"]))
    if not args.trace:
        print("  item_tail_ms is p%d of %d samples; fail_ratio %.6f" % (
            summary["tail_percentile"], summary["samples"], summary["fail_ratio"]))
    else:
        print("  spans written to %s" % summary["span_file"])
    for name, m in result["metrics"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    for reason in summary["failures"]:
        print("  FAILED: %s" % reason)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
