"""Record the edge digests that the crystal_big workload checks against.

    python3 bench/record_digests.py

Runs the `crystal` command once on every weight of the crystal_big pool and
writes bench/edge_digests.json.  Run it only on a commit whose graphs are
trusted; the recorded file was made on the commit that added the benchmark.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from kaccrystal import cli  # noqa: E402


def main():
    pool = workloads.CrystalBig(0).pool
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "record.json")
    recorded = {}
    for weight in pool:
        if cli.main(["crystal", "--rank", "3,2", "--lambda", weight, "--out", path]) != 0:
            raise SystemExit("crystal %s failed" % weight)
        with open(path) as fh:
            doc = json.load(fh)
        recorded[weight] = {
            "vertices": len(doc["vertices"]),
            "edges": len(doc["edges"]),
            "digest": workloads.element_digest(doc),
        }
        print(weight, recorded[weight], flush=True)
    os.remove(path)
    with open(os.path.join(HERE, "edge_digests.json"), "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
