"""Tests of the benchmark's own arithmetic, checks and workloads.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kaccrystal import base, kac  # noqa: E402


class Subset:
    """A workload cut down to chosen units of its first round."""

    def __init__(self, workload, pick):
        self.workload = workload
        self.units = pick(workload.round(0))

    def round(self, r):
        return self.units

    def run(self, unit):
        return self.workload.run(unit)

    def check(self, unit, output):
        return self.workload.check(unit, output)


def _measure(workload, tracer=None):
    meter = worker.SpeedMeter()
    meter.start()
    try:
        return worker.measure(workload, meter, units=len(workload.round(0)), tracer=tracer)
    finally:
        meter.stop()


_FIXED_TABLE = {(i % 13, i, -i): (i, i & 7) for i in range(5000)}


def _fixed_work(repeats):
    """Dict lookups that allocate nothing, so their cost adds up exactly."""
    total = 0
    for _ in range(repeats):
        for key in _FIXED_TABLE:
            total += _FIXED_TABLE[key][1]
    return total


class AddedWork:
    """Units that run base work, base plus added work, or the added work alone."""

    KINDS = ("base", "both", "added")

    def __init__(self, reps):
        self.units = [workloads.Unit(kind, None) for _ in range(reps) for kind in self.KINDS]

    def round(self, r):
        return self.units

    def run(self, unit):
        if unit.kind != "added":
            _fixed_work(20)
        if unit.kind != "base":
            _fixed_work(20)

    def check(self, unit, output):
        return None


def _small_graph_doc():
    g = kac.generate_graph(base.Weight.parse(base.make_rank(2, 2), "1,0|1,0"))
    return g.to_json()


def _relabel(doc, seed):
    """The same graph with its vertex ids permuted and both lists reversed."""
    perm = list(range(len(doc["vertices"])))
    random.Random(seed).shuffle(perm)
    return dict(
        doc,
        vertices=[dict(v, id=perm[v["id"]]) for v in reversed(doc["vertices"])],
        edges=[[perm[s], k, perm[d]] for s, k, d in reversed(doc["edges"])],
    )


def test_edge_digest_ignores_vertex_labels():
    doc = _small_graph_doc()
    assert workloads.element_digest(_relabel(doc, 7)) == workloads.element_digest(doc)


def test_edge_digest_sees_a_changed_edge():
    doc = _small_graph_doc()
    changed = dict(doc, edges=[list(e) for e in doc["edges"]])
    src, k, dst = changed["edges"][0]
    changed["edges"][0] = [dst, k, src]
    assert workloads.element_digest(changed) != workloads.element_digest(doc)


def test_self_times_subtract_direct_children():
    t = tracing.Tracer()
    root = t.add_span("a", 0.0, 10.0)
    b = t.add_span("b", 1.0, 4.0, root)
    t.add_span("c", 2.0, 3.0, b)
    t.add_span("b", 5.0, 6.0, root)
    t.add_span("a", 20.0, 21.0)
    totals, top = tracing.self_times(t)
    assert totals["a"] == pytest.approx((10.0 - 3.0 - 1.0 + 1.0, 2))
    assert totals["b"] == pytest.approx((3.0 - 1.0 + 1.0, 2))
    assert totals["c"] == pytest.approx((1.0, 1))
    assert top == pytest.approx(11.0)


@pytest.mark.parametrize(
    "n, q, rank",
    [(1, 50, 1), (8, 50, 4.5), (19, 50, 10), (21, 52, 11), (100, 90, 90), (150, 93, 140),
     (1000, 99, 990), (5000, 99, 4950)],
)
def test_tail_percentile_rule(n, q, rank):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    got_q, value = run.tail_percentile(values)
    assert (got_q, value) == (q, rank)
    if q > 50:
        assert sum(1 for v in values if v > value) >= 10


def test_scaled_time_counts_added_work_in_full():
    # work added inside a call must come out at its own scaled cost, not be
    # absorbed by the speed meter's reference timings taken during the call
    wl = AddedWork(60)
    res = _measure(wl)
    by_kind = {kind: [] for kind in AddedWork.KINDS}
    for unit, ms in zip(wl.units, res["latencies_ms"]):
        by_kind[unit.kind].append(ms)
    # the three calls of one triple run back to back, at nearly one host speed
    excess = [
        both - base - added
        for base, both, added in zip(*(by_kind[kind] for kind in AddedWork.KINDS))
    ]
    assert abs(statistics.median(excess)) < 0.05 * statistics.median(by_kind["added"])


def test_stratified_rounds_cover_the_pool_once():
    pool = list(range(37))
    rounds = workloads.stratified_rounds(pool, lambda x: x, 5, random.Random(1))
    assert sorted(x for row in rounds for x in row) == pool
    for row in rounds:
        strata = [x // 5 for x in row]
        assert sorted(strata) == list(range(len(row)))
        # the first half of a round already spans the strata evenly
        half = sorted(strata[:4])
        gaps = [b - a for a, b in zip(half, half[1:])] + [half[0] + len(row) - half[-1]]
        assert max(gaps) <= 2


def test_outside_elements_have_a_negative_weight_coordinate():
    wl = workloads.Bijection(3)
    rejects = [u.data for u in wl.round(0) if u.kind == "reject"]
    assert len(rejects) == wl.REJECTS
    assert all(min(b.weight().coords) < 0 for b in rejects)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_smoke_sweep():
    wl = Subset(
        workloads.Sweep(1),
        lambda units: sorted(units, key=lambda u: str(u.data))[:12],
    )
    res = _measure(wl)
    assert res["attempted"] == 12 and res["failed"] == 0, res["errors"]


def test_smoke_bijection_traced():
    tracer = tracing.Tracer("bijection")
    original = kac.apply_kac
    uninstall = tracer.install()
    try:
        res = _measure(workloads.Bijection(1), tracer)
    finally:
        uninstall()
    assert kac.apply_kac is original
    assert res["failed"] == 0, res["errors"]
    totals, top = tracing.self_times(tracer)
    assert totals["embedding.pi_bar"][1] == workloads.Bijection.TRIPS + workloads.Bijection.REJECTS
    assert top / res["raw_busy_s"] > 0.9


def test_smoke_crystal_big(tmp_path):
    wl = Subset(workloads.CrystalBig(1, str(tmp_path)), lambda units: units[:1])
    res = _measure(wl)
    assert res["failed"] == 0, res["errors"]
    with open(os.path.join(HERE, "edge_digests.json")) as fh:
        recorded = json.load(fh)
    [(weight, path)] = res["outputs"]
    assert workloads.check_crystal_file(path, weight, recorded[weight]) is None
    # renumbered vertices pass; a reversed edge does not
    with open(path) as fh:
        relabelled = _relabel(json.load(fh), 3)
    copy = tmp_path / "relabelled.json"
    copy.write_text(json.dumps(relabelled))
    assert workloads.check_crystal_file(str(copy), weight, recorded[weight]) is None
    src, k, dst = relabelled["edges"][0]
    relabelled["edges"][0] = [dst, k, src]
    copy.write_text(json.dumps(relabelled))
    reason = workloads.check_crystal_file(str(copy), weight, recorded[weight])
    assert reason is not None and "edge digest" in reason


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bijection", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "bijection",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [name for name, _ in run.END_TO_END] == list(result["metrics"])
