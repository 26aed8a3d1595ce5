"""Span recorder for the traced benchmark run.

The benchmark wraps public functions of each kaccrystal module from here,
so the program itself carries no timing code.  Each call becomes one span
(name, start, end, parent span, item id); the workload name is stored once
per trace.  Spans live in flat arrays while the run is going and are written
out when it ends.
"""

import functools
from array import array
from time import perf_counter

from kaccrystal import cli, embedding, kac, rsk, tableaux, verify, wordops

# (owner, attribute, span name).  Every call in kaccrystal goes through a
# module or class attribute, so replacing the attribute catches internal
# calls too.
LAYER_FUNCTIONS = (
    (cli, "main", "cli.main"),
    (kac, "generate_graph", "kac.generate"),
    (kac, "factor_table", "kac.table_lookup"),
    (kac, "odd_table", "kac.table_lookup"),
    (kac.FactorTable, "__init__", "kac.tables"),
    (kac.OddTable, "__init__", "kac.tables"),
    (kac.CrystalGraph, "to_json", "kac.to_json"),
    (kac, "apply_kac", "kac.apply_kac"),
    (verify, "check_axioms", "verify.check_axioms"),
    (verify, "check_connected", "verify.check_connected"),
    (verify, "check_character", "verify.check_character"),
    (verify, "check_rho_commutation", "verify.check_rho_commutation"),
    (rsk, "rho", "rsk.rho"),
    (rsk, "rho_inverse", "rsk.rho_inverse"),
    (rsk, "apply_kappa", "rsk.apply_kappa"),
    (embedding, "xi", "embedding.xi"),
    (embedding, "pi_bar", "embedding.pi_bar"),
    (embedding, "transport_iso", "embedding.transport_iso"),
    (wordops, "tableau_apply", "wordops.tableau_apply"),
    (tableaux, "enumerate_sst", "tableaux.enumerate_sst"),
)


class Tracer:
    """Spans of one process, one thread, kept in parallel arrays."""

    def __init__(self, workload=""):
        self.workload = workload
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.item_id = -1
        self._stack = []

    def name_index(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name, start, end, parent=-1, item=-1):
        """Append a finished span; returns its index."""
        self.name_id.append(self.name_index(name))
        self.parent.append(parent)
        self.item.append(item)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn):
        nid = self.name_index(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.item_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            _count_result(self, name, result)
            return result

        return traced

    def install(self):
        """Wrap every layer function; returns a callable that undoes it."""
        saved = []
        for owner, attr, name in LAYER_FUNCTIONS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

        def uninstall():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return uninstall

    def write(self, path):
        """One tab-separated line per span: index, name, start, end, parent, item."""
        with open(path, "w") as fh:
            fh.write("# workload %s\n" % self.workload)
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                    % (i, names[self.name_id[i]], self.start[i], self.end[i],
                       self.parent[i], self.item[i])
                )


def _count_result(tracer, name, result):
    """Counts that only the return value shows."""
    if name == "kac.generate":
        tracer.count("kac.vertices", len(result.vertices))
        tracer.count("kac.edges", len(result.edges))
    elif name == "embedding.pi_bar" and result is None:
        tracer.count("embedding.pi_bar_rejects")
    elif name == "verify.check_rho_commutation":
        tracer.count("verify.rho_elements", result.counts.get("domain", 0))


def self_times(tracer):
    """Per span name: (self seconds, calls), plus the top-level busy time.

    A span's self time is its duration minus the durations of its direct
    children.  Spans of one thread nest, so children never overlap.
    """
    n = len(tracer.start)
    child = [0.0] * n
    top = 0.0
    for i in range(n):
        dur = tracer.end[i] - tracer.start[i]
        p = tracer.parent[i]
        if p < 0:
            top += dur
        else:
            child[p] += dur
    totals = {}
    for i in range(n):
        name = tracer.names[tracer.name_id[i]]
        own, calls = totals.get(name, (0.0, 0))
        totals[name] = (own + tracer.end[i] - tracer.start[i] - child[i], calls + 1)
    return totals, top
