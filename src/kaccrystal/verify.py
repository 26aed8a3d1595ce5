"""Verification suite: crystal axioms, connectedness, characters, bridges.

Each check returns a CheckResult with a machine-readable witness on failure.
The sweep runs every dominant weight with coordinates in a box for a list of
ranks.  Weights that define literally the same graph up to a constant weight
offset (their factor shapes coincide after shifting into partition range)
share one full check run; all three graph checks are invariant under that
offset, and the sharing is recorded in the result counts.
"""

import itertools
import json
import operator
import time
from collections import Counter
from dataclasses import dataclass, field

from . import base, embedding, kac, rsk, tableaux, wordops
from .errors import KacCrystalError, SizeCapExceeded

DEFAULT_RANKS = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))
DEFAULT_BOX = (-2, 4)


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: str = None
    counts: dict = field(default_factory=dict)
    ms: float = 0.0

    def to_json(self):
        return {
            "name": self.name,
            "pass": self.ok,
            "witness": self.witness,
            "counts": self.counts,
            "ms": round(self.ms, 3),
        }


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        res = fn(*args, **kwargs)
        res.ms = (time.perf_counter() - t0) * 1000.0
        return res

    return wrapper


@_timed
def check_axioms(g):
    """Kashiwara's axioms, one partial-map identity per color: down[k] (the
    k-edges) and up (the graph's raising move list at k) invert each
    other, every k-edge lowers the weight by alpha_k, color 0 never lowers
    twice, and phi_k - eps_k = <h_k, wt> on the even colors.

    Distinct weights are numbered once (wn[v] for vertex v).  Per color,
    below[n] numbers weight n - alpha_k (-1 if absent) and pairing[n] =
    alpha_k . weight n = <h_k, weight n>: a weight step is one comparison.
    """
    def bad(witness):
        return CheckResult("axioms", False, witness)

    nv = len(g.vertices)
    down = {k: [None] * nv for k in base.colors(g.rank)}
    for src, k, dst in g.edges:
        if not (0 <= src < nv and 0 <= dst < nv):
            return bad("edge (%d, %d, %d) leaves the vertex set" % (src, k, dst))
        dk = down[k]
        if dk[src] is not None:
            return bad("two %d-edges out of vertex %d" % (k, src))
        dk[src] = dst
    number = {}
    wn = [number.setdefault(w, len(number)) for w in map(g.weight_coords, g.vertices)]
    sub, mul = operator.sub, operator.mul
    for k, dn in down.items():
        root = base.simple_root(g.rank, k).coords
        below = [number.get(tuple(map(sub, w, root)), -1) for w in number]
        pairing = [sum(map(mul, root, w)) for w in number]
        up = g.moves(k, wordops.RAISE)
        for v, (u, d) in enumerate(zip(up, dn)):
            if u is not None and dn[u] != v:
                return bad("raising at color %d from vertex %d misses edge" % (k, v))
            if d is not None:
                if up[d] != v:
                    return bad("raising at color %d from vertex %d not reciprocal" % (k, d))
                if wn[d] != below[wn[v]]:
                    return bad("weight step wrong on edge (%d, %d, %d)" % (v, k, d))
                if k == 0 and dn[d] is not None:
                    return bad("color 0 applied twice at vertex %d" % v)
            if k != 0 and u is None:
                # a string head (eps = 0) has exactly <h_k, wt> k-edges below it
                w, left = v, pairing[wn[v]]
                while left > 0 and w is not None:
                    w, left = dn[w], left - 1
                if left or w is None or dn[w] is not None:
                    return bad("phi - eps wrong at color %d on the string from vertex %d" % (k, v))
    return CheckResult("axioms", True, counts={"vertices": nv, "edges": len(g.edges)})


@_timed
def check_connected(g):
    """Single component plus a census of raising-killed vertices.

    Exactly one source may carry the generating weight; sources at other
    weights exist and are reported, not rejected.  An edge endpoint outside
    the vertex set fails the check.
    """
    nv = len(g.vertices)
    adj = [[] for _ in range(nv)]
    for src, k, dst in g.edges:
        if not (0 <= src < nv and 0 <= dst < nv):
            witness = "edge (%d, %d, %d) leaves the vertex set" % (src, k, dst)
            return CheckResult("connected", False, witness)
        adj[src].append(dst)
        adj[dst].append(src)
    seen = [False] * nv
    components = 0
    for v0 in range(nv):
        if seen[v0]:
            continue
        components += 1
        stack = [v0]
        seen[v0] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    sources = g.source_vertices()
    lam_coords = g.lam.coords
    genuine = [v for v in sources if g.weight_coords(v) == lam_coords]
    fakes = [v for v in sources if g.weight_coords(v) != lam_coords]
    ok = components == 1 and len(genuine) == 1
    witness = None
    if components != 1:
        witness = "%d components" % components
    elif len(genuine) != 1:
        witness = "%d sources at the generating weight" % len(genuine)
    elif fakes:
        witness = "fake source example: vertex %d at weight %s" % (
            fakes[0],
            g.weight(fakes[0]),
        )
    return CheckResult(
        "connected",
        ok,
        witness,
        {"components": components, "sources": len(sources), "fake_sources": len(fakes)},
    )


@_timed
def check_character(g):
    """Vertex count and weight multiset against the factored oracle.

    The oracle multiplies the weight multisets of the offset, the root power
    set and both tableau factors, whose fillings are enumerated directly,
    never through the operators.
    """
    expected = (
        (1 << (g.rank.m * g.rank.n))
        * len(g.plus_table.elements)
        * len(g.minus_table.elements)
    )
    if len(g.vertices) != expected:
        return CheckResult(
            "character",
            False,
            "vertex count %d, expected %d" % (len(g.vertices), expected),
        )
    add = operator.add
    oracle = Counter([g.offset.coords])
    for table in (g.s_table, g.plus_table, g.minus_table):
        terms, factor = oracle.items(), Counter(table.weights).items()
        oracle = Counter()
        for x, a in terms:
            for y, b in factor:
                oracle[tuple(map(add, x, y))] += a * b
    got = Counter(map(g.weight_coords, g.vertices))
    if got != oracle:
        diff = next(iter((got - oracle) + (oracle - got)))
        return CheckResult(
            "character", False, "weight multiplicity differs at %s" % (diff,)
        )
    return CheckResult("character", True, counts={"vertices": expected})


@_timed
def check_rho_commutation(lam, ell=None):
    """Exhaustive round-trip, bijectivity and intertwining of the insertion
    map on the dual-model crystal graph of a weight in the window.

    rho runs once per vertex, directly on its element.  Each Kac step
    b -> f(b) is read from the graph's move lists as a vertex id, so the
    intertwining target rho(f(b)) is compared by number once every vertex
    has its image.
    """
    def bad(witness):
        return CheckResult("rho", False, witness)

    if ell is None:
        ell = kac.dual_ell(lam)
    g = kac.generate_graph(lam, model=kac.MODEL_DUAL, ell=ell)
    targets = {k.key(): i for i, k in enumerate(rsk.enumerate_image(lam, ell))}
    image = [None] * len(g.vertices)  # image[v]: target number of rho(element v)
    seen = set()
    moves = [
        (k, direction, g.moves(k, direction))
        for k in base.colors(lam.rank)
        for direction in (wordops.RAISE, wordops.LOWER)
    ]
    # (v, k, direction, id of f(b), target number of f(rho(b))) per step
    steps = []
    for v in g.vertices:
        b = g.element(v)
        try:
            img = rsk.rho(b)
        except KacCrystalError as exc:
            return bad("forward map failed on %s: %s" % (b, exc))
        t = targets.get(img.key())
        if t is None:
            return bad("image %s outside the target set" % (img.key(),))
        if t in seen:
            return bad("two elements share image %s" % (img.key(),))
        seen.add(t)
        image[v] = t
        if rsk.rho_inverse(img) != b:
            return bad("round trip failed at %s" % (b,))
        if img.weight() != b.weight():
            return bad("weight not preserved at %s" % (b,))
        for k, direction, moved in moves:
            rhs = rsk.apply_kappa(k, direction, img)
            if (moved[v] is None) != (rhs is None):
                return bad("null mismatch at color %d (%s) on %s" % (k, direction, b))
            if rhs is not None:
                steps.append((v, k, direction, moved[v], targets.get(rhs.key())))
    for v, k, direction, w, t in steps:
        if t is None or image[w] != t:
            return bad(
                "intertwining fails at color %d (%s) on %s" % (k, direction, g.element(v))
            )
    if len(g.vertices) != len(targets):
        return bad("image has %d elements, target %d" % (len(g.vertices), len(targets)))
    return CheckResult("rho", True, counts={"domain": len(g.vertices)})


@_timed
def check_compatibility(rank, shape, cap=kac.DEFAULT_CAP):
    """The hook tableau crystal embeds into its Kac crystal.

    Checks that every image is a vertex of the graph, injectivity, weight
    preservation, the partial inverse, intertwining, and that the embedding
    is onto exactly when the weight is typical.  xi runs once per tableau,
    directly on it, and its result is numbered by vertex id; the
    intertwining targets are read from the graph's move lists.  pi_bar runs
    once per vertex, on the tableau's image for a vertex in the image.
    """
    def bad(witness):
        return CheckResult("compatibility", False, witness)

    shape = base.normalize_partition(shape)
    lam = base.hook_weight(rank, shape)
    tabs = tableaux.enumerate_sst(base.ALPHABET_B, rank, shape)
    g = kac.generate_graph(lam, cap=cap)
    embedded = {}  # t.rows -> vertex id of xi(t)
    image = set()
    for t in tabs:
        b = embedding.xi(rank, t)
        v = g.vertex_id(b)
        if v is None:
            return bad("image of %s is not a vertex" % (t.rows,))
        if b.weight() != t.weight(rank):
            return bad("weight differs at %s" % (t.rows,))
        if v in image:
            return bad("two tableaux map to %s" % (b.key(),))
        image.add(v)
        embedded[t.rows] = v
        if embedding.pi_bar(rank, b) != t:
            return bad("partial inverse fails at %s" % (t.rows,))
    ks = base.colors(rank)
    moves = {
        (k, direction): g.moves(k, direction)
        for k in ks
        for direction in (wordops.RAISE, wordops.LOWER)
    }
    for t in tabs:
        v = embedded[t.rows]
        for k in ks:
            for direction in (wordops.RAISE, wordops.LOWER):
                moved = wordops.tableau_apply(rank, k, direction, t)
                if moved is None:
                    continue
                target = moves[k, direction][v]
                if target is None or target != embedded.get(moved.rows):
                    return bad(
                        "intertwining fails at color %d (%s) on %s" % (k, direction, t.rows)
                    )
    for v in g.vertices:
        if v in image:
            continue  # pi_bar(xi(t)) == t was checked above
        back = embedding.pi_bar(rank, g.element(v))
        if back is not None:
            again = embedded.get(back.rows)
            if again is None:
                again = g.vertex_id(embedding.xi(rank, back))
            if again != v:
                return bad("inverse leaves the image at vertex %d" % v)
    typical = base.is_typical(lam)
    if (len(image) == len(g.vertices)) != typical:
        return bad(
            "%s is %s but the image holds %d of %d vertices"
            % (lam, "typical" if typical else "atypical", len(image), len(g.vertices))
        )
    return CheckResult(
        "compatibility", True, counts={"tableaux": len(tabs), "vertices": len(g.vertices)}
    )


@_timed
def check_reading_order(rank, shape):
    """Operator results agree for both admissible reading orders."""
    shape = base.normalize_partition(shape)
    tabs = tableaux.enumerate_sst(base.ALPHABET_B, rank, shape)
    for t in tabs:
        for k in base.colors(rank):
            for direction in (wordops.RAISE, wordops.LOWER):
                a = wordops.tableau_apply(rank, k, direction, t, tableaux.READ_BY_COLUMNS)
                b = wordops.tableau_apply(rank, k, direction, t, tableaux.READ_BY_ROWS)
                if a != b:
                    return CheckResult(
                        "reading-order",
                        False,
                        "orders disagree at color %d (%s) on %s" % (k, direction, t.rows),
                    )
    return CheckResult("reading-order", True, counts={"tableaux": len(tabs)})


# ---------------------------------------------------------------------------
# sweeps


def dominant_tuples(length, lo, hi):
    out = []

    def rec(acc, ceiling):
        if len(acc) == length:
            out.append(tuple(acc))
            return
        for v in range(ceiling, lo - 1, -1):
            acc.append(v)
            rec(acc, v)
            acc.pop()

    rec([], hi)
    return out


def default_instances(ranks=DEFAULT_RANKS, box=DEFAULT_BOX):
    lo, hi = box
    for m, n in ranks:
        rank = base.make_rank(m, n)
        for bs in dominant_tuples(m, lo, hi):
            for us in dominant_tuples(n, lo, hi):
                yield base.Weight(rank, bs + us)


def check_graph_instance(lam, cap=kac.DEFAULT_CAP):
    g = kac.generate_graph(lam, cap=cap)
    return [check_axioms(g), check_connected(g), check_character(g)]


def _check_class(lam, cap):
    """Graph checks of one class, or the message when it is over the cap.

    Any other exception fails the class with the exception as its witness,
    and its traceback goes to the log, so the rest of the sweep still runs.
    """
    try:
        return check_graph_instance(lam, cap=cap)
    except SizeCapExceeded as exc:
        return str(exc)
    except Exception as exc:
        import logging  # only here: importing it costs every sweep ~0.4 MB of RSS

        logging.getLogger(__name__).exception("checks of %s raised", lam)
        return [CheckResult("error", False, "%s: %s" % (type(exc).__name__, exc))]


def _class_key(lam):
    shape_plus, shape_minus, _ = kac._standard_factors(lam)
    return (lam.rank, base.normalize_partition(shape_plus), shape_minus)


def run_sweep(ranks=DEFAULT_RANKS, box=DEFAULT_BOX, cap=kac.DEFAULT_CAP, threads=1):
    """Graph checks over every dominant weight in the box.

    Returns (reports, ok).  Weights sharing a graph up to weight offset are
    checked once; their reports point at the representative.  A class over
    the vertex cap is reported with "skipped" and no checks; a class whose
    checks raise is reported with one failed "error" check.
    """
    instances = list(default_instances(ranks, box))
    classes = {}
    order = []
    for lam in instances:
        key = _class_key(lam)
        if key not in classes:
            classes[key] = lam
            order.append(key)
    rep_results = {}
    if threads > 1:
        import concurrent.futures

        reps = [classes[key] for key in order]
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            for key, results in zip(order, pool.map(_check_class, reps, itertools.repeat(cap))):
                rep_results[key] = results
    else:
        for key in order:
            rep_results[key] = _check_class(classes[key], cap)
    reports = []
    ok = True
    for lam in instances:
        key = _class_key(lam)
        rep = classes[key]
        instance = {"rank": [lam.rank.m, lam.rank.n], "lambda": str(lam)}
        if isinstance(rep_results[key], str):
            reports.append({"instance": instance, "skipped": rep_results[key], "checks": []})
            continue
        checks = []
        for res in rep_results[key]:
            counts = dict(res.counts)
            if rep is not lam:
                counts["checked_as"] = str(rep)
            checks.append(
                CheckResult(res.name, res.ok, res.witness, counts, res.ms)
            )
            ok = ok and res.ok
        reports.append({"instance": instance, "checks": [c.to_json() for c in checks]})
    return reports, ok


def report_to_json(reports):
    return json.dumps(reports, indent=2, sort_keys=True)
