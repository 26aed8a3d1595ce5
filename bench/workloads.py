"""The three benchmark workloads: input generation, timed work, output checks.

Each workload turns a seed into an endless sequence of rounds.  A round is a
list of units; a unit is one call into kaccrystal that counts as one or more
items.  Rounds are built by stratified sampling: the pool is sorted by a cost
estimate, cut into strata of neighbours, and every round takes one member of
each stratum.  Any prefix of whole rounds therefore has the same cost profile
whatever the seed, which keeps run-to-run spread small while every input
still comes from the seed.
"""

import hashlib
import json
import os
import random

from kaccrystal import base, cli, embedding, kac, tableaux, verify, wordops

class Unit:
    """One timed call: its kind, its input and the number of items it counts."""

    __slots__ = ("kind", "data", "items")

    def __init__(self, kind, data, items=1):
        self.kind = kind
        self.data = data
        self.items = items


def spread_order(length):
    """0 .. length-1 in bit-reversed order: each prefix is spread evenly."""
    size = 1
    while size < length:
        size *= 2
    bits = size.bit_length() - 1
    reversed_ = (int(format(j, "0%db" % bits)[::-1], 2) if bits else 0 for j in range(size))
    return [i for i in reversed_ if i < length]


def stratified_rounds(pool, cost, stratum, rng):
    """Rounds over the whole pool; every round takes one member of each stratum.

    The pool is ranked by cost and cut into strata of `stratum` neighbours.
    Within a stratum, rounds visit the members in bit-reversed rank order
    from a seeded offset, so the first k rounds pick members spread evenly
    over each stratum's cost range.  Inside a round the strata come in
    bit-reversed order from a seeded start, so a run that stops part way
    through a round has still sampled the whole cost range evenly.
    """
    ranked = sorted(pool, key=cost)
    strata = [ranked[i:i + stratum] for i in range(0, len(ranked), stratum)]
    visits = []
    for group in strata:
        offset = rng.randrange(len(group))
        visits.append([group[(offset + i) % len(group)] for i in spread_order(len(group))])
    rounds = []
    for r in range(stratum):
        row = [members[r] for members in visits if r < len(members)]
        start = rng.randrange(len(row))
        rounds.append([row[(start + i) % len(row)] for i in spread_order(len(row))])
    return rounds


def vertex_count(rank, shape_plus, shape_minus):
    """|B(lambda)| = 2^(mn) |T+| |T-|, with the factors counted by brute force."""
    plus = tableaux.enumerate_sst(base.ALPHABET_BPLUS, rank, shape_plus)
    minus = tableaux.enumerate_sst(base.ALPHABET_BMINUS, rank, shape_minus)
    return (1 << (rank.m * rank.n)) * len(plus) * len(minus)


def sweep_classes():
    """Default-sweep weights grouped into offset classes, with vertex counts."""
    classes = {}
    for lam in verify.default_instances():
        classes.setdefault(verify._class_key(lam), []).append(lam)
    return {
        key: (lams, vertex_count(*key)) for key, lams in classes.items()
    }


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """Graph generation plus the three graph checks, one offset class per unit.

    Weights of one offset class define the same graph up to a constant
    weight shift, so they share one run as in verify.run_sweep; the unit
    runs a seeded representative of its class.  Strata of 8 classes make a
    round of 163 units, an eighth of the default sweep; 8 rounds cover every
    class once.  The largest class opens round 0, so every run's peak memory
    includes the largest graph of the sweep.
    """

    STRATUM = 8

    def __init__(self, seed, out_dir=None):
        rng = random.Random("sweep:%d" % seed)
        classes = sweep_classes()
        pool = sorted(classes, key=str)

        def cost(key):
            return (classes[key][1] * len(base.colors(key[0])), str(key))

        largest = max(pool, key=cost)
        pool.remove(largest)
        rounds = stratified_rounds(pool, cost, self.STRATUM, rng)
        rounds[0].insert(0, largest)
        self.expected = {}
        self.rounds = []
        for row in rounds:
            units = []
            for key in row:
                lam = rng.choice(classes[key][0])
                self.expected[lam] = classes[key][1]
                units.append(Unit("class", lam))
            self.rounds.append(units)

    def round(self, r):
        return self.rounds[r % len(self.rounds)]

    def run(self, unit):
        g = kac.generate_graph(unit.data)
        results = [verify.check_axioms(g), verify.check_connected(g), verify.check_character(g)]
        return len(g.vertices), [(r.name, r.ok, r.witness) for r in results]

    def check(self, unit, output):
        nv, results = output
        if nv != self.expected[unit.data]:
            return "%s: %d vertices, expected %d" % (unit.data, nv, self.expected[unit.data])
        for name, ok, witness in results:
            if not ok:
                return "%s: %s failed: %s" % (unit.data, name, witness)
        return None


# ---------------------------------------------------------------------------
# crystal_big


class CrystalBig:
    """The `crystal` command on the largest rank-(3,2) default-sweep graphs.

    The pool is every rank-(3,2) default-sweep weight with at least 19,000
    vertices: 20 weights with seven sizes from 19,200 to 28,672 vertices.
    The first command runs the largest weight, so every run's peak memory
    includes it.  The other 19 weights are ranked by size and visited in
    bit-reversed rank order, so any number of commands covers the size
    range evenly; the seed picks, at each step, one of the weights of that
    size.  Every seed thus runs the same sizes in the same order, and
    command time follows size.  A round is 5 commands, about 15 s at the
    commit that added the benchmark; a faster program fits more rounds in a
    run, and so averages the largest weight over more commands.  Outputs are
    checked by the parent process after the run, so the checker's memory
    does not count toward peak RSS.
    """

    MIN_VERTICES = 19000
    ROUND = 5

    def __init__(self, seed, out_dir=None):
        rng = random.Random("crystal_big:%d" % seed)
        rank = base.make_rank(3, 2)
        class_size = {}
        by_size = {}
        for lam in verify.default_instances(ranks=(tuple(rank),)):
            key = verify._class_key(lam)
            if key not in class_size:
                class_size[key] = vertex_count(*key)
            if class_size[key] >= self.MIN_VERTICES:
                by_size.setdefault(class_size[key], []).append(str(lam))
        sizes = sorted(n for n, weights in by_size.items() for _ in weights)
        largest = sizes.pop()
        schedule = [largest] + [sizes[i] for i in spread_order(len(sizes))]
        self.pool = sorted(w for weights in by_size.values() for w in weights)
        self.out_dir = out_dir
        units = [Unit("crystal", rng.choice(sorted(by_size[n]))) for n in schedule]
        self.rounds = [units[i:i + self.ROUND] for i in range(0, len(units), self.ROUND)]
        self._serial = 0

    def round(self, r):
        return self.rounds[r % len(self.rounds)]

    def run(self, unit):
        path = os.path.join(self.out_dir, "crystal_%d_%d.json" % (os.getpid(), self._serial))
        self._serial += 1
        code = cli.main(["crystal", "--rank", "3,2", "--lambda", unit.data, "--out", path])
        if code != 0:
            raise RuntimeError("crystal %s exited with %d" % (unit.data, code))
        return path

    def check(self, unit, output):
        # the file is read by the parent, outside this process
        return None


def element_digest(doc):
    """Order-independent digest of a `crystal` JSON document's edges.

    Each edge contributes the hash of (source vertex, colour, target vertex),
    with a vertex written as canonical JSON of its element and weight but not
    its id, so relabelling the vertices leaves the digest unchanged.
    """
    canon = {}
    for v in doc["vertices"]:
        elem = {key: val for key, val in v.items() if key != "id"}
        canon[v["id"]] = json.dumps(elem, sort_keys=True, separators=(",", ":"))
    total = 0
    for src, k, dst in doc["edges"]:
        line = "%s|%d|%s" % (canon[src], k, canon[dst])
        total += int.from_bytes(hashlib.sha256(line.encode()).digest()[:16], "big")
    return "%032x" % (total % (1 << 128))


def check_crystal_file(path, weight, recorded):
    """None when the written graph matches the recorded one, else a reason.

    The file must have the right header, vertex ids 0..N-1 with N counted
    from the tableau factors, and the recorded edge count and edge digest.
    Vertex ids may come in any order.
    """
    with open(path) as fh:
        doc = json.load(fh)
    rank = base.make_rank(3, 2)
    lam = base.Weight.parse(rank, weight)
    shape_plus, shape_minus, _ = kac._standard_factors(lam)
    expected = vertex_count(rank, shape_plus, shape_minus)
    if doc["lambda"] != weight or doc["rank"] != [3, 2]:
        return "%s: header %r %r" % (weight, doc["rank"], doc["lambda"])
    ids = sorted(v["id"] for v in doc["vertices"])
    if len(ids) != expected or ids != list(range(expected)):
        return "%s: %d vertices, expected %d" % (weight, len(ids), expected)
    if len(doc["edges"]) != recorded["edges"]:
        return "%s: %d edges, expected %d" % (weight, len(doc["edges"]), recorded["edges"])
    digest = element_digest(doc)
    if digest != recorded["digest"]:
        return "%s: edge digest %s, expected %s" % (weight, digest, recorded["digest"])
    return None


# ---------------------------------------------------------------------------
# bijection


def random_tableau(rng, letters, odd, shape, tries=10000):
    """Seeded semistandard filling of a straight shape, with restarts.

    Rows weakly increase and are strict on odd letters; columns weakly
    increase and are strict on even letters.
    """
    for _ in range(tries):
        rows = []
        for r, length in enumerate(shape):
            row = []
            for c in range(length):
                allowed = [
                    v
                    for v in letters
                    if not (row and (v < row[-1] or (v == row[-1] and odd(v))))
                    and not (r and (v < rows[r - 1][c] or (v == rows[r - 1][c] and not odd(v))))
                ]
                if not allowed:
                    break
                row.append(rng.choice(allowed))
            if len(row) < length:
                break
            rows.append(tuple(row))
        else:
            return tuple(rows)
    raise RuntimeError("no semistandard filling of %r found" % (shape,))


def _partitions(size, max_part, max_len):
    if size == 0:
        return [()]
    if max_len == 0:
        return []
    out = []
    for first in range(min(size, max_part), 0, -1):
        for rest in _partitions(size - first, first, max_len - 1):
            out.append((first,) + rest)
    return out


def hook_shapes(rank, sizes, max_part, max_len):
    return [
        p
        for size in sizes
        for p in _partitions(size, max_part, max_len)
        if base.in_hook(rank, p)
    ]


def window_weights(ranks, barred_lo, unbarred_hi):
    """Dominant weights with barred parts in [barred_lo, 0] and unbarred
    parts in [0, unbarred_hi]: the domain window of the insertion map."""
    out = []
    for m, n in ranks:
        rank = base.make_rank(m, n)
        for bs in verify.dominant_tuples(m, barred_lo, 0):
            for us in verify.dominant_tuples(n, 0, unbarred_hi):
                out.append(base.Weight(rank, bs + us))
    return out


def domain_size(lam):
    """2^(mn) |U| |V| for the insertion domain of a window weight."""
    rank = lam.rank
    ell = kac.dual_ell(lam)
    mu = tuple(ell + b for b in lam.coords[: rank.m])
    nu = base.conjugate(lam.coords[rank.m:])
    us = tableaux.enumerate_sst(base.ALPHABET_BDUAL, rank, (ell,) * rank.m, mu)
    vs = tableaux.enumerate_sst(base.ALPHABET_BMINUS, rank, nu)
    return (1 << (rank.m * rank.n)) * len(us) * len(vs)


class Bijection:
    """Insertion and embedding layers, with almost no graph generation.

    A round holds one exhaustive commutation check of a window weight at
    rank (2,2), (3,2) or (2,3) (one item per domain element), TRIPS
    round trips xi -> pi_bar on rank-(3,3) hook tableaux with one
    intertwining step each, and REJECTS pi_bar calls on elements that lie
    outside the image.  The three parts take similar time at the seed.

    The commutation checks are the same for every seed: the window weights
    ranked by domain size, visited in bit-reversed order.  A check's cost
    per element depends on its weight, so a seeded choice of weights would
    move throughput from seed to seed.
    """

    TRIPS = 400
    REJECTS = 100
    TRIP_SIZES = range(4, 10)
    REJECT_SIZES = range(3, 8)

    def __init__(self, seed, out_dir=None):
        self.seed = seed
        self.rank = base.make_rank(3, 3)
        self.trip_shapes = hook_shapes(self.rank, self.TRIP_SIZES, 4, 5)
        self.reject_shapes = hook_shapes(self.rank, self.REJECT_SIZES, 4, 5)
        rho_pool = window_weights(((2, 2), (3, 2), (2, 3)), -2, 2)
        self.domain = {lam: domain_size(lam) for lam in rho_pool}
        ranked = sorted(rho_pool, key=lambda w: (self.domain[w], str(w)))
        self.rho_order = [ranked[i] for i in spread_order(len(ranked))]

    def round(self, r):
        """Round r, made on demand: its tableaux come from (seed, r) alone."""
        rng = random.Random("bijection:%d:%d" % (self.seed, r))
        colors = base.colors(self.rank)
        letters = base.alphabet_letters(base.ALPHABET_B, self.rank)
        lam = self.rho_order[r % len(self.rho_order)]
        units = [Unit("rho", lam, self.domain[lam])]
        for _ in range(self.TRIPS):
            shape = rng.choice(self.trip_shapes)
            rows = random_tableau(rng, letters, lambda v: v > 0, shape)
            t = tableaux.Tableau(base.ALPHABET_B, shape, (), rows)
            move = (rng.choice(colors), rng.choice((wordops.RAISE, wordops.LOWER)))
            units.append(Unit("trip", (t, move)))
        for _ in range(self.REJECTS):
            units.append(Unit("reject", self._outside_element(rng, self.reject_shapes)))
        rng.shuffle(units)
        return units

    def _outside_element(self, rng, shapes):
        """An element of B(lambda), lambda a hook weight, that xi cannot hit.

        xi preserves weight and a hook tableau's weight counts letters, so
        every coordinate is nonnegative.  The element is kept only when some
        barred coordinate is negative: its root set removes b_i more often
        than T+ holds the letter b_i.
        """
        m, n = self.rank
        while True:
            shape = rng.choice(shapes)
            top = tuple(p for p in shape[:m])
            below = shape[m:]
            plus = random_tableau(rng, list(range(-m, 0)), lambda v: False, top)
            minus = random_tableau(rng, list(range(1, n + 1)), lambda v: True, below)
            roots = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1) if rng.random() < 0.5]
            held = [sum(row.count(-i) for row in plus) for i in range(1, m + 1)]
            removed = [sum(1 for i2, _ in roots if i2 == i) for i in range(1, m + 1)]
            if any(r > h for r, h in zip(removed, held)):
                return kac.KacElement(
                    self.rank,
                    kac.OddRootSet.of(self.rank, roots),
                    tableaux.Tableau(base.ALPHABET_BPLUS, top, (), plus),
                    tableaux.Tableau(base.ALPHABET_BMINUS, below, (), minus),
                )

    def run(self, unit):
        rank = self.rank
        if unit.kind == "rho":
            res = verify.check_rho_commutation(unit.data)
            return res.ok, res.witness, res.counts.get("domain")
        if unit.kind == "reject":
            return embedding.pi_bar(rank, unit.data)
        t, (k, direction) = unit.data
        b = embedding.xi(rank, t)
        back = embedding.pi_bar(rank, b)
        moved = wordops.tableau_apply(rank, k, direction, t)
        if moved is None:
            return b, back, None, None
        return b, back, kac.apply_kac(k, direction, b), embedding.xi(rank, moved)

    def check(self, unit, output):
        if unit.kind == "rho":
            ok, witness, domain = output
            if not ok:
                return "rho %s: %s" % (unit.data, witness)
            if domain != unit.items:
                return "rho %s: domain %s, expected %d" % (unit.data, domain, unit.items)
            return None
        if unit.kind == "reject":
            if output is not None:
                return "pi_bar accepted an element outside the image: %s" % (unit.data.to_json(),)
            return None
        t, (k, direction) = unit.data
        b, back, target, expected = output
        if back != t:
            return "round trip failed on %s" % (t.rows,)
        if b.weight() != t.weight(self.rank):
            return "weight differs on %s" % (t.rows,)
        if expected is not None and (target is None or target.key() != expected.key()):
            return "intertwining fails at colour %d (%s) on %s" % (k, direction, t.rows)
        return None


def make(name, seed, out_dir=None):
    cls = {"sweep": Sweep, "crystal_big": CrystalBig, "bijection": Bijection}[name]
    return cls(seed, out_dir)
