"""Crystal of a Kac module: power set of odd roots times two tableau factors.

A vertex is (S, T+, T-) where S is a set of odd negative roots encoded by the
pairs (i, j) with -eps(bi) + eps(j) in S, T+ is a barred-letter tableau (or a
barred-dual one in the dual model used by the insertion bridge) and T- an
unbarred-letter tableau.  Barred colors act on (S, T+) by the lower tensor
rule, unbarred colors on (S, T-) by the upper rule, and color 0 adds or
removes the root -eps(b1) + eps(1) in S.

A graph numbers the vertices of the product S x T+ x T- in product order.
Because each color leaves one or two factors untouched, its operator is
the same shift on every vertex of a slice of the product, and the graph
builds it as one move list over all vertices with one tensor decision per
slice (CrystalGraph.moves).
"""

import functools
import itertools
import json
import operator
from dataclasses import dataclass

from . import base, tableaux, wordops
from .errors import MalformedElement, NotDominant, PreconditionViolated, SizeCapExceeded

# orders on the odd negative roots, as sort keys on the pairs (i, j)
PREC = "prec"          # by j, then by i
PREC_PRIME = "prec1"   # by i, then by descending j


def root_sort_key(order):
    if order == PREC:
        return lambda p: (p[1], p[0])
    if order == PREC_PRIME:
        return lambda p: (p[0], -p[1])
    raise ValueError("unknown root order %r" % (order,))


@dataclass(frozen=True)
class OddRootSet:
    rank: base.Rank
    roots: frozenset

    @staticmethod
    def empty(rank):
        return OddRootSet(rank, frozenset())

    @staticmethod
    def of(rank, pairs):
        pairs = frozenset(tuple(p) for p in pairs)
        for i, j in pairs:
            if not (1 <= i <= rank.m and 1 <= j <= rank.n):
                raise ValueError("root index %r out of range" % ((i, j),))
        return OddRootSet(rank, pairs)

    def sorted(self, order=PREC):
        return sorted(self.roots, key=root_sort_key(order))

    def mask(self):
        n = self.rank.n
        out = 0
        for i, j in self.roots:
            out |= 1 << ((i - 1) * n + (j - 1))
        return out

    @staticmethod
    def from_mask(rank, mask):
        pairs = set()
        for i in range(1, rank.m + 1):
            for j in range(1, rank.n + 1):
                if mask >> ((i - 1) * rank.n + (j - 1)) & 1:
                    pairs.add((i, j))
        return OddRootSet(rank, frozenset(pairs))

    def bits(self):
        return [
            [1 if (i, j) in self.roots else 0 for j in range(1, self.rank.n + 1)]
            for i in range(1, self.rank.m + 1)
        ]

    def weight(self):
        total = base.Weight.zero(self.rank)
        for i, j in self.roots:
            total = total.add(base.odd_negative_root(self.rank, i, j))
        return total

    def _pairs_for(self, k):
        """(eps, phi) contributions of each root for color k, scan-sorted."""
        order = PREC if k < 0 else PREC_PRIME
        roots = self.sorted(order)
        out = []
        for i, j in roots:
            if k < 0:
                eps = 1 if i == -k + 1 else 0
                phi = 1 if i == -k else 0
            else:
                eps = 1 if j == k + 1 else 0
                phi = 1 if j == k else 0
            out.append((eps, phi))
        return roots, out

    def eps_phi(self, k):
        if k == 0:
            eps = 1 if (1, 1) in self.roots else 0
            return eps, 1 - eps
        _, pairs = self._pairs_for(k)
        _, _, eps, phi = wordops.bracket(pairs, upper=k > 0)
        return eps, phi

    def apply(self, k, direction):
        if k == 0:
            if direction == wordops.RAISE:
                if (1, 1) not in self.roots:
                    return None
                return OddRootSet(self.rank, self.roots - {(1, 1)})
            if (1, 1) in self.roots:
                return None
            return OddRootSet(self.rank, self.roots | {(1, 1)})
        roots, pairs = self._pairs_for(k)
        e_idx, f_idx, _, _ = wordops.bracket(pairs, upper=k > 0)
        idx = e_idx if direction == wordops.RAISE else f_idx
        if idx is None:
            return None
        i, j = roots[idx]
        if k < 0:
            new = (i - 1, j) if direction == wordops.RAISE else (i + 1, j)
        else:
            new = (i, j - 1) if direction == wordops.RAISE else (i, j + 1)
        return OddRootSet(self.rank, (self.roots - {(i, j)}) | {new})


@dataclass(frozen=True)
class KacElement:
    rank: base.Rank
    s: OddRootSet
    t_plus: tableaux.Tableau
    t_minus: tableaux.Tableau

    def weight(self, offset=None):
        w = self.s.weight().add(self.t_plus.weight(self.rank)).add(
            self.t_minus.weight(self.rank)
        )
        return w if offset is None else w.add(offset)

    def key(self):
        return (self.s.mask(), self.t_plus.rows, self.t_minus.rows)

    def to_json(self):
        return {
            "S": self.s.bits(),
            "Tplus": self.t_plus.to_json(),
            "Tminus": self.t_minus.to_json(),
        }

    @staticmethod
    def from_json(rank, data):
        """Parse and validate the form written by to_json.

        S must be m rows of n 0/1 entries; Tplus and Tminus must be straight
        semistandard tableaux over B+ and B-.  Raises MalformedElement
        naming the offending field.
        """
        if not isinstance(data, dict):
            raise MalformedElement("element must be a JSON object")
        bits = data.get("S")
        if not (
            isinstance(bits, list)
            and len(bits) == rank.m
            and all(
                isinstance(row, list)
                and len(row) == rank.n
                and all(b in (0, 1) for b in row)
                for row in bits
            )
        ):
            raise MalformedElement("S must be %d rows of %d 0/1 entries" % rank)
        s = OddRootSet.of(
            rank,
            [(i + 1, j + 1) for i, row in enumerate(bits) for j, b in enumerate(row) if b],
        )
        t_plus = tableaux.parse_straight(
            rank, data.get("Tplus"), base.ALPHABET_BPLUS, "Tplus"
        )
        t_minus = tableaux.parse_straight(
            rank, data.get("Tminus"), base.ALPHABET_BMINUS, "Tminus"
        )
        return KacElement(rank, s, t_plus, t_minus)


def apply_kac(k, direction, elem):
    """Colored operator on a Kac crystal element; None when null.

    The factors are [S, T+, T-].  Color 0 acts on S; any other color pairs S
    with T+ (barred) or T- (unbarred) by the two-factor tensor rule.
    """
    rank = elem.rank
    factors = [elem.s, elem.t_plus, elem.t_minus]
    slot = 0
    if k != 0:
        other = 1 if k < 0 else 2
        eps1, phi1 = elem.s.eps_phi(k)
        eps2, phi2 = wordops.tableau_eps_phi(rank, k, factors[other])
        if wordops.tensor_select(k, direction, eps1, phi1, eps2, phi2) == 2:
            slot = other
    if slot == 0:
        new = elem.s.apply(k, direction)
    else:
        new = wordops.tableau_apply(rank, k, direction, factors[slot])
    if new is None:
        return None
    factors[slot] = new
    return KacElement(rank, *factors)


# ---------------------------------------------------------------------------
# component tables for fast graph assembly


def _operator_arrays(colors, items, eps_phi, apply, index):
    """Per-color arrays (e, f, eps, phi): e/f hold the index of the
    raised/lowered item (None when null), eps/phi the string lengths."""
    e, f, eps, phi = {}, {}, {}, {}
    for k in colors:
        ek, fk, epsk, phik = [], [], [], []
        for x in items:
            epsv, phiv = eps_phi(k, x)
            epsk.append(epsv)
            phik.append(phiv)
            up = apply(k, wordops.RAISE, x)
            ek.append(None if up is None else index(up))
            dn = apply(k, wordops.LOWER, x)
            fk.append(None if dn is None else index(dn))
        e[k], f[k] = ek, fk
        eps[k], phi[k] = epsk, phik
    return e, f, eps, phi


class FactorTable:
    """All elements of a tableau crystal with per-color operator arrays."""

    def __init__(self, alphabet, rank, outer, inner=()):
        self.alphabet = alphabet
        self.rank = rank
        elems = tableaux.enumerate_sst(alphabet, rank, outer, inner)
        elems.sort(key=lambda t: t.rows)
        self.elements = elems
        self.index = {t.rows: i for i, t in enumerate(elems)}
        self.weights = [t.weight(rank).coords for t in elems]
        self.colors = base.alphabet_colors(alphabet, rank)
        self.e, self.f, self.eps, self.phi = _operator_arrays(
            self.colors,
            elems,
            lambda k, t: wordops.tableau_eps_phi(rank, k, t),
            lambda k, d, t: wordops.tableau_apply(rank, k, d, t),
            lambda t: self.index[t.rows],
        )

    def sources(self):
        ks = self.colors
        return [
            i
            for i in range(len(self.elements))
            if all(self.eps[k][i] == 0 for k in ks)
        ]


@functools.lru_cache(maxsize=None)
def factor_table(alphabet, rank, outer, inner=()):
    return FactorTable(alphabet, rank, outer, inner)


class OddTable:
    """All subsets of the odd negative roots, indexed by bit mask."""

    def __init__(self, rank):
        self.rank = rank
        size = 1 << (rank.m * rank.n)
        self.sets = [OddRootSet.from_mask(rank, mask) for mask in range(size)]
        self.weights = [s.weight().coords for s in self.sets]
        self.e, self.f, self.eps, self.phi = _operator_arrays(
            base.colors(rank),
            self.sets,
            lambda k, s: s.eps_phi(k),
            lambda k, d, s: s.apply(k, d),
            OddRootSet.mask,
        )


@functools.lru_cache(maxsize=None)
def odd_table(rank):
    return OddTable(rank)


# ---------------------------------------------------------------------------
# graph generation

MODEL_STANDARD = "standard"
MODEL_DUAL = "dual"

DEFAULT_CAP = 200000


def _standard_factors(lam):
    """Factor shapes for a dominant weight, with constant weight offset.

    Negative coordinates are handled by shifting the shape into partition
    range; the offset restores the true weights.  Operators do not see the
    shift because full barred columns contribute canceling signature pairs.
    """
    rank = lam.rank
    m, n = rank
    bs = lam.coords[:m]
    us = lam.coords[m:]
    cb = min(bs[m - 1], 0)
    cu = min(us[n - 1], 0)
    shape_plus = base.normalize_partition(tuple(b - cb for b in bs))
    shape_minus = base.conjugate(tuple(u - cu for u in us))
    offset = base.delta_plus(rank).scale(cb).add(base.delta_minus(rank).scale(cu))
    return shape_plus, shape_minus, offset


def dual_ell(lam):
    """Smallest rectangle width leaving room for every recording row.

    A full root set records n entries in each row of the inner shape, so
    the smallest inner row ell + lambda_b1 must be at least n.
    """
    b1 = lam.coords[lam.rank.m - 1]
    return max(1, lam.rank.n - b1)


def _dual_factors(lam, ell):
    """Factor shapes of the dual model: the ell^m rectangle, the inner shape
    mu = ell + barred part, and the T- shape.

    This is the window of the insertion map too: outside it raises
    PreconditionViolated.
    """
    rank = lam.rank
    m, n = rank
    bs = lam.coords[:m]
    us = lam.coords[m:]
    if bs[0] > 0 or us[n - 1] < 0:
        raise PreconditionViolated(
            "dual model needs nonpositive barred and nonnegative unbarred parts"
        )
    if ell + bs[m - 1] < 0:
        raise PreconditionViolated(
            "dual model needs ell at least -b1 = %d, got ell = %d" % (-bs[m - 1], ell)
        )
    mu = base.normalize_partition(tuple(ell + b for b in bs))
    shape_minus = base.conjugate(us)
    return (ell,) * m, mu, shape_minus


def _filling_count(alphabet, rank, outer, inner=()):
    """Number of fillings a factor table of these arguments holds, by the
    Weyl dimension formula, without enumerating them.

    A T+ filling is a semistandard tableau of outer in m letters.  A T-
    filling (strict along rows) is the transpose of one of the conjugate
    shape in n letters.  A barred-dual filling of the ell^m rectangle minus
    inner, turned by half a turn, is one of (ell - inner_m, .., ell -
    inner_1) in m letters.
    """
    if alphabet == base.ALPHABET_BMINUS:
        parts, size = base.conjugate(outer), rank.n
    elif alphabet == base.ALPHABET_BDUAL:
        inner = tuple(inner) + (0,) * (len(outer) - len(inner))
        parts, size = tuple(map(operator.sub, outer, inner))[::-1], rank.m
    else:
        parts, size = outer, rank.m
    parts = tuple(parts) + (0,) * (size - len(parts))
    num = den = 1
    for i, j in itertools.combinations(range(size), 2):
        num *= parts[i] - parts[j] + j - i
        den *= j - i
    return num // den


class CrystalGraph:
    """Edge-colored graph of a Kac crystal on the product of its factors.

    Vertex (s, p, v), with s the root-set mask and p, v the indices of T+
    and T- in their tables, has id (s*|T+| + p)*|T-| + v, so vertex ids
    follow product order.  Every vertex of the product is in the graph.
    Each color acts on at most two factors, so its operator is one move
    list over all ids, built slice by slice (see moves); the edges are the
    lowering lists read vertex by vertex, sorted by (source, color).
    """

    def __init__(self, rank, lam, model, s_table, plus_table, minus_table, offset):
        self.rank = rank
        self.lam = lam
        self.model = model
        self.s_table = s_table
        self.plus_table = plus_table
        self.minus_table = minus_table
        self.offset = offset
        self._nplus = len(plus_table.elements)
        self._nminus = len(minus_table.elements)
        self.vertices = range(len(s_table.sets) * self._nplus * self._nminus)
        add = operator.add
        off = offset.coords
        self._weights = [
            tuple(map(add, wsp, wv))
            for ws in s_table.weights
            for wsp in [tuple(map(add, map(add, ws, wp), off)) for wp in plus_table.weights]
            for wv in minus_table.weights
        ]
        ks = base.colors(rank)
        lowered = zip(*[self.moves(k, wordops.LOWER) for k in ks])
        self.edges = [
            (v, k, d)
            for v, ds in enumerate(lowered)
            for k, d in zip(ks, ds)
            if d is not None
        ]

    def vertex_id(self, elem):
        """The id of a Kac crystal element, the inverse of element; None
        when its T+ alphabet or the rows of T+ or T- are not in the tables."""
        if elem.t_plus.alphabet != self.plus_table.alphabet:
            return None
        pi = self.plus_table.index.get(elem.t_plus.rows)
        vi = self.minus_table.index.get(elem.t_minus.rows)
        if pi is None or vi is None:
            return None
        return (elem.s.mask() * self._nplus + pi) * self._nminus + vi

    def _triple(self, vid):
        sp, vi = divmod(vid, self._nminus)
        si, pi = divmod(sp, self._nplus)
        return si, pi, vi

    def element(self, vid):
        si, pi, vi = self._triple(vid)
        return KacElement(
            self.rank,
            self.s_table.sets[si],
            self.plus_table.elements[pi],
            self.minus_table.elements[vi],
        )

    def weight_coords(self, vid):
        return self._weights[vid]

    def weight(self, vid):
        return base.Weight(self.rank, self.weight_coords(vid))

    def moves(self, k, direction):
        """The color-k operator on every vertex: a list of target ids, None
        where the operator is null.

        Color 0 moves S alone, so one decision covers the |T+|*|T-| ids of
        an S index.  Color k < 0 pairs S with T+ by the tensor rule: one
        decision per (s, p) covers the |T-| consecutive ids of that slice.
        Color k > 0 pairs S with T-: one decision per (s, v) covers |T+| ids
        at stride |T-|.  The moved factor shifts the whole slice at once.
        """
        npv = self._nplus * self._nminus
        st = self.s_table
        s_moved = (st.e if direction == wordops.RAISE else st.f)[k]
        # the factor paired with S and its id stride; a slice is the ids
        # range(b, b + span, step) that share one decision
        if k == 0:
            other, ostride, span, step = None, 0, npv, 1
        elif k < 0:
            other, ostride, span, step = self.plus_table, self._nminus, self._nminus, 1
        else:
            other, ostride, span, step = self.minus_table, 1, npv, self._nminus
        if other is None:
            others = range(1)
        else:
            others = range(len(other.elements))
            o_moved = (other.e if direction == wordops.RAISE else other.f)[k]
            s_eps, s_phi, o_eps, o_phi = st.eps[k], st.phi[k], other.eps[k], other.phi[k]
        out = [None] * len(self.vertices)
        for si in range(len(st.sets)):
            for oi in others:
                b = si * npv + oi * ostride
                if other is None or wordops.tensor_select(
                    k, direction, s_eps[si], s_phi[si], o_eps[oi], o_phi[oi]
                ) == 1:
                    moved, idx, stride = s_moved[si], si, npv
                else:
                    moved, idx, stride = o_moved[oi], oi, ostride
                if moved is not None:
                    t = b + (moved - idx) * stride
                    out[b:b + span:step] = range(t, t + span, step)
        return out

    def source_vertices(self):
        """Vertices killed by every raising operator (no incoming edge)."""
        indeg = set(map(operator.itemgetter(2), self.edges))
        return [v for v in self.vertices if v not in indeg]

    def to_json(self):
        return {
            "rank": [self.rank.m, self.rank.n],
            "lambda": str(self.lam),
            "model": self.model,
            "vertices": [
                dict(id=v, wt=str(self.weight(v)), **self.element(v).to_json())
                for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
        }

    def json_chunks(self):
        """The text of json.dumps(self.to_json(), indent=2) + "\\n", in pieces.

        Every S set, T+ tableau, T- tableau and distinct weight is rendered
        once, by json.dumps re-indented to its depth in the document; each
        vertex and each edge is then one template filled with those texts,
        walking (s, p, v) in product order.
        """

        def block(value, depth):
            return json.dumps(value, indent=2).replace("\n", "\n" + " " * depth)

        s_text = [block(s.bits(), 6) for s in self.s_table.sets]
        p_text = [block(t.to_json(), 6) for t in self.plus_table.elements]
        v_text = [block(t.to_json(), 6) for t in self.minus_table.elements]
        wt_text = {w: json.dumps(text) for w, text in self._weight_texts().items()}
        yield '{\n  "rank": %s,\n  "lambda": %s,\n  "model": %s,\n  "vertices": [' % (
            block([self.rank.m, self.rank.n], 2),
            json.dumps(str(self.lam)),
            json.dumps(self.model),
        )
        vertex = (
            '\n    {\n      "id": %d,\n      "wt": %s,\n      "S": %s,'
            '\n      "Tplus": %s,\n      "Tminus": %s\n    }'
        )
        weights = self._weights
        yield from _comma_joined(
            vertex % (vid, wt_text[weights[vid]], st, pt, vt)
            for vid, (st, pt, vt) in enumerate(itertools.product(s_text, p_text, v_text))
        )
        # never empty: color 0 lowers every vertex whose S lacks (1, 1)
        yield '\n  ],\n  "edges": ['
        edge = "\n    [\n      %d,\n      %d,\n      %d\n    ]"
        yield from _comma_joined(edge % e for e in self.edges)
        yield "\n  ]\n}\n"

    def _weight_texts(self):
        """The text of every distinct vertex weight, keyed by its coords."""
        return {w: str(base.Weight(self.rank, w)) for w in set(self._weights)}

    def to_dot(self):
        wt_text = self._weight_texts()
        lines = ["digraph crystal {"]
        for v, w in enumerate(self._weights):
            lines.append('  v%d [label="%d", tooltip="%s"];' % (v, v, wt_text[w]))
        for src, k, dst in self.edges:
            lines.append('  v%d -> v%d [label="%d"];' % (src, dst, k))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _comma_joined(texts):
    """The texts joined by commas, yielded 1024 texts at a time."""
    texts = iter(texts)
    lead = ""
    while True:
        chunk = ",".join(itertools.islice(texts, 1024))
        if not chunk:
            return
        yield lead + chunk
        lead = ","


def generate_graph(lam, cap=DEFAULT_CAP, model=MODEL_STANDARD, ell=None):
    rank = lam.rank
    if not lam.is_dominant():
        raise NotDominant("%s is not dominant" % lam)
    if model == MODEL_STANDARD:
        if ell is not None:
            raise ValueError("ell applies only to the dual model")
        shape_plus, shape_minus, offset = _standard_factors(lam)
        plus = (base.ALPHABET_BPLUS, rank, shape_plus)
    elif model == MODEL_DUAL:
        if ell is None:
            ell = dual_ell(lam)
        outer, mu, shape_minus = _dual_factors(lam, ell)
        plus = (base.ALPHABET_BDUAL, rank, outer, mu)
        offset = base.Weight.zero(rank)
    else:
        raise ValueError("unknown model %r" % (model,))
    minus = (base.ALPHABET_BMINUS, rank, shape_minus)
    # counted before any table is built, so an over-cap graph fails at once
    cardinality = (1 << (rank.m * rank.n)) * _filling_count(*plus) * _filling_count(*minus)
    if cardinality > cap:
        raise SizeCapExceeded(cardinality, cap)
    return CrystalGraph(
        rank, lam, model, odd_table(rank), factor_table(*plus), factor_table(*minus), offset
    )
