"""Insertion bijection between the Kac crystal model and tableau pairs.

The domain element is (S, U, V): a set of odd negative roots, a barred-dual
tableau on a rectangle minus mu, and an unbarred tableau.  Listing S in the
order (by j, then by i) as pairs (i_1, j_1) .. (i_r, j_r), the barred-dual
letters d(i_r), .., d(i_1) are bumped into U from the last pair to the first;
the recording tableau stores j_k in the cell created by d(i_k).  The result
is (P, Q, V) with sh(P) = rect/eta and sh(Q) = mu/eta for some eta inside mu.

Barred colors act on P alone, unbarred colors on (Q, V) by the upper tensor
rule, and color 0 follows a right-to-left column scan of the aligned pair
(P, Q).
"""

from dataclasses import dataclass

from . import base, kac, tableaux, wordops
from .errors import InsertionOverflow, KacCrystalError


@dataclass(frozen=True)
class KappaElement:
    rank: base.Rank
    p: tableaux.Tableau
    q: tableaux.Tableau
    v: tableaux.Tableau

    @property
    def ell(self):
        return self.p.ncols

    def key(self):
        return (self.p.inner, self.p.rows, self.q.rows, self.v.rows)

    def weight(self):
        return (
            self.p.weight(self.rank)
            .add(self.q.weight(self.rank))
            .add(self.v.weight(self.rank))
        )

    def to_json(self):
        return {
            "P": self.p.to_json(),
            "Q": self.q.to_json(),
            "V": self.v.to_json(),
        }


def rho(elem):
    """Forward insertion map on a dual-model Kac crystal element."""
    rank = elem.rank
    if elem.t_plus.alphabet != base.ALPHABET_BDUAL:
        raise KacCrystalError("insertion map needs a barred-dual first factor")
    mu = elem.t_plus.inner + (0,) * (rank.m - len(elem.t_plus.inner))
    p = elem.t_plus
    q = tableaux.empty_tableau(base.ALPHABET_BMINUS, mu, p.inner, antinormal=True)
    for i, j in reversed(elem.s.sorted(kac.PREC)):
        p, cell = tableaux.antinormal_insert(p, i)
        q = q.with_cell(*cell, j)
    if not q.is_semistandard():
        raise InsertionOverflow("recording tableau is not semistandard")
    return KappaElement(rank, p, q, elem.t_minus)


def rho_inverse(kelem):
    """Undo the insertions in reverse chronological order.

    The cell undone next is the top cell of a recording column holding the
    smallest record; among equal records the rightmost column goes first.
    """
    rank = kelem.rank
    p, q = kelem.p, kelem.q
    mu = q.outer
    pairs = []
    while q.size() > 0:
        candidates = []
        for c in range(1, (mu[0] if mu else 0) + 1):
            col = q.column(c)
            if col:
                r, val = col[0]
                candidates.append((val, -c, r))
        val, negc, r = min(candidates)
        c = -negc
        p, code = tableaux.antinormal_delete(p, (r, c))
        pairs.append((code, val))
        q = q.with_cell(r, c)
    roots = kac.OddRootSet.of(rank, pairs)
    if len(roots.roots) != len(pairs):
        raise KacCrystalError("recording data does not define a root set")
    return kac.KacElement(rank, roots, p, kelem.v)


# ---------------------------------------------------------------------------
# operators on the image side


def _column_tops(kelem, c):
    """Top entries of column c in P and Q; None when the column is empty."""
    p, q = kelem.p, kelem.q
    pcol = p.column(c)
    qcol = q.column(c)
    a = pcol[0][1] if pcol else None
    b = qcol[0][1] if qcol else None
    return a, b


def _zero_scan(kelem):
    """Right-to-left column scan deciding how color 0 acts.

    Returns ("+", c) when a cell pair can be added at column c, ("-", c)
    when the top pair of column c can be removed, or (None, None).
    """
    ell = kelem.ell
    for c in range(ell, 0, -1):
        a, b = _column_tops(kelem, c)
        if a is None or a > 1:
            return "+", c
        if b == 1:
            return "-", c
    return None, None


def _zero_edit(kelem, c, code):
    """Add (code 1) or remove (code None) the top cell pair of column c."""
    top = sum(1 for x in kelem.p.inner if x >= c)
    r = top if code is not None else top + 1
    p = kelem.p.with_cell(r, c, code)
    q = kelem.q.with_cell(r, c, code)
    if not (p.is_semistandard() and q.is_semistandard()):
        raise InsertionOverflow("color 0 produced an invalid tableau")
    return KappaElement(kelem.rank, p, q, kelem.v)


def apply_kappa(k, direction, kelem):
    """Colored operator on an image-side element; None when null."""
    rank = kelem.rank
    if k == 0:
        sign, c = _zero_scan(kelem)
        if direction == wordops.LOWER:
            return _zero_edit(kelem, c, 1) if sign == "+" else None
        return _zero_edit(kelem, c, None) if sign == "-" else None
    if k < 0:
        p = wordops.tableau_apply(rank, k, direction, kelem.p)
        if p is None:
            return None
        return KappaElement(rank, p, kelem.q, kelem.v)
    eps1, phi1 = wordops.tableau_eps_phi(rank, k, kelem.q)
    eps2, phi2 = wordops.tableau_eps_phi(rank, k, kelem.v)
    if wordops.tensor_select(k, direction, eps1, phi1, eps2, phi2) == 1:
        q = wordops.tableau_apply(rank, k, direction, kelem.q)
        if q is None:
            return None
        return KappaElement(rank, kelem.p, q, kelem.v)
    v = wordops.tableau_apply(rank, k, direction, kelem.v)
    if v is None:
        return None
    return KappaElement(rank, kelem.p, kelem.q, v)


# ---------------------------------------------------------------------------
# exhaustive image enumeration (small ranks); the domain is the vertex set
# of the dual-model graph, kac.generate_graph(lam, model=kac.MODEL_DUAL)


def _subpartitions(mu):
    """All partitions contained in mu."""
    mu = tuple(mu)
    if not mu:
        return [()]
    out = []

    def rec(row, prev, acc):
        if row == len(mu):
            out.append(tuple(acc))
            return
        for v in range(min(prev, mu[row]), -1, -1):
            acc.append(v)
            rec(row + 1, v, acc)
            acc.pop()

    rec(0, mu[0] if mu else 0, [])
    return [base.normalize_partition(p) for p in out]


def enumerate_image(lam, ell):
    """All (P, Q, V) with sh(P) = rect/eta, sh(Q) = mu/eta, eta inside mu."""
    rank = lam.rank
    rect, mu, nu = kac._dual_factors(lam, ell)
    # Q's outer shape keeps m rows, as rho builds it
    mu = mu + (0,) * (rank.m - len(mu))
    vs = tableaux.enumerate_sst(base.ALPHABET_BMINUS, rank, nu)
    out = []
    for eta in _subpartitions(mu):
        ps = [
            tableaux.Tableau(p.alphabet, p.outer, p.inner, p.rows, True)
            for p in tableaux.enumerate_sst(base.ALPHABET_BDUAL, rank, rect, eta)
        ]
        qs = [
            tableaux.Tableau(q.alphabet, q.outer, q.inner, q.rows, True)
            for q in tableaux.enumerate_sst(base.ALPHABET_BMINUS, rank, mu, eta)
        ]
        out.extend(KappaElement(rank, p, q, v) for p in ps for q in qs for v in vs)
    return out
