"""Embedding of hook-shape tableau crystals into Kac crystals.

A semistandard tableau on a hook partition splits into a barred top-left
part, an unbarred skew part in the first m rows, and the unbarred rows below.
Transporting the barred part into the rectangle model, undoing the insertion
bijection, and transporting back yields the Kac crystal element; the partial
inverse runs the same steps backwards and returns None when the reassembled
filling is not semistandard.
"""

import functools

from . import base, kac, rsk, tableaux
from .errors import (
    HookViolation,
    InsertionOverflow,
    MalformedHookTableau,
    MultipleSources,
    NotIsomorphic,
)


def split_hook(rank, t):
    """Split a hook tableau into (barred part, skew unbarred, lower rows)."""
    m, n = rank
    if t.alphabet != base.ALPHABET_B:
        raise MalformedHookTableau("expected the full alphabet")
    if t.inner and any(t.inner):
        raise MalformedHookTableau("expected a straight shape")
    if not t.is_semistandard():
        raise MalformedHookTableau("tableau is not semistandard")
    shape = base.normalize_partition(t.outer)
    if not base.in_hook(rank, shape):
        raise HookViolation("%r does not fit the (%d|%d) hook" % (shape, m, n))
    mu = tuple(shape[i] if i < len(shape) else 0 for i in range(m))
    nu = shape[m:]
    eta = []
    top_rows = []
    mid_rows = []
    for i in range(m):
        row = t.rows[i] if i < len(t.rows) else ()
        barred = tuple(v for v in row if v < 0)
        eta.append(len(barred))
        top_rows.append(barred)
        mid_rows.append(tuple(v for v in row if v > 0))
    eta_t = base.normalize_partition(tuple(eta))
    for i in range(m, len(t.rows)):
        if any(v < 0 for v in t.rows[i]):
            raise MalformedHookTableau("barred letter below row %d" % m)
    t_plus = tableaux.Tableau(
        base.ALPHABET_BPLUS, eta_t, (), tuple(top_rows[: len(eta_t)])
    )
    t_mid = tableaux.Tableau(base.ALPHABET_BMINUS, mu, eta_t, tuple(mid_rows), True)
    t_below = tableaux.Tableau(
        base.ALPHABET_BMINUS, nu, (), tuple(t.rows[m:])
    )
    return t_plus, t_mid, t_below


def join_hook(rank, t_plus, t_mid, t_below):
    """Reassemble a hook tableau; None when the filling is not semistandard."""
    m = rank.m
    rows = []
    outer = []
    for i in range(m):
        barred = t_plus.rows[i] if i < t_plus.nrows else ()
        rest = t_mid.rows[i] if i < t_mid.nrows else ()
        rows.append(tuple(barred) + tuple(rest))
        outer.append(len(rows[-1]))
    for i in range(t_below.nrows):
        rows.append(tuple(t_below.rows[i]))
        outer.append(len(rows[-1]))
    while outer and outer[-1] == 0:
        outer.pop()
        rows.pop()
    if not base.is_partition(tuple(outer)):
        return None
    t = tableaux.Tableau(base.ALPHABET_B, tuple(outer), (), tuple(rows))
    if not t.is_semistandard() or not base.in_hook(rank, t.outer):
        return None
    return t


# ---------------------------------------------------------------------------
# transport along colored edges


def transport_iso(table_a, table_b):
    """Match two crystals vertex by vertex along same-colored edges.

    Both crystals must have a unique source; the map extends from source to
    source along lowering edges.  Returns a pair of dicts between element
    indices.
    """
    if len(table_a.elements) != len(table_b.elements):
        raise NotIsomorphic(
            "sizes differ: %d vs %d" % (len(table_a.elements), len(table_b.elements))
        )
    sa, sb = table_a.sources(), table_b.sources()
    if len(sa) != 1 or len(sb) != 1:
        raise MultipleSources("sources: %d and %d" % (len(sa), len(sb)))
    ks = table_a.colors
    fwd = {sa[0]: sb[0]}
    queue = [sa[0]]
    while queue:
        ia = queue.pop()
        ib = fwd[ia]
        for k in ks:
            fa, fb = table_a.f[k][ia], table_b.f[k][ib]
            if (fa is None) != (fb is None):
                raise NotIsomorphic(
                    "edge mismatch at color %d from vertex %d" % (k, ia)
                )
            if fa is None:
                continue
            if fa in fwd:
                if fwd[fa] != fb:
                    raise NotIsomorphic(
                        "edge conflict at color %d from vertex %d" % (k, ia)
                    )
            else:
                fwd[fa] = fb
                queue.append(fa)
    if len(fwd) != len(table_a.elements):
        raise NotIsomorphic("crystal is not connected from its source")
    back = {v: k for k, v in fwd.items()}
    return fwd, back


@functools.lru_cache(maxsize=None)
def _sigma_pair(rank, ell, shape):
    """Transport between barred tableaux of a shape and the barred-dual
    tableaux of its complement in the (ell^m) rectangle."""
    ta = kac.factor_table(base.ALPHABET_BPLUS, rank, shape)
    tb = kac.factor_table(base.ALPHABET_BDUAL, rank, (ell,) * rank.m, shape)
    fwd, back = transport_iso(ta, tb)
    return ta, tb, fwd, back


def sigma_to_dual(rank, ell, t):
    """Complementation shift into the rectangle model (weight drops by
    ell times the sum of barred epsilons)."""
    shape = base.normalize_partition(t.outer)
    ta, tb, fwd, _ = _sigma_pair(rank, ell, shape)
    out = tb.elements[fwd[ta.index[t.rows]]]
    return tableaux.Tableau(out.alphabet, out.outer, out.inner, out.rows, True)


def sigma_from_dual(rank, ell, t):
    shape = base.normalize_partition(t.inner)
    ta, tb, _, back = _sigma_pair(rank, ell, shape)
    return ta.elements[back[tb.index[t.rows]]]


# ---------------------------------------------------------------------------
# the embedding and its partial inverse


def xi(rank, t):
    """Embed a hook tableau into the Kac crystal of its weight."""
    t_plus, t_mid, t_below = split_hook(rank, t)
    shape = base.normalize_partition(t.outer)
    ell = shape[0] if shape else 0
    if ell == 0:
        empty_p = tableaux.Tableau(base.ALPHABET_BPLUS, (), (), ())
        empty_v = tableaux.Tableau(base.ALPHABET_BMINUS, (), (), ())
        return kac.KacElement(rank, kac.OddRootSet.empty(rank), empty_p, empty_v)
    u0 = sigma_to_dual(rank, ell, t_plus)
    dual = rsk.rho_inverse(rsk.KappaElement(rank, u0, t_mid, t_below))
    t_top = sigma_from_dual(rank, ell, dual.t_plus)
    return kac.KacElement(rank, dual.s, t_top, dual.t_minus)


def pi_bar(rank, b):
    """Partial inverse of the embedding; None when b is out of the image."""
    mu = base.normalize_partition(b.t_plus.outer)
    nu = base.normalize_partition(b.t_minus.outer)
    shape = tuple(mu) + (0,) * (rank.m - len(mu)) + tuple(nu)
    shape = base.normalize_partition(shape) if base.is_partition(shape) else None
    if shape is None or not base.in_hook(rank, shape):
        return None
    ell = mu[0] if mu else 0
    if ell == 0:
        if b.s.roots:
            return None
        return join_hook(
            rank,
            b.t_plus,
            tableaux.empty_tableau(base.ALPHABET_BMINUS, ()),
            b.t_minus,
        )
    u = sigma_to_dual(rank, ell, b.t_plus)
    try:
        image = rsk.rho(kac.KacElement(rank, b.s, u, b.t_minus))
    except InsertionOverflow:
        return None
    t_plus = sigma_from_dual(rank, ell, image.p)
    return join_hook(rank, t_plus, image.q, image.v)
