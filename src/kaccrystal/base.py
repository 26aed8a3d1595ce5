"""Ground combinatorics: ranks, graded alphabets, weights, roots, partitions.

The alphabet of rank (m, n) has m barred letters bm < ... < b1 (even) followed
by n unbarred letters 1 < ... < n (odd).  A separate dual alphabet carries the
barred-dual letters d1 < ... < dm, all even.  Letters are stored as integer
codes: barred bi -> -i, unbarred j -> j, barred-dual di -> i (the alphabet tag
disambiguates the positive codes).

Weight coordinates are listed barred part first, from bm down to b1, then the
unbarred part from 1 up to n.  The text form is "4,3,2|3,1,0".
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import HookViolation, NotDominant

ALPHABET_B = "B"
ALPHABET_BPLUS = "B+"
ALPHABET_BMINUS = "B-"
ALPHABET_BDUAL = "B+dual"

class Rank(NamedTuple):
    m: int
    n: int


def make_rank(m, n):
    if m < 1 or n < 1:
        raise ValueError("rank requires m >= 1 and n >= 1")
    return Rank(m, n)


def colors(rank):
    """All operator colors: -i for barred colors, 0, and j for unbarred."""
    return list(range(-(rank.m - 1), rank.n))


def alphabet_colors(alphabet, rank):
    """Colors acting on words over the given alphabet."""
    if alphabet in (ALPHABET_BPLUS, ALPHABET_BDUAL):
        return list(range(-(rank.m - 1), 0))
    if alphabet == ALPHABET_BMINUS:
        return list(range(1, rank.n))
    return colors(rank)


def alphabet_letters(alphabet, rank):
    """Letter codes of the alphabet in increasing order."""
    if alphabet == ALPHABET_B:
        return list(range(-rank.m, 0)) + list(range(1, rank.n + 1))
    if alphabet == ALPHABET_BPLUS:
        return list(range(-rank.m, 0))
    if alphabet == ALPHABET_BMINUS:
        return list(range(1, rank.n + 1))
    if alphabet == ALPHABET_BDUAL:
        return list(range(1, rank.m + 1))
    raise ValueError("unknown alphabet %r" % (alphabet,))


def letter_parity(alphabet, code):
    """0 for even letters, 1 for odd ones."""
    if alphabet == ALPHABET_BDUAL:
        return 0
    return 0 if code < 0 else 1


def letter_str(alphabet, code):
    if alphabet == ALPHABET_BDUAL:
        return "d%d" % code
    if code < 0:
        return "b%d" % (-code)
    return "%d" % code


def letter_parse(alphabet, text):
    if alphabet == ALPHABET_BDUAL:
        if not text.startswith("d"):
            raise ValueError("expected barred-dual letter, got %r" % text)
        return int(text[1:])
    if text.startswith("b"):
        return -int(text[1:])
    return int(text)


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """Integral weight of rank (m, n); coords ordered bm..b1 then 1..n."""

    rank: Rank
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.rank.m + self.rank.n:
            raise ValueError("weight length does not match rank")

    @staticmethod
    def zero(rank):
        return Weight(rank, (0,) * (rank.m + rank.n))

    @staticmethod
    def parse(rank, text):
        barred, _, unbarred = text.partition("|")
        try:
            bs = [int(x) for x in barred.split(",")] if barred.strip() else []
            us = [int(x) for x in unbarred.split(",")] if unbarred.strip() else []
        except ValueError as exc:
            raise ValueError("bad weight %r: %s" % (text, exc)) from None
        if len(bs) != rank.m or len(us) != rank.n:
            raise ValueError("weight %r does not match rank %d,%d" % (text, rank.m, rank.n))
        return Weight(rank, tuple(bs) + tuple(us))

    def __str__(self):
        m = self.rank.m
        return "%s|%s" % (
            ",".join(str(c) for c in self.coords[:m]),
            ",".join(str(c) for c in self.coords[m:]),
        )

    # coordinate accessors; i, j are 1-based indices of the letters
    def barred_coord(self, i):
        return self.coords[self.rank.m - i]

    def unbarred_coord(self, j):
        return self.coords[self.rank.m - 1 + j]

    def add(self, other):
        return Weight(self.rank, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def sub(self, other):
        return Weight(self.rank, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c):
        return Weight(self.rank, tuple(c * a for a in self.coords))

    def is_dominant(self):
        m = self.rank.m
        bs, us = self.coords[:m], self.coords[m:]
        return all(bs[i] >= bs[i + 1] for i in range(m - 1)) and all(
            us[j] >= us[j + 1] for j in range(self.rank.n - 1)
        )


def eps_barred(rank, i):
    coords = [0] * (rank.m + rank.n)
    coords[rank.m - i] = 1
    return Weight(rank, tuple(coords))


def eps_unbarred(rank, j):
    coords = [0] * (rank.m + rank.n)
    coords[rank.m - 1 + j] = 1
    return Weight(rank, tuple(coords))


def delta_plus(rank):
    """Sum of all barred epsilons."""
    return Weight(rank, (1,) * rank.m + (0,) * rank.n)


def delta_minus(rank):
    """Sum of all unbarred epsilons."""
    return Weight(rank, (0,) * rank.m + (1,) * rank.n)


def simple_root(rank, k):
    m, n = rank
    if -(m - 1) <= k <= -1:
        i = -k
        return eps_barred(rank, i + 1).sub(eps_barred(rank, i))
    if k == 0:
        return eps_barred(rank, 1).sub(eps_unbarred(rank, 1))
    if 1 <= k <= n - 1:
        return eps_unbarred(rank, k).sub(eps_unbarred(rank, k + 1))
    raise ValueError("color %d out of range for rank %s" % (k, (rank,)))


def letter_weight(rank, alphabet, code):
    if alphabet == ALPHABET_BDUAL:
        return eps_barred(rank, code).scale(-1)
    if code < 0:
        return eps_barred(rank, -code)
    return eps_unbarred(rank, code)


def odd_negative_root(rank, i, j):
    """-eps(bi) + eps(j), an element of the odd negative root space."""
    return eps_unbarred(rank, j).sub(eps_barred(rank, i))


def two_rho(rank):
    """Twice the Weyl vector: sum of even positive roots minus odd ones."""
    m, n = rank
    total = Weight.zero(rank)
    for i in range(1, m + 1):
        for i2 in range(i + 1, m + 1):
            # eps(b_{i2}) - eps(b_i) with b_{i2} < b_i in the alphabet order
            total = total.add(eps_barred(rank, i2).sub(eps_barred(rank, i)))
    for j in range(1, n + 1):
        for j2 in range(j + 1, n + 1):
            total = total.add(eps_unbarred(rank, j).sub(eps_unbarred(rank, j2)))
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            total = total.sub(eps_barred(rank, i).sub(eps_unbarred(rank, j)))
    return total


def is_typical(lam):
    """Whether (alpha | lam + rho) is nonzero for every odd positive root."""
    if not lam.is_dominant():
        raise NotDominant("typicality requires a dominant weight")
    rank = lam.rank
    tr = two_rho(rank)
    for i in range(1, rank.m + 1):
        for j in range(1, rank.n + 1):
            # alpha = eps(bi) - eps(j); (alpha | w) = w_bi + w_j
            val = 2 * (lam.barred_coord(i) + lam.unbarred_coord(j))
            val += tr.barred_coord(i) + tr.unbarred_coord(j)
            if val == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# partitions


def is_partition(parts):
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)) and (
        not parts or parts[-1] >= 0
    )


def normalize_partition(parts):
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError("%r is not a partition" % (parts,))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def conjugate(parts):
    parts = tuple(parts)
    if not parts or parts[0] == 0:
        return ()
    return tuple(
        sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1)
    )


def in_hook(rank, mu):
    """Whether mu fits inside the (m, n)-hook region."""
    mu = normalize_partition(mu)
    return all(p <= rank.n for p in mu[rank.m:])


def hook_weight(rank, mu):
    """Dominant weight attached to a hook partition.

    The first m rows give the barred coordinates; the conjugate of the
    remaining rows gives the unbarred ones.
    """
    mu = normalize_partition(mu)
    if not in_hook(rank, mu):
        raise HookViolation("%r does not fit the (%d|%d) hook" % (mu, *rank))
    m, n = rank
    barred = tuple(mu[i] if i < len(mu) else 0 for i in range(m))
    nu = mu[m:]
    nup = conjugate(nu)
    unbarred = tuple(nup[j] if j < len(nup) else 0 for j in range(n))
    return Weight(rank, barred + unbarred)
