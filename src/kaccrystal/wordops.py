"""Raising and lowering operators on letters, words and tableaux.

Colors are integers: -i for the i-th barred color (1 <= i <= m-1), 0 for the
color joining the barred and unbarred blocks, and j for the j-th unbarred
color (1 <= j <= n-1).  Barred colors combine factors by the lower tensor
rule, unbarred colors by the upper rule (the same bracketing run on the
reversed factor sequence); color 0 acts on the leftmost letter equal to b1
or 1.  Null results are returned as None.
"""

from . import base, tableaux

RAISE = "e"
LOWER = "f"


def letter_apply(alphabet, rank, k, direction, code):
    """Single-letter chain operator; None when undefined."""
    m, n = rank
    if alphabet == base.ALPHABET_BDUAL:
        if k >= 0:
            return None
        i = -k
        if direction == LOWER:
            return i + 1 if code == i else None
        return i if code == i + 1 else None
    if k == 0:
        if direction == LOWER:
            return 1 if code == -1 else None
        return -1 if code == 1 else None
    if k < 0:
        i = -k
        if direction == LOWER:
            return -i if code == -(i + 1) else None
        return -(i + 1) if code == -i else None
    j = k
    if direction == LOWER:
        return j + 1 if code == j else None
    return j if code == j + 1 else None


def letter_eps_phi(alphabet, rank, k, code):
    eps = 0 if letter_apply(alphabet, rank, k, RAISE, code) is None else 1
    phi = 0 if letter_apply(alphabet, rank, k, LOWER, code) is None else 1
    return eps, phi


def bracket(pairs, upper=False):
    """Cancel signature pairs; pairs is a list of (eps, phi) contributions.

    Returns (e_index, f_index, eps, phi): the positions acted on by the
    raising and lowering operators (None when null) and the string lengths.
    Each factor contributes its minus signs then its plus signs; for the
    upper rule the factor sequence is reversed first.
    """
    seq = list(pairs)
    if upper:
        seq.reverse()
    stack = []
    minus = []
    for idx, (eps, phi) in enumerate(seq):
        for _ in range(eps):
            if stack:
                stack.pop()
            else:
                minus.append(idx)
        stack.extend([idx] * phi)
    e_idx = minus[-1] if minus else None
    f_idx = stack[0] if stack else None
    if upper:
        last = len(seq) - 1
        e_idx = None if e_idx is None else last - e_idx
        f_idx = None if f_idx is None else last - f_idx
    return e_idx, f_idx, len(minus), len(stack)


def word_apply(alphabet, rank, k, direction, word):
    """Apply a colored operator to a word; None when null."""
    if k == 0:
        for idx, code in enumerate(word):
            if code in (-1, 1):
                new = letter_apply(alphabet, rank, 0, direction, code)
                if new is None:
                    return None
                out = list(word)
                out[idx] = new
                return out
        return None
    pairs = [letter_eps_phi(alphabet, rank, k, c) for c in word]
    e_idx, f_idx, _, _ = bracket(pairs, upper=k > 0)
    idx = e_idx if direction == RAISE else f_idx
    if idx is None:
        return None
    out = list(word)
    out[idx] = letter_apply(alphabet, rank, k, direction, word[idx])
    return out


def word_eps_phi(alphabet, rank, k, word):
    if k == 0:
        eps = 0 if word_apply(alphabet, rank, 0, RAISE, word) is None else 1
        phi = 0 if word_apply(alphabet, rank, 0, LOWER, word) is None else 1
        return eps, phi
    pairs = [letter_eps_phi(alphabet, rank, k, c) for c in word]
    _, _, eps, phi = bracket(pairs, upper=k > 0)
    return eps, phi


def tableau_apply(rank, k, direction, t, order=tableaux.READ_BY_COLUMNS):
    """Apply a colored operator through an admissible reading of t."""
    cells = tableaux.reading_cells(t, order)
    word = [t.cell(r, c) for r, c in cells]
    new = word_apply(t.alphabet, rank, k, direction, word)
    if new is None:
        return None
    for (r, c), old, v in zip(cells, word, new):
        if v != old:
            return t.set_cell(r, c, v)
    return t


def tableau_eps_phi(rank, k, t, order=tableaux.READ_BY_COLUMNS):
    return word_eps_phi(t.alphabet, rank, k, tableaux.reading_word(t, order))


def tensor_select(k, direction, eps1, phi1, eps2, phi2):
    """Which factor of a two-factor product the operator acts on (1 or 2)."""
    if k < 0:
        if direction == LOWER:
            return 1 if phi1 > eps2 else 2
        return 1 if phi1 >= eps2 else 2
    if direction == LOWER:
        return 2 if phi2 > eps1 else 1
    return 2 if phi2 >= eps1 else 1
