"""Skew tableaux over graded alphabets.

Semistandard means: rows weakly increase left to right, columns weakly
increase top to bottom, even letters are strict down columns and odd letters
are strict along rows.  Cells are addressed 1-based as (row, col); row r of a
shape outer/inner occupies columns inner_r+1 .. outer_r.

Anti-normal tableaux live inside a fixed rectangle: the shape is (w^h)/inner
and bumping runs right to left (largest entry at the bottom right).
"""

from dataclasses import dataclass, field

from . import base
from .errors import InsertionOverflow, KacCrystalError, MalformedElement


@dataclass(frozen=True)
class Tableau:
    alphabet: str
    outer: tuple
    inner: tuple
    rows: tuple
    # presentation hint for serialization; not part of tableau identity
    antinormal: bool = field(default=False, compare=False)

    def __post_init__(self):
        if len(self.rows) != len(self.outer):
            raise ValueError("row count does not match outer shape")
        for i, row in enumerate(self.rows):
            if len(row) != self.outer[i] - self.inner_row(i + 1):
                raise ValueError("row %d has wrong length" % (i + 1,))

    def inner_row(self, r):
        return self.inner[r - 1] if r - 1 < len(self.inner) else 0

    @property
    def nrows(self):
        return len(self.outer)

    @property
    def ncols(self):
        return self.outer[0] if self.outer else 0

    def has_cell(self, r, c):
        return 1 <= r <= self.nrows and self.inner_row(r) < c <= self.outer[r - 1]

    def cell(self, r, c):
        return self.rows[r - 1][c - 1 - self.inner_row(r)]

    def cells(self):
        for r in range(1, self.nrows + 1):
            for c in range(self.inner_row(r) + 1, self.outer[r - 1] + 1):
                yield r, c

    def set_cell(self, r, c, code):
        rows = list(self.rows)
        row = list(rows[r - 1])
        row[c - 1 - self.inner_row(r)] = code
        rows[r - 1] = tuple(row)
        return Tableau(self.alphabet, self.outer, self.inner, tuple(rows), self.antinormal)

    def with_cell(self, r, c, code=None):
        """Add or remove one cell on the inner boundary.

        With a code, fill the cell (r, c) just outside the inner shape; with
        code None, empty the inner-corner cell (r, c).  Either cell is the
        first entry of row r.  Raises InsertionOverflow when (r, c) is not on
        the boundary.
        """
        if not 1 <= r <= self.nrows:
            raise InsertionOverflow("row %d is outside the tableau" % r)
        inner = list(self.inner) + [0] * (self.nrows - len(self.inner))
        above = inner[r - 2] if r > 1 else self.outer[0]
        below = inner[r] if r < self.nrows else 0
        rows = list(self.rows)
        if code is None:
            if inner[r - 1] != c - 1 or c > self.outer[r - 1] or above < c:
                raise InsertionOverflow("cell (%d, %d) is not an inner corner" % (r, c))
            inner[r - 1] = c
            rows[r - 1] = rows[r - 1][1:]
        else:
            if c < 1 or inner[r - 1] != c or below >= c:
                raise InsertionOverflow("cell (%d, %d) is not addable" % (r, c))
            inner[r - 1] = c - 1
            rows[r - 1] = (code,) + rows[r - 1]
        while inner and inner[-1] == 0:
            inner.pop()
        return Tableau(self.alphabet, self.outer, tuple(inner), tuple(rows), self.antinormal)

    def column(self, c):
        """(row, value) pairs of column c, top to bottom."""
        out = []
        for r in range(1, self.nrows + 1):
            if self.has_cell(r, c):
                out.append((r, self.cell(r, c)))
        return out

    def size(self):
        return sum(len(row) for row in self.rows)

    def weight(self, rank):
        total = base.Weight.zero(rank)
        for r, c in self.cells():
            total = total.add(base.letter_weight(rank, self.alphabet, self.cell(r, c)))
        return total

    def is_semistandard(self):
        if not base.is_partition(self.outer) or not base.is_partition(self.inner):
            return False
        for i in range(len(self.outer)):
            if self.inner_row(i + 1) > self.outer[i]:
                return False
        for r, c in self.cells():
            v = self.cell(r, c)
            if self.has_cell(r, c - 1):
                left = self.cell(r, c - 1)
                if left > v or (left == v and base.letter_parity(self.alphabet, v) == 1):
                    return False
            if self.has_cell(r - 1, c):
                up = self.cell(r - 1, c)
                if up > v or (up == v and base.letter_parity(self.alphabet, v) == 0):
                    return False
        return True

    def to_json(self):
        return {
            "alphabet": self.alphabet,
            "outer": list(self.outer),
            "inner": list(self.inner),
            "antinormal": self.antinormal,
            "rows": [
                [base.letter_str(self.alphabet, v) for v in row] for row in self.rows
            ],
        }

    @staticmethod
    def from_json(data):
        alphabet = data["alphabet"]
        rows = tuple(
            tuple(base.letter_parse(alphabet, v) for v in row) for row in data["rows"]
        )
        return Tableau(
            alphabet,
            tuple(data["outer"]),
            tuple(data["inner"]),
            rows,
            bool(data.get("antinormal", False)),
        )


def parse_straight(rank, data, alphabet, name):
    """Parse the JSON form of a straight semistandard tableau over alphabet.

    Raises MalformedElement, with name in the message, unless data is such
    a tableau with every letter in the rank.
    """
    if not isinstance(data, dict):
        raise MalformedElement("%s must be a JSON object" % name)
    try:
        t = Tableau.from_json(data)
    except KeyError as exc:
        raise MalformedElement("%s is missing field %r" % (name, exc.args[0]))
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedElement("%s: %r" % (name, exc))
    if t.alphabet != alphabet:
        raise MalformedElement("%s must use alphabet %s" % (name, alphabet))
    integral = all(isinstance(x, int) for x in t.outer + t.inner)
    if not integral or any(t.inner) or not t.is_semistandard():
        raise MalformedElement("%s is not a straight semistandard tableau" % name)
    letters = base.alphabet_letters(alphabet, rank)
    if any(v not in letters for row in t.rows for v in row):
        raise MalformedElement("%s has a letter outside rank %d,%d" % ((name,) + rank))
    return t


def make_tableau(alphabet, outer, rows, inner=(), antinormal=False):
    return Tableau(alphabet, tuple(outer), tuple(inner), tuple(tuple(r) for r in rows), antinormal)


def empty_tableau(alphabet, outer, inner=None, antinormal=False):
    """Tableau with no cells: inner defaults to outer."""
    outer = tuple(outer)
    inner = outer if inner is None else tuple(inner)
    return Tableau(alphabet, outer, inner, ((),) * len(outer), antinormal)


def enumerate_sst(alphabet, rank, outer, inner=()):
    """All semistandard fillings of outer/inner, by brute cell-by-cell fill."""
    outer = tuple(outer)
    inner = base.normalize_partition(inner)
    letters = base.alphabet_letters(alphabet, rank)
    cells = []
    for r in range(1, len(outer) + 1):
        lo = inner[r - 1] if r - 1 < len(inner) else 0
        for c in range(lo + 1, outer[r - 1] + 1):
            cells.append((r, c))
    grid = {}
    results = []

    def fill(k):
        if k == len(cells):
            rows = []
            for r in range(1, len(outer) + 1):
                lo = inner[r - 1] if r - 1 < len(inner) else 0
                rows.append(tuple(grid[(r, c)] for c in range(lo + 1, outer[r - 1] + 1)))
            results.append(Tableau(alphabet, outer, inner, tuple(rows)))
            return
        r, c = cells[k]
        for v in letters:
            if (r, c - 1) in grid:
                left = grid[(r, c - 1)]
                if left > v or (left == v and base.letter_parity(alphabet, v) == 1):
                    continue
            if (r - 1, c) in grid:
                up = grid[(r - 1, c)]
                if up > v or (up == v and base.letter_parity(alphabet, v) == 0):
                    continue
            grid[(r, c)] = v
            fill(k + 1)
            del grid[(r, c)]

    fill(0)
    return results


# ---------------------------------------------------------------------------
# reading words

READ_BY_COLUMNS = "columns"
READ_BY_ROWS = "rows"


def reading_cells(t, order=READ_BY_COLUMNS):
    """Cell positions in an admissible reading order.

    Both orders read each cell before the cells below it and to its left:
    columns right to left scanned top down, or rows top down scanned right
    to left.
    """
    cells = []
    if order == READ_BY_COLUMNS:
        for c in range(t.ncols, 0, -1):
            for r, _ in t.column(c):
                cells.append((r, c))
    elif order == READ_BY_ROWS:
        for r in range(1, t.nrows + 1):
            for c in range(t.outer[r - 1], t.inner_row(r), -1):
                cells.append((r, c))
    else:
        raise ValueError("unknown reading order %r" % (order,))
    return cells


def reading_word(t, order=READ_BY_COLUMNS):
    return [t.cell(r, c) for r, c in reading_cells(t, order)]


# ---------------------------------------------------------------------------
# insertion

def antinormal_insert(t, code):
    """Bumping insertion into an anti-normal tableau inside its rectangle.

    Starting at the rightmost column, an even letter replaces the largest
    entry <= it and an odd letter the largest entry strictly below it; the
    replaced entry carries into the next column left.  When a column has no
    candidate the letter lands on top of that column and a new cell is
    created.  Returns (tableau, created_cell).
    """
    if len(set(t.outer)) > 1:
        raise KacCrystalError("anti-normal insertion requires a rectangle")
    a = code
    for c in range(t.ncols, 0, -1):
        top = sum(1 for x in t.inner if x >= c)  # row above the column's cells
        strict = base.letter_parity(t.alphabet, a) == 1
        target = None
        for r in range(t.nrows, top, -1):
            v = t.cell(r, c)
            if v < a or (v == a and not strict):
                target = r
                break
        if target is None:
            if top == 0:
                raise InsertionOverflow("bumping exited the rectangle")
            return t.with_cell(top, c, a), (top, c)
        a, t = t.cell(target, c), t.set_cell(target, c, a)
    raise InsertionOverflow("bumping exited the rectangle")


def antinormal_delete(t, cell):
    """Reverse one anti-normal insertion given the created cell.

    Returns (tableau, code) where code is the letter originally inserted.
    """
    c0 = cell[1]
    t, a = t.with_cell(*cell), t.cell(*cell)
    for c in range(c0 + 1, t.ncols + 1):
        top = sum(1 for x in t.inner if x >= c)
        strict = base.letter_parity(t.alphabet, a) == 1
        target = None
        for r in range(top + 1, t.nrows + 1):
            v = t.cell(r, c)
            if v > a or (v == a and not strict):
                target = r
                break
        if target is None:
            raise KacCrystalError("cannot reverse insertion at %r" % (cell,))
        a, t = t.cell(target, c), t.set_cell(target, c, a)
    return t, a
