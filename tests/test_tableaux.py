import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaccrystal import base, kac, tableaux
from kaccrystal.errors import InsertionOverflow, KacCrystalError


def test_semistandard_rules(r22):
    # odd letters strict along rows: [1,1] is not a row
    bad_row = tableaux.make_tableau(base.ALPHABET_BMINUS, (2,), [[1, 1]])
    assert not bad_row.is_semistandard()
    ok_col = tableaux.make_tableau(base.ALPHABET_BMINUS, (1, 1), [[1], [1]])
    assert ok_col.is_semistandard()
    # even letters strict down columns: [b1 / b1] is not a column
    bad_col = tableaux.make_tableau(base.ALPHABET_BPLUS, (1, 1), [[-1], [-1]])
    assert not bad_col.is_semistandard()
    ok_row = tableaux.make_tableau(base.ALPHABET_BPLUS, (2,), [[-1, -1]])
    assert ok_row.is_semistandard()


def test_worked_example_factor_is_semistandard(worked_kac_element):
    assert worked_kac_element.t_plus.is_semistandard()
    assert worked_kac_element.t_minus.is_semistandard()


def test_mixed_alphabet_semistandard(r22):
    t = tableaux.make_tableau(base.ALPHABET_B, (2, 2), [[-2, 1], [-1, 1]])
    assert t.is_semistandard()
    t2 = tableaux.make_tableau(base.ALPHABET_B, (2, 2), [[-2, 1], [-1, -1]])
    assert not t2.is_semistandard()  # b1 right of b1 is fine, below -2... not here


def test_weight(r22):
    t = tableaux.make_tableau(base.ALPHABET_B, (2,), [[-2, 1]])
    assert t.weight(r22).coords == (1, 0, 1, 0)
    d = tableaux.make_tableau(base.ALPHABET_BDUAL, (1,), [[2]])
    # dual letter d2 has weight -eps(b2)
    assert d.weight(r22).coords == (-1, 0, 0, 0)


def test_skew_cells_and_columns():
    t = tableaux.make_tableau(base.ALPHABET_BMINUS, (3, 2), [[1, 2], [1, 2]], inner=(1,))
    assert list(t.cells()) == [(1, 2), (1, 3), (2, 1), (2, 2)]
    assert t.column(1) == [(2, 1)]
    assert t.column(2) == [(1, 1), (2, 2)]
    assert t.cell(1, 2) == 1 and t.cell(2, 2) == 2


def test_json_round_trip(worked_kac_element):
    for t in (worked_kac_element.t_plus, worked_kac_element.t_minus):
        assert tableaux.Tableau.from_json(t.to_json()) == t
    skew = tableaux.make_tableau(
        base.ALPHABET_BDUAL, (2, 2), [[1], [1, 2]], inner=(1,), antinormal=True
    )
    back = tableaux.Tableau.from_json(skew.to_json())
    assert back == skew and back.antinormal


# frozen brute-force counts; closed-form cross-checks in comments
FROZEN_COUNTS = [
    (base.ALPHABET_BPLUS, (2, 2), (2, 1), (), 2),     # gl(2) dim of (2,1)
    (base.ALPHABET_BMINUS, (2, 2), (2, 1), (), 2),
    (base.ALPHABET_BMINUS, (2, 2), (1, 1, 1), (), 4),  # weak 3-multisets of {1,2}
    (base.ALPHABET_BDUAL, (2, 2), (3, 3), (2, 1), 2),
    (base.ALPHABET_B, (1, 1), (3,), (), 2),
    (base.ALPHABET_B, (2, 2), (2, 1), (), 20),
    (base.ALPHABET_B, (2, 2), (3, 3, 2, 2), (), 16),
    (base.ALPHABET_B, (3, 2), (2, 2, 1), (), 100),
    (base.ALPHABET_BPLUS, (3, 2), (3, 1), (), 15),     # gl(3) dim of (3,1,0)
]


@pytest.mark.parametrize("alphabet,rank,outer,inner,count", FROZEN_COUNTS)
def test_frozen_sst_counts(alphabet, rank, outer, inner, count):
    assert len(tableaux.enumerate_sst(alphabet, base.make_rank(*rank), outer, inner)) == count


def test_enumerate_sst_normalizes_inner(r22):
    with_zeros = len(tableaux.enumerate_sst(base.ALPHABET_BPLUS, r22, (2, 1), (0, 0)))
    assert with_zeros == 2


def test_highest_barred(r33):
    # the unique source fills row i with the (m - i + 1)-th barred letter
    table = kac.factor_table(base.ALPHABET_BPLUS, r33, (4, 3, 2))
    sources = [table.elements[i].rows for i in table.sources()]
    assert sources == [((-3,) * 4, (-2,) * 3, (-1,) * 2)]


def test_highest_unbarred(r33):
    # the unique source fills column j with the letter j
    table = kac.factor_table(base.ALPHABET_BMINUS, r33, (3, 1))
    sources = [table.elements[i].rows for i in table.sources()]
    assert sources == [((1, 2, 3), (1,))]


def test_reading_orders_visit_all_cells(worked_kac_element):
    t = worked_kac_element.t_plus
    all_cells = set(t.cells())
    for order in (tableaux.READ_BY_COLUMNS, tableaux.READ_BY_ROWS):
        cells = tableaux.reading_cells(t, order)
        assert set(cells) == all_cells and len(cells) == len(all_cells)
    with pytest.raises(ValueError):
        tableaux.reading_cells(t, "diagonal")


def test_reading_order_admissibility(worked_kac_element):
    # every cell precedes the cells below it and to its left
    t = worked_kac_element.t_plus
    for order in (tableaux.READ_BY_COLUMNS, tableaux.READ_BY_ROWS):
        pos = {rc: i for i, rc in enumerate(tableaux.reading_cells(t, order))}
        for r, c in t.cells():
            if t.has_cell(r + 1, c):
                assert pos[(r, c)] < pos[(r + 1, c)]
            if t.has_cell(r, c - 1):
                assert pos[(r, c)] < pos[(r, c - 1)]


def _antinormal_states(rank, width, height, alphabet):
    """All anti-normal tableaux in the rectangle, by exhaustive inner shapes."""
    out = []
    shapes = []

    def rec(acc, prev):
        if len(acc) == height:
            shapes.append(tuple(acc))
            return
        for v in range(min(prev, width), -1, -1):
            rec(acc + [v], v)

    rec([], width)
    for inner in shapes:
        for t in tableaux.enumerate_sst(alphabet, rank, (width,) * height, inner):
            out.append(
                tableaux.Tableau(t.alphabet, t.outer, t.inner, t.rows, True)
            )
    return out


def test_antinormal_insert_delete_round_trip_exhaustive(r22):
    for t in _antinormal_states(r22, 2, 2, base.ALPHABET_BDUAL):
        for code in base.alphabet_letters(base.ALPHABET_BDUAL, r22):
            try:
                out, cell = tableaux.antinormal_insert(t, code)
            except InsertionOverflow:
                continue
            assert out.is_semistandard()
            assert out.size() == t.size() + 1
            back, popped = tableaux.antinormal_delete(out, cell)
            assert back == t and popped == code


def test_with_cell_round_trip_on_the_boundary(r22):
    for t in _antinormal_states(r22, 2, 2, base.ALPHABET_BDUAL):
        inner = list(t.inner) + [0] * (t.nrows - len(t.inner))
        for r in range(1, t.nrows + 1):
            for c in range(1, t.ncols + 1):
                below = inner[r] if r < t.nrows else 0
                above = inner[r - 2] if r > 1 else t.ncols
                if inner[r - 1] == c and below < c:
                    added = t.with_cell(r, c, 2)
                    assert added.cell(r, c) == 2 and added.size() == t.size() + 1
                    assert added.with_cell(r, c) == t
                else:
                    with pytest.raises(InsertionOverflow):
                        t.with_cell(r, c, 2)
                if inner[r - 1] == c - 1 and above >= c:
                    removed = t.with_cell(r, c)
                    assert removed.size() == t.size() - 1
                    assert removed.with_cell(r, c, t.cell(r, c)) == t
                else:
                    with pytest.raises(InsertionOverflow):
                        t.with_cell(r, c)


def test_antinormal_delete_rejects_a_cell_off_the_inner_corner():
    # (2, 2) tops its column but (2, 1) is still filled to its left
    t = tableaux.Tableau(base.ALPHABET_BDUAL, (3, 3), (2,), ((1,), (1, 1, 2)), True)
    with pytest.raises(KacCrystalError):
        tableaux.antinormal_delete(t, (2, 2))


def test_antinormal_insert_overflow(r22):
    full = tableaux.make_tableau(
        base.ALPHABET_BDUAL, (1, 1), [[1], [2]], antinormal=True
    )
    with pytest.raises(InsertionOverflow):
        tableaux.antinormal_insert(full, 1)


def test_antinormal_requires_rectangle(r22):
    t = tableaux.make_tableau(base.ALPHABET_BDUAL, (2, 1), [[1, 2], [2]])
    with pytest.raises(KacCrystalError):
        tableaux.antinormal_insert(t, 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3]), min_size=0, max_size=6))
def test_antinormal_insert_sequence_round_trip(codes):
    r = base.make_rank(3, 1)
    t = tableaux.empty_tableau(base.ALPHABET_BDUAL, (3, 3, 3), antinormal=True)
    history = [t]
    cells = []
    try:
        for code in codes:
            t, cell = tableaux.antinormal_insert(t, code)
            history.append(t)
            cells.append(cell)
    except InsertionOverflow:
        return
    for code in reversed(codes):
        cell = cells.pop()
        t, popped = tableaux.antinormal_delete(t, cell)
        assert popped == code
        assert t == history[len(cells)]


@st.composite
def _partitions(draw, max_rows=4, max_part=4):
    parts = draw(st.lists(st.integers(1, max_part), min_size=1, max_size=max_rows))
    return tuple(sorted(parts, reverse=True))


@settings(max_examples=60, deadline=None)
@given(_partitions(), st.data())
def test_tableau_rejects_a_row_of_the_wrong_length(outer, data):
    r = data.draw(st.integers(0, len(outer) - 1))
    delta = data.draw(st.sampled_from([-1, 1]).filter(lambda d: outer[r] + d >= 0))
    rows = [(1,) * p for p in outer]
    rows[r] = (1,) * (outer[r] + delta)
    with pytest.raises(ValueError):
        tableaux.Tableau(base.ALPHABET_BMINUS, outer, (), tuple(rows))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_with_cell_off_the_boundary_overflows(width, height, data):
    inner = sorted(
        data.draw(st.lists(st.integers(0, width), min_size=height, max_size=height)),
        reverse=True,
    )
    t = tableaux.Tableau(
        base.ALPHABET_BDUAL,
        (width,) * height,
        tuple(inner),
        tuple((1,) * (width - o) for o in inner),
        True,
    )
    r = data.draw(st.integers(-1, height + 1))
    c = data.draw(st.integers(-1, width + 1))
    inside = 1 <= r <= height
    below = inner[r] if 1 <= r < height else 0
    above = inner[r - 2] if 2 <= r <= height else width
    addable = inside and c >= 1 and inner[r - 1] == c and below < c
    corner = inside and c <= width and inner[r - 1] == c - 1 and above >= c
    if addable:
        assert t.with_cell(r, c, 2).cell(r, c) == 2
    else:
        with pytest.raises(InsertionOverflow):
            t.with_cell(r, c, 2)
    if corner:
        assert t.with_cell(r, c).size() == t.size() - 1
    else:
        with pytest.raises(InsertionOverflow):
            t.with_cell(r, c)
