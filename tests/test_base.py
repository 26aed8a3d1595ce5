import pytest
from hypothesis import given
from hypothesis import strategies as st

from kaccrystal import base
from kaccrystal.errors import HookViolation, NotDominant


def test_make_rank_validates():
    assert base.make_rank(2, 3) == (2, 3)
    with pytest.raises(ValueError):
        base.make_rank(0, 1)
    with pytest.raises(ValueError):
        base.make_rank(1, 0)


def test_colors(r22):
    assert base.colors(r22) == [-1, 0, 1]
    assert base.colors(base.make_rank(3, 2)) == [-2, -1, 0, 1]


def test_alphabet_colors(r22):
    assert base.alphabet_colors(base.ALPHABET_BPLUS, r22) == [-1]
    assert base.alphabet_colors(base.ALPHABET_BDUAL, r22) == [-1]
    assert base.alphabet_colors(base.ALPHABET_BMINUS, r22) == [1]
    assert base.alphabet_colors(base.ALPHABET_B, r22) == [-1, 0, 1]


def test_alphabet_letters(r22):
    assert base.alphabet_letters(base.ALPHABET_B, r22) == [-2, -1, 1, 2]
    assert base.alphabet_letters(base.ALPHABET_BPLUS, r22) == [-2, -1]
    assert base.alphabet_letters(base.ALPHABET_BMINUS, r22) == [1, 2]
    assert base.alphabet_letters(base.ALPHABET_BDUAL, r22) == [1, 2]


def test_letter_parity():
    assert base.letter_parity(base.ALPHABET_B, -2) == 0
    assert base.letter_parity(base.ALPHABET_B, 1) == 1
    # dual letters are all even despite positive codes
    assert base.letter_parity(base.ALPHABET_BDUAL, 2) == 0


def test_letter_str_parse_round_trip(r22):
    for alphabet in (base.ALPHABET_B, base.ALPHABET_BPLUS, base.ALPHABET_BMINUS,
                     base.ALPHABET_BDUAL):
        for code in base.alphabet_letters(alphabet, r22):
            text = base.letter_str(alphabet, code)
            assert base.letter_parse(alphabet, text) == code
    assert base.letter_str(base.ALPHABET_B, -3) == "b3"
    assert base.letter_str(base.ALPHABET_BDUAL, 1) == "d1"


def test_letter_ordering():
    # bm < ... < b1 < 1 < ... < n as integer codes
    assert sorted([-1, -3, 2, 1]) == [-3, -1, 1, 2]


def test_weight_parse_str_round_trip(r22):
    w = base.Weight.parse(r22, "4,3|2,1")
    assert w.coords == (4, 3, 2, 1)
    assert str(w) == "4,3|2,1"
    with pytest.raises(ValueError):
        base.Weight.parse(r22, "4|2,1")


def test_weight_coord_accessors(r22):
    # coords run bm..b1 then 1..n
    w = base.Weight(r22, (4, 3, 2, 1))
    assert w.barred_coord(1) == 3
    assert w.barred_coord(2) == 4
    assert w.unbarred_coord(1) == 2
    assert w.unbarred_coord(2) == 1


def test_weight_arithmetic(r22):
    a = base.Weight(r22, (1, 2, 3, 4))
    b = base.Weight(r22, (1, 1, 1, 1))
    assert a.add(b).coords == (2, 3, 4, 5)
    assert a.sub(b).coords == (0, 1, 2, 3)
    assert a.scale(2).coords == (2, 4, 6, 8)


def test_simple_roots(r22):
    assert base.simple_root(r22, 0).coords == (0, 1, -1, 0)
    assert base.simple_root(r22, -1).coords == (1, -1, 0, 0)
    assert base.simple_root(r22, 1).coords == (0, 0, 1, -1)
    with pytest.raises(ValueError):
        base.simple_root(r22, 2)


def test_two_rho(r11, r22):
    assert base.two_rho(r11).coords == (-1, 1)
    # (2|2): barred part (1,-1) + even unbarred (1,-1) - odd part (2,2|..)
    assert base.two_rho(r22).coords == (-1, -3, 3, 1)


def test_typicality(r11):
    lam0 = base.Weight(r11, (0, 0))
    assert not base.is_typical(lam0)
    lam1 = base.Weight(r11, (1, 0))
    assert base.is_typical(lam1)
    with pytest.raises(NotDominant):
        base.is_typical(base.Weight(base.make_rank(2, 1), (0, 1, 0)))


@given(st.integers(min_value=-3, max_value=3))
def test_typicality_invariant_under_delta_shift(c):
    # adding c*(delta_plus + delta_minus) moves every odd pairing by 0
    r11 = base.make_rank(1, 1)
    for coords in [(0, 0), (1, 0), (2, 1), (-1, 1)]:
        lam = base.Weight(r11, coords)
        shift = base.delta_plus(r11).scale(c).add(base.delta_minus(r11).scale(-c))
        assert base.is_typical(lam) == base.is_typical(lam.add(shift))


def test_dominance(r22):
    assert base.Weight(r22, (3, 1, 2, 0)).is_dominant()
    assert not base.Weight(r22, (1, 3, 2, 0)).is_dominant()
    assert not base.Weight(r22, (3, 1, 0, 2)).is_dominant()


partitions = st.lists(st.integers(min_value=0, max_value=6), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(partitions)
def test_conjugate_is_involutive(parts):
    p = base.normalize_partition(parts)
    assert base.normalize_partition(base.conjugate(base.conjugate(p))) == p


@given(partitions)
def test_conjugate_preserves_size(parts):
    assert sum(base.conjugate(parts)) == sum(parts)


def test_normalize_partition():
    assert base.normalize_partition((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(ValueError):
        base.normalize_partition((1, 2))


def test_hook_membership(r22):
    assert base.in_hook(r22, (5, 5, 2, 2, 1))
    assert not base.in_hook(r22, (5, 5, 3))


def test_hook_weight_and_partition(r33):
    lam = base.hook_weight(r33, (4, 3, 2, 1, 1))
    assert str(lam) == "4,3,2|2,0,0"
    with pytest.raises(HookViolation):
        base.hook_weight(base.make_rank(2, 2), (5, 5, 3))


def test_hook_round_trip_exhaustive(r22):
    from kaccrystal.verify import dominant_tuples

    for bs in dominant_tuples(2, 0, 4):
        for nu in dominant_tuples(3, 0, 2):
            shape = bs + nu
            if not base.is_partition(shape) or not base.in_hook(r22, shape):
                continue
            shape = base.normalize_partition(shape)
            lam = base.hook_weight(r22, shape)
            # the barred part and the conjugate of the unbarred part give the shape back
            back = lam.coords[:2] + base.conjugate(lam.coords[2:])
            assert base.normalize_partition(back) == shape
