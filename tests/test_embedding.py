import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaccrystal import base, embedding, kac, rsk, tableaux, wordops
from kaccrystal.errors import MalformedHookTableau, NotIsomorphic


def test_split_hook_worked_example(worked_hook_tableau, r33):
    t_plus, t_mid, t_below = embedding.split_hook(r33, worked_hook_tableau)
    assert t_plus.outer == (4, 2)
    assert t_plus.rows == ((-3, -3, -2, -1), (-2, -1))
    assert t_mid.outer == (4, 3, 2) and t_mid.inner == (4, 2)
    assert t_mid.rows == ((), (3,), (1, 2))
    assert t_below.outer == (1, 1)
    assert t_below.rows == ((1,), (2,))


def test_split_hook_rejects_bad_input(r22):
    not_sst = tableaux.make_tableau(base.ALPHABET_B, (2,), [[1, 1]])
    with pytest.raises(MalformedHookTableau):
        embedding.split_hook(r22, not_sst)
    skew = tableaux.make_tableau(base.ALPHABET_B, (2,), [[1]], inner=(1,))
    with pytest.raises(MalformedHookTableau):
        embedding.split_hook(r22, skew)
    wrong_alphabet = tableaux.make_tableau(base.ALPHABET_BMINUS, (1,), [[1]])
    with pytest.raises(MalformedHookTableau):
        embedding.split_hook(r22, wrong_alphabet)


def test_split_join_round_trip_exhaustive(r22):
    for shape in [(3, 2, 1), (2, 2, 2, 1), (1,), (4, 1)]:
        if not base.in_hook(r22, shape):
            continue
        for t in tableaux.enumerate_sst(base.ALPHABET_B, r22, shape):
            pieces = embedding.split_hook(r22, t)
            assert embedding.join_hook(r22, *pieces) == t


def test_transport_identity(r22):
    table = kac.factor_table(base.ALPHABET_BPLUS, r22, (2, 1))
    fwd, back = embedding.transport_iso(table, table)
    assert fwd == {i: i for i in range(len(table.elements))}
    assert back == fwd


def test_transport_rejects_size_mismatch(r22):
    a = kac.factor_table(base.ALPHABET_BPLUS, r22, (2, 1))
    b = kac.factor_table(base.ALPHABET_BPLUS, r22, (2,))
    with pytest.raises(NotIsomorphic):
        embedding.transport_iso(a, b)


def test_sigma_worked_example(worked_hook_tableau, r33):
    t_plus, _, _ = embedding.split_hook(r33, worked_hook_tableau)
    dual = embedding.sigma_to_dual(r33, 4, t_plus)
    assert dual.outer == (4, 4, 4)
    assert dual.inner == (4, 2)
    assert dual.rows == ((), (1, 2), (1, 2, 3, 3))
    assert embedding.sigma_from_dual(r33, 4, dual) == t_plus


def test_sigma_round_trip_exhaustive(r22):
    for shape in [(), (1,), (2,), (2, 1), (2, 2)]:
        for t in tableaux.enumerate_sst(base.ALPHABET_BPLUS, r22, shape):
            dual = embedding.sigma_to_dual(r22, 2, t)
            assert dual.weight(r22) == t.weight(r22).sub(
                base.delta_plus(r22).scale(2)
            )
            assert embedding.sigma_from_dual(r22, 2, dual) == t


def test_xi_worked_example(worked_hook_tableau, r33):
    b = embedding.xi(r33, worked_hook_tableau)
    assert sorted(b.s.roots) == [(1, 3), (2, 2), (3, 1)]
    assert b.t_plus.rows == ((-3, -3, -3, -2), (-2, -2, -1), (-1, -1))
    assert b.t_minus.rows == ((1,), (2,))
    assert b.weight() == worked_hook_tableau.weight(r33)
    assert embedding.pi_bar(r33, b) == worked_hook_tableau


def test_xi_highest_weight(r22):
    shape = (3, 2, 1)
    lam = base.hook_weight(r22, shape)
    source = None
    for t in tableaux.enumerate_sst(base.ALPHABET_B, r22, shape):
        if t.weight(r22) == lam:
            assert source is None
            source = t
    b = embedding.xi(r22, source)
    assert b.s.roots == frozenset()
    assert b.weight() == lam
    for k in base.colors(r22):
        assert kac.apply_kac(k, wordops.RAISE, b) is None


def test_xi_injective_round_trip(r22):
    shape = (3, 2, 1)
    seen = set()
    for t in tableaux.enumerate_sst(base.ALPHABET_B, r22, shape):
        b = embedding.xi(r22, t)
        key = b.key()
        assert key not in seen
        seen.add(key)
        assert embedding.pi_bar(r22, b) == t


def test_xi_empty_shape(r22):
    t = tableaux.make_tableau(base.ALPHABET_B, (), [])
    b = embedding.xi(r22, t)
    assert b.s.roots == frozenset()
    assert b.t_plus.size() == 0 and b.t_minus.size() == 0
    assert embedding.pi_bar(r22, b) == t


def test_pi_bar_out_of_image(r11):
    # weight-zero Kac element carrying the odd root is outside the image of
    # the empty-shape tableau crystal
    u = tableaux.make_tableau(base.ALPHABET_BPLUS, (), [])
    v = tableaux.make_tableau(base.ALPHABET_BMINUS, (), [])
    b = kac.KacElement(
        r11, kac.OddRootSet.of(r11, [(1, 1)]), u, v
    )
    assert embedding.pi_bar(r11, b) is None


def test_pi_bar_shape_obstruction(r22):
    # factor shapes that cannot stack into a hook partition
    u = tableaux.make_tableau(base.ALPHABET_BPLUS, (1,), [[-2]])
    v = tableaux.make_tableau(base.ALPHABET_BMINUS, (2,), [[1, 2]])
    b = kac.KacElement(r22, kac.OddRootSet.empty(r22), u, v)
    assert embedding.pi_bar(r22, b) is None


_R43 = base.make_rank(4, 3)
_HOOK_SHAPES_43 = [
    shape
    for shape in rsk._subpartitions((3, 2, 2, 1, 1))
    if shape and base.in_hook(_R43, shape)
]
_fillings = functools.lru_cache(maxsize=None)(tableaux.enumerate_sst)


@st.composite
def _hook_tableaux_43(draw):
    shape = draw(st.sampled_from(_HOOK_SHAPES_43))
    tabs = _fillings(base.ALPHABET_B, _R43, shape)
    return tabs[draw(st.integers(0, len(tabs) - 1))]


@settings(max_examples=100, deadline=None)
@given(_hook_tableaux_43())
def test_pi_bar_inverts_xi_at_rank_4_3(t):
    b = embedding.xi(_R43, t)
    assert b.weight() == t.weight(_R43)
    assert embedding.pi_bar(_R43, b) == t
