import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaccrystal import base, kac, rsk, tableaux, wordops
from kaccrystal.errors import KacCrystalError, PreconditionViolated


def _dual_element(rank, lam, ell, pairs, u_rows, v_rows, v_outer):
    mu = tuple(ell + b for b in lam.coords[: rank.m])
    u = tableaux.make_tableau(
        base.ALPHABET_BDUAL, (ell,) * rank.m, u_rows, inner=mu, antinormal=True
    )
    v = tableaux.make_tableau(base.ALPHABET_BMINUS, v_outer, v_rows)
    return kac.KacElement(rank, kac.OddRootSet.of(rank, pairs), u, v)


def test_check_window(r22):
    # the dual model's factor shapes are the one window rule of the insertion map
    kac._dual_factors(base.Weight.parse(r22, "0,-1|1,0"), 2)
    with pytest.raises(PreconditionViolated):
        kac._dual_factors(base.Weight.parse(r22, "1,0|1,0"), 2)
    with pytest.raises(PreconditionViolated):
        kac._dual_factors(base.Weight.parse(r22, "0,-1|0,-1"), 2)
    with pytest.raises(PreconditionViolated):
        kac._dual_factors(base.Weight.parse(r22, "0,-3|1,0"), 2)


def test_rho_empty_root_set(r11):
    lam = base.Weight.parse(r11, "-1|1")
    b = _dual_element(r11, lam, 2, [], [[1]], [[1]], (1,))
    out = rsk.rho(b)
    assert out.p == b.t_plus
    assert out.q.size() == 0
    assert out.v == b.t_minus
    assert rsk.rho_inverse(out) == b


def test_rho_single_root(r11):
    lam = base.Weight.parse(r11, "-1|1")
    b = _dual_element(r11, lam, 2, [(1, 1)], [[1]], [[1]], (1,))
    out = rsk.rho(b)
    # d1 bumps the resident d1 left; 1 is recorded at the created cell
    assert out.p.rows == ((1, 1),)
    assert out.q.rows == ((1,),)
    assert rsk.rho_inverse(out) == b


def test_rho_weight_preserved_worked_weight(r22, dual_domain):
    lam = base.Weight.parse(r22, "-1,-2|2,1")
    for b in dual_domain(lam)[:50]:
        img = rsk.rho(b)
        assert img.weight() == b.weight()


def test_rho_round_trip_exhaustive_small(r11, dual_domain):
    lam = base.Weight.parse(r11, "-1|1")
    ell = kac.dual_ell(lam)
    domain = dual_domain(lam, ell)
    image_keys = set(k.key() for k in rsk.enumerate_image(lam, ell))
    seen = set()
    for b in domain:
        img = rsk.rho(b)
        assert img.key() in image_keys
        assert img.key() not in seen
        seen.add(img.key())
        assert rsk.rho_inverse(img) == b
    assert seen == image_keys


def test_rho_inverse_undo_order(r22, dual_domain):
    # two equal records: the rightmost column is undone first
    lam = base.Weight.parse(r22, "0,-2|1,1")
    domain = dual_domain(lam)
    with_pair = [
        b for b in domain if b.s.roots == frozenset({(1, 1), (2, 1)})
    ]
    assert with_pair
    for b in with_pair:
        assert rsk.rho_inverse(rsk.rho(b)) == b


def test_zero_scan_empty_column(r22):
    lam = base.Weight.parse(r22, "0,-1|1,0")
    ell = 2
    b = _dual_element(r22, lam, ell, [], [[], [2]], [[1]], (1,))
    img = rsk.rho(b)
    sign, c = rsk._zero_scan(img)
    # rightmost P-column above the inner shape is empty: addition applies there
    assert sign == "+" and c == 2
    lowered = rsk.apply_kappa(0, wordops.LOWER, img)
    assert lowered.p.column(2)[0][1] == 1
    assert lowered.q.column(2)[0][1] == 1
    # raising undoes the addition
    assert rsk.apply_kappa(0, wordops.RAISE, lowered).key() == img.key()


def test_apply_kappa_reciprocity_exhaustive(r11):
    lam = base.Weight.parse(r11, "-1|1")
    ell = kac.dual_ell(lam)
    for img in rsk.enumerate_image(lam, ell):
        for k in base.colors(r11):
            dn = rsk.apply_kappa(k, wordops.LOWER, img)
            if dn is not None:
                assert rsk.apply_kappa(k, wordops.RAISE, dn).key() == img.key()
            up = rsk.apply_kappa(k, wordops.RAISE, img)
            if up is not None:
                assert rsk.apply_kappa(k, wordops.LOWER, up).key() == img.key()


def test_rho_intertwines_operators_small(r22, dual_domain):
    lam = base.Weight.parse(r22, "0,-1|1,1")
    for b in dual_domain(lam):
        img = rsk.rho(b)
        for k in base.colors(r22):
            for direction in (wordops.RAISE, wordops.LOWER):
                lhs = kac.apply_kac(k, direction, b)
                rhs = rsk.apply_kappa(k, direction, img)
                assert (lhs is None) == (rhs is None)
                if lhs is not None:
                    assert rsk.rho(lhs).key() == rhs.key()


def test_rho_requires_dual_alphabet(r11):
    u = tableaux.make_tableau(base.ALPHABET_BPLUS, (1,), [[-1]])
    v = tableaux.make_tableau(base.ALPHABET_BMINUS, (), [])
    b = kac.KacElement(r11, kac.OddRootSet.empty(r11), u, v)
    with pytest.raises(KacCrystalError):
        rsk.rho(b)


def test_subpartitions():
    subs = rsk._subpartitions((2, 1))
    assert set(subs) == {(), (1,), (2,), (1, 1), (2, 1)}
    assert rsk._subpartitions(()) == [()]


def test_enumerate_domain_and_image_sizes_match(r22, dual_domain):
    # the bijection forces equal cardinalities; check the raw enumerations
    lam = base.Weight.parse(r22, "0,-1|1,1")
    ell = kac.dual_ell(lam)
    domain = dual_domain(lam, ell)
    image = rsk.enumerate_image(lam, ell)
    assert len(domain) == len(image)
    assert len(set(b.key() for b in domain)) == len(domain)
    assert len(set(k.key() for k in image)) == len(image)


_fillings = functools.lru_cache(maxsize=None)(tableaux.enumerate_sst)


@st.composite
def _window_elements(draw):
    """A domain element of a small window weight at rank (3,3) or (4,3):
    a root set by mask, and U and V by index among their fillings."""
    m, n = draw(st.sampled_from([(3, 3), (4, 3)]))
    rank = base.make_rank(m, n)
    barred = sorted(draw(st.lists(st.integers(-2, 0), min_size=m, max_size=m)), reverse=True)
    unbarred = sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), reverse=True)
    lam = base.Weight(rank, tuple(barred) + tuple(unbarred))
    ell = kac.dual_ell(lam) + draw(st.integers(0, 1))
    mu = tuple(ell + b for b in barred)
    us = _fillings(base.ALPHABET_BDUAL, rank, (ell,) * m, mu)
    vs = _fillings(base.ALPHABET_BMINUS, rank, base.conjugate(unbarred))
    s = kac.OddRootSet.from_mask(rank, draw(st.integers(0, (1 << (m * n)) - 1)))
    u = us[draw(st.integers(0, len(us) - 1))]
    v = vs[draw(st.integers(0, len(vs) - 1))]
    return kac.KacElement(rank, s, u, v)


@settings(max_examples=150, deadline=None)
@given(_window_elements())
def test_rho_round_trip_and_weight_past_rank_2_2(b):
    img = rsk.rho(b)
    assert rsk.rho_inverse(img) == b
    assert img.weight() == b.weight()
