import pytest

from kaccrystal import base, kac, tableaux


@pytest.fixture
def r11():
    return base.make_rank(1, 1)


@pytest.fixture
def r22():
    return base.make_rank(2, 2)


@pytest.fixture
def r33():
    return base.make_rank(3, 3)


@pytest.fixture
def dual_domain():
    """The domain of the insertion map at a window weight: the elements of
    its dual-model graph, in vertex order."""

    def domain(lam, ell=None):
        g = kac.generate_graph(lam, model=kac.MODEL_DUAL, ell=ell)
        return [g.element(v) for v in g.vertices]

    return domain


@pytest.fixture
def worked_kac_element(r33):
    """Rank (3|3) element at weight 4,3,2|3,1,0 used in several checks."""
    s = kac.OddRootSet.of(r33, [(2, 1), (2, 2), (1, 3)])
    u = tableaux.make_tableau(
        base.ALPHABET_BPLUS, (4, 3, 2), [[-3, -3, -3, -2], [-2, -2, -1], [-1, -1]]
    )
    v = tableaux.make_tableau(base.ALPHABET_BMINUS, (2, 1, 1), [[1, 3], [2], [2]])
    return kac.KacElement(r33, s, u, v)


@pytest.fixture
def worked_hook_tableau():
    """Rank (3|3) hook tableau of shape (4,3,2,1,1) used in several checks."""
    return tableaux.make_tableau(
        base.ALPHABET_B,
        (4, 3, 2, 1, 1),
        [[-3, -3, -2, -1], [-2, -1, 3], [1, 2], [1], [2]],
    )
