import hashlib
import json

import pytest

from kaccrystal import base, kac, tableaux, verify, wordops
from kaccrystal.errors import NotDominant, SizeCapExceeded


def test_root_orders(r33):
    s = kac.OddRootSet.of(r33, [(2, 1), (2, 2), (1, 3)])
    # by j then i
    assert s.sorted(kac.PREC) == [(2, 1), (2, 2), (1, 3)]
    # by i then descending j
    assert s.sorted(kac.PREC_PRIME) == [(1, 3), (2, 2), (2, 1)]


def test_root_set_mask_round_trip(r22):
    for mask in range(16):
        s = kac.OddRootSet.from_mask(r22, mask)
        assert s.mask() == mask
        assert kac.OddRootSet.of(r22, s.sorted()) == s


def test_root_set_bits_and_weight(r22):
    s = kac.OddRootSet.of(r22, [(1, 2)])
    assert s.bits() == [[0, 1], [0, 0]]
    # -eps(b1) + eps(2)
    assert s.weight().coords == (0, -1, 0, 1)
    with pytest.raises(ValueError):
        kac.OddRootSet.of(r22, [(3, 1)])


def test_zero_color_on_root_set(r22):
    empty = kac.OddRootSet.empty(r22)
    added = empty.apply(0, wordops.LOWER)
    assert added.roots == frozenset({(1, 1)})
    assert empty.apply(0, wordops.RAISE) is None
    assert added.apply(0, wordops.LOWER) is None
    assert added.apply(0, wordops.RAISE) == empty
    assert empty.eps_phi(0) == (0, 1)
    assert added.eps_phi(0) == (1, 0)


def test_root_set_reciprocity_exhaustive(r22):
    for mask in range(16):
        s = kac.OddRootSet.from_mask(r22, mask)
        for k in base.colors(r22):
            dn = s.apply(k, wordops.LOWER)
            if dn is not None:
                assert dn.apply(k, wordops.RAISE) == s
            up = s.apply(k, wordops.RAISE)
            if up is not None:
                assert up.apply(k, wordops.LOWER) == s


def test_kac_element_weight(worked_kac_element):
    assert str(worked_kac_element.weight()) == "3,1,2|2,3,2"


def test_apply_kac_worked_example(worked_kac_element, r33):
    b = worked_kac_element
    # raising at 0 is null since the root (1,1) is absent
    assert kac.apply_kac(0, wordops.RAISE, b) is None
    f0 = kac.apply_kac(0, wordops.LOWER, b)
    assert f0.s.roots == b.s.roots | {(1, 1)}
    assert f0.t_plus == b.t_plus and f0.t_minus == b.t_minus
    # barred color -2 moves the root (2,1) to (3,1), tableaux untouched
    fm2 = kac.apply_kac(-2, wordops.LOWER, b)
    assert fm2.s.roots == frozenset({(3, 1), (2, 2), (1, 3)})
    assert fm2.t_plus == b.t_plus and fm2.t_minus == b.t_minus
    # unbarred color 2 acts on the last factor: bottom cell 2 -> 3
    f2 = kac.apply_kac(2, wordops.LOWER, b)
    assert f2.s == b.s and f2.t_plus == b.t_plus
    assert f2.t_minus.rows == ((1, 3), (2,), (3,))


def test_kac_element_json(worked_kac_element):
    data = worked_kac_element.to_json()
    assert data["S"] == [[0, 0, 1], [1, 1, 0], [0, 0, 0]]
    assert data["Tplus"]["rows"][0] == ["b3", "b3", "b3", "b2"]


def test_factor_table_restricts_colors(r22):
    t = kac.factor_table(base.ALPHABET_BPLUS, r22, (2, 1))
    assert t.colors == [-1]
    assert len(t.elements) == 2
    assert len(t.sources()) == 1


def test_generate_graph_counts(r22):
    lam = base.Weight.parse(r22, "2,1|1,0")
    g = kac.generate_graph(lam)
    assert len(g.vertices) == 64
    assert len(g.edges) == 100
    # cardinality = 2^4 * #SST(B+,(2,1)) * #SST(B-,conj(1,0))
    assert len(g.vertices) == 16 * 2 * 2


def test_generate_graph_deterministic_json(r22):
    lam = base.Weight.parse(r22, "2,1|1,0")
    doc = kac.generate_graph(lam).to_json()
    # the edges, with each vertex written as its element and weight, not its id
    canon = {
        v["id"]: json.dumps(
            {key: val for key, val in v.items() if key != "id"},
            sort_keys=True,
            separators=(",", ":"),
        )
        for v in doc["vertices"]
    }
    total = sum(
        int.from_bytes(
            hashlib.sha256(("%s|%d|%s" % (canon[src], k, canon[dst])).encode()).digest()[:16],
            "big",
        )
        for src, k, dst in doc["edges"]
    )
    assert "%032x" % (total % (1 << 128)) == "d2c0b09822852687a49d995e049f6843"
    # the bytes, with vertex ids in product order
    blob = json.dumps(doc, sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()
    assert digest.startswith("635d27e7ded0299b")


def test_generate_graph_negative_coords_offset(r22):
    lam = base.Weight.parse(r22, "-1,-2|2,1")
    g = kac.generate_graph(lam)
    # offset restores the true generating weight at the unique genuine source
    genuine = [
        v for v in g.source_vertices() if g.weight_coords(v) == lam.coords
    ]
    assert len(genuine) == 1
    for v in range(len(g.vertices)):
        assert g.weight_coords(v) == g.element(v).weight(g.offset).coords


def test_generate_graph_dual_model(r22):
    lam = base.Weight.parse(r22, "-1,-2|2,1")
    g = kac.generate_graph(lam, model=kac.MODEL_DUAL)
    assert len(g.vertices) == 64
    assert g.plus_table.alphabet == base.ALPHABET_BDUAL


def test_generate_graph_rejects_non_dominant(r22):
    with pytest.raises(NotDominant):
        kac.generate_graph(base.Weight.parse(r22, "1,2|0,0"))


def test_size_cap(r22):
    lam = base.Weight.parse(r22, "2,1|1,0")
    with pytest.raises(SizeCapExceeded) as exc:
        kac.generate_graph(lam, cap=10)
    assert exc.value.cardinality == 64
    assert exc.value.cap == 10


def test_size_cap_fails_before_any_table_is_built(monkeypatch):
    def no_table(*args):
        raise AssertionError("table built for an over-cap graph")

    monkeypatch.setattr(kac, "factor_table", no_table)
    monkeypatch.setattr(kac, "odd_table", no_table)
    lam = base.Weight.parse(base.make_rank(5, 3), "8,6,4,2,0|2,1,0")
    with pytest.raises(SizeCapExceeded) as exc:
        kac.generate_graph(lam)
    assert exc.value.cardinality > kac.DEFAULT_CAP


def _table_args():
    """The factor table arguments of every default-sweep class, and of the
    dual model on window weights at dual_ell and one wider."""
    args = set()
    for lam in verify.default_instances():
        shape_plus, shape_minus, _ = kac._standard_factors(lam)
        args.add((base.ALPHABET_BPLUS, lam.rank, shape_plus))
        args.add((base.ALPHABET_BMINUS, lam.rank, shape_minus))
    for m, n in verify.DEFAULT_RANKS + ((2, 3),):
        rank = base.make_rank(m, n)
        for bs in verify.dominant_tuples(m, -2, 0):
            for us in verify.dominant_tuples(n, 0, 2):
                lam = base.Weight(rank, bs + us)
                for ell in (kac.dual_ell(lam), kac.dual_ell(lam) + 1):
                    outer, mu, shape_minus = kac._dual_factors(lam, ell)
                    args.add((base.ALPHABET_BDUAL, rank, outer, mu))
                    args.add((base.ALPHABET_BMINUS, rank, shape_minus))
    return sorted(args, key=repr)


def test_filling_count_matches_table_size():
    args = _table_args()
    assert {a[0] for a in args} == {
        base.ALPHABET_BPLUS, base.ALPHABET_BMINUS, base.ALPHABET_BDUAL
    }
    wrong = [a for a in args if kac._filling_count(*a) != len(kac.factor_table(*a).elements)]
    assert not wrong


def test_vertex_id_inverts_element(r22):
    g = kac.generate_graph(base.Weight.parse(r22, "1,0|1,0"))
    assert [g.vertex_id(g.element(v)) for v in g.vertices] == list(g.vertices)
    other = kac.generate_graph(base.Weight.parse(r22, "2,0|1,0"))
    assert g.vertex_id(other.element(len(other.vertices) - 1)) is None
    dual = kac.generate_graph(base.Weight.parse(r22, "0,-1|1,0"), model=kac.MODEL_DUAL)
    assert g.vertex_id(dual.element(0)) is None


def test_dual_ell(r22):
    # rectangle must leave room for n recording cells per inner row
    assert kac.dual_ell(base.Weight.parse(r22, "0,0|0,0")) == 2
    assert kac.dual_ell(base.Weight.parse(r22, "-1,-2|2,1")) == 4
    assert kac.dual_ell(base.Weight.parse(r22, "3,3|0,0")) == 1


@pytest.mark.parametrize(
    "model,m,n,text",
    [
        pytest.param(kac.MODEL_STANDARD, 1, 1, "0|0", id="1-1-0|0"),
        pytest.param(kac.MODEL_STANDARD, 2, 2, "2,1|1,0", id="2-2-2,1|1,0"),
        pytest.param(kac.MODEL_STANDARD, 2, 2, "-1,-2|2,1", id="2-2--1,-2|2,1"),
        # |T-| = 1, then |T+| = 1
        pytest.param(kac.MODEL_STANDARD, 3, 2, "2,2,1|2,2", id="3-2-2,2,1|2,2"),
        pytest.param(kac.MODEL_STANDARD, 3, 2, "2,2,2|2,1", id="3-2-2,2,2|2,1"),
        pytest.param(kac.MODEL_DUAL, 3, 2, "0,-1,-1|1,0", id="dual-3-2-0,-1,-1|1,0"),
    ],
)
def test_json_chunks_match_to_json(model, m, n, text):
    g = kac.generate_graph(base.Weight.parse(base.make_rank(m, n), text), model=model)
    assert "".join(g.json_chunks()) == json.dumps(g.to_json(), indent=2) + "\n"


@pytest.mark.parametrize(
    "model,m,n,text,ell",
    [
        pytest.param(kac.MODEL_STANDARD, 2, 2, "1,0|1,0", None, id="2-2-1,0|1,0"),
        pytest.param(kac.MODEL_STANDARD, 3, 2, "1,0,-1|1,0", None, id="3-2-1,0,-1|1,0"),
        pytest.param(kac.MODEL_STANDARD, 2, 3, "1,0|1,0,-1", None, id="2-3-1,0|1,0,-1"),
        pytest.param(kac.MODEL_STANDARD, 3, 2, "2,2,1|2,2", None, id="3-2-2,2,1|2,2"),
        pytest.param(kac.MODEL_STANDARD, 3, 2, "2,2,2|2,1", None, id="3-2-2,2,2|2,1"),
        pytest.param(kac.MODEL_DUAL, 2, 2, "-1,-2|2,1", None, id="dual-2-2--1,-2|2,1"),
        pytest.param(kac.MODEL_DUAL, 3, 2, "0,-1,-1|1,0", None, id="dual-3-2-0,-1,-1|1,0"),
        pytest.param(kac.MODEL_DUAL, 2, 3, "0,-1|2,1,0", None, id="dual-2-3-0,-1|2,1,0"),
        # one wider than dual_ell = 3
        pytest.param(kac.MODEL_DUAL, 2, 2, "0,-1|1,0", 4, id="dual-2-2-0,-1|1,0-ell-4"),
    ],
)
def test_graph_edges_match_apply_kac(model, m, n, text, ell):
    # element-level operators and weights against the table-driven graph engine
    rank = base.make_rank(m, n)
    g = kac.generate_graph(base.Weight.parse(rank, text), model=model, ell=ell)
    index = {g.element(v).key(): v for v in g.vertices}
    lowered = {(src, k): dst for src, k, dst in g.edges}
    raised = {(dst, k): src for src, k, dst in g.edges}
    lower = {k: g.moves(k, wordops.LOWER) for k in base.colors(rank)}
    upper = {k: g.moves(k, wordops.RAISE) for k in base.colors(rank)}
    for v in g.vertices:
        b = g.element(v)
        assert g.weight_coords(v) == b.weight(g.offset).coords
        for k in base.colors(rank):
            down = kac.apply_kac(k, wordops.LOWER, b)
            down_id = None if down is None else index[down.key()]
            assert lowered.get((v, k)) == down_id
            assert lower[k][v] == down_id
            up = kac.apply_kac(k, wordops.RAISE, b)
            up_id = None if up is None else index[up.key()]
            assert raised.get((v, k)) == up_id
            assert upper[k][v] == up_id


@pytest.mark.parametrize(
    "model,m,n,text",
    [
        pytest.param(kac.MODEL_STANDARD, 2, 2, "2,1|1,0", id="2-2-2,1|1,0"),
        pytest.param(kac.MODEL_STANDARD, 3, 2, "1,0,-1|1,0", id="3-2-1,0,-1|1,0"),
        pytest.param(kac.MODEL_DUAL, 2, 2, "-1,-2|2,1", id="dual-2-2--1,-2|2,1"),
    ],
)
def test_to_dot_matches_per_vertex_weights(model, m, n, text):
    g = kac.generate_graph(base.Weight.parse(base.make_rank(m, n), text), model=model)
    lines = ["digraph crystal {"]
    lines += ['  v%d [label="%d", tooltip="%s"];' % (v, v, g.weight(v)) for v in g.vertices]
    lines += ['  v%d -> v%d [label="%d"];' % (src, dst, k) for src, k, dst in g.edges]
    assert g.to_dot() == "\n".join(lines + ["}"]) + "\n"
