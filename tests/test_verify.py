import copy
import json
import types

import pytest

from kaccrystal import base, cli, embedding, kac, rsk, tableaux, verify
from kaccrystal.errors import KacCrystalError


def _graph(text, rank=(2, 2)):
    lam = base.Weight.parse(base.make_rank(*rank), text)
    return kac.generate_graph(lam)


def test_check_axioms_pass(r22):
    res = verify.check_axioms(_graph("2,1|1,0"))
    assert res.ok
    assert res.counts == {"vertices": 64, "edges": 100}


def test_check_axioms_detects_reversed_edge():
    g = _graph("1,0|1,0")
    src, k, dst = g.edges[0]
    g.edges[0] = (dst, k, src)
    res = verify.check_axioms(g)
    assert not res.ok
    assert res.witness is not None


def test_check_axioms_detects_duplicate_color():
    g = _graph("1,0|1,0")
    src, k, dst = g.edges[0]
    other = next(e for e in g.edges[1:] if e[0] != src and e[2] != dst)
    g.edges.append((src, k, other[2]))
    res = verify.check_axioms(g)
    assert not res.ok


def test_check_axioms_detects_unmatched_raise():
    # a raising entry that no lowering entry matches yields no edge of its own
    g = _graph("1,0|1,0")
    bad = copy.copy(g.minus_table)
    bad.e = {k: list(col) for k, col in g.minus_table.e.items()}
    i = next(
        i for i, (up, dn) in enumerate(zip(bad.e[1], bad.f[1])) if up is None and dn is not None
    )
    bad.e[1][i] = bad.f[1][i]
    g = kac.CrystalGraph(g.rank, g.lam, g.model, g.s_table, g.plus_table, bad, g.offset)
    res = verify.check_axioms(g)
    assert not res.ok
    assert "raising at color 1" in res.witness


def _retarget_edge(g):
    src, k, dst = g.edges[0]
    g.edges[0] = (src, k, (dst + 1) % len(g.vertices))


def _edge_leaving_the_graph(g):
    src, k, _ = g.edges[0]
    g.edges[0] = (src, k, len(g.vertices))


def _drop_edge(g):
    del g.edges[0]


def _two_edges_into_one_vertex(g):
    a, k, c = g.edges[0]
    i = next(i for i, (b, kk, _) in enumerate(g.edges) if kk == k and b != a)
    g.edges[i] = (g.edges[i][0], k, c)


def _zero_edge_from_zero_target(g):
    src, _, dst = next(e for e in g.edges if e[1] == 0)
    g.edges.append((dst, 0, src))


def _bump_target_weight(g):
    _, _, dst = g.edges[0]
    w = g.weight_coords(dst)
    g._weights[dst] = (w[0] + 1,) + w[1:]


# each tamper of the graph of 1,0|1,0 at (2,2) and the first failure it
# causes, in the check's order
TAMPER_WITNESSES = {
    _retarget_edge: "raising at color -1 from vertex 3 not reciprocal",
    _edge_leaving_the_graph: "edge (0, -1, 64) leaves the vertex set",
    _drop_edge: "phi - eps wrong at color -1 on the string from vertex 0",
    _two_edges_into_one_vertex: "raising at color -1 from vertex 2 not reciprocal",
    _zero_edge_from_zero_target: "color 0 applied twice at vertex 0",
    _bump_target_weight: "weight step wrong on edge (0, -1, 2)",
}


@pytest.mark.parametrize("tamper", list(TAMPER_WITNESSES))
def test_check_axioms_rejects_tampered_graph(tamper):
    g = _graph("1,0|1,0")
    tamper(g)
    res = verify.check_axioms(g)
    assert not res.ok
    assert res.witness == TAMPER_WITNESSES[tamper]


@pytest.mark.parametrize(
    "edges,raised,depth,witness",
    [
        ([(0, 0, 2), (0, 0, 1)], {1: 0}, (0, 1, 1), "two 0-edges out of vertex 0"),
        ([(0, 0, 2), (1, 0, 2)], {2: 0}, (0, 0, 1), "from vertex 2 not reciprocal"),
        ([(0, 0, 1), (1, 0, 2)], {1: 0, 2: 1}, (0, 1, 2), "color 0 applied twice"),
    ],
    ids=["second-edge-out", "second-edge-in", "color-0-twice"],
)
def test_check_axioms_rejects_graph_breaking_one_axiom(edges, raised, depth, witness):
    # three vertices at rank (1,1); every other axiom holds, so only one check can fire
    rank = base.make_rank(1, 1)
    alpha = base.simple_root(rank, 0).coords
    g = types.SimpleNamespace(
        rank=rank,
        vertices=range(3),
        edges=edges,
        moves=lambda k, d: [raised.get(v) for v in range(3)],
        weight_coords=lambda v: tuple(-depth[v] * a for a in alpha),
    )
    res = verify.check_axioms(g)
    assert not res.ok
    assert witness in res.witness


def test_check_axioms_detects_wrong_string_length():
    # a shifted offset keeps every weight step but breaks phi - eps = <h_k, wt>
    g = _graph("1,0|1,0")
    shifted = g.offset.add(base.eps_barred(g.rank, 1))
    g = kac.CrystalGraph(
        g.rank, g.lam, g.model, g.s_table, g.plus_table, g.minus_table, shifted
    )
    res = verify.check_axioms(g)
    assert not res.ok
    assert "color -1" in res.witness


def test_check_connected_pass(r22):
    res = verify.check_connected(_graph("2,1|1,0"))
    assert res.ok
    assert res.counts["components"] == 1


def test_check_connected_fake_source_census():
    res = verify.check_connected(_graph("1,0|1,0"))
    assert res.ok
    assert res.counts["sources"] == 3
    assert res.counts["fake_sources"] == 2
    assert "fake source" in res.witness


def test_check_connected_detects_split():
    g = _graph("1,0|1,0")
    g.edges = [e for e in g.edges if e[0] != 0 and e[2] != 0]
    res = verify.check_connected(g)
    assert not res.ok
    assert "components" in res.witness


def test_check_connected_rejects_an_edge_past_the_last_vertex():
    g = _graph("1,0|1,0")
    _edge_leaving_the_graph(g)
    res = verify.check_connected(g)
    assert not res.ok
    assert res.witness == "edge (0, -1, 64) leaves the vertex set"


def test_check_connected_rejects_a_negative_endpoint():
    # without the range check, vertex -1 would stand for the last vertex and
    # join the split-off vertex 0 back to the rest
    g = _graph("1,0|1,0")
    g.edges = [e for e in g.edges if e[0] != 0 and e[2] != 0]
    g.edges.append((0, 0, -1))
    res = verify.check_connected(g)
    assert not res.ok
    assert res.witness == "edge (0, 0, -1) leaves the vertex set"


def test_check_character_pass():
    res = verify.check_character(_graph("2,1|1,0"))
    assert res.ok
    assert res.counts == {"vertices": 64}


def test_check_character_detects_missing_vertex():
    g = _graph("1,0|1,0")
    g.vertices = g.vertices[:-1]
    res = verify.check_character(g)
    assert not res.ok
    assert "vertex count" in res.witness


def test_check_rho_commutation_pass(r11):
    res = verify.check_rho_commutation(base.Weight.parse(r11, "-1|1"))
    assert res.ok
    assert res.counts["domain"] > 0


def test_check_rho_commutation_two_widths(r11):
    lam = base.Weight.parse(r11, "-1|1")
    for ell in (kac.dual_ell(lam), kac.dual_ell(lam) + 1):
        assert verify.check_rho_commutation(lam, ell=ell).ok


def test_check_rho_commutation_detects_broken_zero_rule(r11, monkeypatch):
    monkeypatch.setattr(rsk, "_zero_scan", lambda kelem: (None, None))
    res = verify.check_rho_commutation(base.Weight.parse(r11, "-1|1"))
    assert not res.ok
    assert res.witness is not None


def test_check_rho_commutation_reports_a_forward_failure_on_a_neighbour(
    monkeypatch, dual_domain
):
    # rho fails only on the last domain element, which earlier elements
    # reach by an operator before the check visits it
    lam = base.Weight.parse(base.make_rank(2, 2), "0,-1|1,0")
    last = dual_domain(lam)[-1]
    rho = rsk.rho

    def failing(elem):
        if elem == last:
            raise KacCrystalError("boom")
        return rho(elem)

    monkeypatch.setattr(rsk, "rho", failing)
    res = verify.check_rho_commutation(lam)
    assert not res.ok
    assert res.witness == "forward map failed on %s: boom" % (last,)


def test_check_compatibility_pass(r22):
    res = verify.check_compatibility(r22, (2, 1))
    assert res.ok
    assert res.counts["tableaux"] == 20


@pytest.mark.parametrize("shape", [(2, 2), (2, 1)], ids=["typical", "atypical"])
def test_check_compatibility_fails_when_typicality_is_flipped(r22, monkeypatch, shape):
    # the embedding is onto exactly for typical weights; lie about one weight
    flipped = base.hook_weight(r22, shape)
    assert verify.check_compatibility(r22, shape).ok
    is_typical = base.is_typical
    monkeypatch.setattr(base, "is_typical", lambda lam: is_typical(lam) != (lam == flipped))
    res = verify.check_compatibility(r22, shape)
    assert not res.ok
    assert "typical but the image holds" in res.witness


def _hook_tableaux(rank, shape):
    return tableaux.enumerate_sst(base.ALPHABET_B, rank, shape)


def test_check_compatibility_detects_two_swapped_images(r22, monkeypatch):
    # xi and pi_bar trade the images of two tableaux of one weight: a
    # weight-preserving bijection with a consistent inverse that is not a
    # crystal morphism
    shape = (2, 1)
    by_weight = {}
    for t in _hook_tableaux(r22, shape):
        by_weight.setdefault(t.weight(r22), []).append(t)
    a, b = next(ts[:2] for ts in by_weight.values() if len(ts) > 1)
    xi, pi_bar = embedding.xi, embedding.pi_bar
    swap_t = {a: b, b: a}
    swap_b = {xi(r22, a): xi(r22, b), xi(r22, b): xi(r22, a)}
    monkeypatch.setattr(embedding, "xi", lambda rank, t: xi(rank, swap_t.get(t, t)))
    monkeypatch.setattr(embedding, "pi_bar", lambda rank, e: pi_bar(rank, swap_b.get(e, e)))
    res = verify.check_compatibility(r22, shape)
    assert not res.ok
    assert res.witness.startswith("intertwining fails at color ")


def test_check_compatibility_detects_a_rejected_image(r22, monkeypatch):
    shape = (2, 1)
    t = _hook_tableaux(r22, shape)[5]
    rejected = embedding.xi(r22, t)
    pi_bar = embedding.pi_bar
    monkeypatch.setattr(
        embedding, "pi_bar", lambda rank, e: None if e == rejected else pi_bar(rank, e)
    )
    res = verify.check_compatibility(r22, shape)
    assert not res.ok
    assert res.witness == "partial inverse fails at %s" % (t.rows,)


def test_check_compatibility_detects_an_image_outside_the_graph(r22, monkeypatch):
    # xi sends one tableau to an element of another shape
    shape = (2, 1)
    t = _hook_tableaux(r22, shape)[5]
    elsewhere = _hook_tableaux(r22, (2, 2))[0]
    xi = embedding.xi
    monkeypatch.setattr(
        embedding, "xi", lambda rank, s: xi(rank, elsewhere if s == t else s)
    )
    res = verify.check_compatibility(r22, shape)
    assert not res.ok
    assert res.witness == "image of %s is not a vertex" % (t.rows,)


def test_check_reading_order_pass(r22):
    res = verify.check_reading_order(r22, (2, 2, 1))
    assert res.ok


def test_dominant_tuples():
    tuples = verify.dominant_tuples(2, 0, 2)
    assert set(tuples) == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


def test_default_instances_counts():
    lams = list(verify.default_instances(ranks=((1, 1),), box=(0, 1)))
    assert len(lams) == 4
    assert all(lam.is_dominant() for lam in lams)


def test_run_sweep_small():
    reports, ok = verify.run_sweep(ranks=((1, 1),), box=(-1, 1))
    assert ok
    assert len(reports) == 9
    text = verify.report_to_json(reports)
    parsed = json.loads(text)
    for report in parsed:
        assert all(check["pass"] for check in report["checks"])


def test_run_sweep_class_sharing():
    # weights equal up to a constant shift share one representative run
    reports, ok = verify.run_sweep(ranks=((1, 1),), box=(-1, 0))
    assert ok
    shared = [
        r
        for r in reports
        if any("checked_as" in c["counts"] for c in r["checks"])
    ]
    assert shared, "expected at least one offset-shared instance"


def test_run_sweep_reports_a_raising_class_and_goes_on(monkeypatch, capsys):
    # one class whose checks raise fails on its own; the other classes still run
    bad = base.Weight.parse(base.make_rank(1, 1), "1|0")
    check_graph_instance = verify.check_graph_instance

    def flaky(lam, cap=kac.DEFAULT_CAP):
        if lam == bad:
            raise KeyError("planted")
        return check_graph_instance(lam, cap=cap)

    monkeypatch.setattr(verify, "check_graph_instance", flaky)
    reports, ok = verify.run_sweep(ranks=((1, 1),), box=(-1, 1))
    assert not ok
    assert len(reports) == 9
    failed = [r for r in reports if not all(c["pass"] for c in r["checks"])]
    assert {r["instance"]["lambda"] for r in failed} == {"1|0", "1|-1"}
    for r in failed:
        assert [c["witness"] for c in r["checks"]] == ["KeyError: 'planted'"]
        assert r["checks"][0]["counts"].get("checked_as", "1|0") == "1|0"
    assert cli.main(["verify", "--ranks", "1,1", "--box=-1,1"]) == 1
    assert len(json.loads(capsys.readouterr().out)) == 9


def test_run_sweep_process_pool_matches_single_process():
    def without_ms(reports):
        for report in reports:
            for check in report["checks"]:
                del check["ms"]
        return reports

    sweep = dict(ranks=((1, 1), (2, 1)), box=(-1, 1))
    one, ok_one = verify.run_sweep(threads=1, **sweep)
    two, ok_two = verify.run_sweep(threads=2, **sweep)
    assert ok_one and ok_two
    assert without_ms(two) == without_ms(one)


def test_check_result_json_shape():
    res = verify.check_axioms(_graph("0|0", rank=(1, 1)))
    data = res.to_json()
    assert set(data) == {"name", "pass", "witness", "counts", "ms"}
    assert data["pass"] is True
