"""Acceptance gate: one test per acceptance criterion, one printed line each.

The graph sweep (criteria 3-5 and the pinned report digest) runs once via a
module-scoped fixture.
"""

import hashlib
import json
import time

import pytest

from kaccrystal import base, embedding, kac, rsk, tableaux, verify, wordops


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    reports, ok = verify.run_sweep()
    elapsed = time.perf_counter() - t0
    return reports, ok, elapsed


@pytest.fixture
def announce(capsys):
    def _announce(criterion, label, ok, extra=""):
        line = "criterion %d (%s): %s%s" % (
            criterion,
            label,
            "PASS" if ok else "FAIL",
            " [%s]" % extra if extra else "",
        )
        with capsys.disabled():
            print(line)
        assert ok, line

    return _announce


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_worked_operator_example(announce, r33):
    s = kac.OddRootSet.of(r33, [(2, 1), (2, 2), (1, 3)])
    u = tableaux.make_tableau(
        base.ALPHABET_BPLUS, (4, 3, 2), [[-3, -3, -3, -2], [-2, -2, -1], [-1, -1]]
    )
    v = tableaux.make_tableau(base.ALPHABET_BMINUS, (2, 1, 1), [[1, 3], [2], [2]])
    b = kac.KacElement(r33, s, u, v)

    e0 = kac.apply_kac(0, wordops.RAISE, b)
    f0 = kac.apply_kac(0, wordops.LOWER, b)
    fb2 = kac.apply_kac(-2, wordops.LOWER, b)
    f2 = kac.apply_kac(2, wordops.LOWER, b)

    # the displayed element sits at weight 3,1,2|2,3,2 inside the lambda graph
    ok = (
        e0 is None
        and f0 is not None
        and f0.s.roots == s.roots | {(1, 1)}
        and (f0.t_plus, f0.t_minus) == (u, v)
        and fb2 is not None
        and fb2.s.roots == frozenset({(3, 1), (2, 2), (1, 3)})
        and (fb2.t_plus, fb2.t_minus) == (u, v)
        and f2 is not None
        and f2.s == s
        and f2.t_plus == u
        and f2.t_minus.rows == ((1, 3), (2,), (3,))
        and str(b.weight()) == "3,1,2|2,3,2"
    )
    worst = max(
        _best_time(lambda: kac.apply_kac(0, wordops.RAISE, b)),
        _best_time(lambda: kac.apply_kac(0, wordops.LOWER, b)),
        _best_time(lambda: kac.apply_kac(-2, wordops.LOWER, b)),
        _best_time(lambda: kac.apply_kac(2, wordops.LOWER, b)),
    )
    ok = ok and worst < 0.001
    announce(1, "worked operator example", ok, "%.3f ms/op" % (worst * 1e3))


def test_criterion_2_worked_embedding_example(announce, r33, worked_hook_tableau):
    t = worked_hook_tableau
    t_plus, t_mid, t_below = embedding.split_hook(r33, t)
    split_ok = (
        t_plus.rows == ((-3, -3, -2, -1), (-2, -1))
        and t_mid.outer == (4, 3, 2)
        and t_mid.inner == (4, 2)
        and t_mid.rows == ((), (3,), (1, 2))
        and t_below.rows == ((1,), (2,))
    )
    dual = embedding.sigma_to_dual(r33, 4, t_plus)
    sigma_ok = (
        dual.outer == (4, 4, 4)
        and dual.inner == (4, 2)
        and dual.rows == ((), (1, 2), (1, 2, 3, 3))
    )
    b = embedding.xi(r33, t)
    xi_ok = (
        b.s.roots == frozenset({(1, 3), (2, 2), (3, 1)})
        and b.t_plus.rows == ((-3, -3, -3, -2), (-2, -2, -1), (-1, -1))
        and b.t_minus.rows == ((1,), (2,))
        and b.weight() == t.weight(r33)
        and embedding.pi_bar(r33, b) == t
    )
    elapsed = _best_time(lambda: embedding.xi(r33, t), repeats=3)
    ok = split_ok and sigma_ok and xi_ok and elapsed < 0.010
    announce(2, "worked embedding example", ok, "%.3f ms" % (elapsed * 1e3))


def _sweep_checks(reports, name):
    for report in reports:
        for check in report["checks"]:
            if check["name"] == name:
                yield report["instance"], check


def test_criterion_3_crystal_axioms_sweep(announce, sweep):
    reports, _, elapsed = sweep
    bad = [
        (inst, chk)
        for inst, chk in _sweep_checks(reports, "axioms")
        if not chk["pass"]
    ]
    ok = not bad and elapsed < 300
    announce(
        3,
        "crystal axioms over the default sweep",
        ok,
        "%d instances, %.1f s" % (len(reports), elapsed),
    )


def test_criterion_4_connectedness_and_fake_sources(announce, sweep):
    reports, _, _ = sweep
    checks = list(_sweep_checks(reports, "connected"))
    all_connected = all(chk["pass"] for _, chk in checks)
    fakes = sum(
        1 for _, chk in checks if chk["counts"].get("fake_sources", 0) > 0
    )
    # pinned instance known to carry fake raising-killed vertices
    pinned = next(
        chk
        for inst, chk in checks
        if inst == {"rank": [2, 2], "lambda": "1,0|1,0"}
    )
    ok = all_connected and fakes > 0 and pinned["counts"]["fake_sources"] == 2
    announce(
        4,
        "connectedness with fake-source census",
        ok,
        "%d instances exhibit fake sources" % fakes,
    )


def test_criterion_5_character_identity(announce, sweep):
    reports, _, _ = sweep
    bad = [
        (inst, chk)
        for inst, chk in _sweep_checks(reports, "character")
        if not chk["pass"]
    ]
    announce(5, "character and dimension identity", not bad)


def test_default_sweep_report_is_pinned(sweep):
    """The default verify report, timings aside, is byte-for-byte pinned.

    Recipe: take the reports of run_sweep() with its defaults, drop the
    "ms" key from every check, serialize with json.dumps(reports,
    sort_keys=True) (default separators), and hash the UTF-8 bytes with
    SHA-256.  The pin is the first 16 hex digits.  A change to any check
    result, witness, count or class sharing in the default sweep moves it.
    """
    reports, _, _ = sweep
    untimed = [
        dict(report, checks=[{k: v for k, v in c.items() if k != "ms"} for c in report["checks"]])
        for report in reports
    ]
    blob = json.dumps(untimed, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "520ab3d2f56280c7"


def test_criterion_6_insertion_bijection(announce):
    r11 = base.make_rank(1, 1)
    r22 = base.make_rank(2, 2)
    res1 = verify.check_rho_commutation(base.Weight.parse(r11, "-1|1"))
    res2 = verify.check_rho_commutation(base.Weight.parse(r22, "-1,-2|2,1"))
    ok = res1.ok and res2.ok
    announce(
        6,
        "insertion bijection round trip and commutation",
        ok,
        "domains %d and %d" % (res1.counts.get("domain", 0), res2.counts.get("domain", 0)),
    )


def _hook_shapes(rank):
    return [
        shape
        for shape in rsk._subpartitions((3, 3, 2, 2))
        if base.in_hook(rank, shape)
    ]


def test_criterion_7_embedding_compatibility(announce, r22):
    shapes = _hook_shapes(r22)
    t0 = time.perf_counter()
    bad = [
        (shape, res.witness)
        for shape, res in (
            (shape, verify.check_compatibility(r22, shape)) for shape in shapes
        )
        if not res.ok
    ]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    announce(
        7,
        "embedding compatibility over all hook shapes in (3,3,2,2)",
        ok,
        "%d shapes, %.1f s" % (len(shapes), elapsed),
    )


def test_criterion_8_reading_order_independence(announce, r22):
    shapes = _hook_shapes(r22)
    bad = [
        shape
        for shape in shapes
        if not verify.check_reading_order(r22, shape).ok
    ]
    announce(8, "reading-order independence", not bad, "%d shapes" % len(shapes))


def test_criterion_9_negative_controls(announce, monkeypatch):
    r22 = base.make_rank(2, 2)
    # a reversed edge must fail the axiom check with a witness
    g = kac.generate_graph(base.Weight.parse(r22, "1,0|1,0"))
    src, k, dst = g.edges[0]
    g.edges[0] = (dst, k, src)
    tampered = verify.check_axioms(g)
    graph_control = not tampered.ok and bool(tampered.witness)

    # a corrupted 0-color rule must fail the commutation check
    r11 = base.make_rank(1, 1)
    monkeypatch.setattr(rsk, "_zero_scan", lambda kelem: (None, None))
    broken = verify.check_rho_commutation(base.Weight.parse(r11, "-1|1"))
    zero_control = not broken.ok and bool(broken.witness)
    monkeypatch.undo()

    ok = graph_control and zero_control
    announce(9, "negative controls fail loudly", ok)


def test_criterion_10_embedding_compatibility_past_gl22(announce):
    t0 = time.perf_counter()
    sizes = []
    bad = []
    for m, n in ((3, 2), (2, 3)):
        rank = base.make_rank(m, n)
        shapes = _hook_shapes(rank)
        sizes.append(len(shapes))
        for shape in shapes:
            res = verify.check_compatibility(rank, shape)
            if not res.ok:
                bad.append((rank, shape, res.witness))
    elapsed = time.perf_counter() - t0
    announce(
        10,
        "embedding compatibility over all hook shapes in (3,3,2,2) at ranks (3,2) and (2,3)",
        not bad and sizes == [31, 31],
        "%s shapes, %.1f s" % ("+".join(map(str, sizes)), elapsed),
    )
