import json

import pytest

from kaccrystal import base, cli, embedding, kac, tableaux


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_crystal_json(capsys):
    code, out, _ = run(
        ["crystal", "--rank", "2,2", "--lambda", "2,1|1,0"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == [2, 2]
    assert len(data["vertices"]) == 64
    assert len(data["edges"]) == 100


def test_crystal_dot(capsys):
    code, out, _ = run(
        ["crystal", "--rank", "1,1", "--lambda", "0|0", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert "->" in out


def test_crystal_out_file(tmp_path, capsys):
    argv = ["crystal", "--rank", "2,2", "--lambda", "2,1|1,0"]
    path = tmp_path / "graph.json"
    code, out, _ = run(argv + ["--out", str(path)], capsys)
    assert code == 0 and out == ""
    code, out, _ = run(argv, capsys)
    assert code == 0
    graph = kac.generate_graph(base.Weight.parse(base.make_rank(2, 2), "2,1|1,0"))
    oracle = json.dumps(graph.to_json(), indent=2) + "\n"
    assert path.read_bytes() == out.encode() == oracle.encode()


def test_crystal_cap_exceeded(tmp_path, capsys):
    argv = ["crystal", "--rank", "2,2", "--lambda", "2,1|1,0", "--cap", "10"]
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err.strip()
    # no partial file: the output is opened only once the graph is built
    path = tmp_path / "graph.json"
    code, out, err = run(argv + ["--out", str(path)], capsys)
    assert code == 3 and out == "" and err.strip()
    assert not path.exists()


def test_crystal_bad_rank(capsys):
    code, _, err = run(["crystal", "--rank", "2", "--lambda", "0|0"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--lambda", "1,2|0,0"], "is not dominant"),
        (["--lambda", "1,0|1,0", "--model", "dual"], "nonpositive barred"),
        (
            ["--lambda", "0,-1|1,0", "--model", "dual", "--ell", "0"],
            "ell at least -b1 = 1, got ell = 0",
        ),
        (["--lambda", "1,0|1,0", "--ell", "3"], "ell applies only to the dual model"),
        (["--lambda", "1,0|1"], "weight '1,0|1' does not match rank 2,2"),
        (["--lambda", "a,0|1,0"], "bad weight 'a,0|1,0': invalid literal"),
    ],
    ids=["not-dominant", "dual-sign", "dual-width", "ell-standard", "short-weight", "bad-part"],
)
def test_crystal_bad_weight(capsys, argv, message):
    code, _, err = run(["crystal", "--rank", "2,2"] + argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_verify_small_sweep(capsys):
    code, out, _ = run(
        ["verify", "--ranks", "1,1", "--box=-1,1"], capsys
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9


@pytest.mark.parametrize(
    "option,message",
    [
        ("--ranks=1", "bad rank '1'"),
        ("--box=0", "bad box '0'"),
        ("--box=2,-1", "bad box '2,-1'"),
    ],
)
def test_verify_rejects_malformed_ranks_and_box(capsys, option, message):
    code, out, err = run(["verify", option], capsys)
    assert code == 2 and out == ""
    assert message in err


def test_verify_reports_over_cap_instances_as_skipped(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = run(
        ["verify", "--ranks", "2,2", "--box=0,3", "--cap", "100", "--out", str(path)],
        capsys,
    )
    assert code == 3
    reports = json.loads(path.read_text())
    skipped = [r for r in reports if "skipped" in r]
    assert skipped and len(skipped) < len(reports)
    assert all(r["checks"] == [] and "cap 100" in r["skipped"] for r in skipped)
    assert all(c["pass"] for r in reports for c in r["checks"])


def test_embed_round_trip(tmp_path, capsys, worked_hook_tableau, r33):
    tab_path = tmp_path / "tableau.json"
    tab_path.write_text(json.dumps(worked_hook_tableau.to_json()))
    code, out, _ = run(
        ["embed", "--rank", "3,3", "--in", str(tab_path)], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "4,3,2|2,0,0"
    expected = embedding.xi(r33, worked_hook_tableau)
    assert data["S"] == expected.s.bits()

    elem_path = tmp_path / "element.json"
    elem_path.write_text(json.dumps(data))
    code, out, _ = run(
        ["embed", "--rank", "3,3", "--in", str(elem_path), "--inverse"],
        capsys,
    )
    assert code == 0
    back = tableaux.Tableau.from_json(json.loads(out))
    assert back == worked_hook_tableau


def test_embed_out_of_image(tmp_path, capsys):
    elem = {
        "S": [[1]],
        "Tplus": {"alphabet": "B+", "outer": [], "inner": [], "rows": []},
        "Tminus": {"alphabet": "B-", "outer": [], "inner": [], "rows": []},
    }
    path = tmp_path / "element.json"
    path.write_text(json.dumps(elem))
    code, _, err = run(
        ["embed", "--rank", "1,1", "--in", str(path), "--inverse"], capsys
    )
    assert code == 4
    assert "outside" in err


def _embed_inverse(tmp_path, capsys, rank, elem):
    path = tmp_path / "element.json"
    path.write_text(json.dumps(elem))
    return run(["embed", "--rank", rank, "--in", str(path), "--inverse"], capsys)


def test_embed_inverse_rejects_non_semistandard_factor(tmp_path, capsys):
    elem = {
        "S": [[0, 0], [0, 0]],
        "Tplus": {"alphabet": "B+", "outer": [1, 1], "inner": [], "rows": [["b1"], ["b2"]]},
        "Tminus": {"alphabet": "B-", "outer": [], "inner": [], "rows": []},
    }
    code, _, err = _embed_inverse(tmp_path, capsys, "2,2", elem)
    assert code == 2
    assert "Tplus" in err


def test_embed_inverse_rejects_ragged_root_bits(tmp_path, capsys):
    elem = {
        "S": [[1], [0, 0, 0]],
        "Tplus": {"alphabet": "B+", "outer": [], "inner": [], "rows": []},
        "Tminus": {"alphabet": "B-", "outer": [], "inner": [], "rows": []},
    }
    code, _, err = _embed_inverse(tmp_path, capsys, "2,2", elem)
    assert code == 2
    assert "S must be" in err


@pytest.mark.parametrize(
    "data,message",
    [
        (None, "tableau must be a JSON object"),
        ([1], "tableau must be a JSON object"),
        (
            {"alphabet": "B", "outer": [1], "inner": [], "rows": [["b5"]]},
            "tableau has a letter outside rank 2,2",
        ),
        (
            {"alphabet": "B", "outer": [1.0], "inner": [], "rows": [["b1"]]},
            "tableau is not a straight semistandard tableau",
        ),
        (
            {"outer": [1], "inner": [], "rows": [["b1"]]},
            "tableau is missing field 'alphabet'",
        ),
    ],
)
def test_embed_rejects_malformed_tableau(tmp_path, capsys, data, message):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["embed", "--rank", "2,2", "--in", str(path)], capsys)
    assert code == 2
    assert message in err


def test_embed_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run(["embed", "--rank", "1,1", "--in", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--rank", "2,2", "--in", "{missing}/tableau.json"],
        ["crystal", "--rank", "1,1", "--lambda", "0|0", "--out", "{missing}/x.json"],
    ],
    ids=["embed-in", "crystal-out"],
)
def test_file_errors_exit_2_without_traceback(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    code, _, err = run([a.format(missing=missing) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_console_script_installed():
    """The project ships a ``kaccrystal`` console script that runs ``cli.main``.

    From a source tree this checks the ``[project.scripts]`` declaration in
    ``pyproject.toml`` and that it resolves to ``cli.main``.  With an installed
    ``kaccrystal`` distribution it also checks that the installed entry point
    agrees with that declaration, so a stale install fails.
    """
    import importlib.metadata
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "kaccrystal" in scripts
    declared = importlib.metadata.EntryPoint(
        name="kaccrystal", value=scripts["kaccrystal"], group="console_scripts"
    )
    assert declared.load() is cli.main

    try:
        importlib.metadata.distribution("kaccrystal")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = importlib.metadata.entry_points(
        group="console_scripts", name="kaccrystal"
    )
    assert {ep.value for ep in installed} == {declared.value}
