"""CLI behavior: payload shapes, exit codes, determinism, cap overrides."""

import json
from pathlib import Path

import pytest

import planar_rook.class_crystals as cc
from planar_rook.algebra import Element, identity_element
from planar_rook.cli import main
from planar_rook.diagrams import Diagram, flip, partial_identity
from planar_rook.modules import ClassLabel
from planar_rook.verify import TARGETS

GOLDEN = Path(__file__).parent / "golden"

# Every command here must be byte-identical when rerun, and its stdout must
# equal tests/golden/<name>.out, which was recorded from the CLI and is never
# regenerated by the tests.
COMMANDS = {
    "enumerate-2-2": ("enumerate", "--m", "2", "--n", "2"),
    "enumerate-count-4-2": ("enumerate", "--m", "4", "--n", "2", "--count-only"),
    "simples-3-2": ("simples", "--m", "3", "--n", "2"),
    "decompose-regular-3-1": ("decompose", "--regular", "--m", "3", "--n", "1"),
    "decompose-regular-2-2": ("decompose", "--regular", "--m", "2", "--n", "2"),
    "decompose-restrict-1": ("decompose", "--restrict", "1", "--class", "3,2:1,1,1"),
    "decompose-restrict-0": ("decompose", "--restrict", "0", "--class", "3,2:1,2,0"),
    "decompose-restrict-zero": ("decompose", "--restrict", "2", "--class", "2,2:1,1,0"),
    "decompose-induce": ("decompose", "--induce", "2", "--class", "2,2:1,1,0"),
    "multiply-element": (
        "multiply", str(GOLDEN / "multiply-a.json"), str(GOLDEN / "multiply-b.json"),
    ),
    "multiply-element-x-basis": (
        "multiply", str(GOLDEN / "multiply-a.json"), str(GOLDEN / "multiply-b.json"),
        "--x-basis",
    ),
    "multiply-diagram": (
        "multiply", str(GOLDEN / "multiply-c.json"), str(GOLDEN / "multiply-a.json"),
    ),
    "multiply-diagram-x-basis": (
        "multiply", str(GOLDEN / "multiply-c.json"), str(GOLDEN / "multiply-a.json"),
        "--x-basis",
    ),
    "crystal-box-json": ("crystal", "box", "--n", "3", "--json", "-"),
    "crystal-box-dot": ("crystal", "box", "--n", "3", "--dot", "-"),
    "crystal-row-json": ("crystal", "row", "--m", "3", "--n", "2", "--json", "-"),
    "crystal-row-dot": ("crystal", "row", "--m", "3", "--n", "2", "--dot", "-"),
    "crystal-ssyt-json": ("crystal", "ssyt", "--shape", "2,1", "--n", "2", "--json", "-"),
    "crystal-ssyt-dot": ("crystal", "ssyt", "--shape", "2,2", "--n", "2", "--dot", "-"),
    "crystal-cm-json": ("crystal", "cm", "--m", "2", "--n", "2", "--json", "-"),
    "crystal-cm-dot": ("crystal", "cm", "--m", "3", "--n", "2", "--dot", "-"),
    "crystal-clambda-json": ("crystal", "clambda", "--parts", "1,2", "--n", "2", "--json", "-"),
    "crystal-clambda-dot": ("crystal", "clambda", "--parts", "2,1", "--n", "2", "--dot", "-"),
    "verify-lemmas3-2-2": ("verify", "lemmas3", "--m", "2", "--n", "2"),
    **{f"verify-{target}": ("verify", target) for target in sorted(TARGETS)},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_enumerate_counts(capsys):
    assert run(capsys, "enumerate", "--m", "2", "--n", "1", "--count-only") == (
        0,
        "6\n",
        "",
    )
    code, out, _ = run(capsys, "enumerate", "--m", "0", "--n", "1", "--count-only")
    assert (code, out) == (0, "1\n")


def test_enumerate_lists_valid_diagrams(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "1", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    for obj in payload:
        d = Diagram.from_json_dict(obj)
        assert (d.m, d.n) == (1, 2)


def test_enumerate_cap_and_overrides(capsys, monkeypatch):
    code, out, err = run(capsys, "enumerate", "--m", "9", "--n", "1", "--count-only")
    assert code == 2
    assert out == ""
    assert err.count("--force") == 1
    assert "PLANAR_ROOK_FORCE" in err
    assert "force=True" not in err
    code, out, _ = run(
        capsys, "enumerate", "--m", "9", "--n", "1", "--count-only", "--force"
    )
    assert (code, out) == (0, "48620\n")
    monkeypatch.setenv("PLANAR_ROOK_FORCE", "1")
    code, out, _ = run(capsys, "enumerate", "--m", "9", "--n", "1", "--count-only")
    assert (code, out) == (0, "48620\n")
    # verify has no --force and ignores the variable, so it names no override
    code, out, err = run(capsys, "verify", "prop2.1", "--m", "7", "--n", "2")
    assert (code, out) == (2, "")
    assert "exceeds the enumeration cap" in err
    assert "force" not in err.lower()


def test_multiply_diagram_basis(capsys, tmp_path):
    d = Diagram(2, 1, ((1, 2, 1),))
    f1 = write_json(tmp_path / "e.json", identity_element(2, 1).to_json_dict())
    f2 = write_json(tmp_path / "d.json", d.to_json_dict())
    code, out, _ = run(capsys, "multiply", f1, f2)
    assert code == 0
    assert json.loads(out) == Element.from_diagram(d).to_json_dict()


def test_multiply_matrix_example(capsys, tmp_path):
    b = Diagram(5, 2, ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2)))
    f1 = write_json(tmp_path / "b.json", b.to_json_dict())
    f2 = write_json(tmp_path / "bf.json", flip(b).to_json_dict())
    code, out, _ = run(capsys, "multiply", f1, f2)
    assert code == 0
    payload = json.loads(out)
    assert [t["coeff"] for t in payload["terms"]] == ["1"]
    assert payload["terms"][0]["diagram"]["edges"] == [
        [1, 1, 1],
        [2, 2, 2],
        [3, 3, 1],
        [4, 4, 2],
    ]


def test_multiply_orbit_basis_idempotent(capsys, tmp_path):
    label = ClassLabel(1, (0, 2))
    d = partial_identity(label.canonical_boundary())
    f = write_json(tmp_path / "dt.json", d.to_json_dict())
    code, out, _ = run(capsys, "multiply", f, f, "--x-basis")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "orbit"
    assert payload["terms"] == [
        {"coeff": "1", "diagram": d.to_json_dict()}
    ]


def test_multiply_usage_errors(capsys, tmp_path):
    small = write_json(
        tmp_path / "s.json", Diagram(1, 1, ((1, 1, 1),)).to_json_dict()
    )
    big = write_json(tmp_path / "b.json", Diagram(2, 1, ()).to_json_dict())
    assert run(capsys, "multiply", small, big)[0] == 2
    assert run(capsys, "multiply", small, str(tmp_path / "absent.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(capsys, "multiply", small, str(bad))[0] == 2
    arr = write_json(tmp_path / "arr.json", [1, 2])
    assert run(capsys, "multiply", small, arr)[0] == 2
    # a zero denominator and a float overflow are usage errors, not tracebacks
    for name, coeff in (("zero.json", '"1/0"'), ("huge.json", "1e400")):
        path = tmp_path / name
        path.write_text(
            '{"m": 1, "n": 1, "terms": [{"coeff": %s, "diagram": '
            '{"m": 1, "n": 1, "edges": []}}]}' % coeff,
            encoding="utf-8",
        )
        for extra in ((), ("--x-basis",)):
            code, out, err = run(capsys, "multiply", small, str(path), *extra)
            assert (code, out) == (2, ""), (name, extra)
            assert err.startswith("error: ") and err.count("\n") == 1


def test_simples_table(capsys):
    code, out, _ = run(capsys, "simples", "--m", "2", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert [(r["class"], r["dimension"]) for r in payload] == [
        ("2|2,0", 1),
        ("2|1,1", 2),
        ("2|0,2", 1),
    ]


def test_decompose_regular(capsys):
    code, out, _ = run(capsys, "decompose", "--regular", "--m", "2", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert [s["multiplicity"] for s in payload["summands"]] == [1, 2, 1]
    assert payload["total_dimension"] == 6


def test_decompose_restrict(capsys):
    code, out, _ = run(
        capsys, "decompose", "--restrict", "1", "--class", "2,1:1,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["class"] for s in payload["summands"]] == ["1|1,0"]
    assert payload["total_dimension"] == 1


def test_decompose_restrict_to_zero(capsys):
    code, out, _ = run(
        capsys, "decompose", "--restrict", "1", "--class", "1,1:1,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summands"] == []
    assert payload["total_dimension"] == 0


def test_decompose_induce(capsys):
    code, out, _ = run(
        capsys, "decompose", "--induce", "2", "--class", "2,2:1,1,0"
    )
    assert code == 0
    assert [s["class"] for s in json.loads(out)["summands"]] == ["3|1,1,1"]


def test_decompose_usage_errors(capsys):
    cases = [
        ("decompose", "--restrict", "1", "--class", "2,1:bad"),
        ("decompose", "--restrict", "1", "--class", "3,1:1,1"),
        ("decompose", "--restrict", "1"),
        ("decompose", "--restrict", "2", "--class", "2,1:1,1"),
        ("decompose", "--restrict", "0", "--class", "0,1:0,0"),
        ("decompose", "--regular", "--restrict", "0", "--class", "1,1:1,0"),
        ("decompose",),
        ("decompose", "--regular", "--n", "1"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_crystal_dot_output(capsys):
    code, out, _ = run(capsys, "crystal", "box", "--n", "3", "--dot", "-")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph crystal {"
    assert lines[-1] == "}"
    assert sum(1 for line in lines if "->" in line) == 3
    assert sum(1 for line in lines if "label=" in line and "->" not in line) == 4


def test_crystal_writes_files(capsys, tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "crystal", "box", "--n", "2", "--dot", str(target))
    assert code == 0
    assert out == ""
    _, streamed, _ = run(capsys, "crystal", "box", "--n", "2", "--dot", "-")
    assert target.read_text(encoding="utf-8") == streamed

    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "crystal", "cm", "--m", "2", "--n", "2", "--json", str(target))
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text(encoding="utf-8"))["nodes"]) == 6


def test_crystal_node_counts(capsys):
    code, out, _ = run(capsys, "crystal", "cm", "--m", "2", "--n", "2", "--json", "-")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 6
    code, out, _ = run(
        capsys, "crystal", "ssyt", "--shape", "2,1", "--n", "2", "--json", "-"
    )
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 8
    code, out, _ = run(
        capsys, "crystal", "clambda", "--parts", "2,1", "--n", "2", "--json", "-"
    )
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 18


def test_crystal_usage_errors(capsys):
    cases = [
        ("crystal", "ssyt", "--shape", "1,2", "--n", "2"),
        ("crystal", "ssyt", "--shape", "2,x", "--n", "2"),
        ("crystal", "ssyt", "--n", "2"),
        ("crystal", "row", "--n", "2"),
        ("crystal", "box"),
        ("crystal", "box", "--n", "2", "--dot", "-", "--json", "-"),
        ("crystal", "clambda", "--parts", "2,0", "--n", "2"),
    ]
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_verify_reports(capsys):
    code, out, _ = run(capsys, "verify", "thm2.2", "--m", "2", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"target": "thm2.2", "checked": 7, "failed": 0}
    code, out, _ = run(capsys, "verify", "prop2.1", "--m", "3", "--n", "1")
    assert code == 0
    assert json.loads(out)["checked"] == 400


def test_verify_unknown_target(capsys):
    code, out, err = run(capsys, "verify", "thm9.9")
    assert code == 2
    assert "invalid choice" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    cc.clear_caches()
    monkeypatch.setattr(cc, "raise_label", lambda i, label: None)
    try:
        code, out, _ = run(
            capsys, "verify", "thm4.3", "--max-m", "2", "--max-n", "1"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["failed"] > 0
        assert payload["counterexamples"]
    finally:
        monkeypatch.undo()
        cc.clear_caches()


def test_help_and_missing_command(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2


def test_repeated_invocations_are_byte_identical(capsys):
    for argv in COMMANDS.values():
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv
        assert first[0] == 0, argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(capsys, name):
    code, out, err = run(capsys, *COMMANDS[name])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
