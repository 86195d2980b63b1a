"""CLI behavior: payload shapes, exit codes, determinism, cap overrides."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planar_rook
import planar_rook.class_crystals as cc
import planar_rook.cli as cli
from planar_rook import clear_caches
import planar_rook.crystals as crystals
import planar_rook.diagrams as diagrams
import planar_rook.modules as modules
import planar_rook.verify as verify
from planar_rook.algebra import Element, identity_element
from planar_rook.classes import ClassLabel
from planar_rook.cli import main
from planar_rook.diagrams import Diagram, enumerate_diagrams, flip, partial_identity
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
    "decompose-regular-5-1": ("decompose", "--regular", "--m", "5", "--n", "1"),
    "decompose-regular-2-3": ("decompose", "--regular", "--m", "2", "--n", "3"),
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


def test_enumerate_count_only_builds_no_diagram(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate --count-only built a diagram")

    monkeypatch.setattr(diagrams, "_enumerate", refuse)
    monkeypatch.setattr(diagrams.Diagram, "_trusted", refuse)
    code, out, err = run(capsys, *COMMANDS["enumerate-count-4-2"])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "enumerate-count-4-2.out").read_bytes()
    for m, n, count in (("6", "2", "35169\n"), ("5", "3", "31504\n")):
        assert run(capsys, "enumerate", "--m", m, "--n", n, "--count-only") == (0, count, "")


@pytest.mark.parametrize("extra", [("--count-only",), ()], ids=["count-only", "listing"])
def test_enumerate_reports_a_count_mismatch(capsys, monkeypatch, extra):
    words_with_counts = diagrams.words_with_counts

    def drop_last(counts):
        words = words_with_counts(counts)
        return words[:-1] if len(words) > 1 else words

    monkeypatch.setattr(diagrams, "words_with_counts", drop_last)
    code, out, err = run(capsys, "enumerate", "--m", "2", "--n", "1", *extra)
    assert (code, out) == (1, "")
    assert err == "count mismatch: enumerated 4, closed formula gives 6\n"


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
    assert "is over the work cap 500000" in err
    assert "force" not in err.lower()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (
            ("enumerate", "--m", "9999999999999999999", "--n", "2", "--force", "--count-only"),
            "is too large to index",
        ),
        (
            ("crystal", "clambda", "--parts", "9999999999999999999", "--n", "3", "--force", "--json", "-"),
            "is too large to index",
        ),
    ],
)
def test_a_forced_size_past_what_can_be_built_is_a_usage_error(capsys, argv, reason):
    # no list holds more than sys.maxsize entries; force does not lift that
    # bound, so the one-line refusal names the count and no override
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "at m=9999999999999999999" in err and " of them, times m + n + 1, " in err
    assert err.endswith(f" {reason}\n")


HUGE = 9999999999999999999  # past sys.maxsize on a 64-bit build


@pytest.mark.parametrize(
    "argv, nodes",
    [
        (("row", "--m", str(HUGE), "--n", "2"), comb(HUGE + 2, 2)),
        (("box", "--n", str(HUGE)), HUGE + 1),
        (("ssyt", "--shape", str(HUGE), "--n", "3"), comb(HUGE + 3, 3)),
    ],
)
def test_a_forced_crystal_too_large_to_index_is_refused_at_once(argv, nodes):
    # force lifts the node cap but no list holds more than sys.maxsize
    # nodes, so the refusal names no override; a subprocess, since these
    # ended in an OverflowError or ran for minutes
    done = cli_process("-m", "planar_rook.cli", "crystal", *argv, "--force", "--json", "-", timeout=10)
    assert (done.returncode, done.stdout) == (2, b"")
    err = done.stderr.decode()
    assert err.startswith("error: crystal nodes at m=")
    assert err.endswith(f": {nodes} of them, times m + n + 1, is too large to index\n")


@pytest.mark.parametrize(
    "target", ["thm3.2", "thm3.5", "thm3.6", "adjunction", "thm2.2", "lemmas3", "prop2.1"]
)
def test_a_huge_module_sweep_stops_at_the_cap(target):
    # every case's guard runs before any case is checked, one case at a
    # time, so the sweep is refused at m=9 (m=6 for prop2.1, which checks
    # every pair) before it lists the whole range or checks the cases below
    done = cli_process(
        "-m", "planar_rook.cli", "verify", target, "--max-m", str(HUGE), "--max-n", "2", timeout=10
    )
    assert (done.returncode, done.stdout) == (2, b"")
    what = "pairs of diagrams at m=6, n=1: 853776" if target == "prop2.1" else "diagrams at m=9, n=1: 48620"
    assert done.stderr.decode() == f"error: {what} of them{OVER_THE_CAP}\n"


def test_a_huge_axioms_sweep_stops_at_the_cap():
    # the crystals of the sweep come one at a time, so the 2^15 compositions
    # of 16 are not all listed before the first over-cap size is refused
    done = cli_process("-m", "planar_rook.cli", "verify", "axioms", "--max-m", "60", timeout=10)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode() == f"error: crystal nodes at m=15, n=1: 32768 of them{OVER_THE_CAP}\n"


@pytest.mark.parametrize(
    "target, nodes, sweep",
    # sizes past the cap: the tuple crystal of the all-ones composition of
    # 16 at n=1, the first of 2^15 compositions (14 is the largest all-ones
    # sum a sweep passes), that of the shape (9, 6, 4) at n=2, and the
    # class crystal of m=50000 at n=1
    [
        pytest.param("thm4.5", 65536, ("--m", "16", "--n", "1"), id="thm4.5-65536"),
        pytest.param("signature-equivalence", 65536, ("--m", "16", "--n", "1"), id="signature-equivalence-65536"),
        pytest.param("component-blambda", 23100, ("--max-m", "60"), id="component-blambda-23100"),
        pytest.param("thm4.3", 50001, ("--m", "50000", "--n", "1"), id="thm4.3-50001"),
    ],
)
def test_a_huge_crystal_sweep_stops_at_the_cap(target, nodes, sweep):
    # every closed-form size is checked before anything is built, so the
    # crystals below the cap are not built first
    done = cli_process("-m", "planar_rook.cli", "verify", target, *sweep, timeout=10)
    assert (done.returncode, done.stdout) == (2, b"")
    err = done.stderr.decode()
    assert err.startswith("error: crystal nodes at m=")
    assert err.endswith(f": {nodes} of them{OVER_THE_CAP}\n")


OVER_THE_CAP = ", times m + n + 1, is over the work cap 500000; verify has no override"
TOO_LARGE = ", times m + n + 1, is too large to index"
# each pinned verify case and its one-line refusal
HUGE_CASES = {
    # the one-color diagrams alone, C(2m, m) of them, are past any index
    f"thm3.2 --m {HUGE} --n 1": f"one-color diagrams at m={HUGE}, n=1: at least 10**92 of them{TOO_LARGE}",
    # the partition sum counts the diagrams of a huge n at once
    **{
        f"{target} --m 2 --n {HUGE}": f"diagrams at m=2, n={HUGE}: {(2 * HUGE + 1) * (HUGE + 1)} of them{TOO_LARGE}"
        for target in ("thm2.2", "prop2.1", "thm3.2")
    },
    "thm2.2 --m 2 --n 3000": f"diagrams at m=2, n=3000: 18009001 of them{OVER_THE_CAP}",
}


@pytest.mark.parametrize("argv", HUGE_CASES)
def test_a_huge_pinned_module_case_is_refused_at_once(argv):
    # these ended in a traceback (ValueError, OverflowError) or ran for minutes
    done = cli_process("-m", "planar_rook.cli", "verify", *argv.split(), timeout=10)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode() == f"error: {HUGE_CASES[argv]}\n"


# commands that ran for seconds, past 20 s, out of memory or into a
# traceback, and the objects each one's refusal counts: (what, m, n, count)
REFUSALS = {
    "enumerate --m 6 --n 4 --count-only": ("diagrams", 6, 4, 2241225),
    "enumerate --m 6 --n 5 --count-only": ("diagrams", 6, 5, 8848236),
    "enumerate --m 2 --n 100000 --count-only": ("diagrams", 2, 100000, 200001 * 100001),
    "enumerate --m 1 --n 40000 --count-only": ("diagrams", 1, 40000, 40001),
    "decompose --regular --m 2 --n 100000": ("diagrams", 2, 100000, 200001 * 100001),
    "verify thm2.2 --m 6 --n 3": ("diagrams", 6, 3, 387136),
    "verify prop2.1 --m 4 --n 2": ("pairs of diagrams", 4, 2, 639**2),
    "crystal box --n 2000 --json -": ("crystal nodes", 1, 2000, 2001),
    "crystal row --m 2 --n 300 --json -": ("crystal nodes", 2, 300, comb(302, 2)),
    "verify thm4.3 --m 1 --n 5000": ("crystal nodes", 1, 5000, 5001),
    "simples --m 1 --n 40000": ("classes", 1, 40000, 40001),
    "crystal cm --m 49999 --n 1 --json -": ("crystal nodes", 49999, 1, 50000),
    "verify thm4.3 --m 49999 --n 1": ("crystal nodes", 49999, 1, 50000),
    # past sys.maxsize, so refused with --force too, where a command takes it
    f"simples --m 0 --n {HUGE}": ("classes", 0, HUGE, 1),
    **{
        f"{command} --m 0 --n {HUGE}{extra}{tail}": (what, 0, HUGE, 1)
        for command, what, tail in (
            ("decompose --regular", "diagrams", ""),
            ("crystal row", "crystal nodes", " --json -"),
            ("enumerate", "diagrams", " --count-only"),
        )
        for extra in ("", " --force")
    },
    f"crystal cm --m 2 --n {HUGE} --force --json -": ("crystal nodes", 2, HUGE, comb(HUGE + 2, 2)),
}


@pytest.mark.parametrize("argv", REFUSALS)
def test_a_listed_refusal_is_one_line_that_names_the_count(argv):
    what, m, n, count = REFUSALS[argv]
    start = time.perf_counter()
    done = cli_process("-m", "planar_rook.cli", *argv.split(), timeout=10)
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (2, b"")
    (line,) = done.stderr.decode().splitlines()
    assert line.startswith(f"error: {what} at m={m}, n={n}: {count} of them, times m + n + 1, is ")


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
    d = partial_identity(label.n, label.canonical_word())
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
    zero = write_json(tmp_path / "z.json", {"m": 2, "n": 1, "terms": []})
    for other in (big, zero):
        for extra in ((), ("--x-basis",)):
            code, out, err = run(capsys, "multiply", small, other, *extra)
            assert (code, out) == (2, ""), (other, extra)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "different algebras" in err
    # an element with no terms still has a size a diagram could have
    neg = write_json(tmp_path / "neg.json", {"m": -5, "n": 0, "terms": []})
    for extra in ((), ("--x-basis",)):
        code, out, err = run(capsys, "multiply", neg, neg, *extra)
        assert (code, out) == (2, ""), extra
        assert err == f"error: {neg}: need 0 <= m <= 4096 and n >= 1, got m=-5, n=0\n"
    assert run(capsys, "multiply", small, str(tmp_path / "absent.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(capsys, "multiply", small, str(bad))[0] == 2
    arr = write_json(tmp_path / "arr.json", [1, 2])
    assert run(capsys, "multiply", small, arr)[0] == 2
    # a zero denominator, a float overflow and coefficients past the
    # interpreter's digit limit are usage errors, not tracebacks: a decimal
    # exponent past the limit is refused before Fraction expands it, so at
    # once, a value too long to print when it is read, and a JSON integer
    # past the limit when the file is parsed; a long malformed value is
    # quoted by its ends and length, so the message stays one short line
    limit = sys.get_int_max_str_digits()
    for name, coeff in (
        ("zero.json", '"1/0"'),
        ("huge.json", "1e400"),
        ("exponent.json", '"1e999999999"'),
        ("negative-exponent.json", '"-3e-999999999"'),
        ("unprintable.json", '"1e99999"'),
        ("at-limit.json", f'"1e{limit}"'),
        ("denominator.json", f'"1e-{limit}"'),
        ("json-int.json", "7" * (limit + 1)),
        # runs of digits Fraction cannot read: the same wording, not a syntax error
        ("long-numerator.json", '"%s/3"' % ("1" * (limit + 1))),
        ("long-denominator.json", '"3/%s"' % ("1" * (limit + 1))),
        ("long-integer.json", '"%s"' % ("1" * (limit + 1))),
        ("many-x.json", '"%s"' % ("x" * 5000)),
        ("many-zeros-denominator.json", '"1/%s"' % ("0" * 3000)),
    ):
        path = tmp_path / name
        path.write_text(
            '{"m": 1, "n": 1, "terms": [{"coeff": %s, "diagram": '
            '{"m": 1, "n": 1, "edges": []}}]}' % coeff,
            encoding="utf-8",
        )
        for extra in ((), ("--x-basis",)):
            start = time.perf_counter()
            code, out, err = run(capsys, "multiply", small, str(path), *extra)
            assert time.perf_counter() - start < 1, (name, extra)
            assert (code, out) == (2, ""), (name, extra)
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
            assert len(err.encode()) < 300, (name, extra)
            if name == "zero.json":
                assert err == (
                    f"error: {path}: term 0: coefficient '1/0' has a zero denominator\n"
                )
            if name.startswith("long-"):
                assert err.endswith(f"' has more than {limit} digits\n"), (name, extra)
    # JSON floats and booleans never reach the exact arithmetic: sizes,
    # positions and colors must be integers, coefficients integers or strings
    two = write_json(tmp_path / "two.json", Diagram(2, 1, ()).to_json_dict())
    element = '{"m": %s, "n": 1, "terms": [{"coeff": %s, "diagram": %s}]}'
    for name, text in (
        ("float-m.json", '{"m": 2.7, "n": 1, "edges": [[1, 1, 1]]}'),
        ("float-edge.json", '{"m": 2, "n": 1, "edges": [[1.9, 1, 1]]}'),
        ("float-color.json", '{"m": 2, "n": 1, "edges": [[1, 1, 1.0]]}'),
        ("bool-n.json", '{"m": 2, "n": true, "edges": []}'),
        ("bool-edge.json", '{"m": 2, "n": 1, "edges": [[true, 1, 1]]}'),
        # words hold an entry per vertex, so a huge size is refused, not allocated
        ("huge-m.json", '{"m": 1000000000, "n": 1, "edges": []}'),
        ("long-m.json", '{"m": "%s", "n": 1, "edges": []}' % ("x" * 5000)),
        (
            "huge-term-m.json",
            element % ("2", '"1"', '{"m": 1000000000, "n": 1, "edges": []}'),
        ),
        ("float-coeff.json", element % ("2", "0.1", '{"m": 2, "n": 1, "edges": []}')),
        ("bool-coeff.json", element % ("2", "true", '{"m": 2, "n": 1, "edges": []}')),
        ("list-coeff.json", element % ("2", "[1]", '{"m": 2, "n": 1, "edges": []}')),
        ("word-coeff.json", element % ("2", '"one"', '{"m": 2, "n": 1, "edges": []}')),
        ("float-size.json", element % ("2.0", '"1"', '{"m": 2, "n": 1, "edges": []}')),
        (
            "float-term-edge.json",
            element % ("2", '"1"', '{"m": 2, "n": 1, "edges": [[1, 1.5, 1]]}'),
        ),
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        for extra in ((), ("--x-basis",)):
            code, out, err = run(capsys, "multiply", two, str(path), *extra)
            assert (code, out) == (2, ""), (name, extra)
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
            assert len(err.encode()) < 300, (name, extra)


def _element_text(coeff: str) -> str:
    return (
        '{"m": 2, "n": 1, "terms": [{"coeff": %s, "diagram": '
        '{"m": 2, "n": 1, "edges": [[1, 2, 1]]}}]}' % coeff
    )


def test_multiply_prints_coefficients_up_to_the_digit_limit(capsys, tmp_path):
    # a coefficient of exactly the limit's digits multiplies and prints in
    # both bases: the partner's top boundary is the element's bottom one
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "largest.json"
    path.write_text(_element_text(f'"1e{limit - 1}"'), encoding="utf-8")
    partner = write_json(tmp_path / "p.json", Diagram(2, 1, ((2, 2, 1),)).to_json_dict())
    for extra in ((), ("--x-basis",)):
        code, out, _ = run(capsys, "multiply", str(path), partner, *extra)
        assert code == 0
        assert json.loads(out)["terms"][0]["coeff"] == "1" + "0" * (limit - 1)


# ---------------------------------------------------------------- fuzz

# malformed inputs for `multiply`, each refused whatever else it holds: the
# valid element below with one field replaced by a value of the wrong kind
# or removed, a prefix of its text, or a top level that is not an object
_VALID = json.loads(_element_text('"3/2"'))
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.text(alphabet="ab/.-e ", max_size=4)
)
_ANY = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(["m", "n", "terms", "coeff", "edges"]), inner, max_size=3),
    max_leaves=6,
)
_NOT_INT = _ANY.filter(lambda v: type(v) is not int)
_NOT_ITERABLE = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)


def _wrong_int(*valid):
    return _NOT_INT | st.integers(-3, 9).filter(lambda v: v not in valid)


_DIAGRAM = ("terms", 0, "diagram")
_EDGE = (*_DIAGRAM, "edges", 0)
_BAD_FIELDS = {
    ("m",): _wrong_int(2),
    ("n",): _wrong_int(1),
    ("terms",): _NOT_ITERABLE,
    ("terms", 0): _NOT_ITERABLE | st.lists(_SCALARS, max_size=2),
    ("terms", 0, "coeff"): _ANY.filter(lambda v: type(v) not in (int, str))
    | st.text(alphabet="ab/.- ", max_size=4)
    | st.sampled_from(["1/0", "1e999999999", "2/3e5"]),
    _DIAGRAM: _ANY.filter(lambda v: not isinstance(v, dict)),
    (*_DIAGRAM, "m"): _wrong_int(2),
    (*_DIAGRAM, "n"): _wrong_int(1),
    (*_DIAGRAM, "edges"): _NOT_ITERABLE
    | st.lists(st.lists(st.integers(1, 2), max_size=4).filter(lambda e: len(e) != 3), min_size=1, max_size=2),
    (*_EDGE, 0): _wrong_int(1, 2),
    (*_EDGE, 1): _wrong_int(1, 2),
    (*_EDGE, 2): _wrong_int(1),
}


@st.composite
def malformed_elements(draw) -> str:
    kind = draw(st.sampled_from(["replace", "remove", "prefix", "top"]))
    text = json.dumps(_VALID)
    if kind == "prefix":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "top":
        return json.dumps(draw(_ANY.filter(lambda v: not isinstance(v, dict))))
    doc = json.loads(text)
    path = draw(st.sampled_from(sorted(_BAD_FIELDS, key=repr)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "remove" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_BAD_FIELDS[path])
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(malformed_elements(), st.booleans(), st.booleans())
def test_multiply_fuzz_malformed_json_is_a_usage_error(tmp_path_factory, text, first, x_basis):
    folder = tmp_path_factory.mktemp("fuzz")
    good = write_json(folder / "good.json", _VALID)
    bad = folder / "bad.json"
    bad.write_text(text, encoding="utf-8")
    files = [str(bad), good] if first else [good, str(bad)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["multiply", *files, *(["--x-basis"] if x_basis else [])])
    assert (code, out.getvalue()) == (2, ""), text
    assert err.getvalue().startswith(f"error: {bad}") and err.getvalue().count("\n") == 1


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


def test_decompose_regular_builds_no_module_and_enumerates_no_diagram(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose --regular built the regular module")

    monkeypatch.setattr(modules, "regular_module", refuse)
    monkeypatch.setattr(modules.ExplicitModule, "_trusted", refuse)
    monkeypatch.setattr(modules.ExplicitModule, "__init__", refuse)
    monkeypatch.setattr(diagrams, "_enumerate", refuse)
    for name in ("decompose-regular-5-1", "decompose-regular-2-3"):
        code, out, err = run(capsys, *COMMANDS[name])
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("m, n", [("9", "1"), ("7", "2")])
def test_decompose_regular_keeps_the_cap(capsys, m, n):
    count = diagrams.count_diagrams(int(m), int(n))
    assert run(capsys, "decompose", "--regular", "--m", m, "--n", n) == (
        2,
        "",
        f"error: diagrams at m={m}, n={n}: {count} of them, times m + n + 1, is over the "
        "work cap 500000; pass --force or set PLANAR_ROOK_FORCE=1 to override\n",
    )


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


def test_decompose_induce_orders_one_label_without_listing_its_size(capsys):
    # forty colors: listing every class of size 41 would never finish
    spec = "40,40:" + ",".join(["1"] * 40 + ["0"])
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--induce", "1", "--class", spec)
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [s["class"] for s in payload["summands"]] == [
        "41|" + ",".join(["1", "2"] + ["1"] * 38 + ["0"])
    ]
    assert payload["total_dimension"] == payload["summands"][0]["dimension"]


def test_decompose_induce_refuses_a_number_past_the_digit_limit(capsys):
    # the induced size or dimension is decided from capped binomials before
    # any exact one is built: 10**d - 1 prints, 10**d is one error line
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        top = 10**640 - 1
        start = time.perf_counter()
        refused = [
            ("1", "1000000,1:500000,500000"),  # a dimension of 301,027 digits
            ("1", f"{top},1:{top},0"),  # size and dimension 10**640
            ("0", f"{top},1:{top},0"),  # size 10**640, dimension 1
        ]
        for i, spec in refused:
            code, out, err = run(capsys, "decompose", "--induce", i, "--class", spec)
            assert (code, out) == (2, ""), spec[:20]
            assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
            assert "more than 640 digits" in err
        assert time.perf_counter() - start < 1
        code, out, err = run(capsys, "decompose", "--induce", "1", "--class", f"{top - 1},1:{top - 1},0")
        assert (code, err) == (0, "")
        assert json.loads(out)["total_dimension"] == top
    finally:
        sys.set_int_max_str_digits(old)


def test_decompose_restrict_honours_force(capsys, monkeypatch):
    # the simple's 34,650 basis vectors, times m + n + 1, are over the cap
    argv = ("decompose", "--restrict", "1", "--class", "12,2:4,4,4")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "pass --force or set PLANAR_ROOK_FORCE=1 to override" in err
    for extra in (("--force",), ()):
        if not extra:
            monkeypatch.setenv("PLANAR_ROOK_FORCE", "1")
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, ""), extra
        payload = json.loads(out)
        assert [(s["class"], s["multiplicity"]) for s in payload["summands"]] == [
            ("11|4,3,4", 1)
        ]


def test_decompose_restrict_is_bounded_by_the_simples_own_basis(capsys):
    # 40 basis vectors and 40 classes to list, though the diagrams of size
    # 40 number about 10^23
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--restrict", "1", "--class", "40,1:39,1")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert [(s["class"], s["multiplicity"]) for s in json.loads(out)["summands"]] == [
        ("39|39,0", 1)
    ]
    # the basis is counted by binomials cut short past 2**256, not by the
    # exact dimension, whose ~300,000 digits take seconds to compute
    start = time.perf_counter()
    argv = ("decompose", "--restrict", "1", "--class", "1000000,1:500000,500000", "--force")
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: basis vectors of the simple module at m=1000000, n=1: at least "
        "10**77 of them, times m + n + 1, is too large to index\n"
    )


def test_decompose_restrict_is_bounded_by_its_probe_matrices(capsys):
    # 22,680 basis vectors and 24,310 classes of size 8 are each within the
    # cap, but decompose would cache 5,040 columns for each class's probe
    start = time.perf_counter()
    argv = ("decompose", "--restrict", "1", "--class", "9,9:0,2,2,2,2,1,0,0,0,0")
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: probe matrix columns at m=8, n=9: 122522400 of them, times m + n + 1, "
        "is over the work cap 500000; pass --force or set PLANAR_ROOK_FORCE=1 to override\n"
    )


def test_simples_refuses_over_the_crystal_cap(capsys):
    # C(80, 40) classes, about 10^23: refused before any is listed
    start = time.perf_counter()
    code, out, err = run(capsys, "simples", "--m", "40", "--n", "40")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: classes at m=40, n=40: 107507208733336176461620 of them, "
        "times m + n + 1, is too large to index\n"
    )
    # 40,001 classes of 40,002 counts each: over the cap, with no override
    assert run(capsys, "simples", "--m", "1", "--n", "40000") == (
        2,
        "",
        "error: classes at m=1, n=40000: 40001 of them, times m + n + 1, "
        "is over the work cap 500000; simples has no override\n",
    )


@pytest.mark.parametrize("size", ["1000000", "10000000"])
@pytest.mark.parametrize("command", [("simples",), ("crystal", "cm")])
def test_class_counts_past_2_256_are_refused_at_once(capsys, command, size):
    # the binomial stops once it passes 2**256 and is worded by its digits,
    # instead of computing C(2 * 10**7, 10**7) exactly first
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--m", size, "--n", size)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    what = "classes" if command == ("simples",) else "crystal nodes"
    assert err.startswith(f"error: {what} at m={size}, n={size}: at least 10**")
    # C(2N, N) < 4**N has fewer than 2N log10(2) + 1 digits
    digits = int(err.split("10**")[1].split()[0]) + 1
    assert 77 <= digits < 2 * int(size) * 0.30103 + 1


def test_capped_binomial_is_exact_below_2_256_and_a_lower_bound_past_it():
    for total in range(0, 300, 7):
        for k in range(total + 1):
            exact, capped = comb(total, k), diagrams.capped_binomial(total, k)
            if exact.bit_length() <= 256:
                assert capped == exact, (total, k)
            else:
                assert 2**256 <= capped <= exact, (total, k)


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
    # integer flags quote a long, malformed or out-of-range value by its
    # ends and length, in one short error line that names no helper
    long_x, long_neg = "x" * 5000, "-" + "1" * 4000
    cases = [
        ("enumerate", "--m", long_x, "--n", "1"),
        ("enumerate", "--m", "2", "--n", long_x),
        ("enumerate", "--m", "-1", "--n", "1"),
        ("enumerate", "--m", "2", "--n", "0"),
        ("decompose", "--regular", "--m", long_neg, "--n", "1"),
        ("decompose", "--regular", "--m", "2", "--n", "1.5"),
        ("decompose", "--restrict", long_x, "--class", "2,1:1,1"),
        ("decompose", "--restrict", long_neg, "--class", "2,1:1,1"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[:3]
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1 and len(lines[0].encode()) < 300, argv[:3]
        assert "expected an integer >= " in lines[0] and "_nonneg" not in lines[0], argv[:3]


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


def test_crystal_unwritable_destinations_are_usage_errors(capsys, tmp_path):
    # a directory and a path under a missing directory: one line, exit 2
    for flag, dest in (("--json", tmp_path), ("--dot", tmp_path / "missing" / "x.dot")):
        code, out, err = run(capsys, "crystal", "box", "--n", "1", flag, str(dest))
        assert code == 2, flag
        assert out == ""
        assert err.startswith(f"error: cannot write {dest}: "), err
        assert err.count("\n") == 1, err


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


def test_crystal_usage_errors(capsys, monkeypatch):
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
    # the flag pair is refused before a crystal of 175,616 nodes is built
    monkeypatch.setattr(cc, "tensor_class_crystal", lambda *a: pytest.fail("built a crystal"))
    argv = ("crystal", "clambda", "--parts", "5,5,5", "--n", "3", "--force", "--dot", "-")
    assert run(capsys, *argv, "--json", "-") == (2, "", "error: choose one of --dot or --json\n")


def test_crystal_cap_and_overrides(capsys, monkeypatch):
    # the closed-form node count is checked before anything is built
    code, out, err = run(capsys, "crystal", "clambda", "--parts", "6,6,6,6", "--n", "4")
    assert (code, out) == (2, "")
    assert err == (
        "error: crystal nodes at m=24, n=4: 1944810000 of them, times m + n + 1, is over "
        "the work cap 500000; pass --force or set PLANAR_ROOK_FORCE=1 to override\n"
    )
    for argv, nodes in (
        (("box", "--n", "100000"), 100001),
        (("row", "--m", "30", "--n", "5"), 324632),
        (("cm", "--m", "30", "--n", "5"), 324632),
        (("ssyt", "--shape", "8,6,4", "--n", "6"), 8324316),
    ):
        code, out, err = run(capsys, "crystal", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: crystal nodes at m=") and f": {nodes} of them" in err
    # one override mechanism: --force or the environment variable
    monkeypatch.setattr(diagrams, "WORK_CAP", 9)
    argv = ("crystal", "row", "--m", "3", "--n", "2", "--json", "-")
    assert run(capsys, *argv)[:2] == (2, "")
    golden = (GOLDEN / "crystal-row-json.out").read_text(encoding="utf-8")
    assert run(capsys, *argv, "--force") == (0, golden, "")
    monkeypatch.setenv("PLANAR_ROOK_FORCE", "1")
    assert run(capsys, *argv) == (0, golden, "")


def test_crystal_edge_commands_finish_quickly(capsys):
    # the shape is checked and counted from its numbers before anything is
    # allocated, and tableaux are filled a row at a time
    for shape, n, want, why in (
        ("99999999999999999999", "3", 166666666666666666671666666666666666666700000000000000000000, TOO_LARGE),
        ("100000", "3", 166676666850001, TOO_LARGE),
        ("700", "3", 57657951, OVER_THE_CAP.replace("verify has no", "pass --force or set PLANAR_ROOK_FORCE=1 to")),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "crystal", "ssyt", "--shape", shape, "--n", n, "--json", "-")
        assert time.perf_counter() - start < 1, shape
        assert (code, out) == (2, ""), shape
        assert err == f"error: crystal nodes at m={shape}, n={n}: {want} of them{why}\n"
    # a count past 256 bits is worded by its digits: one short line, and no
    # int-to-str conversion, which fails past 4,300 digits
    for shape, digits in (("3000", 1805), ("9000", 5417)):
        code, out, err = run(capsys, "crystal", "ssyt", "--shape", shape, "--n", shape)
        assert (code, out) == (2, ""), shape
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1 and len(lines[0].encode()) < 300, shape
        assert lines[0] == (
            f"error: crystal nodes at m={shape}, n={shape}: at least 10**{digits - 1} of them{TOO_LARGE}"
        )
    start = time.perf_counter()
    code, out, err = run(capsys, "crystal", "ssyt", "--shape", "5000,5000", "--n", "1", "--json", "-")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert [node["key"] for node in json.loads(out)["nodes"]] == ["0" * 5000 + "/" + "1" * 5000]
    # display words are built from the counts, not letter by letter (over
    # ten seconds for this one before); the bytes stay the same.  Its 8,001
    # nodes of 8,002 entries are over the work cap, so it is forced
    start = time.perf_counter()
    code, out, err = run(capsys, "crystal", "cm", "--m", "8000", "--n", "1", "--dot", "-", "--force")
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert f'[label="8000|3,7997 ~ 000{"1" * 7997}\\nwt=(3, 7997)"]' in out


def test_verify_tensor_cap_has_no_override(capsys, monkeypatch):
    # verify axioms builds box^2 (4 nodes of 4 entries) through
    # crystals.tensor; its case guard counts the same work before anything
    # is built, and verify has no --force
    monkeypatch.setattr(diagrams, "WORK_CAP", 15)
    code, out, err = run(capsys, "verify", "axioms", "--max-m", "2", "--max-n", "1")
    assert (code, out) == (2, "")
    assert err == (
        "error: crystal nodes at m=2, n=1: 4 of them, times m + n + 1, is over the "
        "work cap 15; verify has no override\n"
    )


def test_verify_axioms_refuses_an_over_cap_sweep_before_building(capsys):
    # box^5 at n=8 has 9^5 = 59049 nodes; the sizes are checked in closed
    # form first, so no crystal of the sweep is built before the refusal
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "axioms", "--max-m", "5", "--max-n", "8")
    elapsed = time.perf_counter() - started
    assert (code, out) == (2, "")
    assert err == f"error: crystal nodes at m=5, n=8: 59049 of them{OVER_THE_CAP}\n"
    assert elapsed < 5


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
    clear_caches()
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
        clear_caches()


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


def test_cli_import_loads_no_introspection_modules():
    # every command pays the import, so the package's value classes are
    # written out rather than generated through dataclasses, which would pull
    # in inspect, ast, dis and tokenize; modules site loaded beforehand do
    # not count
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import planar_rook.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(planar_rook.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "planar_rook.cli" in out
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(out)
    # argparse, with the gettext and locale it loads, waits for help and errors
    assert not {"argparse", "gettext", "locale"} & set(out)
    # the output writer escapes strings itself; only multiply imports json
    assert "json" not in out


# what a command loads beside planar_rook and planar_rook.cli: the layers it
# runs, and of the heavier standard modules only what multiply needs
_CRYSTAL_LAYERS = {"diagrams", "crystals", "classes", "tableaux", "class_crystals"}
LOADS = {
    ("decompose", "--regular", "--m", "3", "--n", "1"): {"diagrams", "classes"},
    ("decompose", "--induce", "2", "--class", "2,2:1,1,0"): {"diagrams", "classes"},
    ("simples", "--m", "3", "--n", "2"): {"diagrams", "classes"},
    ("enumerate", "--m", "2", "--n", "2"): {"diagrams"},
    **{argv: _CRYSTAL_LAYERS for name, argv in COMMANDS.items() if name.startswith("crystal-")},
    COMMANDS["multiply-element"]: {"diagrams", "algebra", "fractions", "decimal", "json"},
    ("verify", "thm4.5", "--max-m", "2", "--max-n", "1"): _CRYSTAL_LAYERS | {"verify"},
    # a simple's restriction and the adjunction act by partial maps, with no
    # rational or linear algebra; the thm3.x oracle builds the projector
    ("decompose", "--restrict", "1", "--class", "3,2:1,1,1"): {"diagrams", "classes", "modules"},
    ("verify", "adjunction", "--m", "2", "--n", "2"): _CRYSTAL_LAYERS | {"verify", "modules"},
    ("verify", "thm3.2", "--m", "2", "--n", "1"): _CRYSTAL_LAYERS
    | {"verify", "modules", "algebra", "linalg", "fractions", "decimal"},
}


@pytest.mark.parametrize("argv", list(LOADS), ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_a_command_loads_only_the_layers_it_runs(argv):
    probe = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import planar_rook.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = planar_rook.cli.main(sys.argv[1:])\n"
        "print(code, *sorted(set(sys.modules) - before))\n"
    )
    done = cli_process("-c", probe, *argv)
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.decode().split()
    assert code == "0"
    layers = {name.split(".", 1)[1] for name in loaded if name.startswith("planar_rook.")}
    heavy = {"fractions", "decimal", "json"} & set(loaded)
    assert layers | heavy == LOADS[argv] | {"cli"}
    # a well-formed command line is scanned without argparse
    assert not {"argparse", "gettext", "locale"} & set(loaded)


# argparse's own texts, recorded with COLUMNS=80 while every command built
# the whole parser: (argv, exit code, golden file of stdout or stderr)
PARSER_TEXTS = [
    (("--help",), 0, "help.out"),
    *(
        ((name, "--help"), 0, f"help-{name}.out")
        for name in ("enumerate", "multiply", "simples", "decompose", "crystal", "verify")
    ),
    (("nosuch",), 2, "error-nosuch.err"),
    (("verify", "nosuch"), 2, "error-verify-nosuch.err"),
    (("decompose", "--m", "x"), 2, "error-decompose-m-x.err"),
    (("decompose", "--regular", "--m", "3", "--n", "1", "extra"), 2, "error-unrecognized.err"),
]


@pytest.mark.parametrize("argv, code, golden", PARSER_TEXTS, ids=[t[2] for t in PARSER_TEXTS])
def test_help_and_parse_errors_match_golden(capsys, monkeypatch, argv, code, golden):
    monkeypatch.setenv("COLUMNS", "80")
    got, out, err = run(capsys, *argv)
    assert got == code
    assert (out if code == 0 else err).encode("utf-8") == (GOLDEN / golden).read_bytes()
    assert (err if code == 0 else out) == ""


def argparse_vars(argv):
    """vars() of what argparse parses argv into, or None where it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(cli.build_parser().parse_args(list(argv)))
    except SystemExit:
        return None


# (argv, whether the scanner parses it): every listed command, and forms at
# the scanner's edges
SCANS = [(argv, True) for argv in sorted({*COMMANDS.values(), *LOADS})] + [
    (("enumerate", "--m", "05", "--n", "+5"), True),
    (("crystal", "box", "--n", "\u0663", "--json", "-"), True),
    (("multiply", "", "-"), True),
    (("crystal", "box", "--shape", ""), True),
    (("enumerate", "--m", "1", "--m", "2", "--n", "1"), False),
    (("enumerate", "--m", "x", "--m", "2", "--n", "1"), False),
    (("enumerate", "--count-only", "--count-only", "--m", "1", "--n", "1"), False),
    (("enumerate", "--m=3", "--n", "1"), False),
    (("enumerate", "--n", "1"), False),
    (("enumerate", "--m", "-1", "--n", "1"), False),
    (("crystal", "box", "--shape", "-1"), False),
    (("crystal", "box", "--shape", "-h"), False),
    (("crystal", "box", "--json", "--"), False),
    (("crystal", "box", "--json"), False),
    (("crystal", "--", "box"), False),
    (("crystal", "nosuch"), False),
    (("verify", "thm4.5", "--max", "2"), False),
    (("verify", "thm4.5", "-h"), False),
    (("verify", "thm4.5", "--help"), False),
    (("verify", "thm4.5", "extra"), False),
    (("multiply", "a.json"), False),
    (("nosuch",), False),
    ((), False),
]


@pytest.mark.parametrize(
    "argv, scanned", SCANS, ids=[" ".join(Path(a).name for a in argv) for argv, _ in SCANS]
)
def test_the_scanner_parses_listed_and_edge_forms_as_argparse_does(argv, scanned):
    got = cli._scan(list(argv))
    assert (got is not None) == scanned
    if scanned:
        assert vars(got) == argparse_vars(argv)


# words that only argparse reads, or that a type or choice may refuse
_ODD = ["-h", "--help", "--", "--m=3", "--max", "--count", "-m", "-1", "05", "+5", "\u0663", "", "x", "nosuch", "-"]


@st.composite
def command_lines(draw):
    """A command's arguments, each left out, given once or repeated with a
    value of its kind, in any order; then up to two words replaced by or
    inserted as words of _ODD, the command name included."""
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    groups = []
    for name, kw in cli._arguments(command).items():
        values = kw.get("choices") or (["1", "3"] if "type" in kw else ["-", "2,1", "a.json"])
        for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 1, 1, 1, 1, 2]))):
            if not name.startswith("-"):
                groups.append([draw(st.sampled_from(values))])
            elif kw.get("action"):
                groups.append([name])
            else:
                groups.append([name, draw(st.sampled_from(values))])
    argv = [command, *(word for group in draw(st.permutations(groups)) for word in group)]
    for _ in range(draw(st.integers(0, 2))):
        at, word = draw(st.integers(0, len(argv))), draw(st.sampled_from(_ODD))
        if at < len(argv) and draw(st.booleans()):
            argv[at] = word
        else:
            argv.insert(at, word)
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(command_lines())
def test_the_scanner_declines_or_parses_as_argparse_does(argv):
    scanned = cli._scan(argv)
    if scanned is not None:
        assert vars(scanned) == argparse_vars(argv)


# ------------------------------------------------- output writer and exit path

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON)
def test_dump_writes_what_json_writes_with_an_indent(obj):
    assert cli._dump(obj) == json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def test_dump_writes_large_payloads_as_json_does():
    diagrams = enumerate_diagrams(3, 1)
    x = Element(3, 1, {d: Fraction(k - 9, 4) for k, d in enumerate(diagrams)})
    payloads = (
        (x * x).to_json_dict(),
        crystals.to_json_dict(cc.tensor_class_crystal((2, 1), 2)),
        {"text": "é一\U0001f600 \"quoted\" \\ \n\t\x00\x7f", "big": -(10**40)},
    )
    for obj in payloads:
        assert cli._dump(obj) == json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def test_dump_escapes_strings_as_json_does():
    texts = [chr(c) for c in range(0x80)] + ["⊗", "×", "\ud800", "a\udfffb"]
    texts.append("".join(texts))
    for obj in (texts, {t: t for t in texts}):
        assert cli._dump(obj) == json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# json would write the float and the non-str keys; no payload holds them
@pytest.mark.parametrize("obj", [1.5, {1: 2}, {"a": {None: 0}}, [set()], Fraction(1, 2)])
def test_dump_refuses_values_outside_the_payload_types(obj):
    with pytest.raises(TypeError):
        cli._dump(obj)


def cli_process(*argv, stdout=subprocess.PIPE, env=None, timeout=120):
    """Run python with argv in a fresh process, the package importable and
    stdout block-buffered, as it is in a pipe, unless env says otherwise."""
    src = str(Path(planar_rook.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *argv],
        env={**base, "PYTHONPATH": path, "COLUMNS": "80", **(env or {})},
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )


@pytest.mark.parametrize("name", ["multiply-element", "crystal-clambda-dot", "verify-thm4.5"])
def test_process_output_matches_golden(name):
    done = cli_process("-m", "planar_rook.cli", *COMMANDS[name])
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_process_usage_error_and_help(monkeypatch):
    done = cli_process("-m", "planar_rook.cli", "decompose", "--regular")
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode().splitlines() == ["error: --regular needs --m and --n"]
    done = cli_process("-m", "planar_rook.cli", "--help")
    monkeypatch.setenv("COLUMNS", "80")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode() == cli.build_parser().format_help()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv", [("simples", "--m", "1", "--n", "1"), ("enumerate", "--m", "3", "--n", "2")]
)
def test_process_never_exits_zero_when_stdout_is_full(argv, unbuffered):
    # buffered, a small payload fails at the final flush and a large one in
    # the write; unbuffered, every write fails
    with open("/dev/full", "w") as full:
        done = cli_process(
            "-m", "planar_rook.cli", *argv, stdout=full, env={"PYTHONUNBUFFERED": unbuffered}
        )
    assert done.returncode != 0
    assert b"No space left on device" in done.stderr


def test_process_under_a_profiler_exits_normally(capsys, tmp_path):
    # cProfile writes its file after the program returns, so the command must
    # not end the process itself
    argv = ("simples", "--m", "1", "--n", "1")
    prof = tmp_path / "simples.prof"
    done = cli_process("-m", "cProfile", "-o", str(prof), "-m", "planar_rook.cli", *argv)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode() == run(capsys, *argv)[1]
    assert prof.stat().st_size > 0


class _Exited(Exception):
    pass


class _Stream(io.StringIO):
    """A standard stream that logs its flushes, or fails them with error."""

    def __init__(self, name, log, error=None):
        super().__init__()
        self.name, self.log, self.error = name, log, error

    def flush(self):
        if self.error is not None:
            raise self.error
        self.log.append(f"flush {self.name}: {self.getvalue()}")


def _run_entry_point(monkeypatch, argv, stdout_error=None):
    log = []

    def fake_exit(code):
        log.append(code)
        raise _Exited

    monkeypatch.setattr(sys, "argv", ["planar-rook", *argv])
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", log, stdout_error))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", log))
    monkeypatch.setattr(cli.os, "_exit", fake_exit)
    return log


@pytest.mark.parametrize(
    "argv, code",
    [
        (("simples", "--m", "1", "--n", "1"), 0),
        (("verify", "thm2.2", "--m", "1", "--n", "1"), 1),
        (("decompose", "--regular"), 2),
    ],
)
def test_entry_point_flushes_then_ends_the_process(monkeypatch, argv, code):
    if cli._hooked():
        pytest.skip("a tracer or profiler is installed, so the ordinary exit is taken")
    if code == 1:
        monkeypatch.setattr(
            verify, "verify_target", lambda *a, **k: {"target": "thm2.2", "checked": 1, "failed": 1}
        )
    log = _run_entry_point(monkeypatch, argv)
    with pytest.raises(_Exited):
        cli.entry_point()
    assert log == [
        f"flush stdout: {sys.stdout.getvalue()}",
        f"flush stderr: {sys.stderr.getvalue()}",
        code,
    ]
    assert (sys.stdout.getvalue() != "") == (code != 2)


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), ValueError("closed")])
def test_entry_point_exits_normally_when_the_flush_fails(monkeypatch, error):
    log = _run_entry_point(monkeypatch, ("simples", "--m", "1", "--n", "1"), error)
    with pytest.raises(SystemExit) as exc:
        cli.entry_point()
    assert exc.value.code == 0
    assert log == []


def test_entry_point_exits_normally_without_a_stdout(monkeypatch):
    log = _run_entry_point(monkeypatch, ("decompose", "--regular"))
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as exc:
        cli.entry_point()
    assert exc.value.code == 2
    assert log == []


def test_entry_point_exits_normally_under_a_profiler(monkeypatch):
    log = _run_entry_point(monkeypatch, ("simples", "--m", "1", "--n", "1"))
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
    finally:
        sys.setprofile(previous)
    assert exc.value.code == 0
    assert log == []
