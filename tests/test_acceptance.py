"""End-to-end acceptance checks.

Each test covers one shipped criterion and prints a single
"CRITERION k: PASS/FAIL" line; run `pytest tests/test_acceptance.py -s -q`
to see the lines as they go by.
"""

import itertools
import json
from contextlib import contextmanager

from planar_rook.cli import main
from planar_rook.class_crystals import highest_component
from planar_rook.classes import all_class_labels, class_dimension
from planar_rook.diagrams import count_diagrams, enumerate_diagrams
from planar_rook.modules import decompose, regular_module
from planar_rook.tableaux import ssyt_crystal
from planar_rook.verify import TARGETS, verify_target


@contextmanager
def criterion(k, title):
    try:
        yield
    except BaseException:
        print(f"CRITERION {k}: FAIL - {title}")
        raise
    print(f"CRITERION {k}: PASS - {title}")


def brute_force_count(m, n):
    """Count diagrams from scratch: every colored partial injection, filtered."""
    total = 0
    for k in range(m + 1):
        for tops in itertools.combinations(range(1, m + 1), k):
            for bottoms in itertools.combinations(range(1, m + 1), k):
                for matched in itertools.permutations(bottoms):
                    for colors in itertools.product(range(1, n + 1), repeat=k):
                        edges = list(zip(tops, matched, colors))
                        ok = True
                        for (t1, b1, c1), (t2, b2, c2) in itertools.combinations(
                            edges, 2
                        ):
                            if c1 == c2 and (t1 - t2) * (b1 - b2) < 0:
                                ok = False
                                break
                        total += ok
    return total


def passed(report):
    return report["failed"] == 0 and report["checked"] > 0


def test_criterion_1_monoid_counts():
    with criterion(1, "monoid sizes match the multinomial formula and brute force"):
        frozen = {(2, 1): 6, (3, 1): 20, (1, 2): 3, (2, 2): 15}
        for (m, n), expected in frozen.items():
            assert count_diagrams(m, n) == expected
            assert len(enumerate_diagrams(m, n)) == expected
            assert brute_force_count(m, n) == expected


def test_criterion_2_orbit_product_laws():
    with criterion(2, "orbit-basis product laws, exhaustive pair sweeps"):
        report = verify_target("prop2.1", m=3, n=1)
        assert passed(report) and report["checked"] == 400
        report = verify_target("prop2.1", m=2, n=2)
        assert passed(report) and report["checked"] == 225


def test_criterion_3_regular_decomposition():
    with criterion(3, "regular module decomposes with multinomial multiplicities"):
        assert passed(verify_target("thm2.2", max_m=3, max_n=2))
        dec = decompose(regular_module(2, 2))
        assert sum(
            mult * class_dimension(lab) for lab, mult in dec.items()
        ) == 15
        assert all(
            dec[lab] == class_dimension(lab) for lab in all_class_labels(2, 2)
        )


def test_criterion_4_truncation_idempotent_lemmas():
    with criterion(4, "truncation idempotents cut and extend orbit vectors"):
        assert passed(verify_target("lemmas3", max_m=3, max_n=2))


def test_criterion_5_restriction_induction():
    with criterion(5, "restriction/induction formulas and the adjunction"):
        assert passed(verify_target("thm3.2", max_m=4, max_n=2))
        assert passed(verify_target("thm3.5", max_m=4, max_n=2))
        assert passed(verify_target("thm3.6", max_m=4, max_n=2))
        assert passed(verify_target("adjunction", max_m=3, max_n=2))


def test_criterion_6_crystal_axioms():
    with criterion(6, "crystal axioms hold on every constructed crystal"):
        report = verify_target("axioms", max_m=5, max_n=3)
        assert passed(report)
        assert report["checked"] >= 200


def test_criterion_7_class_crystal_is_row_crystal():
    with criterion(7, "class crystals match row crystals via the content word"):
        assert passed(verify_target("thm4.3", max_m=6, max_n=3))


def test_criterion_8_tuple_crystals_and_signature():
    with criterion(8, "tuple class crystals factor and obey the signature rule"):
        assert passed(verify_target("thm4.5", max_m=5, max_n=2))
        assert passed(verify_target("signature-equivalence", max_m=5, max_n=2))


def test_criterion_9_highest_components_are_tableau_crystals():
    with criterion(9, "highest components realize tableau crystals"):
        assert passed(verify_target("component-blambda", max_m=5, max_n=2))
        assert len(highest_component((2, 1), 2)) == 8
        assert len(ssyt_crystal((2, 1), 2)) == 8


def test_criterion_10_cli_determinism_and_default_verification(capsys):
    with criterion(10, "CLI output is reproducible and all verify targets pass"):
        commands = [
            ["enumerate", "--m", "2", "--n", "2"],
            ["crystal", "cm", "--m", "3", "--n", "2", "--json", "-"],
            ["crystal", "ssyt", "--shape", "2,1", "--n", "2", "--dot", "-"],
        ]
        for argv in commands:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            assert capsys.readouterr().out == first
        for target in sorted(TARGETS):
            assert main(["verify", target]) == 0, target
            report = json.loads(capsys.readouterr().out)
            assert report["failed"] == 0
