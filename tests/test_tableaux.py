"""Tableau and word crystal tests.

A tableau is its rows, a tuple of row tuples.  The tableau operators are
validated two independent ways: against the curated small examples, and
against the iterated binary tensor rule through the reading-word embedding
(the signature rule and the binary rule must pick the same box).
`tableau_op` below is the box-by-box oracle: it changes one box of a
tableau and refuses a result that is not semistandard, and the SSYT
crystal's raising and lowering columns are checked against it.  Keyed
reads go through the dict oracle in `crystal_oracle`.
"""

from __future__ import annotations

import itertools
from math import comb

import crystal_oracle as oracle
import pytest
from crystal_oracle import as_dicts, column_components, component_containing, tensor_columns

from planar_rook.crystals import (
    are_isomorphic,
    check_axioms,
    signature,
)
from planar_rook.diagrams import EnumerationCapError
from planar_rook.tableaux import (
    _filling_crystal,
    _ssyt_rows,
    box_crystal,
    filling_key,
    letter_factors,
    reading,
    row_crystal,
    ssyt_count,
    ssyt_crystal,
    weakly_increasing_words,
    word_key,
)


def signature_factors(word, i):
    """(eps, phi) in direction i of each letter of word, by letter_factors."""
    return list(map(letter_factors(max(word, default=0), i).__getitem__, word))


def highest_tableau(shape):
    """Row r filled with the letter r."""
    return tuple((r,) * w for r, w in enumerate(shape))


def is_semistandard(rows) -> bool:
    """Letters >= 0, row lengths weakly decreasing, rows weakly increasing
    and columns strictly increasing."""
    return (
        all(x >= 0 for row in rows for x in row)
        and all(len(a) >= len(b) for a, b in zip(rows, rows[1:]))
        and all(a <= b for row in rows for a, b in zip(row, row[1:]))
        and all(x < y for upper, lower in zip(rows, rows[1:]) for x, y in zip(upper, lower))
    )


def reading_positions(shape) -> list[tuple[int, int]]:
    """(row, column) of each reading-word position."""
    out = []
    for r, width in enumerate(shape):
        out.extend((r, c) for c in reversed(range(width)))
    return out


def tableau_op(kind: str, i: int, rows):
    """Apply a raising (kind 'e') or lowering (kind 'f') operator to a tableau.

    The signature rule over the reading word chooses the box; raising turns an
    i into i-1, lowering an i-1 into i.  None when the operator vanishes.
    A result outside the semistandard family raises rather than passes.
    """
    if i < 1:
        raise ValueError(f"direction must be >= 1, got {i}")
    rise, fall, _, _ = signature(signature_factors(reading(rows), i))
    pos = rise if kind == "e" else fall
    if pos < 0:
        return None
    r, c = reading_positions(tuple(map(len, rows)))[pos]
    new_rows = [list(row) for row in rows]
    new_rows[r][c] += -1 if kind == "e" else 1
    moved = tuple(map(tuple, new_rows))
    if not is_semistandard(moved):
        raise ValueError(f"{kind}_{i} of {rows} is not semistandard: {moved}")
    return moved


def partitions_up_to(total, max_parts):
    """All partitions with size up to total and at most max_parts parts."""
    out = []

    def rec(remaining, most, acc):
        if acc:
            out.append(tuple(acc))
        if len(acc) == max_parts:
            return
        for part in range(min(remaining, most), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(total, total, [])
    return out


# ---------------------------------------------------------------- box


def test_box_crystal_structure():
    b = box_crystal(3)
    d = as_dicts(b)
    assert b.nodes == ("0", "1", "2", "3")
    assert d.weight("2") == (0, 0, 1, 0)
    assert d.eps["2"] == (0, 1, 0)
    assert d.phi["2"] == (0, 0, 1)
    for j in range(3):
        assert d.f(str(j), j + 1) == str(j + 1)
    assert d.f("1", 1) is None
    assert check_axioms(b) == []
    assert oracle.highest_nodes(d) == ["0"]


def test_box_equals_length_one_row():
    for n in (1, 2, 3):
        assert row_crystal(1, n) == box_crystal(n)


# ---------------------------------------------------------------- rows


def test_row_crystal_chain():
    r = row_crystal(2, 1)
    d = as_dicts(r)
    assert r.nodes == ("00", "01", "11")
    assert d.f("00", 1) == "01"
    assert d.f("01", 1) == "11"
    assert d.f("11", 1) is None
    assert d.e("01", 1) == "00"
    assert check_axioms(r) == []


def test_row_lowering_changes_rightmost():
    r = as_dicts(row_crystal(3, 2))
    assert r.f("011", 1) == "111"
    assert r.f("012", 2) == "022"
    assert r.e("012", 1) == "002"


def test_row_stats_count_letters():
    r = as_dicts(row_crystal(4, 2))
    assert r.eps["0112"] == (2, 1)
    assert r.phi["0112"] == (1, 2)
    assert r.weight("0112") == (1, 2, 1)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
def test_row_crystal_axioms_and_size(m, n):
    r = row_crystal(m, n)
    assert len(r) == len(weakly_increasing_words(m, n))
    assert check_axioms(r) == []
    assert oracle.highest_nodes(as_dicts(r)) == ["0" * m]


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_row_crystal_is_component_of_box_power(m, n):
    power = tensor_columns([box_crystal(n)] * m)
    comp = component_containing(power, "⊗".join("0" * m))
    ok, witness = are_isomorphic(row_crystal(m, n), comp)
    assert ok
    # the matched nodes must be the sorted words
    assert witness[word_key((0,) * m)] == "⊗".join("0" * m)
    for word_node, tensor_node in witness.items():
        assert sorted(tensor_node.split("⊗")) == list(word_node)


# ---------------------------------------------------------------- tableaux


def test_reading_order():
    assert reading(((0, 1, 1, 3), (2, 3), (3,))) == (3, 1, 1, 0, 3, 2, 3)
    assert reading_positions((2, 1)) == [(0, 1), (0, 0), (1, 0)]


def test_tableau_op_on_rows():
    t = ((0, 0),)
    lowered = tableau_op("f", 1, t)
    assert lowered == ((0, 1),)
    assert tableau_op("e", 1, lowered) == t
    assert tableau_op("e", 1, t) is None


def test_tableau_op_refuses_a_move_outside_the_family():
    assert is_semistandard(((0, 0), (1,)))
    assert not is_semistandard(((1, 0), (2,)))  # row decreasing
    assert not is_semistandard(((0, 0), (0,)))  # column not strict
    assert not is_semistandard(((0,), (1, 1)))  # shape not a partition
    assert not is_semistandard(((-1,),))
    # on a tableau the signature rule never leaves the family; on the
    # column (1, 1) raising picks the lower box and makes it (1, 0)
    with pytest.raises(ValueError, match="not semistandard"):
        tableau_op("e", 1, ((1,), (1,)))


def test_highest_tableau_is_highest():
    for shape in [(2, 1), (3, 2, 1), (2, 2)]:
        top = highest_tableau(shape)
        for i in range(1, 4):
            assert tableau_op("e", i, top) is None


def test_tableau_op_validates_direction():
    with pytest.raises(ValueError):
        tableau_op("f", 0, highest_tableau((2,)))


def test_tableau_op_example_hook_shape():
    t = highest_tableau((2, 1))  # rows 00 / 1
    down1 = tableau_op("f", 1, t)
    assert down1 == ((0, 1), (1,))
    down2 = tableau_op("f", 2, t)
    assert down2 == ((0, 0), (2,))


# ---------------------------------------------------------------- ssyt


def test_enumerate_ssyt_counts():
    assert len(_ssyt_rows((2, 1), 2)) == 8
    assert len(_ssyt_rows((1, 1, 1), 2)) == 1
    assert len(_ssyt_rows((2, 2), 1)) == 1
    assert len(_ssyt_rows((2,), 1)) == 3
    assert len(_ssyt_rows((3, 1), 2)) == 15


def test_ssyt_count_matches_enumeration():
    # the hook-content formula against brute-force filling, tall shapes give 0
    for shape in partitions_up_to(7, 5):
        for n in range(1, 4):
            expected = len(_ssyt_rows(shape, n)) if len(shape) <= n + 1 else 0
            assert ssyt_count(shape, n) == expected, (shape, n)


def hook_content_count(shape, n):
    """The count by the hook-content formula (Stanley, EC2 Thm 7.21.2), the
    product over boxes of (n + 1 + content) / hook: the oracle for the Weyl
    dimension formula `ssyt_count` uses."""
    columns = [sum(1 for width in shape if width > c) for c in range(max(shape, default=0))]
    num = den = 1
    for r, width in enumerate(shape):
        for c in range(width):
            num *= n + 1 + c - r
            den *= (width - c) + (columns[c] - r) - 1
    return num // den


def test_ssyt_count_matches_hook_content():
    # every shape of size <= 8, tall ones included (both give 0)
    for shape in [()] + partitions_up_to(8, 8):
        for n in range(1, 5):
            assert ssyt_count(shape, n) == hook_content_count(shape, n), (shape, n)
    # many letters: the rows' pairs with the zero parts are binomials
    for shape in partitions_up_to(5, 5):
        for n in (9, 17, 40):
            assert ssyt_count(shape, n) == hook_content_count(shape, n), (shape, n)


def test_ssyt_count_is_cheap_for_huge_shapes_and_many_letters():
    # one row of length a in the letters 0..n: C(a + n, n)
    a = 99999999999999999999
    assert ssyt_count((a,), 3) == comb(a + 3, 3)
    assert ssyt_count((100000,), 3) == comb(100003, 3)
    assert ssyt_count((1,), 100000) == 100001
    # one column of height k: C(n + 1, k)
    assert ssyt_count((1,) * 30, 1000) == comb(1001, 30)


def brute_force_ssyt_rows(shape, n):
    """Every filling of the shape in row-concatenated lexicographic order,
    kept when rows weakly increase and columns strictly increase."""
    out = []
    for word in itertools.product(range(n + 1), repeat=sum(shape)):
        rows, at = [], 0
        for width in shape:
            rows.append(word[at : at + width])
            at += width
        if all(a <= b for row in rows for a, b in zip(row, row[1:])) and all(
            upper[c] < lower[c] for upper, lower in zip(rows, rows[1:]) for c in range(len(lower))
        ):
            out.append(tuple(rows))
    return out


def test_enumerate_ssyt_matches_brute_force_in_order():
    for shape in partitions_up_to(6, 4):
        for n in range(len(shape) - 1 or 1, 4):
            assert _ssyt_rows(shape, n) == brute_force_ssyt_rows(shape, n), (shape, n)


def test_enumerate_ssyt_recurses_once_per_row():
    # 10,000 boxes and one filling: a box-by-box recursion overflows the stack
    (only,) = _ssyt_rows((5000, 5000), 1)
    assert only == ((0,) * 5000, (1,) * 5000)
    assert len(ssyt_crystal((5000, 5000), 1)) == 1


def test_ssyt_crystal_checks_the_shape_and_cap_from_the_numbers():
    with pytest.raises(EnumerationCapError, match=": 166676666850001 of them"):
        ssyt_crystal((100000,), 3)
    with pytest.raises(EnumerationCapError, match=": 57657951 of them, times m \\+ n \\+ 1, is over the work cap"):
        ssyt_crystal((700,), 3)
    with pytest.raises(EnumerationCapError, match="is too large to index$"):
        ssyt_crystal((99999999999999999999,), 3)
    with pytest.raises(ValueError, match="weakly decreasing"):
        ssyt_crystal((1, 99999999999999999999), 3)
    with pytest.raises(ValueError, match="must be positive"):
        ssyt_crystal((99999999999999999999, 0), 3)


def test_enumerate_ssyt_is_sorted_and_valid():
    tableaux = _ssyt_rows((2, 1), 2)
    keys = list(map(filling_key, tableaux))
    words = [sum(rows, ()) for rows in tableaux]
    assert words == sorted(words)
    assert len(set(keys)) == len(keys)
    assert all(map(is_semistandard, tableaux))


def test_enumerate_ssyt_rejects_tall_shapes():
    with pytest.raises(ValueError):
        _ssyt_rows((1, 1, 1), 1)
    with pytest.raises(ValueError):
        ssyt_crystal((1, 1, 1), 1)


@pytest.mark.parametrize(
    "shape,n",
    [((2,), 1), ((2, 1), 1), ((2, 1), 2), ((2, 2), 2), ((3, 1), 2), ((2, 2, 1), 2)],
)
def test_ssyt_crystal_nodes_match_enumeration(shape, n):
    crystal = ssyt_crystal(shape, n)
    assert sorted(crystal.nodes) == sorted(map(filling_key, _ssyt_rows(shape, n)))
    assert check_axioms(crystal) == []
    assert oracle.highest_nodes(as_dicts(crystal)) == [filling_key(highest_tableau(shape))]
    assert len(column_components(crystal)) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ssyt_columns_match_tableau_op(n):
    # the builder's raising and lowering columns against the box-by-box oracle
    for shape in partitions_up_to(5, n + 1):
        crystal = as_dicts(ssyt_crystal(shape, n))
        for t in _ssyt_rows(shape, n):
            for i in range(1, n + 1):
                for kind, move in (("e", crystal.e), ("f", crystal.f)):
                    moved = tableau_op(kind, i, t)
                    expected = None if moved is None else filling_key(moved)
                    assert move(filling_key(t), i) == expected, (t, kind, i)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ssyt_crystal_is_connected_from_the_highest_tableau(n):
    # the nodes are all tableaux, so connectivity is a property to check
    for shape in partitions_up_to(6, n + 1):
        crystal = ssyt_crystal(shape, n)
        assert len(column_components(crystal)) == 1, shape
        highest = oracle.highest_nodes(as_dicts(crystal))
        assert highest == [filling_key(highest_tableau(shape))], shape


def test_row_and_ssyt_node_orders_with_two_digit_letters():
    # rows are listed by their letters, tableaux by their key strings
    assert row_crystal(1, 10).nodes == tuple(str(j) for j in range(11))
    assert ssyt_crystal((1,), 10).nodes == ("0", "1", "10", *map(str, range(2, 10)))


def test_ssyt_crystal_keys_each_tableau_once():
    # the keys that order the tableaux are the node keys; the crystal is the
    # one the builder makes from the sorted fillings and their own keys
    for shape, n in (((2, 1), 2), ((3, 1), 3), ((2,), 10), ((3, 2, 1), 3)):
        fillings = sorted(_ssyt_rows(shape, n), key=filling_key)
        assert ssyt_crystal(shape, n) == _filling_crystal(n, fillings), shape
    with pytest.raises(ValueError, match="lowering k0 in direction 1 leaves"):
        _filling_crystal(1, [((0,),)], ["k0"])


def test_filling_builder_refuses_a_move_outside_the_fillings():
    with pytest.raises(ValueError, match="lowering 0 in direction 1 leaves"):
        _filling_crystal(1, [((0,),)])
    with pytest.raises(ValueError, match="raising 1 in direction 1 leaves"):
        _filling_crystal(1, [((1,),)])
    with pytest.raises(ValueError, match="lowering 0/2 in direction 1 leaves"):
        _filling_crystal(2, [((0,), (2,))])


def test_ssyt_crystal_small_example():
    crystal = as_dicts(ssyt_crystal((2, 1), 2))
    assert len(crystal) == 8
    top = filling_key(highest_tableau((2, 1)))
    assert crystal.f(top, 1) == "01/1"
    assert crystal.f(top, 2) == "00/2"
    assert crystal.weight("01/1") == (1, 2, 0)


def test_ssyt_ops_are_mutually_inverse():
    crystal = as_dicts(ssyt_crystal((2, 1), 2))
    for key in crystal.nodes:
        for i in (1, 2):
            down = crystal.f(key, i)
            if down is not None:
                assert crystal.e(down, i) == key
            up = crystal.e(key, i)
            if up is not None:
                assert crystal.f(up, i) == key


@pytest.mark.parametrize("n", [1, 2])
def test_reading_intertwines_tableau_and_tensor_operators(n):
    # every tableau operator must agree with the iterated binary rule applied
    # to the reading word inside the box tensor power
    for shape in partitions_up_to(4, n + 1):
        tableaux = _ssyt_rows(shape, n)
        size = sum(shape)
        power = as_dicts(tensor_columns([box_crystal(n)] * size))
        for t in tableaux:
            word = reading(t)
            key = "⊗".join(str(x) for x in word)
            for i in range(1, n + 1):
                for kind in ("e", "f"):
                    moved = tableau_op(kind, i, t)
                    target = (
                        power.e(key, i) if kind == "e" else power.f(key, i)
                    )
                    if moved is None:
                        assert target is None
                    else:
                        assert target == "⊗".join(
                            str(x) for x in reading(moved)
                        )
