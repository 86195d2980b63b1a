"""Machine verification of the package's structural claims on small instances.

Every target sweeps a finite range, compares an implementation against an
independent route (brute-force expansion, a closed formula, or a second
construction of the same object), and reports a dict with the number of
elementary checks performed and any counterexamples found.  Targets never
raise on mathematical disagreement; they return it as data so callers can
render it and exit nonzero.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import partial
from math import comb

from . import class_crystals as cc
from .algebra import (
    Element,
    orbit_basis_product,
    orbit_vector,
    strand,
    truncation_idempotent,
)
from .classes import all_class_labels, class_dimension, induce_class, restrict_class
from .crystals import (
    check_axioms,
    ensure_nodes_within_cap,
    isomorphism_positions,
    morphism_violations,
    tensor,
    tensor_all,
)
from .diagrams import covers, enumerate_diagrams, juxtapose, multiply, unit_diagram
from .modules import decompose, multiplicity, regular_module, restrict, simple
from .tableaux import (
    _filling_crystal,
    box_crystal,
    row_crystal,
    ssyt_count,
    ssyt_crystal,
    word_key,
)

MAX_COUNTEREXAMPLES = 10


def _sweep(max_m, max_n, pin_m, pin_n, default_m=4, default_n=2, lo_m=1):
    """(top_m, top_n, ms, ns): the largest size and color count (the pin,
    else the explicit maximum, else the default) and the sizes and color
    counts to sweep (the pin alone, else lo_m..top_m and 1..top_n)."""
    top_m = pin_m if pin_m is not None else (max_m if max_m is not None else default_m)
    top_n = pin_n if pin_n is not None else (max_n if max_n is not None else default_n)
    ms = [pin_m] if pin_m is not None else range(lo_m, top_m + 1)
    ns = [pin_n] if pin_n is not None else range(1, top_n + 1)
    return top_m, top_n, ms, ns


def _pairs(max_m, max_n, pin_m, pin_n, default_m, default_n, lo_m=1):
    """The (m, n) cases honoring pins, explicit maxima, or defaults, each
    size for the first color count, then for the next.  They come one at a
    time, so a sweep meets its size cap before it lists a huge range."""
    _, _, ms, ns = _sweep(max_m, max_n, pin_m, pin_n, default_m, default_n, lo_m)
    return ((m, n) for n in ns for m in ms)


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers with the given sum, one at a
    time in lexicographic order."""
    if total == 0:
        yield ()
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def partitions(total: int, max_parts: int) -> list[tuple[int, ...]]:
    out = []

    def rec(remaining, most, acc):
        if remaining == 0 and acc:
            out.append(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for part in range(min(remaining, most), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(total, total, [])
    return out


# ---------------------------------------------------------------- targets


def _verify_axioms(max_m, max_n, pin_m, pin_n):
    # a pin caps this sweep rather than replacing it
    top_m, top_n, _, _ = _sweep(max_m, max_n, pin_m, pin_n)
    # refuse an over-cap sweep before building any crystal, then hold one at a time
    checked = 0
    for _, size, _ in _axioms_suite(top_m, top_n):
        ensure_nodes_within_cap(size)
        checked += 1
    bad = []
    for name, _, build in _axioms_suite(top_m, top_n):
        violations = check_axioms(build())
        if violations:
            bad.append({"crystal": name, "violations": violations[:3]})
    return checked, bad


def _axioms_suite(top_m, top_n):
    """(name, closed-form node count, builder) for each crystal of the
    axioms sweep, one at a time, so a huge range meets the cap first."""
    for n in range(1, top_n + 1):
        yield f"box(n={n})", n + 1, partial(box_crystal, n)
        for m in range(1, top_m + 1):
            yield f"row(m={m},n={n})", comb(m + n, n), partial(row_crystal, m, n)
            yield f"classes(m={m},n={n})", comb(m + n, n), partial(cc.class_crystal, m, n)
        for k in range(2, min(top_m, 5) + 1):
            yield f"box^{k}(n={n})", (n + 1) ** k, partial(_box_power, n, k)
        for total in range(1, top_m + 1):
            for shape in partitions(total, n + 1):
                yield f"ssyt({shape},n={n})", ssyt_count(shape, n), partial(ssyt_crystal, shape, n)
                size = cc.tuple_count(shape, n)
                yield f"highest({shape},n={n})", size, partial(cc.highest_component, shape, n)
            for parts in compositions(total):
                size = cc.tuple_count(parts, n)
                yield f"classes{parts}(n={n})", size, partial(cc.tensor_class_crystal, parts, n)


def _box_power(n, k):
    return tensor_all([box_crystal(n)] * k)


def _verify_regular_decomposition(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 3, 2):
        regular = regular_module(m, n)
        total = regular.dimension
        try:
            dec = decompose(regular)
        except ValueError as exc:
            bad.append({"case": f"m={m},n={n}", "error": str(exc)})
            continue
        dim_sum = 0
        for label in all_class_labels(m, n):
            checked += 1
            expected = class_dimension(label)
            got = dec.get(label, 0)
            if got != expected:
                bad.append(
                    {
                        "case": f"regular(m={m},n={n})",
                        "class": label.key,
                        "expected": expected,
                        "got": got,
                    }
                )
            dim_sum += expected * expected
        checked += 1
        if dim_sum != total:
            bad.append(
                {
                    "case": f"m={m},n={n}",
                    "expected": total,
                    "got": dim_sum,
                    "detail": "sum of squared dimensions vs monoid size",
                }
            )
    return checked, bad


def _verify_orbit_product_laws(max_m, max_n, pin_m, pin_n):
    if pin_m is None and pin_n is None:
        base = _pairs(max_m, max_n, pin_m, pin_n, 3, 2)
        cases = ((m, n) for m, n in base if n == 1 or m <= 2)
    else:
        cases = _pairs(max_m, max_n, pin_m, pin_n, 3, 2)
    checked = 0
    bad = []
    for m, n in cases:
        diagrams = enumerate_diagrams(m, n)
        # every product of two diagrams is a diagram of the sweep
        orbit = {d: orbit_vector(d) for d in diagrams}
        single = {d: Element.from_diagram(d) for d in diagrams}
        zero = Element.zero(m, n)
        for dp in diagrams:
            dp_elt, dp_orbit = single[dp], orbit[dp]
            for d in diagrams:
                checked += 1
                prod_orbit = orbit[multiply(dp, d)]
                left = dp_elt * orbit[d]
                left_expected = prod_orbit if covers(dp.bottom, d.top) else zero
                right = dp_orbit * single[d]
                right_expected = prod_orbit if covers(d.top, dp.bottom) else zero
                # the matched-or-zero rule that multiply --x-basis runs,
                # expanded back to the diagram basis
                matched = orbit_basis_product({dp: 1}, {d: 1}).items()
                both = sum((orbit[x].scale(c) for x, c in matched), zero)
                both_brute = dp_orbit * orbit[d]
                failures = []
                if left != left_expected:
                    failures.append("left law")
                if right != right_expected:
                    failures.append("right law")
                if both != both_brute:
                    failures.append("two-sided law")
                if failures:
                    bad.append(
                        {
                            "case": f"m={m},n={n}",
                            "pair": [list(dp.edges), list(d.edges)],
                            "laws": failures,
                        }
                    )
    return checked, bad


def _verify_truncation_lemmas(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 3, 2):
        diagrams = enumerate_diagrams(m, n)
        smaller = enumerate_diagrams(m - 1, n) if m >= 1 else ()
        # every extension of a smaller diagram is a diagram of the sweep
        orbit = {d: orbit_vector(d) for d in diagrams}
        small_orbit = {d: orbit_vector(d) for d in smaller}
        zero = Element.zero(m, n)
        for i in range(n + 1):
            trunc = truncation_idempotent(m, n, i)
            for d in diagrams:
                x = orbit[d]
                for side, got, word in (("left", trunc * x, d.top), ("right", x * trunc, d.bottom)):
                    checked += 1
                    if got != (x if word[m - 1] == i else zero):
                        bad.append(
                            {"case": f"{side} cut m={m},n={n},i={i}", "diagram": list(d.edges)}
                        )
            # appending a strand commutes with taking orbit vectors
            last, unit = strand(n, i), unit_diagram(n, i)
            for d in smaller:
                checked += 1
                extended = orbit[juxtapose(d, unit)]
                if small_orbit[d].tensor(last) != extended:
                    bad.append(
                        {
                            "case": f"extension m={m},n={n},i={i}",
                            "diagram": list(d.edges),
                        }
                    )
    return checked, bad


def _verify_functors(colors, induction, max_m, max_n, pin_m, pin_n):
    """Theorems 3.2, 3.5 and 3.6: restricting each simple in each color of
    range(n + 1)[colors] drops one vertex of that color; with induction,
    inducing each class one size up lands where those restrictions say.  A
    restriction that is not a module action is reported and counts as zero."""
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 4, 2):
        labels, table = all_class_labels(m, n), {}
        for label in labels:
            mod = simple(label)
            for i in range(n + 1)[colors]:
                restricted = restrict(i, mod)
                checked += 1
                try:
                    dec = table[(i, label)] = decompose(restricted)
                except ValueError as exc:
                    table[(i, label)] = {}
                    case = f"restrict(i={i}) of {label.key}"
                    bad.append({"case": case, "error": str(exc)})
                    continue
                target = restrict_class(i, label)
                expected = {} if target is None else {target: 1}
                if dec != expected:
                    bad.append(
                        {
                            "case": f"restrict(i={i}) of {label.key}",
                            "expected": {k.key: v for k, v in expected.items()},
                            "got": {k.key: v for k, v in dec.items()},
                        }
                    )
        if not induction:
            continue
        # Frobenius reciprocity pins the induced module: inducing a class M one
        # size up must land on exactly the classes whose restriction contains M.
        for small in all_class_labels(m - 1, n):
            for i in range(n + 1)[colors]:
                induced = induce_class(i, small)
                for big in labels:
                    checked += 1
                    got = table[(i, big)].get(small, 0)
                    expected = 1 if big == induced else 0
                    if got != expected:
                        bad.append(
                            {
                                "case": f"induce(i={i}) of {small.key}",
                                "candidate": big.key,
                                "expected": expected,
                                "got": got,
                            }
                        )
    return checked, bad


def _verify_adjunction(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 3, 2):
        smalls, bigs = all_class_labels(m - 1, n), all_class_labels(m, n)
        simples = {big: simple(big) for big in bigs}
        for i in range(n + 1):
            # Hom(Ind_i S_small, S_big) against Hom(S_small, Res_i S_big)
            restricted = {big: mod.restrict(i) for big, mod in simples.items()}
            for small in smalls:
                for big in bigs:
                    checked += 1
                    left = 1 if induce_class(i, small) == big else 0
                    right = multiplicity(restricted[big], small)
                    if left != right:
                        bad.append(
                            {
                                "case": f"i={i}, small={small.key}, big={big.key}",
                                "induced side": left,
                                "restricted side": right,
                            }
                        )
    return checked, bad


def _isomorphism_defects(case, left, right):
    """[] when left and right are isomorphic, else one counterexample whose
    detail says that no isomorphism exists or names the component of either
    side that is not normal."""
    try:
        if isomorphism_positions(left, right) is not None:
            return []
        detail = "no isomorphism found"
    except ValueError as exc:
        detail = str(exc)
    return [{"case": case, "detail": detail}]


def _verify_class_crystal_is_row_crystal(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 4, 2, lo_m=0):
        classes = cc.class_crystal(m, n)
        rows = row_crystal(m, n)
        mapping = {
            label.key: word_key(label.canonical_word())
            for label in all_class_labels(m, n)
        }
        # the closed-form moves against the functor composites come first,
        # so a broken move is reported at its source before its crystal
        for label in all_class_labels(m, n):
            for i in range(1, n + 1):
                for kind in ("e", "f"):
                    checked += 1
                    closed = (
                        cc.raise_label(i, label)
                        if kind == "e"
                        else cc.lower_label(i, label)
                    )
                    functorial = cc.class_operator_via_functors(kind, i, label)
                    if closed != functorial:
                        bad.append(
                            {
                                "case": f"{kind} at i={i} on {label.key}",
                                "closed form": None if closed is None else closed.key,
                                "via functors": None
                                if functorial is None
                                else functorial.key,
                            }
                        )
        checked += 1
        defects = morphism_violations(classes, rows, mapping)
        if defects:
            bad.append({"case": f"m={m},n={n}", "witness defects": defects[:3]})
        checked += 1
        bad += _isomorphism_defects(f"m={m},n={n}", classes, rows)
    return checked, bad


def _verify_tuple_crystal_factorizes(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    top_m, _, totals, ns = _sweep(max_m, max_n, pin_m, pin_n)
    for n in ns:
        row_products = _left_products(partial(row_crystal, n=n), top_m)
        for total in totals:
            for parts in compositions(total):
                checked += 1
                tuples = cc.tensor_class_crystal(parts, n)
                rows = row_products(parts)
                bad += _isomorphism_defects(f"parts={parts}, n={n}", tuples, rows)
    return checked, bad


def _verify_highest_component(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    _, _, totals, ns = _sweep(max_m, max_n, pin_m, pin_n)
    for n in ns:
        for total in totals:
            for shape in partitions(total, n + 1):
                comp = cc.highest_component(shape, n)
                tableaux = ssyt_crystal(shape, n)
                checked += 1
                # Weyl's dimension formula, independent of any enumeration
                expected = ssyt_count(shape, n)
                if len(comp) != expected:
                    bad.append(
                        {
                            "case": f"shape={shape}, n={n}",
                            "detail": "component size vs tableau count",
                            "expected": expected,
                            "got": len(comp),
                        }
                    )
                checked += 1
                bad += _isomorphism_defects(f"shape={shape}, n={n}", comp, tableaux)
    return checked, bad


def _verify_signature_equivalence(max_m, max_n, pin_m, pin_n):
    """The signature rule against the iterated binary rule on box powers and
    tuple crystals.  A box power's signature side is the filling builder over
    one-box rows, reading each word as itself in the power's position order."""
    checked = 0
    bad = []
    top_m, _, totals, ns = _sweep(max_m, max_n, pin_m, pin_n)
    for n in ns:
        power = box_crystal(n)
        for length in range(2, min(top_m, 4) + 1):
            power = tensor(power, box_crystal(n))
            where = f"length={length}, n={n}"
            words = itertools.product(range(n + 1), repeat=length)
            try:
                ours = _filling_crystal(n, [tuple((x,) for x in w) for w in words])
            except ValueError as exc:
                # a rule that moves a letter out of 0..n; its arrows still count
                checked += 2 * n * len(power)
                bad.append({"case": where, "detail": str(exc)})
                continue
            checked += _arrow_defects(bad, ours, "/", power, where)
        class_products = _left_products(partial(cc.class_crystal, n=n), top_m)
        for total in totals:
            for parts in compositions(total):
                tuples = cc.tensor_class_crystal(parts, n)
                where = f"parts={parts}, n={n}"
                checked += _arrow_defects(bad, tuples, "×", class_products(parts), where)
    return checked, bad


def _arrow_defects(bad, ours, sep, product, where):
    """Append to bad the arrows of the signature-rule crystal ours that the
    binary product disagrees with, and return the number of arrows compared.
    Nodes are matched through the key rewrite sep -> ⊗; a key of ours with
    no partner in the product is a counterexample of its own.  Whole
    columns are compared first, and only a column that differs is walked
    node by node."""
    keys = product.nodes
    index = {k: p for p, k in enumerate(keys)}
    there = [index.get(k.replace(sep, "⊗"), -1) for k in ours.nodes]
    bad += [
        {"case": f"{k}, {where}", "signature": k, "binary": None}
        for k, p in zip(ours.nodes, there)
        if p < 0
    ]
    for kind, mine, theirs in (("e", ours.up, product.up), ("f", ours.down, product.down)):
        for i, (col, other) in enumerate(zip(mine, theirs), 1):
            mapped = [-1 if t < 0 else there[t] for t in col]
            pulled = [other[p] for p in there]
            if mapped == pulled:
                continue
            for b, (got, want) in enumerate(zip(mapped, pulled)):
                if there[b] >= 0 and got != want:
                    bad.append(
                        {
                            "case": f"{kind}_{i} on {ours.nodes[b]}, {where}",
                            "signature": None if got < 0 else keys[got],
                            "binary": None if want < 0 else keys[want],
                        }
                    )
    return 2 * ours.n * len(ours)


def _left_products(build, top):
    """tensor_all of build(p) over the parts of a tuple.  The returned
    function keeps the products of part sum below top in a table it holds,
    so compositions that share a left prefix share its product; a product
    of sum top is never a prefix of another, so it is not kept."""
    table = {}

    def product(parts):
        if parts in table:
            return table[parts]
        last = build(parts[-1])
        out = last if len(parts) == 1 else tensor(product(parts[:-1]), last)
        if sum(parts) < top:
            table[parts] = out
        return out

    return product


TARGETS = {
    "axioms": _verify_axioms,
    "thm2.2": _verify_regular_decomposition,
    "prop2.1": _verify_orbit_product_laws,
    "lemmas3": _verify_truncation_lemmas,
    # colors 1..n, or color 0 alone, as a slice of range(n + 1)
    "thm3.2": partial(_verify_functors, slice(1, None), False),
    "thm3.5": partial(_verify_functors, slice(1, None), True),
    "thm3.6": partial(_verify_functors, slice(0, 1), True),
    "adjunction": _verify_adjunction,
    "thm4.3": _verify_class_crystal_is_row_crystal,
    "thm4.5": _verify_tuple_crystal_factorizes,
    "component-blambda": _verify_highest_component,
    "signature-equivalence": _verify_signature_equivalence,
}


def verify_target(
    target: str,
    max_m: int | None = None,
    max_n: int | None = None,
    m: int | None = None,
    n: int | None = None,
) -> dict:
    """Run one verification target and return its report."""
    fn = TARGETS.get(target)
    if fn is None:
        known = ", ".join(sorted(TARGETS))
        raise ValueError(f"unknown verify target {target!r}; known: {known}")
    checked, bad = fn(max_m, max_n, m, n)
    report = {"target": target, "checked": checked, "failed": len(bad)}
    if bad:
        report["counterexamples"] = bad[:MAX_COUNTEREXAMPLES]
    return report
