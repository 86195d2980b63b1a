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

from . import class_crystals as cc
from .algebra import (
    Element,
    orbit_product,
    orbit_vector,
    strand,
    truncation_idempotent,
)
from .crystals import (
    are_isomorphic,
    check_axioms,
    morphism_violations,
    signature_apply,
    tensor_all,
)
from .diagrams import enumerate_diagrams, juxtapose, multiply, unit_diagram
from .modules import (
    adjunction_check,
    all_class_labels,
    class_dimension,
    decompose,
    induce_class,
    regular_module,
    restrict,
    restrict_class,
    simple,
)
from .tableaux import (
    box_crystal,
    enumerate_ssyt,
    row_crystal,
    signature_factors,
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
    """Case list of (m, n) pairs honoring pins, explicit maxima, or defaults."""
    _, _, ms, ns = _sweep(max_m, max_n, pin_m, pin_n, default_m, default_n, lo_m)
    return [(m, n) for n in ns for m in ms]


def compositions(total: int) -> list[tuple[int, ...]]:
    """All ordered tuples of positive integers with the given sum."""
    if total == 0:
        return [()]
    out = []
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            out.append((head,) + rest)
    return out


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
    suite = []
    for n in range(1, top_n + 1):
        suite.append((f"box(n={n})", box_crystal(n)))
        for m in range(1, top_m + 1):
            suite.append((f"row(m={m},n={n})", row_crystal(m, n)))
            suite.append((f"classes(m={m},n={n})", cc.class_crystal(m, n)))
        for k in range(2, min(top_m, 5) + 1):
            suite.append(
                (f"box^{k}(n={n})", tensor_all([box_crystal(n)] * k))
            )
        for total in range(1, top_m + 1):
            for shape in partitions(total, n + 1):
                suite.append((f"ssyt({shape},n={n})", ssyt_crystal(shape, n)))
                suite.append(
                    (f"highest({shape},n={n})", cc.highest_component(shape, n))
                )
            for parts in compositions(total):
                suite.append(
                    (
                        f"classes{parts}(n={n})",
                        cc.tensor_class_crystal(parts, n),
                    )
                )
    checked = 0
    bad = []
    for name, crystal in suite:
        checked += 1
        violations = check_axioms(crystal)
        if violations:
            bad.append({"crystal": name, "violations": violations[:3]})
    return checked, bad


def _verify_regular_decomposition(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 3, 2):
        total = len(enumerate_diagrams(m, n))
        try:
            dec = decompose(regular_module(m, n))
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
        cases = [(m, n) for m, n in base if n == 1 or m <= 2]
    else:
        cases = _pairs(max_m, max_n, pin_m, pin_n, 3, 2)
    checked = 0
    bad = []
    for m, n in cases:
        diagrams = enumerate_diagrams(m, n)
        for dp in diagrams:
            dp_elt = Element.from_diagram(dp)
            dp_orbit = orbit_vector(dp)
            beta = dp.bottom_boundary()
            for d in diagrams:
                checked += 1
                tau = d.top_boundary()
                prod_orbit = orbit_vector(multiply(dp, d))
                zero = Element.zero(m, n)
                left = dp_elt * orbit_vector(d)
                left_expected = prod_orbit if beta.covers(tau) else zero
                right = dp_orbit * Element.from_diagram(d)
                right_expected = prod_orbit if tau.covers(beta) else zero
                both = orbit_product(dp, d)
                both_brute = dp_orbit * orbit_vector(d)
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
        for i in range(n + 1):
            trunc = truncation_idempotent(m, n, i)
            for d in diagrams:
                checked += 1
                x = orbit_vector(d)
                got = trunc * x
                keep = d.top_boundary().colors[m - 1] == i
                if got != (x if keep else Element.zero(m, n)):
                    bad.append(
                        {
                            "case": f"left cut m={m},n={n},i={i}",
                            "diagram": list(d.edges),
                        }
                    )
                checked += 1
                got = x * trunc
                keep = d.bottom_boundary().colors[m - 1] == i
                if got != (x if keep else Element.zero(m, n)):
                    bad.append(
                        {
                            "case": f"right cut m={m},n={n},i={i}",
                            "diagram": list(d.edges),
                        }
                    )
            # appending a strand commutes with taking orbit vectors
            last = strand(n, i)
            for d in smaller:
                checked += 1
                extended = orbit_vector(juxtapose(d, unit_diagram(n, i)))
                if orbit_vector(d).tensor(last) != extended:
                    bad.append(
                        {
                            "case": f"extension m={m},n={n},i={i}",
                            "diagram": list(d.edges),
                        }
                    )
    return checked, bad


def _restriction_decompositions(m, n, colors):
    """decompose(restrict(i, simple(N))) for every class N and i in colors."""
    table = {}
    for label in all_class_labels(m, n):
        for i in colors:
            table[(i, label)] = decompose(restrict(i, simple(label)))
    return table


def _check_restriction_formula(m, n, colors, checked, bad):
    table = _restriction_decompositions(m, n, colors)
    for (i, label), dec in table.items():
        checked += 1
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
    return table, checked


def _check_induction_formula(m, n, colors, table, checked, bad):
    # Frobenius reciprocity pins the induced module: inducing a class M one
    # size up must land on exactly the classes whose restriction contains M.
    big_labels = all_class_labels(m, n)
    for small in all_class_labels(m - 1, n):
        for i in colors:
            induced = induce_class(i, small)
            for big in big_labels:
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
    return checked


def _verify_restriction(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 4, 2):
        _, checked = _check_restriction_formula(
            m, n, range(1, n + 1), checked, bad
        )
    return checked, bad


def _verify_induction(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 4, 2):
        table, checked = _check_restriction_formula(
            m, n, range(1, n + 1), checked, bad
        )
        checked = _check_induction_formula(m, n, range(1, n + 1), table, checked, bad)
    return checked, bad


def _verify_isolated_functors(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 4, 2):
        table, checked = _check_restriction_formula(m, n, (0,), checked, bad)
        checked = _check_induction_formula(m, n, (0,), table, checked, bad)
    return checked, bad


def _verify_adjunction(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 3, 2):
        for i in range(n + 1):
            for small in all_class_labels(m - 1, n):
                for big in all_class_labels(m, n):
                    checked += 1
                    left, right = adjunction_check(i, small, big)
                    if left != right:
                        bad.append(
                            {
                                "case": f"i={i}, small={small.key}, big={big.key}",
                                "induced side": left,
                                "restricted side": right,
                            }
                        )
    return checked, bad


def _verify_class_crystal_is_row_crystal(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    for m, n in _pairs(max_m, max_n, pin_m, pin_n, 4, 2, lo_m=0):
        classes = cc.class_crystal(m, n)
        rows = row_crystal(m, n)
        mapping = {
            label.key: word_key(label.canonical_boundary().colors)
            for label in all_class_labels(m, n)
        }
        checked += 1
        defects = morphism_violations(classes, rows, mapping)
        if defects:
            bad.append({"case": f"m={m},n={n}", "witness defects": defects[:3]})
        checked += 1
        ok, _ = are_isomorphic(classes, rows)
        if not ok:
            bad.append({"case": f"m={m},n={n}", "detail": "no isomorphism found"})
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
    return checked, bad


def _verify_tuple_crystal_factorizes(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    _, _, totals, ns = _sweep(max_m, max_n, pin_m, pin_n)
    for n in ns:
        for total in totals:
            for parts in compositions(total):
                checked += 1
                tuples = cc.tensor_class_crystal(parts, n)
                rows = tensor_all([row_crystal(p, n) for p in parts])
                ok, _ = are_isomorphic(tuples, rows)
                if not ok:
                    bad.append({"case": f"parts={parts}, n={n}"})
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
                if len(comp) != len(enumerate_ssyt(shape, n)):
                    bad.append(
                        {
                            "case": f"shape={shape}, n={n}",
                            "detail": "component size vs tableau count",
                            "expected": len(enumerate_ssyt(shape, n)),
                            "got": len(comp),
                        }
                    )
                checked += 1
                ok, _ = are_isomorphic(comp, tableaux)
                if not ok:
                    bad.append({"case": f"shape={shape}, n={n}"})
    return checked, bad


def _verify_signature_equivalence(max_m, max_n, pin_m, pin_n):
    checked = 0
    bad = []
    top_m, _, totals, ns = _sweep(max_m, max_n, pin_m, pin_n)
    for n in ns:
        # box powers: the signature rule against the iterated binary rule
        for length in range(2, min(top_m, 4) + 1):
            power = tensor_all([box_crystal(n)] * length)
            for word in itertools.product(range(n + 1), repeat=length):
                key = "⊗".join(str(x) for x in word)
                for i in range(1, n + 1):
                    factors = signature_factors(word, i)
                    for kind in ("e", "f"):
                        checked += 1
                        target = (
                            power.e(key, i) if kind == "e" else power.f(key, i)
                        )
                        pos = signature_apply(kind, factors)
                        if (target is None) != (pos is None):
                            bad.append(
                                {
                                    "case": f"{kind}_{i} on word {word}, n={n}",
                                    "binary": target,
                                    "signature": pos,
                                }
                            )
                            continue
                        if target is not None:
                            moved = [
                                j
                                for j, (a, b) in enumerate(
                                    zip(word, target.split("⊗"))
                                )
                                if str(a) != b
                            ]
                            if moved != [pos]:
                                bad.append(
                                    {
                                        "case": f"{kind}_{i} on word {word}, n={n}",
                                        "binary": moved,
                                        "signature": pos,
                                    }
                                )
        # tuple crystals: signature arrows against the tensor of class crystals
        for total in totals:
            for parts in compositions(total):
                tuples = cc.tensor_class_crystal(parts, n)
                product = tensor_all([cc.class_crystal(p, n) for p in parts])
                rewrite = {
                    key: key.replace("×", "⊗") for key in tuples.nodes
                }
                for key in tuples.nodes:
                    for i in range(1, n + 1):
                        for kind in ("e", "f"):
                            checked += 1
                            ours = (
                                tuples.e(key, i)
                                if kind == "e"
                                else tuples.f(key, i)
                            )
                            theirs = (
                                product.e(rewrite[key], i)
                                if kind == "e"
                                else product.f(rewrite[key], i)
                            )
                            ours = None if ours is None else rewrite[ours]
                            if ours != theirs:
                                bad.append(
                                    {
                                        "case": f"{kind}_{i} on {key}, "
                                        f"parts={parts}, n={n}",
                                        "signature": ours,
                                        "binary": theirs,
                                    }
                                )
    return checked, bad


TARGETS = {
    "axioms": _verify_axioms,
    "thm2.2": _verify_regular_decomposition,
    "prop2.1": _verify_orbit_product_laws,
    "lemmas3": _verify_truncation_lemmas,
    "thm3.2": _verify_restriction,
    "thm3.5": _verify_induction,
    "thm3.6": _verify_isolated_functors,
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
