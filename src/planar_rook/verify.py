"""Machine verification of the package's structural claims on small instances.

Every target sweeps a finite range, compares an implementation against an
independent route (brute-force expansion, a closed formula, or a second
construction of the same object), and reports a dict with the number of
elementary checks performed and any counterexamples found.  Targets never
raise on mathematical disagreement; they return it as data so callers can
render it and exit nonzero.

A target is a stream of cases (case, guard, check), and verify_target runs
every target the same way: first every guard, which refuses its case from
closed-form sizes, so an over-cap sweep is refused before anything is
built; then every check, which returns (count, counterexamples).  A check
whose build raises ValueError counts once and reports the error.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import partial
from math import comb

from . import class_crystals as cc
from .classes import all_class_labels, class_dimension, induce_class, restrict_class
from .crystals import (
    _image_violations,
    check_axioms,
    isomorphism_positions,
    morphism_violations,
    tensor,
)
from .diagrams import (
    EnumerationCapError,
    capped_binomial,
    covers,
    ensure_diagrams,
    ensure_work,
    enumerate_diagrams,
    juxtapose,
    multiply,
    partitions,
    unit_diagram,
)
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


def _module_cases(
    check, default_m, default_n, max_m, max_n, pin_m, pin_n, narrow=False, guard=ensure_diagrams
):
    """(case, guard, check) for each (m, n), each size for the first color
    count, then the next, one at a time, so a guard meets its cap before a
    huge range is listed.  Unpinned, a narrow sweep has n = 1 or m <= 2.
    A case builds from the diagrams of its size, whose count bounds its
    classes and squared dimensions, so they are the guard's work."""
    _, _, ms, ns = _sweep(max_m, max_n, pin_m, pin_n, default_m, default_n)
    wide = not narrow or pin_m is not None or pin_n is not None
    for n in ns:
        for m in ms:
            if wide or n == 1 or m <= 2:
                yield f"m={m},n={n}", partial(guard, m, n), partial(check, m, n)


def _pairs_guard(m, n):
    """prop2.1's work: it checks every pair of diagrams."""
    count = ensure_diagrams(m, n)
    ensure_work(count * count, m, n, "pairs of diagrams")


def _nodes_guard(nodes, m, n):
    return partial(ensure_work, nodes, m, n, "crystal nodes")


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers with the given sum, one at a
    time in lexicographic order."""
    if total == 0:
        yield ()
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


# ---------------------------------------------------------------- targets


def _axioms(max_m, max_n, pin_m, pin_n):
    # a pin caps this sweep rather than replacing it
    top_m, top_n, _, _ = _sweep(max_m, max_n, pin_m, pin_n)

    def case(name, nodes, m, build, *args):
        return name, _nodes_guard(nodes, m, n), partial(_axioms_check, name, build, *args)

    for n in range(1, top_n + 1):
        yield case(f"box(n={n})", n + 1, 1, box_crystal, n)
        for m in range(1, top_m + 1):
            yield case(f"row(m={m},n={n})", comb(m + n, n), m, row_crystal, m, n)
            yield case(f"classes(m={m},n={n})", comb(m + n, n), m, cc.class_crystal, m, n)
        powers = _left_products(partial(row_crystal, n=n), min(top_m, 5))
        for k in range(2, min(top_m, 5) + 1):
            yield case(f"box^{k}(n={n})", (n + 1) ** k, k, powers, (1,) * k)
        for total in range(1, top_m + 1):
            for shape in partitions(total, n + 1):
                tableaux, size = ssyt_count(shape, n), cc.tuple_count(shape, n)
                yield case(f"ssyt({shape},n={n})", tableaux, total, ssyt_crystal, shape, n)
                yield case(f"highest({shape},n={n})", size, total, cc.highest_component, shape, n)
            for parts in compositions(total):
                size = cc.tuple_count(parts, n)
                yield case(f"classes{parts}(n={n})", size, total, cc.tensor_class_crystal, parts, n)


def _axioms_check(name, build, *args):
    violations = check_axioms(build(*args))
    return 1, ([{"crystal": name, "violations": violations[:3]}] if violations else [])


def _regular_decomposition(m, n):
    from .modules import decompose, regular_module

    regular = regular_module(m, n)
    total = regular.dimension
    # the case's guard counted the diagrams, which bound the classes; the
    # probes' columns, diagrams times classes, are not held to the cap
    dec = decompose(regular, force=True)
    checked, bad, dim_sum = 0, [], 0
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


def _orbit_product_laws(m, n):
    from .algebra import Element, orbit_basis_product, orbit_vector

    checked, bad = 0, []
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


def _truncation_lemmas(m, n):
    from .algebra import Element, orbit_vector, strand, truncation_idempotent

    checked, bad = 0, []
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


def _functors(colors, induction, m, n):
    """Theorems 3.2, 3.5 and 3.6: restricting each simple in each color of
    range(n + 1)[colors] drops one vertex of that color; with induction,
    inducing each class one size up lands where those restrictions say.  A
    restriction that is not a module action is reported and counts as zero."""
    from .modules import decompose, restrict, simple

    checked, bad = 0, []
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
        return checked, bad
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


def _adjunction(m, n):
    from .modules import multiplicity, simple

    checked, bad = 0, []
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


def _columns(crystal):
    return crystal.wt, crystal.eps, crystal.phi, crystal.up, crystal.down


def _isomorphism_defects(case, left, right, witness=None):
    """[] when left and right are isomorphic, else one counterexample whose
    detail says that no isomorphism exists or names the component of either
    side that is not normal.  A witness (a permutation sending left's b to
    witness[b]) that is a strict isomorphism settles it without a search;
    the identity is one exactly when the two sides' columns are equal."""
    fits = witness is not None and (len(left), left.n) == (len(right), right.n)
    if fits and (
        witness == list(range(len(left))) and _columns(left) == _columns(right)
        or not _image_violations(left, right, witness)
    ):
        return []
    try:
        if isomorphism_positions(left, right) is not None:
            return []
        detail = "no isomorphism found"
    except ValueError as exc:
        detail = str(exc)
    return [{"case": case, "detail": detail}]


def _class_crystal_is_row_crystal(max_m, max_n, pin_m, pin_n):
    _, _, ms, ns = _sweep(max_m, max_n, pin_m, pin_n, lo_m=0)
    for n in ns:
        for m in ms:
            guard = _nodes_guard(capped_binomial(m + n, n), m, n)
            yield f"m={m},n={n}", guard, partial(_class_crystal_check, m, n)


def _class_crystal_check(m, n):
    classes = cc.class_crystal(m, n)
    rows = row_crystal(m, n)
    checked, bad = 0, []
    # the class crystal's nodes are these labels in order, so its columns
    # are the closed-form moves; checked first, a broken move is
    # reported at its source before its crystal
    labels = all_class_labels(m, n)
    for p, label in enumerate(labels):
        for i, up, down in zip(range(1, n + 1), classes.up, classes.down):
            for kind, col in (("e", up), ("f", down)):
                checked += 1
                closed = None if col[p] < 0 else labels[col[p]]
                functorial = cc.class_operator_via_functors(kind, i, label)
                if closed != functorial:
                    bad.append(
                        {
                            "case": f"{kind} at i={i} on {label.key}",
                            "closed form": None if closed is None else closed.key,
                            "via functors": None if functorial is None else functorial.key,
                        }
                    )
    checked += 1
    mapping = {label.key: word_key(label.canonical_word()) for label in labels}
    defects = morphism_violations(classes, rows, mapping)
    if defects:
        bad.append({"case": f"m={m},n={n}", "witness defects": defects[:3]})
    checked += 1
    # the identity is that mapping in positions
    bad += _isomorphism_defects(f"m={m},n={n}", classes, rows, list(range(len(labels))))
    return checked, bad


def _tuple_crystal_factorizes(max_m, max_n, pin_m, pin_n):
    top_m, _, totals, ns = _sweep(max_m, max_n, pin_m, pin_n)
    for n in ns:
        rows = _left_products(partial(row_crystal, n=n), top_m)
        for total in totals:
            for parts in compositions(total):
                where = f"parts={parts}, n={n}"
                guard = _nodes_guard(cc.tuple_count(parts, n), total, n)
                yield where, guard, partial(_factorization_check, where, rows, parts, n)


def _factorization_check(where, rows, parts, n):
    product = rows(parts)
    tuples = cc.tensor_class_crystal(parts, n)
    # the identity: a factor's classes in label order are its row's words
    return 1, _isomorphism_defects(where, tuples, product, list(range(len(tuples))))


def _highest_component(max_m, max_n, pin_m, pin_n):
    _, _, totals, ns = _sweep(max_m, max_n, pin_m, pin_n)
    for n in ns:
        for total in totals:
            for shape in partitions(total, n + 1):
                where = f"shape={shape}, n={n}"
                # the component lies in the tuple crystal; its tableaux
                # are as many, counted by Weyl's formula
                guard = _nodes_guard(cc.tuple_count(shape, n), total, n)
                yield where, guard, partial(_component_check, where, shape, n, ssyt_count(shape, n))


def _component_check(where, shape, n, expected):
    comp = cc.highest_component(shape, n)
    bad = []
    if len(comp) != expected:
        bad.append(
            {
                "case": where,
                "detail": "component size vs tableau count",
                "expected": expected,
                "got": len(comp),
            }
        )
    return 2, bad + _isomorphism_defects(where, comp, ssyt_crystal(shape, n))


def _signature_equivalence(max_m, max_n, pin_m, pin_n):
    """The signature rule against the iterated binary rule on box powers and
    tuple crystals.  A box power's signature side is the filling builder over
    one-box rows, reading each word as itself in the power's position order."""
    top_m, _, totals, ns = _sweep(max_m, max_n, pin_m, pin_n)
    for n in ns:
        # a box is the row of length 1, so a power is a product of rows
        boxes = _left_products(partial(row_crystal, n=n), min(top_m, 4))
        for length in range(2, min(top_m, 4) + 1):
            where = f"length={length}, n={n}"
            guard = _nodes_guard((n + 1) ** length, length, n)
            yield where, guard, partial(_box_power_check, where, boxes, n, length)
        classes = _left_products(partial(cc.class_crystal, n=n), top_m)
        for total in totals:
            for parts in compositions(total):
                where = f"parts={parts}, n={n}"
                guard = _nodes_guard(cc.tuple_count(parts, n), total, n)
                signed = partial(cc.tensor_class_crystal, parts, n)
                yield where, guard, partial(_signature_check, where, classes, parts, "×", signed)


def _box_power_check(where, boxes, n, length):
    words = itertools.product(range(n + 1), repeat=length)
    signed = partial(_filling_crystal, n, [tuple((x,) for x in w) for w in words])
    return _signature_check(where, boxes, (1,) * length, "/", signed)


def _signature_check(where, products, parts, sep, signed):
    """(arrows compared, counterexamples) for the signature-rule crystal
    signed() against the binary product(parts), keys matched by sep -> ⊗."""
    product = products(parts)
    try:
        ours = signed()
    except ValueError as exc:
        # a rule that moves a letter out of 0..n; its arrows still count
        return 2 * product.n * len(product), [{"case": where, "detail": str(exc)}]
    return 2 * ours.n * len(ours), _arrow_defects(ours, sep, product, where)


def _arrow_defects(ours, sep, product, where):
    """The arrows of the signature-rule crystal ours that the binary product
    disagrees with.  Nodes are matched through the key rewrite sep -> ⊗; a
    key of ours with no partner in the product is a counterexample of its
    own.  When the rewrite sends every node to its own position, equal
    edge columns settle it; otherwise whole columns are compared through
    it, and only a column that differs is walked node by node."""
    keys = product.nodes
    renamed = tuple(k.replace(sep, "⊗") for k in ours.nodes)
    if renamed == keys and (ours.up, ours.down) == (product.up, product.down):
        return []
    index = {k: p for p, k in enumerate(keys)}
    there = [index.get(k, -1) for k in renamed]
    bad = [
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
    return bad


def _left_products(build, top):
    """The left-associated tensor product of build(p) over the parts of a
    tuple.  The returned function keeps the products of part sum below top,
    one-part ones among them, so compositions share each left prefix and
    each factor is built once; a product of sum top is never a prefix or a
    factor, so not kept."""
    table = {}

    def product(parts):
        if parts in table:
            return table[parts]
        one = len(parts) == 1
        out = build(parts[0]) if one else tensor(product(parts[:-1]), product(parts[-1:]))
        if sum(parts) < top:
            table[parts] = out
        return out

    return product


TARGETS = {
    "axioms": _axioms,
    "thm2.2": partial(_module_cases, _regular_decomposition, 3, 2),
    "prop2.1": partial(_module_cases, _orbit_product_laws, 3, 2, narrow=True, guard=_pairs_guard),
    "lemmas3": partial(_module_cases, _truncation_lemmas, 3, 2),
    # colors 1..n, or color 0 alone, as a slice of range(n + 1)
    "thm3.2": partial(_module_cases, partial(_functors, slice(1, None), False), 4, 2),
    "thm3.5": partial(_module_cases, partial(_functors, slice(1, None), True), 4, 2),
    "thm3.6": partial(_module_cases, partial(_functors, slice(0, 1), True), 4, 2),
    "adjunction": partial(_module_cases, _adjunction, 3, 2),
    "thm4.3": _class_crystal_is_row_crystal,
    "thm4.5": _tuple_crystal_factorizes,
    "component-blambda": _highest_component,
    "signature-equivalence": _signature_equivalence,
}


def verify_target(
    target: str,
    max_m: int | None = None,
    max_n: int | None = None,
    m: int | None = None,
    n: int | None = None,
) -> dict:
    """Run one verification target and return its report."""
    stream = TARGETS.get(target)
    if stream is None:
        known = ", ".join(sorted(TARGETS))
        raise ValueError(f"unknown verify target {target!r}; known: {known}")
    cases = partial(stream, max_m, max_n, m, n)
    for _, guard, _ in cases():
        guard()
    checked, bad = 0, []
    for case, _, check in cases():
        try:
            count, found = check()
        except EnumerationCapError:
            raise
        except ValueError as exc:
            count, found = 1, [{"case": case, "detail": str(exc)}]
        checked += count
        bad += found
    report = {"target": target, "checked": checked, "failed": len(bad)}
    if bad:
        report["counterexamples"] = bad[:MAX_COUNTEREXAMPLES]
    return report
