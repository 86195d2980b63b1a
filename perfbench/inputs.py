"""Seeded inputs for the planar-rook benchmark.

The seed picks the classes to restrict, the tableau shapes and compositions
to export as crystals, and the two elements to multiply.  Each pool holds
inputs of equal or near-equal cost, so a workload's time does not depend on
which seed it ran with.  The same seed always gives the same inputs.

    python3 perfbench/inputs.py --seed 7 --out .perfbench/inputs
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
from fractions import Fraction

import reference

# Restriction: one class of largest dimension at (5,2) (dimension 30) and
# one at (7,1) (dimension 35), each restricted in every color it has.  The
# cost of one restriction depends on the class and color by up to 2.8x, but
# the cost of all colors of a class differs by under 10% between classes.
RESTRICT_POOLS = ((5, 2), (7, 1))
# Tableau shapes of size 8 with letters 0..3 whose crystals have 150 to 400
# nodes; smaller shapes would make a seed's exports cheaper than another's.
SSYT_N = 3
SSYT_NODES = (150, 400)
SSYT_JOBS = 2
# Compositions of 8 with three parts that are orderings of (1, 3, 4): every
# one gives a 2800-node tuple crystal.
CLAMBDA_N = 3
CLAMBDA_PARTS = (1, 3, 4)
CLAMBDA_JOBS = 2
# Two elements of the (4,2) algebra with 200 distinct diagrams each; at 300
# the orbit-basis product alone was half of the pass, and its sample noise
# decided the pass time.
ELEMENT_M, ELEMENT_N, ELEMENT_TERMS = 4, 2, 200


def _rng(seed: int, what: str) -> random.Random:
    return random.Random(f"{seed}:{what}")


def restrictions(seed: int) -> list[dict]:
    rng = _rng(seed, "restrict")
    out = []
    for m, n in RESTRICT_POOLS:
        classes = reference.weak_compositions(m, n + 1)
        top = max(reference.multinomial(c) for c in classes)
        counts = rng.choice(sorted(c for c in classes if reference.multinomial(c) == top))
        for color, k in enumerate(counts):
            if k:
                out.append({"m": m, "n": n, "counts": list(counts), "color": color})
    return out


def ssyt_shapes(seed: int) -> list[dict]:
    low, high = SSYT_NODES
    pool = [
        shape
        for shape in reference.partitions(8, SSYT_N + 1)
        if low <= reference.ssyt_count(shape, SSYT_N + 1) <= high
    ]
    shapes = _rng(seed, "ssyt").sample(pool, SSYT_JOBS)
    return [
        {"shape": list(s), "n": SSYT_N, "nodes": reference.ssyt_count(s, SSYT_N + 1)}
        for s in shapes
    ]


def clambda_parts(seed: int) -> list[dict]:
    pool = sorted(set(itertools.permutations(CLAMBDA_PARTS)))
    chosen = _rng(seed, "clambda").sample(pool, CLAMBDA_JOBS)
    return [
        {
            "parts": list(p),
            "n": CLAMBDA_N,
            "nodes": reference.tuple_class_count(p, CLAMBDA_N),
        }
        for p in chosen
    ]


def elements(seed: int) -> list[dict]:
    """Two elements as {diagram edges: coefficient}, distinct diagrams, with
    nonzero coefficients p/q for |p| <= 9 and 1 <= q <= 6."""
    rng = _rng(seed, "elements")
    pool = reference.all_diagrams(ELEMENT_M, ELEMENT_N)
    numerators = [p for p in range(-9, 10) if p]
    return [
        {
            d: Fraction(rng.choice(numerators), rng.randint(1, 6))
            for d in rng.sample(pool, ELEMENT_TERMS)
        }
        for _ in range(2)
    ]


def generate(seed: int, out_dir: str) -> dict:
    """Write the element files under out_dir and return the manifest of every
    drawn input with its size."""
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for name, terms in zip(("a.json", "b.json"), elements(seed)):
        path = os.path.join(out_dir, name)
        data = reference.cli_json_bytes(
            reference.element_json(ELEMENT_M, ELEMENT_N, "diagram", terms)
        )
        with open(path, "wb") as fh:
            fh.write(data)
        files.append({"path": path, "terms": len(terms), "bytes": len(data)})
    return {
        "seed": seed,
        "restrict": restrictions(seed),
        "ssyt": ssyt_shapes(seed),
        "clambda": clambda_parts(seed),
        "elements": {"m": ELEMENT_M, "n": ELEMENT_N, "files": files},
    }


def read_element(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return {
        tuple(tuple(e) for e in t["diagram"]["edges"]): Fraction(t["coeff"])
        for t in obj["terms"]
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the element files")
    args = parser.parse_args()
    print(json.dumps(generate(args.seed, args.out), indent=2))
