"""The benchmark's workloads: fixed lists of planar-rook commands, each with a
check of its standard output against an answer from `reference`.

Every verify job pins its range, so a change to a target's default sweep
cannot silently change a workload, and no job needs --force.  The verify
checks also pin the number of elementary checks each job makes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import inputs
import reference

Check = Callable[[bytes], Optional[str]]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Check

    @property
    def name(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------- checks


def _class(counts) -> dict:
    return {"class": f"{sum(counts)}|{','.join(map(str, counts))}", "counts": list(counts)}


def verify_check(target: str, checked: int) -> Check:
    def check(out: bytes):
        report = json.loads(out)
        got = {k: report.get(k) for k in ("target", "checked", "failed")}
        want = {"target": target, "checked": checked, "failed": 0}
        return None if got == want else f"report {got}, expected {want}"

    return check


def count_check(m: int, n: int) -> Check:
    want = f"{reference.diagram_count(m, n)}\n".encode()
    return lambda out: None if out == want else f"count {out!r}, expected {want!r}"


def regular_check(m: int, n: int) -> Check:
    """Every class appears with multiplicity equal to its dimension."""
    classes = sorted(reference.weak_compositions(m, n + 1), reverse=True)
    want = {
        "module": f"regular(m={m},n={n})",
        "summands": [
            {**_class(c), "multiplicity": reference.multinomial(c),
             "dimension": reference.multinomial(c)}
            for c in classes
        ],
        "total_dimension": reference.diagram_count(m, n),
    }
    return lambda out: None if json.loads(out) == want else "wrong regular decomposition"


def restrict_check(counts, color: int) -> Check:
    """Restriction drops one vertex of the color and leaves a simple."""
    smaller = list(counts)
    smaller[color] -= 1
    dim = reference.multinomial(smaller)
    want = {
        "module": f"restrict(i={color}) of {_class(counts)['class']}",
        "summands": [{**_class(smaller), "multiplicity": 1, "dimension": dim}],
        "total_dimension": dim,
    }
    return lambda out: None if json.loads(out) == want else "wrong restriction"


def crystal_json_check(nodes: int) -> Check:
    def check(out: bytes):
        crystal = json.loads(out)
        keys = {node["key"] for node in crystal["nodes"]}
        if len(keys) != nodes or len(crystal["nodes"]) != nodes:
            return f"{len(crystal['nodes'])} nodes, expected {nodes}"
        if any(e["from"] not in keys or e["to"] not in keys for e in crystal["edges"]):
            return "edge to an unknown node"
        return None

    return check


def crystal_dot_check(nodes: int) -> Check:
    def check(out: bytes):
        lines = out.decode("utf-8").splitlines()
        if lines[0] != "digraph crystal {" or lines[-1] != "}":
            return "not a crystal DOT graph"
        names = set()
        edges = []
        for line in lines[3:-1]:
            quoted = line.split('"')
            if " -> " in line:
                edges.append((quoted[1], quoted[3]))
            else:
                names.add(quoted[1])
        if len(names) != nodes:
            return f"{len(names)} nodes, expected {nodes}"
        if any(a not in names or b not in names for a, b in edges):
            return "edge to an unknown node"
        return None

    return check


def bytes_check(want: bytes) -> Check:
    return lambda out: None if out == want else "output differs from the reference product"


# ------------------------------------------------------------- workloads


def _verify(target: str, range_args: str, checked: int) -> Job:
    return Job(("verify", target, *range_args.split()), verify_check(target, checked))


def regular_decompose(manifest: dict) -> list[Job]:
    """A few large modules with dense rank; no seeded input, because the
    regular module is fixed by (m, n)."""
    return [
        Job(("decompose", "--regular", "--m", str(m), "--n", str(n)), regular_check(m, n))
        for m, n in ((5, 1), (3, 2), (4, 1), (2, 3))
    ]


def restriction_sweep(manifest: dict) -> list[Job]:
    """Many small modules: the same module code as regular-decompose, heavy
    on column_space_basis, mat_vec and coordinates_in_basis.  The seeded
    jobs restrict one class at (5,2) and one at (7,1) in every color."""
    jobs = [
        _verify("thm3.2", "--m 4 --n 2", 30),
        _verify("thm3.6", "--m 5 --n 2", 336),
        _verify("adjunction", "--m 4 --n 2", 450),
    ]
    for r in manifest["restrict"]:
        spec = f"{r['m']},{r['n']}:{','.join(map(str, r['counts']))}"
        jobs.append(
            Job(
                ("decompose", "--restrict", str(r["color"]), "--class", spec),
                restrict_check(r["counts"], r["color"]),
            )
        )
    return jobs


def orbit_algebra(manifest: dict) -> list[Job]:
    """Diagram construction, products and orbit expansion, with no linear
    algebra at all."""
    a, b = (f["path"] for f in manifest["elements"]["files"])
    m, n = manifest["elements"]["m"], manifest["elements"]["n"]
    x, y = inputs.read_element(a), inputs.read_element(b)
    diagram = reference.element_json(m, n, "diagram", reference.diagram_product(x, y))
    orbit = reference.element_json(m, n, "orbit", reference.orbit_product(x, y, m))
    return [
        Job(("enumerate", "--m", "6", "--n", "2", "--count-only"), count_check(6, 2)),
        Job(("enumerate", "--m", "5", "--n", "3", "--count-only"), count_check(5, 3)),
        _verify("prop2.1", "--m 3 --n 1", 400),
        _verify("lemmas3", "--m 3 --n 2", 603),
        Job(("multiply", a, b), bytes_check(reference.cli_json_bytes(diagram))),
        Job(("multiply", a, b, "--x-basis"), bytes_check(reference.cli_json_bytes(orbit))),
    ]


def crystal_sweep(manifest: dict) -> list[Job]:
    """Crystal construction, isomorphism and export, with no module, linear
    algebra or diagram work."""
    jobs = [
        _verify("axioms", "--max-m 5 --max-n 3", 224),
        _verify("thm4.5", "--max-m 5 --max-n 3", 93),
        _verify("signature-equivalence", "--max-m 5 --max-n 3", 58204),
        _verify("component-blambda", "--max-m 6 --max-n 3", 126),
        _verify("thm4.3", "--max-m 8 --max-n 4", 14088),
    ]
    for s in manifest["ssyt"]:
        shape = ",".join(map(str, s["shape"]))
        jobs.append(
            Job(
                ("crystal", "ssyt", "--shape", shape, "--n", str(s["n"]), "--json", "-"),
                crystal_json_check(s["nodes"]),
            )
        )
    for c in manifest["clambda"]:
        parts = ",".join(map(str, c["parts"]))
        jobs.append(
            Job(
                ("crystal", "clambda", "--parts", parts, "--n", str(c["n"]), "--dot", "-"),
                crystal_dot_check(c["nodes"]),
            )
        )
    return jobs


WORKLOADS = {
    "regular-decompose": regular_decompose,
    "restriction-sweep": restriction_sweep,
    "orbit-algebra": orbit_algebra,
    "crystal-sweep": crystal_sweep,
}

# The part of the manifest each workload's jobs read, recorded with results.
SEEDED = {
    "regular-decompose": (),
    "restriction-sweep": ("restrict",),
    "orbit-algebra": ("elements",),
    "crystal-sweep": ("ssyt", "clambda"),
}
