"""Run one planar-rook command with spans around the package's functions.

    python3 perfbench/tracer.py SPANS_FILE [planar-rook arguments...]

The wrappers are installed from outside the package: every public function
of the nine modules, in every module namespace that holds it (a function
bound elsewhere by `from .x import f` is wrapped there too), plus the
methods named below.  Spans (name, start, end, parent) stay in memory and
are written to SPANS_FILE when the command returns; standard output and the
exit code are the command's own.  Work counters are taken from arguments
and results at the same boundaries.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import weakref  # noqa: E402
from array import array  # noqa: E402

LAYERS = (
    "cli", "verify", "modules", "linalg", "algebra",
    "diagrams", "crystals", "class_crystals", "tableaux",
)
# algebra.mul only delegates to Element.__mul__, which is traced as algebra.mul.
SKIP = {"algebra.mul"}


class Recorder:
    """Spans in parallel arrays (24 bytes each) plus named work counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def spanned(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(args, result) adds work counts."""
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def after_init(self, fn, count):
        """An __init__ or __post_init__ that calls count(obj) once it has
        succeeded, without a span."""

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            count(obj)

        return wrapper

    def write(self, path: str, **meta) -> None:
        header = {"names": self.names, "count": len(self.start),
                  "counters": self.counters, **meta}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: str):
    """(header, names, parents, starts, ends) from a file written above."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header, *arrays)


def _hooks(rec: Recorder, mods: dict) -> dict:
    """Work counters taken at a traced boundary, by span name."""
    serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    serials = itertools.count()
    pairs: set = set()

    def rref(args, result):
        rows = args[0]
        rec.add("linalg.rref.rows", len(rows))
        rec.add("linalg.rref.entries", len(rows) * (len(rows[0]) if rows else 0))
        rec.add("linalg.rref.pivots", len(result[1]))

    def matrix(args, result):
        module, diagram = args
        key = serial.get(module)
        if key is None:
            key = serial[module] = next(serials)
        if (key, diagram) not in pairs:
            pairs.add((key, diagram))
            rec.add("modules.matrix.distinct", 1)

    def matrix_of(args, result):
        rec.add("modules.matrix_of.entries", args[0].dimension ** 2)

    def orbit_vector(args, result):
        rec.add("algebra.orbit_vector.terms", len(result.terms))

    def mul(args, result):
        a, b = args
        if isinstance(b, mods["algebra"].Element):
            rec.add("algebra.mul.products", len(a.terms) * len(b.terms))
            rec.add("algebra.mul.terms", len(result.terms))

    def verify_target(args, result):
        rec.add("verify.checked", result["checked"])

    return {
        "linalg.rref": rref,
        "modules.matrix": matrix,
        "modules.matrix_of": matrix_of,
        "algebra.orbit_vector": orbit_vector,
        "algebra.mul": mul,
        "verify.verify_target": verify_target,
    }


def install(rec: Recorder) -> dict:
    package = importlib.import_module("planar_rook")
    mods = {layer: importlib.import_module(f"planar_rook.{layer}") for layer in LAYERS}
    namespaces = [package, *mods.values()]
    hooks = _hooks(rec, mods)

    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or name in SKIP
                or not callable(fn)
                or inspect.isclass(fn)
                or inspect.isgeneratorfunction(fn)
                or getattr(fn, "__module__", None) != mod.__name__
            ):
                continue
            wrapper = rec.spanned(name, fn, hooks.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)

    explicit = mods["modules"].ExplicitModule
    element = mods["algebra"].Element
    for cls, attr, name in (
        (explicit, "matrix", "modules.matrix"),
        (explicit, "matrix_of", "modules.matrix_of"),
        (element, "__mul__", "algebra.mul"),
        (element, "tensor", "algebra.tensor"),
    ):
        setattr(cls, attr, rec.spanned(name, getattr(cls, attr), hooks.get(name)))

    def built_crystal(c):
        rec.add("crystals.nodes", len(c.nodes))
        rec.add("crystals.edges", len(c.f_edges))

    diagram = mods["diagrams"].Diagram
    diagram.__post_init__ = rec.after_init(
        diagram.__post_init__, lambda d: rec.add("diagrams.construct.calls", 1)
    )
    crystal = mods["crystals"].Crystal
    crystal.__init__ = rec.after_init(crystal.__init__, built_crystal)
    return mods


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    import_start = time.perf_counter()
    importlib.import_module("planar_rook")
    import_s = time.perf_counter() - import_start
    mods = install(rec)
    code = 1
    try:
        code = mods["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        rec.write(spans_path, import_s=import_s, exit_code=code,
                  process_start=STARTED)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
