"""Command line surface for the planar rook toolkit.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on usage
errors (bad flags, malformed inputs, or size caps hit without --force).
All output is deterministic: rerunning a command byte-for-byte reproduces
its output.  The size caps of enumerate and decompose are overridden by
--force or by setting PLANAR_ROOK_FORCE=1; verify sweeps stay capped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algebra import Element, expand_orbit_coordinates, to_orbit_basis
from .class_crystals import class_crystal, tensor_class_crystal
from .crystals import to_dot, to_json_dict
from .diagrams import (
    Diagram,
    EnumerationCapError,
    count_diagrams,
    enumerate_diagrams,
)
from .modules import (
    ClassLabel,
    all_class_labels,
    class_dimension,
    decompose,
    induce_class,
    regular_module,
    restrict,
    restrict_class,
    simple,
)
from .tableaux import box_crystal, row_crystal, ssyt_crystal
from .verify import TARGETS, verify_target


class UsageError(Exception):
    """Raised by command handlers for problems that warrant exit code 2."""


def _env_force() -> bool:
    value = os.environ.get("PLANAR_ROOK_FORCE", "")
    return value.strip().lower() not in {"", "0", "false", "no"}


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _emit(text: str, dest: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None


def _parse_class(spec: str) -> ClassLabel:
    """Parse 'm,n:c0,c1,...,cn' into a class label."""
    head, sep, tail = spec.partition(":")
    if not sep:
        raise UsageError(f"malformed class {spec!r}; expected 'm,n:c0,...,cn'")
    try:
        m_str, n_str = head.split(",")
        m, n = int(m_str), int(n_str)
        counts = tuple(int(x) for x in tail.split(","))
    except ValueError:
        raise UsageError(
            f"malformed class {spec!r}; expected 'm,n:c0,...,cn'"
        ) from None
    try:
        label = ClassLabel(n, counts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if label.m != m:
        raise UsageError(f"class counts in {spec!r} sum to {label.m}, not {m}")
    return label


def _parse_int_tuple(spec: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise UsageError(
            f"malformed {what} {spec!r}; expected a comma list of integers"
        ) from None


# ---------------------------------------------------------------- commands


def _cmd_enumerate(args) -> int:
    force = args.force or _env_force()
    diagrams = enumerate_diagrams(args.m, args.n, force=force)
    expected = count_diagrams(args.m, args.n)
    if len(diagrams) != expected:
        print(
            f"count mismatch: enumerated {len(diagrams)}, "
            f"closed formula gives {expected}",
            file=sys.stderr,
        )
        return 1
    if args.count_only:
        sys.stdout.write(f"{len(diagrams)}\n")
    else:
        sys.stdout.write(_dump([d.to_json_dict() for d in diagrams]))
    return 0


# what malformed JSON numbers and fields raise while building an element,
# e.g. a coefficient "1/0" (ZeroDivisionError) or 1e400 (OverflowError)
_MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError)


def _element_from_obj(obj, path: str, x_basis: bool) -> Element:
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected a JSON object")
    if "edges" in obj:
        try:
            d = Diagram.from_json_dict(obj)
        except _MALFORMED as exc:
            raise UsageError(f"{path}: {exc}") from None
        if x_basis:
            return expand_orbit_coordinates(d.m, d.n, {d: Fraction(1)})
        return Element.from_diagram(d)
    try:
        elt = Element.from_json_dict(obj)
    except _MALFORMED as exc:
        raise UsageError(f"{path}: {exc}") from None
    if x_basis:
        return expand_orbit_coordinates(elt.m, elt.n, dict(elt.terms))
    return elt


def _cmd_multiply(args) -> int:
    a = _element_from_obj(_read_json(args.file1), args.file1, args.x_basis)
    b = _element_from_obj(_read_json(args.file2), args.file2, args.x_basis)
    try:
        product = a * b
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.x_basis:
        coords = to_orbit_basis(product)
        payload = Element(product.m, product.n, coords).to_json_dict(
            basis="orbit"
        )
    else:
        payload = product.to_json_dict(basis="diagram")
    sys.stdout.write(_dump(payload))
    return 0


def _cmd_simples(args) -> int:
    labels = all_class_labels(args.m, args.n)
    payload = [
        {
            "class": label.key,
            "counts": list(label.counts),
            "dimension": class_dimension(label),
        }
        for label in labels
    ]
    sys.stdout.write(_dump(payload))
    return 0


def _summands(m: int, n: int, dec: dict[ClassLabel, int]) -> list[dict]:
    return [
        {
            "class": label.key,
            "counts": list(label.counts),
            "multiplicity": dec[label],
            "dimension": class_dimension(label),
        }
        for label in all_class_labels(m, n)
        if label in dec
    ]


def _cmd_decompose(args) -> int:
    force = args.force or _env_force()
    modes = sum(
        1 for x in (args.regular, args.restrict is not None, args.induce is not None) if x
    )
    if modes != 1:
        raise UsageError("choose exactly one of --regular, --restrict, --induce")
    if args.regular:
        if args.m is None or args.n is None:
            raise UsageError("--regular needs --m and --n")
        dec = decompose(regular_module(args.m, args.n, force=force))
        total = sum(mult * class_dimension(lab) for lab, mult in dec.items())
        payload = {
            "module": f"regular(m={args.m},n={args.n})",
            "summands": _summands(args.m, args.n, dec),
            "total_dimension": total,
        }
        sys.stdout.write(_dump(payload))
        return 0
    if args.klass is None:
        raise UsageError("--restrict and --induce need --class")
    label = _parse_class(args.klass)
    if args.induce is not None:
        i = args.induce
        if not 0 <= i <= label.n:
            raise UsageError(f"color {i} out of range 0..{label.n}")
        induced = induce_class(i, label)
        payload = {
            "module": f"induce(i={i}) of {label.key}",
            "summands": _summands(induced.m, induced.n, {induced: 1}),
            "total_dimension": class_dimension(induced),
        }
        sys.stdout.write(_dump(payload))
        return 0
    i = args.restrict
    if not 0 <= i <= label.n:
        raise UsageError(f"color {i} out of range 0..{label.n}")
    if label.m == 0:
        raise UsageError("cannot restrict a size-0 class")
    dec = decompose(restrict(i, simple(label, force=force)))
    expected = restrict_class(i, label)
    if dec != ({} if expected is None else {expected: 1}):
        print(
            "restriction disagrees with the class arithmetic: "
            f"got {{{', '.join(k.key for k in dec)}}}, "
            f"expected {expected.key if expected else 'zero'}",
            file=sys.stderr,
        )
        return 1
    payload = {
        "module": f"restrict(i={i}) of {label.key}",
        "summands": _summands(label.m - 1, label.n, dec),
        "total_dimension": sum(
            mult * class_dimension(lab) for lab, mult in dec.items()
        ),
    }
    sys.stdout.write(_dump(payload))
    return 0


def _cmd_crystal(args) -> int:
    try:
        if args.kind == "box":
            if args.n is None:
                raise UsageError("crystal box needs --n")
            crystal = box_crystal(args.n)
        elif args.kind == "row":
            if args.m is None or args.n is None:
                raise UsageError("crystal row needs --m and --n")
            crystal = row_crystal(args.m, args.n)
        elif args.kind == "ssyt":
            if args.shape is None or args.n is None:
                raise UsageError("crystal ssyt needs --shape and --n")
            crystal = ssyt_crystal(_parse_int_tuple(args.shape, "shape"), args.n)
        elif args.kind == "cm":
            if args.m is None or args.n is None:
                raise UsageError("crystal cm needs --m and --n")
            crystal = class_crystal(args.m, args.n)
        else:
            if args.parts is None or args.n is None:
                raise UsageError("crystal clambda needs --parts and --n")
            crystal = tensor_class_crystal(
                _parse_int_tuple(args.parts, "composition"), args.n
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.dot is not None and args.json is not None:
        raise UsageError("choose one of --dot or --json")
    if args.dot is not None:
        _emit(to_dot(crystal), args.dot)
    else:
        _emit(_dump(to_json_dict(crystal)), args.json if args.json else "-")
    return 0


def _cmd_verify(args) -> int:
    report = verify_target(
        args.target, max_m=args.max_m, max_n=args.max_n, m=args.m, n=args.n
    )
    sys.stdout.write(_dump(report))
    return 0 if report["failed"] == 0 else 1


# ------------------------------------------------------------------ parser


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planar-rook",
        description="Colored planar rook diagrams, their algebra, and crystals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list diagrams of a given size")
    p.add_argument("--m", type=_nonneg, required=True, help="number of vertices per row")
    p.add_argument("--n", type=_positive, required=True, help="number of colors")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--force", action="store_true", help="override size caps")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("multiply", help="multiply two elements from JSON files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument(
        "--x-basis",
        action="store_true",
        help="read and write coordinates in the orbit basis",
    )
    p.set_defaults(fn=_cmd_multiply)

    p = sub.add_parser("simples", help="tabulate simple modules and dimensions")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.set_defaults(fn=_cmd_simples)

    p = sub.add_parser("decompose", help="decompose a module into simples")
    p.add_argument("--regular", action="store_true", help="regular module at --m --n")
    p.add_argument("--restrict", type=_nonneg, metavar="I", help="restrict a class in color I")
    p.add_argument("--induce", type=_nonneg, metavar="I", help="induce a class in color I")
    p.add_argument(
        "--class",
        dest="klass",
        metavar="SPEC",
        help="class label as 'm,n:c0,...,cn'",
    )
    p.add_argument("--m", type=_nonneg)
    p.add_argument("--n", type=_positive)
    p.add_argument("--force", action="store_true", help="override size caps")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("crystal", help="build a crystal and export it")
    p.add_argument("kind", choices=["box", "row", "ssyt", "cm", "clambda"])
    p.add_argument("--m", type=_nonneg)
    p.add_argument("--n", type=_positive)
    p.add_argument("--shape", metavar="P1,P2,...", help="partition for ssyt")
    p.add_argument("--parts", metavar="P1,P2,...", help="composition for clambda")
    p.add_argument("--dot", metavar="PATH", help="write DOT ('-' = stdout)")
    p.add_argument("--json", metavar="PATH", help="write JSON ('-' = stdout)")
    p.set_defaults(fn=_cmd_crystal)

    p = sub.add_parser("verify", help="check a structural fact on small instances")
    p.add_argument("target", choices=sorted(TARGETS))
    p.add_argument("--max-m", type=_nonneg, help="extend the size sweep")
    p.add_argument("--max-n", type=_positive, help="extend the color sweep")
    p.add_argument("--m", type=_positive, help="pin a single size")
    p.add_argument("--n", type=_positive, help="pin a single color count")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        # the library's own hint names force=True; name the CLI's overrides,
        # which only the subcommands with a --force flag honour
        reason = str(exc).partition(";")[0]
        if "force" in vars(args):
            hint = "pass --force or set PLANAR_ROOK_FORCE=1 to override"
        else:
            hint = f"{args.command} has no override"
        print(f"error: {reason}; {hint}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
