"""Command line surface for the planar rook toolkit.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on usage
errors (bad flags, malformed inputs, or the work cap hit without --force).
All output is deterministic: rerunning a command byte-for-byte reproduces
its output.  Every builder refuses to list objects whose count times
m + n + 1 passes the one work cap (diagrams.WORK_CAP); enumerate, decompose
and crystal lift it with --force or PLANAR_ROOK_FORCE=1, while simples and
verify stay capped.  Past sys.maxsize nothing is listed, forced or not.
"""

from __future__ import annotations

import itertools
import os
import sys
from types import SimpleNamespace

# each command imports the layers it runs, so it loads no other
from .diagrams import EnumerationCapError, brief, capped_binomial


class UsageError(Exception):
    """Raised by command handlers for problems that warrant exit code 2."""


def _dump(obj) -> str:
    """obj as json.dumps(obj, indent=2, ensure_ascii=False) writes it, plus a
    newline, without importing json, whose indent runs a pure-Python encoder."""
    out: list[str] = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


_LITERALS = {None: "null", True: "true", False: "false"}

# the escapes of json's encode_basestring, which keeps every other character
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def _quote(text: str) -> str:
    """text as a JSON string literal, as json writes it with ensure_ascii
    off; a printable text with no quote or backslash needs no escape."""
    if not (text.isprintable() and '"' not in text and "\\" not in text):
        text = text.translate(_ESCAPES)
    return '"' + text + '"'


def _write(obj, nl: str, put) -> None:
    """Put the pieces of obj, nested at the newline-and-indent nl."""
    if isinstance(obj, str):
        put(_quote(obj))
    elif obj is None or obj is True or obj is False:
        put(_LITERALS[obj])
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, dict):
        inner, sep = nl + "  ", "{"
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(f"{sep}{inner}{_quote(key)}: ")
            _write(value, inner, put)
            sep = ","
        put(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = nl + "  ", "["
        for value in obj:
            put(sep + inner)
            _write(value, inner, put)
            sep = ","
        put(nl + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(text: str, dest: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
        return
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {dest}: {exc}") from None


def _read_json(path: str):
    import json  # only multiply reads JSON, so other commands skip the import

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:
        # an integer with more digits than sys.get_int_max_str_digits()
        raise UsageError(f"{path}: {exc}") from None


def _parse_class(spec: str) -> ClassLabel:
    """Parse 'm,n:c0,c1,...,cn' into a class label."""
    from .classes import ClassLabel

    head, sep, tail = spec.partition(":")
    if not sep:
        raise UsageError(f"malformed class {brief(spec)}; expected 'm,n:c0,...,cn'")
    try:
        m_str, n_str = head.split(",")
        m, n = int(m_str), int(n_str)
        counts = tuple(int(x) for x in tail.split(","))
    except ValueError:
        raise UsageError(
            f"malformed class {brief(spec)}; expected 'm,n:c0,...,cn'"
        ) from None
    try:
        label = ClassLabel(n, counts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if label.m != m:
        raise UsageError(
            f"class counts in {brief(spec)} sum to {brief(label.m)}, not {brief(m)}"
        )
    return label


def _parse_int_tuple(spec: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise UsageError(
            f"malformed {what} {brief(spec)}; expected a comma list of integers"
        ) from None


def _ensure_printable(label: ClassLabel, what: str) -> None:
    """Refuse a class whose size or dimension has more digits than Python
    prints, deciding from capped binomials before any exact one is built."""
    digits = sys.get_int_max_str_digits()  # 0 for no limit
    dimension, cap = 1, 10**digits
    for total, k in zip(itertools.accumulate(label.counts), label.counts):
        dimension *= capped_binomial(total, k, 4 * digits)  # exact below cap < 2**(4 * digits)
        if digits and max(label.m, dimension) >= cap:
            raise UsageError(f"{brief(what)} has a size or dimension of more than {digits} digits")


# ---------------------------------------------------------------- commands


def _cmd_enumerate(args) -> int:
    from .diagrams import count_diagrams, count_enumerated, enumerate_diagrams

    if args.count_only:
        count = count_enumerated(args.m, args.n, force=args.force)
    else:
        diagrams = enumerate_diagrams(args.m, args.n, force=args.force)
        count = len(diagrams)
    expected = count_diagrams(args.m, args.n)
    if count != expected:
        print(f"count mismatch: enumerated {count}, closed formula gives {expected}", file=sys.stderr)
        return 1
    if args.count_only:
        sys.stdout.write(f"{count}\n")
    else:
        sys.stdout.write(_dump([d.to_json_dict() for d in diagrams]))
    return 0


# what malformed JSON numbers and fields raise while building an element,
# e.g. a coefficient "1/0" (ZeroDivisionError) or 1e400 (OverflowError)
_MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError)


def _element_from_obj(obj, path: str) -> Element:
    from .algebra import Element
    from .diagrams import Diagram

    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected a JSON object")
    try:
        if "edges" in obj:
            return Element.from_diagram(Diagram.from_json_dict(obj))
        return Element.from_json_dict(obj)
    except _MALFORMED as exc:
        raise UsageError(f"{path}: {exc}") from None


def _cmd_multiply(args) -> int:
    """Multiply two elements; with --x-basis both inputs and the product are
    orbit coordinates, multiplied by the matched-or-zero rule."""
    from .algebra import Element, orbit_basis_product

    a = _element_from_obj(_read_json(args.file1), args.file1)
    b = _element_from_obj(_read_json(args.file2), args.file2)
    try:
        if args.x_basis:
            a._check_compatible(b)
            coords = orbit_basis_product(a.terms, b.terms)
            payload = Element._trusted(a.m, a.n, coords).to_json_dict(basis="orbit")
        else:
            payload = (a * b).to_json_dict(basis="diagram")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sys.stdout.write(_dump(payload))
    return 0


def _cmd_simples(args) -> int:
    from .classes import all_class_labels, class_dimension

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


def _cmd_decompose(args) -> int:
    from .classes import class_dimension, induce_class, regular_decomposition, restrict_class

    modes = sum(
        1 for x in (args.regular, args.restrict is not None, args.induce is not None) if x
    )
    if modes != 1:
        raise UsageError("choose exactly one of --regular, --restrict, --induce")
    if args.regular:
        if args.m is None or args.n is None:
            raise UsageError("--regular needs --m and --n")
        module = f"regular(m={args.m},n={args.n})"
        dec = regular_decomposition(args.m, args.n, force=args.force)
    else:
        if args.klass is None:
            raise UsageError("--restrict and --induce need --class")
        label = _parse_class(args.klass)
        i = args.restrict if args.induce is None else args.induce
        if not 0 <= i <= label.n:
            raise UsageError(f"color {i} out of range 0..{label.n}")
        if args.induce is not None:
            module = f"induce(i={i}) of {label.key}"
            induced = induce_class(i, label)
            _ensure_printable(induced, module)
            dec = {induced: 1}
        else:
            if label.m == 0:
                raise UsageError("cannot restrict a size-0 class")
            from .modules import decompose, simple

            module = f"restrict(i={i}) of {label.key}"
            dec = decompose(simple(label, args.force).restrict(i), args.force)
            expected = restrict_class(i, label)
            if dec != ({} if expected is None else {expected: 1}):
                print(
                    "restriction disagrees with the class arithmetic: "
                    f"got {{{', '.join(k.key for k in dec)}}}, "
                    f"expected {expected.key if expected else 'zero'}",
                    file=sys.stderr,
                )
                return 1
    summands = [
        {
            "class": lab.key,
            "counts": list(lab.counts),
            "multiplicity": dec[lab],
            "dimension": class_dimension(lab),
        }
        for lab in dec
    ]
    total = sum(s["multiplicity"] * s["dimension"] for s in summands)
    payload = {"module": module, "summands": summands, "total_dimension": total}
    sys.stdout.write(_dump(payload))
    return 0


def _cmd_crystal(args) -> int:
    if args.dot is not None and args.json is not None:
        raise UsageError("choose one of --dot or --json")
    from .class_crystals import class_crystal, tensor_class_crystal
    from .crystals import to_dot, to_json_dict
    from .tableaux import box_crystal, row_crystal, ssyt_crystal

    try:
        if args.kind == "box":
            if args.n is None:
                raise UsageError("crystal box needs --n")
            crystal = box_crystal(args.n, args.force)
        elif args.kind == "row":
            if args.m is None or args.n is None:
                raise UsageError("crystal row needs --m and --n")
            crystal = row_crystal(args.m, args.n, args.force)
        elif args.kind == "ssyt":
            if args.shape is None or args.n is None:
                raise UsageError("crystal ssyt needs --shape and --n")
            shape = _parse_int_tuple(args.shape, "shape")
            crystal = ssyt_crystal(shape, args.n, args.force)
        elif args.kind == "cm":
            if args.m is None or args.n is None:
                raise UsageError("crystal cm needs --m and --n")
            crystal = class_crystal(args.m, args.n, args.force)
        else:
            if args.parts is None or args.n is None:
                raise UsageError("crystal clambda needs --parts and --n")
            parts = _parse_int_tuple(args.parts, "composition")
            crystal = tensor_class_crystal(parts, args.n, args.force)
    except EnumerationCapError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.dot is not None:
        _emit(to_dot(crystal), args.dot)
    else:
        _emit(_dump(to_json_dict(crystal)), args.json if args.json else "-")
    return 0


def _cmd_verify(args) -> int:
    from .verify import verify_target

    report = verify_target(
        args.target, max_m=args.max_m, max_n=args.max_n, m=args.m, n=args.n
    )
    sys.stdout.write(_dump(report))
    return 0 if report["failed"] == 0 else 1


# ------------------------------------------------------------------ parser


def _at_least(least: int):
    """An argparse type for integers >= least; a refusal quotes the text briefly."""

    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        import argparse  # only a refusal needs argparse, which words it

        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {brief(text)}")

    return parse


_nonneg, _positive = _at_least(0), _at_least(1)


def _targets() -> list[str]:
    from .verify import TARGETS

    return sorted(TARGETS)


_FORCE = ("--force", dict(action="store_true", help="override size caps"))

# each subcommand's help line, handler and arguments, as add_argument takes
# them; verify's target choices are read from verify when they are needed
_SUBCOMMANDS = {
    "enumerate": ("list diagrams of a given size", _cmd_enumerate, [
        ("--m", dict(type=_nonneg, required=True, help="number of vertices per row")),
        ("--n", dict(type=_positive, required=True, help="number of colors")),
        ("--count-only", dict(action="store_true")),
        _FORCE,
    ]),
    "multiply": ("multiply two elements from JSON files", _cmd_multiply, [
        ("file1", {}),
        ("file2", {}),
        ("--x-basis", dict(action="store_true", help="read and write coordinates in the orbit basis")),
    ]),
    "simples": ("tabulate simple modules and dimensions", _cmd_simples, [
        ("--m", dict(type=_nonneg, required=True)),
        ("--n", dict(type=_positive, required=True)),
    ]),
    "decompose": ("decompose a module into simples", _cmd_decompose, [
        ("--regular", dict(action="store_true", help="regular module at --m --n")),
        ("--restrict", dict(type=_nonneg, metavar="I", help="restrict a class in color I")),
        ("--induce", dict(type=_nonneg, metavar="I", help="induce a class in color I")),
        ("--class", dict(dest="klass", metavar="SPEC", help="class label as 'm,n:c0,...,cn'")),
        ("--m", dict(type=_nonneg)),
        ("--n", dict(type=_positive)),
        _FORCE,
    ]),
    "crystal": ("build a crystal and export it", _cmd_crystal, [
        ("kind", dict(choices=["box", "row", "ssyt", "cm", "clambda"])),
        ("--m", dict(type=_nonneg)),
        ("--n", dict(type=_positive)),
        ("--shape", dict(metavar="P1,P2,...", help="partition for ssyt")),
        ("--parts", dict(metavar="P1,P2,...", help="composition for clambda")),
        ("--dot", dict(metavar="PATH", help="write DOT ('-' = stdout)")),
        ("--json", dict(metavar="PATH", help="write JSON ('-' = stdout)")),
        _FORCE,
    ]),
    "verify": ("check a structural fact on small instances", _cmd_verify, [
        ("target", dict(choices=_targets)),
        ("--max-m", dict(type=_nonneg, help="extend the size sweep")),
        ("--max-n", dict(type=_positive, help="extend the color sweep")),
        ("--m", dict(type=_positive, help="pin a single size")),
        ("--n", dict(type=_positive, help="pin a single color count")),
    ]),
}


def _arguments(command: str) -> dict[str, dict]:
    """command's arguments, each name with its add_argument keywords."""
    return {
        name: {**kw, "choices": kw["choices"]()} if callable(kw.get("choices")) else kw
        for name, kw in _SUBCOMMANDS[command][2]
    }


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    for name, kw in _arguments(command).items():
        parser.add_argument(name, **kw)
    parser.set_defaults(fn=_SUBCOMMANDS[command][1])


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="planar-rook",
        description="Colored planar rook diagrams, their algebra, and crystals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _SUBCOMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def _flag(word: str) -> bool:
    """Whether argparse may read word as an option: a lone '-' is a value."""
    return word.startswith("-") and word != "-"


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """What _parse(argv) returns, read off the declarations without argparse,
    when argv is a command with its positionals and required options, each
    option named in full once with a value that is no flag and that its type
    and choices accept; None for all else, which _parse reads or refuses."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    declared, given, values = _arguments(argv[0]), [], {}
    words = iter(argv[1:])
    for word in words:
        if not _flag(word):
            given.append(word)
        elif word not in declared or word in values:
            return None
        elif declared[word].get("action"):  # store_true, the only action
            values[word] = True
        elif _flag(value := next(words, "--")):
            return None
        else:
            values[word] = value
    positionals = [name for name in declared if not _flag(name)]
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    args = SimpleNamespace(command=argv[0], fn=_SUBCOMMANDS[argv[0]][1])
    for name, kw in declared.items():
        if kw.get("required") and name not in values:
            return None
        value = values.get(name, False if kw.get("action") else None)
        if isinstance(value, str):
            try:
                value = kw.get("type", str)(value)
            except Exception:  # a refused value, which argparse words
                return None
            if value not in kw.get("choices", [value]):
                return None
        setattr(args, kw.get("dest", name.lstrip("-").replace("-", "_")), value)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), building only one subcommand's
    parser when argv starts with its name: the whole parser would hand that
    parser the rest of argv unchanged, and its help and errors are its own.
    Words it leaves over, top-level help and a bad or missing command go to
    the whole parser, which words the error."""
    import argparse

    if argv and argv[0] in _SUBCOMMANDS:
        parser = argparse.ArgumentParser(prog=f"planar-rook {argv[0]}")
        _add_arguments(parser, argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _scan(argv) or _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the subcommands with a --force flag also take PLANAR_ROOK_FORCE
    if "force" in vars(args):
        env = os.environ.get("PLANAR_ROOK_FORCE", "").strip().lower()
        args.force = args.force or env not in {"", "0", "false", "no"}
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        # the library's own hint names force=True; name the CLI's overrides,
        # which only the subcommands with a --force flag honour.  A bound
        # that force does not lift (sys.maxsize) comes with no hint.
        reason, overridable, _ = str(exc).partition(";")
        hint = ""
        if overridable and "force" in vars(args):
            hint = "; pass --force or set PLANAR_ROOK_FORCE=1 to override"
        elif overridable:
            hint = f"; {args.command} has no override"
        print(f"error: {reason}{hint}", file=sys.stderr)
        return 2


def _hooked() -> bool:
    """Whether a tracer or profiler (pdb, coverage, cProfile) is installed."""
    mon = getattr(sys, "monitoring", None)  # where profilers hook in from Python 3.12
    traced = sys.gettrace() is not None or sys.getprofile() is not None
    return traced or (mon is not None and any(map(mon.get_tool, range(6))))


def entry_point() -> None:
    """Run main, then end the process with os._exit once the output is
    flushed: tearing the interpreter down only frees a heap the process drops
    anyway.  Under a tracer or profiler, which write at exit, or when the
    flush fails, the process exits normally."""
    code = main(sys.argv[1:])
    if not _hooked():
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (AttributeError, OSError, ValueError):
            pass
        else:
            os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
