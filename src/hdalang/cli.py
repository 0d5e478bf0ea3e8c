"""Command line front end.

Every command prints a record: ``key=value`` lines in text mode, one JSON
object with the same keys in json mode.  The first key is always
``status`` ("true", "false", or "error"); answers may add ``witness``,
``detail``, ``count``, ``i``, ``j``, ``members``, or ``up``.  Exit code 0
means a true answer or successful write, 1 a false answer, 2 bad input
(status "error"), 3 a failure of the program itself (status "internal",
the exception as ``detail``).  An answer holding a label that bracket
notation cannot spell is bad input too (problem ``UnspelledLabel``).
Counts (``-k``, ``-m``, ``-r``) must be non-negative integers; argparse
rejects any other value with exit code 2.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import decide
from .hda import (HDA, DecompositionTooShort, InvalidHDA, NotAccepted,
                  count_sparse_accepting_paths, dump_hda,
                  is_deterministic_hda, load_hda, pump, skeleton)
from .ipomset import (IdentityHasNoDenseDecomposition, InterfaceMismatch,
                      Invalid, Ipomset, ParseError, Problem, WidthExceeded,
                      dense_decomposition)
from .oneletter import NotUPRepresentable, analyze, build, parse_up, print_up
from .stauto import export_st, st_of_hda
from .text import _LABEL_CHARS, parse_ipomset, print_ipomset


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
        return
    for key, value in record.items():
        print(f"{key}={value}")


def _status(flag: bool) -> str:
    return "true" if flag else "false"


def _spelled(labels) -> None:
    """Refuse an answer with labels that bracket notation cannot spell,
    as it could not be read back."""
    bad = sorted(l for l in set(labels)
                 if not l or not _LABEL_CHARS.issuperset(l))
    if bad:
        raise Invalid(Problem("UnspelledLabel", (l,), f"label {l!r} cannot "
                              "be written in bracket notation") for l in bad)


def _printed(p: Ipomset) -> str:
    _spelled(p.labels)
    return print_ipomset(p)


def _cmd_validate(args) -> dict:
    try:
        hda = load_hda(args.automaton)
    except InvalidHDA as exc:
        return {"status": "false", "detail": str(exc)}
    return {"status": "true", "detail": f"{len(hda.cells)} cells"}


def _cmd_member(args) -> dict:
    hda = load_hda(args.automaton)
    p = parse_ipomset(args.ipomset)
    return {"status": _status(decide.member(hda, p))}


def _answer(ok: bool, witness: Ipomset | None) -> dict:
    """The record of a decision that may come with a witness."""
    record = {"status": _status(ok)}
    if witness is not None:
        record["witness"] = _printed(witness)
    return record


def _bounded(args) -> tuple[HDA, int]:
    """The automaton and the width bound, by default its dimension."""
    hda = load_hda(args.automaton)
    return hda, hda.dim() if args.width is None else args.width


def _cmd_include(args) -> dict:
    return _answer(*decide.include(load_hda(args.left), load_hda(args.right)))


def _cmd_equiv(args) -> dict:
    return _answer(*decide.equivalent(load_hda(args.left),
                                      load_hda(args.right)))


def _cmd_empty(args) -> dict:
    return _answer(*decide.empty(load_hda(args.automaton)))


def _cmd_intersect(args) -> dict:
    z = decide.intersect(load_hda(args.left), load_hda(args.right))
    dump_hda(z, args.output)
    return {"status": "true", "detail": f"{len(z.cells)} cells"}


def _cmd_complement_member(args) -> dict:
    hda, k = _bounded(args)
    return _answer(*decide.complement_member(hda, k,
                                             parse_ipomset(args.ipomset)))


def _cmd_complement_empty(args) -> dict:
    return _answer(*decide.complement_empty(*_bounded(args)))


def _cmd_deterministic(args) -> dict:
    ok, pair = decide.is_deterministic_language(load_hda(args.automaton))
    record = {"status": _status(ok)}
    if pair is not None:
        record["witness"] = f"{_printed(pair[0])}|{_printed(pair[1])}"
    return record


def _cmd_deterministic_hda(args) -> dict:
    ok, why = is_deterministic_hda(load_hda(args.automaton))
    record = {"status": _status(ok)}
    if why is not None:
        record["detail"] = why
    return record


def _cmd_count_paths(args) -> dict:
    hda = load_hda(args.automaton)
    p = parse_ipomset(args.ipomset)
    n = count_sparse_accepting_paths(hda, p)
    return {"status": _status(n > 0), "count": n}


def _cmd_pump(args) -> dict:
    hda = load_hda(args.automaton)
    p = parse_ipomset(args.ipomset)
    qs = [s.as_ipomset() for s in dense_decomposition(p).steps]
    try:
        result = pump(hda, qs, args.cut, args.repeat)
    except (NotAccepted, DecompositionTooShort) as exc:
        return {"status": "false", "detail": str(exc)}
    return {"status": "true", "i": result.i, "j": result.j,
            "members": "|".join(_printed(q) for q in result.members)}


def _cmd_st_export(args) -> dict:
    hda = load_hda(args.automaton)
    _spelled(hda.alphabet)
    a = st_of_hda(hda)
    with open(args.output, "w", encoding="utf-8") as fp:
        fp.write(export_st(a))
    return {"status": "true",
            "detail": f"{len(a.states)} states, "
                      f"{len(a.transitions)} transitions"}


def _cmd_skeleton(args) -> dict:
    z = skeleton(load_hda(args.automaton), args.width)
    dump_hda(z, args.output)
    return {"status": "true", "detail": f"{len(z.cells)} cells"}


def _cmd_oneletter_analyze(args) -> dict:
    try:
        up = analyze(load_hda(args.automaton))
    except NotUPRepresentable as exc:
        return {"status": "false", "detail": str(exc)}
    return {"status": "true", "up": print_up(up)}


def _cmd_oneletter_build(args) -> dict:
    hda = build(parse_up(args.up), args.letter)
    dump_hda(hda, args.output)
    return {"status": "true", "detail": f"{len(hda.cells)} cells"}


def _non_negative(text: str) -> int:
    """The type of the width, cut and repeat options."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdalang",
        description="Decision procedures for languages of "
                    "higher-dimensional automata.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="record output format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *operands):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for operand in operands:
            p.add_argument(operand)
        return p

    add("validate", _cmd_validate, "check an automaton file", "automaton")
    add("member", _cmd_member, "is the ipomset accepted?",
        "automaton", "ipomset")
    add("include", _cmd_include, "is the left language in the right one?",
        "left", "right")
    add("equiv", _cmd_equiv, "do the languages coincide?", "left", "right")
    add("empty", _cmd_empty, "is the language empty?", "automaton")

    p = add("intersect", _cmd_intersect,
            "write an automaton for the intersection", "left", "right")
    p.add_argument("-o", "--output", required=True)

    for p in (add("complement-member", _cmd_complement_member,
                  "is the ipomset in the width-bounded complement?",
                  "automaton", "ipomset"),
              add("complement-empty", _cmd_complement_empty,
                  "is the width-bounded complement empty?", "automaton")):
        p.add_argument("-k", "--width", type=_non_negative, default=None,
                       help="width bound (default: the automaton's dimension)")

    add("deterministic", _cmd_deterministic,
        "is the language deterministic?", "automaton")
    add("deterministic-hda", _cmd_deterministic_hda,
        "is the automaton structurally deterministic?", "automaton")
    add("count-paths", _cmd_count_paths,
        "count sparse accepting paths for an ipomset", "automaton", "ipomset")

    p = add("pump", _cmd_pump, "pump a long accepted ipomset",
            "automaton", "ipomset")
    p.add_argument("-m", "--cut", type=_non_negative, default=0,
                   help="leftmost segment the loop may start at")
    p.add_argument("-r", "--repeat", type=_non_negative, default=2,
                   help="largest repetition count to emit")

    p = add("st-export", _cmd_st_export,
            "write the automaton over starters and terminators", "automaton")
    p.add_argument("-o", "--output", required=True)

    p = add("skeleton", _cmd_skeleton, "restrict to cells of bounded dimension",
            "automaton")
    p.add_argument("-k", "--width", type=_non_negative, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("oneletter", help="ultimately periodic descriptions")
    olsub = p.add_subparsers(dest="oneletter_command", required=True)
    q = olsub.add_parser("analyze", help="describe a one-letter automaton")
    q.set_defaults(handler=_cmd_oneletter_analyze)
    q.add_argument("automaton")
    q = olsub.add_parser("build", help="build the automaton of a description")
    q.set_defaults(handler=_cmd_oneletter_build)
    q.add_argument("up")
    q.add_argument("-l", "--letter", default="a")
    q.add_argument("-o", "--output", required=True)

    return parser


_INPUT_ERRORS = (ParseError, Invalid, InterfaceMismatch, WidthExceeded,
                 IdentityHasNoDenseDecomposition, OSError,
                 json.JSONDecodeError, UnicodeDecodeError)


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        record = args.handler(args)
    except _INPUT_ERRORS as exc:
        _emit({"status": "error", "detail": str(exc)}, args.format)
        return 2
    except Exception as exc:
        _emit({"status": "internal", "detail": f"{type(exc).__name__}: {exc}"},
              args.format)
        return 3
    _emit(record, args.format)
    return 0 if record["status"] == "true" else 1


if __name__ == "__main__":
    sys.exit(main())
