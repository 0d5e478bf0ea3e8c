"""Bracket notation for steps, step words, and ipomsets.

A step is one bracket: events top to bottom in event order, each a label
of ASCII letters, digits and ``_``.  Inside a bracket only spaces separate
and pad them; any whitespace may come before, between and after brackets.
A trailing ``+`` marks an event being started, a trailing ``-`` one being
terminated; unmarked events are carried through.  A bracket may not mix
the two markers, and a bracket with no markers is an identity.
Examples::

    [a+ b]      start an a above a running b
    [a- b-]     terminate both events
    [a c]       identity over the conclist (a, c)
    []          the empty ipomset

An ipomset is written as the bracket rendering of its sparse step
decomposition, e.g. ``[a+][a- b+][b-]`` for the word ab.  Parsing accepts
any well-formed step word and glues it, so non-sparse spellings of the
same ipomset are accepted and normalise on printing.
"""
from __future__ import annotations

import re

from .ipomset import (Ipomset, ParseError, Step, StepWord, _Steps, compose,
                      sparse_decomposition)

_LABEL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
# a label with at most one marker; in a bracket it ends at a space or "]"
_LABEL = f"[{''.join(sorted(_LABEL_CHARS))}]+[+-]?"
_BRACKET = re.compile(rf"\[((?: *{_LABEL}(?=[ \]]))*) *\]\s*")
_ITEM = re.compile(f" *(?:{_LABEL})?")


def print_step(step: Step) -> str:
    mark = {"starter": "+", "terminator": "-", "identity": ""}[step.kind]
    items = [label + (mark if i in step.marked else "")
             for i, label in enumerate(step.conclist)]
    return "[" + " ".join(items) + "]"


def print_step_word(word: StepWord) -> str:
    return "".join(print_step(s) for s in word.steps)


def print_ipomset(p: Ipomset) -> str:
    return print_step_word(sparse_decomposition(p))


def parse_step_word(text: str) -> StepWord:
    """Parse bracket notation into a step word.

    Raises ParseError with a character position on bad syntax, where it
    is met, and then on the first bracket that mixes ``+`` and ``-``
    markers.  Each bracket is matched and read in one pass; brackets that
    spell one step share one ``Step``, built once per call.
    """
    n = len(text)
    pos = n - len(text.lstrip())
    if pos == n:
        raise ParseError(pos, "expected a bracket, got end of input")
    steps, made, mixed = [], _Steps(), None
    while pos < n:
        match = _BRACKET.match(text, pos)
        if match is None:  # step item by item to the character at fault
            if text[pos] != "[":
                raise ParseError(pos, f"expected '[', got {text[pos]!r}")
            while True:
                pos = _ITEM.match(text, pos + 1).end()
                if pos == n:
                    raise ParseError(pos, "unterminated bracket")
                if text[pos] != " ":
                    raise ParseError(pos, f"unexpected character {text[pos]!r}")
        inner, pos = match[1], match.end()
        mark = "-" if "-" in inner else "+"
        if mark == "-" and "+" in inner:  # raised once every bracket is read
            mixed = match.start() if mixed is None else mixed
        elif mixed is None:
            marks = []  # a loop, not a comprehension: no call per bracket
            for i, item in enumerate(inner.split()):
                if item[-1] == mark:
                    marks.append(i)
            kind = ("terminator" if mark == "-"
                    else "starter" if marks else "identity")
            steps.append(made[kind, tuple(inner.replace(mark, "").split()),
                              tuple(marks)])
    if mixed is not None:
        raise ParseError(mixed, "a step cannot both start and terminate events")
    return StepWord(steps)


def parse_ipomset(text: str) -> Ipomset:
    """Parse bracket notation and glue it into an ipomset.

    InterfaceMismatch propagates when consecutive brackets do not chain.
    """
    return compose(parse_step_word(text))
