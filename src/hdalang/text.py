"""Bracket notation for steps, step words, and ipomsets.

A step is one bracket: events top to bottom in event order, separated by
spaces.  A trailing ``+`` marks an event being started, a trailing ``-``
one being terminated; unmarked events are carried through.  A bracket may
not mix the two markers, and a bracket with no markers is an identity.
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

from .ipomset import (Ipomset, ParseError, Step, StepWord, compose,
                      sparse_decomposition, starter, terminator,
                      identity_step)

_LABEL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


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

    Raises ParseError with a character position on bad syntax, including
    brackets that mix ``+`` and ``-`` markers.
    """
    i, n = 0, len(text)
    brackets: list[tuple[int, list[tuple[str, str | None]]]] = []
    while i < n and text[i].isspace():
        i += 1
    if i == n:
        raise ParseError(i, "expected a bracket, got end of input")
    while i < n:
        if text[i] != "[":
            raise ParseError(i, f"expected '[', got {text[i]!r}")
        open_at = i
        i += 1
        items: list[tuple[str, str | None]] = []
        while True:
            while i < n and text[i] == " ":
                i += 1
            if i == n:
                raise ParseError(i, "unterminated bracket")
            if text[i] == "]":
                i += 1
                break
            start = i
            while i < n and text[i] in _LABEL_CHARS:
                i += 1
            if i == start:
                raise ParseError(i, f"unexpected character {text[i]!r}")
            label = text[start:i]
            mark = None
            if i < n and text[i] in "+-":
                mark = text[i]
                i += 1
            if i < n and text[i] not in " ]":
                raise ParseError(i, f"unexpected character {text[i]!r}")
            items.append((label, mark))
        brackets.append((open_at, items))
        while i < n and text[i].isspace():
            i += 1
    steps = []
    for open_at, items in brackets:
        marks = {m for (_, m) in items if m is not None}
        if len(marks) > 1:
            raise ParseError(open_at,
                             "a step cannot both start and terminate events")
        conclist = tuple(label for (label, _) in items)
        marked = {i for i, (_, m) in enumerate(items) if m is not None}
        if not marks:
            steps.append(identity_step(conclist))
        elif marks == {"+"}:
            steps.append(starter(conclist, marked))
        else:
            steps.append(terminator(conclist, marked))
    return StepWord(steps)


def parse_ipomset(text: str) -> Ipomset:
    """Parse bracket notation and glue it into an ipomset.

    InterfaceMismatch propagates when consecutive brackets do not chain.
    """
    return compose(parse_step_word(text))
