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

    Raises ParseError with a character position on bad syntax, including
    brackets that mix ``+`` and ``-`` markers.  Brackets that spell one
    step share one ``Step``, built once per call.
    """
    n = len(text)
    pos = n - len(text.lstrip())
    if pos == n:
        raise ParseError(pos, "expected a bracket, got end of input")
    brackets = []
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
        brackets.append(match)
        pos = match.end()
    steps, made = [], _Steps()
    for match in brackets:  # after the syntax of every bracket is checked
        inner = match[1]
        if "+" in inner and "-" in inner:
            raise ParseError(match.start(),
                             "a step cannot both start and terminate events")
        kind = ("terminator" if "-" in inner
                else "starter" if "+" in inner else "identity")
        items = inner.split()
        marks = tuple([i for i, item in enumerate(items) if item[-1] in "+-"])
        steps.append(made[kind, tuple([item.rstrip("+-") for item in items]),
                          marks])
    return StepWord(steps)


def parse_ipomset(text: str) -> Ipomset:
    """Parse bracket notation and glue it into an ipomset.

    InterfaceMismatch propagates when consecutive brackets do not chain.
    """
    return compose(parse_step_word(text))
