"""Decision procedures on HDA languages.

Everything here reduces questions about the ipomset language of an HDA to
finite-automaton work on its ST-automaton, compiled once per HDA:
membership runs the coherent word, inclusion runs an on-the-fly subset
construction, emptiness is plain reachability.  Width-bounded complements
go through supersumption enumeration (single ipomsets) or inclusion of the
width-k universe, the automaton of every ipomset of width at most k, in
the language (emptiness); both run on the whole automaton, as a word of
width at most k only visits states of at most k events.  Language
determinism compares prefix quotients as inclusions of the automaton with
itself from the quotients' start sets.
"""
from __future__ import annotations

from functools import cache

from . import stauto
from .hda import HDA, _walk, product, reachable
from .ipomset import (Ipomset, Step, WidthExceeded, _merge_word,
                      compose, identity_step, subsumes, supersumptions)
from .stauto import (_uncovered, emptiness, inclusion, match_automaton,
                     st_of_hda)


def member(x: HDA, p: Ipomset) -> bool:
    """Is p in the language of x?  The run rejects a p wider than x."""
    return stauto.member(st_of_hda(x), p)


def include(x: HDA, y: HDA) -> tuple[bool, Ipomset | None]:
    """Is the language of x contained in that of y?  If not, the witness
    is a shortest ipomset accepted by x and rejected by y."""
    return inclusion(st_of_hda(x), st_of_hda(y))


def equivalent(x: HDA, y: HDA) -> tuple[bool, Ipomset | None]:
    ok, witness = include(x, y)
    if not ok:
        return False, witness
    return include(y, x)


def empty(x: HDA) -> tuple[bool, Ipomset | None]:
    """Is the language empty?  If not, a shortest member is returned."""
    return emptiness(st_of_hda(x))


def intersect(x: HDA, y: HDA) -> HDA:
    """An HDA for the intersection of the two languages."""
    return product(x, y)


def complement_member(x: HDA, k: int, p: Ipomset) -> tuple[bool, Ipomset | None]:
    """Is p in the width-k bounded complement of the language of x?

    That complement is the down-closure of the width-at-most-k ipomsets
    outside the language, so the test looks for a supersumption of p that
    x does not accept; the witness is the first such in canonical order.
    """
    if p.width() > k:
        raise WidthExceeded(
            f"width {p.width()} of the queried ipomset exceeds the bound {k}")
    a = st_of_hda(x)
    for q in supersumptions(p, k):
        if not stauto.member(a, q):
            return True, q
    return False, None


def complement_empty(x: HDA, k: int) -> tuple[bool, Ipomset | None]:
    """Is the width-k bounded complement of the language empty, i.e. does
    x accept every ipomset of width at most k?  That is the inclusion of
    the width-k universe in the language; a shortest unaccepted ipomset
    witnesses a nonempty complement.  Among the shortest, the search
    starts from the universe states in the order of their ids, so the
    witness is the one the determinised complement automaton gives, with
    ids "(conclist){a-states}", only while no label holds ")"."""
    return inclusion(match_automaton(x.alphabet, k), st_of_hda(x))


# --------------------------------------------------------------------------
# prefixes and language determinism

def pre_set(x: HDA) -> dict[Ipomset, frozenset[str]]:
    """The prefixes realised along paths without repeated cells, mapped
    to the sets of cells such paths can end in.

    Paths that revisit a cell only repeat prefixes already realised by a
    shorter path into the same cell, so restricting to paths without
    repeated cells keeps the set finite without losing quotient targets
    needed by the determinism check.  A prefix is kept as its merged
    step word, which is its sparse decomposition: as an id that stands
    for (the id of its word without the last step, the last step), so
    that a search state hashes no step.  The words are built once at the
    end and each is composed once.
    """
    successors = st_of_hda(x).successors
    # prefix i is the word of prefix links[i][0] followed by the step
    # links[i][1]; prefix 0 is the empty word, which is no prefix
    links, ids = [(0, None)], {}

    @cache
    def extend(p: int, step: Step) -> int:
        # the id of prefix p then step, interned in ids: a prefix is
        # merged already, so only its last step merges with the next one
        # (the empty word has none)
        up, last = links[p]
        merged = _merge_word((last, step)) if p else ()
        link = (up, merged[0]) if len(merged) == 1 else (p, step)
        i = ids.setdefault(link, len(links))
        if i == len(links):
            links.append(link)
        return i

    found: dict[int, set[str]] = {}
    stack = []
    seen = set()
    for origin in sorted(x.start):
        state = (origin, frozenset({origin}),
                 extend(0, identity_step(x.cells[origin].events)))
        stack.append(state)
        seen.add(state)
    while stack:
        cell, visited, p = stack.pop()
        found.setdefault(p, set()).add(cell)
        for step, targets in successors[cell].items():
            for y in targets:
                if y in visited:
                    continue
                # move orders that realise the same prefix are
                # interchangeable, so exploring one (cell, visited, prefix)
                # triple is enough
                state = (y, visited | {y}, extend(p, step))
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    words: list[tuple[Step, ...]] = [()]
    for up, step in links[1:]:
        words.append(words[up] + (step,))
    return {compose(words[p]): frozenset(ends) for p, ends in found.items()}


def prefix_quotient(x: HDA, p: Ipomset) -> HDA:
    """The automaton for the left quotient of the language by p: same
    cells, with the start set moved to wherever a path observing p from a
    start cell can end."""
    targets = _walk(x, p, dict.fromkeys(x.start, 1))
    return HDA(x.cells.values(), targets, x.accept, x.alphabet)


def is_deterministic_language(x: HDA) -> tuple[bool, tuple[Ipomset, Ipomset] | None]:
    """Whether the language is deterministic: any two comparable prefixes
    of the language leave the same quotient.

    Each pair of comparable realised prefixes is checked for equal
    quotients, as inclusion both ways of the ST-automaton with itself
    from the two sets of cells the prefixes lead to.  More ordered
    prefixes leave a larger quotient of the language, but the target sets
    come from paths without repeated cells and need not follow that, so
    both containments are checked.
    Pairs are scanned in descending canonical order and the first failing
    one is the witness, so the witness is the canonically largest.  Pairs
    that share their target sets leave equal quotients: a prefix whose
    bucket of comparable candidates holds no other target set is skipped
    whole, and each pair of distinct target sets is compared once.
    """
    a = st_of_hda(x)
    co = reachable(x, x.accept, backward=True)

    def invariant(p: Ipomset) -> tuple:
        return (tuple(sorted(p.labels)),
                tuple(sorted(p.labels[i] for i in p.source)),
                tuple(sorted(p.labels[i] for i in p.target)))

    # each prefix with its targets, invariant, precedence count and width
    items = sorted(((p, targets, invariant(p), len(p.precedence), p.width())
                    for p, targets in pre_set(x).items()),
                   key=lambda item: item[0].key(), reverse=True)
    # comparable prefixes share labels and interfaces, so only pairs from
    # the same bucket can violate; prefixes with empty quotients are no
    # prefixes of the language itself and are skipped on the q side
    buckets: dict[tuple, list] = {}
    for item in items:
        if item[1] & co:
            buckets.setdefault(item[2], []).append(item)
    target_sets = {inv: {item[1] for item in b} for inv, b in buckets.items()}

    @cache
    def equal(s: frozenset[str], t: frozenset[str]) -> bool:
        # the quotients from target sets s and t contain each other
        return _uncovered(a, s, a, t) is None and _uncovered(a, t, a, s) is None

    for p, p_targets, inv, p_prec, p_width in items:
        if target_sets.get(inv, set()) <= {p_targets}:
            continue  # every candidate shares p's target set
        for q, q_targets, _, q_prec, q_width in buckets[inv]:
            # a subsumed prefix has at least as much precedence and at
            # most the width of the coarser one
            if (q_prec <= p_prec and q_width >= p_width
                    and p_targets != q_targets and subsumes(p, q)
                    and not equal(p_targets, q_targets)):
                return False, (p, q)
    return True, None
