"""ST-automata: finite automata whose letters are starters, terminators,
and identities over conclists.

States carry conclists; a transition's step must lead from the conclist
of its source state to that of its target.  Identity self-loops are
implicit on every state and never stored.  The word language consists of
coherent words: alternations ``id s id s ... id`` where neighbouring
letters chain up.  An ipomset belongs to the recognised language when the
coherent spelling of its sparse decomposition is accepted.
"""
from __future__ import annotations

import functools
import itertools
from collections import deque
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence

from .ipomset import (Invalid, Ipomset, Problem, Step, StepWord, compose,
                      identity_step, sparse_decomposition, _letters,
                      _width_bound)
from .hda import HDA, _face_columns, _face_table, _joined


class InvalidSTAutomaton(Invalid):
    pass


class STAutomaton:
    """A finite automaton over step letters.

    ``states`` maps state ids to conclists, ``width_bound`` records the
    largest conclist the automaton is meant to range over (None leaves it
    unspecified).  The transitions, (source id, step, target id) triples,
    are checked in one pass that reports every problem (``_checked``)
    and indexed into ``successors``, which is all the automaton keeps of
    them: ``state -> {step: targets}`` with each state's steps in
    ``Step.key()`` order and the targets a sorted tuple; every run below
    steps through it.  ``transitions``, the set of triples, is derived
    from the index the first time it is read.  The automata the library
    builds are valid by construction and pass their transitions
    unchecked, grouped by step, through the private ``_groups`` (see
    ``_Group``); the width-k universe (``match_automaton``) passes none
    and builds each row when it is first read (``_Universe``).

    Instances must not be mutated: ``st_of_hda`` caches its automaton on
    the HDA and hands it to every later caller.
    """

    __slots__ = ("alphabet", "states", "initial", "final", "width_bound",
                 "successors", "_transitions")

    def __init__(self, alphabet: Iterable[str],
                 states: dict[str, Sequence[str]],
                 transitions: Iterable[tuple[str, Step, str]],
                 initial: Iterable[str], final: Iterable[str],
                 width_bound: int | None = None, *,
                 _groups: Iterable[_Group] | None = None):
        self.alphabet = frozenset(alphabet)
        self.states = {sid: tuple(cl) for sid, cl in states.items()}
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        self.width_bound = width_bound
        self._transitions: frozenset[tuple[str, Step, str]] | None = None
        self.successors = _rows(self.states, self._checked(transitions)
                                if _groups is None else _groups)

    @property
    def transitions(self) -> frozenset[tuple[str, Step, str]]:
        if self._transitions is None:
            self._transitions = frozenset(
                (q, s, r) for q, row in self.successors.items()
                for s, targets in row.items() for r in targets)
        return self._transitions

    def _checked(self, transitions: Iterable[tuple[str, Step, str]]
                 ) -> list[_Group]:
        """The triples as one-transition groups, once the states and each
        triple are checked in one loop.  A faulty triple's problems go
        into one table keyed by (source, target, step key, side), so each
        is reported once, and the table is sorted into report order."""
        states = self.states
        problems = []
        for name, ids in (("initial", self.initial), ("final", self.final)):
            for sid in sorted(ids - states.keys()):
                problems.append(Problem("DanglingReference", (sid,),
                                        f"{name} state {sid!r} does not exist"))
        for lab in sorted({l for cl in states.values() for l in cl}
                          - self.alphabet):
            problems.append(Problem(
                "DanglingReference", (lab,),
                f"state label {lab!r} is not in the alphabet"))
        found: dict[tuple, Problem] = {}
        groups = []
        for q, s, r in transitions:
            if q not in states or r not in states:
                found[q, r, s.key(), 0] = Problem(
                    "DanglingReference", (q, r),
                    f"transition endpoint missing: {q!r}->{r!r}")
            elif s.kind == "identity":
                found[q, r, s.key(), 0] = Problem(
                    "IdentityTransition", (q, r),
                    "identity steps are implicit and may not "
                    "be stored as transitions")
            else:
                src, tgt = s.source_conclist(), s.target_conclist()
                if src != states[q]:
                    found[q, r, s.key(), 0] = Problem(
                        "StateLabelMismatch", (q,),
                        f"step out of {q!r} starts from {src}, "
                        f"but the state is labelled {states[q]}")
                if tgt != states[r]:
                    found[q, r, s.key(), 1] = Problem(
                        "StateLabelMismatch", (r,),
                        f"step into {r!r} ends in {tgt}, "
                        f"but the state is labelled {states[r]}")
                groups.append((s, (q,), (r,)))
        problems += [found[k] for k in sorted(found)]
        if problems:
            raise InvalidSTAutomaton(problems)
        return groups


def _rows(states: dict[str, tuple[str, ...]], groups: Iterable[_Group]
          ) -> dict[str, dict[Step, tuple[str, ...]]]:
    """The successor index of valid transitions: the groups are sorted by
    ``Step.key()`` once, and each step added to the rows of all its
    sources in turn, so every row comes out in key order.  Each
    transition takes one hash, and a (state, step) pair with several
    targets one more per target after the first."""
    index: dict[str, dict[Step, tuple[str, ...]]] = {q: {} for q in states}
    alone = {r: (r,) for r in states}  # one-target tuples, shared by rows
    for s, sources, targets in sorted(groups, key=lambda g: g[0].key()):
        for q, r in zip(sources, targets):
            one = alone[r]
            got = index[q].setdefault(s, one)
            if got is not one and r not in got:
                index[q][s] = tuple(sorted(got + one))
    return index


# transitions over one step object: (step, sources, targets), transition i
# running from sources[i] to targets[i]
_Group = tuple[Step, Sequence[str], Sequence[str]]


def st_of_hda(hda: HDA) -> STAutomaton:
    """The ST-automaton with one state per cell: starters climb to a cell
    from its lower faces, terminators drop to its upper faces.

    It is compiled on the first call and cached on the HDA, so later calls
    return the same automaton.  Equal steps are one shared Step object.
    """
    if hda._st is None:
        hda._st = _compile(hda)
    return hda._st


def _compile(hda: HDA) -> STAutomaton:
    """Compile the cells of each conclist together: their composite faces
    come column by column from the shared face table (``_face_columns``),
    and each starter and terminator of the conclist is built once, from
    the table's frozensets, with the transitions of all those cells,
    which a validated HDA makes valid: they are not checked again.  The
    groups are made in ``Step.key()`` order (starters before
    terminators, conclists sorted, positions in ``_key_order``), so
    ``_rows`` sorts them in one linear run."""
    hda.by_conclist(())  # builds the cached index that hda._walk reads
    starters: list[_Group] = []
    terminators: list[_Group] = []
    for events in sorted(hda._by_conclist):
        ids, d = hda._by_conclist[events], len(events)
        lower = _face_columns(hda, d, ids, 0)
        upper = _face_columns(hda, d, ids, 1)
        for k, a in _key_order(d):
            starters.append((Step("starter", events, a), lower[k], ids))
            terminators.append((Step("terminator", events, a), ids, upper[k]))
    return STAutomaton(hda.alphabet,
                       {c.id: c.events for c in hda.cells.values()}, (),
                       hda.start, hda.accept, width_bound=hda.dim(),
                       _groups=starters + terminators)


@functools.cache
def _key_order(d: int) -> tuple[tuple[int, frozenset[int]], ...]:
    """The column and the mark set of each entry of ``_face_table(d)``,
    in the order of the entries' position tuples, which is the order of
    the keys of the steps they mark."""
    return tuple((k + 1, marks) for _, k, marks in sorted(
        (a, k, marks) for k, (a, marks, _, _) in enumerate(_face_table(d))))


def coherent_word(p: Ipomset) -> tuple[Step, ...]:
    """The sparse decomposition of p with identities interleaved:
    ``id s1 id s2 ... id``; just one identity letter for identities."""
    return _spelled(p.source_conclist(),
                    () if p.is_identity() else sparse_decomposition(p).steps)


def _spelled(conclist: tuple[str, ...], steps: Sequence[Step]
             ) -> tuple[Step, ...]:
    """The coherent word of ``steps`` from ``conclist``: an identity
    letter first and after every step."""
    out = [identity_step(conclist)]
    for s in steps:
        out += (s, identity_step(s.target_conclist()))
    return tuple(out)


def word_ipomset_of(word: Sequence[Step]) -> Ipomset:
    """Glue a coherent word back into an ipomset."""
    return compose(StepWord(list(word)))


# --------------------------------------------------------------------------
# runs: identities are implicit self-loops, so a run is a set of states
# and each step letter moves it through ``successors``; a coherent word
# ``id s1 id ... sn id`` is read as its steps between matching identities.

def _post(a: STAutomaton, states: Iterable[str], step: Step) -> frozenset[str]:
    """The states one transition over ``step`` leads to from ``states``."""
    out: set[str] = set()
    for q in states:
        out.update(a.successors[q].get(step, ()))
    return frozenset(out)


def _starting(a: STAutomaton, states: Iterable[str],
              conclist: tuple[str, ...]) -> frozenset[str]:
    """The states a run over a word from ``conclist`` can start in."""
    return frozenset(q for q in states if a.states[q] == conclist)


def _run(a: STAutomaton, states: frozenset[str], steps: Iterable[Step]
         ) -> frozenset[str]:
    """The states ``steps`` lead to from ``states``, identities skipped.
    A set of one state steps through that state's row, as in ``_pairs``;
    only larger sets go through ``_post``."""
    for step in steps:
        if step.kind != "identity":
            if len(states) == 1:
                [q] = states
                states = frozenset(a.successors[q].get(step, ()))
            else:
                states = _post(a, states, step)
            if not states:
                break
    return states


def accepts_word(a: STAutomaton, word: Sequence[Step]) -> bool:
    """Is ``word`` a coherent word the automaton accepts?  Coherent means
    ``id s1 id ... sn id``: no step si an identity, each identity over the
    conclist its step ends in (the first over that of the initial state)."""
    steps = word[1::2]
    if len(word) % 2 == 0 or word[0].kind != "identity" or any(
            s.kind == "identity" or ident.kind != "identity"
            or ident.conclist != s.target_conclist()
            for s, ident in zip(steps, word[2::2])):
        return False
    states = _starting(a, a.initial, word[0].conclist)
    return bool(_run(a, states, steps) & a.final)


def member(a: STAutomaton, p: Ipomset) -> bool:
    """Is p in the recognised ipomset language?  Runs the steps of its
    sparse word from the states over its source conclist, as
    ``accepts_word(a, coherent_word(p))`` does; a p wider than every
    state needs no check of its own, as the run dies at its widest step."""
    states = _starting(a, a.initial, p.source_conclist())
    return bool(_run(a, states, sparse_decomposition(p).steps) & a.final)


def enumerate_wang(a: STAutomaton, max_letters: int) -> set[tuple[Step, ...]]:
    """All accepted coherent words with at most ``max_letters`` letters."""
    out: set[tuple[Step, ...]] = set()
    if max_letters < 1:
        return out
    # each word up to its last step, with the conclist and the set of
    # states it leads to
    todo = [((), cl, _starting(a, a.initial, cl))
            for cl in {a.states[q] for q in a.initial}]
    while todo:
        word, cl, states = todo.pop()
        word += (identity_step(cl),)
        if states & a.final:
            out.add(word)
        if len(word) + 2 <= max_letters:
            for step in {s for q in states for s in a.successors[q]}:
                nxt = _post(a, states, step)
                todo.append((word + (step,), step.target_conclist(), nxt))
    return out


def emptiness(a: STAutomaton) -> tuple[bool, Ipomset | None]:
    """Whether the language is empty; if not, a shortest witness, found
    as a shortest word that a accepts and a run from no state rejects."""
    word = _uncovered(a, a.initial, a, ())
    return (True, None) if word is None else (False, word_ipomset_of(word))


def inclusion(a: STAutomaton, b: STAutomaton) -> tuple[bool, Ipomset | None]:
    """Is every ipomset recognised by a also recognised by b?

    On-the-fly subset construction; returns a shortest counterexample
    when the answer is no.
    """
    word = _uncovered(a, a.initial, b, b.initial)
    return (True, None) if word is None else (False, word_ipomset_of(word))


def _uncovered(a: STAutomaton, a_start: Iterable[str], b: STAutomaton,
               b_start: Iterable[str]) -> tuple[Step, ...] | None:
    """A shortest coherent word that a accepts from ``a_start`` and b
    rejects from ``b_start``, or None: the word of the first pair of
    ``_pairs`` from the sorted ``a_start`` with a final a-state and no
    final b-state.  Only this word is spelled with its identities.  A
    search of an automaton against itself skips the pairs whose set is
    just their a-state (``_pairs``' ``skip_own``)."""
    for q, bset, word in _pairs(a, sorted(a_start), b, b_start,
                                skip_own=a is b):
        if q in a.final and not bset & b.final:
            return _spelled(word[0].source_conclist() if word
                            else a.states[q], word)
    return None


def _pairs(a: STAutomaton, a_start: Iterable[str], b: STAutomaton,
           b_start: Iterable[str], sets: dict | None = None,
           skip_own: bool = False
           ) -> Iterator[tuple[str, frozenset[str], tuple[Step, ...]]]:
    """Breadth-first over pairs of an a-state and the set of b-states the
    same word reaches, from ``a_start`` in the order given: each pair
    once, with the steps of a shortest word to it, yielded as soon as it
    is first reached.  Pairs leave the queue in that same order, so a
    caller that stops at a pair expands no more of its level.  Every
    search on pairs of states reads this one loop.

    Equal b-sets are one object, interned in ``sets`` (a dict of its
    own unless given), so each is hashed once.  A set of one state is
    stepped through that state's row: ``sets`` also maps each target
    tuple read there to its set.  Larger sets go through ``_post``; the
    empty set steps to itself.  A caller that reads ``sets`` after the
    search runs the generator to its end.

    With ``skip_own``, for a search of an automaton against itself, a
    pair (q, {q}) is neither yielded nor queued: every pair reachable
    from it holds its a-state in its set, so none is uncovered, and no
    other pair is first reached later than without the skip."""
    sets = {} if sets is None else sets
    queue, seen = deque(), set()
    for q in a_start:
        bset = _starting(b, b_start, a.states[q])
        item = (q, sets.setdefault(bset, bset), ())
        seen.add(item[:2])
        if skip_own and len(bset) == 1 and q in bset:
            continue
        queue.append(item)
        yield item
    while queue:
        q, bset, word = queue.popleft()
        row = b.successors[next(iter(bset))] if len(bset) == 1 else None
        for step, targets in a.successors[q].items():
            if not bset:
                bnext = bset
            elif row is not None:
                bnext = sets.get(key := row.get(step, ()))
                if bnext is None:
                    bnext = frozenset(key)
                    bnext = sets[key] = sets.setdefault(bnext, bnext)
            else:
                bnext = _post(b, bset, step)
                bnext = sets.setdefault(bnext, bnext)
            for r in targets:
                if (r, bnext) not in seen:
                    seen.add((r, bnext))
                    if skip_own and len(bnext) == 1 and r in bnext:
                        continue
                    item = (r, bnext, word + (step,))
                    queue.append(item)
                    yield item


# --------------------------------------------------------------------------
# the full width-bounded language, and complements

def _conclist_id(conclist: Sequence[str]) -> str:
    """The labels joined by spaces (``hda._joined``), so that no two
    conclists share an id."""
    return "(" + _joined(conclist, " ") + ")"


def match_automaton(alphabet: Iterable[str], k: int) -> STAutomaton:
    """Recognises every ipomset of width at most k over the alphabet: one
    state per conclist, every state initial and final.  The states are
    made at once, each row only when it is first read (``_Universe``)."""
    k = _width_bound(k)
    letters = sorted(alphabet)
    ids = {cl: _conclist_id(cl) for n in range(k + 1)
           for cl in itertools.product(letters, repeat=n)}
    states = {sid: cl for cl, sid in ids.items()}
    m = STAutomaton(letters, states, (), states.keys(), states.keys(),
                    width_bound=k, _groups=())
    m.successors = _Universe(m.states, ids, letters, k)
    return m


class _Universe(Mapping):
    """The successor index of ``match_automaton``: a row holds every
    letter of ``_letters`` from the state's conclist, in ``Step.key()``
    order, and is built the first time it is read.  Iterating yields
    every state in order, so a caller that reads all rows builds them
    all."""

    __slots__ = ("_states", "_ids", "_letters", "_k", "_built")

    def __init__(self, states: dict[str, tuple[str, ...]],
                 ids: dict[tuple[str, ...], str], letters: list[str], k: int):
        self._states, self._ids, self._letters, self._k = states, ids, letters, k
        self._built: dict[str, dict[Step, tuple[str, ...]]] = {}

    def __getitem__(self, q: str) -> dict[Step, tuple[str, ...]]:
        row = self._built.get(q)
        if row is None:
            cl, ids = self._states[q], self._ids
            row = self._built[q] = {
                s: (ids[s.target_conclist()],) for s in sorted(
                    _letters(cl, self._letters, self._k - len(cl)),
                    key=Step.key)}
        return row

    def __iter__(self) -> Iterator[str]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)


def complement_words(a: STAutomaton, width: int | None = None) -> STAutomaton:
    """The automaton accepting exactly the coherent words of width at most
    ``width`` (defaulting to a's bound) that a does not accept.

    The subset construction of a over the rows of the width-k universe,
    ``match_automaton(a.alphabet, k)``: its states are the pairs that
    ``_pairs`` reaches on (universe, a), accepting when the a-set avoids
    a's final states.  A pair's id is the universe id, each ``{`` escaped,
    then the a-state ids in braces.  Each universe step leaves one
    universe state, so its transitions form one group, filled from that
    state's row and passed on unchecked; an a-set of one state finds its
    successor set in the search's own table (``_pairs``' ``sets``), and
    only larger sets are stepped again.  Deciding whether this
    complement is empty needs no automaton of its own:
    ``decide.complement_empty`` asks whether the universe is included in a.
    """
    k = a.width_bound if width is None else width
    if k is None:
        raise ValueError("no width bound: pass one explicitly")
    universe = match_automaton(a.alphabet, k)
    sets: dict = {}
    ids = {(q, dset): q.replace("{", "\\{") + "{"
           + _joined(sorted(dset), " ") + "}"
           for q, dset, _ in _pairs(universe, universe.states, a, a.initial,
                                    sets)}
    states = {sid: universe.states[q] for (q, _), sid in ids.items()}
    initial = [ids[q, _starting(a, a.initial, cl)]
               for q, cl in universe.states.items()]
    final = [sid for (_, dset), sid in ids.items() if not dset & a.final]
    rows = universe.successors
    groups = {q: [(s, [], []) for s in row] for q, row in rows.items()}
    for (q, dset), sid in ids.items():
        row = a.successors[next(iter(dset))] if len(dset) == 1 else None
        for (step, sources, targets), (r,) in zip(groups[q],
                                                  rows[q].values()):
            sources.append(sid)
            dnext = (sets[row.get(step, ())] if row is not None
                     else _post(a, dset, step) if dset else dset)
            targets.append(ids[r, dnext])
    return STAutomaton(a.alphabet, states, (), initial, final, width_bound=k,
                       _groups=[g for row in groups.values() for g in row])


# --------------------------------------------------------------------------
# text export

def export_st(a: STAutomaton) -> str:
    """Render the automaton in a stable line format.

    Line 1 names the width bound (``-`` when unset), line 2 the alphabet;
    then one line per state (index, conclist, initial and final flags) and
    one per transition (source index, target index, step bracket).
    """
    from .text import print_step
    lines = [f"stautomaton k={'-' if a.width_bound is None else a.width_bound}",
             ("alphabet " + " ".join(sorted(a.alphabet))).rstrip()]
    ids = sorted(a.states)
    index = {sid: i for i, sid in enumerate(ids)}
    for i, sid in enumerate(ids):
        init = "init" if sid in a.initial else "-"
        fin = "fin" if sid in a.final else "-"
        lines.append(f"state {i} [{' '.join(a.states[sid])}] {init} {fin}")
    for q, s, r in sorted(a.transitions,
                          key=lambda t: (index[t[0]], index[t[2]], t[1].key())):
        lines.append(f"trans {index[q]} {index[r]} {print_step(s)}")
    return "\n".join(lines) + "\n"
