"""Slow reference implementations used to cross-check the library.

Everything in here is written for clarity over speed and avoids the
library's own shortcuts: subsumption tries every bijection, width tries
every subset, and step-word normalisation works on raw index bookkeeping
instead of going through glue.  The ST-automaton reference builds a
fresh automaton on every call and steps its word NFA by scanning every
transition, as the library did before it compiled each HDA once into an
index of steps.
"""
import itertools
from collections import deque

from hdalang import (Problem, STAutomaton, Step, coherent_word, face,
                     identity_step, sparse_decomposition, starter, terminator,
                     word_ipomset_of)


def subsumes_oracle(p, q):
    """Brute-force subsumption check: try all label- and interface-
    preserving bijections from p's events to q's events and test the
    two closure conditions directly."""
    pe, qe = sorted(p.events()), sorted(q.events())
    if len(pe) != len(qe):
        return False
    if sorted(p.labels[e] for e in pe) != sorted(q.labels[e] for e in qe):
        return False
    ps, pt = set(p.source), set(p.target)
    qs, qt = set(q.source), set(q.target)
    for perm in itertools.permutations(qe):
        f = dict(zip(pe, perm))
        if any(p.labels[e] != q.labels[f[e]] for e in pe):
            continue
        if {f[e] for e in ps} != qs or {f[e] for e in pt} != qt:
            continue
        ok = True
        for x in pe:
            for y in pe:
                if x == y:
                    continue
                if (f[x], f[y]) in q.precedence and (x, y) not in p.precedence:
                    ok = False
                    break
                concurrent = (x, y) not in p.precedence and (y, x) not in p.precedence
                if concurrent and (x, y) in p.event_order:
                    if (f[x], f[y]) not in q.event_order:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return True
    return False


def width_oracle(p):
    """Width as the size of a largest antichain, found by trying every
    subset of events."""
    events = sorted(p.events())
    best = 0
    for r in range(len(events), 0, -1):
        for sub in itertools.combinations(events, r):
            if all((x, y) not in p.precedence and (y, x) not in p.precedence
                   for x, y in itertools.combinations(sub, 2)):
                return r
    return best


def _merge_same_kind(first, second):
    """Merge two adjacent starters (or terminators) into one step.

    For two starters the merged conclist is the second one's and the
    first step's marks are carried through the unmarked positions of the
    second; two terminators are the mirror image of that.
    """
    if first.kind == "starter":
        carry = [i for i in range(len(second.conclist)) if i not in second.marked]
        lifted = {carry[i] for i in first.marked}
        return starter(second.conclist, lifted | set(second.marked))
    carry = [i for i in range(len(first.conclist)) if i not in first.marked]
    lifted = {carry[j] for j in second.marked}
    return terminator(first.conclist, set(first.marked) | lifted)


def merge_normalize(steps):
    """Normalise a chaining step word by dropping identities and merging
    adjacent steps of the same kind.  Every decomposition of an ipomset
    normalises to its sparse decomposition, which is what makes the
    sparse form canonical."""
    work = [s for s in steps if s.kind != "identity"]
    if not work:
        src = steps[0].source_conclist() if steps else ()
        return (identity_step(src),)
    out = [work[0]]
    for step in work[1:]:
        if out[-1].kind == step.kind:
            out[-1] = _merge_same_kind(out[-1], step)
        else:
            out.append(step)
    return tuple(out)


def sparse_matches_merge(p, decomposition):
    return merge_normalize(decomposition) == tuple(sparse_decomposition(p))


# --------------------------------------------------------------------------
# ST-automata: uncached construction and linear-scan runs

def st_of_hda_oracle(hda):
    """The ST-automaton of hda, built anew: composite faces through
    ``face`` and a new Step object for every transition."""
    states = {cid: c.events for cid, c in hda.cells.items()}
    transitions = []
    for y in hda.cells.values():
        for r in range(1, y.dim + 1):
            for a in itertools.combinations(range(y.dim), r):
                transitions.append(
                    (face(hda, y.id, 0, a), starter(y.events, a), y.id))
                transitions.append(
                    (y.id, terminator(y.events, a), face(hda, y.id, 1, a)))
    return STAutomaton(hda.alphabet, states, transitions,
                       hda.start, hda.accept, width_bound=hda.dim())


def st_problems_oracle(alphabet, states, transitions, initial, final):
    """Every problem of raw ST-automaton data, in report order: dangling
    initial and final states, labels outside the alphabet, then the
    transitions sorted by (source, target, step key)."""
    alphabet, initial, final = set(alphabet), set(initial), set(final)
    out = []
    for name, ids in (("initial", initial), ("final", final)):
        for sid in sorted(ids - set(states)):
            out.append(Problem("DanglingReference", (sid,),
                               f"{name} state {sid!r} does not exist"))
    for lab in sorted({l for cl in states.values() for l in cl} - alphabet):
        out.append(Problem("DanglingReference", (lab,),
                           f"state label {lab!r} is not in the alphabet"))
    for q, s, r in sorted(set(transitions),
                          key=lambda t: (t[0], t[2], t[1].key())):
        if q not in states or r not in states:
            out.append(Problem("DanglingReference", (q, r),
                               f"transition endpoint missing: {q!r}->{r!r}"))
            continue
        if s.kind == "identity":
            out.append(Problem("IdentityTransition", (q, r),
                               "identity steps are implicit and may not "
                               "be stored as transitions"))
            continue
        if s.source_conclist() != tuple(states[q]):
            out.append(Problem(
                "StateLabelMismatch", (q,),
                f"step out of {q!r} starts from {s.source_conclist()}, "
                f"but the state is labelled {tuple(states[q])}"))
        if s.target_conclist() != tuple(states[r]):
            out.append(Problem(
                "StateLabelMismatch", (r,),
                f"step into {r!r} ends in {s.target_conclist()}, "
                f"but the state is labelled {tuple(states[r])}"))
    return out


def _transitions_from(a, q):
    return [(s, r) for p, s, r in sorted(
        a.transitions, key=lambda t: (t[0], t[1].key(), t[2])) if p == q]


def nfa_step_oracle(a, nodes, letter):
    """One letter of the word NFA: identities move a state's in-node to its
    out-node, transitions found by scanning move out-nodes to in-nodes."""
    out = set()
    for side, q in nodes:
        if side == "in":
            if letter.kind == "identity" and letter.conclist == a.states[q]:
                out.add(("out", q))
        else:
            for s, r in _transitions_from(a, q):
                if s == letter:
                    out.add(("in", r))
    return frozenset(out)


def _letters_oracle(a, node):
    side, q = node
    if side == "in":
        return [identity_step(a.states[q])]
    letters = []
    for s, _ in _transitions_from(a, q):
        if s not in letters:
            letters.append(s)
    return letters


def member_oracle(a, p):
    nodes = frozenset(("in", q) for q in a.initial)
    for letter in coherent_word(p):
        nodes = nfa_step_oracle(a, nodes, letter)
    return any(("out", q) in nodes for q in a.final)


def emptiness_oracle(a):
    """Breadth-first search for a shortest accepted word."""
    seen = {("in", q) for q in a.initial}
    queue = deque((n, ()) for n in sorted(seen))
    while queue:
        node, word = queue.popleft()
        if node[0] == "out" and node[1] in a.final:
            return False, word_ipomset_of(word)
        for letter in _letters_oracle(a, node):
            for nxt in nfa_step_oracle(a, [node], letter):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, word + (letter,)))
    return True, None


def inclusion_oracle(a, b):
    """Breadth-first subset construction for a shortest word of a that b
    rejects."""
    b_finals = frozenset(("out", q) for q in b.final)
    start_b = frozenset(("in", q) for q in b.initial)
    queue = deque()
    seen = set()
    for n in sorted(("in", q) for q in a.initial):
        queue.append((n, start_b, ()))
        seen.add((n, start_b))
    while queue:
        node, bset, word = queue.popleft()
        if (node[0] == "out" and node[1] in a.final and word
                and not (bset & b_finals)):
            return False, word_ipomset_of(word)
        for letter in _letters_oracle(a, node):
            bnext = nfa_step_oracle(b, bset, letter)
            for nxt in nfa_step_oracle(a, [node], letter):
                if (nxt, bnext) not in seen:
                    seen.add((nxt, bnext))
                    queue.append((nxt, bnext, word + (letter,)))
    return True, None
