"""Slow reference implementations used to cross-check the library.

Everything in here is written for clarity over speed and avoids the
library's own shortcuts: subsumption tries every bijection, width tries
every subset, and step-word normalisation works on raw index bookkeeping
instead of going through glue.  Composition is the left fold of a
relation-level glue over one ipomset per step, and the sparse
decomposition is found by greedy simulation on the relations, as the
library did before it composed words in one pass and carried the
result's word.  The ST-automaton reference builds a
fresh automaton on every call and steps its word NFA by scanning every
transition, as the library did before it compiled each HDA once into an
index of steps.  Its runs step pairs of in- and out-nodes per state,
as the library did before it stepped plain state sets; quotient pairs
get HDAs of their own and bounded complements run on the skeleton, as
the library did before it asked both of the automaton compiled once.
The weighted walks are the two loops the library had before it shared
one.
"""
import itertools
from collections import deque

from hdalang import (HDA, InterfaceMismatch, Ipomset, Problem, STAutomaton,
                     StepWord, coherent_word, complement_words, compose,
                     face, identity_step, skeleton,
                     sparse_decomposition, starter, subsumes, supersumptions,
                     terminator, word_ipomset_of)
from hdalang.hda import composite_faces, reachable


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
# ipomsets: left-fold composition and greedy decomposition on relations

def _by_event_order(p, events):
    """Events of one conclist, top to bottom: by how many of them are
    above each in event order."""
    events = list(events)
    return tuple(sorted(events, key=lambda e: sum(
        (f, e) in p.event_order for f in events)))


def step_ipomset_oracle(step):
    """The ipomset of one step, built from its relations."""
    n = len(step.conclist)
    order = [(i, j) for i in range(n) for j in range(i + 1, n)]
    carried = frozenset(range(n)) - step.marked
    if step.kind == "starter":
        source, target = carried, frozenset(range(n))
    elif step.kind == "terminator":
        source, target = frozenset(range(n)), carried
    else:
        source = target = frozenset(range(n))
    return Ipomset(step.conclist, (), order, source, target)


def glue_oracle(p, q):
    """Serial composition on the relations: q's source events are
    identified with p's target events, q's new events numbered after p's,
    every event p terminates precedes every event q starts, and both
    relations are closed anew by the constructor."""
    p_t = _by_event_order(p, p.target)
    q_s = _by_event_order(q, q.source)
    if tuple(p.labels[i] for i in p_t) != tuple(q.labels[i] for i in q_s):
        raise InterfaceMismatch(
            f"cannot glue: target conclist {tuple(p.labels[i] for i in p_t)} "
            f"!= source conclist {tuple(q.labels[i] for i in q_s)}")
    n_p = len(p.labels)
    q_map = dict(zip(q_s, p_t))
    nxt = n_p
    for e in q.events():
        if e not in q_map:
            q_map[e] = nxt
            nxt += 1
    labels = list(p.labels) + [""] * (nxt - n_p)
    for e in q.events():
        labels[q_map[e]] = q.labels[e]
    prec = set(p.precedence)
    prec |= {(q_map[a], q_map[b]) for (a, b) in q.precedence}
    left = [e for e in p.events() if e not in p.target]
    right = [q_map[e] for e in q.events() if e not in q.source]
    prec |= {(a, b) for a in left for b in right}
    order = set(p.event_order)
    order |= {(q_map[a], q_map[b]) for (a, b) in q.event_order}
    return Ipomset(labels, prec, order, p.source, {q_map[e] for e in q.target})


def compose_oracle(steps):
    """Left fold of ``glue_oracle`` over the steps' ipomsets; a step that
    does not chain raises InterfaceMismatch at its index."""
    steps = list(steps)
    if not steps:
        raise ValueError("cannot compose an empty step sequence")
    result = step_ipomset_oracle(steps[0])
    for pos, step in enumerate(steps[1:], start=1):
        try:
            result = glue_oracle(result, step_ipomset_oracle(step))
        except InterfaceMismatch as exc:
            raise InterfaceMismatch(str(exc), position=pos) from None
    return result


def sparse_decomposition_oracle(p):
    """Greedy simulation on the relations: start every event whose
    predecessors have all terminated, then terminate every started event
    all of whose concurrent partners have started, until done."""
    def concurrent(x, y):
        return x != y and (x, y) not in p.precedence and (y, x) not in p.precedence

    def conclist(active):
        idx = _by_event_order(p, active)
        return idx, tuple(p.labels[i] for i in idx)

    started, terminated = set(p.source), set()
    steps = []
    while len(started) < len(p) or len(terminated) < len(p) - len(p.target):
        a = [x for x in p.events() if x not in started and all(
            y in terminated for (y, z) in p.precedence if z == x)]
        if a:
            started |= set(a)
            idx, labels = conclist(started - terminated)
            steps.append(starter(labels, {idx.index(x) for x in a}))
        idx, labels = conclist(started - terminated)
        b = [x for x in started if x not in terminated and x not in p.target
             and all(y in started for y in p.events() if concurrent(x, y))]
        if b:
            steps.append(terminator(labels, {idx.index(x) for x in b}))
            terminated |= set(b)
        assert a or b, "no step decomposition: the precedence is stuck"
    if not steps:
        steps.append(identity_step(conclist(p.source)[1]))
    return StepWord(steps)


def up_steps_oracle(hda):
    """``HDA.up_steps`` with every lower face found through ``face``."""
    graph = {cid: [] for cid in hda.cells}
    for y in hda.cells.values():
        for r in range(1, y.dim + 1):
            for a in itertools.combinations(range(y.dim), r):
                graph[face(hda, y.id, 0, a)].append((frozenset(a), y.id))
    return graph


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


def accepts_word_oracle(a, word):
    nodes = frozenset(("in", q) for q in a.initial)
    for letter in word:
        nodes = nfa_step_oracle(a, nodes, letter)
        if not nodes:
            return False
    return any(("out", q) in nodes for q in a.final)


def enumerate_wang_oracle(a, max_letters):
    """Breadth-first over (node, word) pairs, every accepted word with at
    most ``max_letters`` letters."""
    out = set()
    seen = set()
    queue = deque((n, ()) for n in sorted(("in", q) for q in a.initial))
    while queue:
        node, word = queue.popleft()
        if node[0] == "out" and node[1] in a.final and word:
            out.add(word)
        if len(word) >= max_letters:
            continue
        for letter in _letters_oracle(a, node):
            for nxt in nfa_step_oracle(a, [node], letter):
                key = (nxt, tuple(s.key() for s in word) + (letter.key(),))
                if key not in seen:
                    seen.add(key)
                    queue.append((nxt, word + (letter,)))
    return out


# --------------------------------------------------------------------------
# decisions: prefixes on the face tables, an HDA per quotient, complements
# on the skeleton

def pre_set_oracle(x):
    """Prefixes along paths without repeated cells, with their end cells;
    moves taken from ``up_steps`` and ``composite_faces``."""
    up = x.up_steps()
    found = {}
    stack = []
    seen = set()
    for origin in sorted(x.start):
        state = (origin, frozenset({origin}),
                 compose([identity_step(x.cells[origin].events)]))
        stack.append(state)
        seen.add(state)
    while stack:
        cell, visited, prefix = stack.pop()
        found.setdefault(prefix, set()).add(cell)
        moves = [(starter(x.cells[y].events, a), y)
                 for a, y in up[cell] if y not in visited]
        c = x.cells[cell]
        moves += [(terminator(c.events, b), y)
                  for b, _, y in composite_faces(x, c) if y not in visited]
        word = sparse_decomposition(prefix).steps
        for step, y in moves:
            state = (y, visited | {y}, compose(word + (step,)))
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return {p: frozenset(ends) for p, ends in found.items()}


def is_deterministic_language_oracle(x):
    """Every comparable pair of realised prefixes, in descending canonical
    order, compared through two HDAs with the pair's target sets as start
    cells, each compiled anew and checked for inclusion both ways."""
    pre = pre_set_oracle(x)
    co = reachable(x, x.accept, backward=True)
    items = sorted(pre.items(), key=lambda kv: kv[0].key(), reverse=True)
    for p, p_targets in items:
        for q, q_targets in items:
            if not q_targets & co:
                continue
            if p == q or p_targets == q_targets or not subsumes(p, q):
                continue
            ap = st_of_hda_oracle(HDA(x.cells.values(), p_targets, x.accept,
                                      x.alphabet))
            aq = st_of_hda_oracle(HDA(x.cells.values(), q_targets, x.accept,
                                      x.alphabet))
            if not (inclusion_oracle(ap, aq)[0] and inclusion_oracle(aq, ap)[0]):
                return False, (p, q)
    return True, None


def complement_member_oracle(x, k, p):
    a = st_of_hda_oracle(skeleton(x, k))
    for q in supersumptions(p, k):
        if not member_oracle(a, q):
            return True, q
    return False, None


def complement_empty_oracle(x, k):
    return emptiness_oracle(
        complement_words(st_of_hda_oracle(skeleton(x, k)), width=k))


# --------------------------------------------------------------------------
# HDAs: the face-based walks over a sparse word

def count_sparse_accepting_paths_oracle(hda, p):
    word = sparse_decomposition(p)
    if p.is_identity():
        u = p.source_conclist()
        return sum(1 for cid in hda.start & hda.accept
                   if hda.cells[cid].events == u)
    cur = {}
    src = word.steps[0].source_conclist()
    for cid in hda.start:
        if hda.cells[cid].events == src:
            cur[cid] = 1
    for step in word.steps:
        nxt = {}
        if step.kind == "starter":
            for y in hda.by_conclist(step.conclist):
                x = face(hda, y, 0, step.marked)
                if x in cur:
                    nxt[y] = nxt.get(y, 0) + cur[x]
        else:
            for x, n in cur.items():
                y = face(hda, x, 1, step.marked)
                nxt[y] = nxt.get(y, 0) + n
        cur = nxt
        if not cur:
            return 0
    return sum(n for cid, n in cur.items() if cid in hda.accept)


def segment_relation_oracle(hda, q):
    word = sparse_decomposition(q)
    rel = {}
    if q.is_identity():
        for cid in hda.by_conclist(q.source_conclist()):
            rel[cid] = {cid}
        return rel
    src = word.steps[0].source_conclist()
    for x0 in hda.by_conclist(src):
        cur = {x0}
        for step in word.steps:
            if step.kind == "starter":
                cur = {y for y in hda.by_conclist(step.conclist)
                       if face(hda, y, 0, step.marked) in cur}
            else:
                cur = {face(hda, x, 1, step.marked) for x in cur}
            if not cur:
                break
        if cur:
            rel[x0] = cur
    return rel
