"""Slow reference implementations used to cross-check the library.

Everything in here is written for clarity over speed and avoids the
library's own shortcuts: subsumption tries every bijection, width tries
every subset, and step-word normalisation works on raw index bookkeeping
instead of going through glue.  Composition is the left fold of a
relation-level glue over one ipomset per step, and the sparse
decomposition is found by greedy simulation on the relations.  That
simulation now lives only here: the library composes words in one pass
and carries the result's word, and reads the word of an ipomset built
from relations off the chain of its predecessor sets.  The ST-automaton
reference builds a
fresh automaton on every call and steps its word NFA by scanning every
transition, as the library did before it compiled each HDA once into an
index of steps.  Its runs step pairs of in- and out-nodes per state,
as the library did before it stepped plain state sets; quotient pairs
get HDAs of their own and bounded complements run on the skeleton, as
the library did before it asked both of the automaton compiled once.
The weighted walks are the two loops the library had before it shared
one.  Dense words come from a simulation of their own, ``sparsify`` merges
moves by hand, ``supersumptions`` filters subsets of the precedence and
orientations of the pairs it drops, and the letters within width k are
generated by separate loops, as the library did before it split, merged
and generated step words one way each.  HDA validation looks each face
up through a call, and the successor index is built from a stored set of
triples grouped by step, as the library did before it read faces from a
local table and indexed each transition as it arrived.  The index is also
built one transition at a time, each row sorted by step key afterwards,
and composite faces are found through a dict keyed by position tuples, as
the library did before it compiled cells through per-dimension face
tables and added the steps to the rows in key order.  The bounded
complement automaton is determinised by a search with its own start loop
and letter loop, as the library did before it ran the subset construction
over the rows of the width-k universe.  One-letter analysis walks an
HDA completed with sink cells, as the library did before it walked the
given HDA with a sink of its own.  Bracket notation is read by a
character scanner, as the library did before it matched each bracket
with one compiled pattern.  The loader checks each field of a cell
through a helper of its own, a step sorts its marks and filters its
conclist each time it is built, and the compiled groups are made in
face-table order and sorted into key order afterwards, as the library
did before it checked a cell in one pass, looked a step's layout up by
(marks, width) and made the groups in key order.  A step word's chaining
is checked pair by pair on interfaces worked out from each step's kind,
conclist and marks, as the library did before it compared the lists of
its steps' stored interfaces.
"""
import itertools
from collections import deque

from hdalang import (HDA, Cell, IdentityHasNoDenseDecomposition,
                     InterfaceMismatch, InvalidIpomset, Ipomset, Move,
                     NotUPRepresentable, ParseError, Path, Problem,
                     STAutomaton, StepWord, UPFunction, WidthExceeded,
                     coherent_word, compose, face, identity_ipomset,
                     identity_step, is_deterministic_hda, skeleton,
                     sparse_decomposition, starter, subsumes, terminator,
                     validate_path, word_ipomset_of)
from hdalang.hda import (InvalidHDA, _face_columns, _face_table,
                         composite_faces, reachable)
from hdalang.ipomset import _KINDS, Step, _letters
from hdalang.stauto import _post, _starting
from hdalang.text import _LABEL_CHARS


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


def parse_step_word_oracle(text):
    """Parse bracket notation into a step word, one character at a time.

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


def step_word_oracle(steps):
    """``StepWord(steps).steps``: the steps as a tuple, or
    InterfaceMismatch at the first step whose target conclist is not the
    source conclist of the step after it.  Each interface is the conclist
    without the marked events, on the side the step's kind names."""
    def without_marked(step):
        return tuple(label for i, label in enumerate(step.conclist)
                     if i not in step.marked)

    steps = tuple(steps)
    if not steps:
        raise ValueError("a step word has at least one step")
    for i in range(len(steps) - 1):
        left, right = steps[i], steps[i + 1]
        end = without_marked(left) if left.kind == "terminator" else left.conclist
        start = (without_marked(right) if right.kind == "starter"
                 else right.conclist)
        if end != start:
            raise InterfaceMismatch(
                f"step {i} ends in {end} but step {i + 1} starts from {start}",
                position=i)
    return steps


def up_steps_oracle(hda):
    """``HDA.up_steps`` with every lower face found through ``face``."""
    graph = {cid: [] for cid in hda.cells}
    for y in hda.cells.values():
        for r in range(1, y.dim + 1):
            for a in itertools.combinations(range(y.dim), r):
                graph[face(hda, y.id, 0, a)].append((frozenset(a), y.id))
    return graph


def hda_problems_oracle(cells, start, accept):
    """The problems ``HDA(cells, start, accept)`` reports, in order, with
    the precubical identities checked through a face lookup per call, as
    the library did before it read the faces from a local table."""
    out, cell_map = [], {}
    for c in cells:
        if c.id in cell_map:
            out.append(Problem("DuplicateCell", (c.id,),
                               f"cell id {c.id!r} appears twice"))
        cell_map[c.id] = c
    start, accept = frozenset(start), frozenset(accept)

    def elem(cell_id, side, i):
        c = cell_map[cell_id]
        return (c.lower if side == 0 else c.upper)[i]

    found = []
    for name, ids in (("start", start), ("accept", accept)):
        for i in sorted(ids - set(cell_map)):
            found.append(Problem("DanglingReference", (i,),
                                 f"{name} cell {i!r} does not exist"))
    for c in cell_map.values():
        if len(c.lower) != c.dim or len(c.upper) != c.dim:
            found.append(Problem(
                "FaceArityMismatch", (c.id,),
                f"cell {c.id!r} has dimension {c.dim} but "
                f"{len(c.lower)} lower and {len(c.upper)} upper faces"))
            continue
        broken = False
        for fid in c.lower + c.upper:
            if fid not in cell_map:
                found.append(Problem("DanglingReference", (c.id, fid),
                                     f"face {fid!r} of cell {c.id!r} "
                                     "does not exist"))
                broken = True
        if broken:
            continue
        expect = [c.events[:i] + c.events[i + 1:] for i in range(c.dim)]
        for side, faces in (("lower", c.lower), ("upper", c.upper)):
            for i, fid in enumerate(faces):
                if cell_map[fid].events != expect[i]:
                    found.append(Problem(
                        "FaceLabelMismatch", (c.id, fid),
                        f"{side} face {i} of {c.id!r} should have events "
                        f"{expect[i]}, but {fid!r} has "
                        f"{cell_map[fid].events}"))
    if found:
        return out + found
    for c in cell_map.values():
        for i, j in itertools.combinations(range(c.dim), 2):
            for t1, t2 in itertools.product((0, 1), repeat=2):
                a = elem(elem(c.id, t2, j), t1, i)
                b = elem(elem(c.id, t1, i), t2, j - 1)
                if a != b:
                    found.append(Problem(
                        "PrecubicalIdentityViolation", (c.id, i, j),
                        f"faces of {c.id!r} at coordinates {i},{j} "
                        f"(sides {t1},{t2}) disagree: {a!r} vs {b!r}"))
    return out + found


def hda_from_dict_oracle(data):
    """``hda_from_dict`` as the library had it before it checked a cell's
    id and lists in one pass: every field of every cell through a helper
    of its own, each list of strings checked on its own."""
    problems = []

    def as_strings(value):
        if (isinstance(value, (list, tuple))
                and all(map(isinstance, value, itertools.repeat(str)))):
            return tuple(value)
        return None

    def wrong(value, field, kind):
        problems.append(Problem("FieldType", (field,), f"{field} must be "
                                f"{kind}, got {value!r}"))

    def strings(value, field):
        got = as_strings(value)
        if got is None:
            wrong(value, field, "a list of strings")
        return got or ()

    try:
        cells = []
        for i, c in enumerate(data["cells"]):
            cid = c["id"]
            events, d0, d1 = (as_strings(c["events"]), as_strings(c["d0"]),
                              as_strings(c["d1"]))
            if (isinstance(cid, str) and events is not None
                    and d0 is not None and d1 is not None):
                cells.append(Cell(cid, events, d0, d1))
                continue
            if not isinstance(cid, str):
                wrong(cid, f"id of cell {i}", "a string")
            for key in ("events", "d0", "d1"):
                strings(c[key], f"{key} of {cid!r}")
        start = strings(data["start"], "start")
        accept = strings(data["accept"], "accept")
        alphabet = strings(data.get("alphabet", []), "alphabet")
    except (KeyError, TypeError) as exc:
        raise InvalidHDA([Problem("Malformed", (), "malformed automaton "
                                  f"data: {exc}")]) from None
    if problems:
        raise InvalidHDA(problems)
    return HDA(cells, start, accept, alphabet)


def step_fields_oracle(kind, conclist, marked):
    """What ``Step(kind, conclist, marked)`` holds, as its constructor
    worked it out before it looked the sorted marks and the unmarked
    positions up by (marks, width): ``(key, hash, source conclist,
    target conclist)``, or the ValueError it raises."""
    if kind not in _KINDS:
        raise ValueError(f"unknown step kind: {kind}")
    ordered = tuple(sorted(marked))
    if ordered and (ordered[0] < 0 or ordered[-1] >= len(conclist)):
        for p in marked:
            if not (0 <= p < len(conclist)):
                raise ValueError(f"marked position out of range: {p}")
    if (kind == "identity") != (not marked):
        raise ValueError("identity steps are exactly the unmarked ones")
    rest = (tuple([l for i, l in enumerate(conclist) if i not in marked])
            if marked else conclist)
    return ((kind, conclist, ordered), hash((kind, conclist, marked)),
            rest if kind == "starter" else conclist,
            rest if kind == "terminator" else conclist)


# --------------------------------------------------------------------------
# ST-automata: uncached construction and linear-scan runs

def st_transitions_oracle(hda):
    """The transitions of the ST-automaton of hda: composite faces
    through ``face`` and a new Step object for every transition."""
    transitions = []
    for y in hda.cells.values():
        for r in range(1, y.dim + 1):
            for a in itertools.combinations(range(y.dim), r):
                transitions.append(
                    (face(hda, y.id, 0, a), starter(y.events, a), y.id))
                transitions.append(
                    (y.id, terminator(y.events, a), face(hda, y.id, 1, a)))
    return transitions


def st_of_hda_oracle(hda):
    """The ST-automaton of hda, built anew from
    ``st_transitions_oracle``."""
    states = {cid: c.events for cid, c in hda.cells.items()}
    return STAutomaton(hda.alphabet, states, st_transitions_oracle(hda),
                       hda.start, hda.accept, width_bound=hda.dim())


def compile_oracle(hda):
    """``st_of_hda`` compiled anew as the library did before it made the
    groups in step key order: conclists in the order of
    ``HDA.by_conclist`` and positions in face-table order, the starter
    and terminator of each position one after the other, all sorted into
    key order by ``_rows``."""
    hda.by_conclist(())
    groups = []
    for events, ids in hda._by_conclist.items():
        d = len(events)
        lower = _face_columns(hda, d, ids, 0)
        upper = _face_columns(hda, d, ids, 1)
        for (_, a, _, _), xs, zs in zip(_face_table(d), lower[1:], upper[1:]):
            groups += ((Step("starter", events, a), xs, ids),
                       (Step("terminator", events, a), ids, zs))
    return STAutomaton(hda.alphabet,
                       {c.id: c.events for c in hda.cells.values()}, (),
                       hda.start, hda.accept, width_bound=hda.dim(),
                       _groups=groups)


def successors_oracle(states, transitions):
    """The successor index of valid transitions as the library built it
    from a stored set of triples: grouped by step, steps in key order,
    each row's targets appended in sorted (source, target) order."""
    by_step = {}
    for q, s, r in set(transitions):
        by_step.setdefault(s, []).append((q, r))
    index = {q: {} for q in states}
    for s in sorted(by_step, key=lambda s: s.key()):
        for q, r in sorted(by_step[s]):
            index[q][s] = index[q].get(s, ()) + (r,)
    return index


def index_oracle(states, transitions):
    """The successor index of valid transitions as the library built it
    one transition at a time: a row entry per new (state, step) pair,
    targets merged into a sorted tuple, and every row sorted by step key
    at the end."""
    index = {q: {} for q in states}
    for q, s, r in transitions:
        targets = index[q].setdefault(s, (r,))
        if r not in targets:
            index[q][s] = tuple(sorted(targets + (r,)))
    return {q: {s: row[s] for s in sorted(row, key=lambda s: s.key())}
            for q, row in index.items()}


def composite_faces_oracle(hda, cell):
    """``composite_faces`` as a list, each face found one face map away
    from the face at ``a[1:]`` in a dict keyed by position tuples."""
    lower, upper, out = {(): cell.id}, {(): cell.id}, []
    for r in range(1, cell.dim + 1):
        for a in itertools.combinations(range(cell.dim), r):
            lower[a] = hda.cells[lower[a[1:]]].lower[a[0]]
            upper[a] = hda.cells[upper[a[1:]]].upper[a[0]]
            out.append((a, lower[a], upper[a]))
    return out


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


def pairs_oracle(a, a_start, b, b_start):
    """The plain pair search: breadth-first over (a-state, b-set) pairs
    from ``a_start`` in the order given, every b-set a fresh frozenset
    and every step through ``_post``."""
    queue = deque((q, _starting(b, b_start, a.states[q]), ())
                  for q in a_start)
    seen = {(q, bset) for q, bset, _ in queue}
    while queue:
        q, bset, word = item = queue.popleft()
        yield item
        for step, targets in a.successors[q].items():
            bnext = _post(b, bset, step) if bset else bset
            for r in targets:
                if (r, bnext) not in seen:
                    seen.add((r, bnext))
                    queue.append((r, bnext, word + (step,)))


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
    for q in supersumptions_oracle(p, k):
        if not member_oracle(a, q):
            return True, q
    return False, None


def complement_empty_oracle(x, k):
    return emptiness_oracle(
        complement_words_oracle(st_of_hda_oracle(skeleton(x, k)), width=k))


def complement_words_oracle(a, width=None):
    """The complement automaton determinised by a search of its own: every
    conclist within the width is a start, and each state's letters come
    straight from ``_letters``."""
    k = a.width_bound if width is None else width
    if k is None:
        raise ValueError("no width bound: pass one explicitly")
    letters = sorted(a.alphabet)

    def state_id(cl, dset):
        return "(" + " ".join(cl) + ")" + "{" + " ".join(sorted(dset)) + "}"

    states = {}
    transitions = []
    initial = []
    final = []
    queue = deque()
    for cl in [cl for n in range(k + 1)
               for cl in itertools.product(letters, repeat=n)]:
        dset = _starting(a, a.initial, cl)
        sid = state_id(cl, dset)
        initial.append(sid)
        if sid not in states:
            states[sid] = cl
            queue.append((cl, dset))
    while queue:
        cl, dset = queue.popleft()
        sid = state_id(cl, dset)
        if not (dset & a.final):
            final.append(sid)
        for letter in _letters(cl, letters, k - len(cl)):
            nxt = _post(a, dset, letter)
            target_cl = letter.target_conclist()
            tid = state_id(target_cl, nxt)
            if tid not in states:
                states[tid] = target_cl
                queue.append((target_cl, nxt))
            transitions.append((sid, letter, tid))
    return STAutomaton(a.alphabet, states, transitions, initial, final,
                       width_bound=k)


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


# --------------------------------------------------------------------------
# step words: the dense simulation, the hand merge of moves, the subset
# search for supersumptions and the separate letter loops

def dense_decomposition_oracle(p):
    """Simulation on the relations: while any event can start, start the
    one least in event order; otherwise terminate the terminable event
    least in event order."""
    if p.is_identity():
        raise IdentityHasNoDenseDecomposition(
            "identities have size 0 and admit no elementary decomposition")

    def concurrent(x, y):
        return x != y and (x, y) not in p.precedence and (y, x) not in p.precedence

    started, terminated = set(p.source), set()
    steps = []
    while True:
        a = [x for x in p.events() if x not in started and all(
            y in terminated for (y, z) in p.precedence if z == x)]
        b = [x for x in started if x not in terminated and x not in p.target
             and all(y in started for y in p.events() if concurrent(x, y))]
        if not a and not b:
            break
        x = _by_event_order(p, a or b)[0]
        if a:
            started.add(x)
        idx = _by_event_order(p, started - terminated)
        labels = tuple(p.labels[i] for i in idx)
        if a:
            steps.append(starter(labels, {idx.index(x)}))
        else:
            steps.append(terminator(labels, {idx.index(x)}))
            terminated.add(x)
    word = StepWord(steps)
    assert len(word) == 2 * p.size()
    return word


def sparsify_oracle(hda, path):
    """Merge adjacent same-direction moves by index bookkeeping: a merged
    up move lifts the earlier positions through the later cell's
    surviving coordinates, a merged down move lifts the later positions
    through the earlier source cell's."""
    validate_path(hda, path)

    def embed(removed, n):
        return [i for i in range(n) if i not in removed]

    cur = path.origin
    out = []
    prev = [cur]  # source cell of each accumulated move
    for m in path.moves:
        if not m.positions:
            cur = m.target
            continue
        if out and out[-1].direction == m.direction == "up":
            emb = embed(m.positions, hda.cells[m.target].dim)
            merged = m.positions | {emb[i] for i in out[-1].positions}
            out[-1] = Move("up", merged, m.target)
        elif out and out[-1].direction == m.direction == "down":
            emb = embed(out[-1].positions, hda.cells[prev[-1]].dim)
            merged = out[-1].positions | {emb[i] for i in m.positions}
            out[-1] = Move("down", merged, m.target)
        else:
            prev.append(cur)
            out.append(m)
        cur = m.target
    return Path(path.origin, tuple(out))


def supersumptions_oracle(p, k):
    """Every transitive subset of p's precedence as the candidate's
    precedence, every orientation of the pairs it drops with the event
    order forced on pairs concurrent in p, each candidate validated,
    decomposed and checked with ``subsumes``; deduplicated by key and
    sorted."""
    if p.width() > k:
        raise WidthExceeded(f"width {p.width()} exceeds bound {k}")
    pairs = sorted(p.precedence)
    forced = [(x, y) for (x, y) in p.event_order if p.concurrent(x, y)]
    seen = {}
    for keep_mask in range(1 << len(pairs)):
        kept = {pairs[i] for i in range(len(pairs)) if keep_mask >> i & 1}
        if any((a, c) not in kept
               for (a, b) in kept for (b2, c) in kept if b == b2 and a != c):
            continue
        dropped = sorted({tuple(sorted(pair)) for pair in set(pairs) - kept})
        for bits in range(1 << len(dropped)):
            order = list(forced)
            for i, (a, b) in enumerate(dropped):
                order.append((a, b) if bits >> i & 1 == 0 else (b, a))
            try:
                q = Ipomset(p.labels, kept, order, p.source, p.target)
            except InvalidIpomset:
                continue
            if q.width() <= k and subsumes(p, q) and q.key() not in seen:
                seen[q.key()] = q
    return sorted(seen.values(), key=lambda q: q.key())


def _insertions_oracle(base, m, alphabet):
    total = len(base) + m
    for new_pos in itertools.combinations(range(total), m):
        for labs in itertools.product(alphabet, repeat=m):
            out, old, new = [], iter(base), iter(labs)
            for i in range(total):
                out.append(next(new) if i in new_pos else next(old))
            yield tuple(out), frozenset(new_pos)


def width_letters_oracle(conclist, alphabet, k):
    """Every nonidentity step leaving ``conclist`` within width k."""
    n = len(conclist)
    for r in range(1, n + 1):
        for marked in itertools.combinations(range(n), r):
            yield terminator(conclist, marked)
    for add in range(1, k - n + 1):
        for new_cl, pos in _insertions_oracle(conclist, add, alphabet):
            yield starter(new_cl, pos)


def enumerate_ipomsets_oracle(alphabet, max_events, max_width=None):
    """The sparse-word walk with terminators and starters generated by
    loops of its own."""
    width = max_events if max_width is None else min(max_width, max_events)
    sources = [c for n in range(width + 1)
               for c in itertools.product(alphabet, repeat=n)]

    def walk(conclist, steps, used, last):
        yield steps
        if last != "terminator" and conclist:
            for rm in range(1, len(conclist) + 1):
                for marked in itertools.combinations(range(len(conclist)), rm):
                    st = terminator(conclist, marked)
                    yield from walk(st.target_conclist(), steps + (st,),
                                    used, "terminator")
        if last != "starter":
            room = min(max_events - used, width - len(conclist))
            for add in range(1, room + 1):
                for new_cl, pos in _insertions_oracle(conclist, add, alphabet):
                    st = starter(new_cl, pos)
                    yield from walk(new_cl, steps + (st,), used + add, "starter")

    for src in sources:
        for steps in walk(src, (), len(src), ""):
            yield compose(StepWord(steps)) if steps else identity_ipomset(src)


def match_automaton_oracle(alphabet, k):
    """One state per conclist; every starter into it and every
    terminator out of it."""
    def sid(cl):
        return "(" + " ".join(cl) + ")"

    letters = sorted(alphabet)
    conclists = [cl for n in range(k + 1)
                 for cl in itertools.product(letters, repeat=n)]
    states = {sid(cl): cl for cl in conclists}
    transitions = []
    for cl in conclists:
        for r in range(1, len(cl) + 1):
            for marked in itertools.combinations(range(len(cl)), r):
                up, down = starter(cl, marked), terminator(cl, marked)
                transitions.append((sid(up.source_conclist()), up, sid(cl)))
                transitions.append((sid(cl), down, sid(down.target_conclist())))
    return STAutomaton(alphabet, states, transitions,
                       states.keys(), states.keys(), width_bound=k)


# --------------------------------------------------------------------------
# one-letter analysis on the completed HDA

def _out_edges(hda: HDA) -> dict[str, list[str]]:
    """The edges leaving each cell: those whose lower face it is."""
    out_edges: dict[str, list[str]] = {cid: [] for cid in hda.cells}
    for c in hda.cells.values():
        if c.dim == 1:
            out_edges[c.lower[0]].append(c.id)
    return out_edges


def _completed(hda: HDA, letter: str) -> HDA:
    """Give every outgoing-edge-less vertex an edge to a fresh sink vertex
    carrying a self-loop; the language does not change."""
    out_edges = _out_edges(hda)
    stuck = [cid for cid, c in sorted(hda.cells.items())
             if c.dim == 0 and not out_edges[cid]]
    if not stuck:
        return hda
    sink = "sink"
    while any(cid == sink or cid.startswith(sink + "_") for cid in hda.cells):
        sink += "_"
    cells = list(hda.cells.values())
    cells.append(Cell(sink, (), (), ()))
    cells.append(Cell(sink + "_loop", (letter,), (sink,), (sink,)))
    for i, cid in enumerate(stuck):
        cells.append(Cell(f"{sink}_in{i}", (letter,), (cid,), (sink,)))
    return HDA(cells, hda.start, hda.accept, hda.alphabet)


def _corner(hda: HDA, cell_id: str) -> str:
    return face(hda, cell_id, 0, range(hda.cells[cell_id].dim))


def analyze_oracle(hda: HDA) -> UPFunction:
    """The minimal ultimately periodic description of a one-letter HDA.

    Raises NotUPRepresentable when the automaton is not over exactly one
    letter, does not start in a single vertex, has inaccessible cells, or
    is not deterministic.
    """
    if len(hda.alphabet) != 1:
        raise NotUPRepresentable(
            "NotOneLetter",
            f"alphabet {sorted(hda.alphabet)} does not have exactly one letter")
    letter = next(iter(hda.alphabet))
    if len(hda.start) != 1:
        raise NotUPRepresentable(
            "MultipleStartCells",
            f"need exactly one start cell, got {sorted(hda.start)}")
    v0 = next(iter(hda.start))
    if hda.cells[v0].dim != 0:
        raise NotUPRepresentable(
            "MultipleStartCells",
            f"start cell {v0!r} has dimension {hda.cells[v0].dim}, not 0")

    seen = reachable(hda, [v0])
    missing = sorted(set(hda.cells) - seen)
    if missing:
        raise NotUPRepresentable(
            "NotAccessible", f"cells {missing} are unreachable from {v0!r}")

    hda = _completed(hda, letter)
    ok, why = is_deterministic_hda(hda)
    if not ok:
        raise NotUPRepresentable("NotDeterministic", why)

    out_edges = _out_edges(hda)

    walk = [v0]
    index = {v0: 0}
    while True:
        edges = sorted(out_edges[walk[-1]])
        if len(edges) > 1:
            raise NotUPRepresentable(
                "NotDeterministic",
                f"vertex {walk[-1]!r} has outgoing edges {edges}")
        nxt = hda.cells[edges[0]].upper[0]
        if nxt in index:
            s0 = index[nxt]
            r0 = len(walk) - s0
            break
        index[nxt] = len(walk)
        walk.append(nxt)

    f0 = [0] * len(walk)
    tau0 = [set() for _ in walk]
    for cid, c in hda.cells.items():
        corner = _corner(hda, cid)
        if corner not in index:
            raise NotUPRepresentable(
                "NotAccessible",
                f"cell {cid!r} sits over {corner!r}, which is off the "
                "vertex walk")
        n = index[corner]
        f0[n] = max(f0[n], c.dim)
        if cid in hda.accept:
            tau0[n].add(c.dim)

    def entry(n: int) -> tuple[int, frozenset[int]]:
        m = n if n < s0 + r0 else s0 + (n - s0) % r0
        return f0[m], frozenset(tau0[m])

    r = next(rr for rr in range(1, r0 + 1)
             if r0 % rr == 0
             and all(entry(s0 + i) == entry(s0 + i % rr) for i in range(r0)))
    s = s0
    while s > 0 and entry(s - 1) == entry(s - 1 + r):
        s -= 1
    return UPFunction(r, s, tuple(entry(n)[0] for n in range(s + r)),
                      tuple(entry(n)[1] for n in range(s + r)))
