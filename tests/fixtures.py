"""Shared test fixtures: hand-built HDAs with known languages and
random generators for property tests.

The hand-built ones are small enough to reason about by hand; their
expected languages and counts are asserted in the test modules.
"""
import itertools
import random

from hdalang import (Cell, HDA, Ipomset, UPFunction, compose, identity_step,
                     starter, terminator)


def filled_square():
    """A filled ab-square whose start and accept sets include an edge, so
    the language has interface members.  Its language is the down-closure
    of six generators (see test_acceptance)."""
    cells = [
        Cell("v", (), (), ()), Cell("w", (), (), ()),
        Cell("x", (), (), ()), Cell("y", (), (), ()),
        Cell("e", ("a",), ("v",), ("w",)),
        Cell("f", ("a",), ("x",), ("y",)),
        Cell("g", ("b",), ("v",), ("x",)),
        Cell("h", ("b",), ("w",), ("y",)),
        Cell("q", ("a", "b"), ("g", "e"), ("h", "f")),
    ]
    return HDA(cells, ["v", "g"], ["h", "y", "g"])


def branching_square():
    """A filled ab-square glued to an alternative b;c route out of its
    right corner.  The language is not deterministic: after reading ab
    one may be on the square (c still possible) or on the detour (not)."""
    cells = [
        Cell("c00", (), (), ()), Cell("c10", (), (), ()),
        Cell("c01", (), (), ()), Cell("c11", (), (), ()),
        Cell("p", (), (), ()),
        Cell("bot", ("a",), ("c00",), ("c10",)),
        Cell("top", ("a",), ("c01",), ("c11",)),
        Cell("left", ("b",), ("c00",), ("c01",)),
        Cell("right", ("b",), ("c10",), ("c11",)),
        Cell("q", ("a", "b"), ("left", "bot"), ("right", "top")),
        Cell("bq", ("b",), ("c10",), ("p",)),
        Cell("cq", ("c",), ("p",), ("c11",)),
    ]
    return HDA(cells, ["c00"], ["c11"])


def parallel_square(start=("v00",), accept=("v11",)):
    """One filled ab-square with plain corners; language {a||b} down."""
    cells = [
        Cell("v00", (), (), ()), Cell("v10", (), (), ()),
        Cell("v01", (), (), ()), Cell("v11", (), (), ()),
        Cell("ha0", ("a",), ("v00",), ("v10",)),
        Cell("ha1", ("a",), ("v01",), ("v11",)),
        Cell("vb0", ("b",), ("v00",), ("v01",)),
        Cell("vb1", ("b",), ("v10",), ("v11",)),
        Cell("sq", ("a", "b"), ("vb0", "ha0"), ("vb1", "ha1")),
    ]
    return HDA(cells, list(start), list(accept))


def a_loop():
    """One vertex with an a-labelled self-loop; language a* down."""
    return HDA([Cell("v", (), (), ()),
                Cell("e", ("a",), ("v",), ("v",))], ["v"], ["v"])


def one_letter_chain():
    """Deterministic one-letter HDA: a chain of nine vertices with filled
    squares over positions 1, 2 and 4 and a self-loop at the end.  Its
    start-dimension profile is (1,2,2,1,2,1,1,1,1) with preperiod 8 and
    period 1; the seventh vertex accepts."""
    cells = [Cell(f"v{n}", (), (), ()) for n in range(9)]
    for n in range(8):
        cells.append(Cell(f"e{n}", ("a",), (f"v{n}",), (f"v{n + 1}",)))
    cells.append(Cell("e8", ("a",), ("v8",), ("v8",)))
    for name, n in (("sqA", 1), ("sqB", 2), ("sqC", 4)):
        cells.append(Cell(name, ("a", "a"),
                          (f"e{n}", f"e{n}"), (f"e{n + 1}", f"e{n + 1}")))
    return HDA(cells, ["v0"], ["v7"])


def two_lane_loop():
    """Loop with two lanes through the same base vertex: one reads a||b
    then c then d, the other a then b then c||d.  Both lanes realise the
    word abcd, so the word (abcd)^n has at least 2^n accepting paths."""
    cells = [Cell("base", (), (), ())]
    cells += [Cell(n, (), (), ()) for n in ("w1", "w2", "w3", "w4",
                                            "u1", "u2", "u3", "u4")]
    cells += [
        Cell("ea1", ("a",), ("base",), ("w1",)),
        Cell("eb1", ("b",), ("base",), ("w2",)),
        Cell("eb2", ("b",), ("w1",), ("w3",)),
        Cell("ea2", ("a",), ("w2",), ("w3",)),
        Cell("sq_ab", ("a", "b"), ("eb1", "ea1"), ("eb2", "ea2")),
        Cell("ec", ("c",), ("w3",), ("w4",)),
        Cell("ed", ("d",), ("w4",), ("base",)),
        Cell("fa", ("a",), ("base",), ("u1",)),
        Cell("fb", ("b",), ("u1",), ("u2",)),
        Cell("ec1", ("c",), ("u2",), ("u3",)),
        Cell("ed1", ("d",), ("u2",), ("u4",)),
        Cell("ed2", ("d",), ("u3",), ("base",)),
        Cell("ec2", ("c",), ("u4",), ("base",)),
        Cell("sq_cd", ("c", "d"), ("ed1", "ec1"), ("ed2", "ec2")),
    ]
    return HDA(cells, ["base"], ["base"])


def ab_c_rectangle(c_first=False, prefix=""):
    """Two filled squares in a row: a;b horizontally, c vertically.  The
    maximal behaviour is (a then b) parallel to c; ``c_first`` flips the
    event order between the c event and the a, b events."""
    P = prefix

    def sq(name, h, hlab, left, right):
        if c_first:
            return Cell(name, ("c", hlab), (h, left), (f"{h}t", right))
        return Cell(name, (hlab, "c"), (left, h), (right, f"{h}t"))

    cells = [Cell(f"{P}p{i}{j}", (), (), ())
             for i in range(3) for j in range(2)]
    cells += [
        Cell(f"{P}ha", ("a",), (f"{P}p00",), (f"{P}p10",)),
        Cell(f"{P}hb", ("b",), (f"{P}p10",), (f"{P}p20",)),
        Cell(f"{P}hat", ("a",), (f"{P}p01",), (f"{P}p11",)),
        Cell(f"{P}hbt", ("b",), (f"{P}p11",), (f"{P}p21",)),
        Cell(f"{P}vc0", ("c",), (f"{P}p00",), (f"{P}p01",)),
        Cell(f"{P}vc1", ("c",), (f"{P}p10",), (f"{P}p11",)),
        Cell(f"{P}vc2", ("c",), (f"{P}p20",), (f"{P}p21",)),
    ]
    if c_first:
        cells += [
            Cell(f"{P}sq1", ("c", "a"), (f"{P}ha", f"{P}vc0"),
                 (f"{P}hat", f"{P}vc1")),
            Cell(f"{P}sq2", ("c", "b"), (f"{P}hb", f"{P}vc1"),
                 (f"{P}hbt", f"{P}vc2")),
        ]
    else:
        cells += [
            Cell(f"{P}sq1", ("a", "c"), (f"{P}vc0", f"{P}ha"),
                 (f"{P}vc1", f"{P}hat")),
            Cell(f"{P}sq2", ("b", "c"), (f"{P}vc1", f"{P}hb"),
                 (f"{P}vc2", f"{P}hbt")),
        ]
    return HDA(cells, [f"{P}p00"], [f"{P}p21"])


def hda_union(*parts):
    """Disjoint union; cell ids are prefixed with their part index."""
    cells, start, accept, alphabet = [], [], [], []
    for i, x in enumerate(parts):
        ren = {cid: f"u{i}_{cid}" for cid in x.cells}
        for c in x.cells.values():
            cells.append(Cell(ren[c.id], c.events,
                              tuple(ren[f] for f in c.lower),
                              tuple(ren[f] for f in c.upper)))
        start += [ren[s] for s in x.start]
        accept += [ren[s] for s in x.accept]
        alphabet += list(x.alphabet)
    return HDA(cells, start, accept, alphabet)


def cube(d):
    """The filled d-cube over letters a0..a{d-1}: coordinate i of a cell
    is 0 (a_i not started), 2 (running) or 1 (done).  It starts in the
    all-0 vertex and accepts in the all-1 vertex, so it has 3^d cells and
    accepts every ipomset subsumed by a0 || ... || a{d-1}."""
    def cid(t):
        return "c" + "".join(map(str, t))

    cells = []
    for t in itertools.product((0, 2, 1), repeat=d):
        run = [i for i in range(d) if t[i] == 2]
        cells.append(Cell(cid(t), tuple(f"a{i}" for i in run),
                          tuple(cid(t[:i] + (0,) + t[i + 1:]) for i in run),
                          tuple(cid(t[:i] + (1,) + t[i + 1:]) for i in run)))
    return HDA(cells, [cid((0,) * d)], [cid((1,) * d)],
               [f"a{i}" for i in range(d)])


def rectangle_pair():
    """Union of the two event-order variants of the ab||c rectangle."""
    return hda_union(ab_c_rectangle(False, "f"), ab_c_rectangle(True, "s"))


def track_hda(p, prefix="t"):
    """An HDA whose language is exactly the down-closure of the single
    ipomset p.  Cells are the consistent configurations of p: a set of
    finished events plus a set of running ones."""
    events = sorted(p.events())

    def valid(done, active):
        return all(e in done
                   for f in itertools.chain(done, active)
                   for e in events
                   if (e, f) in p.precedence)

    def order_key(active):
        def key(e):
            return sum(1 for f in active if (f, e) in p.event_order)
        return key

    def cid(done, active):
        return (f"{prefix}[" + ",".join(map(str, sorted(done)))
                + "|" + ",".join(map(str, sorted(active))) + "]")

    cells = []
    for done_sub in itertools.chain.from_iterable(
            itertools.combinations(events, r) for r in range(len(events) + 1)):
        done = frozenset(done_sub)
        rest = [e for e in events if e not in done]
        for act_sub in itertools.chain.from_iterable(
                itertools.combinations(rest, r) for r in range(len(rest) + 1)):
            active = frozenset(act_sub)
            if not valid(done, active):
                continue
            ordered = sorted(active, key=order_key(active))
            cells.append(Cell(
                cid(done, active),
                tuple(p.labels[e] for e in ordered),
                tuple(cid(done, active - {e}) for e in ordered),
                tuple(cid(done | {e}, active - {e}) for e in ordered)))
    start = cid(frozenset(), frozenset(p.source))
    accept = cid(frozenset(events) - set(p.target), frozenset(p.target))
    return HDA(cells, [start], [accept], sorted(set(p.labels)))


# --------------------------------------------------------------------------
# random generators

def random_ipomset(rng, alphabet="ab", max_events=6, max_width=None):
    """Random interval ipomset, built by walking a random alternating
    step word.  Interfaces come out of where the walk starts and stops."""
    width = max_width if max_width is not None else max_events
    budget = rng.randint(0, max_events)
    k0 = rng.randint(0, min(width, budget))
    conclist = tuple(rng.choice(alphabet) for _ in range(k0))
    budget -= k0
    steps = [identity_step(conclist)]
    kind = rng.choice(("starter", "terminator"))
    while rng.random() < 0.7:
        if kind == "starter":
            room = min(budget, width - len(conclist))
            if room < 1:
                break
            m = rng.randint(1, room)
            new = conclist
            positions = []
            for _ in range(m):
                at = rng.randint(0, len(new))
                new = new[:at] + (rng.choice(alphabet),) + new[at:]
                positions = [i if i < at else i + 1 for i in positions] + [at]
            steps.append(starter(new, positions))
            conclist = new
            budget -= m
        else:
            if not conclist:
                break
            m = rng.randint(1, len(conclist))
            marked = rng.sample(range(len(conclist)), m)
            steps.append(terminator(conclist, marked))
            conclist = tuple(l for i, l in enumerate(conclist)
                             if i not in set(marked))
        kind = "terminator" if kind == "starter" else "starter"
    return compose(steps)


def random_chaining_word(rng, alphabet="ab", max_events=8, max_width=4,
                         identity_chance=0.15):
    """A random chaining step word of at least two steps, drawn step by
    step rather than from an ipomset.  Starters and terminators come in
    any order, so the word is rarely sparse, identities are sprinkled in,
    and the walk goes on until its events are spent or, with probability
    0.1 after each step past the first, leaves a target interface
    (``random_ipomset`` stops with probability 0.3 before every step)."""
    events = rng.randint(1, max_events)
    conclist = tuple(rng.choice(alphabet)
                     for _ in range(rng.randint(0, min(max_width, events - 1))))
    fresh = events - len(conclist)
    steps = []
    while True:
        if rng.random() < identity_chance:
            steps.append(identity_step(conclist))
        moves = (["start"] if fresh and len(conclist) < max_width else []) + \
                (["stop"] if conclist else [])
        if not moves or (len(steps) > 1 and rng.random() < 0.1):
            break
        if rng.choice(moves) == "start":
            new = list(conclist)
            marked = []
            for _ in range(rng.randint(1, min(fresh, max_width - len(conclist)))):
                at = rng.randint(0, len(new))
                new.insert(at, rng.choice(alphabet))
                marked = [i + (i >= at) for i in marked] + [at]
            steps.append(starter(new, marked))
            fresh -= len(marked)
            conclist = tuple(new)
        else:
            marked = rng.sample(range(len(conclist)), rng.randint(1, len(conclist)))
            steps.append(terminator(conclist, marked))
            conclist = tuple(l for i, l in enumerate(conclist) if i not in marked)
    while len(steps) < 2:
        steps.append(identity_step(conclist))
    return steps


def random_step_word(p, rng, identity_chance=0.2):
    """A random decomposition of p into a valid step word.  Start and
    termination moves are interleaved randomly, with random group sizes,
    so the result is rarely sparse; identities are sprinkled in."""
    events = sorted(p.events())
    active = sorted(p.source,
                    key=lambda e: sum(1 for f in p.source
                                      if (f, e) in p.event_order))
    done, started = set(), set(active)

    def conclist():
        return tuple(p.labels[e] for e in active)

    steps = []
    if rng.random() < identity_chance:
        steps.append(identity_step(conclist()))
    while True:
        startable = [e for e in events if e not in started
                     and all(x in done for x, y in p.precedence if y == e)]
        stoppable = [e for e in active if e not in p.target
                     and all(f in started for f in events
                             if f != e and (e, f) not in p.precedence
                             and (f, e) not in p.precedence)]
        choices = (["start"] if startable else []) + \
                  (["stop"] if stoppable else [])
        if not choices:
            break
        if rng.choice(choices) == "start":
            group = rng.sample(startable, rng.randint(1, len(startable)))
            for e in group:
                at = sum(1 for f in active if (f, e) in p.event_order)
                active.insert(at, e)
            started.update(group)
            steps.append(starter(conclist(),
                                 [active.index(e) for e in group]))
        else:
            group = rng.sample(stoppable, rng.randint(1, len(stoppable)))
            steps.append(terminator(conclist(),
                                    [active.index(e) for e in group]))
            done.update(group)
            active = [e for e in active if e not in group]
        if rng.random() < identity_chance:
            steps.append(identity_step(conclist()))
    if not steps:
        steps.append(identity_step(conclist()))
    return steps


def random_hda(rng, max_cells=12, alphabet=("a", "b")):
    """Random grid-shaped HDA: a 2x1 block of potential squares with some
    squares filled, some extra edges, and random start/accept vertices."""
    ha, vb = alphabet
    while True:
        squares = [(i, 0) for i in range(2) if rng.random() < 0.5]
        edges = set()
        for (i, j) in squares:
            edges |= {("h", i, j), ("h", i, j + 1),
                      ("v", i, j), ("v", i + 1, j)}
        for i in range(2):
            for j in range(2):
                if rng.random() < 0.5:
                    edges.add(("h", i, j))
        for i in range(3):
            if rng.random() < 0.4:
                edges.add(("v", i, 0))
        vertices = set()
        for kind, i, j in edges:
            vertices.add((i, j))
            vertices.add((i + 1, j) if kind == "h" else (i, j + 1))
        if not vertices:
            vertices = {(0, 0)}
        if len(vertices) + len(edges) + len(squares) > max_cells:
            continue

        def vid(v):
            return f"p{v[0]}{v[1]}"

        def eid(e):
            return f"{e[0]}{e[1]}{e[2]}"

        cells = [Cell(vid(v), (), (), ()) for v in sorted(vertices)]
        for e in sorted(edges):
            kind, i, j = e
            tgt = (i + 1, j) if kind == "h" else (i, j + 1)
            cells.append(Cell(eid(e), (ha if kind == "h" else vb,),
                              (vid((i, j)),), (vid(tgt),)))
        for (i, j) in squares:
            cells.append(Cell(f"sq{i}{j}", (ha, vb),
                              (eid(("v", i, j)), eid(("h", i, j))),
                              (eid(("v", i + 1, j)), eid(("h", i, j + 1)))))
        vs = sorted(vertices)
        start = [vid(v) for v in vs if rng.random() < 0.4]
        accept = [vid(v) for v in vs if rng.random() < 0.4]
        if not start:
            start = [vid(rng.choice(vs))]
        if not accept:
            accept = [vid(rng.choice(vs))]
        return HDA(cells, start, accept, alphabet)


def random_up(rng, max_total=6, max_dim=3):
    """Random valid UP-representation with minimal period and preperiod."""
    while True:
        r = rng.randint(1, min(3, max_total))
        s = rng.randint(0, max_total - r)
        f = tuple(rng.randint(1, max_dim) for _ in range(s + r))
        if any(f[n + 1] < f[n] - 1 for n in range(s + r - 1)):
            continue
        if f[s] < f[s + r - 1] - 1:
            continue
        tau = tuple(frozenset(k for k in range(fn + 1) if rng.random() < 0.3)
                    for fn in f)
        entries = list(zip(f, tau))
        d = next(d for d in range(1, r + 1)
                 if r % d == 0 and all(entries[s + i] == entries[s + i % d]
                                       for i in range(r)))
        while s > 0 and entries[s - 1] == entries[s - 1 + d]:
            s -= 1
        entries = entries[:s + d]
        return UPFunction(d, s, tuple(e[0] for e in entries),
                          tuple(e[1] for e in entries))


def accepted_once():
    """A stand-in for ``hda.accepts`` that holds on its first call only:
    in ``pump`` that is the check of the glued input, so every pumped
    member then fails it."""
    calls = []

    def accepts(hda, p):
        calls.append(p)
        return len(calls) == 1
    return accepts
