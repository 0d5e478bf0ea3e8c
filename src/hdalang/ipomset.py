"""Interval pomsets with interfaces (ipomsets) and their step algebra.

An ipomset is a finite set of labelled events carrying two strict partial
orders, precedence and event order, together with a source and a target
interface.  Any two distinct events are comparable in at least one of the
two orders.  Precedence must be an interval order, interfaces must be
extremal, and isomorphic ipomsets are treated as equal (there is at most
one isomorphism between two ipomsets, so this is sound).

Events are addressed by index 0..n-1; labels live in ``labels``.  Both
relations read transitively closed.  The canonical form of an ipomset is
its sparse step decomposition, which also serves as equality and hash
key.

Every ipomset made from a step word comes from ``compose``, which takes
the labels and the word with identities dropped and neighbouring steps
of one kind merged (``_merge_word``), its sparse decomposition.  A
chaining word always gives a valid interval ipomset, so ``compose``
closes and checks nothing.  The rest is derived in one step on first
read, by replaying the word (``_replay``): the interfaces, the interval
form (Fishburn), which gives each event its start and end step, then
``precedence`` (x precedes y exactly when x ends at an earlier step than
y starts) and ``event_order`` (the closure of the neighbours in each
step's conclist).  Ipomsets built from raw relations are closed and
validated, and then put in the same interval form (``_interval_form``):
the distinct predecessor sets form a chain, whose levels are the start
and end steps and spell the sparse word.
Keys, widths, interface conclists and printing read the word; ``glue`` composes
the operands' words, dense words split its steps, and ``supersumptions``
composes alternating words over p's own events.  ``_letters`` generates
the steps leaving a conclist.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


# --------------------------------------------------------------------------
# problems and errors

@dataclass(frozen=True)
class Problem:
    """One violated invariant: a code, the offending subjects, and prose."""
    code: str
    subjects: tuple
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class Invalid(ValueError):
    """A value that breaks its invariants; ``problems`` lists every one."""

    def __init__(self, problems: Iterable[Problem]):
        self.problems = tuple(problems)
        super().__init__("; ".join(map(str, self.problems)))


class InvalidIpomset(Invalid):
    pass


class InterfaceMismatch(ValueError):
    """Gluing was attempted across interfaces that are not the same conclist."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        super().__init__(message)


class WidthExceeded(ValueError):
    pass


class IdentityHasNoDenseDecomposition(ValueError):
    pass


class ParseError(ValueError):
    """Bad ipomset text; ``position`` is a character offset into the input."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at {position}: {message}")


# --------------------------------------------------------------------------
# relation helpers

def _closure(n: int, pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Transitive closure of a relation on 0..n-1, via bitmask rows."""
    rows = [0] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"event index out of range: ({a}, {b})")
        rows[a] |= 1 << b
    for k in range(n):
        bit = 1 << k
        row_k = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return frozenset((i, j) for i in range(n)
                     for j in range(n) if rows[i] >> j & 1)


def _problems(labels, precedence, event_order, source, target) -> list[Problem]:
    n = len(labels)
    out: list[Problem] = []
    for rel, name in ((precedence, "precedence"), (event_order, "event order")):
        cyclic = sorted({x for (x, y) in rel if x == y})
        if cyclic:
            out.append(Problem("NotPartialOrder", tuple(cyclic),
                               f"{name} has a cycle through events {cyclic}"))
    for x, y in itertools.combinations(range(n), 2):
        if not ((x, y) in precedence or (y, x) in precedence
                or (x, y) in event_order or (y, x) in event_order):
            out.append(Problem("IncomparablePair", (x, y),
                               f"events {x} and {y} are unrelated in both orders"))
    for x in source:
        below = sorted(y for (y, z) in precedence if z == x and y != x)
        if below:
            out.append(Problem("InterfaceNotExtremal", (x,),
                               f"source event {x} has predecessors {below}"))
    for x in target:
        above = sorted(z for (y, z) in precedence if y == x and z != x)
        if above:
            out.append(Problem("InterfaceNotExtremal", (x,),
                               f"target event {x} has successors {above}"))
    # Interval orders are exactly the 2+2-free ones: no x<y, z<w with x!<w,
    # z!<y, which is the same as the predecessor sets forming a chain.
    # Events on a precedence cycle, reported above, are left out.
    looped = {x for (x, y) in precedence if x == y}
    pred = [0] * n
    for x, y in precedence:
        if x not in looped and y not in looped:
            pred[y] |= 1 << x
    for y, w in itertools.combinations(range(n), 2):
        a, b = pred[y], pred[w]
        if a & ~b and b & ~a:
            x = (a & ~b).bit_length() - 1
            z = (b & ~a).bit_length() - 1
            out.append(Problem("NotInterval", (x, y, z, w),
                               f"2+2 configuration: {x}<{y} and {z}<{w} "
                               f"with {x}!<{w} and {z}!<{y}"))
            break
    return out


def validate_ipomset(labels, precedence=(), event_order=(),
                     source=(), target=()) -> list[Problem]:
    """Check raw ipomset data as ``Ipomset`` does (an index out of range
    raises ValueError); return every violated invariant (empty = valid)."""
    try:
        Ipomset(labels, precedence, event_order, source, target)
    except InvalidIpomset as exc:
        return list(exc.problems)
    return []


# --------------------------------------------------------------------------
# the ipomset value

class Ipomset:
    """An interval pomset with interfaces.

    Built from raw relations, it is closed and validated at construction,
    keeps both closures and reads its interval form and sparse word off
    its predecessor sets (``_interval_form``).  ``compose`` passes the
    labels and the private ``_composed`` (the steps it was given, the
    merged word); that ipomset is valid by construction, and the first
    read of its interfaces, interval form, ``precedence`` or
    ``event_order`` derives and keeps them all at once (``_replay``).
    The width is read off the word, once.
    """

    __slots__ = ("labels", "precedence", "event_order", "source", "target",
                 "_starts", "_ends", "_steps", "_word", "_key",
                 "_hash", "_width")

    def __init__(self, labels: Sequence[str], precedence=(), event_order=(),
                 source=(), target=(), *, _composed=None):
        self.labels = labels = tuple(labels)
        self._key = self._hash = self._width = None
        if _composed is not None:
            self._steps, self._word = _composed
            return
        self.source = source = frozenset(source)
        self.target = target = frozenset(target)
        n = len(labels)
        prec = _closure(n, precedence)
        ev = _closure(n, event_order)
        for s in (source, target):
            for x in s:
                if not (0 <= x < n):
                    raise ValueError(f"interface event out of range: {x}")
        problems = _problems(labels, prec, ev, source, target)
        if problems:
            raise InvalidIpomset(problems)
        self.precedence = prec
        self.event_order = ev
        _interval_form(self)

    def __getattr__(self, name: str):
        # reached only while the fields of a composed ipomset are
        # underived; ``_replay`` stores them all in their slots at once
        if name not in ("source", "target", "precedence", "event_order",
                        "_starts", "_ends"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        _replay(self)
        return object.__getattribute__(self, name)

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def events(self) -> range:
        return range(len(self.labels))

    def concurrent(self, x: int, y: int) -> bool:
        # neither ends at an earlier step than the other starts
        starts, ends = self._starts, self._ends
        return x != y and ends[x] >= starts[y] and ends[y] >= starts[x]

    def size(self) -> float:
        """Number of events minus half the interface events."""
        return len(self.labels) - (len(self.source) + len(self.target)) / 2

    def is_identity(self) -> bool:
        return self._word.steps[0].kind == "identity"

    def is_discrete(self) -> bool:
        return not self.precedence

    def is_word(self) -> bool:
        n = len(self.labels)
        return len(self.precedence) == n * (n - 1) // 2

    # -- conclists ---------------------------------------------------------

    def source_conclist(self) -> tuple[str, ...]:
        return self._word.steps[0].source_conclist()

    def target_conclist(self) -> tuple[str, ...]:
        return self._word.steps[-1].target_conclist()

    # -- canonical form ----------------------------------------------------

    def key(self) -> tuple:
        """Canonical hashable form: the sparse step decomposition."""
        if self._key is None:
            self._key = tuple(s.key() for s in sparse_decomposition(self).steps)
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ipomset):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        from .text import print_ipomset
        return f"Ipomset({print_ipomset(self)!r})"

    def width(self) -> int:
        """Size of the largest precedence antichain.

        For interval orders every antichain is simultaneously active at
        some point of any step decomposition, so this is the largest
        conclist of the sparse form.
        """
        if self._width is None:
            self._width = max(len(s.conclist) for s in self._word.steps)
        return self._width


# --------------------------------------------------------------------------
# steps and step words

_KINDS = ("starter", "terminator", "identity")


class Step:
    """A starter, terminator, or identity over a conclist.

    ``conclist`` is the full list of concurrent events (top to bottom in
    event order); ``marked`` holds the positions being started or
    terminated.  An empty ``marked`` is the identity step.

    Instances must not be mutated: the hash, ``key()`` and both
    interface conclists are computed once, at construction.  The hash is
    that of ``(kind, conclist, marked)``, and steps are equal when their
    keys are.
    """

    __slots__ = ("kind", "conclist", "marked", "_key", "_hash", "_source",
                 "_target")

    def __init__(self, kind: str, conclist: tuple[str, ...],
                 marked: frozenset[int]):
        if kind not in _KINDS:
            raise ValueError(f"unknown step kind: {kind}")
        ordered, unmarked = _layout(marked, len(conclist))
        if (kind == "identity") != (not marked):
            raise ValueError("identity steps are exactly the unmarked ones")
        self.kind = kind
        self.conclist = conclist
        self.marked = marked
        self._key = (kind, conclist, ordered)
        self._hash = hash((kind, conclist, marked))
        rest = tuple([conclist[i] for i in unmarked]) if marked else conclist
        self._source = rest if kind == "starter" else conclist
        self._target = rest if kind == "terminator" else conclist

    def __eq__(self, other) -> bool:
        if other.__class__ is not Step:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def key(self) -> tuple:
        return self._key

    def source_conclist(self) -> tuple[str, ...]:
        return self._source

    def target_conclist(self) -> tuple[str, ...]:
        return self._target

    def as_ipomset(self) -> Ipomset:
        """The ipomset of this one step: ``compose((self,))``."""
        return compose((self,))

    def __repr__(self) -> str:
        from .text import print_step
        return f"Step({print_step(self)!r})"


@functools.cache
def _layout(marked: frozenset[int], width: int
            ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The marks sorted and the unmarked positions of a step over a
    conclist of the given width: the part of ``Step.__init__`` that
    depends only on the marks and the width, done once for each pair.
    Marks out of range raise, and a pair that raises is not kept."""
    ordered = tuple(sorted(marked))
    if ordered and (ordered[0] < 0 or ordered[-1] >= width):
        for p in marked:  # name the first bad one in the set's order
            if not (0 <= p < width):
                raise ValueError(f"marked position out of range: {p}")
    return ordered, tuple([i for i in range(width) if i not in marked])


class _Steps(dict):
    """A per-call step table: ``table[kind, conclist, marks]``, with
    ``marks`` a tuple of positions, builds the ``Step`` on first sight of
    the key and returns that one object for every repeat, so a builder
    makes each distinct step of its call once."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> Step:
        kind, conclist, marks = key
        self[key] = step = Step(kind, conclist, frozenset(marks))
        return step


def starter(conclist: Sequence[str], marked: Iterable[int]) -> Step:
    marked = frozenset(marked)
    kind = "starter" if marked else "identity"
    return Step(kind, tuple(conclist), marked)


def terminator(conclist: Sequence[str], marked: Iterable[int]) -> Step:
    marked = frozenset(marked)
    kind = "terminator" if marked else "identity"
    return Step(kind, tuple(conclist), marked)


def identity_step(conclist: Sequence[str]) -> Step:
    return Step("identity", tuple(conclist), frozenset())


class StepWord:
    """A nonempty sequence of steps whose interfaces chain up."""

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[Step]):
        steps = tuple(steps)
        if not steps:
            raise ValueError("a step word has at least one step")
        for i in range(len(steps) - 1):
            if steps[i].target_conclist() != steps[i + 1].source_conclist():
                raise InterfaceMismatch(
                    f"step {i} ends in {steps[i].target_conclist()} but step "
                    f"{i + 1} starts from {steps[i + 1].source_conclist()}",
                    position=i)
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepWord):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def is_sparse(self) -> bool:
        """Starters and terminators strictly alternate; identities occur
        only as the single step of an identity word."""
        if len(self.steps) == 1:
            return True
        kinds = [s.kind for s in self.steps]
        if "identity" in kinds:
            return False
        return all(a != b for a, b in zip(kinds, kinds[1:]))

    def __repr__(self) -> str:
        from .text import print_step
        return f"StepWord({''.join(print_step(s) for s in self.steps)!r})"


def compose(word: StepWord | Sequence[Step]) -> Ipomset:
    """Glue a step word into one ipomset: check that its steps chain, take
    their labels and merge the word, and stop there.

    Events are numbered as the word meets them: the first step's whole
    conclist top to bottom, then the events of each later starter top to
    bottom.  A step that does not chain onto the one before it raises
    InterfaceMismatch with the step's index as ``position`` (a StepWord
    chains already).  The result carries the merged word as its sparse
    decomposition and keeps the steps given, from which ``_replay``
    derives its interfaces, interval form and relations on first read;
    nothing is checked, since a chaining word always gives a valid
    interval ipomset.
    """
    chained = isinstance(word, StepWord)
    steps = tuple(word.steps if chained else word)
    if not steps:
        raise ValueError("cannot compose an empty step sequence")
    labels = list(steps[0].conclist)
    for pos in range(1, len(steps)):
        step = steps[pos]
        if not chained and (step.source_conclist()
                            != (have := steps[pos - 1].target_conclist())):
            raise InterfaceMismatch(
                f"cannot glue: target conclist {have} != "
                f"source conclist {step.source_conclist()}", position=pos)
        if step.kind == "starter":
            labels += [step.conclist[i] for i in step.key()[2]]
    merged = _merge_word(steps)
    if not (chained and merged == steps):  # a sparse StepWord is its own
        word = StepWord(merged)
    return Ipomset(labels, _composed=(steps, word))


def _replay(p: Ipomset) -> None:
    """Set the interfaces, interval form and both relations of a composed
    ipomset by walking the steps it was composed from, numbering events
    as ``compose`` does.  Each event gets the index of the step that
    starts it (0 for the first step's events) and of the step that
    terminates it (the word's length for target events), so x precedes y
    exactly when x ends at an earlier step than y starts; the event order
    is the closure of the neighbours in the steps' conclists."""
    steps = p._steps
    first, n = steps[0], len(p.labels)
    active = list(range(len(first.conclist)))  # the running conclist, as events
    p.source = frozenset(e for e in active
                         if first.kind != "starter" or e not in first.marked)
    starts, ends = [0] * n, [len(steps)] * n
    fresh = len(active)
    cover: set[tuple[int, int]] = set()
    for pos, step in enumerate(steps):
        if pos and step.kind == "starter":
            carried = iter(active)
            active = []
            for i in range(len(step.conclist)):
                if i in step.marked:
                    starts[fresh] = pos
                    active.append(fresh)
                    fresh += 1
                else:
                    active.append(next(carried))
        cover.update(zip(active, active[1:]))
        if step.kind == "terminator":
            for i in step.marked:
                ends[active[i]] = pos
            active = [e for i, e in enumerate(active) if i not in step.marked]
    p.target = frozenset(active)
    p._starts, p._ends = tuple(starts), tuple(ends)
    p.precedence = frozenset(
        (x, y) for x in range(n) for y in range(n) if ends[x] < starts[y])
    p.event_order = _closure(n, cover)


def _merge_word(steps: Sequence[Step]) -> tuple[Step, ...]:
    """Drop the identities of a chaining word and merge neighbouring
    starters, and likewise terminators, into one step each.  Every step
    word of an ipomset merges to its sparse decomposition."""
    out: list[Step] = []
    for step in steps:
        if step.kind == "identity":
            continue
        if not out or out[-1].kind != step.kind:
            out.append(step)
        elif step.kind == "starter":
            # the earlier marks ride through the later step's unmarked slots
            carry = [i for i in range(len(step.conclist)) if i not in step.marked]
            out[-1] = starter(step.conclist, step.marked
                              | {carry[i] for i in out[-1].marked})
        else:
            prev = out[-1]
            carry = [i for i in range(len(prev.conclist)) if i not in prev.marked]
            out[-1] = terminator(prev.conclist, prev.marked
                                 | {carry[j] for j in step.marked})
    return tuple(out) or (steps[0],)  # every step an identity


# --------------------------------------------------------------------------
# compositions

def glue(p: Ipomset, q: Ipomset) -> Ipomset:
    """Serial composition; defined when target of p equals source of q as
    conclists (same labels in the same event order).  The result is the
    composition of p's sparse word followed by q's."""
    if p.target_conclist() != q.source_conclist():
        raise InterfaceMismatch(
            f"cannot glue: target conclist {p.target_conclist()} != "
            f"source conclist {q.source_conclist()}")
    return compose(sparse_decomposition(p).steps + sparse_decomposition(q).steps)


def parallel(p: Ipomset, q: Ipomset) -> Ipomset:
    """Parallel composition: disjoint union with every p-event above every
    q-event in event order.  Not commutative."""
    n_p = len(p.labels)
    labels = p.labels + q.labels
    prec = set(p.precedence) | {(a + n_p, b + n_p) for (a, b) in q.precedence}
    order = set(p.event_order) | {(a + n_p, b + n_p) for (a, b) in q.event_order}
    order |= {(a, b + n_p) for a in p.events() for b in q.events()}
    return Ipomset(labels, prec, order,
                   p.source | {e + n_p for e in q.source},
                   p.target | {e + n_p for e in q.target})


# --------------------------------------------------------------------------
# decompositions

def _interval_form(p: Ipomset) -> None:
    """Set the start and end steps and the sparse word of p, whose
    relations are closed and valid.

    The distinct predecessor sets form a chain (Fishburn).  An event
    starts at the level of its own set and ends at the last level whose
    set lacks it, so x precedes y exactly when x ends before y starts.
    Level i starts its non-source events, then ends its non-target ones.
    Conclists list events by their number of event-order predecessors,
    which rises strictly along the closed event order.
    """
    n, labels = len(p.labels), p.labels
    pred, rank = [0] * n, [0] * n
    for x, y in p.precedence:
        pred[y] |= 1 << x
    for _, y in p.event_order:
        rank[y] += 1
    level = {d: i for i, d in enumerate(sorted(set(pred)))}  # a chain
    starts = [level[d] for d in pred]
    ends = [len(level) - 1] * n
    for x, y in p.precedence:
        ends[x] = min(ends[x], starts[y] - 1)
    active = sorted(p.source, key=rank.__getitem__)
    steps: list[Step] = []
    for i in range(len(level)):
        new = {x for x in range(n) if starts[x] == i} - p.source
        active = sorted(active + list(new), key=rank.__getitem__)
        old = {e for e in active if ends[e] == i} - p.target
        for make, marked in ((starter, new), (terminator, old)):
            if marked:
                steps.append(make([labels[e] for e in active],
                                  [j for j, e in enumerate(active) if e in marked]))
        active = [e for e in active if e not in old]
    p._starts, p._ends = tuple(starts), tuple(ends)
    p._word = StepWord(steps or (identity_step([labels[e] for e in active]),))


def sparse_decomposition(p: Ipomset) -> StepWord:
    """The unique step word for p in which nonidentity starters and
    terminators strictly alternate.

    Every ipomset carries it from construction: ``compose`` merges the
    word it walked, and ``_interval_form`` reads it off the levels of
    the predecessor sets.
    """
    return p._word


def dense_decomposition(p: Ipomset) -> StepWord:
    """An elementary step word of length exactly 2*size(p): each sparse
    step split into single starts or terminations, top to bottom.

    This is the word that starts the topmost startable event while any
    can start, else terminates the topmost terminable one: no start makes
    another event startable, and what a terminator's terminations make
    startable is preceded by all of that terminator's events."""
    if p.is_identity():
        raise IdentityHasNoDenseDecomposition(
            "identities have size 0 and admit no elementary decomposition")
    steps: list[Step] = []
    for step in sparse_decomposition(p):
        marked = sorted(step.marked)
        for i, m in enumerate(marked):
            if step.kind == "starter":  # the marks below m start later
                steps.append(starter([l for j, l in enumerate(step.conclist)
                                      if j not in marked[i + 1:]], {m}))
            else:  # the marks above m have terminated
                steps.append(terminator([l for j, l in enumerate(step.conclist)
                                         if j not in marked[:i]], {m - i}))
    return StepWord(steps)


# --------------------------------------------------------------------------
# subsumption

def subsumes(p: Ipomset, q: Ipomset) -> bool:
    """True if p is subsumed by q (p is more ordered, q more concurrent).

    Searches for a bijection that preserves labels and interfaces exactly,
    reflects precedence, and preserves event order between concurrent
    events.  Backtracking with per-event pruning; exponential worst case.
    """
    n = len(p.labels)
    if n != len(q.labels):
        return False
    if sorted(p.labels) != sorted(q.labels):
        return False
    if len(p.source) != len(q.source) or len(p.target) != len(q.target):
        return False

    cand: list[list[int]] = []
    for x in p.events():
        cs = [u for u in q.events()
              if q.labels[u] == p.labels[x]
              and (u in q.source) == (x in p.source)
              and (u in q.target) == (x in p.target)]
        if not cs:
            return False
        cand.append(cs)

    assigned: dict[int, int] = {}
    used: set[int] = set()

    def ok(x: int, u: int) -> bool:
        for y, v in assigned.items():
            if (u, v) in q.precedence and (x, y) not in p.precedence:
                return False
            if (v, u) in q.precedence and (y, x) not in p.precedence:
                return False
            if p.concurrent(x, y):
                if (x, y) in p.event_order and (u, v) not in q.event_order:
                    return False
                if (y, x) in p.event_order and (v, u) not in q.event_order:
                    return False
        return True

    def search(x: int) -> bool:
        if x == n:
            return True
        for u in cand[x]:
            if u in used or not ok(x, u):
                continue
            assigned[x] = u
            used.add(u)
            if search(x + 1):
                return True
            del assigned[x]
            used.remove(u)
        return False

    return search(0)


def in_down_closure(p: Ipomset, generators: Iterable[Ipomset]) -> bool:
    """True if p is subsumed by some member of ``generators``."""
    return any(subsumes(p, q) for q in generators)


def supersumptions(p: Ipomset, k: int) -> list[Ipomset]:
    """All ipomsets of width <= k that subsume p, up to isomorphism,
    sorted by key.

    Each composes an alternating step word over p's events.  Starters
    start events within width k, keeping the running order and p's event
    order on pairs concurrent in p; terminators end running non-target
    events that precede every unstarted one in p, so the identity on
    events witnesses the subsumption.  Exponential; for desk-scale events.
    """
    if p.width() > k:
        raise WidthExceeded(f"width {p.width()} exceeds bound {k}")
    forced = {(x, y) for (x, y) in p.event_order if p.concurrent(x, y)}
    after = [set() for _ in p.labels]  # the events each one precedes
    for x, y in p.precedence:
        after[x].add(y)
    seen: dict[tuple, Ipomset] = {}
    made = _Steps()

    def step(kind: str, running: list[int], marked: tuple[int, ...]) -> Step:
        return made[kind, tuple([p.labels[e] for e in running]), marked]

    def placements(running: list[int], new: tuple[int, ...]) -> list[list[int]]:
        lists = [running]
        for y in new:  # below every event forced above y, and vice versa
            lists = [l[:i] + [y] + l[i:] for l in lists for i in range(len(l) + 1)
                     if not any((x, y) in forced for x in l[i:])
                     and not any((y, x) in forced for x in l[:i])]
        return lists

    def walk(running: list[int], unstarted: frozenset[int],
             steps: tuple[Step, ...], last: str) -> None:
        if not unstarted and len(running) == len(p.target):
            word = steps or (step("identity", running, ()),)
            key = tuple([s.key() for s in word])  # the word is sparse
            if key not in seen:
                seen[key] = q = compose(word)
                q._key = key
        if last != "terminator":
            ends = [i for i, x in enumerate(running) if x not in p.target
                    and unstarted <= after[x]]
            for r in range(1, len(ends) + 1):
                for marked in itertools.combinations(ends, r):
                    walk([e for i, e in enumerate(running) if i not in marked],
                         unstarted,
                         steps + (step("terminator", running, marked),),
                         "terminator")
        if last != "starter":
            for r in range(1, min(k - len(running), len(unstarted)) + 1):
                for new in itertools.combinations(sorted(unstarted), r):
                    for order in placements(running, new):
                        marked = tuple(i for i, e in enumerate(order) if e in new)
                        walk(order, unstarted.difference(new),
                             steps + (step("starter", order, marked),),
                             "starter")

    walk(sorted(p.source, key=lambda x: sum(y == x for _, y in p.event_order)),
         frozenset(p.events()) - p.source, (), "")
    return [seen[key] for key in sorted(seen)]


# --------------------------------------------------------------------------
# small builders

def identity_ipomset(conclist: Sequence[str]) -> Ipomset:
    return identity_step(conclist).as_ipomset()


def word_ipomset(labels: Sequence[str], source=(), target=()) -> Ipomset:
    """Totally ordered events (a word), optionally with interfaces."""
    n = len(labels)
    prec = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Ipomset(tuple(labels), prec, (), source, target)


def discrete_ipomset(labels: Sequence[str], source=(), target=()) -> Ipomset:
    """Pairwise concurrent events, event-ordered top to bottom."""
    n = len(labels)
    order = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Ipomset(tuple(labels), (), order, source, target)


EMPTY = identity_ipomset(())


# --------------------------------------------------------------------------
# enumeration (oracle helper for tests and for the complement sweeps)

def _letters(conclist: tuple[str, ...], alphabet: Sequence[str],
             room: int) -> Iterator[Step]:
    """Every nonidentity step from ``conclist`` that starts at most
    ``room`` fresh events labelled from ``alphabet``: the terminators by
    size and marks, then the starters by how many events they start,
    where and with which labels."""
    n = len(conclist)
    for r in range(1, n + 1):
        for marked in itertools.combinations(range(n), r):
            yield terminator(conclist, marked)
    for m in range(1, room + 1):
        for new_pos in itertools.combinations(range(n + m), m):
            for labs in itertools.product(alphabet, repeat=m):
                new, old = iter(labs), iter(conclist)
                yield starter(tuple(next(new) if i in new_pos else next(old)
                                    for i in range(n + m)), new_pos)


def enumerate_ipomsets(alphabet: Sequence[str], max_events: int,
                       max_width: int | None = None) -> Iterator[Ipomset]:
    """Every ipomset over ``alphabet`` with at most ``max_events`` events
    (and width at most ``max_width``), each exactly once.

    Walks sparse step words; since sparse decompositions are unique this
    enumeration has no duplicates and needs no canonical-form dedup.
    """
    width = max_events if max_width is None else min(max_width, max_events)
    sources = [c for n in range(width + 1)
               for c in itertools.product(alphabet, repeat=n)]
    rows: dict[tuple[str, ...], list[Step]] = {}  # each built once

    def walk(conclist: tuple[str, ...], steps: tuple[Step, ...],
             used: int, last: str) -> Iterator[tuple[Step, ...]]:
        yield steps
        room = 0 if last == "starter" else min(max_events - used,
                                               width - len(conclist))
        if conclist not in rows:
            rows[conclist] = list(_letters(conclist, alphabet,
                                           width - len(conclist)))
        for st in rows[conclist]:  # starters last, by events started
            if st.kind == "starter" and len(st.marked) > room:
                break
            if st.kind != last:
                yield from walk(st.target_conclist(), steps + (st,),
                                used + len(st.conclist) - len(conclist), st.kind)

    for src in sources:
        for steps in walk(src, (), len(src), ""):
            yield compose(steps or (identity_step(src),))
