"""Higher-dimensional automata: precubical cell complexes with start and
accept cells, paths through them, and the path-based language machinery.

A cell of dimension d carries a conclist of d event labels and two face
maps per coordinate: ``lower[i]`` is the cell where event i has not yet
started, ``upper[i]`` the cell where it has already terminated.  Face
maps satisfy the precubical identities.  Paths move up (start events) and
down (terminate events); the observable content of a path is an ipomset.
"""
from __future__ import annotations

import functools
import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ipomset import (Invalid, Ipomset, Problem, Step, StepWord, compose,
                      identity_step, sparse_decomposition, starter,
                      terminator, _merge_word)


class InvalidHDA(Invalid):
    pass


class PositionOutOfRange(ValueError):
    pass


class IllegalMove(ValueError):
    """A path move whose face condition fails; ``index`` is the move number."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"move {index}: {message}")


class NotAccepted(ValueError):
    pass


class DecompositionTooShort(ValueError):
    pass


class Cell(NamedTuple):
    """One cell: its id, its conclist, and its lower and upper face ids.

    An immutable named tuple, which is quicker to build than a frozen
    dataclass; the code reads its fields by name."""
    id: str
    events: tuple[str, ...]
    lower: tuple[str, ...]
    upper: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.events)


class HDA:
    """A finite higher-dimensional automaton.

    ``cells`` maps ids to Cell records; ``start`` and ``accept`` are cell
    id sets.  Construction validates the precubical structure and raises
    InvalidHDA listing every violation.

    Instances must not be mutated: two tables are cached on them,
    ``_by_conclist`` and ``_st``, the automaton that ``stauto.st_of_hda``
    compiles on its first call and returns later.
    """

    __slots__ = ("alphabet", "cells", "start", "accept", "_by_conclist",
                 "_st")

    def __init__(self, cells: Iterable[Cell], start: Iterable[str],
                 accept: Iterable[str], alphabet: Iterable[str] = ()):
        cell_map: dict[str, Cell] = {}
        problems: list[Problem] = []
        for c in cells:
            if c.id in cell_map:
                problems.append(Problem("DuplicateCell", (c.id,),
                                        f"cell id {c.id!r} appears twice"))
            cell_map[c.id] = c
        self.cells = cell_map
        self.start = frozenset(start)
        self.accept = frozenset(accept)
        self.alphabet = frozenset(alphabet) | {
            l for c in cell_map.values() for l in c.events}
        problems += self._validate()
        if problems:
            raise InvalidHDA(problems)
        self._by_conclist: dict[tuple[str, ...], tuple[str, ...]] | None = None
        self._st = None  # set by stauto.st_of_hda

    # -- validation ---------------------------------------------------------

    def _validate(self) -> list[Problem]:
        out: list[Problem] = []
        cells = self.cells
        for name, ids in (("start", self.start), ("accept", self.accept)):
            for i in sorted(ids - cells.keys()):
                out.append(Problem("DanglingReference", (i,),
                                   f"{name} cell {i!r} does not exist"))
        # each conclist with one event dropped, as its faces must carry it
        expected: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        conclists = {cid: c.events for cid, c in cells.items()}
        for c in cells.values():
            events, lower, upper = c.events, c.lower, c.upper
            expect = expected.get(events)
            if expect is None:
                expect = expected[events] = [events[:i] + events[i + 1:]
                                             for i in range(len(events))]
            try:
                if ([conclists[f] for f in lower] == expect
                        and [conclists[f] for f in upper] == expect):
                    continue
            except KeyError:
                pass
            out += self._cell_problems(c, expect)
        if out:
            return out
        faces = {cid: c.lower + c.upper for cid, c in cells.items()}
        for cid, own in faces.items():
            d = len(own) // 2
            for p, q, r, s in _identity_quads(d):
                a, b = faces[own[p]][q], faces[own[r]][s]
                if a != b:
                    (t2, j), (t1, i) = divmod(p, d), divmod(r, d)
                    out.append(Problem(
                        "PrecubicalIdentityViolation", (cid, i, j),
                        f"faces of {cid!r} at coordinates {i},{j} "
                        f"(sides {t1},{t2}) disagree: {a!r} vs {b!r}"))
        return out

    def _cell_problems(self, c: Cell, expect: list[tuple[str, ...]]
                       ) -> list[Problem]:
        """What is wrong with the faces of one cell: their number, then
        ids that name no cell, then conclists that are not the cell's own
        with one event dropped."""
        if len(c.lower) != c.dim or len(c.upper) != c.dim:
            return [Problem("FaceArityMismatch", (c.id,),
                            f"cell {c.id!r} has dimension {c.dim} but "
                            f"{len(c.lower)} lower and {len(c.upper)} "
                            "upper faces")]
        out = [Problem("DanglingReference", (c.id, fid),
                       f"face {fid!r} of cell {c.id!r} does not exist")
               for fid in dict.fromkeys(c.lower + c.upper)
               if fid not in self.cells]
        if out:
            return out
        for side, faces in (("lower", c.lower), ("upper", c.upper)):
            for i, fid in enumerate(faces):
                if self.cells[fid].events != expect[i]:
                    out.append(Problem(
                        "FaceLabelMismatch", (c.id, fid),
                        f"{side} face {i} of {c.id!r} should have events "
                        f"{expect[i]}, but {fid!r} has "
                        f"{self.cells[fid].events}"))
        return out

    # -- helpers -------------------------------------------------------------

    def dim(self) -> int:
        return max((c.dim for c in self.cells.values()), default=0)

    def by_conclist(self, conclist: tuple[str, ...]) -> tuple[str, ...]:
        if self._by_conclist is None:
            index: dict[tuple[str, ...], list[str]] = {}
            for cid in sorted(self.cells):
                index.setdefault(self.cells[cid].events, []).append(cid)
            self._by_conclist = {k: tuple(v) for k, v in index.items()}
        return self._by_conclist.get(conclist, ())

    def up_steps(self) -> dict[str, list[tuple[frozenset[int], str]]]:
        """For each cell id x, the list of (positions A, cell y) with
        lower face of y at A equal to x.  Nonempty A only; listed by cell y,
        then in ``composite_faces`` order.  Built anew on each call."""
        graph: dict[str, list[tuple[frozenset[int], str]]] = {
            cid: [] for cid in self.cells}
        for y in self.cells.values():
            for a, x in _faces(self, y, 0):
                graph[x].append((a, y.id))
        return graph


def face(hda: HDA, cell_id: str, side: int, positions: Iterable[int]) -> str:
    """Composite face map: remove the events at ``positions`` on the given
    side (0 = not yet started, 1 = already terminated)."""
    if side not in (0, 1):
        raise ValueError(f"face side must be 0 or 1, got {side}")
    c = hda.cells[cell_id]
    pos = sorted(set(positions), reverse=True)
    if pos and (pos[0] >= c.dim or pos[-1] < 0):
        raise PositionOutOfRange(
            f"positions {sorted(set(positions))} out of range for "
            f"cell {cell_id!r} of dimension {c.dim}")
    cur = cell_id
    for p in pos:
        c = hda.cells[cur]
        cur = (c.upper if side else c.lower)[p]
    return cur


# One entry of a face table: a nonempty position tuple a, frozenset(a),
# its first position a[0], and the column that holds the faces at a[1:]
# (see _face_columns; column 0 holds the cells themselves).
_FaceEntry = tuple[tuple[int, ...], frozenset[int], int, int]


@functools.cache
def _face_table(d: int) -> tuple[_FaceEntry, ...]:
    """The entries of every nonempty position tuple of a d-cell, by size
    and then in ``combinations`` order; entry k describes column k + 1.
    Built once per dimension and shared by all automata."""
    index: dict[tuple[int, ...], int] = {(): 0}
    table: list[_FaceEntry] = []
    for r in range(1, d + 1):
        for a in itertools.combinations(range(d), r):
            table.append((a, frozenset(a), a[0], index[a[1:]]))
            index[a] = len(table)
    return tuple(table)


def _face_columns(hda: HDA, d: int, ids: Sequence[str], side: int
                  ) -> list[Sequence[str]]:
    """The composite faces of the d-cells ``ids`` on one side (0 lower,
    1 upper), in columns: column 0 is ``ids``, and column k + 1 holds
    each cell's face at the positions a of entry k of ``_face_table(d)``.
    That face is face a[0] of the face at a[1:], in an earlier column."""
    cells = hda.cells
    columns = [ids]
    for _, _, i, rest in _face_table(d):
        if side:
            columns.append([cells[f].upper[i] for f in columns[rest]])
        else:
            columns.append([cells[f].lower[i] for f in columns[rest]])
    return columns


def _faces(hda: HDA, cell: Cell, side: int
           ) -> list[tuple[frozenset[int], str]]:
    """``(frozenset(a), the face of the cell at a on one side)`` for every
    nonempty position tuple a, in face-table order."""
    d = cell.dim
    return [(marks, x) for (_, marks, _, _), (x,) in zip(
        _face_table(d), _face_columns(hda, d, [cell.id], side)[1:])]


def composite_faces(hda: HDA, cell: Cell
                    ) -> Iterator[tuple[tuple[int, ...], str, str]]:
    """For every nonempty position tuple a of the cell, by size and then in
    ``combinations`` order: ``(a, face(.., 0, a), face(.., 1, a))``.

    The positions come from the shared face table of the cell's
    dimension, and the faces from ``_faces`` on each side."""
    for (a, _, _, _), (_, x), (_, z) in zip(
            _face_table(cell.dim), _faces(hda, cell, 0), _faces(hda, cell, 1)):
        yield a, x, z


@functools.cache
def _identity_quads(d: int) -> tuple[tuple[int, int, int, int], ...]:
    """The precubical identities of a d-cell, for i < j in
    ``combinations`` order and then sides t1, t2, as indices into face
    tuples ``lower + upper``: (p, q, r, s) says that face q of face p
    equals face s of face r, that is d_i^t1 d_j^t2 = d_{j-1}^t2 d_i^t1.
    Built once per dimension; none below dimension 2."""
    return tuple((t2 * d + j, t1 * (d - 1) + i, t1 * d + i,
                  t2 * (d - 1) + j - 1)
                 for i, j in itertools.combinations(range(d), 2)
                 for t1, t2 in itertools.product((0, 1), repeat=2))


def skeleton(hda: HDA, k: int) -> HDA:
    """The sub-HDA of cells of dimension at most k; hda itself when it has
    no higher cell, so that its compiled automaton is reused."""
    if k >= hda.dim():
        return hda
    keep = {cid: c for cid, c in hda.cells.items() if c.dim <= k}
    return HDA(keep.values(), hda.start & set(keep), hda.accept & set(keep),
               hda.alphabet)


# --------------------------------------------------------------------------
# JSON serialisation

def hda_to_dict(hda: HDA) -> dict:
    return {
        "alphabet": sorted(hda.alphabet),
        "cells": [{"id": c.id, "events": list(c.events),
                   "d0": list(c.lower), "d1": list(c.upper)}
                  for _, c in sorted(hda.cells.items())],
        "start": sorted(hda.start),
        "accept": sorted(hda.accept),
    }


def hda_from_dict(data: dict) -> HDA:
    """Load the ``.hda`` layout.  Cell ids must be strings, and ``events``,
    ``d0``, ``d1``, ``start``, ``accept`` and ``alphabet`` lists of
    strings; any that is not is reported as a FieldType problem of
    InvalidHDA, and data of another shape (a missing key, a cell that is
    no object) as a Malformed one."""
    problems: list[Problem] = []

    def wrong(value, field: str, kind: str) -> None:
        problems.append(Problem("FieldType", (field,), f"{field} must be "
                                f"{kind}, got {value!r}"))

    lists, strs = (list, tuple), itertools.repeat(str)

    def strings(value, field: str) -> tuple[str, ...]:
        if isinstance(value, lists) and all(map(isinstance, value, strs)):
            return tuple(value)
        wrong(value, field, "a list of strings")
        return ()

    try:
        cells = []
        for i, c in enumerate(data["cells"]):
            cid, events, d0, d1 = c["id"], c["events"], c["d0"], c["d1"]
            if (isinstance(cid, str) and isinstance(events, lists)
                    and isinstance(d0, lists) and isinstance(d1, lists)
                    and all(map(isinstance, [*events, *d0, *d1], strs))):
                cells.append(Cell(cid, tuple(events), tuple(d0), tuple(d1)))
                continue
            if not isinstance(cid, str):
                wrong(cid, f"id of cell {i}", "a string")
            for key, value in (("events", events), ("d0", d0), ("d1", d1)):
                strings(value, f"{key} of {cid!r}")
        start = strings(data["start"], "start")
        accept = strings(data["accept"], "accept")
        alphabet = strings(data.get("alphabet", []), "alphabet")
    except (KeyError, TypeError) as exc:
        raise InvalidHDA([Problem("Malformed", (), "malformed automaton "
                                  f"data: {exc}")]) from None
    if problems:
        raise InvalidHDA(problems)
    return HDA(cells, start, accept, alphabet)


def dump_hda(hda: HDA, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(hda_to_dict(hda), fp, indent=2)
        fp.write("\n")


def load_hda(path: str) -> HDA:
    """Read a ``.hda`` file.  Text that is no JSON, JSON nested too
    deeply for the parser, or a number with more digits than ``int``
    converts, raises json.JSONDecodeError."""
    with open(path, encoding="utf-8") as fp:
        text = fp.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except ValueError:
        raise json.JSONDecodeError("number with too many digits",
                                   text, 0) from None
    return hda_from_dict(data)


# --------------------------------------------------------------------------
# paths

@dataclass(frozen=True)
class Move:
    """One path move.  Up moves start events, down moves terminate them.

    ``positions`` are coordinates in the target cell for up moves and in
    the source cell for down moves.  The target id makes runs through
    nondeterministic automata unambiguous.
    """
    direction: str
    positions: frozenset[int]
    target: str

    def __post_init__(self):
        if self.direction not in ("up", "down"):
            raise ValueError(f"unknown move direction: {self.direction}")


@dataclass(frozen=True)
class Path:
    origin: str
    moves: tuple[Move, ...] = ()


def validate_path(hda: HDA, path: Path) -> str:
    """Check every move; return the id of the end cell."""
    if path.origin not in hda.cells:
        raise IllegalMove(0, f"origin {path.origin!r} does not exist")
    cur = path.origin
    for i, m in enumerate(path.moves):
        if m.target not in hda.cells:
            raise IllegalMove(i, f"target {m.target!r} does not exist")
        try:
            if m.direction == "up":
                got = face(hda, m.target, 0, m.positions)
                if got != cur:
                    raise IllegalMove(
                        i, f"up move to {m.target!r} starts from {got!r}, "
                           f"not {cur!r}")
            else:
                got = face(hda, cur, 1, m.positions)
                if got != m.target:
                    raise IllegalMove(
                        i, f"down move from {cur!r} lands at {got!r}, "
                           f"not {m.target!r}")
        except PositionOutOfRange as exc:
            raise IllegalMove(i, str(exc)) from None
        cur = m.target
    return cur


def _move_step(hda: HDA, cur: str, m: Move) -> Step:
    """The step that the nonempty move ``m`` out of cell ``cur`` observes."""
    if m.direction == "up":
        return starter(hda.cells[m.target].events, m.positions)
    return terminator(hda.cells[cur].events, m.positions)


def ev(hda: HDA, path: Path) -> Ipomset:
    """The ipomset a path observes."""
    validate_path(hda, path)
    cur = path.origin
    steps: list[Step] = [identity_step(hda.cells[path.origin].events)]
    for m in path.moves:
        if m.positions:
            steps.append(_move_step(hda, cur, m))
        cur = m.target
    steps.append(identity_step(hda.cells[cur].events))
    return compose(StepWord(steps))


def sparsify(hda: HDA, path: Path) -> Path:
    """Merge adjacent same-direction moves and drop empty ones; the result
    observes the same ipomset and alternates nonempty up and down moves."""
    validate_path(hda, path)
    cur = path.origin
    out: list[tuple[Move, Step]] = []  # each move with the step it observes
    for m in path.moves:
        if m.positions:
            step = _move_step(hda, cur, m)
            if out and out[-1][0].direction == m.direction:
                step = _merge_word((out.pop()[1], step))[0]
                m = Move(m.direction, step.marked, m.target)
            out.append((m, step))
        cur = m.target
    return Path(path.origin, tuple(m for m, _ in out))


def path_accepts(hda: HDA, path: Path) -> bool:
    return path.origin in hda.start and validate_path(hda, path) in hda.accept


# --------------------------------------------------------------------------
# reachability and determinism

def reachable(hda: HDA, seeds: Iterable[str],
              backward: bool = False) -> frozenset[str]:
    """The cells some path from a seed reaches; with ``backward``, the
    cells from which some path reaches a seed.  Seeds are included."""
    succ: dict[str, set[str]] = {cid: set() for cid in hda.cells}
    for c in hda.cells.values():
        for lo, up in zip(c.lower, c.upper):
            if backward:
                succ[c.id].add(lo)
                succ[up].add(c.id)
            else:
                succ[lo].add(c.id)   # up move
                succ[c.id].add(up)   # down move
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for y in succ[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


def essential_cells(hda: HDA) -> frozenset[str]:
    """Cells on some path from a start cell to an accept cell."""
    return reachable(hda, hda.start) & reachable(hda, hda.accept, backward=True)


def is_deterministic_hda(hda: HDA) -> tuple[bool, str | None]:
    """Structural determinism: at most one essential start cell per
    conclist, and no two essential cells reachable from the same cell by
    starting the same events at the same coordinates."""
    ess = essential_cells(hda)
    starts: dict[tuple[str, ...], str] = {}
    for cid in sorted(hda.start & ess):
        key = hda.cells[cid].events
        if key in starts:
            return False, (f"start cells {starts[key]!r} and {cid!r} share "
                           f"the conclist {key}")
        starts[key] = cid
    seen: dict[tuple[str, tuple[str, ...], frozenset[int]], str] = {}
    for y in sorted(ess):
        c = hda.cells[y]
        for marks, x in _faces(hda, c, 0):
            key = (x, c.events, marks)
            if key in seen:
                return False, (
                    f"cells {seen[key]!r} and {y!r} both start events at "
                    f"coordinates {sorted(marks)} from cell {key[0]!r}")
            seen[key] = y
    return True, None


# --------------------------------------------------------------------------
# languages

def _walk(hda: HDA, p: Ipomset, start: dict[str, int]) -> dict[str, int]:
    """Walk the sparse decomposition of p through the face maps: for each
    cell, the number of sparse paths observing p that end there, each
    start cell over p's source conclist counting with its weight."""
    u = p.source_conclist()
    cur = {cid: n for cid, n in start.items() if hda.cells[cid].events == u}
    for step in () if p.is_identity() else sparse_decomposition(p).steps:
        nxt: dict[str, int] = {}
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
            break
    return cur


def count_sparse_accepting_paths(hda: HDA, p: Ipomset) -> int:
    """Number of sparse accepting paths observing exactly p."""
    ends = _walk(hda, p, dict.fromkeys(hda.start, 1))
    return sum(n for cid, n in ends.items() if cid in hda.accept)


def accepts(hda: HDA, p: Ipomset) -> bool:
    """Path-based membership; the automaton route in ``decide`` agrees."""
    return count_sparse_accepting_paths(hda, p) > 0


def enumerate_language(hda: HDA, max_steps: int) -> set[tuple]:
    """All sparse step words of accepted ipomsets with at most
    ``max_steps`` steps, as tuples of step keys.

    Since sparse decompositions are unique, these tuples are canonical
    forms; two automata agree on all ipomsets up to that sparse length iff
    the returned sets are equal.
    """
    words: set[tuple] = set()
    if max_steps >= 1:
        for cid in hda.start & hda.accept:
            words.add((identity_step(hda.cells[cid].events).key(),))
    up = hda.up_steps()
    seen: set[tuple[str, tuple]] = set()
    queue: deque[tuple[str, str, tuple]] = deque()
    for cid in sorted(hda.start):
        queue.append((cid, "", ()))
    while queue:
        cell, last, word = queue.popleft()
        if len(word) >= max_steps:
            continue
        moves: list[tuple[Step, str]] = []
        if last != "starter":
            moves += [(starter(hda.cells[y].events, a), y) for a, y in up[cell]]
        if last != "terminator":
            c = hda.cells[cell]
            moves += [(Step("terminator", c.events, b), y)
                      for b, y in _faces(hda, c, 1)]
        for st, y in moves:
            w2 = word + (st.key(),)
            if (y, w2) in seen:
                continue
            seen.add((y, w2))
            if y in hda.accept:
                words.add(w2)
            queue.append((y, st.kind, w2))
    return words


def language_ipomsets(hda: HDA, max_steps: int) -> set[Ipomset]:
    """The accepted ipomsets with sparse length at most ``max_steps``."""
    out = set()
    for word in enumerate_language(hda, max_steps):
        steps = [Step(kind, cl, frozenset(marked)) for kind, cl, marked in word]
        out.add(compose(StepWord(steps)))
    return out


# --------------------------------------------------------------------------
# products

def _joined(names: Iterable[str], sep: str) -> str:
    """The names joined by ``sep``, with backslash and ``sep`` escaped in
    each name and the empty name spelled ``\\e``, so that no two
    sequences of names are joined alike."""
    return sep.join(name.replace("\\", "\\\\").replace(sep, "\\" + sep)
                    or "\\e" for name in names)


def product(a: HDA, b: HDA) -> HDA:
    """The synchronous product; accepts exactly the ipomsets both accept."""
    pair_id = {}
    cells = []
    for xa in sorted(a.cells):
        for xb in b.by_conclist(a.cells[xa].events):
            pair_id[(xa, xb)] = "(" + _joined((xa, xb), ",") + ")"
    for (xa, xb), cid in pair_id.items():
        ca, cb = a.cells[xa], b.cells[xb]
        lower = tuple(pair_id[(ca.lower[i], cb.lower[i])] for i in range(ca.dim))
        upper = tuple(pair_id[(ca.upper[i], cb.upper[i])] for i in range(ca.dim))
        cells.append(Cell(cid, ca.events, lower, upper))
    start = [cid for (xa, xb), cid in pair_id.items()
             if xa in a.start and xb in b.start]
    accept = [cid for (xa, xb), cid in pair_id.items()
              if xa in a.accept and xb in b.accept]
    return HDA(cells, start, accept, a.alphabet | b.alphabet)


# --------------------------------------------------------------------------
# pumping

@dataclass(frozen=True)
class PumpResult:
    """A factorisation witness: the loop spans segments i..j-1, and
    ``members`` lists the ipomsets with the loop repeated 1..r times."""
    i: int
    j: int
    members: tuple[Ipomset, ...]


def _segment_relation(hda: HDA, q: Ipomset) -> dict[str, set[str]]:
    """For each cell x, the cells reachable by a sparse path observing q."""
    rel: dict[str, set[str]] = {}
    for x0 in hda.by_conclist(q.source_conclist()):
        ends = _walk(hda, q, {x0: 1})
        if ends:
            rel[x0] = set(ends)
    return rel


def pump(hda: HDA, qs: Sequence[Ipomset], m: int, r_max: int) -> PumpResult:
    """Find a pumpable loop in a long accepted decomposition.

    ``qs`` glues to an accepted ipomset with more segments than the
    automaton has cells; some window of k = |cells| + 1 consecutive cut
    points after position m then repeats a cell, and the segments between
    the repeat can be iterated.  Returns the cut pair and the pumped
    ipomsets for 1..r_max repetitions, each re-checked for membership.
    Raises NotAccepted when ``qs`` glues to an ipomset the automaton
    does not accept, and RuntimeError when a pumped ipomset is not
    accepted or the window holds no pumpable cut pair, which would be a
    fault of this function, not of its input.
    """
    n = len(qs)
    k = len(hda.cells) + 1
    if n <= len(hda.cells) or m < 0 or m > n - k:
        raise DecompositionTooShort(
            f"need more than {len(hda.cells)} segments and "
            f"0 <= m <= n - {k}; got n={n}, m={m}")

    def glued(segments: Sequence[Ipomset]) -> Ipomset:
        return compose([s for q in segments for s in sparse_decomposition(q)])

    whole = glued(qs)
    if not accepts(hda, whole):
        raise NotAccepted("the glued decomposition is not accepted")

    rels = [_segment_relation(hda, q) for q in qs]
    # rels[0] relates only the cells over the source conclist onwards
    fwd: list[set[str]] = [set(hda.start)]
    for rel in rels:
        cur = fwd[-1]
        fwd.append({y for x in cur if x in rel for y in rel[x]})
    bwd: list[set[str]] = [set()] * (n + 1)
    bwd[n] = set(hda.accept)
    for i in range(n - 1, -1, -1):
        bwd[i] = {x for x, ys in rels[i].items() if ys & bwd[i + 1]}

    for i in range(m, m + k + 1):
        loop: dict[str, set[str]] = {c: {c} for c in fwd[i] if c in bwd[i]}
        for j in range(i + 1, m + k + 1):
            rel = rels[j - 1]
            loop = {c: {y for x in ys if x in rel for y in rel[x]}
                    for c, ys in loop.items()}
            if not any(c in ys and c in bwd[j] for c, ys in loop.items()):
                continue
            members = []
            for t in range(1, r_max + 1):
                whole_t = glued(list(qs[:i]) + list(qs[i:j]) * t + list(qs[j:]))
                if not accepts(hda, whole_t):
                    raise RuntimeError(
                        f"pumping {t} times broke membership; "
                        "this indicates an invariant violation")
                members.append(whole_t)
            return PumpResult(i, j, tuple(members))
    raise RuntimeError("no pumpable cut pair found in the window; "
                       "this indicates an invariant violation")
