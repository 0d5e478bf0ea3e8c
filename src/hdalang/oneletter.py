"""One-letter HDAs and their ultimately periodic descriptions.

A deterministic, accessible HDA over a single letter is a lasso of
vertices with a tower of higher cells over each: it is captured exactly
by an ultimately periodic function giving the tower height at each
vertex, plus the accepting dimensions there.  ``build`` realises such a
description as an HDA, ``analyze`` recovers the minimal description from
an HDA; its walk steps from a vertex without an outgoing edge to a
private sink that loops and accepts nothing, as in a completed HDA.
"""
from __future__ import annotations

from dataclasses import dataclass

from .hda import HDA, Cell, face, is_deterministic_hda, reachable
from .ipomset import Invalid, ParseError, Problem


class InvalidUPFunction(Invalid):
    pass


class NotUPRepresentable(ValueError):
    """The HDA has no ultimately periodic description; ``code`` is one of
    NotOneLetter, MultipleStartCells, NotAccessible, NotDeterministic."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class UPFunction:
    """Tower heights f(0..s+r-1) and accepting dimension sets tau, read as
    an eventually periodic function with preperiod s and period r."""
    r: int
    s: int
    f: tuple[int, ...]
    tau: tuple[frozenset[int], ...]

    def __post_init__(self):
        problems = []
        if self.r < 1 or self.s < 0:
            problems.append(Problem("ShapeMismatch", (self.r, self.s),
                                    f"need r >= 1 and s >= 0, got r={self.r} "
                                    f"s={self.s}"))
        elif len(self.f) != self.s + self.r or len(self.tau) != self.s + self.r:
            problems.append(Problem(
                "ShapeMismatch", (len(self.f), len(self.tau)),
                f"f and tau need s + r = {self.s + self.r} entries, got "
                f"{len(self.f)} and {len(self.tau)}"))
        else:
            for n, v in enumerate(self.f):
                if v < 1:
                    problems.append(Problem(
                        "ZeroValue", (n,), f"f({n}) = {v} is below 1"))
            for n in range(self.s + self.r):
                nxt = self.value(n + 1)
                if nxt < self.f[n] - 1:
                    problems.append(Problem(
                        "DropTooSteep", (n,),
                        f"f drops from {self.f[n]} at {n} to {nxt} at "
                        f"{n + 1}; at most one event can terminate per move"))
            for n, ts in enumerate(self.tau):
                bad = sorted(t for t in ts if t < 0 or t > self.f[n])
                if bad:
                    problems.append(Problem(
                        "TauOutOfRange", (n,),
                        f"tau({n}) contains {bad}, outside 0..{self.f[n]}"))
        if problems:
            raise InvalidUPFunction(problems)

    def wrap(self, n: int) -> int:
        return n if n < self.s + self.r else self.s + (n - self.s) % self.r

    def value(self, n: int) -> int:
        return self.f[self.wrap(n)]


def print_up(up: UPFunction) -> str:
    taus = ";".join("{" + ",".join(str(t) for t in sorted(ts)) + "}"
                    for ts in up.tau)
    return (f"r={up.r} s={up.s} f={','.join(str(v) for v in up.f)} "
            f"tau={taus}")


def parse_up(text: str) -> UPFunction:
    """Parse the ``r=.. s=.. f=v,v,.. tau={..};{..};..`` format."""
    fields: dict[str, tuple[str, int]] = {}
    pos = 0
    for token in text.split():
        at = text.index(token, pos)
        pos = at + len(token)
        if "=" not in token:
            raise ParseError(at, f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if key not in ("r", "s", "f", "tau"):
            raise ParseError(at, f"unknown key {key!r}")
        if key in fields:
            raise ParseError(at, f"duplicate key {key!r}")
        fields[key] = (value, at)
    for key in ("r", "s", "f", "tau"):
        if key not in fields:
            raise ParseError(len(text), f"missing key {key!r}")

    def decimal(value: str, at: int, message: str) -> int:
        if value.isdecimal():
            try:
                return int(value)
            except ValueError:  # more digits than int() converts
                pass
        raise ParseError(at, message)

    def number(key: str) -> int:
        value, at = fields[key]
        return decimal(value, at, f"{key} must be a number, got {value!r}")

    r, s = number("r"), number("s")
    f_text, f_at = fields["f"]
    f = [decimal(part, f_at, f"bad f entry {part!r}")
         for part in f_text.split(",")]
    tau_text, tau_at = fields["tau"]
    tau = []
    for part in tau_text.split(";"):
        if not (part.startswith("{") and part.endswith("}")):
            raise ParseError(tau_at, f"bad tau entry {part!r}")
        inner = part[1:-1]
        tau.append(frozenset(decimal(e, tau_at, f"bad tau entry {part!r}")
                             for e in inner.split(",")) if inner
                   else frozenset())
    return UPFunction(r, s, tuple(f), tuple(tau))


# --------------------------------------------------------------------------
# building

def build(up: UPFunction, letter: str = "a") -> HDA:
    """The HDA of an ultimately periodic description: vertex n carries
    cells of every dimension up to f(n); terminating any events advances
    to vertex n+1 (wrapping into the period)."""
    total = up.s + up.r

    def cid(k: int, n: int) -> str:
        return f"x{k}_{n}"

    cells = []
    for n in range(total):
        nxt = up.wrap(n + 1)
        for k in range(up.f[n] + 1):
            lower = tuple(cid(k - 1, n) for _ in range(k))
            upper = tuple(cid(k - 1, nxt) for _ in range(k))
            cells.append(Cell(cid(k, n), (letter,) * k, lower, upper))
    accept = [cid(k, n) for n in range(total) for k in sorted(up.tau[n])]
    return HDA(cells, [cid(0, 0)], accept, [letter])


# --------------------------------------------------------------------------
# analysis

_SINK = object()  # the looping vertex after a stuck one; no cell id


def _corner(hda: HDA, cell_id: str) -> str:
    return face(hda, cell_id, 0, range(hda.cells[cell_id].dim))


def analyze(hda: HDA) -> UPFunction:
    """The minimal ultimately periodic description of a one-letter HDA.

    Raises NotUPRepresentable when the automaton is not over exactly one
    letter, does not start in a single vertex, has inaccessible cells, or
    is not deterministic.  The walk follows each vertex's one outgoing
    edge, or steps to the sink, which has f = 1 and no accepting dimension.
    """
    if len(hda.alphabet) != 1:
        raise NotUPRepresentable(
            "NotOneLetter",
            f"alphabet {sorted(hda.alphabet)} does not have exactly one letter")
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

    ok, why = is_deterministic_hda(hda)
    if not ok:
        raise NotUPRepresentable("NotDeterministic", why)

    out_edges: dict[str, list[str]] = {}
    for c in hda.cells.values():
        if c.dim == 1:
            out_edges.setdefault(c.lower[0], []).append(c.id)

    walk = [v0]
    index = {v0: 0}
    while True:
        edges = sorted(out_edges.get(walk[-1], ()))
        if len(edges) > 1:
            raise NotUPRepresentable(
                "NotDeterministic",
                f"vertex {walk[-1]!r} has outgoing edges {edges}")
        nxt = hda.cells[edges[0]].upper[0] if edges else _SINK
        if nxt in index:
            s0 = index[nxt]
            r0 = len(walk) - s0
            break
        index[nxt] = len(walk)
        walk.append(nxt)

    f0 = [1] * len(walk)  # an edge leaves each vertex, or the sink's loop
    tau0 = [set() for _ in walk]
    # every cell is reachable from v0 and each walk vertex has at most one
    # edge out, so the lower corner of every cell lies on the walk
    for cid, c in hda.cells.items():
        n = index[_corner(hda, cid)]
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
