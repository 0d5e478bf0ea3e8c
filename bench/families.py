"""Seeded input families for the benchmark, as plain data.

Everything here returns dicts in the ``.hda`` JSON layout and bracket
strings; nothing imports ``hdalang``.  The library only
ever sees what these generators produce, so an edit to the test fixtures
cannot change a workload.  The seed moves the cell names and cell order
of the loops, the letters and positions in rejected words and the member
orderings of the 5- and 6-cube, never the known answers.

The cubes keep their own cell names and cell order.  The library visits
cells in set and dict order, so names and order move the cost of a query
on a cube: renamed and shuffled, the 7-cube took 345 to 458 ms for the
same kind of member query.  Such a spread comes from the presentation of
the input, not the program, and would hide the program's own changes.
"""
import itertools
import random

CUBE_SIZES = (2, 3, 4, 5, 6, 7)
# include and equivalent stop at the 6-cube: on the 7-cube they take 1.2 to
# 3.6 s a query, and a pass that long leaves too few passes in a run for
# their times to settle
COMPARE_MAX_D = 6
# seeded orderings of a cube's events, asked as members; none on the
# 7-cube, where each member query takes about 0.4 s
CUBE_ORDERINGS = {5: 2, 6: 2}
# n=150 and n=200 are left out for the same reason: 2.4 s and 6 s a word
WORD_SIZES = (25, 50, 100)
# rejected words of the short sizes, each parsed and decided: with them a
# single pass of long_words holds more than 100 queries, and its median
# and 90th percentile fall inside clusters of like queries (n=25 and n=50)
# instead of between two single long words
LIGHT_WORDS = {25: 90, 50: 20}
ODD_LETTERS = "bcz"
COUNT_SIZES = (4, 8, 16, 32)


# --------------------------------------------------------------------------
# naming

def renamed(data, rng, prefix):
    """The same automaton with seeded cell ids and a shuffled cell list."""
    ids = sorted(c["id"] for c in data["cells"])
    numbers = rng.sample(range(10 * len(ids)), len(ids))
    new = {old: f"{prefix}{n}" for old, n in zip(ids, numbers)}
    cells = [{"id": new[c["id"]], "events": list(c["events"]),
              "d0": [new[f] for f in c["d0"]], "d1": [new[f] for f in c["d1"]]}
             for c in data["cells"]]
    rng.shuffle(cells)
    return {"alphabet": list(data["alphabet"]), "cells": cells,
            "start": sorted(new[s] for s in data["start"]),
            "accept": sorted(new[s] for s in data["accept"])}


def _cell(cid, events=(), d0=(), d1=()):
    return {"id": cid, "events": list(events), "d0": list(d0), "d1": list(d1)}


# --------------------------------------------------------------------------
# automata

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
        cells.append(_cell(cid(t), [f"a{i}" for i in run],
                           [cid(t[:i] + (0,) + t[i + 1:]) for i in run],
                           [cid(t[:i] + (1,) + t[i + 1:]) for i in run]))
    return {"alphabet": [f"a{i}" for i in range(d)], "cells": cells,
            "start": [cid((0,) * d)], "accept": [cid((1,) * d)]}


def skeleton_of(data, k):
    """The sub-automaton of cells of dimension at most k."""
    keep = [c for c in data["cells"] if len(c["events"]) <= k]
    ids = {c["id"] for c in keep}
    return {"alphabet": list(data["alphabet"]), "cells": keep,
            "start": [s for s in data["start"] if s in ids],
            "accept": [s for s in data["accept"] if s in ids]}


def parallel_square():
    """One filled ab-square with plain corners: a || b and what it subsumes."""
    return {"alphabet": ["a", "b"], "cells": [
        _cell("v00"), _cell("v10"), _cell("v01"), _cell("v11"),
        _cell("ha0", "a", ["v00"], ["v10"]), _cell("ha1", "a", ["v01"], ["v11"]),
        _cell("vb0", "b", ["v00"], ["v01"]), _cell("vb1", "b", ["v10"], ["v11"]),
        _cell("sq", "ab", ["vb0", "ha0"], ["vb1", "ha1"]),
    ], "start": ["v00"], "accept": ["v11"]}


def a_loop():
    """One vertex with an a-loop: every word a^n, nothing else."""
    return {"alphabet": ["a"], "cells": [_cell("v"), _cell("e", "a", ["v"], ["v"])],
            "start": ["v"], "accept": ["v"]}


def two_lane_loop():
    """A loop with two lanes through one base vertex.  Lane 1 reads a||b
    then c then d, lane 2 reads a then b then c||d; each lane has exactly
    one sparse path reading the word abcd, so (abcd)^m has exactly 2^m."""
    cells = [_cell(n) for n in ("base", "w1", "w2", "w3", "w4",
                                "u1", "u2", "u3", "u4")]
    cells += [
        _cell("ea1", "a", ["base"], ["w1"]), _cell("eb1", "b", ["base"], ["w2"]),
        _cell("eb2", "b", ["w1"], ["w3"]), _cell("ea2", "a", ["w2"], ["w3"]),
        _cell("sq_ab", "ab", ["eb1", "ea1"], ["eb2", "ea2"]),
        _cell("ec", "c", ["w3"], ["w4"]), _cell("ed", "d", ["w4"], ["base"]),
        _cell("fa", "a", ["base"], ["u1"]), _cell("fb", "b", ["u1"], ["u2"]),
        _cell("ec1", "c", ["u2"], ["u3"]), _cell("ed1", "d", ["u2"], ["u4"]),
        _cell("ed2", "d", ["u3"], ["base"]), _cell("ec2", "c", ["u4"], ["base"]),
        _cell("sq_cd", "cd", ["ed1", "ec1"], ["ed2", "ec2"]),
    ]
    return {"alphabet": ["a", "b", "c", "d"], "cells": cells,
            "start": ["base"], "accept": ["base"]}


# the README's data files, kept here so the CLI records cannot drift with them
FILLED_SQUARE = {"alphabet": ["a", "b"], "cells": [
    _cell("e", "a", ["v"], ["w"]), _cell("f", "a", ["x"], ["y"]),
    _cell("g", "b", ["v"], ["x"]), _cell("h", "b", ["w"], ["y"]),
    _cell("q", "ab", ["g", "e"], ["h", "f"]),
    _cell("v"), _cell("w"), _cell("x"), _cell("y"),
], "start": ["g", "v"], "accept": ["g", "h", "y"]}

PARALLEL_AB = {"alphabet": ["a", "b"], "cells": sorted(
    parallel_square()["cells"], key=lambda c: c["id"]),
    "start": ["v00"], "accept": ["v11"]}

BRANCHING_SQUARE = {"alphabet": ["a", "b", "c"], "cells": [
    _cell("bot", "a", ["c00"], ["c10"]), _cell("bq", "b", ["c10"], ["p"]),
    _cell("c00"), _cell("c01"), _cell("c10"), _cell("c11"),
    _cell("cq", "c", ["p"], ["c11"]), _cell("left", "b", ["c00"], ["c01"]),
    _cell("p"), _cell("q", "ab", ["left", "bot"], ["right", "top"]),
    _cell("right", "b", ["c10"], ["c11"]), _cell("top", "a", ["c01"], ["c11"]),
], "start": ["c00"], "accept": ["c11"]}

ONE_LETTER_CHAIN = {"alphabet": ["a"], "cells": (
    [_cell(f"e{n}", "a", [f"v{n}"], [f"v{n + 1}"]) for n in range(8)]
    + [_cell("e8", "a", ["v8"], ["v8"])]
    + [_cell(name, "aa", [f"e{n}"] * 2, [f"e{n + 1}"] * 2)
       for name, n in (("sqA", 1), ("sqB", 2), ("sqC", 4))]
    + [_cell(f"v{n}") for n in range(9)]), "start": ["v0"], "accept": ["v7"]}

DATA_FILES = {"filled_square": FILLED_SQUARE, "parallel_ab": PARALLEL_AB,
              "branching_square": BRANCHING_SQUARE,
              "one_letter_chain": ONE_LETTER_CHAIN}


# --------------------------------------------------------------------------
# words and ipomsets as bracket text

def word_text(letters):
    return "".join(f"[{x}+][{x}-]" for x in letters)


def parallel_text(letters):
    return ("[" + " ".join(f"{x}+" for x in letters) + "]["
            + " ".join(f"{x}-" for x in letters) + "]")


# --------------------------------------------------------------------------
# one workload's inputs

def generate(workload, seed):
    """All inputs of one workload as plain data, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cube_decide":
        cubes = []
        for d in CUBE_SIZES:
            x = cube(d)
            letters = [f"a{i}" for i in range(d)]
            orderings = [rng.sample(letters, d) for _ in range(CUBE_ORDERINGS.get(d, 0))]
            cubes.append((d, x, skeleton_of(x, d - 1), orderings))
        return {"cubes": cubes, "files": DATA_FILES, "loop": a_loop()}
    if workload == "long_words":
        words = [(n, word_text("a" * n), rng.choice(ODD_LETTERS)) for n in WORD_SIZES]
        light = []
        for n, count in LIGHT_WORDS.items():
            texts = []
            for _ in range(count):
                k = rng.randrange(n)
                texts.append(word_text("a" * k + rng.choice(ODD_LETTERS)
                                       + "a" * (n - k - 1)))
            light.append((n, texts))
        counts = [(m, word_text("abcd" * m)) for m in COUNT_SIZES]
        return {"loop": renamed(a_loop(), rng, "l"),
                "lanes": renamed(two_lane_loop(), rng, "t"),
                "words": words, "light": light, "counts": counts,
                "pump": word_text("aaa")}
    raise ValueError(f"unknown workload {workload!r}")
