"""Ultimately periodic descriptions of one-letter HDAs."""
import random

import pytest

from hdalang import (HDA, Cell, InvalidUPFunction, NotUPRepresentable,
                     ParseError, UPFunction, analyze, build, identity_ipomset,
                     member, parse_up, print_up, word_ipomset)

from fixtures import (a_loop, ab_c_rectangle, branching_square, cube,
                      filled_square, one_letter_chain, parallel_square,
                      random_hda, random_up, rectangle_pair, track_hda,
                      two_lane_loop)
from oracles import analyze_oracle


def codes(err):
    return [p.code for p in err.problems]


# -- validation -------------------------------------------------------------------

def test_period_must_be_positive():
    with pytest.raises(InvalidUPFunction) as err:
        UPFunction(0, 1, (1,), (frozenset(),))
    assert codes(err.value) == ["ShapeMismatch"]


def test_entry_counts_must_match_shape():
    with pytest.raises(InvalidUPFunction) as err:
        UPFunction(1, 1, (1,), (frozenset(), frozenset()))
    assert codes(err.value) == ["ShapeMismatch"]


def test_values_start_at_one():
    with pytest.raises(InvalidUPFunction) as err:
        UPFunction(1, 0, (0,), (frozenset(),))
    assert codes(err.value) == ["ZeroValue"]


def test_tower_height_drops_by_at_most_one():
    # only one event can finish per move, so f(n+1) >= f(n) - 1
    with pytest.raises(InvalidUPFunction) as err:
        UPFunction(1, 1, (3, 1), (frozenset(), frozenset()))
    assert codes(err.value) == ["DropTooSteep"]


def test_drop_is_checked_across_the_period_wrap():
    with pytest.raises(InvalidUPFunction) as err:
        UPFunction(2, 0, (1, 3), (frozenset(), frozenset()))
    assert codes(err.value) == ["DropTooSteep"]


def test_accepting_dimensions_stay_below_tower():
    with pytest.raises(InvalidUPFunction) as err:
        UPFunction(1, 0, (2,), (frozenset({3}),))
    assert codes(err.value) == ["TauOutOfRange"]


def test_wrap_and_value_follow_the_period():
    up = UPFunction(2, 1, (1, 2, 3), (frozenset(),) * 3)
    assert [up.wrap(n) for n in range(6)] == [0, 1, 2, 1, 2, 1]
    assert [up.value(n) for n in range(6)] == [1, 2, 3, 2, 3, 2]


# -- text form --------------------------------------------------------------------

def test_print_up_format():
    up = UPFunction(1, 1, (2, 1), (frozenset({0, 2}), frozenset()))
    assert print_up(up) == "r=1 s=1 f=2,1 tau={0,2};{}"


def test_parse_print_roundtrip():
    rng = random.Random(11)
    for _ in range(30):
        up = random_up(rng)
        assert parse_up(print_up(up)) == up


def test_parse_rejects_malformed_text():
    for text, hint in [
        ("r=1 s=0 f=1", "missing"),
        ("r=1 r=2 s=0 f=1 tau={}", "duplicate"),
        ("r=x s=0 f=1 tau={}", "number"),
        ("r=1 s=0 f=1 tau=0", "tau"),
        ("r=1 s=0 f=1 tau={} q=2", "unknown"),
        ("r=1 s=0 f=one tau={}", "f entry"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_up(text)
        assert hint in str(err.value)
        assert isinstance(err.value.position, int)


# -- building ---------------------------------------------------------------------

def test_build_tower_structure():
    up = UPFunction(1, 1, (1, 2), (frozenset(), frozenset({0})))
    x = build(up)
    # one cell per dimension 0..f(n) at each vertex
    assert sorted(x.cells) == ["x0_0", "x0_1", "x1_0", "x1_1", "x2_1"]
    assert x.start == frozenset({"x0_0"}) and x.accept == frozenset({"x0_1"})
    assert x.cells["x2_1"].events == ("a", "a")
    # terminating from vertex 1 wraps back into the period
    assert x.cells["x1_1"].upper == ("x0_1",)
    assert x.dim() == 2


def test_build_uses_the_requested_letter():
    up = UPFunction(1, 0, (1,), (frozenset({0}),))
    x = build(up, "b")
    assert x.alphabet == frozenset({"b"})
    assert member(x, word_ipomset("bb"))


def test_built_chain_language():
    up = UPFunction(1, 1, (1, 1), (frozenset(), frozenset({0})))
    x = build(up)
    assert not member(x, identity_ipomset(()))
    assert member(x, word_ipomset("a"))
    assert member(x, word_ipomset("aaa"))


def test_accepting_dimension_one_needs_a_running_event():
    up = UPFunction(1, 0, (1,), (frozenset({1}),))
    x = build(up)
    assert member(x, word_ipomset("a", target=(0,)))
    assert not member(x, word_ipomset("a"))


# -- analysis ---------------------------------------------------------------------

def test_analyze_one_letter_chain():
    up = analyze(one_letter_chain())
    assert up.r == 1 and up.s == 8
    assert up.f == (1, 2, 2, 1, 2, 1, 1, 1, 1)
    assert up.tau == tuple(frozenset({0}) if n == 7 else frozenset()
                           for n in range(9))


def test_analyze_completes_stuck_vertices():
    # the track of aa has no outgoing edge at its last vertex; analysis
    # still finds a lasso by routing it to a sink loop
    up = analyze(track_hda(word_ipomset("aa")))
    assert up == UPFunction(1, 3, (1, 1, 1, 1),
                            (frozenset(), frozenset(), frozenset({0}),
                             frozenset()))


def test_analyze_build_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        up = random_up(rng)
        assert analyze(build(up)) == up


def test_analyze_rejects_unsuitable_automata():
    def code_of(x):
        with pytest.raises(NotUPRepresentable) as err:
            analyze(x)
        return err.value.code

    assert code_of(filled_square()) == "NotOneLetter"

    u, v, w = Cell("u", (), (), ()), Cell("v", (), (), ()), Cell("w", (), (), ())
    e = Cell("e", ("a",), ("u",), ("v",))
    assert code_of(HDA([u, v, e], ["u", "v"], ["v"])) == "MultipleStartCells"
    assert code_of(HDA([u, v, e], ["e"], ["v"])) == "MultipleStartCells"
    assert code_of(HDA([u, v, w, e], ["u"], ["v"],
                       alphabet=("a",))) == "NotAccessible"
    fork = HDA([u, v, w, e, Cell("e2", ("a",), ("u",), ("w",))], ["u"], ["v"])
    assert code_of(fork) == "NotDeterministic"


# -- the walk with its own sink, against the completed HDA -------------------------

def outcome(analyse, x):
    """The printed description, or the code and message of the refusal."""
    try:
        return print_up(analyse(x))
    except NotUPRepresentable as exc:
        return exc.code, str(exc)


def rebuilt(x, cells=None, accept=None, names=None):
    """x over the given cells and accept set, each by default x's own,
    with cells renamed by ``names``; start and accept cells that are not
    kept are dropped."""
    cells = list(x.cells.values()) if cells is None else cells
    keep = {c.id for c in cells}
    name = (names or {}).get

    def renamed(ids):
        return tuple(name(i, i) for i in ids)

    return HDA([Cell(name(c.id, c.id), c.events, renamed(c.lower),
                     renamed(c.upper)) for c in cells],
               renamed(x.start & keep),
               renamed(keep.intersection(x.accept if accept is None else accept)),
               x.alphabet)


def without_leaves(x, rng):
    """x without some of the cells that are no face of another cell;
    dropping an edge leaves its lower vertex stuck."""
    faces = {f for c in x.cells.values() for f in c.lower + c.upper}
    leaves = sorted(set(x.cells) - faces)
    if not leaves:
        return x
    dropped = set(rng.sample(leaves, rng.randint(1, len(leaves))))
    return rebuilt(x, [c for c in x.cells.values() if c.id not in dropped])


def is_stuck(x):
    """Whether some vertex of x has no outgoing edge."""
    tails = {c.lower[0] for c in x.cells.values() if c.dim == 1}
    return any(c.dim == 0 and cid not in tails for cid, c in x.cells.items())


def sweep():
    rng = random.Random(9127)
    sinks = ["sink", "sink_", "sink_loop", "sink_in0"]
    ups = [build(random_up(rng)) for _ in range(60)]
    moved = [rebuilt(x, accept=rng.sample(sorted(x.cells),
                                          rng.randint(0, len(x.cells))))
             for x in ups]
    stuck = [without_leaves(without_leaves(x, rng), rng) if rng.random() < 0.3
             else without_leaves(x, rng) for x in ups + moved]
    named = [rebuilt(x, names=dict(zip(
                 rng.sample(sorted(x.cells), min(4, len(x.cells))),
                 rng.sample(sinks, 4))))
             for x in ups[:20] + stuck]
    tracks = [track_hda(word_ipomset("a" * n, source, target))
              for n in range(1, 5) for source in ((), (0,))
              for target in ((), (n - 1,))]
    one_letter = [random_hda(rng, alphabet=("a", "a")) for _ in range(60)]
    fixtures = [filled_square(), branching_square(), parallel_square(),
                a_loop(), one_letter_chain(), two_lane_loop(),
                ab_c_rectangle(), rectangle_pair(), cube(3)]
    return ups + moved + stuck + named + tracks + one_letter + fixtures


def test_analyze_walks_the_given_automaton_like_the_completed_one():
    kinds, stuck_described = set(), 0
    for x in sweep():
        got = outcome(analyze, x)
        assert got == outcome(analyze_oracle, x)
        kinds.add(got[0] if isinstance(got, tuple) else "described")
        stuck_described += isinstance(got, str) and is_stuck(x)
    assert kinds == {"described", "NotOneLetter", "MultipleStartCells",
                     "NotAccessible", "NotDeterministic"}
    assert stuck_described >= 20
