"""The compiled ST-automaton against the uncached, linear-scan reference
in oracles.py: same automaton, same verdicts, same printed witnesses."""
import random

import pytest

from hdalang import (HDA, InvalidSTAutomaton, STAutomaton, accepts, empty,
                     equivalent, identity_step, include, member, st_of_hda,
                     starter, terminator)
from hdalang.text import print_ipomset

from fixtures import (a_loop, branching_square, filled_square, hda_union,
                      one_letter_chain, parallel_square, random_hda,
                      random_ipomset, rectangle_pair, two_lane_loop)
from oracles import (emptiness_oracle, inclusion_oracle, member_oracle,
                     st_of_hda_oracle, st_problems_oracle)


def shown(answer):
    ok, witness = answer
    return ok, None if witness is None else print_ipomset(witness)


def test_st_of_hda_compiles_once_per_instance():
    x = filled_square()
    a = st_of_hda(x)
    assert st_of_hda(x) is a
    member(x, random_ipomset(random.Random(1)))
    include(x, x)
    assert st_of_hda(x) is a
    # an equal automaton built anew is compiled anew
    y = HDA(x.cells.values(), x.start, x.accept, x.alphabet)
    assert st_of_hda(y) is not a


def test_compiled_steps_are_interned():
    a = st_of_hda(filled_square())
    steps = [s for _, s, _ in a.transitions]
    assert len({id(s) for s in steps}) == len(set(steps))


@pytest.mark.parametrize("make", [filled_square, branching_square])
def test_successor_index_is_in_step_key_order(make):
    a = st_of_hda(make())
    assert set(a.successors) == set(a.states)
    for q, row in a.successors.items():
        assert list(row) == sorted(row, key=lambda s: s.key())
        for s, targets in row.items():
            assert targets == tuple(sorted(targets))
            assert all((q, s, r) in a.transitions for r in targets)
    assert sum(len(t) for row in a.successors.values()
               for t in row.values()) == len(a.transitions)


def test_sweep_against_reference():
    rng = random.Random(2305)
    for _ in range(200):
        x, y = random_hda(rng), random_hda(rng)
        ax, ay = st_of_hda_oracle(x), st_of_hda_oracle(y)
        assert st_of_hda(x).transitions == ax.transitions
        assert st_of_hda(x).states == ax.states

        emptied = emptiness_oracle(ax)
        assert shown(empty(x)) == shown(emptied)
        ref_xy, ref_yx = inclusion_oracle(ax, ay), inclusion_oracle(ay, ax)
        assert shown(include(x, y)) == shown(ref_xy)
        assert shown(equivalent(x, y)) == shown(ref_yx if ref_xy[0] else ref_xy)

        probes = [random_ipomset(rng, max_events=4) for _ in range(3)]
        probes += [w for _, w in (emptied, ref_xy, ref_yx) if w is not None]
        for p in probes:
            verdict = member(x, p)
            assert verdict == member_oracle(ax, p) == accepts(x, p)


def test_fixture_pairs_against_reference():
    # the branching square and the unions step one letter to several cells
    xs = [filled_square(), branching_square(), parallel_square(), a_loop(),
          one_letter_chain(), two_lane_loop(), rectangle_pair(),
          hda_union(branching_square(), parallel_square(("v00", "v10")))]
    refs = [st_of_hda_oracle(x) for x in xs]
    assert any(len(t) > 1 for row in st_of_hda(xs[1]).successors.values()
               for t in row.values())
    for x, ax in zip(xs, refs):
        assert shown(empty(x)) == shown(emptiness_oracle(ax))
        for y, ay in zip(xs, refs):
            assert shown(include(x, y)) == shown(inclusion_oracle(ax, ay))


def test_several_faults_are_reported_in_reference_order():
    args = ("a",
            {"v": (), "w": ("a",), "u": ("b",)},
            [("w", terminator(("a",), (0,)), "gone"),
             ("v", starter(("b",), (0,)), "w"),
             ("v", identity_step(()), "v"),
             ("zz", starter(("a",), (0,)), "w"),
             ("u", terminator(("b",), (0,)), "v"),
             ("v", starter(("a",), (0,)), "u")],
            ["nope", "v"], ["w", "gone", "also_gone"])
    with pytest.raises(InvalidSTAutomaton) as exc:
        STAutomaton(*args)
    assert list(exc.value.problems) == st_problems_oracle(*args)
    assert [(p.code, p.subjects) for p in exc.value.problems] == [
        ("DanglingReference", ("nope",)),
        ("DanglingReference", ("also_gone",)),
        ("DanglingReference", ("gone",)),
        ("DanglingReference", ("b",)),
        ("StateLabelMismatch", ("u",)),
        ("IdentityTransition", ("v", "v")),
        ("StateLabelMismatch", ("w",)),
        ("DanglingReference", ("w", "gone")),
        ("DanglingReference", ("zz", "w")),
    ]
