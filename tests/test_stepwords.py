"""Splitting, merging and generating step words, against the references
in oracles.py: the dense simulation, the hand merge of path moves, the
subset search for supersumptions and the separate letter loops give the
same words, paths, ipomsets and automata as the library."""
import itertools
import random

import pytest

from hdalang import (Ipomset, Move, Path, dense_decomposition,
                     discrete_ipomset, ev, enumerate_ipomsets, export_st,
                     match_automaton, parse_ipomset, sparsify, supersumptions,
                     word_ipomset)
from hdalang.hda import composite_faces
from hdalang.ipomset import _letters
from hdalang.text import print_ipomset

from fixtures import (a_loop, ab_c_rectangle, branching_square, filled_square,
                      one_letter_chain, parallel_square, random_hda,
                      rectangle_pair, track_hda, two_lane_loop)
from oracles import (dense_decomposition_oracle, enumerate_ipomsets_oracle,
                     match_automaton_oracle, sparsify_oracle,
                     supersumptions_oracle, width_letters_oracle)


def rebuilt(p):
    """The same ipomset built from its relations, carrying no word."""
    return Ipomset(p.labels, p.precedence, p.event_order, p.source, p.target)


def shown(ipomsets):
    return [print_ipomset(q) for q in ipomsets]


SMALL = list(enumerate_ipomsets("ab", 3))


@pytest.mark.parametrize("build", [lambda p: p, rebuilt],
                         ids=["composed", "relation-built"])
def test_dense_words_split_the_sparse_ones(build):
    for p in SMALL:
        if not p.is_identity():
            assert dense_decomposition(build(p)) == dense_decomposition_oracle(p)


@pytest.mark.parametrize("build", [lambda p: p, rebuilt],
                         ids=["composed", "relation-built"])
def test_supersumptions_walk_matches_the_subset_search(build):
    for p in SMALL:
        for k in (p.width(), p.width() + 1):
            got = supersumptions(build(p), k)
            assert shown(got) == shown(supersumptions_oracle(p, k)), (p, k)


@pytest.mark.parametrize("word", ["abcd", "aabb"])
@pytest.mark.parametrize("k", [2, 3])
def test_supersumptions_of_words(word, k):
    p = word_ipomset(word)
    assert shown(supersumptions(p, k)) == shown(supersumptions_oracle(p, k))


@pytest.mark.parametrize("args", [("ab", 4), ("abc", 3, 2)])
def test_enumeration_order_is_unchanged(args):
    got = [q.key() for q in enumerate_ipomsets(*args)]
    assert got == [q.key() for q in enumerate_ipomsets_oracle(*args)]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_match_automaton_is_unchanged(k):
    assert export_st(match_automaton("ab", k)) == export_st(
        match_automaton_oracle("ab", k))


def test_letters_match_the_width_loops():
    for k in range(4):
        for n in range(k + 1):
            for cl in itertools.product("ab", repeat=n):
                assert list(_letters(cl, "ab", k - n)) == list(
                    width_letters_oracle(cl, "ab", k))


def random_path(x, rng, length):
    """A path from a random cell: random up and down moves, in the last
    move's direction when it can and a coin says so, with an empty move
    in place of one in four."""
    up = x.up_steps()
    cur = rng.choice(sorted(x.cells))
    origin, moves = cur, []
    for _ in range(length):
        c = x.cells[cur]
        options = [Move("up", a, y) for a, y in up[cur]]
        options += [Move("down", frozenset(b), z)
                    for b, _, z in composite_faces(x, c)]
        same = [m for m in options if moves and m.direction == moves[-1].direction]
        if same and rng.random() < 0.6:
            options = same
        if rng.random() < 0.25 or not options:
            m = Move(rng.choice(("up", "down")), frozenset(), cur)
        else:
            m = rng.choice(options)
        moves.append(m)
        cur = m.target
    return Path(origin, tuple(moves))


FIXTURES = [filled_square, branching_square, parallel_square, a_loop,
            one_letter_chain, two_lane_loop, ab_c_rectangle, rectangle_pair]


def test_sparsify_matches_the_hand_merge():
    rng = random.Random(5150)
    automata = [f() for f in FIXTURES]
    automata += [track_hda(discrete_ipomset("aab")),
                 track_hda(parse_ipomset("[a+ b+ c+][a- b c][b d+ c][b- d- c-]"))]
    automata += [random_hda(rng) for _ in range(40)]
    for x in automata:
        for _ in range(60):
            path = random_path(x, rng, rng.randrange(0, 9))
            got = sparsify(x, path)
            assert got == sparsify_oracle(x, path)
            assert ev(x, got) == ev(x, path)
