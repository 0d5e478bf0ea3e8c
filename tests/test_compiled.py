"""The compiled ST-automaton against the uncached, linear-scan reference
in oracles.py: same automaton, same verdicts, same printed witnesses."""
import random

import pytest

from hdalang import (HDA, InvalidSTAutomaton, STAutomaton, Step, accepts,
                     accepts_word, build, coherent_word, compose,
                     discrete_ipomset, empty, equivalent, identity_step,
                     include, member, parse_ipomset, skeleton, st_of_hda,
                     stauto, starter, terminator)
from hdalang import ipomset
from hdalang.ipomset import _KINDS, _letters
from hdalang.text import parse_step_word, print_ipomset, print_step

from fixtures import (a_loop, ab_c_rectangle, branching_square, cube,
                      filled_square, hda_union, one_letter_chain,
                      parallel_square, random_chaining_word, random_hda,
                      random_ipomset, random_up, rectangle_pair,
                      track_hda, two_lane_loop)
from oracles import (compile_oracle, complement_words_oracle,
                     emptiness_oracle, inclusion_oracle, index_oracle,
                     member_oracle, st_of_hda_oracle, st_problems_oracle,
                     st_transitions_oracle, step_fields_oracle,
                     successors_oracle)

FIXTURES = [filled_square(), branching_square(), parallel_square(), a_loop(),
            one_letter_chain(), two_lane_loop(), rectangle_pair(),
            ab_c_rectangle(), cube(3),
            hda_union(branching_square(), parallel_square(("v00", "v10")))]


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


# -- the index built in one pass ---------------------------------------------

def rows(a):
    """The successor index with its order made visible."""
    return [(q, list(row.items())) for q, row in a.successors.items()]


def test_index_matches_the_stored_triples_reference():
    rng = random.Random(7)
    for x in FIXTURES + [random_hda(rng) for _ in range(100)]:
        a, raw = st_of_hda(x), st_transitions_oracle(x)
        assert a.transitions == frozenset(raw) == st_of_hda_oracle(x).transitions
        assert rows(a) == rows(st_of_hda_oracle(x))
        ref = successors_oracle(a.states, raw)
        assert [(q, list(ref[q].items())) for q in a.successors] == rows(a)


def test_transitions_are_derived_once_from_the_index():
    a = st_of_hda(filled_square())
    assert a._transitions is None
    assert a.transitions is a.transitions
    assert len(a.transitions) == 14


def faulty(rng, x):
    """Raw automaton data of x with a few transitions broken or doubled."""
    states = {cid: c.events for cid, c in x.cells.items()}
    transitions = st_transitions_oracle(x)
    steps = [s for _, s, _ in transitions] or [starter(("a",), (0,))]
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(transitions)) if transitions else None
        fault = rng.choice(("source", "target", "step", "identity", "again"))
        if i is None or fault == "identity":
            q = rng.choice(sorted(states))
            transitions.append((q, identity_step(states[q]), q))
            continue
        q, s, r = transitions[i]
        if fault == "source":
            transitions[i] = (rng.choice(sorted(states) + ["gone"]), s, r)
        elif fault == "target":
            transitions[i] = (q, s, rng.choice(sorted(states) + ["gone"]))
        elif fault == "step":
            transitions[i] = (q, rng.choice(steps), r)
        else:
            transitions.append((q, Step(s.kind, s.conclist, s.marked), r))
    return (x.alphabet, states, transitions,
            x.start | ({"nope"} if rng.random() < 0.2 else set()), x.accept)


def test_problem_lists_match_the_reference():
    rng = random.Random(13)
    raised = 0
    for x in FIXTURES + [random_hda(rng) for _ in range(150)]:
        args = faulty(rng, x)
        problems = st_problems_oracle(*args)
        try:
            STAutomaton(*args)
        except InvalidSTAutomaton as exc:
            assert list(exc.problems) == problems
            raised += 1
        else:
            assert problems == []
    assert raised > 100


def test_doubled_transitions_are_indexed_once():
    x = branching_square()
    raw = st_transitions_oracle(x)
    states = {cid: c.events for cid, c in x.cells.items()}
    twice = STAutomaton(x.alphabet, states, raw + raw[::-1], x.start, x.accept)
    assert rows(twice) == rows(st_of_hda(x))
    assert twice.transitions == frozenset(raw)


def test_built_automata_skip_the_check_of_passed_triples(monkeypatch):
    # the library's own automata are valid by construction; only the
    # triples a caller passes in are checked
    def refuse(self, transitions):
        raise AssertionError("transitions checked")

    monkeypatch.setattr(STAutomaton, "_checked", refuse)
    a = st_of_hda(cube(3))
    m = stauto.match_automaton("ab", 2)
    c = stauto.complement_words(a, 2)
    assert (len(a.transitions), len(m.states), len(c.states)) == (
        2 * (4 ** 3 - 3 ** 3), 7, 39)
    assert shown(include(cube(2), cube(2))) == (True, None)
    with pytest.raises(AssertionError, match="transitions checked"):
        STAutomaton("a", {"v": ()}, [], ["v"], ["v"])


def test_universe_indexes_match_the_reference():
    for alphabet, k in (("a", 3), ("ab", 1), ("ab", 3), ("abc", 2),
                        (("a b", "a", "b"), 2)):
        m = stauto.match_automaton(alphabet, k)
        letters = sorted(alphabet)
        ids = {cl: sid for sid, cl in m.states.items()}
        raw = [(sid, s, ids[s.target_conclist()])
               for sid, cl in m.states.items()
               for s in _letters(cl, letters, k - len(cl))]
        ref = index_oracle(m.states, raw)
        assert list(m.successors) == list(m.states)
        assert [(q, list(ref[q].items())) for q in m.successors] == rows(m)


def test_complement_indexes_match_the_reference():
    rng = random.Random(41)
    for x in FIXTURES + [random_hda(rng) for _ in range(40)]:
        a = st_of_hda(x)
        for k in (1, 2):
            got = stauto.complement_words(a, k)
            want = complement_words_oracle(a, k).transitions
            ref = index_oracle(got.states, want)
            assert list(got.successors) == list(got.states)
            assert rows(got) == [(q, list(ref[q].items()))
                                 for q in got.successors]


# -- steps hashed once ----------------------------------------------------------

def test_parsed_steps_find_the_interned_ones():
    for x in FIXTURES:
        a = st_of_hda(x)
        for q, row in a.successors.items():
            for s, targets in row.items():
                (t,) = parse_step_word(print_step(s)).steps
                assert t is not s and t == s and hash(t) == hash(s)
                assert hash(s) == hash((s.kind, s.conclist, s.marked))
                assert t.key() == s.key()
                assert a.successors[q].get(t) is targets


def test_steps_differ_by_any_field():
    s = starter(("a", "b"), (0,))
    assert s != starter(("a", "b"), (1,))
    assert s != terminator(("a", "b"), (0,))
    assert s != starter(("a", "c"), (0,))
    assert s != ("starter", ("a", "b"), frozenset({0}))
    assert s.source_conclist() == ("b",) and s.target_conclist() == ("a", "b")


def test_compiling_builds_one_step_per_distinct_step(monkeypatch):
    x = cube(5)
    built = []
    init = Step.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Step, "__init__", counting)
    a = st_of_hda(x)
    steps = {s for row in a.successors.values() for s in row}
    assert len(built) == len(steps) == len({id(s) for _, s, _ in a.transitions})
    assert len(a.transitions) == 2 * (4 ** 5 - 3 ** 5)


def test_cube_indexes_match_the_references():
    # content and row order, against the index built from the stored
    # triples and the one built a transition at a time
    for d in range(1, 7):
        x = cube(d)
        for y in (x, skeleton(x, d - 1)):
            a, raw = st_of_hda(y), st_transitions_oracle(y)
            assert rows(a) == rows(st_of_hda_oracle(y))
            ref = index_oracle(a.states, raw)
            assert [(q, list(ref[q].items())) for q in a.successors] == rows(a)


def test_compiling_keys_each_step_once_and_hashes_little(monkeypatch):
    keyed, hashed = [], []
    key, hash_ = Step.key, Step.__hash__

    def counting_key(self):
        keyed.append(self)
        return key(self)

    def counting_hash(self):
        hashed.append(self)
        return hash_(self)

    x = cube(5)
    monkeypatch.setattr(Step, "key", counting_key)
    monkeypatch.setattr(Step, "__hash__", counting_hash)
    a = st_of_hda(x)
    keys, hashes = len(keyed), len(hashed)
    monkeypatch.undo()
    steps = {s for row in a.successors.values() for s in row}
    transitions = sum(len(t) for row in a.successors.values()
                      for t in row.values())
    assert transitions == 2 * (4 ** 5 - 3 ** 5)
    assert keys <= len(steps)
    assert hashes <= 2 * transitions


def compiled_rows(a):
    """Each row in order, each step with its key, interfaces and the
    place it first appeared in (so that shared step objects show), and
    its targets."""
    first = {}
    return [(q, [((s.key(), s.source_conclist(), s.target_conclist(),
                   first.setdefault(id(s), (q, s.key()))), targets)
                 for s, targets in row.items()])
            for q, row in a.successors.items()]


def test_compiled_rows_match_the_groups_sorted_afterwards():
    # the groups made in key order give the rows, the row order and the
    # shared steps that the groups sorted into key order gave
    rng = random.Random(4401)  # the sweep of test_runs.py
    xs = FIXTURES + [ab_c_rectangle(c_first=True),
                     track_hda(discrete_ipomset("abc")),
                     track_hda(parse_ipomset("[a+ b+][a- b][b c+][b- c-]"))]
    xs += [random_hda(rng) for _ in range(200)]
    xs += [build(random_up(rng)) for _ in range(30)]
    for d in range(1, 8):
        xs += [cube(d), skeleton(cube(d), d - 1)]
    for x in xs:
        a, ref = st_of_hda(x), compile_oracle(x)
        assert compiled_rows(a) == compiled_rows(ref)
        assert (a.states, a.initial, a.final, a.width_bound) == (
            ref.states, ref.initial, ref.final, ref.width_bound)


def test_compiling_hands_the_groups_over_in_key_order(monkeypatch):
    # so that the one sort in _rows is a single run
    handed = []
    rows = stauto._rows

    def recording(states, groups):
        handed.append([s.key() for s, _, _ in groups])
        return rows(states, groups)

    monkeypatch.setattr(stauto, "_rows", recording)
    for x in [cube(4), skeleton(cube(4), 2)] + FIXTURES:
        # a fresh instance, compiled here
        st_of_hda(HDA(x.cells.values(), x.start, x.accept, x.alphabet))
        (keys,) = handed
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        handed.clear()


def test_steps_match_the_reference_on_first_and_later_sight():
    # the sorted marks and unmarked positions are kept per (marks, width)
    # once a step over them is built; a mark set out of range is not kept
    # and raises again, naming the same position
    ipomset._layout.cache_clear()
    rng = random.Random(1802)
    cases = []
    for _ in range(3000):
        width = rng.randrange(6)
        conclist = tuple(rng.choice("abc") for _ in range(width))
        marked = frozenset(rng.sample(range(-2, width + 2),
                                      rng.randrange(min(width, 3) + 1)))
        kind = rng.choice(_KINDS + ("bogus", "Starter"))
        cases.append((kind, conclist, marked))
    errors = set()
    for sight in ("first", "later"):
        for case in cases:
            try:
                want = step_fields_oracle(*case)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    Step(*case)
                assert str(got.value) == str(exc), (sight, case)
                errors.add(str(exc).split(":")[0])
                continue
            s = Step(*case)
            assert (s.key(), hash(s), s.source_conclist(),
                    s.target_conclist()) == want, (sight, case)
            assert (s.kind, s.conclist, s.marked) == case
    assert errors == {"unknown step kind", "marked position out of range",
                      "identity steps are exactly the unmarked ones"}


# -- member runs the sparse word ----------------------------------------------

def test_member_agrees_with_the_coherent_word():
    rng = random.Random(29)
    xs = FIXTURES + [random_hda(rng) for _ in range(200)]
    for x in xs:
        a = st_of_hda(x)
        letters = "".join(sorted(x.alphabet))
        probes = [random_ipomset(rng, alphabet=letters, max_events=4)
                  for _ in range(3)]
        probes += [compose(random_chaining_word(rng, alphabet=letters,
                                                max_events=5, max_width=3))
                   for _ in range(3)]
        for p in probes:
            assert stauto.member(a, p) == accepts_word(a, coherent_word(p))
