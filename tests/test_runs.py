"""Runs on state sets and decisions on the compiled automaton, against the
in/out-node word NFA, the per-pair quotient HDAs, the skeleton
complements and the two face-based walks kept in oracles.py: same
verdicts, same printed witnesses."""
import random
import time

import pytest

from hdalang import (HDA, Cell, Ipomset, Step, accepts_word, analyze, build,
                     coherent_word, complement_empty, complement_member,
                     complement_words, count_sparse_accepting_paths, decide,
                     discrete_ipomset, empty, enumerate_wang, export_st,
                     equivalent, identity_step, include,
                     is_deterministic_hda, is_deterministic_language, member,
                     parse_ipomset, pre_set, prefix_quotient, skeleton,
                     st_of_hda, stauto, word_ipomset)
from hdalang.hda import _segment_relation
from hdalang.text import print_ipomset

from fixtures import (a_loop, ab_c_rectangle, branching_square, cube,
                      filled_square,
                      hda_union, one_letter_chain, parallel_square,
                      random_hda, random_ipomset, random_up, rectangle_pair,
                      track_hda, two_lane_loop)
from oracles import (accepts_word_oracle, complement_empty_oracle,
                     complement_member_oracle, complement_words_oracle,
                     count_sparse_accepting_paths_oracle,
                     enumerate_wang_oracle, is_deterministic_language_oracle,
                     pairs_oracle, pre_set_oracle, segment_relation_oracle,
                     st_of_hda_oracle)


def shown(answer):
    ok, witness = answer
    if witness is None:
        return ok, None
    if isinstance(witness, tuple):
        return ok, tuple(print_ipomset(w) for w in witness)
    return ok, print_ipomset(witness)


FIXTURES = [filled_square(), branching_square(), parallel_square(), a_loop(),
            one_letter_chain(), two_lane_loop(), ab_c_rectangle(),
            ab_c_rectangle(c_first=True), rectangle_pair(),
            track_hda(discrete_ipomset("abc")),
            track_hda(parse_ipomset("[a+ b+][a- b][b c+][b- c-]")),
            hda_union(branching_square(), parallel_square(("v00", "v10")))]
_rng = random.Random(4401)
RANDOM = [random_hda(_rng) for _ in range(200)]
ONE_LETTER = [build(random_up(_rng)) for _ in range(30)]
SWEEP = FIXTURES + RANDOM + ONE_LETTER
# pre_set follows every path without repeated cells: on the 3-dimensional
# one-letter automata of 19 cells or more it takes over 4 s each
PREFIX_SWEEP = FIXTURES + RANDOM + [x for x in ONE_LETTER
                                    if len(x.cells) <= 16]


def probes(x, rng, n=4, max_events=4):
    letters = "".join(sorted(x.alphabet))
    return [random_ipomset(rng, alphabet=letters, max_events=max_events,
                           max_width=max(x.dim(), 1)) for _ in range(n)]


def letter_sequences(x, rng):
    """Accepted words, coherent words of random ipomsets, the empty word,
    words of even length, an identity at an odd position, an identity
    over the wrong conclist, and random strings of the automaton's
    letters."""
    a = st_of_hda(x)
    words = sorted(enumerate_wang(a, 5), key=lambda w: [s.key() for s in w])
    words = words[:8] + [coherent_word(p) for p in probes(x, rng)]
    out = [()]
    for w in words:
        out.append(w)
        out.append(w[:-1])
        out.append(w + (w[-1],))
        if len(w) >= 3:
            out.append(w[:1] + (w[0],) + w[2:])
            wrong = identity_step(w[1].source_conclist())
            out.append(w[:2] + (wrong,) + w[3:])
            out.append(w[:2] + (identity_step(("a",) * 3),) + w[3:])
    letters = sorted({s for _, s, _ in a.transitions}, key=lambda s: s.key())
    letters += sorted({identity_step(cl) for cl in a.states.values()},
                      key=lambda s: s.key())
    for _ in range(20):
        out.append(tuple(rng.choice(letters)
                         for _ in range(rng.randint(1, 7))))
    return out


def test_accepts_word_against_the_node_nfa():
    rng = random.Random(11)
    kinds = set()
    for x in SWEEP:
        a, ref = st_of_hda(x), st_of_hda_oracle(x)
        for w in letter_sequences(x, rng):
            verdict = accepts_word(a, w)
            assert verdict == accepts_word_oracle(ref, w), w
            kinds.add((verdict, len(w) % 2))
    assert kinds == {(True, 1), (False, 0), (False, 1)}


def test_enumerate_wang_against_the_node_nfa():
    sizes = 0
    for x in SWEEP:
        words = enumerate_wang(st_of_hda(x), 9)
        assert words == enumerate_wang_oracle(st_of_hda_oracle(x), 9)
        sizes += len(words)
    assert sizes > 1000
    assert enumerate_wang(st_of_hda(filled_square()), 0) == set()


def test_pre_set_against_the_face_tables():
    for x in PREFIX_SWEEP:
        assert pre_set(x) == pre_set_oracle(x)


def test_determinism_against_per_pair_hdas():
    verdicts = set()
    for x in PREFIX_SWEEP:
        answer = shown(is_deterministic_language(x))
        assert answer == shown(is_deterministic_language_oracle(x))
        verdicts.add(answer[0])
    assert verdicts == {True, False}


def test_determinism_of_self_unions_against_per_pair_hdas():
    # a self-union has the language of its part and two start cells, so
    # unless it accepts nothing, it is not structurally deterministic
    unions = [hda_union(x, x) for x in ONE_LETTER if len(x.cells) <= 12]
    assert len(unions) >= 20
    for x in unions:
        assert is_deterministic_hda(x)[0] == (not x.accept)
        answer = shown(is_deterministic_language(x))
        assert answer == shown(is_deterministic_language_oracle(x))


def test_determinism_of_a_twenty_cell_one_letter_automaton():
    # 31,439 prefixes in 28 buckets, each holding one target set: the
    # bound fails a scan that visits the 118.8 million pairs one by one
    x = ONE_LETTER[11]
    assert len(x.cells) == 20
    start = time.perf_counter()
    assert is_deterministic_language(x) == (True, None)
    assert time.perf_counter() - start < 15


def test_bounded_complements_against_the_skeleton():
    rng = random.Random(12)
    verdicts = set()
    for x in SWEEP:
        for k in range(x.dim() + 1):
            answer = shown(complement_empty(x, k))
            assert answer == shown(complement_empty_oracle(x, k))
            verdicts.add(answer[0])
            letters = "".join(sorted(x.alphabet))
            for _ in range(2):
                p = random_ipomset(rng, alphabet=letters, max_events=3,
                                   max_width=max(k, 1))
                if p.width() > k:
                    continue
                answer = shown(complement_member(x, k, p))
                assert answer == shown(complement_member_oracle(x, k, p))
                verdicts.add(answer[0])
    assert verdicts == {True, False}


# the complement sweeps go one width past each automaton's dimension
CUBES = [cube(d) for d in (2, 3, 4)]


def test_complement_words_against_its_own_search():
    sizes = 0
    for x in SWEEP + CUBES:
        a = st_of_hda(x)
        # the 4-cube one width past its dimension has some 160,000
        # transitions and adds nothing the smaller cases do not cover
        for k in range(min(x.dim() + 2, 5)):
            got, want = complement_words(a, k), complement_words_oracle(a, k)
            assert export_st(got) == export_st(want)
            assert got.successors == want.successors
            assert (got.initial, got.final) == (want.initial, want.final)
            sizes += len(got.states)
    assert sizes > 10000


def test_complement_emptiness_one_width_past_the_dimension():
    verdicts = set()
    cases = [(x, x.dim() + 1) for x in SWEEP]
    cases += [(x, k) for x in CUBES for k in range(x.dim() + 2)]
    for x, k in cases:
        answer = shown(complement_empty(x, k))
        assert answer == shown(complement_empty_oracle(x, k))
        verdicts.add(answer[0])
    # no automaton covers the ipomsets wider than its dimension, and the
    # cubes do not accept the empty ipomset
    assert verdicts == {False}


def test_complement_emptiness_with_a_bracket_in_a_label():
    # the universe's state ids "(a)" and "(a))" sort the other way round
    # from the determinised complement's "(a){}" and "(a)){}", so the two
    # searches start in another order and may pick another shortest witness
    rng = random.Random(7)
    picks = set()
    for _ in range(40):
        x = random_hda(rng, alphabet=("a", "a)"))
        for k in range(x.dim() + 2):
            ok, witness = complement_empty(x, k)
            want_ok, want = complement_empty_oracle(x, k)
            assert ok == want_ok
            if not ok:
                assert witness.width() <= k and not member(x, witness)
                assert (len(witness), witness.size()) == (len(want), want.size())
                picks.add(print_ipomset(witness) == print_ipomset(want))
    assert picks == {True, False}


def test_complement_emptiness_builds_no_complement_automaton(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complement_words called")

    monkeypatch.setattr(stauto, "complement_words", refuse)
    monkeypatch.setattr(decide, "complement_words", refuse, raising=False)
    x = cube(3)
    assert shown(complement_empty(x, 2)) == shown(complement_empty_oracle(x, 2))


def test_walks_against_the_two_loops():
    rng = random.Random(13)
    counts = set()
    for x in SWEEP:
        ps = probes(x, rng) + [w for _, w in (
            stauto.emptiness(st_of_hda(x)),) if w is not None]
        for p in ps:
            n = count_sparse_accepting_paths(x, p)
            assert n == count_sparse_accepting_paths_oracle(x, p)
            assert _segment_relation(x, p) == segment_relation_oracle(x, p)
            counts.add(min(n, 2))
    assert counts == {0, 1, 2}
    x = two_lane_loop()
    for n in range(1, 4):
        p = word_ipomset("abcd" * n)
        assert count_sparse_accepting_paths(x, p) == 2 ** n


def test_prefix_quotients_start_where_the_segment_relation_leads():
    rng = random.Random(29)
    moved = 0
    for x in SWEEP:
        for p in probes(x, rng):
            rel = _segment_relation(x, p)
            want = set().union(*(rel.get(c, set()) for c in x.start))
            assert prefix_quotient(x, p).start == want
            moved += bool(want)
    assert moved >= 100


# -- no rebuilds -------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Record every compilation and every HDA construction."""
    made = {"compiled": [], "hdas": 0}
    compile_ = stauto._compile
    init = HDA.__init__

    def compiling(hda):
        made["compiled"].append(hda)
        return compile_(hda)

    def constructing(self, *args, **kwargs):
        made["hdas"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(stauto, "_compile", compiling)
    monkeypatch.setattr(HDA, "__init__", constructing)
    return made


def test_quotient_pairs_reuse_the_compiled_automaton(builds):
    x = branching_square()
    builds["hdas"] = 0
    assert not is_deterministic_language(x)[0]
    assert builds == {"compiled": [x], "hdas": 0}


def test_complements_below_the_dimension_reuse_the_compiled_automaton(builds):
    x = filled_square()
    builds["hdas"] = 0
    p = parse_ipomset("[a+][a-][b+][b-]")
    assert complement_member(x, 1, p) == complement_member(x, 1, p)
    complement_empty(x, 1)
    assert builds == {"compiled": [x], "hdas": 0}


def test_one_letter_analysis_builds_no_automaton(builds):
    x = track_hda(word_ipomset("aa"))  # its last vertex has no edge out
    builds["hdas"] = 0
    assert analyze(x).s == 3
    assert builds == {"compiled": [], "hdas": 0}


# -- identity letters only where a word is spelled out --------------------------

@pytest.fixture
def identities(monkeypatch):
    """Record the conclist of every identity step constructed."""
    built = []
    init = Step.__init__

    def constructing(self, kind, conclist, marked):
        if kind == "identity":
            built.append(conclist)
        init(self, kind, conclist, marked)

    monkeypatch.setattr(Step, "__init__", constructing)
    return built


def test_searches_spell_identities_only_for_the_witness(identities):
    x = cube(4)
    a = st_of_hda(x)
    assert include(x, x) == (True, None)
    assert identities == []
    ok, witness = empty(x)
    assert not ok and print_ipomset(witness) == "[a0+ a1+ a2+ a3+][a0- a1- a2- a3-]"
    spelled = len(identities)
    word = stauto._uncovered(a, a.initial, a, ())
    assert spelled == sum(s.kind == "identity" for s in word) == 3


def test_member_of_a_long_word_builds_no_identity(identities):
    x = a_loop()
    p = parse_ipomset("[a+][a-]" * 200)
    st_of_hda(x)
    identities.clear()
    assert member(x, p)
    assert identities == []


def test_member_reads_the_width_bound_not_the_cells(monkeypatch):
    x = cube(3)
    st_of_hda(x)
    scans = []
    dim = HDA.dim

    def counting(self):
        scans.append(self)
        return dim(self)

    monkeypatch.setattr(HDA, "dim", counting)
    assert member(x, parse_ipomset("[a0+ a1+ a2+][a0- a1- a2-]"))
    assert not member(x, parse_ipomset("[a0+ a0+ a1+ a2+][a0- a0- a1- a2-]"))
    assert scans == []


def test_determinism_takes_each_prefix_width_once(monkeypatch):
    x = cube(4)
    prefixes = len(pre_set(x))
    calls = []
    width = Ipomset.width

    def counting(self):
        calls.append(self)
        return width(self)

    monkeypatch.setattr(Ipomset, "width", counting)
    assert is_deterministic_language(x) == (True, None)
    assert 0 < len(calls) <= prefixes


def test_complement_words_runs_the_pair_search_once(monkeypatch):
    calls = []
    pairs = stauto._pairs

    def counting(*args):
        calls.append(args)
        return pairs(*args)

    monkeypatch.setattr(stauto, "_pairs", counting)
    comp = complement_words(st_of_hda(cube(2)), 2)
    assert len(calls) == 1 and comp.final


def test_member_takes_no_width(monkeypatch):
    x = cube(3)
    inside = parse_ipomset("[a0+ a1+ a2+][a0- a1- a2-]")
    wider = parse_ipomset("[a0+ a0+ a1+ a2+][a0- a0- a1- a2-]")
    st_of_hda(x)

    def refused(self):
        raise AssertionError("width taken")

    monkeypatch.setattr(Ipomset, "width", refused)
    assert member(x, inside)
    assert not member(x, wider)


def test_compiling_builds_the_shared_conclist_index():
    x = cube(2)
    assert x._by_conclist is None
    st_of_hda(x)
    assert x._by_conclist is not None
    assert x.by_conclist(("a0",)) == ("c20", "c21")


def test_accepts_word_refuses_an_identity_in_a_step_place():
    a = st_of_hda(HDA([Cell("v", (), (), ())], ["v"], ["v"]))
    ident = identity_step(())
    assert accepts_word(a, (ident,))
    assert not accepts_word(a, (ident, ident, ident))


def test_emptiness_stops_at_the_first_pair_it_reaches(monkeypatch):
    a = st_of_hda(x := cube(5))
    reads = []

    class Counting(dict):
        def __getitem__(self, q):
            reads.append(q)
            return dict.__getitem__(self, q)

    monkeypatch.setattr(a, "successors", Counting(a.successors))
    assert shown(empty(x)) == (
        False, "[a0+ a1+ a2+ a3+ a4+][a0- a1- a2- a3- a4-]")
    # a search that yields each pair only as it leaves the queue expands
    # every pair before the witness, reading 62 rows
    assert 0 < len(reads) < 62


def same_pairs(a, a_start, b, b_start):
    """The pairs of ``_pairs``, once checked against the plain search."""
    got = list(stauto._pairs(a, a_start, b, b_start))
    assert got == list(pairs_oracle(a, a_start, b, b_start))
    return got


def test_pair_search_against_the_plain_search():
    # the branching square and the union step one letter to several
    # states, so some sets of two or more states are stepped too
    rng = random.Random(1521)
    cases = [(x, y) for x in FIXTURES for y in FIXTURES]
    for d in range(1, 6):
        x = cube(d)
        s = skeleton(x, d - 1)
        cases += [(x, x), (x, s), (s, x)]
    cases += [(random_hda(rng), random_hda(rng)) for _ in range(100)]
    sizes = set()
    for x, y in cases:
        a, b = st_of_hda(x), st_of_hda(y)
        for b_start in (b.initial, ()):
            got = same_pairs(a, sorted(a.initial), b, b_start)
            sizes.update(min(len(bset), 2) for _, bset, _ in got)
    assert sizes == {0, 1, 2}


def test_quotient_pair_searches_against_the_plain_search():
    searches = 0
    for x in PREFIX_SWEEP:
        a = st_of_hda(x)
        starts = sorted(set(pre_set(x).values()), key=sorted)
        for p_targets in starts:
            for q_targets in starts:
                same_pairs(a, sorted(p_targets), a, q_targets)
                searches += 1
    assert searches > 10000


@pytest.fixture
def posts(monkeypatch):
    """The sets stepped through ``stauto._post``."""
    calls = []
    post = stauto._post

    def counting(a, states, step):
        calls.append(states)
        return post(a, states, step)

    monkeypatch.setattr(stauto, "_post", counting)
    return calls


def test_one_state_sets_step_through_their_rows(posts):
    x = cube(5)
    assert include(x, x) == (True, None)
    assert not equivalent(skeleton(x, 4), x)[0]
    assert complement_words(st_of_hda(cube(4)), 4).final
    assert posts == []


def test_larger_sets_step_through_post(posts):
    x = hda_union(branching_square(), parallel_square(("v00", "v10")))
    assert include(x, x) == (True, None)
    assert posts and all(len(states) > 1 for states in posts)


def test_equal_sets_of_one_search_are_one_object():
    for x in (cube(3), branching_square(), FIXTURES[-1]):
        a = st_of_hda(x)
        # from every state, so that the states over one conclist start
        # from equal sets
        got = list(stauto._pairs(a, sorted(a.states), a, a.states))
        starts = [bset for _, bset, _ in got[:len(a.states)]]
        assert len({id(s) for s in starts}) == len(set(starts)) < len(starts)
        sets = [bset for _, bset, _ in got]
        assert len({id(s) for s in sets}) == len(set(sets)) < len(sets)
