"""Composition in one pass, checked against the relation-level left fold.

``compose`` builds an ipomset from a step word in one walk, keeps it in
interval form (start and end step of each event, covering event-order
pairs) and carries the merged word as its sparse decomposition; ``glue``
composes the two operands' words.  The references in ``oracles.py`` glue
one ipomset per step on the relations and decompose by greedy simulation.
Ipomsets built from relations read their word off the chain of their
predecessor sets, and are checked against the same greedy reference.
"""
import itertools
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

import hdalang.ipomset
from hdalang import (InterfaceMismatch, InvalidIpomset, Ipomset, Step,
                     StepWord, accepts, coherent_word, compose,
                     count_sparse_accepting_paths, decide, dense_decomposition,
                     discrete_ipomset, enumerate_ipomsets, glue,
                     identity_step, parse_ipomset,
                     print_ipomset, sparse_decomposition, supersumptions,
                     validate_ipomset, word_ipomset)
from hdalang.text import parse_step_word, print_step, print_step_word

from fixtures import a_loop, random_chaining_word, random_ipomset, random_step_word
from oracles import (compose_oracle, glue_oracle, parse_step_word_oracle,
                     sparse_decomposition_oracle, step_word_oracle)

FIELDS = ("labels", "precedence", "event_order", "source", "target")


def sample_words(count, seed):
    """Seeded (ipomset, step word) pairs of up to 8 events, often not
    sparse.  Words of one step, two thirds of what the generators draw,
    are skipped."""
    rng = random.Random(seed)
    while count:
        p = random_ipomset(rng, max_events=rng.choice((2, 4, 6, 8)))
        word = random_step_word(p, rng)
        if len(word) > 1:
            count -= 1
            yield p, word


def rebuilt(p):
    """The same ipomset built from its relations, carrying no word."""
    return Ipomset(p.labels, p.precedence, p.event_order, p.source, p.target)


def test_compose_matches_the_left_fold():
    for p, word in sample_words(2000, seed=7):
        got, want = compose(word), compose_oracle(word)
        for field in FIELDS:
            assert getattr(got, field) == getattr(want, field), (word, field)
        assert got.key() == want.key() == p.key()


def test_carried_word_is_the_greedy_decomposition():
    for p, word in sample_words(500, seed=8):
        q = rebuilt(compose(word))
        assert q._word is not None
        assert sparse_decomposition(compose(word)) == sparse_decomposition_oracle(q)
        assert sparse_decomposition(q) == sparse_decomposition_oracle(q)


def test_glue_at_every_split_point():
    for p, word in sample_words(300, seed=9):
        whole = compose(word)
        for cut in range(len(word) + 1):
            left = word[:cut] or [identity_step(word[0].source_conclist())]
            right = word[cut:] or [identity_step(word[-1].target_conclist())]
            glued = glue(compose(left), compose(right))
            assert glued == whole
            assert glued == glue_oracle(compose_oracle(left), compose_oracle(right))


def test_glue_of_raw_ipomsets_goes_through_their_greedy_words():
    for p, word in sample_words(200, seed=10):
        cut = len(word) // 2
        if not cut:
            continue
        left, right = rebuilt(compose(word[:cut])), rebuilt(compose(word[cut:]))
        assert glue(left, right) == p


def _broken(word, rng):
    """The word with one later step given an extra carried event ``c``,
    so that it no longer chains onto the step before it."""
    i = rng.randrange(1, len(word))
    s = word[i]
    bad = Step(s.kind, s.conclist + ("c",), s.marked)
    return word[:i] + [bad] + word[i + 1:], i


def test_broken_words_fail_at_the_same_position():
    rng = random.Random(11)
    for p, word in sample_words(500, seed=12):
        bad, i = _broken(word, rng)
        with pytest.raises(InterfaceMismatch) as got:
            compose(bad)
        with pytest.raises(InterfaceMismatch) as want:
            compose_oracle(bad)
        assert got.value.position == want.value.position == i
        assert str(got.value) == str(want.value)


def test_step_words_fail_where_the_plain_loop_does():
    rng = random.Random(2401)
    for p, word in sample_words(500, seed=2402):
        assert StepWord(word).steps == step_word_oracle(word)
        bad, i = _broken(word, rng)
        with pytest.raises(InterfaceMismatch) as got:
            StepWord(bad)
        with pytest.raises(InterfaceMismatch) as want:
            step_word_oracle(bad)
        assert got.value.position == want.value.position == i - 1
        assert str(got.value) == str(want.value)


def test_glue_keeps_its_interface_message():
    p, q = parse_ipomset("[a+][a-]"), parse_ipomset("[a][a-]")
    with pytest.raises(InterfaceMismatch) as exc:
        glue(p, q)
    assert exc.value.position is None
    assert str(exc.value) == ("cannot glue: target conclist () != "
                              "source conclist ('a',)")


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_printing_a_parsed_word_is_a_fixed_point(seed):
    rng = random.Random(seed)
    p = random_ipomset(rng)
    text = print_step_word(StepWord(random_step_word(p, rng)))
    once = print_ipomset(parse_ipomset(text))
    assert print_ipomset(parse_ipomset(once)) == once == print_ipomset(p)


@st.composite
def spaced_words(draw):
    """A chaining step word over labels of up to four characters, and a
    spelling of it with extra spaces inside its brackets and whitespace
    around them."""
    alphabet = draw(st.lists(
        st.text(string.ascii_letters + string.digits + "_", min_size=1,
                max_size=4), min_size=1, max_size=3, unique=True))
    word = StepWord(random_chaining_word(
        random.Random(draw(st.integers(0, 2 ** 32))), alphabet=alphabet))
    pad, gap = st.text(" ", max_size=2), st.text(" \t\n", max_size=2)
    text = draw(gap)
    for step in word.steps:
        text += "[" + draw(pad)
        for i, item in enumerate(print_step(step)[1:-1].split()):
            text += (" " + draw(pad) if i else "") + item
        text += draw(pad) + "]" + draw(gap)
    return word, text


@given(spaced_words())
@settings(max_examples=300, deadline=None)
def test_printing_and_parsing_step_words_round_trip(case):
    word, text = case
    assert parse_step_word(text) == word
    assert parse_step_word(print_step_word(word)) == word
    once = print_ipomset(parse_ipomset(text))
    assert print_ipomset(parse_ipomset(once)) == once


@pytest.mark.parametrize("n", [20, 200])
def test_parsing_builds_one_ipomset_not_one_per_step(monkeypatch, n):
    built = []
    init = Ipomset.__init__

    def counting(self, *args, **kwargs):
        built.append(len(args[0]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Ipomset, "__init__", counting)
    p = parse_ipomset("[a+][a-]" * n)
    assert len(p) == n
    assert built == [n]


@pytest.mark.parametrize("text", [
    "[a+][a-]" * 30,
    "[a+ b+][a- b][a+ b][a b-][a-]" * 4,
    "[a b+][a b][a- b-][c+ d+ e+][c d- e][c- e][e a+][e- a-]",
])
def test_long_words_match_the_left_fold(text):
    word = parse_step_word(text)
    got, want = compose(word), compose_oracle(word.steps)
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field)
    assert sparse_decomposition(got) == sparse_decomposition_oracle(want)


def derived(p):
    """Everything read off an ipomset's relations or its word."""
    return (p.labels, p.precedence, p.event_order, p.source, p.target,
            p.source_conclist(), p.target_conclist(), p.is_word(),
            p.is_discrete(), p.key(), p.width())


def assert_interval_form_is_exact(word):
    got = compose(word)
    assert derived(got) == derived(compose_oracle(word)) == derived(rebuilt(got))
    assert validate_ipomset(got.labels, got.precedence, got.event_order,
                            got.source, got.target) == []


def test_interval_form_matches_the_validated_constructor():
    rng = random.Random(13)
    for _ in range(2000):
        assert_interval_form_is_exact(random_chaining_word(rng))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200])
def test_interval_form_of_long_loop_words(n):
    assert_interval_form_is_exact(parse_step_word("[a+][a-]" * n).steps)


def test_long_words_are_never_closed_or_checked(monkeypatch):
    loop = a_loop()

    def refuse(*args):
        raise AssertionError("relations closed or checked")

    monkeypatch.setattr(hdalang.ipomset, "_closure", refuse)
    monkeypatch.setattr(hdalang.ipomset, "_problems", refuse)
    text = "[a+][a-]" * 200
    p = parse_ipomset(text)
    assert decide.member(loop, p) and accepts(loop, p)
    assert count_sparse_accepting_paths(loop, p) == 1
    assert print_ipomset(p) == text
    q = glue(p, parse_ipomset("[b+][b-]"))
    assert len(q) == 201 and not decide.member(loop, q)
    assert p.width() == 1 and len(p.key()) == 400
    assert hash(p) == hash(parse_ipomset(text))
    with pytest.raises(AssertionError):
        p.event_order


def test_composed_ipomsets_read_their_word_not_the_relations(monkeypatch):
    def stuck(*args):
        raise AssertionError("greedy decomposition of a composed ipomset")

    monkeypatch.setattr(hdalang.ipomset, "_interval_form", stuck)
    text = "[a+ b+][a- b][b c+][b- c-]" * 3
    p = glue(parse_ipomset(text), parse_ipomset("[a+][a-]"))
    assert print_ipomset(p) == text + "[a+][a-]"
    assert p.width() == 2 and len(coherent_word(p)) == 2 * 14 + 1
    with pytest.raises(AssertionError):
        sparse_decomposition(rebuilt(p))
    assert len(dense_decomposition(parse_ipomset("[a+][a-]" * 50))) == 100
    p.key()
    assert len(supersumptions(p, 2)) == 405


def test_relation_built_ipomsets_are_simulated_once(monkeypatch):
    calls = []
    interval_form = hdalang.ipomset._interval_form

    def counting(*args):
        calls.append(1)
        return interval_form(*args)

    monkeypatch.setattr(hdalang.ipomset, "_interval_form", counting)
    q = rebuilt(parse_ipomset("[a+ b+][a- b][b c+][b- c-]" * 2))
    word = sparse_decomposition(q)
    once = len(calls)
    assert once and q._word is word
    assert q.width() == 2 and print_ipomset(q) == print_step_word(word)
    dense_decomposition(q)
    assert len(supersumptions(q, 2)) > 1
    assert len(calls) == once


def assert_interval_form_of_relations(q):
    """q, built from relations, carries the greedy word, and its start and
    end levels give its precedence."""
    assert sparse_decomposition(q) == sparse_decomposition_oracle(q)
    assert q.precedence == {(x, y) for x in q.events() for y in q.events()
                            if q._ends[x] < q._starts[y]}


def test_relation_built_ipomsets_get_the_greedy_word():
    rng = random.Random(14)
    count = 0
    while count < 2000:
        p = compose(random_chaining_word(rng))
        if len(sparse_decomposition(p)) < 2:
            continue
        count += 1
        perm = list(p.events())  # renumber, so event indices say nothing
        rng.shuffle(perm)
        labels = [None] * len(p)
        for x, label in enumerate(p.labels):
            labels[perm[x]] = label
        q = Ipomset(labels, {(perm[x], perm[y]) for x, y in p.precedence},
                    {(perm[x], perm[y]) for x, y in p.event_order},
                    {perm[x] for x in p.source}, {perm[x] for x in p.target})
        assert_interval_form_of_relations(q)
        assert q.key() == p.key()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("build", [word_ipomset, discrete_ipomset])
def test_words_and_discrete_ipomsets_with_every_interface(build, n):
    labels = "abcd"[:n]
    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    built = 0
    for source, target in itertools.product(subsets, repeat=2):
        try:
            q = build(labels, source, target)
        except InvalidIpomset:
            continue
        built += 1
        assert_interval_form_of_relations(q)
    # a word's interfaces hold at most its first and its last event
    assert built == (4 ** n if build is discrete_ipomset else min(4, 4 ** n))


def test_a_long_word_is_keyed_like_its_parsed_loop():
    assert word_ipomset("a" * 200).key() == parse_ipomset("[a+][a-]" * 200).key()


def test_composing_derives_no_events_until_they_are_read(monkeypatch):
    loop = a_loop()

    def refuse(p):
        raise AssertionError("events derived")

    monkeypatch.setattr(hdalang.ipomset, "_replay", refuse)
    text = "[a+][a-]" * 100
    p = parse_ipomset(text)
    assert decide.member(loop, p) and print_ipomset(p) == text
    assert len(p.key()) == 200 and p.width() == 1
    q = glue(p, p)
    assert len(q) == 200 and decide.member(loop, q)
    with pytest.raises(AssertionError):
        p.source


def test_fields_read_in_any_first_order_match_the_left_fold():
    rng = random.Random(16)
    orders = itertools.cycle(itertools.permutations(FIELDS))
    for _ in range(1200):  # each of the 120 orders ten times
        word = random_chaining_word(rng)
        got, want = compose(word), compose_oracle(word)
        for field in next(orders):
            assert getattr(got, field) == getattr(want, field), (word, field)
        assert got.key() == want.key() and got.width() == want.width()


@pytest.fixture
def merges(monkeypatch):
    """The step sequences ``compose`` merges through ``_merge_word``."""
    calls = []
    merge = hdalang.ipomset._merge_word

    def counting(steps):
        calls.append(steps)
        return merge(steps)

    monkeypatch.setattr(hdalang.ipomset, "_merge_word", counting)
    return calls


@pytest.mark.parametrize("text", ["[]", "[a b]", "[a+ b]", "[a+][a-]" * 40,
                                  "[a+ b+][a- b-]", "[a+ b][a- b]"])
def test_a_parsed_sparse_word_is_its_own_decomposition(merges, text):
    word = parse_step_word(text)
    assert sparse_decomposition(compose(word)) is word
    assert merges == []


def test_words_with_identities_or_repeated_kinds_are_merged(merges):
    rng = random.Random(16)
    counts = {True: 0, False: 0}
    for _ in range(1200):  # the words of the field-order test above
        word = random_chaining_word(rng)
        kinds = [s.kind for s in word]
        sparse = "identity" not in kinds and all(
            a != b for a, b in zip(kinds, kinds[1:]))
        counts[sparse] += 1
        merges.clear()
        got, want = compose(StepWord(word)), compose_oracle(word)
        assert StepWord(word).is_sparse() == sparse
        assert len(merges) == (0 if sparse else 1)
        for field in FIELDS:
            assert getattr(got, field) == getattr(want, field), (word, field)
        assert got.key() == want.key()
    assert min(counts.values()) > 50


def test_composed_events_are_numbered_along_the_given_steps():
    # merged, the word is [a+ b]: the replay still meets b first
    p = parse_ipomset("[b][a+ b]")
    assert p.labels == ("b", "a") and p.source == {0}
    assert p.event_order == {(1, 0)} and p.target == {0, 1}


@pytest.fixture
def built_steps(monkeypatch):
    """The (kind, conclist, marks) of every Step built from here on."""
    keys = []
    init = Step.__init__

    def counting(self, kind, conclist, marked):
        keys.append((kind, conclist, frozenset(marked)))
        init(self, kind, conclist, marked)

    monkeypatch.setattr(Step, "__init__", counting)
    return keys


def test_walks_build_each_step_once_per_call(built_steps):
    abc = word_ipomset("abc")
    del built_steps[:]
    assert len(supersumptions(abc, 2)) == 17
    assert built_steps and len(set(built_steps)) == len(built_steps)
    del built_steps[:]
    assert len(list(enumerate_ipomsets("ab", 3))) == 1273
    assert built_steps and len(set(built_steps)) == len(built_steps)


@pytest.mark.parametrize("text, distinct", [
    ("[a+][a-]" * 50, 2),
    ("".join(f"[{x}+][{x}-]" for x in "abcd" * 8), 8),  # the (abcd)^8 count
])
def test_parsing_builds_each_step_once_per_call(built_steps, text, distinct):
    # a loop word repeats a few brackets: their steps are one object each
    word = parse_step_word(text)
    assert len(built_steps) <= distinct
    assert len({id(s) for s in word.steps}) == distinct
    assert word == parse_step_word_oracle(text)


def test_supersumptions_carry_the_key_of_their_walk():
    p = parse_ipomset("[a+ b+][a- b][b c+][b- c-]")
    for q in supersumptions(p, 3):
        assert q._key == tuple(s.key() for s in sparse_decomposition(q))
