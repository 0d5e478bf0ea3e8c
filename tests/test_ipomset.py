"""Ipomsets, steps, decompositions, gluing, and subsumption."""
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from hdalang import (EMPTY, IdentityHasNoDenseDecomposition, InterfaceMismatch,
                     InvalidIpomset, Ipomset, ParseError, Step, StepWord,
                     WidthExceeded, compose,
                     dense_decomposition, discrete_ipomset, enumerate_ipomsets,
                     glue, identity_ipomset, identity_step, in_down_closure,
                     parallel, parse_ipomset, print_ipomset, print_step,
                     sparse_decomposition, starter, subsumes, supersumptions,
                     terminator, validate_ipomset, word_ipomset)
from hdalang import (HDA, Cell, Invalid, InvalidHDA, InvalidSTAutomaton,
                     InvalidUPFunction, STAutomaton, UPFunction)
from hdalang.hda import face
from hdalang.text import parse_step_word, print_step_word

from fixtures import filled_square, random_ipomset, random_step_word
from oracles import (merge_normalize, parse_step_word_oracle, subsumes_oracle,
                     width_oracle)

seeds = st.integers(min_value=0, max_value=10**9)


def rand(seed):
    return random.Random(seed)


# -- construction and validation ------------------------------------------

def test_empty_ipomset():
    assert EMPTY.is_identity()
    assert EMPTY.size() == 0
    assert len(EMPTY) == 0
    assert EMPTY.width() == 0


def test_word_builder():
    p = word_ipomset("abc")
    assert p.is_word()
    assert p.width() == 1
    assert (0, 1) in p.precedence and (0, 2) in p.precedence
    assert p.source == frozenset() and p.target == frozenset()


def test_discrete_builder():
    p = discrete_ipomset("ab")
    assert p.is_discrete()
    assert not p.precedence
    assert (0, 1) in p.event_order
    assert p.width() == 2


def test_interfaces_must_be_events():
    with pytest.raises(ValueError):
        Ipomset(("a",), (), (), source=(3,), target=())


def test_source_events_must_be_minimal():
    # event 1 is in the source but has a predecessor
    with pytest.raises(InvalidIpomset) as exc:
        Ipomset(("a", "b"), ((0, 1),), (), source=(1,), target=())
    assert any(pr.code == "InterfaceNotExtremal" for pr in exc.value.problems)


def test_target_events_must_be_maximal():
    with pytest.raises(InvalidIpomset) as exc:
        Ipomset(("a", "b"), ((0, 1),), (), source=(), target=(0,))
    assert any(pr.code == "InterfaceNotExtremal" for pr in exc.value.problems)


def test_precedence_cycle_rejected():
    with pytest.raises(InvalidIpomset) as exc:
        Ipomset(("a", "b"), ((0, 1), (1, 0)), ())
    assert any(pr.code == "NotPartialOrder" for pr in exc.value.problems)


def test_two_plus_two_rejected():
    # two disjoint 2-chains: the canonical non-interval order
    with pytest.raises(InvalidIpomset) as exc:
        Ipomset(("a", "a", "b", "b"), ((0, 1), (2, 3)), ((0, 2), (0, 3),
                                                         (1, 2), (1, 3)))
    assert any(pr.code == "NotInterval" for pr in exc.value.problems)


def test_concurrent_events_need_event_order():
    with pytest.raises(InvalidIpomset) as exc:
        Ipomset(("a", "b"), (), ())
    assert any(pr.code == "IncomparablePair" for pr in exc.value.problems)


def test_validate_returns_problems_instead_of_raising():
    problems = validate_ipomset(("a", "b"), ((0, 1), (1, 0)), ())
    assert problems
    assert all(hasattr(pr, "code") for pr in problems)
    assert validate_ipomset(("a",), (), ()) == []


def test_a_precedence_pair_out_of_range_is_refused():
    with pytest.raises(ValueError, match=r"event index out of range: \(0, 3\)"):
        Ipomset(("a",), precedence=[(0, 3)])


def test_a_precedence_cycle_is_reported_once():
    with pytest.raises(InvalidIpomset) as exc:
        Ipomset(("a", "b"), precedence=[(0, 1), (1, 0)])
    assert [pr.code for pr in exc.value.problems] == ["NotPartialOrder"]


def test_a_2_2_beside_a_precedence_cycle_names_only_its_own_events():
    precedence = [(0, 1), (1, 0), (2, 3), (4, 5)]
    event_order = [(i, j) for i, j in itertools.combinations(range(6), 2)
                   if (i, j) not in precedence]
    with pytest.raises(InvalidIpomset) as exc:
        Ipomset("abcdef", precedence, event_order)
    problems = exc.value.problems
    assert [pr.code for pr in problems] == ["NotPartialOrder", "NotInterval"]
    assert problems[0].subjects == (0, 1)
    assert set(problems[1].subjects) == {2, 3, 4, 5}


def test_validate_rejects_an_interface_index_out_of_range_like_the_constructor():
    for kwargs in ({"source": [5]}, {"target": [1]}, {"source": [-1]}):
        with pytest.raises(ValueError):
            Ipomset(("a",), **kwargs)
        with pytest.raises(ValueError):
            validate_ipomset(("a",), **kwargs)


def test_precedence_is_transitively_closed_on_construction():
    p = Ipomset(("a", "b", "c"), ((0, 1), (1, 2)), ())
    assert (0, 2) in p.precedence


# -- equality and canonical form -------------------------------------------

def test_equality_ignores_event_numbering():
    p = Ipomset(("a", "b"), ((0, 1),), ())
    q = Ipomset(("b", "a"), ((1, 0),), ())
    assert p == q
    assert hash(p) == hash(q)


def test_equality_respects_interfaces():
    p = word_ipomset("ab")
    q = word_ipomset("ab", target=(1,))
    assert p != q


def test_inessential_event_order_is_ignored():
    # the pair (0, 1) is ordered by precedence; stating an event order
    # for it as well changes nothing observable
    p = Ipomset(("a", "b"), ((0, 1),), ())
    q = Ipomset(("a", "b"), ((0, 1),), ((0, 1),))
    assert p == q


def test_repr_shows_bracket_notation():
    assert repr(word_ipomset("ab")) == "Ipomset('[a+][a-][b+][b-]')"


# -- steps ------------------------------------------------------------------

def test_starter_marks_positions():
    s = starter(("a", "b"), (0,))
    assert s.kind == "starter"
    assert s.source_conclist() == ("b",)
    assert s.target_conclist() == ("a", "b")
    assert print_step(s) == "[a+ b]"


def test_terminator_marks_positions():
    s = terminator(("a", "b"), (1,))
    assert s.source_conclist() == ("a", "b")
    assert s.target_conclist() == ("a",)
    assert print_step(s) == "[a b-]"


def test_unmarked_factories_degrade_to_identity():
    assert starter(("a",), ()).kind == "identity"
    assert terminator(("a",), ()).kind == "identity"
    # the raw constructor does not accept the degenerate combination
    with pytest.raises(ValueError):
        Step("starter", ("a",), frozenset())


@pytest.mark.parametrize("marked", [{2}, {-1}, {0, 2}, {1, 5}])
def test_marks_outside_the_conclist_are_rejected(marked):
    with pytest.raises(ValueError, match="marked position out of range"):
        Step("starter", ("a", "b"), frozenset(marked))
    assert Step("starter", ("a", "b"), frozenset({0, 1})).key() == (
        "starter", ("a", "b"), (0, 1))


def test_step_as_ipomset_interfaces():
    p = starter(("a", "b"), (0,)).as_ipomset()
    assert len(p.source) == 1 and len(p.target) == 2
    assert p.is_discrete()


def test_identity_step_round_trip():
    s = identity_step(("a", "c"))
    assert s.as_ipomset() == identity_ipomset(("a", "c"))


# -- gluing and parallel ----------------------------------------------------

def test_glue_concatenates_words():
    ab = glue(word_ipomset("a"), word_ipomset("b"))
    assert ab == word_ipomset("ab")


def test_glue_checks_interfaces():
    running_a = word_ipomset("a", source=(0,), target=(0,))
    with pytest.raises(InterfaceMismatch):
        glue(word_ipomset("a"), running_a)


def test_glue_identity_neutral():
    p = parse_ipomset("[a+ b][a- b]")
    assert glue(p, identity_ipomset(p.target_conclist())) == p
    assert glue(identity_ipomset(p.source_conclist()), p) == p


def test_parallel_of_letters():
    p = parallel(word_ipomset("a"), word_ipomset("b"))
    assert p == discrete_ipomset("ab")
    assert p.width() == 2


def test_parallel_stacks_event_order():
    p = parallel(word_ipomset("a"), word_ipomset("b"))
    q = parallel(word_ipomset("b"), word_ipomset("a"))
    assert p != q  # a above b is not b above a


def test_parallel_noninterval_combination_rejected():
    # both operands are 2-chains, so any parallel product has a 2+2
    with pytest.raises(InvalidIpomset):
        parallel(word_ipomset("ab"), word_ipomset("ab"))


# -- decompositions ---------------------------------------------------------

def test_sparse_decomposition_of_word():
    w = sparse_decomposition(word_ipomset("ab"))
    assert print_step_word(w) == "[a+][a-][b+][b-]"
    assert w.is_sparse()


def test_sparse_decomposition_of_identity():
    w = sparse_decomposition(identity_ipomset(("a",)))
    assert len(w) == 1
    assert tuple(w)[0].kind == "identity"


def test_sparse_alternates_starters_and_terminators():
    rng = rand(3)
    for _ in range(100):
        p = random_ipomset(rng)
        word = sparse_decomposition(p)
        assert word.is_sparse()
        kinds = [s.kind for s in word if s.kind != "identity"]
        for left, right in zip(kinds, kinds[1:]):
            assert left != right


def test_dense_decomposition_length():
    p = parse_ipomset("[a+ b+][a- b-]")
    assert len(dense_decomposition(p)) == 2 * p.size() == 4


def test_dense_rejects_identities():
    with pytest.raises(IdentityHasNoDenseDecomposition):
        dense_decomposition(identity_ipomset(("a",)))


def test_interface_events_count_half():
    p = word_ipomset("ab", source=(0,))
    assert p.size() == 1.5


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_compose_after_sparse_is_identity(seed):
    p = random_ipomset(rand(seed))
    assert compose(sparse_decomposition(p)) == p


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_random_decomposition_composes_back(seed):
    rng = rand(seed)
    p = random_ipomset(rng)
    word = random_step_word(p, rng)
    assert compose(word) == p


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_every_decomposition_merges_to_the_sparse_one(seed):
    rng = rand(seed)
    p = random_ipomset(rng)
    word = random_step_word(p, rng)
    assert merge_normalize(word) == tuple(sparse_decomposition(p))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_dense_length_is_twice_size(seed):
    p = random_ipomset(rand(seed))
    if p.size() == 0:
        return
    assert len(dense_decomposition(p)) == 2 * p.size()


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_glue_of_split_equals_whole(seed):
    rng = rand(seed)
    p = random_ipomset(rng)
    steps = list(sparse_decomposition(p))
    cut = rng.randint(0, len(steps))
    left = steps[:cut] or [identity_step(p.source_conclist())]
    right = steps[cut:] or [identity_step(p.target_conclist())]
    assert glue(compose(left), compose(right)) == p


# -- subsumption ------------------------------------------------------------

def test_word_subsumed_by_parallel():
    ab = word_ipomset("ab")
    a_par_b = discrete_ipomset("ab")
    assert subsumes(ab, a_par_b)
    assert not subsumes(a_par_b, ab)


def test_subsumption_is_reflexive_on_samples():
    rng = rand(5)
    for _ in range(50):
        p = random_ipomset(rng)
        assert subsumes(p, p)


def test_subsumption_needs_equal_interfaces():
    assert not subsumes(word_ipomset("a"), word_ipomset("a", source=(0,)))


def test_subsumption_respects_event_order():
    assert not subsumes(discrete_ipomset("ab"), discrete_ipomset("ba"))


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_subsumes_matches_oracle(seed):
    rng = rand(seed)
    p = random_ipomset(rng, max_events=4)
    q = random_ipomset(rng, max_events=4)
    assert subsumes(p, q) == subsumes_oracle(p, q)
    assert subsumes(p, p)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_width_matches_oracle(seed):
    p = random_ipomset(rand(seed))
    assert p.width() == width_oracle(p)


def test_in_down_closure():
    gens = [discrete_ipomset("ab")]
    assert in_down_closure(word_ipomset("ab"), gens)
    assert in_down_closure(word_ipomset("ba"), gens)
    assert not in_down_closure(word_ipomset("aa"), gens)


def test_supersumptions_of_ab():
    found = supersumptions(word_ipomset("ab"), 2)
    # the word itself plus the two event-order variants of a||b
    assert word_ipomset("ab") in found
    assert discrete_ipomset("ab") in found
    assert discrete_ipomset("ba") in found
    assert len(found) == 3


def test_supersumptions_width_one_is_trivial():
    assert supersumptions(word_ipomset("ab"), 1) == [word_ipomset("ab")]


def test_supersumptions_rejects_too_wide_input():
    with pytest.raises(WidthExceeded):
        supersumptions(discrete_ipomset("ab"), 1)


def test_supersumptions_members_subsume():
    p = word_ipomset("abc")
    found = supersumptions(p, 2)
    assert len(found) == 17
    for q in found:
        assert subsumes(p, q)
        assert q.width() <= 2


# -- text round trips --------------------------------------------------------

def test_parse_print_round_trip_on_samples():
    rng = rand(11)
    for _ in range(200):
        p = random_ipomset(rng)
        assert parse_ipomset(print_ipomset(p)) == p


def test_parse_accepts_non_sparse_spelling():
    assert parse_ipomset("[a+][a b+][a- b-]") == parse_ipomset("[a+ b+][a- b-]")


def test_parse_rejects_mixed_markers():
    with pytest.raises(Exception) as exc:
        parse_step_word("[a+ b-]")
    assert getattr(exc.value, "position", None) is not None


def test_parse_rejects_unterminated_bracket():
    with pytest.raises(Exception):
        parse_step_word("[a+ b")


def test_parse_rejects_chaining_mismatch():
    with pytest.raises(InterfaceMismatch):
        parse_ipomset("[a+][b-]")


# -- enumeration -------------------------------------------------------------

def test_enumeration_has_no_duplicates_and_hits_known_counts():
    seen = list(enumerate_ipomsets("ab", 2))
    assert len(seen) == len(set(seen))
    # 89 over {a,b} with at most two events; counted once, pinned as a
    # regression guard for the walk
    assert len(seen) == 89


def test_enumeration_respects_width_bound():
    for p in enumerate_ipomsets("ab", 3, max_width=1):
        assert p.width() <= 1


# -- one base for the errors that list problems ------------------------------

@pytest.mark.parametrize("make, error", [
    (lambda: Ipomset(("a", "b"), precedence=[(0, 1), (1, 0)]), InvalidIpomset),
    (lambda: HDA([Cell("v", (), (), ()), Cell("x", ("a",), ("v",), ("w",))],
                 ["v"], ["v"]), InvalidHDA),
    (lambda: STAutomaton({"a"}, {"q": ()}, [("q", identity_step(()), "q")],
                         ["q"], ["q"]), InvalidSTAutomaton),
    (lambda: UPFunction(r=0, s=0, f=(), tau=()), InvalidUPFunction),
], ids=["precedence cycle", "dangling face", "identity transition", "r=0"])
def test_invalid_values_share_one_base(make, error):
    with pytest.raises(error) as info:
        make()
    exc = info.value
    assert isinstance(exc, Invalid) and isinstance(exc, ValueError)
    assert isinstance(exc.problems, tuple) and exc.problems
    assert str(exc) == "; ".join(map(str, exc.problems))


# -- error paths and small behaviours ----------------------------------------

@pytest.mark.parametrize("text, position, message", [
    ("", 0, "expected a bracket, got end of input"),
    ("  ", 2, "expected a bracket, got end of input"),
    ("x", 0, "expected '[', got 'x'"),
    ("[a!]", 2, "unexpected character '!'"),
    ("[a+x]", 3, "unexpected character 'x'"),
    ("[+]", 1, "unexpected character '+'"),
    ("[a\tb]", 2, "unexpected character '\\t'"),
    ("[a", 2, "unterminated bracket"),
    ("[a b]]", 5, "expected '[', got ']'"),
    # a syntax error anywhere is reported before a mixed bracket
    ("[a+ b-][x!", 9, "unexpected character '!'"),
])
def test_bracket_parse_errors_name_their_position(text, position, message):
    with pytest.raises(ParseError) as info:
        parse_step_word(text)
    assert info.value.position == position
    assert str(info.value) == f"at {position}: {message}"


def parse_outcome(parse, text):
    """The step word ``parse`` reads from text, or its error's type,
    position and message."""
    try:
        return parse(text)
    except (ParseError, InterfaceMismatch) as exc:
        return type(exc), exc.position, str(exc)


def random_characters(rng):
    """Characters from the notation, whitespace and a few strangers; half
    of the strings open a bracket."""
    alphabet = list("[] +-ab_9!") + ["\t", "\n", "\x1c", "\u2003", "\u00e9"]
    return rng.choice(["", "["]) + "".join(
        rng.choice(alphabet) for _ in range(rng.randrange(12)))


def random_brackets(rng):
    """Brackets with doubled markers, empty labels, unclosed brackets and
    stray closing brackets, between runs of assorted whitespace."""
    out = []
    for _ in range(rng.randrange(1, 5)):
        items = [rng.choice(["a", "b", "ab", "_9", ""])
                 + rng.choice(["", "+", "-"] * 3 + ["++", "+-", "--", "!"])
                 for _ in range(rng.randrange(4))]
        out.append(rng.choice(["", " ", "\n", "\t\u2003"]) + "["
                   + rng.choice(["", " "]) + " ".join(items)
                   + rng.choice(["]"] * 6 + [" ]", "", "]]"]))
    return "".join(out)


@pytest.mark.parametrize("generate", [random_characters, random_brackets])
def test_parse_step_word_matches_the_scanner(generate):
    rng = random.Random(17)
    for _ in range(25_000):
        text = generate(rng)
        assert (parse_outcome(parse_step_word, text)
                == parse_outcome(parse_step_word_oracle, text)), text


@pytest.mark.parametrize("text", [
    "[" + "a" * 10**5 + "!]",
    "[" + " " * 10**5 + "!",
    "[" + "a+ " * 33_333 + "b!]",
    "[" + "a " * 50_000,
    "[a+][a-]" * 6_250 + "[a!]",
], ids=["long label", "spaces", "items", "unclosed", "good brackets"])
def test_long_malformed_words_fail_fast_where_the_scanner_does(text):
    start = time.perf_counter()
    got = parse_outcome(parse_step_word, text)
    assert time.perf_counter() - start < 0.5
    assert got == parse_outcome(parse_step_word_oracle, text)


@pytest.mark.parametrize("make, message", [
    (lambda: StepWord(()), "a step word has at least one step"),
    (lambda: compose(()), "cannot compose an empty step sequence"),
    (lambda: Step("bogus", (), frozenset()), "unknown step kind: bogus"),
    (lambda: face(filled_square(), "q", 2, [0]),
     "face side must be 0 or 1, got 2"),
], ids=["empty step word", "empty composition", "step kind", "face side"])
def test_bad_arguments_raise_value_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_step_words_compare_hash_and_print():
    word = [starter(("a",), {0}), identity_step(("a",))]
    assert not StepWord(word).is_sparse()
    assert StepWord(word) == StepWord(list(word))
    assert hash(StepWord(word)) == hash(StepWord(list(word)))
    assert not StepWord(word) == 1
    assert not parse_ipomset("[]") == 1
    assert repr(starter(("a", "b"), {0})) == "Step('[a+ b]')"


def test_step_word_repr_shows_bracket_notation():
    steps = parse_step_word("[a+][a-]").steps
    assert repr(StepWord(steps)) == "StepWord('[a+][a-]')"
