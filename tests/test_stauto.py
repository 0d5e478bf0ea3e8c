"""The translation to step-letter automata and the word-level algorithms."""
import itertools
import random

import pytest

from hdalang import (HDA, Cell, InvalidSTAutomaton, STAutomaton, accepts,
                     accepts_word, coherent_word, complement_words, decide,
                     emptiness, enumerate_wang, export_st, identity_ipomset,
                     identity_step, inclusion, language_ipomsets,
                     match_automaton, parse_ipomset, st_of_hda, starter,
                     terminator, word_ipomset, word_ipomset_of)
from hdalang.text import parse_step_word, print_ipomset

from fixtures import (a_loop, branching_square, filled_square,
                      parallel_square, random_hda)


def wang_words(text_words):
    return [tuple(parse_step_word(w)) for w in text_words]


# -- construction -------------------------------------------------------------

def test_states_are_cells():
    x = filled_square()
    a = st_of_hda(x)
    assert set(a.states) == set(x.cells)
    assert a.states["q"] == ("a", "b")
    assert a.initial == x.start and a.final == x.accept


def test_transition_counts_of_filled_square():
    a = st_of_hda(filled_square())
    # 4 ups and 4 downs for the edges, 3 ups and 3 downs for the square
    assert len(a.transitions) == 14
    assert len(a.states) == 9


def test_identity_transitions_are_rejected():
    with pytest.raises(InvalidSTAutomaton):
        STAutomaton("a", {"v": (), "w": ()},
                    [("v", identity_step(()), "w")], ["v"], ["w"])


def test_transition_interfaces_must_match_state_labels():
    with pytest.raises(InvalidSTAutomaton) as exc:
        STAutomaton("a", {"v": (), "w": ()},
                    [("v", starter(("a",), (0,)), "w")], ["v"], ["w"])
    assert any(p.code == "StateLabelMismatch" for p in exc.value.problems)


def test_dangling_initial_state_rejected():
    with pytest.raises(InvalidSTAutomaton):
        STAutomaton("a", {"v": ()}, [], ["nope"], ["v"])


# -- coherent words -------------------------------------------------------------

def test_coherent_word_brackets_every_step():
    w = coherent_word(word_ipomset("ab"))
    kinds = [s.kind for s in w]
    assert kinds[0] == "identity" and kinds[-1] == "identity"
    assert all(kinds[i] == "identity" for i in range(0, len(kinds), 2))
    assert word_ipomset_of(w) == word_ipomset("ab")


def test_coherent_word_of_identity():
    w = coherent_word(identity_ipomset(("a",)))
    assert len(w) == 1 and w[0].kind == "identity"


# -- acceptance ------------------------------------------------------------------

def test_accepted_words_of_filled_square():
    a = st_of_hda(filled_square())
    good = wang_words([
        "[b]",
        "[][b+][b]",
        "[][a+ b+][a b][a- b][b]",
        "[b][a+ b][a b][a- b][b]",
        "[][a+ b+][a b][a- b-][]",
    ])
    for w in good:
        assert accepts_word(a, w)


def test_words_must_end_with_an_identity():
    a = st_of_hda(filled_square())
    assert not accepts_word(a, tuple(parse_step_word("[b][a+ b][a b][a- b]")))


def test_words_must_alternate_identities():
    a = st_of_hda(filled_square())
    assert not accepts_word(a, tuple(parse_step_word("[][a+ b+][a- b-][]")))


def test_member_goes_through_the_coherent_word():
    from hdalang.stauto import member
    a = st_of_hda(filled_square())
    assert member(a, parse_ipomset("[a+ b+][a- b-]"))
    assert member(a, parse_ipomset("[b+]"))
    assert not member(a, word_ipomset("aa"))


def test_translation_preserves_language():
    # membership through the automaton equals path membership, checked
    # over every ipomset the HDA can realise in a few steps plus some
    # that it cannot
    from hdalang.stauto import member
    x = branching_square()
    a = st_of_hda(x)
    lang = set(language_ipomsets(x, max_steps=8))
    for p in lang:
        assert member(a, p)
    for text in ("[c+][c-]", "[a+][a-][a+][a-]", "[b+ a]"):
        p = parse_ipomset(text)
        assert (p in lang) == member(a, p)


def test_wang_matches_language_on_coherent_words():
    x = parallel_square()
    a = st_of_hda(x)
    lang = set(language_ipomsets(x, max_steps=8))
    words = enumerate_wang(a, 7)
    assert words
    for w in words:
        assert word_ipomset_of(w) in lang
    # every language member of bounded size shows up as its coherent word
    for p in lang:
        if len(coherent_word(p)) <= 7:
            assert coherent_word(p) in words


# -- emptiness --------------------------------------------------------------------

def test_emptiness_with_witness():
    x = parallel_square()
    empty, witness = emptiness(st_of_hda(x))
    assert not empty
    # shortest in coherent letters: the full square beats its words
    assert witness == parse_ipomset("[a+ b+][a- b-]")

    nothing = HDA(parallel_square().cells.values(), ["v11"], ["v00"])
    empty, witness = emptiness(st_of_hda(nothing))
    assert empty and witness is None


def test_unreachable_accept_cell_gives_empty():
    x = HDA([Cell("v", (), (), ()), Cell("w", (), (), ()),
             Cell("e", ("a",), ("v",), ("v",))], ["v"], ["w"])
    empty, _ = emptiness(st_of_hda(x))
    assert empty


# -- inclusion ---------------------------------------------------------------------

def test_inclusion_true_direction():
    # {a||b} down sits inside the filled square's language
    ok, witness = inclusion(st_of_hda(parallel_square()),
                            st_of_hda(filled_square()))
    assert ok and witness is None
    chain = HDA([Cell("u0", (), (), ()), Cell("u1", (), (), ()),
                 Cell("u2", (), (), ()),
                 Cell("ca", ("a",), ("u0",), ("u1",)),
                 Cell("cb", ("b",), ("u1",), ("u2",))], ["u0"], ["u2"])
    ok, witness = inclusion(st_of_hda(chain), st_of_hda(parallel_square()))
    assert ok and witness is None


def test_inclusion_counterexample():
    big = parallel_square()
    small = HDA([Cell("v00", (), (), ()), Cell("v10", (), (), ()),
                 Cell("ha0", ("a",), ("v00",), ("v10",))], ["v00"], ["v10"])
    ok, witness = inclusion(st_of_hda(big), st_of_hda(small))
    assert not ok
    # the counterexample with the fewest coherent letters is the square
    assert witness == parse_ipomset("[a+ b+][a- b-]")


def test_inclusion_counterexample_eps():
    loop = a_loop()
    edge = HDA([Cell("v00", (), (), ()), Cell("v10", (), (), ()),
                Cell("ha0", ("a",), ("v00",), ("v10",))], ["v00"], ["v10"])
    ok, witness = inclusion(st_of_hda(loop), st_of_hda(edge))
    assert not ok
    assert witness == identity_ipomset(())  # eps in the loop only


def test_self_inclusion():
    a = st_of_hda(branching_square())
    ok, witness = inclusion(a, a)
    assert ok and witness is None


# -- match automaton and complement --------------------------------------------------

def test_match_automaton_accepts_exactly_coherent_glueable_words():
    m = match_automaton("ab", 1)
    # every Wang word of a width-1 HDA language must be accepted
    a = st_of_hda(a_loop())
    for w in enumerate_wang(a, 5):
        assert accepts_word(m, w)
    # a word whose brackets do not chain is not even representable as
    # letters of the match automaton run; a non-alternating one is refused
    assert not accepts_word(m, tuple(parse_step_word("[][a+][a][a]")))


@pytest.mark.parametrize("alphabet, k, states", [
    (("a", "b", "a b"), 2, 13), (("", "a"), 2, 7), (("a\\", "b", "a b"), 2, 13)])
def test_labels_with_spaces_give_distinct_conclist_states(alphabet, k, states):
    # labels holding a space or nothing once shared a state id with
    # another conclist, ("a b",) with ("a", "b") and ("",) with (); an
    # escape of spaces alone would give ("a\\", "b") the id of ("a b",)
    x = HDA([Cell("v", (), (), ())], ["v"], ["v"], alphabet)
    assert len(match_automaton(alphabet, k).states) == states
    ok, witness = decide.complement_empty(x, k)
    assert not ok and witness.width() <= k and not accepts(x, witness)


def complement_agrees(x, k, max_letters):
    """Does ``complement_words`` of x accept exactly the coherent words
    of width at most k, up to ``max_letters`` letters, that x rejects?
    Returns how many of them x rejects."""
    comp = complement_words(st_of_hda(x), k)
    rejected = 0
    for w in enumerate_wang(match_automaton(x.alphabet, k), max_letters):
        outside = not accepts(x, word_ipomset_of(w))
        assert accepts_word(comp, w) == outside, (w, k)
        rejected += outside
    return rejected


def test_complement_keeps_state_sets_apart_when_ids_hold_spaces():
    # joined by bare spaces, the sets {"p q"} and {"p", "q"} were one
    # state, and the one found second was merged into the first
    x = HDA([Cell("s", (), (), ()), Cell("p q", (), (), ()),
             Cell("p", (), (), ()), Cell("q", (), (), ()),
             Cell("e1", ("a",), ("s",), ("p q",)),
             Cell("e2", ("b",), ("s",), ("p",)),
             Cell("e3", ("b",), ("s",), ("q",))], ["s"], ["p q"])
    p = parse_ipomset("[b+][b-]")
    assert not accepts(x, p)
    assert accepts_word(complement_words(st_of_hda(x), 1), coherent_word(p))
    assert complement_agrees(x, 1, 7) > 0


def test_complement_words_of_cells_renamed_to_hold_spaces():
    names = ["A", "B", "C", "A B", "B C", "A C", "A B C", "", " ", "\\",
             "A\\", "A ", " A", "\\ B"]
    rng = random.Random(1731)
    rejected = 0
    for _ in range(40):
        x = random_hda(rng)
        new = dict(zip(sorted(x.cells), rng.sample(names, len(x.cells))))
        y = HDA([Cell(new[c.id], c.events, tuple(new[f] for f in c.lower),
                      tuple(new[f] for f in c.upper))
                 for c in x.cells.values()],
                [new[c] for c in x.start], [new[c] for c in x.accept],
                x.alphabet)
        rejected += complement_agrees(y, 1, 7) + complement_agrees(y, 2, 5)
    assert rejected > 1000


def test_complement_keeps_state_sets_apart_when_labels_hold_braces():
    # the universe ids (a) and (a){b) once ran on into the a-state ids
    # b){c and c alike, as (a){b){c}: the complement had 5 states, not 6
    x = HDA([Cell("v", (), (), ()), Cell("w", (), (), ()),
             Cell("b){c", ("a",), ("v",), ("w",)),
             Cell("c", ("a){b",), ("v",), ("w",))], ["b){c", "c"], ["w"])
    comp = complement_words(st_of_hda(x), 1)
    assert len(comp.states) == 6
    assert not accepts(x, identity_ipomset(("a){b",)))
    assert accepts_word(comp, (identity_step(("a){b",)),))
    assert complement_agrees(x, 1, 7) > 0


def test_complement_words_of_labels_and_cells_holding_braces():
    alphabets = [("a", "a){b"), ("a){b", "a"), ("{", ") {"), ("a b", "}")]
    names = ["b){c", "c", "b", "{", "}", "c} {", "b) {c", ")", " ", "c{",
             "{c}", "b){", "){", "a){b"]
    rng = random.Random(2207)
    rejected = 0
    for i in range(40):
        x = random_hda(rng, alphabet=alphabets[i % 4])
        new = dict(zip(sorted(x.cells), rng.sample(names, len(x.cells))))
        y = HDA([Cell(new[c.id], c.events, tuple(new[f] for f in c.lower),
                      tuple(new[f] for f in c.upper))
                 for c in x.cells.values()],
                [new[c] for c in x.start], [new[c] for c in x.accept],
                x.alphabet)
        rejected += complement_agrees(y, 1, 7) + complement_agrees(y, 2, 5)
    assert rejected > 1000


def test_complement_words_needs_a_width_bound():
    a = STAutomaton("a", {"v": ()}, [], ["v"], ["v"])
    with pytest.raises(ValueError, match="no width bound"):
        complement_words(a)
    assert complement_words(a, 0).states == {"(){v}": ()}


def test_complement_of_empty_language_accepts_eps():
    x = HDA([Cell("v", (), (), ()), Cell("w", (), (), ())], ["v"], ["w"])
    comp = complement_words(st_of_hda(x), width=1)
    empty, witness = emptiness(comp)
    assert not empty
    assert witness == identity_ipomset(())


def test_complement_rejects_member_words():
    x = filled_square()
    comp = complement_words(st_of_hda(x), width=2)
    assert not accepts_word(comp, coherent_word(parse_ipomset("[a+ b+][a- b-]")))
    assert not accepts_word(comp, coherent_word(parse_ipomset("[b]")))
    assert accepts_word(comp, coherent_word(word_ipomset("aa")))


def test_complement_partitions_coherent_words():
    x = parallel_square()
    a = st_of_hda(x)
    comp = complement_words(a, width=2)
    m = match_automaton(sorted(x.alphabet), 2)
    lang = set(language_ipomsets(x, max_steps=8))
    count = 0
    for w in enumerate_wang(m, 5):
        inside = accepts_word(a, w)
        outside = accepts_word(comp, w)
        assert inside != outside
        assert inside == (word_ipomset_of(w) in lang)
        count += 1
    assert count > 50


def test_complement_emptiness_detects_universal_language():
    # a single vertex with loops in every letter of a 1-letter alphabet
    # accepts every width-1 ipomset over it
    x = a_loop()
    full = HDA(list(x.cells.values()), ["v"], ["v"])
    comp = complement_words(st_of_hda(full), width=1)
    empty, witness = emptiness(comp)
    assert not empty  # words with interfaces are never accepted here
    assert witness is not None


# -- export ----------------------------------------------------------------------

def test_export_lists_every_state_and_transition():
    a = st_of_hda(filled_square())
    text = export_st(a)
    lines = text.splitlines()
    assert lines[0] == "stautomaton k=2"
    assert lines[1] == "alphabet a b"
    assert sum(1 for l in lines if l.startswith("state ")) == len(a.states)
    assert sum(1 for l in lines if l.startswith("trans ")) == len(a.transitions)
    assert sum(1 for l in lines if " init " in l) == len(a.initial)
