"""Decision procedures over HDA languages."""
import random

import pytest

from hdalang import (HDA, Cell, Step, WidthExceeded, accepts,
                     complement_empty, complement_member, discrete_ipomset,
                     empty, equivalent, identity_ipomset, include, intersect,
                     is_deterministic_language, language_ipomsets, member,
                     parse_ipomset, pre_set, prefix_quotient, st_of_hda,
                     subsumes, supersumptions, word_ipomset)
from hdalang.text import print_ipomset

from fixtures import (a_loop, ab_c_rectangle, branching_square, cube,
                      filled_square, hda_union, one_letter_chain,
                      parallel_square, random_hda, random_ipomset,
                      rectangle_pair, track_hda)


# -- membership -----------------------------------------------------------------

def test_member_agrees_with_path_acceptance():
    rng = random.Random(3)
    for _ in range(15):
        x = random_hda(rng)
        for p in language_ipomsets(x, max_steps=6):
            assert member(x, p)
        for _ in range(10):
            p = random_ipomset(rng, max_events=4)
            assert member(x, p) == accepts(x, p)


def test_member_false_above_the_dimension():
    x = a_loop()
    assert not member(x, discrete_ipomset("aa"))


def test_member_respects_down_closure():
    x = filled_square()
    top = parse_ipomset("[a+ b+][a- b-]")
    assert member(x, top)
    for q in (word_ipomset("ab"), word_ipomset("ba")):
        assert subsumes(q, top)
        assert member(x, q)


# -- inclusion, equivalence, emptiness --------------------------------------------

def test_include_with_witness():
    ok, witness = include(branching_square(), parallel_square())
    assert not ok
    assert witness is not None
    assert member(branching_square(), witness)
    assert not member(parallel_square(), witness)


def test_equivalent_of_relabeled_copy():
    x = ab_c_rectangle(False, "f")
    y = ab_c_rectangle(False, "g")
    ok, witness = equivalent(x, y)
    assert ok and witness is None


def test_equivalent_differs_on_event_order():
    x = ab_c_rectangle(False, "f")
    y = ab_c_rectangle(True, "s")
    ok, witness = equivalent(x, y)
    assert not ok
    assert witness is not None


def test_empty_language():
    x = HDA([Cell("v", (), (), ()), Cell("w", (), (), ())], ["v"], ["w"])
    is_empty, witness = empty(x)
    assert is_empty and witness is None
    is_empty, witness = empty(a_loop())
    assert not is_empty
    assert witness == identity_ipomset(())


def test_intersect_is_language_intersection():
    x = filled_square()
    y = parallel_square()
    z = intersect(x, y)
    lx = set(language_ipomsets(x, max_steps=6))
    ly = set(language_ipomsets(y, max_steps=6))
    assert set(language_ipomsets(z, max_steps=6)) == (lx & ly)


def test_intersect_takes_cell_ids_holding_commas():
    x = HDA([Cell("x,y", (), (), ()), Cell("x", (), (), ())], ["x,y"], ["x"])
    y = HDA([Cell("z", (), (), ()), Cell("y,z", (), (), ())], ["z"], ["y,z"])
    z = intersect(x, y)
    assert len(z.cells) == 4
    assert (z.start, z.accept) == ({"(x\\,y,z)"}, {"(x,y\\,z)"})
    assert empty(z)[0]


# -- complement --------------------------------------------------------------------

def test_complement_member_finds_first_unaccepted_supersumption():
    x = parallel_square()  # language {a||b} down, a above b
    inside, witness = complement_member(x, 2, discrete_ipomset("ab"))
    assert not inside and witness is None

    inside, witness = complement_member(x, 2, word_ipomset("aa"))
    assert inside
    # the witness is the canonically first supersumption not accepted
    sups = supersumptions(word_ipomset("aa"), 2)
    unaccepted = [q for q in sups if not member(x, q)]
    assert witness == unaccepted[0]

    # ab itself is in the complement: the event-order variant with b
    # above a subsumes ab but is not in the language
    inside, witness = complement_member(x, 2, word_ipomset("ab"))
    assert inside
    assert witness in supersumptions(word_ipomset("ab"), 2)
    assert not member(x, witness)


def test_complement_member_rejects_wide_queries():
    with pytest.raises(WidthExceeded):
        complement_member(a_loop(), 1, discrete_ipomset("aa"))


def test_complement_member_down_closure_law():
    # p in bcomp_k(L) iff some supersumption of p of width <= k is not in L
    x = parallel_square()
    rng = random.Random(8)
    for _ in range(40):
        p = random_ipomset(rng, max_events=3, max_width=2)
        inside, witness = complement_member(x, 2, p)
        sups = supersumptions(p, 2)
        assert inside == any(not member(x, q) for q in sups)
        if inside:
            assert subsumes(p, witness)
            assert not member(x, witness)


def test_complement_empty_of_point_language():
    # accepting the empty ipomset only: every nonempty width-1 ipomset
    # over the declared alphabet witnesses a nonempty complement
    x = HDA([Cell("v", (), (), ())], ["v"], ["v"], alphabet=("a",))
    is_empty, witness = complement_empty(x, 1)
    assert not is_empty
    assert witness is not None and len(witness.labels) > 0

    # without any alphabet the width-1 universe collapses to the empty
    # ipomset, which the point language already covers
    bare = HDA([Cell("v", (), (), ())], ["v"], ["v"])
    is_empty, witness = complement_empty(bare, 1)
    assert is_empty and witness is None


def test_complement_empty_true_case():
    # the a-loop accepts every width-1 ipomset without interfaces, but
    # interface variants are outside, so the complement is not empty;
    # an automaton accepting everything of width <= 1 over {a} needs
    # interface cells too.  The loop with start=accept=everything comes
    # close: its start vertex also accepts the running-a identity.
    cells = [Cell("v", (), (), ()), Cell("e", ("a",), ("v",), ("v",))]
    x = HDA(cells, ["v", "e"], ["v", "e"])
    nonempty, witness = complement_empty(x, 1)
    assert nonempty is True or witness is not None


# -- prefixes ------------------------------------------------------------------------

def test_pre_set_of_the_loop():
    # cell-non-repeating paths on two cells: stay at v, or step into e
    pre = pre_set(a_loop())
    eps = identity_ipomset(())
    a_running = word_ipomset("a", target=(0,))
    assert set(pre) == {eps, a_running}
    assert pre[eps] == frozenset({"v"})
    assert pre[a_running] == frozenset({"e"})


def test_pre_set_of_the_filled_square():
    pre = pre_set(filled_square())
    eps = identity_ipomset(())
    assert eps in pre
    assert parse_ipomset("[a+ b+][a b]") in pre
    assert parse_ipomset("[b]") in pre  # the edge start cell


def test_pre_set_merges_only_the_last_step_of_a_prefix(monkeypatch):
    # a prefix is merged already, so each extension merges its last step
    # with the next one, and each such pair is merged once per call
    x = cube(4)
    st_of_hda(x)  # compiled outside the count
    built = []
    init = Step.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Step, "__init__", counting)
    assert len(pre_set(x)) == 1105
    assert len(built) < 1000



def test_pre_set_hashes_no_step_per_search_state(monkeypatch):
    # a search state holds its prefix as an interned id, so it hashes no
    # step: the 4-cube took 342,585 Step hashes when states held words
    x = cube(4)
    st_of_hda(x)  # compiled outside the count
    hashed = []
    hash_ = Step.__hash__

    def counting(self):
        hashed.append(self)
        return hash_(self)

    monkeypatch.setattr(Step, "__hash__", counting)
    prefixes = pre_set(x)
    monkeypatch.undo()
    assert len(prefixes) == 1105
    assert len(hashed) < 50_000

def test_prefix_quotient_language():
    x = branching_square()
    ab = word_ipomset("ab", target=())
    quot = prefix_quotient(x, ab)
    lang = set(language_ipomsets(quot, max_steps=4))
    assert identity_ipomset(()) in lang
    assert word_ipomset("c") in lang


def test_prefix_quotient_of_nonprefix_is_empty():
    x = parallel_square()
    quot = prefix_quotient(x, word_ipomset("cc"))
    is_empty, _ = empty(quot)
    assert is_empty


# -- language determinism ---------------------------------------------------------------

def test_branching_square_is_not_deterministic():
    ok, pair = is_deterministic_language(branching_square())
    assert not ok
    p, q = pair
    assert print_ipomset(p) == "[a+][a-][b+][b-]"
    assert print_ipomset(q) == "[a+ b+][a- b-]"


def test_deterministic_fixtures():
    assert is_deterministic_language(filled_square())[0]
    assert is_deterministic_language(a_loop())[0]
    assert is_deterministic_language(parallel_square())[0]
    assert is_deterministic_language(one_letter_chain())[0]


def test_union_of_word_tracks_is_deterministic():
    # a language of words has no subsumption-related prefixes at all,
    # so the swap invariance holds vacuously
    left = track_hda(word_ipomset("abc"), "L")
    right = track_hda(word_ipomset("ab"), "R")
    ok, pair = is_deterministic_language(hda_union(left, right))
    assert ok and pair is None


def test_union_of_distinct_tracks_is_not_deterministic():
    # after the word ab the union still offers c, after a||b it does not
    left = track_hda(discrete_ipomset("ab"), "L")
    right = track_hda(word_ipomset("abc"), "R")
    ok, pair = is_deterministic_language(hda_union(left, right))
    assert not ok
    p, q = pair
    assert subsumes(p, q) and p != q
