"""HDA structure, paths, languages, products, and pumping."""
import itertools
import random

import pytest

from hdalang import (HDA, Cell, DecompositionTooShort, IllegalMove,
                     InvalidHDA, Move, NotAccepted, Path, accepts, build,
                     complement_empty, complement_member, stauto,
                     count_sparse_accepting_paths, dense_decomposition,
                     discrete_ipomset, dump_hda, ev, face, hda_from_dict,
                     hda_to_dict, identity_ipomset, is_deterministic_hda,
                     language_ipomsets, load_hda, parse_ipomset, path_accepts,
                     product, pump, skeleton, sparsify, subsumes,
                     validate_path, word_ipomset)
from hdalang.hda import composite_faces, essential_cells

from fixtures import (a_loop, ab_c_rectangle, accepted_once,
                      branching_square, cube, filled_square, one_letter_chain,
                      parallel_square, random_hda, random_up, rectangle_pair,
                      track_hda, two_lane_loop)
from oracles import (composite_faces_oracle, hda_problems_oracle,
                     up_steps_oracle)


# -- validation --------------------------------------------------------------

def test_duplicate_cell_ids_rejected():
    with pytest.raises(InvalidHDA) as exc:
        HDA([Cell("v", (), (), ()), Cell("v", (), (), ())], ["v"], ["v"])
    assert any(p.code == "DuplicateCell" for p in exc.value.problems)


def test_dangling_start_cell_rejected():
    with pytest.raises(InvalidHDA) as exc:
        HDA([Cell("v", (), (), ())], ["nope"], ["v"])
    assert any(p.code == "DanglingReference" for p in exc.value.problems)


def test_face_arity_must_match_dimension():
    with pytest.raises(InvalidHDA) as exc:
        HDA([Cell("v", (), (), ()),
             Cell("e", ("a",), ("v", "v"), ("v",))], ["v"], ["v"])
    assert any(p.code == "FaceArityMismatch" for p in exc.value.problems)


def test_a_missing_face_named_on_both_sides_is_reported_once():
    with pytest.raises(InvalidHDA) as exc:
        HDA([Cell("x", ("a",), ("nope",), ("nope",))], ["x"], ["x"])
    assert [(p.code, p.subjects) for p in exc.value.problems] == [
        ("DanglingReference", ("x", "nope"))]


def test_face_labels_must_drop_one_event():
    # lower face 0 of the square should read just ("b",), not ("a",)
    cells = [
        Cell("v", (), (), ()),
        Cell("ea", ("a",), ("v",), ("v",)),
        Cell("eb", ("b",), ("v",), ("v",)),
        Cell("sq", ("a", "b"), ("ea", "ea"), ("eb", "ea")),
    ]
    with pytest.raises(InvalidHDA) as exc:
        HDA(cells, ["v"], ["v"])
    assert any(p.code == "FaceLabelMismatch" for p in exc.value.problems)


def test_precubical_identity_checked():
    # two squares sharing edges but wired so the corner vertices disagree
    cells = [
        Cell("u", (), (), ()), Cell("w", (), (), ()),
        Cell("ea", ("a",), ("u",), ("u",)),
        Cell("fa", ("a",), ("u",), ("w",)),
        Cell("eb", ("b",), ("u",), ("u",)),
        Cell("sq", ("a", "b"), ("eb", "ea"), ("eb", "fa")),
    ]
    with pytest.raises(InvalidHDA) as exc:
        HDA(cells, ["u"], ["u"])
    assert any(p.code == "PrecubicalIdentityViolation"
               for p in exc.value.problems)


def problems_of(cells, start, accept):
    try:
        HDA(cells, start, accept)
    except InvalidHDA as exc:
        return list(exc.problems)
    return []


def broken_cube(rng, d):
    """The cells of the d-cube with a few faces swapped between
    coordinates or sides, pointed at another cell with the same events,
    or at a missing one."""
    cells = {c.id: c for c in cube(d).cells.values()}
    by_events = {}
    for c in cells.values():
        by_events.setdefault(c.events, []).append(c.id)
    for _ in range(rng.randint(1, 3)):
        c = cells[rng.choice([cid for cid, c in cells.items() if c.dim])]
        lower, upper = list(c.lower), list(c.upper)
        i, j = rng.randrange(c.dim), rng.randrange(c.dim)
        fault = rng.choice(("swap", "sides", "relabel", "relabel", "gone"))
        if fault == "swap":
            lower[i], lower[j] = lower[j], lower[i]
        elif fault == "sides":
            lower[i], upper[i] = upper[i], lower[i]
        elif fault == "relabel":
            lower[i] = rng.choice(by_events[cells[lower[i]].events])
        else:
            upper[j] = "gone"
        cells[c.id] = Cell(c.id, c.events, tuple(lower), tuple(upper))
    return list(cells.values())


def test_validation_matches_the_face_lookup_reference():
    rng = random.Random(61)
    for x in [filled_square(), branching_square(), parallel_square(),
              a_loop(), one_letter_chain(), two_lane_loop(), rectangle_pair(),
              cube(4)] + [random_hda(rng) for _ in range(50)]:
        cells = list(x.cells.values())
        assert problems_of(cells, x.start, x.accept) == []
        assert hda_problems_oracle(cells, x.start, x.accept) == []
    codes = set()
    for d in (2, 3, 3, 4) * 15:
        cells = broken_cube(rng, d)
        start, accept = ["c" + "0" * d], ["c" + "1" * d]
        if rng.random() < 0.2:
            start.append("nope")
        if rng.random() < 0.2:
            cells.append(cells[0])
        problems = problems_of(cells, start, accept)
        assert problems == hda_problems_oracle(cells, start, accept)
        codes |= {p.code for p in problems}
    assert codes == {"DanglingReference", "DuplicateCell",
                     "FaceLabelMismatch", "PrecubicalIdentityViolation"}


def test_alphabet_collects_cell_labels():
    x = filled_square()
    assert x.alphabet == frozenset("ab")
    assert x.dim() == 2


# -- faces and skeleton -------------------------------------------------------

def test_face_of_square_positions():
    x = filled_square()
    # dropping coordinate 0 (the a event) leaves the b edge and vice versa
    assert face(x, "q", 0, (0,)) == "g"
    assert face(x, "q", 0, (1,)) == "e"
    assert face(x, "q", 1, (0, 1)) == "y"  # top corner
    assert face(x, "q", 0, ()) == "q"


def test_face_position_out_of_range():
    x = filled_square()
    with pytest.raises(Exception):
        face(x, "q", 0, (5,))


def test_skeleton_drops_high_cells():
    x = filled_square()
    sk = skeleton(x, 1)
    assert "q" not in sk.cells
    assert set(sk.cells) == {"v", "w", "x", "y", "e", "f", "g", "h"}
    assert sk.dim() == 1


def test_skeleton_language_is_width_filtered():
    x = filled_square()
    sk = skeleton(x, 1)
    lang_full = set(language_ipomsets(x, max_steps=6))
    lang_sk = set(language_ipomsets(sk, max_steps=6))
    assert lang_sk == {p for p in lang_full if p.width() <= 1}


# -- serialization ------------------------------------------------------------

def test_dict_round_trip():
    x = branching_square()
    back = hda_from_dict(hda_to_dict(x))
    assert set(back.cells) == set(x.cells)
    assert back.start == x.start and back.accept == x.accept
    for cid, c in x.cells.items():
        assert back.cells[cid].events == c.events
        assert back.cells[cid].lower == c.lower
        assert back.cells[cid].upper == c.upper


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "square.hda")
    dump_hda(filled_square(), path)
    back = load_hda(path)
    assert set(back.cells) == set(filled_square().cells)


def test_load_rejects_bad_structure(tmp_path):
    path = str(tmp_path / "bad.hda")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write('{"cells": [{"id": "e", "events": ["a"], '
                 '"d0": ["nope"], "d1": ["nope"]}], '
                 '"start": ["e"], "accept": ["e"], "alphabet": ["a"]}')
    with pytest.raises(InvalidHDA):
        load_hda(path)


# -- paths ---------------------------------------------------------------------

def test_path_through_the_square():
    x = filled_square()
    path = Path("v", (
        Move("up", frozenset({0, 1}), "q"),
        Move("down", frozenset({0}), "h"),
        Move("down", frozenset({0}), "y"),
    ))
    assert validate_path(x, path) == "y"
    assert ev(x, path) == parse_ipomset("[a+ b+][a- b-]")
    assert path_accepts(x, path)


def test_path_with_wrong_face_rejected():
    x = filled_square()
    with pytest.raises(IllegalMove):
        validate_path(x, Path("v", (Move("up", frozenset({0}), "f"),)))


@pytest.mark.parametrize("path, index, says", [
    (Path("nope"), 0, "origin 'nope' does not exist"),
    (Path("v", (Move("up", frozenset({0}), "e"),
                Move("up", frozenset({0}), "gone"))),
     1, "target 'gone' does not exist"),
    (Path("v", (Move("up", frozenset({0}), "e"),
                Move("down", frozenset({0}), "x"))),
     1, "down move from 'e' lands at 'w', not 'x'"),
    (Path("v", (Move("up", frozenset({0}), "e"),
                Move("down", frozenset({3}), "w"))),
     1, "positions [3] out of range for cell 'e' of dimension 1"),
    (Path("v", (Move("up", frozenset({2}), "q"),)),
     0, "positions [2] out of range for cell 'q' of dimension 2"),
])
def test_each_illegal_move_is_named(path, index, says):
    with pytest.raises(IllegalMove) as exc:
        validate_path(filled_square(), path)
    assert exc.value.index == index
    assert str(exc.value) == f"move {index}: {says}"


def test_move_direction_checked():
    with pytest.raises(ValueError):
        Move("sideways", frozenset(), "v")


def test_ev_of_empty_path_is_identity():
    x = filled_square()
    assert ev(x, Path("g")) == identity_ipomset(("b",))


def test_sparsify_merges_up_moves():
    x = filled_square()
    dense = Path("v", (
        Move("up", frozenset({0}), "g"),
        Move("up", frozenset({0}), "q"),
        Move("down", frozenset({0}), "h"),
        Move("down", frozenset({0}), "y"),
    ))
    sparse = sparsify(x, dense)
    assert ev(x, sparse) == ev(x, dense)
    assert len(sparse.moves) == 2
    directions = [m.direction for m in sparse.moves]
    assert directions == ["up", "down"]


def test_sparsify_drops_empty_moves():
    x = filled_square()
    padded = Path("v", (Move("up", frozenset(), "v"),
                        Move("up", frozenset({0}), "e"),))
    assert sparsify(x, padded).moves == (Move("up", frozenset({0}), "e"),)


# -- reachability and structural determinism -----------------------------------

def test_essential_cells_of_branching_square():
    x = branching_square()
    ess = essential_cells(x)
    assert "q" in ess and "bq" in ess and "cq" in ess
    assert ess <= set(x.cells)


def test_unreachable_cells_are_not_essential():
    x = HDA([Cell("v", (), (), ()), Cell("w", (), (), ()),
             Cell("e", ("a",), ("v",), ("v",)),
             Cell("f", ("a",), ("w",), ("w",))], ["v"], ["v"])
    ess = essential_cells(x)
    assert "w" not in ess and "f" not in ess


def test_structural_determinism_of_fixtures():
    ok, why = is_deterministic_hda(filled_square())
    assert ok and why is None
    ok, why = is_deterministic_hda(one_letter_chain())
    assert ok
    ok, why = is_deterministic_hda(branching_square())
    assert not ok
    assert why  # names the offending cell pair


def test_two_start_cells_of_equal_type_is_nondeterministic():
    # both vertices must be essential for the clause to bite; a start
    # cell with no route to an accept cell is ignored
    x = HDA([Cell("v", (), (), ()), Cell("w", (), (), ())],
            ["v", "w"], ["v", "w"])
    ok, why = is_deterministic_hda(x)
    assert not ok
    assert "share" in why

    pruned = HDA([Cell("v", (), (), ()), Cell("w", (), (), ())],
                 ["v", "w"], ["v"])
    assert is_deterministic_hda(pruned)[0]


# -- languages -------------------------------------------------------------------

def test_accepts_basic_members():
    x = filled_square()
    assert accepts(x, parse_ipomset("[b]"))
    assert accepts(x, parse_ipomset("[a+ b+][a- b-]"))
    assert accepts(x, word_ipomset("ab"))
    assert not accepts(x, word_ipomset("aa"))


def test_language_is_down_closed_on_samples():
    x = parallel_square()
    lang = set(language_ipomsets(x, max_steps=6))
    top = discrete_ipomset("ab")
    assert lang == {p for p in lang if subsumes(p, top)}
    assert word_ipomset("ab") in lang and word_ipomset("ba") in lang


def test_count_sparse_accepting_paths():
    x = parallel_square()
    assert count_sparse_accepting_paths(x, discrete_ipomset("ab")) == 1
    assert count_sparse_accepting_paths(x, word_ipomset("ab")) == 1
    assert count_sparse_accepting_paths(x, word_ipomset("aa")) == 0


def test_ambiguity_grows_with_loops():
    x = two_lane_loop()
    assert count_sparse_accepting_paths(x, word_ipomset("abcd")) == 2
    assert count_sparse_accepting_paths(x, word_ipomset("abcdabcd")) == 4


def test_empty_ipomset_accepted_when_start_meets_accept():
    x = a_loop()
    assert accepts(x, identity_ipomset(()))


# -- product ---------------------------------------------------------------------

def test_product_language_is_intersection():
    x = filled_square()
    y = parallel_square()
    xy = product(x, y)
    lx = set(language_ipomsets(x, max_steps=6))
    ly = set(language_ipomsets(y, max_steps=6))
    assert set(language_ipomsets(xy, max_steps=6)) == (lx & ly)


def test_product_names_pairs_of_ids_holding_commas_apart():
    # joined by a bare comma, ("x,y", "z") and ("x", "y,z") were one cell
    x = HDA([Cell("x,y", (), (), ()), Cell("x", (), (), ()),
             Cell("e", ("a",), ("x,y",), ("x",))], ["x,y"], ["x"])
    y = HDA([Cell("z", (), (), ()), Cell("y,z", (), (), ()),
             Cell("f", ("a",), ("y,z",), ("z",)),
             Cell("g", ("a",), ("z",), ("z",))], ["z", "y,z"], ["z"])
    xy = product(x, y)
    assert sorted(xy.cells) == ["(e,f)", "(e,g)", "(x,y\\,z)", "(x,z)",
                                "(x\\,y,y\\,z)", "(x\\,y,z)"]
    assert xy.cells["(e,g)"].lower == ("(x\\,y,z)",)
    lx = set(language_ipomsets(x, max_steps=4))
    ly = set(language_ipomsets(y, max_steps=4))
    assert set(language_ipomsets(xy, max_steps=4)) == lx & ly != set()


def test_product_names_escape_backslashes_and_empty_ids():
    x = HDA([Cell("", (), (), ()), Cell("\\", (), (), ()),
             Cell(",", (), (), ())], ["", "\\", ","], [""])
    assert sorted(product(x, x).cells) == sorted(
        f"({p},{q})" for p in ("\\e", "\\\\", "\\,")
        for q in ("\\e", "\\\\", "\\,"))


def test_product_with_random_pairs():
    rng = random.Random(13)
    for _ in range(10):
        x, y = random_hda(rng), random_hda(rng)
        xy = product(x, y)
        lx = set(language_ipomsets(x, max_steps=6))
        ly = set(language_ipomsets(y, max_steps=6))
        assert set(language_ipomsets(xy, max_steps=6)) == (lx & ly)


# -- pumping ----------------------------------------------------------------------

def test_pump_on_the_loop():
    x = a_loop()
    qs = [s.as_ipomset() for s in dense_decomposition(word_ipomset("aaa"))]
    result = pump(x, qs, 0, 3)
    assert 0 <= result.i < result.j
    for p in result.members:
        assert accepts(x, p)
    assert result.members[0] == word_ipomset("aaa")


def test_pump_needs_enough_segments():
    x = a_loop()
    qs = [s.as_ipomset() for s in dense_decomposition(word_ipomset("a"))]
    with pytest.raises(DecompositionTooShort):
        pump(x, qs, 0, 2)


def test_pump_window_offset_validated():
    x = a_loop()
    qs = [s.as_ipomset() for s in dense_decomposition(word_ipomset("aaa"))]
    with pytest.raises(DecompositionTooShort):
        pump(x, qs, 9, 2)


def test_pump_rejects_unaccepted_input():
    x = parallel_square()
    qs = [s.as_ipomset() for s in dense_decomposition(word_ipomset("aaaaaaa"))]
    with pytest.raises(NotAccepted):
        pump(x, qs, 0, 2)


def test_pump_reports_broken_membership_as_an_internal_failure(monkeypatch):
    x = a_loop()
    qs = [s.as_ipomset() for s in dense_decomposition(word_ipomset("aaa"))]
    monkeypatch.setattr("hdalang.hda.accepts", accepted_once())
    with pytest.raises(RuntimeError, match="broke membership"):
        pump(x, qs, 0, 3)


def test_pump_reports_a_missing_cut_pair_as_an_internal_failure(monkeypatch):
    x = a_loop()
    qs = [s.as_ipomset() for s in dense_decomposition(word_ipomset("aaa"))]
    monkeypatch.setattr("hdalang.hda._segment_relation", lambda hda, q: {})
    with pytest.raises(RuntimeError, match="no pumpable cut pair"):
        pump(x, qs, 0, 3)


# -- composite faces and reuse of compiled automata ---------------------------

def _face_tables_hdas():
    rng = random.Random(41)
    yield from (filled_square(), branching_square(), parallel_square(),
                a_loop(), one_letter_chain(), two_lane_loop(),
                ab_c_rectangle(), rectangle_pair(),
                track_hda(discrete_ipomset("abc")),
                track_hda(parse_ipomset("[a+ b+][a- b][b c+][b- c-]")))
    yield from (build(random_up(rng)) for _ in range(10))
    yield from (random_hda(rng) for _ in range(50))


def test_up_steps_match_the_face_route():
    for x in _face_tables_hdas():
        assert x.up_steps() == up_steps_oracle(x)


def test_composite_faces_match_face():
    for x in _face_tables_hdas():
        for c in x.cells.values():
            want = [(a, face(x, c.id, 0, a), face(x, c.id, 1, a))
                    for r in range(1, c.dim + 1)
                    for a in itertools.combinations(range(c.dim), r)]
            assert list(composite_faces(x, c)) == want


def test_composite_faces_of_cubes_match_the_references():
    for d in range(1, 6):
        x = cube(d)
        for c in x.cells.values():
            got = list(composite_faces(x, c))
            assert got == composite_faces_oracle(x, c)
            assert got == [(a, face(x, c.id, 0, a), face(x, c.id, 1, a))
                           for a, _, _ in got]
            assert len(got) == 2 ** c.dim - 1


def broken_identities(rng, d):
    """The cells of the d-cube with a few faces pointed at another cell
    with the same events, or with the lower and upper face of a
    coordinate swapped: every face exists and has the right events, so
    only precubical identities can break."""
    cells = {c.id: c for c in cube(d).cells.values()}
    by_events = {}
    for c in cells.values():
        by_events.setdefault(c.events, []).append(c.id)
    for _ in range(rng.randint(1, 3)):
        c = cells[rng.choice([cid for cid, c in cells.items() if c.dim])]
        lower, upper = list(c.lower), list(c.upper)
        i = rng.randrange(c.dim)
        if rng.random() < 0.5:
            lower[i], upper[i] = upper[i], lower[i]
        else:
            lower[i] = rng.choice(by_events[cells[lower[i]].events])
        cells[c.id] = Cell(c.id, c.events, tuple(lower), tuple(upper))
    return list(cells.values())


def test_broken_identities_of_cubes_match_the_reference():
    rng = random.Random(83)
    broken = 0
    for d in (3, 4, 5) * 12:
        cells = broken_identities(rng, d)
        start, accept = ["c" + "0" * d], ["c" + "1" * d]
        problems = problems_of(cells, start, accept)
        assert problems == hda_problems_oracle(cells, start, accept)
        assert {p.code for p in problems} <= {"PrecubicalIdentityViolation"}
        broken += bool(problems)
    assert broken >= 30


def test_skeleton_at_full_width_is_the_automaton_itself():
    x = filled_square()
    assert skeleton(x, 2) is x and skeleton(x, 5) is x
    assert skeleton(x, 1) is not x


def test_bounded_complements_reuse_the_compiled_automaton(monkeypatch):
    compiled = []
    compile_ = stauto._compile

    def counting(hda):
        compiled.append(hda)
        return compile_(hda)

    monkeypatch.setattr(stauto, "_compile", counting)
    x = filled_square()
    p = parse_ipomset("[a+][a-]")
    assert complement_member(x, 2, p) == complement_member(x, 2, p)
    complement_empty(x, 2)
    assert compiled == [x]
