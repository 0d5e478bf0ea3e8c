"""Field types in the .hda loader, and the reachability helper."""
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from hdalang import HDA, Cell, InvalidHDA, essential_cells, hda_from_dict, hda_to_dict
from hdalang.cli import main
from hdalang.hda import reachable

from fixtures import a_loop, branching_square, cube, filled_square, random_hda
from oracles import hda_from_dict_oracle


def square_data():
    return hda_to_dict(filled_square())


@pytest.mark.parametrize("field", ["events", "d0", "d1"])
@pytest.mark.parametrize("bad", ["a", "v", 5, None, {"a": 1}, ["a", 1]])
def test_cell_fields_must_be_lists_of_strings(field, bad):
    data = square_data()
    edge = next(c for c in data["cells"] if c["id"] == "e")
    edge[field] = bad
    with pytest.raises(InvalidHDA) as exc:
        hda_from_dict(data)
    assert [(p.code, p.subjects) for p in exc.value.problems] == [
        ("FieldType", (f"{field} of 'e'",))]


@pytest.mark.parametrize("field", ["start", "accept", "alphabet"])
@pytest.mark.parametrize("bad", ["v", "ab", 3, None, [1], ["v", ["w"]]])
def test_top_level_fields_must_be_lists_of_strings(field, bad):
    data = square_data()
    data[field] = bad
    with pytest.raises(InvalidHDA) as exc:
        hda_from_dict(data)
    assert [(p.code, p.subjects) for p in exc.value.problems] == [
        ("FieldType", (field,))]


@pytest.mark.parametrize("bad", [0, None, ["e"], 1.5, True])
def test_cell_ids_must_be_strings(bad):
    data = square_data()
    edge = next(i for i, c in enumerate(data["cells"]) if c["id"] == "e")
    data["cells"][edge]["id"] = bad
    with pytest.raises(InvalidHDA) as exc:
        hda_from_dict(data)
    assert [(p.code, p.subjects) for p in exc.value.problems] == [
        ("FieldType", (f"id of cell {edge}",))]


def test_every_bad_field_is_reported():
    data = square_data()
    data["start"] = "v1"
    data["cells"][0]["events"] = "a"
    with pytest.raises(InvalidHDA) as exc:
        hda_from_dict(data)
    assert len(exc.value.problems) == 2
    assert all(p.code == "FieldType" for p in exc.value.problems)


def test_alphabet_stays_optional_and_tuples_load():
    data = square_data()
    del data["alphabet"]
    data["start"] = ("v", "g")
    x = hda_from_dict(data)
    assert x.start == {"v", "g"} and x.alphabet == {"a", "b"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, dict(line.split("=", 1) for line in out.strip().splitlines())


def test_cli_reports_field_type_as_bad_input(capsys, tmp_path):
    data = square_data()
    data["start"] = "v1"
    bad = tmp_path / "bad.hda"
    bad.write_text(json.dumps(data))
    code, record = run(capsys, "member", str(bad), "[a+][a-]")
    assert code == 2 and record["status"] == "error"
    assert "FieldType" in record["detail"]
    code, record = run(capsys, "validate", str(bad))
    assert code == 1 and record["status"] == "false"
    assert "FieldType" in record["detail"]


def test_reachable_follows_moves_forward_and_backward():
    x = HDA([Cell("v0", (), (), ()), Cell("v1", (), (), ()),
             Cell("w", (), (), ()),
             Cell("e", ("a",), ("v0",), ("v1",)),
             Cell("f", ("b",), ("w",), ("v1",))], ["v0"], ["v1"])
    assert reachable(x, ["v0"]) == {"v0", "e", "v1"}
    assert reachable(x, ["v1"], backward=True) == set(x.cells)
    assert reachable(x, ["w"]) == {"w", "f", "v1"}
    assert reachable(x, []) == frozenset()
    assert essential_cells(x) == {"v0", "e", "v1"}


# -- fuzzing: any JSON value loads or is rejected as InvalidHDA -------------------

FIELDS = ("cells", "start", "accept", "alphabet", "id", "events", "d0", "d1")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(("v", "e", "a")),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=30)


@given(json_values)
@settings(max_examples=500, deadline=None)
def test_loader_accepts_or_rejects_any_json_value(data):
    try:
        hda_from_dict(data)
    except InvalidHDA:
        pass


# mostly well typed, so that a tenth of the examples reach HDA validation
ids = st.sampled_from(("v", "w", "e"))
names = st.lists(st.sampled_from(("v", "w", "e", "a", "b")), max_size=3)
fields = st.one_of(names, names, names, json_values)
cell_dicts = st.fixed_dictionaries(
    {"id": st.one_of(ids, ids, ids, json_values),
     "events": fields, "d0": fields, "d1": fields})


@given(st.lists(cell_dicts, max_size=4), fields, fields)
@settings(max_examples=300, deadline=None)
def test_loader_accepts_or_rejects_any_cell_list(cells, start, accept):
    try:
        hda_from_dict({"cells": cells, "start": start, "accept": accept})
    except InvalidHDA:
        pass


# -- the one-pass cell check against the per-field reference ---------------------

class Label(str):
    """A str subclass, which the loader takes as a string."""


BAD_VALUES = (5, None, 1.5, True, "a", "", {"a": 1}, {"v"}, ["a", 1],
              [["a"]], ("a", None), [None], (3,), b"v")


def malformed(seed):
    """A fixture's data with a few seeded faults: a wrong type at one
    field, tuples for lists, str subclasses, a missing key, a container
    of another kind or a cell that is no object.  Built anew for each
    call, so that both loaders get data no one has read."""
    rng = random.Random(seed)
    make = rng.choice((filled_square, branching_square, a_loop,
                       lambda: cube(2), lambda: random_hda(rng)))
    data = hda_to_dict(make())
    cells = data["cells"]
    for _ in range(rng.randrange(4)):
        fault = rng.randrange(9)
        c = rng.choice(cells) if cells else {}
        key = rng.choice(("id", "events", "d0", "d1"))
        top = rng.choice(("cells", "start", "accept", "alphabet"))
        if fault == 0 and isinstance(c, dict) and key in c:
            c[key] = rng.choice(BAD_VALUES)
        elif fault == 1 and isinstance(c, dict):
            for k in ("events", "d0", "d1"):
                if isinstance(c.get(k), list):
                    c[k] = tuple(c[k])
        elif fault == 2 and isinstance(c, dict):
            if isinstance(c.get("id"), str):
                c["id"] = Label(c["id"])
            if isinstance(c.get("events"), list):
                c["events"] = [Label(l) for l in c["events"]]
        elif fault == 3 and isinstance(data.get("start"), list):
            data["start"] = [Label(s) for s in data["start"]]
        elif fault == 4 and isinstance(c, dict):
            c.pop(key, None)
        elif fault == 5:
            data.pop(top, None)
        elif fault == 6 and isinstance(data.get(top), list):
            # an iterator's repr names its address, so only cells get one
            data[top] = rng.choice((tuple, lambda v: {"x": v}, repr, len)
                                   + ((iter,) if top == "cells" else
                                      (frozenset, dict.fromkeys)))(data[top])
        elif fault == 7 and cells:
            cells[rng.randrange(len(cells))] = rng.choice(
                ([], "v", 0, None, [("id", "v")]))
        elif fault == 8 and isinstance(c, dict) and key != "id":
            c[key] = rng.choice((list, tuple))(rng.choice(
                ("v", "e", "a", Label("a"), 1)) for _ in range(2))
    return data


def loaded(load, data):
    """An HDA as its cells, in order, and its sets, or the problems."""
    try:
        x = load(data)
    except InvalidHDA as exc:
        return "problems", exc.problems
    return "hda", list(x.cells.items()), x.start, x.accept, x.alphabet


def test_loader_matches_the_per_field_reference():
    outcomes = set()
    for seed in range(3000):
        got = loaded(hda_from_dict, malformed(seed))
        assert got == loaded(hda_from_dict_oracle, malformed(seed)), seed
        outcomes.add(got[0] if got[0] == "hda" else got[1][0].code)
    assert {"hda", "FieldType", "Malformed", "DanglingReference"} <= outcomes
