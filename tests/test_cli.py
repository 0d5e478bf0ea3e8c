"""End-to-end checks of the command line front end."""
import contextlib
import io
import json
import os
import string
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import hdalang
from hdalang import HDA, Cell, cli, dump_hda, load_hda
from hdalang.cli import main

from fixtures import a_loop, accepted_once

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    record = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        record[key] = value
    return code, record


# -- answers and exit codes -------------------------------------------------------

def test_member_true_exits_zero(capsys):
    code, record = run(capsys, "member", f"{DATA}/filled_square.hda",
                       "[a+ b+][a- b-]")
    assert code == 0 and record["status"] == "true"


def test_member_false_exits_one(capsys):
    code, record = run(capsys, "member", f"{DATA}/filled_square.hda",
                       "[a+][a-][a+][a-]")
    assert code == 1 and record["status"] == "false"


def test_malformed_ipomset_exits_two(capsys):
    code, record = run(capsys, "member", f"{DATA}/filled_square.hda",
                       "[a+ oops")
    assert code == 2 and record["status"] == "error"
    assert "unterminated" in record["detail"]


def test_missing_file_exits_two(capsys):
    code, record = run(capsys, "validate", f"{DATA}/no_such.hda")
    assert code == 2 and record["status"] == "error"


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_validate_reports_cell_count(capsys):
    code, record = run(capsys, "validate", f"{DATA}/filled_square.hda")
    assert code == 0 and record == {"status": "true", "detail": "9 cells"}


def test_validate_reports_problems(capsys, tmp_path):
    bad = tmp_path / "bad.hda"
    bad.write_text(json.dumps({
        "alphabet": ["a"],
        "cells": [{"id": "e", "events": ["a"], "d0": ["u"], "d1": ["v"]}],
        "start": ["e"], "accept": ["e"],
    }))
    code, record = run(capsys, "validate", str(bad))
    assert code == 1 and record["status"] == "false"
    assert "DanglingReference" in record["detail"]


def test_validate_reports_a_missing_face_once(capsys, tmp_path):
    bad = tmp_path / "bad.hda"
    bad.write_text(json.dumps({
        "alphabet": ["a"],
        "cells": [{"id": "x", "events": ["a"], "d0": ["nope"],
                   "d1": ["nope"]}],
        "start": ["x"], "accept": ["x"],
    }))
    code, record = run(capsys, "validate", str(bad))
    assert code == 1 and record["status"] == "false"
    assert record["detail"] == ("DanglingReference: face 'nope' of cell 'x' "
                                "does not exist")


# -- pinned answers on the shipped data files -------------------------------------

def test_deterministic_witness_pair(capsys):
    code, record = run(capsys, "deterministic", f"{DATA}/branching_square.hda")
    assert code == 1 and record["status"] == "false"
    assert record["witness"] == "[a+][a-][b+][b-]|[a+ b+][a- b-]"


def test_include_and_its_refinement(capsys):
    code, record = run(capsys, "include", f"{DATA}/parallel_ab.hda",
                       f"{DATA}/filled_square.hda")
    assert code == 0 and record == {"status": "true"}

    code, record = run(capsys, "equiv", f"{DATA}/parallel_ab.hda",
                       f"{DATA}/filled_square.hda")
    assert code == 1 and record == {"status": "false", "witness": "[b]"}


def test_empty_gives_shortest_witness(capsys):
    code, record = run(capsys, "empty", f"{DATA}/filled_square.hda")
    assert code == 1 and record == {"status": "false", "witness": "[b]"}


def test_complement_member_defaults_to_dimension(capsys):
    code, record = run(capsys, "complement-member", f"{DATA}/parallel_ab.hda",
                       "[a+][a-][b+][b-]")
    assert code == 0 and record["status"] == "true"
    assert record["witness"] == "[b+ a+][b- a-]"

    # at width 1 the only supersumption of the word is itself, a member
    code, record = run(capsys, "complement-member", f"{DATA}/parallel_ab.hda",
                       "[a+][a-][b+][b-]", "-k", "1")
    assert code == 1 and record == {"status": "false"}


def test_complement_empty_finds_epsilon(capsys):
    code, record = run(capsys, "complement-empty", f"{DATA}/filled_square.hda")
    assert code == 1 and record == {"status": "false", "witness": "[]"}


def test_count_paths(capsys):
    code, record = run(capsys, "count-paths", f"{DATA}/filled_square.hda",
                       "[a+][a-][b+][b-]")
    assert code == 0 and record == {"status": "true", "count": "1"}


def test_oneletter_analyze(capsys):
    code, record = run(capsys, "oneletter", "analyze",
                       f"{DATA}/one_letter_chain.hda")
    assert code == 0 and record["status"] == "true"
    assert record["up"] == "r=1 s=8 f=1,2,2,1,2,1,1,1,1 tau={};{};{};{};{};{};{};{0};{}"


def test_oneletter_analyze_refuses_two_letters(capsys):
    code, record = run(capsys, "oneletter", "analyze",
                       f"{DATA}/filled_square.hda")
    assert code == 1 and record == {
        "status": "false",
        "detail": "NotOneLetter: alphabet ['a', 'b'] does not have exactly "
                  "one letter"}


def test_structural_determinism_command(capsys):
    code, record = run(capsys, "deterministic-hda",
                       f"{DATA}/branching_square.hda")
    assert code == 1 and record["status"] == "false"


# -- commands that write files ----------------------------------------------------

def test_intersect_writes_a_loadable_automaton(capsys, tmp_path):
    out = tmp_path / "meet.hda"
    code, record = run(capsys, "intersect", f"{DATA}/filled_square.hda",
                       f"{DATA}/parallel_ab.hda", "-o", str(out))
    assert code == 0 and record["status"] == "true"
    code, _ = run(capsys, "member", str(out), "[a+ b+][a- b-]")
    assert code == 0
    code, _ = run(capsys, "member", str(out), "[b]")
    assert code == 1


def test_intersect_takes_cell_ids_holding_commas(capsys, tmp_path):
    left, right, out = (tmp_path / n for n in ("l.hda", "r.hda", "o.hda"))
    dump_hda(HDA([Cell("x,y", (), (), ()), Cell("x", (), (), ()),
                  Cell("e", ("a",), ("x,y",), ("x",))], ["x,y"], ["x"]),
             str(left))
    dump_hda(HDA([Cell("z", (), (), ()), Cell("y,z", (), (), ()),
                  Cell("f", ("a",), ("y,z",), ("z",))], ["y,z"], ["z"]),
             str(right))
    code, record = run(capsys, "intersect", str(left), str(right),
                       "-o", str(out))
    assert code == 0 and record == {"status": "true", "detail": "5 cells"}
    assert run(capsys, "member", str(out), "[a+][a-]") == (0, {"status": "true"})


def test_skeleton_cuts_concurrency(capsys, tmp_path):
    out = tmp_path / "hollow.hda"
    code, record = run(capsys, "skeleton", f"{DATA}/filled_square.hda",
                       "-k", "1", "-o", str(out))
    assert code == 0 and record == {"status": "true", "detail": "8 cells"}
    code, _ = run(capsys, "member", str(out), "[a+][a-][b+][b-]")
    assert code == 0
    code, _ = run(capsys, "member", str(out), "[a+ b+][a- b-]")
    assert code == 1


def test_answers_holding_labels_the_notation_cannot_spell_are_refused(
        capsys, tmp_path):
    def one_edge(label):
        path = tmp_path / f"edge{len(label)}.hda"
        dump_hda(HDA([Cell("u", (), (), ()), Cell("w", (), (), ()),
                      Cell("e", (label,), ("u",), ("w",))], ["u"], ["w"]),
                 str(path))
        return str(path)

    spaced, blank = one_edge("x y"), one_edge("")
    for argv, label in ((["empty", spaced], "'x y'"),
                        (["equiv", spaced, blank], "'x y'"),
                        (["include", blank, spaced], "''"),
                        (["empty", blank], "''"),
                        (["st-export", spaced, "-o", str(tmp_path / "o")],
                         "'x y'")):
        code, record = run(capsys, *argv)
        assert code == 2 and record == {"status": "error", "detail": (
            f"UnspelledLabel: label {label} cannot be written in bracket "
            "notation")}, argv
    assert not (tmp_path / "o").exists()
    # answers without a witness hold no label
    assert run(capsys, "include", spaced, spaced) == (0, {"status": "true"})
    assert run(capsys, "deterministic", blank) == (0, {"status": "true"})


def test_st_export_writes_the_table(capsys, tmp_path):
    out = tmp_path / "square.st"
    code, record = run(capsys, "st-export", f"{DATA}/filled_square.hda",
                       "-o", str(out))
    assert code == 0
    assert record == {"status": "true", "detail": "9 states, 14 transitions"}
    lines = out.read_text().splitlines()
    assert lines[0] == "stautomaton k=2"
    assert lines[1] == "alphabet a b"
    assert sum(1 for l in lines if l.startswith("state ")) == 9
    assert sum(1 for l in lines if l.startswith("trans ")) == 14


def test_oneletter_build_writes_the_lasso(capsys, tmp_path):
    out = tmp_path / "lasso.hda"
    code, record = run(capsys, "oneletter", "build", "r=1 s=1 f=1,1 tau={};{0}",
                       "-o", str(out))
    assert code == 0 and record["status"] == "true"
    code, _ = run(capsys, "member", str(out), "[a+][a-]")
    assert code == 0
    code, _ = run(capsys, "member", str(out), "[]")
    assert code == 1
    # analyze gives the description back
    code, record = run(capsys, "oneletter", "analyze", str(out))
    assert code == 0 and record["up"] == "r=1 s=1 f=1,1 tau={};{0}"


def test_pump_emits_the_pumped_family(capsys, tmp_path):
    path = tmp_path / "a_loop.hda"
    dump_hda(a_loop(), str(path))
    code, record = run(capsys, "pump", str(path), "[a+][a-][a+][a-][a+][a-]",
                       "-r", "3")
    assert code == 0 and record["status"] == "true"
    assert (record["i"], record["j"]) == ("0", "2")
    members = record["members"].split("|")
    assert members[0] == "[a+][a-][a+][a-][a+][a-]"
    assert len(members) == 3 and len(members[2]) == len("[a+][a-]") * 5


def test_pump_needs_enough_segments(capsys, tmp_path):
    path = tmp_path / "a_loop.hda"
    dump_hda(a_loop(), str(path))
    code, record = run(capsys, "pump", str(path), "[a+][a-]")
    assert code == 1 and record["status"] == "false"
    assert "segments" in record["detail"]


# -- json mode --------------------------------------------------------------------

def test_json_records_parse(capsys):
    code = main(["--format", "json", "deterministic",
                 f"{DATA}/branching_square.hda"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    assert record == {"status": "false",
                      "witness": "[a+][a-][b+][b-]|[a+ b+][a- b-]"}


def test_json_error_records_parse(capsys):
    code = main(["--format", "json", "member", f"{DATA}/filled_square.hda",
                 "[a+ oops"])
    record = json.loads(capsys.readouterr().out)
    assert code == 2 and record["status"] == "error"


def test_data_files_round_trip(tmp_path):
    for name in ("filled_square", "branching_square", "one_letter_chain",
                 "parallel_ab"):
        x = load_hda(f"{DATA}/{name}.hda")
        out = tmp_path / f"{name}.hda"
        dump_hda(x, str(out))
        y = load_hda(str(out))
        assert sorted(x.cells) == sorted(y.cells)
        assert x.start == y.start and x.accept == y.accept


# -- counts on the command line -----------------------------------------------

@pytest.mark.parametrize("argv", [
    ["skeleton", "-k", "-1", "-o", "{out}"],
    ["complement-member", "[a+][a-]", "-k", "-1"],
    ["complement-empty", "-k", "-1"],
    ["pump", "[a+][a-]", "-r", "-1"],
    ["pump", "[a+][a-]", "-m", "-1"],
])
def test_negative_counts_are_bad_input(capsys, tmp_path, argv):
    out = tmp_path / "out.hda"
    argv = [a.format(out=out) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [f"{DATA}/filled_square.hda"] + argv[1:])
    assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_zero_width_is_valid(capsys, tmp_path):
    out = tmp_path / "points.hda"
    code, record = run(capsys, "skeleton", f"{DATA}/filled_square.hda",
                       "-k", "0", "-o", str(out))
    assert code == 0 and record["detail"] == "4 cells"
    code, record = run(capsys, "complement-empty",
                       f"{DATA}/filled_square.hda", "-k", "0")
    assert code == 1 and record["witness"] == "[]"


# -- bad input against internal failures --------------------------------------------

def test_internal_failures_exit_three(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("an invariant does not hold")

    monkeypatch.setattr("hdalang.decide.member", broken)
    code, record = run(capsys, "member", f"{DATA}/filled_square.hda",
                       "[a+][a-]")
    assert code == 3
    assert record == {"status": "internal",
                      "detail": "ValueError: an invariant does not hold"}


@pytest.mark.parametrize("broken, replacement, detail", [
    ("accepts", accepted_once,
     "RuntimeError: pumping 1 times broke membership"),
    ("_segment_relation", lambda: (lambda hda, q: {}),
     "RuntimeError: no pumpable cut pair found"),
], ids=["accepts", "segment_relation"])
def test_pump_invariant_failures_exit_three(capsys, tmp_path, monkeypatch,
                                            broken, replacement, detail):
    path = tmp_path / "a_loop.hda"
    dump_hda(a_loop(), str(path))
    monkeypatch.setattr(f"hdalang.hda.{broken}", replacement())
    code, record = run(capsys, "pump", str(path), "[a+][a-]" * 3)
    assert code == 3 and record["status"] == "internal"
    assert record["detail"].startswith(detail)


@pytest.mark.parametrize("text", ['{"start": [], "accept": []}', "[1, 2]",
                                  '{"cells": [5], "start": [], "accept": []}'])
def test_automaton_data_of_another_shape_is_bad_input(capsys, tmp_path, text):
    bad = tmp_path / "bad.hda"
    bad.write_text(text)
    code, record = run(capsys, "validate", str(bad))
    assert code == 1 and record["status"] == "false"
    assert record["detail"].startswith("Malformed: malformed automaton data")
    code, record = run(capsys, "member", str(bad), "[a+][a-]")
    assert code == 2 and record["status"] == "error"
    assert "Malformed" in record["detail"]


@pytest.mark.parametrize("raw", [b"{not json", b'{"cells": "\xff"}'])
def test_undecodable_files_are_bad_input(capsys, tmp_path, raw):
    bad = tmp_path / "bad.hda"
    bad.write_bytes(raw)
    code, record = run(capsys, "validate", str(bad))
    assert code == 2 and record["status"] == "error"


@pytest.mark.parametrize("argv", [["validate"], ["member", "[a+][a-]"]])
def test_json_nested_too_deeply_is_bad_input(capsys, tmp_path, argv):
    deep = tmp_path / "deep.hda"
    deep.write_text("[" * 50_000)
    code, record = run(capsys, argv[0], str(deep), *argv[1:])
    assert code == 2 and record["status"] == "error"
    assert record["detail"].startswith("nested too deeply")


def test_superscript_digits_are_a_parse_error(capsys, tmp_path):
    code, record = run(capsys, "oneletter", "build", "r=² s=0 f=1 tau={}",
                       "-o", str(tmp_path / "x.hda"))
    assert code == 2 and record["status"] == "error"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    assert run(capsys, "validate", f"{DATA}/filled_square.hda")[0] == 0
    assert run(capsys, "member", f"{DATA}/filled_square.hda", "[a+][a-]")[0] == 1
    assert built == [1]


def run_module(*argv):
    """Run ``python -m hdalang.cli`` on the copy of the library under test."""
    src = os.path.dirname(os.path.dirname(os.path.realpath(hdalang.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "hdalang.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_the_module_runs_as_a_program():
    done = run_module("--format", "json", "validate",
                      f"{DATA}/filled_square.hda")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"detail": "9 cells", "status": "true"}
    done = run_module("--format", "json", "member", f"{DATA}/no_such.hda",
                      "[a+][a-]")
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["status"] == "error"


def test_numbers_of_too_many_digits_are_bad_input(capsys, tmp_path):
    big = tmp_path / "big.hda"
    big.write_text('{"cells": [], "start": [], "accept": [], "n": '
                   + "1" * 5000 + "}")
    for argv in (["validate", str(big)], ["empty", str(big)]):
        code, record = run(capsys, *argv)
        assert code == 2 and record["status"] == "error"
        assert record["detail"].startswith("number with too many digits")
    for up in ("r=" + "9" * 5000 + " s=0 f=1 tau={}",
               "r=0 s=0 f=" + "9" * 5000 + " tau={}",
               "r=0 s=0 f=1 tau={" + "9" * 5000 + "}"):
        code, record = run(capsys, "oneletter", "build", up,
                           "-o", str(tmp_path / "x.hda"))
        assert code == 2 and record["status"] == "error"


# -- fuzzing: malformed files and arguments, every command, one process ---------

# A: the automaton under test, B: a good one, P: an ipomset, U: a
# one-letter description, K: a count, O: an output file
COMMANDS = [
    ["validate", "A"], ["member", "A", "P"], ["include", "A", "B"],
    ["include", "B", "A"], ["equiv", "A", "B"], ["equiv", "B", "A"],
    ["empty", "A"], ["intersect", "A", "B", "-o", "O"],
    ["intersect", "B", "A", "-o", "O"], ["complement-member", "A", "P"],
    ["complement-member", "A", "P", "-k", "K"], ["complement-empty", "A"],
    ["complement-empty", "A", "-k", "K"], ["deterministic", "A"],
    ["deterministic-hda", "A"], ["count-paths", "A", "P"], ["pump", "A", "P"],
    ["pump", "A", "P", "-m", "K", "-r", "K"], ["st-export", "A", "-o", "O"],
    ["skeleton", "A", "-k", "K", "-o", "O"], ["oneletter", "analyze", "A"],
    ["oneletter", "build", "U", "-o", "O"],
]
GOOD = {"A": f"{DATA}/filled_square.hda", "B": f"{DATA}/parallel_ab.hda",
        "P": "[a+][a-]", "U": "r=1 s=1 f=1,1 tau={};{0}", "K": "1"}
with open(GOOD["A"], encoding="utf-8") as _fp:
    SQUARE = json.load(_fp)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
# values that no field of the file format accepts: lists of strings are
# left out, and so are strings where a cell id goes
not_names = json_values.filter(lambda v: not (
    isinstance(v, list) and all(isinstance(x, str) for x in v)))
not_ids = json_values.filter(lambda v: not isinstance(v, str))


@st.composite
def broken_automata(draw):
    """The filled square's data with one part broken."""
    data = json.loads(json.dumps(SQUARE))
    cell = draw(st.sampled_from(data["cells"]))
    fault = draw(st.sampled_from(("drop", "top", "id", "cell", "field",
                                  "dangling")))
    if fault == "drop":
        del data[draw(st.sampled_from(("cells", "start", "accept")))]
    elif fault == "top":
        data[draw(st.sampled_from(("cells", "start", "accept", "alphabet")))] = \
            draw(not_names)
    elif fault == "id":
        cell["id"] = draw(not_ids)
    elif fault == "cell":
        del cell[draw(st.sampled_from(("id", "events", "d0", "d1")))]
    elif fault == "field":
        cell[draw(st.sampled_from(("events", "d0", "d1")))] = draw(not_names)
    else:
        cell["d0"] = cell["d0"][:-1] + ["gone"] if cell["d0"] else ["gone"]
    return json.dumps(data).encode()


malformed_files = st.one_of(
    broken_automata(),
    st.binary(max_size=20).map(lambda raw: b"\xff" + raw),
    st.text(max_size=20).map(lambda text: ("{" + text).encode()),
    st.builds(lambda v: json.dumps(v).encode(), json_values))
# an unclosed bracket never parses, and neither does a token without "="
malformed = {"P": st.text(max_size=12).map(lambda text: text + "["),
             "U": st.text(max_size=16).map(lambda text: text + " ?"),
             "K": st.integers(max_value=-1).map(str)
             | st.text(string.ascii_letters + ".,", min_size=1, max_size=4)}


def run_main(argv):
    """Run main in this process: exit code (SystemExit's for usage
    errors and help requests), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def call(argv):
    """Run main in this process: exit code, the record and stderr."""
    code, out, err = run_main(argv)
    record = dict(line.partition("=")[::2] for line in out.splitlines())
    return code, record, err


def is_json(raw):
    try:
        json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError is one
        return False
    return True


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.sampled_from([c for c in COMMANDS if "A" in c]), malformed_files)
@settings(max_examples=300, deadline=None)
def test_every_command_reports_a_malformed_file_as_bad_input(fuzz_dir, argv, raw):
    path = fuzz_dir / "bad.hda"
    path.write_bytes(raw)
    values = dict(GOOD, A=str(path), O=str(fuzz_dir / "out"))
    code, record, err = call([values.get(a, a) for a in argv])
    assert "Traceback" not in err
    if argv[0] == "validate" and is_json(raw):
        assert (code, record["status"]) == (1, "false")
    else:
        assert (code, record["status"]) == (2, "error"), record


# the options of each command that takes an ipomset or a description,
# besides -h and --help
OPTIONS = {"member": (), "count-paths": (), "complement-member": ("-k", "--width"),
           "pump": ("-m", "--cut", "-r", "--repeat"),
           "build": ("-l", "--letter", "-o", "--output")}


def read_as_option(value, options):
    """argparse's rule: a value that begins with "-" is read as an option,
    except "-" alone and a value that holds a space.  Even with a space
    it is an option when it begins with a short option, which takes the
    rest as its argument, or when it abbreviates a long option before
    an "=" (several long ones make it ambiguous, an error as well)."""
    if not value.startswith("-") or value == "-":
        return False
    if " " not in value:
        return True
    options = ("-h", "--help") + options
    if value.startswith("--"):
        head, eq, _ = value.partition("=")
        return bool(eq) and any(o.startswith(head) for o in options)
    return value[:2] in options


def asks_for_help(value, options):
    """argparse reads combined short flags one by one and runs -h before
    the rest: a value of -h (repeated) alone, or followed by a short
    option that takes an argument and then that argument, prints the
    help and exits 0.  Any other letter after -h is an error, exit 2."""
    if not value.startswith("-h"):
        return False
    rest = value[1:].lstrip("h")
    return not rest or ("-" + rest[0] in options and len(rest) > 1)


@given(st.sampled_from([(c, k) for c in COMMANDS for k in "PUK" if k in c])
       .flatmap(lambda ck: st.tuples(st.just(ck[0]), st.just(ck[1]),
                                     malformed[ck[1]])))
@example(case=(["oneletter", "build", "U", "-o", "O"], "U", "- ?"))
@example(case=(["member", "A", "P"], "P", "-a b["))
@example(case=(["pump", "A", "P", "-m", "K", "-r", "K"], "P", "-m 1["))
@example(case=(["oneletter", "build", "U", "-o", "O"], "U", "-hl ?"))
@example(case=(["complement-member", "A", "P"], "P", "-hk1["))
@settings(max_examples=300, deadline=None)
def test_every_command_reports_a_malformed_argument_as_bad_input(fuzz_dir, case):
    argv, slot, bad = case
    values = dict(GOOD, O=str(fuzz_dir / "out"), **{slot: bad})
    command = argv[1] if argv[0] == "oneletter" else argv[0]
    if slot != "K" and asks_for_help(bad, OPTIONS[command]):
        # a help request, not bad input: argparse prints the command's
        # help and exits before any command runs
        code, out, err = run_main([values.get(a, a) for a in argv])
        assert "Traceback" not in err and code == 0
        assert out.startswith("usage:")
        assert out == run_main(argv[:argv.index(command) + 1] + ["-h"])[1]
        return
    code, record, err = call([values.get(a, a) for a in argv])
    assert "Traceback" not in err and code == 2
    if slot == "K" or read_as_option(bad, OPTIONS[command]):
        # argparse rejects a bad count, or reads an option, before any
        # command runs
        assert record == {} and "usage:" in err
    else:
        assert record["status"] == "error", record
