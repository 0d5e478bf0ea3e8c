"""End-to-end checks of the command line front end."""
import json
import os

import pytest

from hdalang import dump_hda, load_hda
from hdalang.cli import main

from fixtures import a_loop

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


def test_skeleton_cuts_concurrency(capsys, tmp_path):
    out = tmp_path / "hollow.hda"
    code, record = run(capsys, "skeleton", f"{DATA}/filled_square.hda",
                       "-k", "1", "-o", str(out))
    assert code == 0 and record == {"status": "true", "detail": "8 cells"}
    code, _ = run(capsys, "member", str(out), "[a+][a-][b+][b-]")
    assert code == 0
    code, _ = run(capsys, "member", str(out), "[a+ b+][a- b-]")
    assert code == 1


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
