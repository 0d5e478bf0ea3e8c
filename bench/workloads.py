"""The two workloads: one pass is a list of sessions of queries with
known answers.

A query's ``run`` takes the pass's shared state and returns a verdict
made of plain values: booleans, counts and witnesses printed with
``print_ipomset``.  That call is the timed region.  ``check`` runs
afterwards, untimed, and returns None or what is wrong.  Within a session
queries run in order: an automaton loaded by one query is asked about by
the next ones.  The runner merges the sessions of a pass in a seeded
random order.  Every pass starts from plain data again, so per-object
caches start cold at each pass and warm within a session.

Known answers follow from how the families are built (see families.py);
witnesses are also checked through path semantics (``hda.accepts``)
rather than the step-automaton route that produced them.
"""
import contextlib
import io
import json
import os

import families as F


class Query:
    __slots__ = ("point", "name", "run", "check")

    def __init__(self, point, name, run, check):
        self.point = point
        self.name = name
        self.run = run
        self.check = check


def expect(answer):
    def check(verdict, state):
        if verdict != answer:
            return f"expected {answer!r}, got {verdict!r}"
        return None
    return check


def both(*parts):
    def check(verdict, state):
        for part in parts:
            problem = part(verdict, state)
            if problem:
                return problem
        return None
    return check


def witness_path(lib, accepted_by=(), rejected_by=()):
    """The witness in ``verdict[1]`` is accepted (rejected) by the named
    automata of the state, judged by path semantics."""
    def check(verdict, state):
        if verdict[1] is None:
            return "no witness"
        p = lib.text.parse_ipomset(verdict[1])
        for key in accepted_by:
            if not lib.hda.accepts(state[key], p):
                return f"witness {verdict[1]} is not accepted by {key}"
        for key in rejected_by:
            if lib.hda.accepts(state[key], p):
                return f"witness {verdict[1]} is accepted by {key}"
        return None
    return check


def load(lib, key, data):
    def run(state):
        state[key] = lib.hda.hda_from_dict(data)
        return len(state[key].cells)
    return Query(None, f"load {key}", run, expect(len(data["cells"])))


# --------------------------------------------------------------------------
# cube_decide

def cli_queries(lib, workdir):
    """The README's command lines with the records they must print, one
    session each."""
    files = {name: os.path.join(workdir, f"{name}.hda") for name in
             list(F.DATA_FILES) + ["loop"]}
    out = {name: os.path.join(workdir, name) for name in
           ("meet.hda", "square.st", "hollow.hda", "lasso.hda")}
    fs, pab = files["filled_square"], files["parallel_ab"]
    word_ab = "[a+][a-][b+][b-]"
    lines = [
        (["member", fs, "[a+ b+][a- b-]"], 0, {"status": "true"}),
        (["member", fs, "[a+][a-][a+][a-]"], 1, {"status": "false"}),
        (["deterministic", files["branching_square"]], 1,
         {"status": "false", "witness": f"{word_ab}|[a+ b+][a- b-]"}),
        (["include", pab, fs], 0, {"status": "true"}),
        (["equiv", pab, fs], 1, {"status": "false", "witness": "[b]"}),
        (["empty", fs], 1, {"status": "false", "witness": "[b]"}),
        # 16 vertex pairs, 4 a-edge pairs, 4 b-edge pairs, 1 square pair
        (["intersect", fs, pab, "-o", out["meet.hda"]], 0,
         {"status": "true", "detail": "25 cells"}),
        (["complement-member", pab, word_ab], 0,
         {"status": "true", "witness": "[b+ a+][b- a-]"}),
        (["complement-empty", fs, "-k", "2"], 1, {"status": "false", "witness": "[]"}),
        (["count-paths", fs, word_ab], 0, {"status": "true", "count": "1"}),
        (["pump", files["loop"], F.word_text("aaa"), "-m", "0", "-r", "3"], 0,
         {"status": "true", "i": "0", "j": "2",
          "members": "|".join(F.word_text("a" * n) for n in (3, 4, 5))}),
        (["st-export", fs, "-o", out["square.st"]], 0,
         {"status": "true", "detail": "9 states, 14 transitions"}),
        (["skeleton", fs, "-k", "1", "-o", out["hollow.hda"]], 0,
         {"status": "true", "detail": "8 cells"}),
        (["oneletter", "analyze", files["one_letter_chain"]], 0,
         {"status": "true",
          "up": "r=1 s=8 f=1,2,2,1,2,1,1,1,1 tau={};{};{};{};{};{};{};{0};{}"}),
        (["oneletter", "build", "r=1 s=1 f=1,1 tau={};{0}", "-o", out["lasso.hda"]],
         0, {"status": "true", "detail": "4 cells"}),
        (["validate", fs], 0, {"status": "true", "detail": "9 cells"}),
    ]

    def command(argv):
        def run(state):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = lib.cli.main(argv)
            return code, dict(line.partition("=")[::2]
                              for line in buffer.getvalue().splitlines())
        return run

    return [[Query("cli", " ".join(os.path.basename(a) for a in argv[:2]),
                   command(argv), expect((code, record)))]
            for argv, code, record in lines]


def write_data_files(data, workdir):
    for name, content in list(data["files"].items()) + [("loop", data["loop"])]:
        with open(os.path.join(workdir, f"{name}.hda"), "w", encoding="utf-8") as fp:
            json.dump(content, fp)


def cube_decide(lib, data, workdir):
    write_data_files(data, workdir)
    D, T = lib.decide, lib.text
    sessions = []
    for d, x_data, s_data, orderings in data["cubes"]:
        point, x, s = f"d{d}", f"cube {d}", f"skeleton {d}"
        letters = [f"a{i}" for i in range(d)]
        par = F.parallel_text(letters)
        on_x_not_s = witness_path(lib, accepted_by=[x], rejected_by=[s])

        def member(text, x=x):
            return lambda st: D.member(st[x], T.parse_ipomset(text))

        def decided(name, *keys):
            return lambda st: _witnessed(lib, getattr(D, name)(*(st[k] for k in keys)))

        session = [
            load(lib, x, x_data),
            load(lib, s, s_data),
            Query(point, "member parallel", member(par), expect(True)),
            Query(point, "member word", member(F.word_text(letters)), expect(True)),
            Query(point, "member a0 a0", member(F.word_text(["a0", "a0"])), expect(False)),
            # the cube accepts its events in every order
            *[Query(point, "member ordering", member(F.word_text(order)), expect(True))
              for order in orderings],
            # the only accepted ipomsets of fewest letters start and end all at once
            Query(point, "empty", decided("empty", x),
                  both(expect((False, par)), witness_path(lib, accepted_by=[x]))),
        ]
        if d <= F.COMPARE_MAX_D:
            session += [
                Query(point, "include x x", decided("include", x, x), expect((True, None))),
                # the skeleton lacks exactly the top cell: a0 || ... || a{d-1}
                Query(point, "include x skeleton", decided("include", x, s),
                      both(expect((False, par)), on_x_not_s)),
                Query(point, "equivalent skeleton x", decided("equivalent", s, x),
                      both(expect((False, par)), on_x_not_s)),
            ]
        if d <= 4:
            # the start vertex does not accept, so the empty ipomset is missing
            session.append(Query(
                point, "complement_empty x 2",
                lambda st, x=x: _witnessed(lib, D.complement_empty(st[x], 2)),
                both(expect((False, "[]")), witness_path(lib, rejected_by=[x]))))
        sessions.append(session)
    return sessions + cli_queries(lib, workdir)


def _witnessed(lib, answer):
    ok, w = answer
    return ok, None if w is None else lib.text.print_ipomset(w)


# --------------------------------------------------------------------------
# long_words

def long_words(lib, data, workdir):
    D, H, T = lib.decide, lib.hda, lib.text
    sessions = []
    for n, text, odd in data["words"]:
        point, key, loop = f"n{n}", f"word {n}", f"word {n} loop"

        def word(st, text=text, key=key, loop=loop):
            p = st[key] = T.parse_ipomset(text)
            return len(p), D.member(st[loop], p), H.accepts(st[loop], p), T.print_ipomset(p)

        # gluing one letter the loop lacks onto the parsed word
        def glued(st, key=key, loop=loop, odd=odd):
            q = lib.ipomset.glue(st[key], T.parse_ipomset(F.word_text(odd)))
            return D.member(st[loop], q)

        sessions.append([load(lib, loop, data["loop"]),
                         Query(point, "word", word, expect((n, True, True, text))),
                         Query(point, "member glued", glued, expect(False))])

    for n, texts in data["light"]:
        loop = f"light {n} loop"
        sessions.append([load(lib, loop, data["loop"])] + [
            Query(f"n{n}", "member rejected",
                  lambda st, text=text, loop=loop: D.member(st[loop], T.parse_ipomset(text)),
                  expect(False))
            for text in texts])
    for m, text in data["counts"]:
        lanes = f"count {m} lanes"

        def count(st, text=text, lanes=lanes):
            p = T.parse_ipomset(text)
            return len(p), H.count_sparse_accepting_paths(st[lanes], p)

        sessions.append([load(lib, lanes, data["lanes"]),
                         Query(f"m{m}", "count paths", count, expect((4 * m, 2 ** m)))])

    def pump(st):
        p = T.parse_ipomset(data["pump"])
        qs = [s.as_ipomset() for s in lib.ipomset.dense_decomposition(p).steps]
        result = H.pump(st["pump loop"], qs, 0, 3)
        return result.i, result.j, tuple(T.print_ipomset(q) for q in result.members)

    # aaa has 6 dense segments; the loop returns to its one vertex after two
    sessions.append([load(lib, "pump loop", data["loop"]), Query(
        "pump", "pump", pump, expect((0, 2, tuple(F.word_text("a" * n) for n in (3, 4, 5)))))])
    return sessions


WORKLOADS = {"cube_decide": cube_decide, "long_words": long_words}
