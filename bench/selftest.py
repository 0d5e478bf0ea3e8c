"""Self-tests of the benchmark; run from the root of a checkout:

    python3 bench/selftest.py

They check that every generator builds a valid automaton, that
the known answers hold at the smallest size of every family, that every
metric the runner prints is declared in BENCHMARK.json, and that a wrong
or raising query is counted as failed.  Exit code 0 means all passed.
"""
import json
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import families as F  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALLEST = {None, "cli", "d2", "n25", "m4", "pump"}


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_generators(lib):
    for seed in (1, 7):
        for workload in workloads.WORKLOADS:
            F.generate(workload, seed)
    for d in F.CUBE_SIZES:
        x = F.cube(d)
        expect(len(lib.hda.hda_from_dict(x).cells) == 3 ** d, f"{d}-cube")
        expect(len(lib.hda.hda_from_dict(F.skeleton_of(x, d - 1)).cells) == 3 ** d - 1,
               f"{d}-cube skeleton")
    for data in (F.parallel_square(), F.a_loop(), F.two_lane_loop(),
                 *F.DATA_FILES.values()):
        lib.hda.hda_from_dict(data)


def check_data_copies():
    for name, data in F.DATA_FILES.items():
        path = os.path.join(ROOT, "data", f"{name}.hda")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fp:
                expect(json.load(fp) == data, f"{name} differs from data/{name}.hda")


def check_smallest_sizes(lib, workdir):
    for workload, build in workloads.WORKLOADS.items():
        queries = [q for session in build(lib, F.generate(workload, 1), workdir)
                   for q in session if q.point in SMALLEST]
        results = run.Results()
        run.run_pass(queries, results, None, float("inf"))
        expect(not results.failures, f"{workload}: {results.failures[:3]}")


def check_failures_are_counted():
    queries = [workloads.Query(None, "right", lambda st: 1, workloads.expect(1)),
               workloads.Query(None, "wrong", lambda st: 2, workloads.expect(1)),
               workloads.Query(None, "raises", lambda st: 1 // 0, workloads.expect(1))]
    results = run.Results()
    run.run_pass(queries, results, None, float("inf"))
    expect([name for name, _ in results.failures] == ["wrong", "raises"],
           f"failures {results.failures}")
    metrics = run.end_to_end_metrics(results, 0.5)
    expect(abs(metrics["ok_frac"] - 1 / 3) < 1e-12, "ok_frac counts failures")


def check_declared_metrics(lib, workdir):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        declared = json.load(fp)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    expect(end_to_end == dict(run.END_TO_END), "end-to-end metrics differ from run.py")
    expect(per_layer == {n: (u, b) for n, u, b in spans.PER_LAYER},
           "per-layer metrics differ from spans.py")
    expect(all(NAME.fullmatch(n) for n in list(end_to_end) + list(per_layer)),
           "metric names")
    expect({w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS),
           "workloads differ from workloads.py")
    results = run.Results()
    queries = [q for session in workloads.cube_decide(
        lib, F.generate("cube_decide", 1), workdir)
        for q in session if q.point in SMALLEST]
    run.run_pass(queries, results, None, float("inf"))
    printed = run.end_to_end_metrics(results, 0.5)
    expect(set(printed) == set(end_to_end), "printed end-to-end metrics")
    # installing wraps the package in place, so this comes last
    recorder = spans.Recorder()
    spans.install(recorder, lib)
    traced = run.Results()
    run.run_pass(queries, traced, recorder, float("inf"))
    printed = spans.per_layer_metrics(recorder, 1, run.scale_p50(results), 0.0)
    expect(set(printed) == set(per_layer), "printed per-layer metrics")
    expect(printed["decide.pre_set.self_s"] > 0 and printed["hda.HDA.calls"] > 0,
           "traced run records spans")


def main():
    lib = run.import_library()
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    tests = [("generators", lambda: check_generators(lib)),
             ("data copies", check_data_copies),
             ("smallest sizes", lambda: check_smallest_sizes(lib, workdir)),
             ("failures are counted", check_failures_are_counted),
             ("declared metrics", lambda: check_declared_metrics(lib, workdir))]
    failed = 0
    try:
        for name, test in tests:
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
