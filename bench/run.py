"""Benchmark of hdalang: seeded decision workloads, timed end to end.

    python3 bench/run.py --workload cube_decide --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory and from nowhere else.  One client sends one query at a time
(a closed loop, no threads).  A run repeats whole passes of the workload
while the next one is expected to fit in ``--seconds``.  Each pass merges
the workload's sessions in a random order drawn from the seed, so that
like queries are spread over the whole run rather than bunched in a few
seconds of it.  Each query is timed from plain input to a verdict, then
checked against its known answer outside the timed region.

A shared host can run one of its CPUs half again slower than another for
seconds to minutes at a time, while another tenant keeps the sibling
thread busy.  So before set-up and then at least every second between
queries the run moves itself to the CPU that runs a fixed loop of Python
fastest at that moment, and each query counts with its shortest time
over the passes.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the first half of the time runs
untraced passes, the second half runs passes with a span around every
call into the package's layers (see spans.py), and the JSON holds the
per-layer metrics instead; the span table is written to
``.bench-out/`` in the checkout.
"""
import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import families  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
HASH_SEED = "0"
# a single pass longer than this stops early, so a run ends well within
# three minutes even on a much slower version of the library
DEADLINE_S = 150.0

END_TO_END = (
    ("queries_per_s", "1/s"), ("verdict_p50_ms", "ms"), ("verdict_p90_ms", "ms"),
    ("ok_frac", "fraction"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


class Results:
    """Timed samples and failures of the passes of one run."""

    def __init__(self):
        self.samples = []       # (query, seconds)
        self.failures = []      # (query name, problem)
        self.pass_seconds = []  # timed seconds of each pass

    @property
    def attempted(self):
        return len(self.samples)


def import_library():
    """Import hdalang afresh from this checkout's src directory."""
    for name in [n for n in sys.modules if n == "hdalang" or n.startswith("hdalang.")]:
        del sys.modules[name]
    package = importlib.import_module("hdalang")
    importlib.import_module("hdalang.cli")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "hdalang"):
        raise ImportError(f"hdalang was imported from {package.__file__}, not {SRC}")
    return package


def calibration_loop():
    """Seconds for a fixed loop of dict, list and str work."""
    t0 = time.perf_counter()
    table = {}
    for i in range(20000):
        table[i % 997] = [i, str(i)]
    return time.perf_counter() - t0


class Placement:
    """Keeps the process on the CPU that runs ``calibration_loop``
    fastest, checked again once ``EVERY_S`` seconds have passed."""

    MAX_CPUS = 8
    EVERY_S = 1.0

    def __init__(self):
        usable = hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity")
        self.cpus = sorted(os.sched_getaffinity(0))[:self.MAX_CPUS] if usable else []
        self.checked = float("-inf")

    def refresh(self):
        if len(self.cpus) < 2 or time.perf_counter() - self.checked < self.EVERY_S:
            return
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t = min(calibration_loop() for _ in range(3))
            if best is None or t < best[0]:
                best = (t, cpu)
        os.sched_setaffinity(0, {best[1]})
        self.checked = time.perf_counter()


def run_pass(queries, results, recorder, deadline, placement=None):
    """Run and check the queries in order; False if the deadline cut it."""
    state = {}
    timed = 0.0
    for query in queries:
        if time.perf_counter() > deadline:
            results.pass_seconds.append(timed)
            return False
        if placement:
            placement.refresh()
        if recorder:
            recorder.active = True
        t0 = time.perf_counter()
        try:
            verdict = query.run(state)
            problem = None
        except Exception as exc:  # a raising query is a failed query
            problem = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if recorder:
            recorder.active = False
        if problem is None:
            try:
                problem = query.check(verdict, state)
            except Exception as exc:  # so is one whose verdict cannot be checked
                problem = f"check raised {type(exc).__name__}: {exc}"
        timed += elapsed
        results.samples.append((query, elapsed))
        if problem:
            results.failures.append((query.name, problem))
    results.pass_seconds.append(timed)
    return True


def interleave(sessions, rng):
    """A uniformly random merge of the sessions, each kept in order."""
    pending = [list(reversed(s)) for s in sessions if s]
    merged = []
    while pending:
        pick = rng.randrange(sum(len(s) for s in pending))
        for s in pending:
            if pick < len(s):
                merged.append(s.pop())
                break
            pick -= len(s)
        pending = [s for s in pending if s]
    return merged


def run_passes(sessions, seconds, results, recorder, deadline, rng, placement):
    """Whole passes while the next one is expected to end within
    ``seconds``; at least one."""
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not run_pass(interleave(sessions, rng), results, recorder, deadline,
                        placement):
            return
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            return


def typical_seconds(results):
    """Each query's shortest time over the passes of the run: the host's
    bursts of contention only ever add time, so the fastest pass is the
    one least disturbed by them."""
    by_query = {}
    for query, t in results.samples:
        by_query.setdefault(query, []).append(t)
    return {q: min(ts) for q, ts in by_query.items()}


def end_to_end_metrics(results, setup_s):
    times = list(typical_seconds(results).values())
    n = results.attempted
    return {
        "queries_per_s": len(times) / sum(times),
        "verdict_p50_ms": 1000 * statistics.median(times),
        "verdict_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
        "ok_frac": (n - len(results.failures)) / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def scale_p50(results):
    by_point = {}
    for query, t in typical_seconds(results).items():
        by_point.setdefault(query.point, []).append(t)
    return {p: 1000 * statistics.median(ts) for p, ts in by_point.items()
            if p in spans.SCALE_POINTS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hdalang", "__init__.py")):
        print(f"no hdalang package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    placement = Placement()
    setup = []
    for _ in range(SETUP_REPEATS):
        placement.refresh()
        t0 = time.perf_counter()
        package = import_library()
        data = families.generate(args.workload, args.seed)
        setup.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup)

    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    deadline = time.perf_counter() + DEADLINE_S
    untraced = Results()
    try:
        sessions = workloads.WORKLOADS[args.workload](package, data, workdir)
        rng = random.Random(f"order:{args.workload}:{args.seed}")
        if not args.trace:
            run_passes(sessions, args.seconds, untraced, None, deadline, rng,
                       placement)
            metrics = end_to_end_metrics(untraced, setup_s)
            units = dict(END_TO_END)
            runs = [untraced]
        else:
            run_passes(sessions, args.seconds / 2, untraced, None, deadline, rng,
                       placement)
            recorder = spans.Recorder()
            spans.install(recorder, package)
            traced = Results()
            run_passes(sessions, args.seconds / 2, traced, recorder, deadline, rng,
                       placement)
            plain, wrapped = typical_seconds(untraced), typical_seconds(traced)
            both_runs = plain.keys() & wrapped.keys()
            overhead = (sum(wrapped[q] for q in both_runs)
                        / sum(plain[q] for q in both_runs) - 1)
            metrics = spans.per_layer_metrics(recorder, len(traced.pass_seconds),
                                              scale_p50(untraced), overhead)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            runs = [untraced, traced]
            out = os.path.join(ROOT, ".bench-out")
            os.makedirs(out, exist_ok=True)
            recorder.dump(os.path.join(
                out, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for name, problem in failures[:20]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {attempted} queries in "
          f"{sum(len(r.pass_seconds) for r in runs)} passes, {len(failures)} failed")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # string hashing decides set order, and with it the order in which the
    # library searches; fixed, a run repeats the same searches
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
