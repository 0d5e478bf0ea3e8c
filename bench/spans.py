"""Spans around the calls into each layer, recorded from outside.

``install`` wraps the public functions and constructors named in
``TRACED``; helpers left out of it (``face``, ``accepts_word``, the
tokenizer behind ``parse_ipomset``) count as self time of their caller.
A wrapped function is rebound under every name any ``hdalang`` module
holds it by, so calls between layers are caught too; a constructor is
wrapped as the class's ``__init__``.  Spans (name, parent, start, end)
are kept in flat arrays and written out at the end.  Self time is a
span's duration minus the durations of its direct children.
"""
import array
import functools
import gzip
import sys
import time

LAYERS = ("ipomset", "text", "hda", "stauto", "decide", "oneletter", "cli")

TRACED = {
    "ipomset": ("Ipomset", "glue", "compose", "parallel", "sparse_decomposition",
                "dense_decomposition", "subsumes", "supersumptions"),
    "text": ("parse_ipomset", "print_ipomset"),
    "hda": ("HDA", "hda_from_dict", "load_hda", "dump_hda", "skeleton", "accepts",
            "count_sparse_accepting_paths", "pump", "product", "is_deterministic_hda"),
    "stauto": ("STAutomaton", "st_of_hda", "member", "emptiness", "inclusion",
               "complement_words", "export_st"),
    "decide": ("member", "include", "equivalent", "empty", "intersect",
               "complement_member", "complement_empty", "pre_set", "prefix_quotient",
               "is_deterministic_language"),
    "oneletter": ("parse_up", "print_up", "build", "analyze"),
    "cli": ("main",),
}

# sizes of results, summed per span name into "<span>.<counter>"
SIZES = {
    "stauto.st_of_hda": ("transitions", lambda a: len(a.transitions)),
    "stauto.complement_words": ("states", lambda a: len(a.states)),
    "ipomset.supersumptions": ("kept", len),
    "decide.pre_set": ("prefixes", len),
}

SCALE_POINTS = ("d2", "d3", "d4", "d5", "d6", "d7", "n25", "n50", "n100",
                "m4", "m8", "m16", "m32")

# (metric, unit, better): the per-layer metrics a traced run prints
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(name, "count" if name.endswith(".calls") else "s", "lower") for name in (
        "stauto.st_of_hda.calls", "stauto.st_of_hda.self_s",
        "stauto.STAutomaton.self_s", "stauto.member.self_s",
        "stauto.emptiness.self_s", "stauto.inclusion.self_s",
        "stauto.complement_words.self_s",
        "hda.HDA.calls", "hda.HDA.self_s", "hda.hda_from_dict.self_s",
        "hda.skeleton.self_s", "hda.count_sparse_accepting_paths.self_s",
        "hda.pump.self_s",
        "ipomset.glue.calls", "ipomset.glue.self_s", "ipomset.compose.self_s",
        "ipomset.sparse_decomposition.calls", "ipomset.sparse_decomposition.self_s",
        "ipomset.Ipomset.calls", "ipomset.Ipomset.self_s",
        "ipomset.supersumptions.self_s", "ipomset.subsumes.calls",
        "ipomset.subsumes.self_s",
        "text.parse_ipomset.self_s", "text.print_ipomset.self_s",
        "decide.pre_set.self_s", "decide.equivalent.calls",
        "oneletter.build.self_s", "oneletter.analyze.self_s", "cli.main.self_s")]
    + [("stauto.st_of_hda.transitions", "count", "lower"),
       ("stauto.complement_words.states", "count", "lower"),
       ("ipomset.supersumptions.kept", "count", "higher"),
       ("ipomset.supersumptions.kept_ratio", "fraction", "higher"),
       ("decide.pre_set.prefixes", "count", "lower")]
    + [(f"scale.{p}.p50_ms", "ms", "lower") for p in SCALE_POINTS]
    + [("trace.overhead_frac", "fraction", "lower")]
)


class Recorder:
    """Spans of the calls made while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.names = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.sizes = {}

    def wrap(self, fn, qualified):
        nid = len(self.names)
        self.names.append(qualified)
        size = SIZES.get(qualified)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if size:
                key = f"{qualified}.{size[0]}"
                self.sizes[key] = self.sizes.get(key, 0) + size[1](result)
            return result
        return wrapper

    def aggregate(self):
        """Per span name: calls and self seconds; and, per span, whether
        it ran inside ``ipomset.supersumptions``."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        sup = self.names.index("ipomset.supersumptions")
        ctor = self.names.index("ipomset.Ipomset")
        inside = [False] * n
        built_inside = 0
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            # a parent's span is opened first, so its index is smaller
            inside[i] = p >= 0 and (inside[p] or self.name[p] == sup)
            if inside[i] and self.name[i] == ctor:
                built_inside += 1
        return calls, self_s, built_inside

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            fp.write("span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fp.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def install(recorder, package):
    """Wrap every name in TRACED, in place, in every loaded hdalang module."""
    modules = [m for name, m in sys.modules.items()
               if (name == package.__name__ or name.startswith(package.__name__ + "."))]
    for layer, names in TRACED.items():
        module = getattr(package, layer)
        for attr in names:
            target = getattr(module, attr)
            qualified = f"{layer}.{attr}"
            if isinstance(target, type):
                target.__init__ = recorder.wrap(target.__init__, qualified)
                continue
            wrapper = recorder.wrap(target, qualified)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, key, wrapper)


def per_layer_metrics(recorder, passes, scale, overhead):
    """The PER_LAYER values, per traced pass."""
    calls, self_s, built_inside = recorder.aggregate()
    values = {f"{layer}.self_s": sum(t for name, t in self_s.items()
                                     if name.startswith(layer + "."))
              for layer in LAYERS}
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    for span, (counter, _) in SIZES.items():
        values[f"{span}.{counter}"] = recorder.sizes.get(f"{span}.{counter}", 0)
    kept = values["ipomset.supersumptions.kept"]
    out = {name: values[name] / passes for name, _, _ in PER_LAYER if name in values}
    out["ipomset.supersumptions.kept_ratio"] = kept / built_inside if built_inside else 0.0
    for point in SCALE_POINTS:
        out[f"scale.{point}.p50_ms"] = scale.get(point, 0.0)
    out["trace.overhead_frac"] = overhead
    return out
