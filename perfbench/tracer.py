"""Per-layer tracing of one khr CLI process, from outside the program.

As a script, this runs one khr command with spans and counts recorded
around the public functions of each khr module:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_FILE -- compute 9 7

The wrappers are installed before the CLI entry point runs.  Each wrapped
function is replaced at every place it is looked up: the module that defines
it, every module that imported it by name, and every class attribute that
holds it (so `__rmul__` is wrapped along with `__mul__`).  Spans live in
memory as parallel arrays (name, parent, start, end) and are written to
TRACE_FILE when the command ends, with the counters.

As a module, `summarize` turns trace files into the per-layer metrics.
A `_s` metric is self time: the span's duration minus the time its wrapped
child spans cover.  The verify suite times are inclusive.  Time spent in a
function that is not wrapped counts towards its nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

MODULES = ("laurent", "dyck", "formula", "sweep", "verify", "cli")

# span name -> metric its self time counts towards; None marks the
# serializers, which count as rendering unless a cache load or store called them
SELF_TIME = {
    "laurent.LaurentPoly.__mul__": "laurent.mul_s",
    "laurent.LaurentPoly.__add__": "laurent.add_s",
    "laurent.Invariant.__post_init__": "laurent.normalize_s",
    "laurent.divide_exact_by_one_minus_t": "laurent.normalize_s",
    "laurent.Invariant.__add__": "laurent.invariant_add_s",
    "laurent.poly_from_json": "laurent.json_s",
    "laurent.invariant_from_json": "laurent.json_s",
    "laurent.poly_to_json": None,
    "laurent.invariant_to_json": None,
    "laurent.Invariant.text": "cli.render_s",
    "laurent.Invariant.latex": "cli.render_s",
    "dyck.enumerate_paths": "dyck.enumerate_s",
    "dyck.area": "dyck.stats_s",
    "dyck.hplus": "dyck.stats_s",
    "dyck.k_of": "dyck.stats_s",
    "dyck.vstar": "dyck.stats_s",
    "dyck.corners": "dyck.stats_s",
    "dyck.interior_points": "dyck.stats_s",
    "formula.path_summand": "formula.summand_s",
    "formula.hhh_path_term": "formula.summand_s",
    "formula.hhh_direct": "formula.sum_s",
    "formula.superpolynomial": "formula.sum_s",
    "sweep.evaluate": "sweep.traverse_s",
    "sweep.classify": "sweep.classify_s",
    "sweep.apply_rule": "sweep.apply_rule_s",
    "sweep.reconstruct_path": "sweep.reconstruct_s",
    "cli.cache_load": "cli.cache_load_s",
    "cli.cache_store": "cli.cache_store_s",
}

INCLUSIVE_TIME = {
    "verify.identity_suite": "verify.identities_s",
    "verify.cross_check": "verify.cross_s",
    "verify.catalan_check": "verify.catalan_s",
    "verify.symmetry_checks": "verify.symmetry_s",
    "verify.leaf_ratio_report": "verify.ratios_s",
}

CALL_COUNTS = {
    "laurent.mul_calls": ("laurent.LaurentPoly.__mul__",),
    "laurent.add_calls": ("laurent.LaurentPoly.__add__",),
    "laurent.normalize_calls": ("laurent.Invariant.__post_init__",),
    "laurent.divide_attempts": ("laurent.divide_exact_by_one_minus_t",),
    "laurent.invariant_add_calls": ("laurent.Invariant.__add__",),
    "dyck.stat_calls": tuple(f"dyck.{f}" for f in ("area", "hplus", "k_of", "vstar", "corners", "interior_points")),
    "formula.summands": ("formula.path_summand", "formula.hhh_path_term"),
    "sweep.evaluations": ("sweep.evaluate",),
    "sweep.classify_calls": ("sweep.classify",),
    "sweep.rule_firings": ("sweep.apply_rule",),
}

# counts the wrappers add up from arguments and results
COUNTERS = (
    "laurent.mul_term_pairs",
    "laurent.add_terms_copied",
    "laurent.divide_ok",
    "dyck.paths",
    "sweep.leaves",
    "cli.cache_hits",
    "cli.cache_misses",
)

CACHE_SPANS = ("cli.cache_load", "cli.cache_store")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn, count=None):
        ix = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: Path) -> None:
        header = {"names": self.names, "counters": self.counters, "spans": len(self.span_name)}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(out)


def install(tracer: Tracer) -> None:
    """Wrap every function in SELF_TIME and INCLUSIVE_TIME wherever khr looks it up."""
    modules = {name: importlib.import_module(f"khr.{name}") for name in MODULES}
    laurent = modules["laurent"]
    counters = tracer.counters

    def add(key, amount):
        counters[key] += amount

    def count_mul(args, result):
        a, b = args
        add("laurent.mul_term_pairs", len(a) * (len(b) if isinstance(b, laurent.LaurentPoly) else int(b != 0)))

    enumerate_lru = modules["dyck"].enumerate_paths
    enumerate_misses = [0]

    def count_enumerate(args, result):
        misses = enumerate_lru.cache_info().misses
        if misses > enumerate_misses[0]:
            add("dyck.paths", len(result))
        enumerate_misses[0] = misses

    hooks = {
        "laurent.LaurentPoly.__mul__": count_mul,
        "laurent.LaurentPoly.__add__": lambda args, result: add("laurent.add_terms_copied", len(args[0])),
        "laurent.divide_exact_by_one_minus_t": lambda args, result: add("laurent.divide_ok", 1),
        "dyck.enumerate_paths": count_enumerate,
        "sweep.evaluate": lambda args, result: add("sweep.leaves", len(result.leaves)),
        "cli.cache_load": lambda args, result: add("cli.cache_hits" if result is not None else "cli.cache_misses", 1),
    }

    namespaces = [vars(sys.modules["khr"])] + [vars(m) for m in modules.values()]
    classes = [v for ns in namespaces for v in ns.values() if isinstance(v, type) and v.__module__.startswith("khr.")]
    originals = []
    for span in (*SELF_TIME, *INCLUSIVE_TIME):
        module_name, *attrs = span.split(".")
        owner = modules[module_name]
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        original = getattr(owner, attrs[-1])
        originals.append(original)
        wrapper = tracer.wrap(span, original, hooks.get(span))
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapper
    for space in namespaces + [vars(c) for c in classes]:
        for key, value in space.items():
            if any(value is o for o in originals):
                raise RuntimeError(f"{key} still refers to an unwrapped function")


def main(argv: list[str]) -> None:
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: tracer.py TRACE_FILE -- KHR_ARGS...")
    out = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["khr.cli"]
    sys.argv = ["khr", *argv[2:]]
    try:
        cli.main()
    finally:
        tracer.dump(out)


# -- reading traces ------------------------------------------------------------


def load(path: Path) -> tuple[list[str], dict, list[array]]:
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(src, n)
            arrays.append(arr)
    return header["names"], header["counters"], arrays


def summarize(paths: list[Path]) -> dict[str, float]:
    """Span times (s) and counts over several trace files, keyed by metric."""
    out: dict[str, float] = {}
    for metric in (*SELF_TIME.values(), "laurent.json_s", "cli.render_s", *INCLUSIVE_TIME.values()):
        if metric is not None:
            out[metric] = 0.0
    for metric in (*CALL_COUNTS, *COUNTERS):
        out[metric] = 0
    for path in paths:
        names, counters, (name_ix, parents, starts, ends) = load(path)
        n = len(name_ix)
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0] * n
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        cache_ix = {names.index(s) for s in CACHE_SPANS if s in names}
        calls: dict[str, int] = {}
        for i in range(n):
            name = names[name_ix[i]]
            calls[name] = calls.get(name, 0) + 1
            if name in INCLUSIVE_TIME:
                out[INCLUSIVE_TIME[name]] += dur[i] / 1e9
                continue
            metric = SELF_TIME[name]
            if metric is None:
                metric = "cli.render_s"
                p = parents[i]
                while p >= 0:
                    if name_ix[p] in cache_ix:
                        metric = "laurent.json_s"
                        break
                    p = parents[p]
            out[metric] += (dur[i] - child[i]) / 1e9
        for metric, spans in CALL_COUNTS.items():
            out[metric] += sum(calls.get(s, 0) for s in spans)
        for key, value in counters.items():
            out[key] += value
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
