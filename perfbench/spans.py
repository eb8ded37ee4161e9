"""Span tracing around homkit's layers, from outside the library.

``Tracer.install`` wraps every public function of each layer module in
every homkit module namespace that binds it (modules import each other's
functions by name), plus ``Instance.__init__``.  Generator functions get
one span per ``next()`` step.  Spans (name, start, end, parent) are kept in
compact arrays and written out at the end; self time is a span's duration
minus the time its child spans cover.  ``uninstall`` restores the
originals, so traced and untraced rounds run the same code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
from array import array
from collections import Counter
from time import perf_counter

import homkit

LAYERS = ("oracle", "chase", "core", "program", "duality", "adjoint",
          "automata", "syntax", "cli")


def _modules() -> list:
    return [importlib.import_module(f"homkit.{m.name}")
            for m in pkgutil.iter_modules(homkit.__path__)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.task_counts: dict = {}  # task name -> its counts this round
        self._task: tuple = ()
        self.saved: list = []  # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _begin(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _end(self, idx: int):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def _inside(self, prefix: str) -> bool:
        """Is some still open span in this layer?"""
        return any(self.names[self.span_name[i]].startswith(prefix)
                   for i in self.stack)

    # -- counters taken from arguments and results -------------------------

    def _count(self, name: str, args, kwargs, result):
        c = self.counts
        if name in ("chase.chase_datalog", "chase.chase_existential"):
            I = args[1] if len(args) > 1 else kwargs["I"]
            c["chase.calls"] += 1
            c["chase.rounds"] += result.steps
            c["chase.facts_derived"] += len(result.full.facts) - len(I.facts)
            c["chase.nulls"] += len(result.full.domain) - len(I.domain)
        elif name == "core.find_homomorphism":
            c["core.hom.calls"] += 1
            c["core.hom.hits"] += result is not None
        elif name == "program.classify":
            c["program.classify.calls"] += 1
        elif name == "automata.accepted_cover":
            c["automata.cover_size"] += len(result)
        elif name.startswith("duality.") and hasattr(result, "duals"):
            c["duality.duals"] += len(result.duals)
        elif name.startswith("adjoint.") and hasattr(result, "members") \
                and not self._inside("adjoint."):
            c["adjoint.members"] += len(result.members)
        elif name.startswith("syntax."):
            if name.startswith("syntax.parse_") and args and \
                    isinstance(args[0], str):
                c["syntax.bytes_in"] += len(args[0].encode())
            if isinstance(result, str):
                c["syntax.bytes_out"] += len(result.encode())

    def task(self, name):
        """Task hook: called with a task's name before it runs and with
        None after it; keeps the counts the task added."""
        if name is not None:
            self._task = (name, Counter(self.counts))
        else:
            name, before = self._task
            self.task_counts[name] = self.counts - before

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            yields = {"oracle.enumerate_instances": "oracle.instances",
                      "automata.enumerate_terms": "automata.terms"}.get(name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._begin(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._end(idx)
                    if yields:
                        tracer.counts[yields] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            tracer._count(name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = _modules()
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"homkit.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}",
                                                          obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self.saved.append((mod, attr, obj))
                    setattr(mod, attr, originals[id(obj)][1])
        Instance = homkit.core.Instance
        init = Instance.__init__
        init_id = self._id("core.Instance")
        tracer = self

        @functools.wraps(init)
        def instance_init(inst, *args, **kwargs):
            idx = tracer._begin(init_id)
            try:
                init(inst, *args, **kwargs)
            finally:
                tracer._end(idx)
            tracer.counts["core.instance.calls"] += 1
            tracer.counts["core.instance.facts"] += len(inst.facts)

        self.saved.append((Instance, "__init__", init))
        Instance.__init__ = instance_init

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    # -- results -----------------------------------------------------------

    def mark(self) -> int:
        return len(self.span_start)

    def summary(self, first: int, last: int) -> dict:
        """Self and inclusive seconds per span name over spans
        [first, last), which must be closed."""
        start, end, parent, names = (self.span_start, self.span_end,
                                     self.span_parent, self.span_name)
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = parent[i]
            if p >= first:
                child[p - first] += end[i] - start[i]
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i in range(first, last):
            dur = end[i] - start[i]
            name = self.names[names[i]]
            self_s[name] += dur - child[i - first]
            if parent[i] < first or \
                    self.names[names[parent[i]]] != name:
                total_s[name] += dur
        return {"self": self_s, "total": total_s}

    def write(self, path: str):
        """Spans as a JSON index plus four raw arrays (name id, parent,
        start, end), in that order, in ``<path>.bin``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "arrays": ["name:i32", "parent:i32", "start:f64",
                                  "end:f64"]}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """The per-layer metrics of one traced round."""
    counts = Counter(counts)
    self_s, total_s = summary["self"], summary["total"]

    def layer_self(prefix):
        return sum((v for k, v in self_s.items() if k.startswith(prefix)),
                   0.0)

    chase_total = total_s["chase.chase_datalog"] + \
        total_s["chase.chase_existential"]
    hom_calls = counts["core.hom.calls"]
    return {
        "oracle.instances": counts["oracle.instances"],
        "oracle.self_s": layer_self("oracle."),
        "chase.calls": counts["chase.calls"],
        "chase.self_s": layer_self("chase."),
        "chase.rounds": counts["chase.rounds"],
        "chase.facts_derived": counts["chase.facts_derived"],
        "chase.nulls": counts["chase.nulls"],
        "chase.facts_per_s": (counts["chase.facts_derived"] / chase_total
                              if chase_total else 0.0),
        "core.instance.calls": counts["core.instance.calls"],
        "core.instance.facts": counts["core.instance.facts"],
        "core.instance.self_s": float(self_s["core.Instance"]),
        "core.hom.calls": hom_calls,
        "core.hom.self_s": float(self_s["core.find_homomorphism"]),
        "core.hom.hit_ratio": (counts["core.hom.hits"] / hom_calls
                               if hom_calls else 0.0),
        "core.iso.self_s": float(self_s["core.isomorphic"]),
        "core.core.self_s": float(self_s["core.core_of"]),
        "program.classify.calls": counts["program.classify.calls"],
        "program.classify.self_s": float(self_s["program.classify"]),
        "duality.self_s": layer_self("duality."),
        "duality.duals": counts["duality.duals"],
        "adjoint.self_s": layer_self("adjoint."),
        "adjoint.members": counts["adjoint.members"],
        "automata.terms": counts["automata.terms"],
        "automata.cover_size": counts["automata.cover_size"],
        "automata.self_s": layer_self("automata."),
        "syntax.self_s": layer_self("syntax."),
        "syntax.bytes_in": counts["syntax.bytes_in"],
        "syntax.bytes_out": counts["syntax.bytes_out"],
        "cli.self_s": layer_self("cli."),
    }


PER_LAYER_UNITS = {
    "oracle.instances": "count", "oracle.self_s": "s",
    "chase.calls": "count", "chase.self_s": "s", "chase.rounds": "count",
    "chase.facts_derived": "count", "chase.nulls": "count",
    "chase.facts_per_s": "1/s",
    "core.instance.calls": "count", "core.instance.facts": "count",
    "core.instance.self_s": "s",
    "core.hom.calls": "count", "core.hom.self_s": "s",
    "core.hom.hit_ratio": "ratio", "core.iso.self_s": "s",
    "core.core.self_s": "s",
    "program.classify.calls": "count", "program.classify.self_s": "s",
    "duality.self_s": "s", "duality.duals": "count",
    "adjoint.self_s": "s", "adjoint.members": "count",
    "automata.terms": "count", "automata.cover_size": "count",
    "automata.self_s": "s",
    "syntax.self_s": "s", "syntax.bytes_in": "B", "syntax.bytes_out": "B",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
