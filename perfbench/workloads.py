"""The four benchmark workloads.

A workload is built once from its seed (``__init__``: generate plain data
with ``gen``, then turn it into homkit inputs), runs the same round of tasks
as often as the timed phase allows (``run_round``), and checks a round's
results against ``ref`` afterwards (``check``).  Results are turned into
plain data before checking, so traced and untraced rounds can be compared
for equality.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import gen
import ref

# Calls go through the module attributes, so that the traced run's wrappers
# (installed on those attributes) see them.
from homkit import adjoint, automata, chase, cli, core, duality, oracle, \
    program, syntax
from homkit.core import Element, Instance, Schema

HERE = os.path.dirname(os.path.abspath(__file__))


def fixture(name: str) -> str:
    with open(os.path.join(HERE, "fixtures", name)) as fh:
        return fh.read()


class Failure:
    """A task that raised; it counts as failed."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failure) and self.text == other.text


# The traced run sets this to a function that is called with a task's name
# before the task and with None after it, to take per-task counts.
task_hook = None


def attempt(out: list, name: str, fn):
    if task_hook is not None:
        task_hook(name)
    try:
        result = fn()
    except Exception as exc:  # a raising task is a failed task
        out.append((name, Failure(exc)))
        return None
    finally:
        if task_hook is not None:
            task_hook(None)
    out.append((name, result))
    return result


def plain_instance(I) -> tuple:
    """(sorted domain names, sorted facts as (rel, names))."""
    return (tuple(sorted(e.ser for e in I.domain)),
            tuple(sorted((rel, tuple(e.ser for e in args))
                         for rel, args in I.facts)))


def graph_instance(labels, edges, symmetric=False, rel="E") -> Instance:
    elems = {n: Element.named(n) for n in labels}
    facts = {(rel, (elems[a], elems[b])) for a, b in edges}
    if symmetric:
        facts |= {(rel, (elems[b], elems[a])) for a, b in edges}
    return Instance(Schema([(rel, 2)]), elems.values(), facts)


def plain_graph(labels, edges, symmetric=False) -> tuple:
    facts = {("E", (a, b)) for a, b in edges}
    if symmetric:
        facts |= {("E", (b, a)) for a, b in edges}
    return tuple(labels), tuple(sorted(facts))


def instance_text(rel: str, labels, edges) -> str:
    lines = [f"instance over {rel}/2", "domain: " + " ".join(labels)]
    lines += [f"{rel}({a},{b})." for a, b in edges]
    return "\n".join(lines) + "\n"


class Workload:
    name = ""

    def run_round(self) -> list:
        """One round of tasks: a list of (task name, raw result)."""
        raise NotImplementedError

    def plain(self, name: str, result):
        """Raw result -> plain data, compared across rounds."""
        return result

    def check(self, name: str, value) -> tuple[int, list]:
        """(tasks in this result, error strings) for a plain result."""
        raise NotImplementedError

    def check_counts(self, counts: dict) -> list:
        """Error strings for the traced per-task counts ({task name:
        Counter}) of one round, against closed forms."""
        return []


# ---------------------------------------------------------------------------
# oracle-duality
# ---------------------------------------------------------------------------


class OracleDuality(Workload):
    """Criteria 4 and 6 in miniature: duality and adjoint verdicts."""

    name = "oracle-duality"
    BOUND = 3
    PATHS = (1, 2, 3)  # n-edge path programs
    WRONG_PATH = 2
    EDGES = [("E", 2)]  # one binary relation, as every verdict here reads

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.paths = {n: syntax.parse_program(fixture(f"path{n}.dl"))
                      for n in self.PATHS}
        self.tc = syntax.parse_program(fixture("tc.dl"))
        self.incl = program.tgd_compile(
            syntax.parse_tgds(fixture("inclusion.tgd")))
        a, b = Element.named("a"), Element.named("b")
        self.j = Instance(Schema([("R_out", 2)]), [a, b], [("R_out", (a, b))])
        # a wrong dual set for the 2-edge path: its true dual (one edge)
        # plus a seeded 3-element graph with a 2-edge walk, so that only
        # an instance with all BOUND elements refutes it
        self.wrong = [(["t0", "t1"], [("t0", "t1")]),
                      gen.walk_dual_impostor(rng)]
        self.wrong_plain = [plain_graph(*g) for g in self.wrong]
        self.wrong_inst = [graph_instance(*g) for g in self.wrong]

    def run_round(self) -> list:
        out: list = []

        def dual_and_verdict(P):
            d = duality.dual_from_program(P, "Ans")
            return d, oracle.verify_duality(d.generator, d.duals, self.BOUND)

        for n, P in self.paths.items():
            attempt(out, f"path{n}", lambda P=P: dual_and_verdict(P))
        attempt(out, "tc-k2", lambda: dual_and_verdict(self.tc))
        attempt(out, "sl-adjoint", lambda: oracle.verify_adjoint(
            self.incl, self.j, adjoint.sl_adjoint(self.incl, self.j),
            B=self.BOUND))
        attempt(out, "wrong-dual", lambda: oracle.verify_duality(
            (self.paths[self.WRONG_PATH], "Ans"), self.wrong_inst,
            self.BOUND))
        return out

    def plain(self, name, result):
        if isinstance(result, Failure):
            return result
        if isinstance(result, tuple):
            d, v = result
            return (v.passed, v.unknown, v.bound,
                    tuple(plain_instance(x) for x in d.duals))
        cex = None if result.counterexample is None else \
            plain_instance(result.counterexample)
        return result.passed, result.unknown, result.bound, cex

    def check(self, name, value):
        if isinstance(value, Failure):
            return 1, [value.text]
        passed, unknown, bound, extra = value
        if name == "wrong-dual":
            err = ref.check_wrong_dual(passed, unknown, bound, extra,
                                       self.WRONG_PATH, self.wrong_plain,
                                       self.BOUND)
            return 1, [err] if err else []
        if bound != self.BOUND:
            return 1, [f"{name}: checked at bound {bound}, not {self.BOUND}"]
        if not passed or unknown:
            return 1, [f"{name}: verdict did not pass"]
        if name == "path1" and not all(
                dom and not facts for dom, facts in extra):
            # the 1-edge path's duals are exactly the edgeless structures
            return 1, ["path1 duals are not edgeless"]
        return 1, []

    def check_counts(self, counts):
        """A passing verdict must have enumerated every instance up to the
        bound; the wrong dual set, every one below it and one more."""
        below = ref.count_instances(self.EDGES, self.BOUND - 1)
        full = ref.count_instances(self.EDGES, self.BOUND)
        errors = []
        for name, c in counts.items():
            got = c["oracle.instances"]
            ok = below < got <= full if name == "wrong-dual" else got == full
            if not ok:
                errors.append(f"{name}: {got} instances enumerated, "
                              f"expected {full} at bound {self.BOUND}")
        return errors


# ---------------------------------------------------------------------------
# chase-closure
# ---------------------------------------------------------------------------


class ChaseClosure(Workload):
    """``homkit chase --json`` in-process on large inputs."""

    name = "chase-closure"
    DAGS = ((8, 8, 3), (6, 12, 3))  # layers, width, out-degree
    SOURCES, SINKS, BUDGET = 16, 12, 12

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.dags = [gen.layered_dag(rng, *shape) for shape in self.DAGS]
        _, self.sink_edges, self.sinks = gen.sink_graph(
            rng, self.SOURCES, self.SINKS, 3)
        os.makedirs(workdir, exist_ok=True)
        self.files = {}
        texts = {
            "tc.dl": fixture("tc.dl"),
            "inclusion.dl": fixture("inclusion.dl"),
            "sinks.inst": instance_text(
                "R_in", sorted({v for e in self.sink_edges for v in e}),
                self.sink_edges),
        }
        for i, (labels, edges) in enumerate(self.dags):
            texts[f"dag{i}.inst"] = instance_text("E", labels, edges)
        for fname, text in texts.items():
            path = os.path.join(workdir, fname)
            with open(path, "w") as fh:
                fh.write(text)
            self.files[fname] = path

    @staticmethod
    def _cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()

    def run_round(self) -> list:
        out: list = []
        f = self.files
        for i in range(len(self.dags)):
            attempt(out, f"tc-dag{i}", lambda i=i: self._cli(
                ["chase", f["tc.dl"], f[f"dag{i}.inst"], "--json"]))
        attempt(out, "bounded", lambda: self._cli(
            ["chase", f["inclusion.dl"], f["sinks.inst"], "--mode",
             "bounded", "--max-steps", str(self.BUDGET), "--json"]))
        return out

    def check(self, name, value):
        if isinstance(value, Failure):
            return 1, [value.text]
        code, text = value
        try:
            payload = json.loads(text)
        except ValueError:
            return 1, [f"{name}: output is not JSON"]
        if name == "bounded":
            err = ref.check_bounded(code, payload, self.sink_edges,
                                    self.sinks, self.BUDGET)
        else:
            err = ref.check_tc(code, payload,
                               self.dags[int(name[len("tc-dag"):])][1])
        return 1, [f"{name}: {err}"] if err else []


# ---------------------------------------------------------------------------
# hom-search
# ---------------------------------------------------------------------------


class HomSearch(Workload):
    """Backtracking search: colourings, known misses, cores, isomorphism."""

    name = "hom-search"
    HITS, GADGETS, GADGET, DEGREE = 8, 25, 12, 4.5
    MISSES = 300
    CORES = 12
    ISO, ISO_N, ISO_M = 12, 40, 100

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        k3 = ["k0", "k1", "k2"]
        k3_edges = [(k3[a], k3[b]) for a, b in gen.clique(3)]
        self.k3 = graph_instance(k3, k3_edges, True)
        self.k3_plain = plain_graph(k3, k3_edges, True)
        self.hits = []
        for _ in range(self.HITS):
            labels, edges, _ = gen.planted_colouring(
                rng, self.GADGETS, self.GADGET, self.DEGREE)
            self.hits.append((graph_instance(labels, edges, True),
                              plain_graph(labels, edges, True)))
        n, edges = gen.mycielski(4)  # chromatic number 4: no map into K3
        self.misses = [graph_instance(*gen.relabel(rng, "m", n, edges), True)
                       for _ in range(self.MISSES)]
        self.cores = []
        for i in range(self.CORES):
            if i % 2:
                spec = (5, [(j, (j + 1) % 5) for j in range(5)], 3, "cycle")
            else:
                spec = (3, gen.clique(3), 5, "clique")
            n_core, core_edges, extra, kind = spec
            labels, edges = gen.core_with_trees(rng, "c", n_core,
                                                core_edges, extra)
            self.cores.append((graph_instance(labels, edges, True),
                               kind, n_core))
        self.iso = []
        for _ in range(self.ISO):
            labels, edges = gen.random_digraph(rng, "a", self.ISO_N,
                                               self.ISO_M)
            base = graph_instance(labels, edges)
            same = graph_instance(*gen.permuted_copy(rng, "b", labels,
                                                     edges)[:2])
            other = graph_instance(*gen.perturbed_copy(rng, "b", labels,
                                                       edges))
            self.iso.append((base, same, other))

    def run_round(self) -> list:
        out: list = []
        for i, (G, _) in enumerate(self.hits):
            attempt(out, f"hit{i}",
                    lambda G=G: core.find_homomorphism(G, self.k3))
        for i, G in enumerate(self.misses):
            attempt(out, f"miss{i}",
                    lambda G=G: core.find_homomorphism(G, self.k3))
        for i, (G, _, _) in enumerate(self.cores):
            attempt(out, f"core{i}", lambda G=G: core.core_of(G))
        for i, (base, same, other) in enumerate(self.iso):
            attempt(out, f"iso-same{i}",
                    lambda b=base, s=same: core.isomorphic(b, s))
            attempt(out, f"iso-other{i}",
                    lambda b=base, o=other: core.isomorphic(b, o))
        return out

    def plain(self, name, result):
        if isinstance(result, Failure) or result is None or \
                isinstance(result, bool):
            return result
        if isinstance(result, Instance):
            return plain_instance(result)
        return tuple(sorted((a.ser, b.ser)
                            for a, b in result.as_dict().items()))

    def check(self, name, value):
        if isinstance(value, Failure):
            return 1, [value.text]
        err = None
        if name.startswith("hit"):
            src = self.hits[int(name[3:])][1]
            err = ref.check_witness(None if value is None else dict(value),
                                    src, self.k3_plain)
        elif name.startswith("miss"):
            if value is not None:
                err = "a map of the Mycielski graph M4 into K3 was returned"
        elif name.startswith("core"):
            _, kind, k = self.cores[int(name[4:])]
            dom, facts = value
            ok = ref.is_clique(dom, facts, k) if kind == "clique" else \
                ref.is_cycle(dom, facts, k)
            if not ok:
                err = f"core is not the planted {kind} of size {k}"
        elif name.startswith("iso-same"):
            if value is not True:
                err = "a permuted copy was reported non-isomorphic"
        elif value is not False:
            err = "a copy with another degree profile was reported isomorphic"
        return 1, [f"{name}: {err}"] if err else []


# ---------------------------------------------------------------------------
# automata-cover
# ---------------------------------------------------------------------------


class AutomataCover(Workload):
    """Criterion 8 in miniature: covers, compilation, language check."""

    name = "automata-cover"
    FIXTURES = ("empty", "label", "edge")
    DEPTH = {"empty": 3, "label": 2, "edge": 2}
    RELATIONS = [("E", 2), ("X1", 1)]
    LABELS = 1  # X1
    SAMPLE = 200  # instances with 3 elements, out of 4096

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.automata = {k: automata.parse_automaton(fixture(f"{k}.aut"))
                         for k in self.FIXTURES}
        full = Schema(self.RELATIONS)
        # all 69 instances with at most 2 elements, then a seeded sample of
        # the 4096 with 3 elements
        self.instances = []
        for dom, facts in gen.instances_up_to(rng, self.RELATIONS, 2, 3,
                                              self.SAMPLE):
            elems = {n: Element.named(n) for n in dom}
            self.instances.append(Instance(
                full, elems.values(),
                [(rel, tuple(elems[a] for a in args))
                 for rel, args in facts]))

    def run_round(self) -> list:
        out: list = []
        covers = {}
        for k in self.FIXTURES:
            covers[k] = attempt(
                out, f"cover-{k}",
                lambda k=k: automata.accepted_cover(self.automata[k],
                                                    self.DEPTH[k]))
        programs = {}
        for k in self.FIXTURES:
            programs[k] = attempt(out, f"compile-{k}", lambda k=k: (
                lambda P: (P, program.classify(P)))(
                    automata.automaton_to_datalog(self.automata[k])))
        if any(v is None for v in (*covers.values(), *programs.values())):
            return out

        def language():
            rows = []
            for I in self.instances:
                answers = []
                for k in self.FIXTURES:
                    P = programs[k][0]
                    ans = ("Ans", ()) in chase.run_program(
                        P, I.with_schema(P.s_in)).output.facts
                    hit = any(core.find_homomorphism(K, I) is not None
                              for K in covers[k])
                    answers.append((ans, hit))
                rows.append((I, answers))
            return rows

        attempt(out, "language", language)
        return out

    def plain(self, name, result):
        if isinstance(result, Failure):
            return result
        if name.startswith("cover"):
            return tuple(plain_instance(K) for K in result)
        if name.startswith("compile"):
            P, cls = result
            return (len(P.rules), cls.connected, cls.monadic,
                    cls.tree_shaped, cls.boolean_program)
        return tuple((plain_instance(I)[1], tuple(a)) for I, a in result)

    def check(self, name, value):
        if isinstance(value, Failure):
            return 1, [value.text]
        if name.startswith("cover"):
            pred = ref.PREDICATES[name[len("cover-"):]]
            want = 0 if name == "cover-empty" else 1
            if len(value) != want or \
                    not all(pred(facts) for _, facts in value):
                return 1, [f"{name}: cover is not {want} accepted tree(s)"]
            return 1, []
        if name.startswith("compile"):
            if not all(value[1:]):
                return 1, [f"{name}: compiled program is not a connected "
                           "monadic tree-shaped Boolean program"]
            return 1, []
        errors = []
        for facts, answers in value:
            for k, (ans, hit) in zip(self.FIXTURES, answers):
                want = ref.PREDICATES[k](facts)
                if ans != want or hit != want:
                    errors.append(f"language {k}: got program {ans}, cover "
                                  f"{hit}, expected {want} on {facts}")
        return len(value) * len(self.FIXTURES), errors

    def check_counts(self, counts):
        """Each cover must have enumerated every term up to its depth."""
        errors = []
        for k in self.FIXTURES:
            got = counts[f"cover-{k}"]["automata.terms"]
            want = ref.count_terms(self.LABELS, self.DEPTH[k])
            if got != want:
                errors.append(f"cover-{k}: {got} terms enumerated, expected "
                              f"{want} at depth {self.DEPTH[k]}")
        return errors


WORKLOADS = {w.name: w for w in (OracleDuality, ChaseClosure, HomSearch,
                                  AutomataCover)}
