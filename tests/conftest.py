"""Shared fixtures: the worked programs, dependency sets, and automata used
across the unit and acceptance tests."""

import pytest

from homkit.automata import TreeAutomaton
from homkit.core import Element, Instance, Schema
from homkit.program import TGD, Atom, Program, Rule


def make_tc_program() -> Program:
    """Transitive closure with a right-recursive auxiliary relation."""
    return Program(
        Schema([("E", 2)]), Schema([("Ans", 2)]), Schema([("T", 2)]),
        [
            Rule((Atom("T", ("x", "y")),), (Atom("E", ("x", "y")),)),
            Rule((Atom("T", ("x", "z")),),
                 (Atom("E", ("x", "y")), Atom("T", ("y", "z")))),
            Rule((Atom("Ans", ("x", "y")),), (Atom("T", ("x", "y")),)),
        ],
        {"T": 1},
    )


def make_unfold_program() -> Program:
    """Three-rule program whose depth-2 unfoldings are a two-element set."""
    return Program(
        Schema([("U", 2), ("S", 2)]), Schema([("R", 2)]),
        Schema([("T", 2)]),
        [
            Rule((Atom("R", ("x", "y")),), (Atom("S", ("x", "y")),)),
            Rule((Atom("R", ("x", "x")),), (Atom("T", ("x", "y")),)),
            Rule((Atom("T", ("x", "y")),),
                 (Atom("U", ("x", "y")), Atom("U", ("y", "z")))),
        ],
    )


def make_ef_program() -> Program:
    """Tree-shaped but not almost-monadic: equal-length E-then-F paths."""
    return Program(
        Schema([("E", 2), ("F", 2)]), Schema([("Ans", 2)]),
        Schema([("R", 2)]),
        [
            Rule((Atom("R", ("x", "y")),),
                 (Atom("E", ("x", "u")), Atom("F", ("u", "y")))),
            Rule((Atom("R", ("x", "y")),),
                 (Atom("E", ("x", "u")), Atom("R", ("u", "v")),
                  Atom("F", ("v", "y")))),
            Rule((Atom("Ans", ("x", "y")),), (Atom("R", ("x", "y")),)),
        ],
    )


def make_loop_rule_program() -> Program:
    """Single rule Ans(x) :- E(x,x): monadic but not tree-shaped."""
    return Program(
        Schema([("E", 2)]), Schema([("Ans", 1)]), Schema([]),
        [Rule((Atom("Ans", ("x",)),), (Atom("E", ("x", "x")),))],
    )


def make_symmetric_closure() -> Program:
    return Program(
        Schema([("R", 2)]), Schema([("S", 2)]), Schema([]),
        [
            Rule((Atom("S", ("x", "y")),), (Atom("R", ("x", "y")),)),
            Rule((Atom("S", ("x", "y")),), (Atom("R", ("y", "x")),)),
        ],
    )


def make_disconnected_program() -> Program:
    """Q3() :- Q1(x), Q2(y): no single-instance right adjoint."""
    return Program(
        Schema([("Q1", 1), ("Q2", 1)]), Schema([("Q3", 0)]), Schema([]),
        [Rule((Atom("Q3", ()),), (Atom("Q1", ("x",)), Atom("Q2", ("y",))))],
    )


def make_path_program(n: int, rel: str = "E") -> Program:
    """Boolean program detecting a directed path of n edges."""
    body = tuple(Atom(rel, (f"x{i}", f"x{i + 1}")) for i in range(n))
    return Program(Schema([(rel, 2)]), Schema([("Ans", 0)]), Schema([]),
                   [Rule((Atom("Ans", ()),), body)])


def sigma1(rel: str = "R") -> tuple:
    """Transitivity."""
    return (TGD((Atom(rel, ("x", "y")), Atom(rel, ("y", "z"))),
                (Atom(rel, ("x", "z")),)),)


def sigma2(rel: str = "R") -> tuple:
    """Inclusion dependency R(x,y) -> exists z R(y,z)."""
    return (TGD((Atom(rel, ("x", "y")),), (Atom(rel, ("y", "z")),),
                ("z",)),)


def make_sigma1_rewrite(rel: str = "R") -> Program:
    """Equivalent rewrite of the compiled transitivity program in which the
    recursive rule reads one conjunct from the input copy; the rewrite is
    tree-shaped almost-monadic."""
    r_in, r_out = f"{rel}_in", f"{rel}_out"
    return Program(
        Schema([(r_in, 2)]), Schema([(r_out, 2)]), Schema([(rel, 2)]),
        [
            Rule((Atom(rel, ("x", "y")),), (Atom(r_in, ("x", "y")),)),
            Rule((Atom(rel, ("x", "z")),),
                 (Atom(rel, ("x", "y")), Atom(r_in, ("y", "z")))),
            Rule((Atom(r_out, ("x", "y")),), (Atom(rel, ("x", "y")),)),
        ],
        {rel: 2},
    )


def make_nonterminating_program() -> Program:
    """Compiled inclusion dependency: strongly linear, not weakly acyclic."""
    return Program(
        Schema([("R_in", 2)]), Schema([("R_out", 2)]), Schema([("R", 2)]),
        [
            Rule((Atom("R", ("x", "y")),), (Atom("R_in", ("x", "y")),)),
            Rule((Atom("R", ("y", "z")),), (Atom("R", ("x", "y")),),
                 ("z",)),
            Rule((Atom("R_out", ("x", "y")),), (Atom("R", ("x", "y")),)),
        ],
    )


def make_slow_answer_program(guard: bool) -> Program:
    """Ans(x) for every x with an out-edge, through the chain S20 -> ... ->
    S00, next to an E-fed T-chain whose chase never terminates; with
    ``guard``, Ans also needs the loop E(x,x).  The two variants differ on
    E(e1,e2), but not within 12 chase rounds."""
    rules = [
        Rule((Atom("T", ("y", "z")),), (Atom("E", ("x", "y")),), ("z",)),
        Rule((Atom("T", ("y", "z")),), (Atom("T", ("x", "y")),), ("z",)),
        Rule((Atom("S20", ("x",)),), (Atom("E", ("x", "y")),)),
    ]
    rules += [Rule((Atom(f"S{i - 1:02d}", ("x",)),),
                   (Atom(f"S{i:02d}", ("x",)),)) for i in range(1, 21)]
    body = (Atom("S00", ("x",)),)
    if guard:
        body += (Atom("E", ("x", "x")),)
    rules.append(Rule((Atom("Ans", ("x",)),), body))
    aux = [("T", 2)] + [(f"S{i:02d}", 1) for i in range(21)]
    return Program(Schema([("E", 2)]), Schema([("Ans", 1)]), Schema(aux),
                   rules)


def digraph(edges, extra=(), points=()) -> Instance:
    """Instance over {E/2} from element-name pairs."""
    names = {n for e in edges for n in e} | set(extra) | set(points)
    elems = {n: Element.named(n) for n in sorted(names)}
    return Instance(Schema([("E", 2)]), set(elems.values()),
                    [("E", (elems[a], elems[b])) for a, b in edges],
                    tuple(elems[p] for p in points))


def symmetric_digraph(edges, extra=(), points=()) -> Instance:
    """A digraph holding both directions of every given edge."""
    return digraph([e for a, b in edges for e in ((a, b), (b, a))],
                   extra, points)


def mycielski(k: int) -> tuple:
    """(n, edges) of the Mycielski graph M_k (chromatic number k) on
    vertices 0..n-1."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        grown = list(edges)
        for a, b in edges:
            grown += [(a, n + b), (b, n + a)]
        grown += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, grown
    return n, edges


def rel_instance(rel: str, arity: int, tuples, extra=(),
                 points=()) -> Instance:
    names = {n for t in tuples for n in t} | set(extra) | set(points)
    elems = {n: Element.named(n) for n in sorted(names)}
    return Instance(Schema([(rel, arity)]), set(elems.values()),
                    [(rel, tuple(elems[n] for n in t)) for t in tuples],
                    tuple(elems[p] for p in points))


def make_edge_automaton() -> TreeAutomaton:
    """Accepts exactly the terms containing at least one internal node."""
    S = Schema([("E", 2)])
    trans = {("E", i): frozenset(((a, b), "q1")
                                 for a in ("q0", "q1")
                                 for b in ("q0", "q1"))
             for i in (1, 2)}
    return TreeAutomaton(S, ("X1",), ("q0", "q1"), frozenset(["q1"]),
                         {frozenset(): frozenset(["q0"]),
                          frozenset(["X1"]): frozenset(["q0"])}, trans)


def make_label_automaton() -> TreeAutomaton:
    """Accepts exactly the terms with an X1-labeled leaf somewhere."""
    S = Schema([("E", 2)])
    trans = {("E", i): frozenset(
        ((a, b), "q1" if "q1" in (a, b) else "q0")
        for a in ("q0", "q1") for b in ("q0", "q1")) for i in (1, 2)}
    return TreeAutomaton(S, ("X1",), ("q0", "q1"), frozenset(["q1"]),
                         {frozenset(): frozenset(["q0"]),
                          frozenset(["X1"]): frozenset(["q1"])}, trans)


def make_empty_automaton() -> TreeAutomaton:
    """Accepts nothing."""
    S = Schema([("E", 2)])
    return TreeAutomaton(
        S, ("X1",), ("q0",), frozenset(),
        {frozenset(): frozenset(["q0"]),
         frozenset(["X1"]): frozenset(["q0"])},
        {("E", i): frozenset([(("q0", "q0"), "q0")]) for i in (1, 2)})


@pytest.fixture
def tc_program():
    return make_tc_program()


@pytest.fixture
def sigma1_rewrite():
    return make_sigma1_rewrite()
