"""Acceptance criteria: one test per numbered criterion."""

import itertools
import random
import time

import pytest

from conftest import (
    digraph,
    make_disconnected_program,
    make_empty_automaton,
    make_edge_automaton,
    make_ef_program,
    make_label_automaton,
    make_loop_rule_program,
    make_path_program,
    make_sigma1_rewrite,
    make_symmetric_closure,
    make_tc_program,
    make_unfold_program,
    rel_instance,
    sigma1,
    sigma2,
)
from homkit.adjoint import adjoint, compose_adjoints, sl_adjoint, \
    tam_adjoint
from homkit.automata import accepted_cover, automaton_to_datalog
from homkit.chase import chase_datalog, run_program
from homkit.core import (
    Element,
    Instance,
    Schema,
    find_homomorphism,
    isomorphic,
)
from homkit.duality import dual_from_program
from homkit.oracle import (
    enumerate_instances,
    programs_equivalent_bounded,
    verify_adjoint,
    verify_duality,
)
from homkit.program import (
    Atom,
    classify,
    monadic_reduction,
    monadic_to_tam,
    tgd_compile,
    unfoldings,
)
from homkit.ucq import CQ, UCQ, characterize, characterize_abox, \
    verify_characterization

import test_properties


def out_instance(rel, arity, tuples, extra=()):
    names = {n for t in tuples for n in t} | set(extra)
    elems = {n: Element.named(n) for n in sorted(names)}
    return Instance(Schema([(rel, arity)]), set(elems.values()),
                    [(rel, tuple(elems[n] for n in t)) for t in tuples])


def test_criterion_1_chase_vs_matrix_reachability():
    """200 random digraphs <= 6 nodes: program output equals the
    transitive closure of the adjacency matrix (Warshall); < 5 s total."""
    P = make_tc_program()
    rng = random.Random(1)
    t0 = time.time()
    for _ in range(200):
        n = rng.randint(1, 6)
        adj = [[rng.random() < 0.25 for _ in range(n)] for _ in range(n)]
        # reach[i][j]: some walk of length >= 1 leads from i to j
        reach = [row[:] for row in adj]
        for k in range(n):
            for i in range(n):
                if reach[i][k]:
                    reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
        names = [f"v{i}" for i in range(n)]
        I = digraph([(names[i], names[j]) for i in range(n)
                     for j in range(n) if adj[i][j]], extra=names)
        got = {(int(x.ser[1:]), int(y.ser[1:]))
               for rel, (x, y) in chase_datalog(P, I).output.facts}
        want = {(i, j) for i in range(n) for j in range(n) if reach[i][j]}
        assert got == want
    assert time.time() - t0 < 5.0


def test_criterion_2_classification_fixtures():
    cls = classify(make_tc_program())
    assert cls.tam and cls.connected
    cls = classify(make_ef_program())
    assert cls.tree_shaped and not cls.almost_monadic
    cls = classify(make_loop_rule_program())
    assert not cls.tree_shaped
    c2 = classify(tgd_compile(list(sigma2())))
    assert c2.strongly_linear and not c2.weakly_acyclic
    P1 = tgd_compile(list(sigma1()))
    assert not classify(P1).tam
    rewrite = make_sigma1_rewrite()
    assert classify(rewrite).tam
    v = programs_equivalent_bounded(P1, rewrite, B=3)
    assert v.passed, v.explanation


def test_criterion_3_unfoldings():
    us = unfoldings(make_unfold_program(), "R", 2)
    a, b, c = (Element.named(s) for s in "abc")
    s_in = Schema([("U", 2), ("S", 2)])
    expected = [
        Instance(s_in, [a, b, c], [("U", (a, b)), ("U", (b, c))], (a, a)),
        Instance(s_in, [a, b], [("S", (a, b))], (a, b)),
    ]
    assert len(us) == len(expected)
    for e in expected:
        assert sum(1 for u in us if isomorphic(u, e)) == 1


def test_criterion_4_adjoints():
    t0 = time.time()
    # (i) symmetric closure, four J shapes
    P = make_symmetric_closure()
    js = [
        out_instance("S", 2, [("a", "a")]),
        out_instance("S", 2, [("a", "b")]),
        out_instance("S", 2, [("a", "b"), ("b", "a"), ("b", "c")]),
        out_instance("S", 2, [], extra=["a", "b"]),
    ]
    for J in js:
        v = verify_adjoint(P, J, adjoint(P, J), B=3)
        assert v.passed and not v.unknown, v.explanation
    # (ii) disconnected program with a fact-free J
    Pd = make_disconnected_program()
    c = Element.named("c")
    Jd = Instance(Schema([("Q3", 0)]), [c], [])
    v = verify_adjoint(Pd, Jd, adjoint(Pd, Jd), B=3)
    assert v.passed and not v.unknown, v.explanation
    # (iii) strongly linear adjoint on the compiled inclusion dependency
    P2 = tgd_compile(list(sigma2()))
    for J in (out_instance("R_out", 2, [("a", "a")]),
              out_instance("R_out", 2, [("a", "b")])):
        v = verify_adjoint(P2, J, sl_adjoint(P2, J), B=3)
        assert v.passed and not v.unknown, v.explanation
    # (iv) composed pipeline: transitivity after inclusion
    P1 = make_sigma1_rewrite()
    composed = compose_adjoints(lambda J: tam_adjoint(P1, J),
                                lambda J: sl_adjoint(P2, J),
                                {"R_in": "R_out"})
    # explicit composite program for the verification oracle
    from homkit.program import Program, Rule
    comp_prog = Program(
        Schema([("R_in", 2)]), Schema([("R_out", 2)]),
        Schema([("A", 2), ("T", 2)]),
        [
            Rule((Atom("A", ("x", "y")),), (Atom("R_in", ("x", "y")),)),
            Rule((Atom("A", ("y", "z")),), (Atom("A", ("x", "y")),),
                 ("z",)),
            Rule((Atom("T", ("x", "y")),), (Atom("A", ("x", "y")),)),
            Rule((Atom("T", ("x", "z")),),
                 (Atom("T", ("x", "y")), Atom("T", ("y", "z")))),
            Rule((Atom("R_out", ("x", "y")),), (Atom("T", ("x", "y")),)),
        ])
    J = out_instance("R_out", 2, [("a", "a")])
    v = verify_adjoint(comp_prog, J, composed(J), B=2)
    assert v.passed and not v.unknown, v.explanation
    assert time.time() - t0 < 600


def test_criterion_5_monadic_reduction_both_directions():
    P = make_tc_program()
    Pp = monadic_reduction(P, "Ans")
    q1 = next(r for r in Pp.s_in.names if r.startswith("Q1"))
    q2 = next(r for r in Pp.s_in.names if r.startswith("Q2"))
    ans_rel = Pp.s_out.names[0]
    q_rels = [q1, q2]
    back = monadic_to_tam(Pp, q_rels)
    out_rel = back.s_out.names[0]
    for I in enumerate_instances(Schema([("E", 2)]), 3):
        derived = {(x, y) for rel, (x, y)
                   in run_program(P, I).output.facts}
        back_derived = {(x, y) for rel, (x, y)
                        in run_program(back, I).output.facts
                        if rel == out_rel}
        for a in sorted(I.domain):
            for b in sorted(I.domain):
                J = Instance(Pp.s_in, I.domain,
                             list(I.facts) + [(q1, (a,)), (q2, (b,))])
                accepted = any(rel == ans_rel for rel, _
                               in run_program(Pp, J).output.facts)
                # reduction direction
                assert accepted == ((a, b) in derived)
                # converse direction
                assert ((a, b) in back_derived) == accepted


def test_criterion_6_duality_synthesis():
    t0 = time.time()
    for n in (1, 2):
        d = dual_from_program(make_path_program(n), "Ans")
        v = verify_duality(d.generator, d.duals, 3)
        assert v.passed, v.explanation
    for n in (1, 2, 3):
        d = dual_from_program(make_path_program(n + 1), "Ans")
        v = verify_duality(d.generator, d.duals, 4)
        assert v.passed, (n, v.explanation)
    assert time.time() - t0 < 900


def test_criterion_7_characterization():
    q = UCQ("q", 0,
            (CQ((), (Atom("E", ("x", "y")), Atom("E", ("y", "z")))),))
    ex = characterize(q, sigma1("E"),
                      adjoint_program=make_sigma1_rewrite("E"))
    v = verify_characterization(q, ex, B=3)
    assert v.passed and not v.unknown, v.explanation
    ex2 = characterize_abox(q, sigma2("E"))
    v2 = verify_characterization(q, ex2, B=2)
    assert v2.passed and not v2.unknown, v2.explanation


def test_criterion_8_automata():
    full = Schema([("E", 2), ("X1", 1)])
    fixtures = [make_empty_automaton(), make_label_automaton(),
                make_edge_automaton()]
    programs = []
    for A in fixtures:
        P = automaton_to_datalog(A)
        cls = classify(P)
        assert cls.connected and cls.monadic and cls.tree_shaped
        assert cls.boolean_program
        programs.append(P)
    covers = [accepted_cover(A, 3) for A in fixtures]
    for I in enumerate_instances(full, 3):
        for P, cover in zip(programs, covers):
            ans = ("Ans", ()) in set(
                run_program(P, I.with_schema(P.s_in)).output.facts)
            hit = any(find_homomorphism(K, I) is not None for K in cover)
            assert ans == hit


def test_criterion_9_property_suites():
    test_properties.test_chase_minimality_500()
    test_properties.test_monotonicity_500()
    test_properties.test_compiled_theory_closure_500()
    test_properties.test_strongly_linear_union_500()
