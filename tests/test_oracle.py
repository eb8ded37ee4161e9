"""Brute-force verification oracles."""

import itertools
import math

import pytest

from conftest import (
    digraph,
    make_nonterminating_program,
    make_path_program,
    make_sigma1_rewrite,
    make_slow_answer_program,
    make_tc_program,
    sigma1,
    sigma2,
)
from homkit import oracle
from homkit import chase
from homkit.adjoint import sl_adjoint
from homkit.chase import chase_theory
from homkit.core import Element, Instance, Schema, find_homomorphism
from homkit.duality import abox_dual, dual_from_program, dual_wrt_theory
from homkit.oracle import (
    OracleError,
    Verdict,
    abox_morphism,
    count_instances,
    enumerate_instances,
    iter_homomorphisms,
    programs_equivalent_bounded,
    verify_adjoint,
    verify_duality,
)
from homkit.program import TGD, Atom, Program, Rule, tgd_compile


E = Schema([("E", 2)])


def test_count_matches_enumeration():
    for B in (0, 1, 2):
        assert count_instances(E, B) == \
            sum(1 for _ in enumerate_instances(E, B))


def test_count_closed_form():
    # one empty instance, 2^1 at one element, 2^16 at two for E/2... per
    # domain size m the count is 2^(m^2)
    assert count_instances(E, 2) == 1 + 2 + 2 ** 4


def test_enumerate_ordered_smallest_first():
    seq = list(enumerate_instances(E, 2))
    sizes = [(len(I.domain), len(I.facts)) for I in seq]
    assert sizes == sorted(sizes)


def _classes(schema: Schema, B: int) -> dict:
    """Brute force: the first labeled instance of each isomorphism class,
    keyed by its canonical form (domain size and the least sorted fact
    tuple over all relabellings), in enumeration order."""
    first = {}
    for C in enumerate_instances(schema, B):
        elems = sorted(C.domain)
        pos = {e: i for i, e in enumerate(elems)}
        facts = [(rel, [pos[e] for e in args]) for rel, args in C.facts]
        key = len(elems), min(
            tuple(sorted((rel, tuple(p[i] for i in args))
                         for rel, args in facts))
            for p in itertools.permutations(range(len(elems))))
        first.setdefault(key, C)
    return first


def _automorphisms(C: Instance) -> int:
    elems = sorted(C.domain)
    return sum(
        1 for images in itertools.permutations(elems)
        if {(rel, tuple(dict(zip(elems, images))[e] for e in args))
            for rel, args in C.facts} == C.facts)


@pytest.mark.parametrize("schema,B", [
    (E, 3), (Schema([("E", 2), ("X1", 1)]), 2), (Schema([("U", 1)]), 3)])
def test_class_representatives_are_first_members(schema, B):
    reps = list(oracle._class_representatives(schema, B))
    assert [C for C, _ in reps] == list(_classes(schema, B).values())
    for C, autos in reps:
        assert len(autos) == _automorphisms(C)
        assert all({(rel, tuple(pi[e] for e in args))
                    for rel, args in C.facts} == C.facts for pi in autos)


def test_class_counts():
    # unlabeled digraphs with loops on at most B nodes, cumulative
    # (OEIS A000595: 1, 2, 10, 104, 3044); the brute force above agrees
    # up to 3 nodes
    reps = list(oracle._class_representatives(E, 4))
    assert [sum(1 for C, _ in reps if len(C.domain) <= B)
            for B in range(5)] == [1, 3, 13, 117, 3161]
    # orbit-stabilizer: the classes cover every labeled instance once
    assert sum(math.factorial(len(C.domain)) // len(autos)
               for C, autos in reps) == count_instances(E, 4)
    # with more permutations than instances (4! > 2^4) a size is labeled
    U = Schema([("U", 1)])
    reps = list(oracle._class_representatives(U, 4))
    assert len(reps) == 1 + 2 + 3 + 4 + 2 ** 4
    assert all(autos == () for C, autos in reps if len(C.domain) == 4)
    assert len(list(oracle._class_representatives(E, 3, up_to_iso=False))) \
        == count_instances(E, 3)


def test_verdict_invariant():
    with pytest.raises(OracleError):
        Verdict(passed=False, bound=2)
    v = Verdict(passed=False, bound=2, counterexample=digraph([("a", "b")]))
    assert not v
    assert Verdict(passed=True, bound=2)


def test_iter_homomorphisms_complete():
    A = digraph([("a", "b")])
    B = digraph([("x", "y"), ("y", "x")])
    homs = list(iter_homomorphisms(A, B))
    assert len(homs) == 2
    for h in homs:
        for rel, args in A.facts:
            assert (rel, tuple(h[e] for e in args)) in set(B.facts)


def test_verify_duality_pass_and_fail():
    d = dual_from_program(make_path_program(2), "Ans")
    assert verify_duality(d.generator, d.duals, 3).passed
    # an over-narrow dual set misses instances: drop the dual entirely
    bad = verify_duality([digraph([("a", "b"), ("b", "c")])], [], 2)
    assert not bad.passed and bad.counterexample is not None


def test_verify_duality_redundant_dual_invariant():
    d = dual_from_program(make_path_program(2), "Ans")
    # adding a dual that maps into an existing one never changes the verdict
    redundant = digraph([], extra=["z"])
    assert find_homomorphism(redundant, d.duals[0]) is not None
    v1 = verify_duality(d.generator, d.duals, 3)
    v2 = verify_duality(d.generator, list(d.duals) + [redundant], 3)
    assert v1.passed == v2.passed


def test_verify_duality_detects_overlap():
    # frontier and dual both hit the single edge: never a duality
    edge = digraph([("a", "b")])
    v = verify_duality([edge], [digraph([("x", "y"), ("y", "x")])], 2)
    assert not v.passed


def test_programs_equivalent_bounded(tc_program):
    from homkit.program import Program, Rule
    copy_only = Program(
        Schema([("E", 2)]), Schema([("Ans", 2)]), Schema([]),
        [Rule((Atom("Ans", ("x", "y")),), (Atom("E", ("x", "y")),))])
    v = programs_equivalent_bounded(tc_program, copy_only, B=3)
    assert not v.passed and v.counterexample is not None
    assert programs_equivalent_bounded(tc_program, tc_program, B=2).passed


def test_equivalence_is_unknown_on_a_chase_prefix():
    # the outputs agree on every 12-round prefix, but differ on E(e1,e2)
    v = programs_equivalent_bounded(make_slow_answer_program(False),
                                    make_slow_answer_program(True), B=2)
    assert not v.passed and v.unknown
    assert v.counterexample.facts


def test_equivalence_chases_each_program_once_per_instance(monkeypatch,
                                                          tc_program):
    calls = []
    real = oracle.run_program

    def counted(P, I, *args, **kwargs):
        calls.append((P, I))
        return real(P, I, *args, **kwargs)

    monkeypatch.setattr(oracle, "run_program", counted)
    # both programs terminate: one chase per program and isomorphism class
    # (13 digraph classes on at most 2 elements)
    assert programs_equivalent_bounded(tc_program, tc_program, B=2).passed
    reps = [C for C, _ in oracle._class_representatives(E, 2)]
    assert len(reps) == 13
    assert calls == [(tc_program, I) for I in reps for _ in range(2)]
    # a non-terminating program reads every labeled instance, each chased
    # once per program, and an unfinished chase ends the check there
    calls.clear()
    P1, P2 = make_slow_answer_program(False), make_slow_answer_program(True)
    v = programs_equivalent_bounded(P1, P2, B=2)
    labeled = list(enumerate_instances(E, 2))
    before = labeled.index(v.counterexample)
    assert calls == [(P, I) for I in labeled[:before + 1] for P in (P1, P2)]


def _count_chases(monkeypatch) -> list:
    calls = []
    real = oracle.run_program

    def counted(P, I, *args, **kwargs):
        calls.append(I)
        return real(P, I, *args, **kwargs)

    monkeypatch.setattr(oracle, "run_program", counted)
    return calls


def test_duality_chases_one_instance_per_class(monkeypatch):
    d = dual_from_program(make_path_program(2), "Ans")
    calls = _count_chases(monkeypatch)
    assert verify_duality(d.generator, d.duals, 3).passed
    assert len(calls) == 117


def test_relative_duality_filters_one_instance_per_class(monkeypatch):
    # the model filter is one chase through the dependency set, run on
    # the 117 digraph classes on at most 3 elements, not on 531 instances
    sigma = sigma1("E")
    d = dual_wrt_theory(sigma, [digraph([("a", "b"), ("b", "c")])],
                        adjoint_program=make_sigma1_rewrite("E"))
    calls = []
    real = oracle.chase_theory

    def counted(P_sigma, A, *args, **kwargs):
        calls.append(A)
        return real(P_sigma, A, *args, **kwargs)

    monkeypatch.setattr(oracle, "chase_theory", counted)
    assert verify_duality(d.frontier, d.duals, 3, sigma=sigma,
                          category="relative").passed
    assert len(calls) == len(set(calls)) == 117


def test_nonterminating_generator_chases_every_labeled_instance(
        monkeypatch):
    # R(x,y) -> exists z R(y,z) is not weakly acyclic, although every
    # chase here stops once each edge's head has a loop
    P = Program(E, Schema([("Ans", 0)]), Schema([("R", 2)]), [
        Rule((Atom("R", ("x", "y")),), (Atom("E", ("x", "y")),)),
        Rule((Atom("R", ("y", "y")),), (Atom("E", ("x", "y")),)),
        Rule((Atom("R", ("y", "z")),), (Atom("R", ("x", "y")),), ("z",)),
        Rule((Atom("Ans", ()),), (Atom("E", ("x", "y")),))])
    assert not P.terminates
    calls = _count_chases(monkeypatch)
    assert verify_duality((P, "Ans"), [digraph([], extra=["a"])], 3).passed
    assert calls == list(enumerate_instances(E, 3))


def test_generator_miss_in_a_chase_prefix_is_unknown(monkeypatch):
    # Ans(d) needs 21 rounds, past the 12-round prefix, while the T-chain
    # under E never stops; with a full chase budget the check took 86 s
    d, s = Element.named("d"), Element.named("s")
    D = Instance(E, [d, s], [("E", (s, s)), ("E", (s, d))], (d,))
    calls = _count_chases(monkeypatch)
    v = verify_duality((make_slow_answer_program(False), "Ans"), [D], 2)
    assert not v.passed and v.unknown
    assert v.explanation == ("unknown: Ans(e1) is not derived in 12 chase "
                             "rounds and the chase has not terminated")
    e1 = Element.named("e1")
    assert v.counterexample == Instance(E, [e1], [("E", (e1, e1))], (e1,))
    assert len(calls) == 2


def test_nonterminating_program_dual_is_unknown_at_a_prefix():
    d = dual_from_program(make_nonterminating_program(), "R_out")
    v = verify_duality(d.generator, d.duals, 2)
    assert not v.passed and v.unknown
    e1, e2 = Element.named("e1"), Element.named("e2")
    assert v.counterexample == Instance(
        make_nonterminating_program().s_in, [e1, e2],
        [("R_in", (e1, e2))], (e1, e1))


def test_nonterminating_abox_duality_chases_every_labeled_instance(
        monkeypatch):
    sigma = sigma2("E")
    d = abox_dual(sigma, [digraph([("a", "b")])])
    calls = []
    real = oracle.chase_theory

    def counted(P_sigma, A, *args, **kwargs):
        calls.append(A)
        return real(P_sigma, A, *args, **kwargs)

    monkeypatch.setattr(oracle, "chase_theory", counted)
    assert verify_duality(d.frontier, d.duals, 3, sigma=sigma,
                          category="abox").passed
    assert set(enumerate_instances(E, 3)) <= set(calls)


def test_nonterminating_adjoint_chases_every_labeled_instance(monkeypatch):
    P = make_nonterminating_program()
    a = Element.named("a")
    J = Instance(P.s_out, [a], [("R_out", (a, a))])
    res = sl_adjoint(P, J)
    calls = _count_chases(monkeypatch)
    assert verify_adjoint(P, J, res, B=3).passed
    assert set(calls) == set(enumerate_instances(P.s_in, 3))
    assert len(set(calls)) == count_instances(P.s_in, 3) == 531


def test_abox_verify_needs_a_dependency_set():
    with pytest.raises(OracleError):
        verify_duality([digraph([("a", "b")])], [digraph([("x", "x")])], 1,
                       category="abox")


@pytest.mark.parametrize("category, sigma", [
    ("relative", None), ("plain", sigma1("E"))], ids=("relative", "plain"))
def test_verify_category_and_dependency_set_must_agree(category, sigma):
    # the relative category needs a dependency set, and the plain one
    # takes none: neither is dropped silently
    with pytest.raises(OracleError, match="dependency set"):
        verify_duality([digraph([("a", "b")])], [digraph([("x", "x")])], 1,
                       sigma=sigma, category=category)


def test_abox_frontier_hit_does_not_stop_at_an_unknown_member():
    # under E(x,y) -> exists z : E(y,z), whether the 2-cycle maps into the
    # chase of E(e1,e2) is unknown, while the edge maps into it; any
    # member's "yes" decides, whatever the frontier's order
    sigma = sigma2("E")
    F = [digraph([("a", "b"), ("b", "a")]), digraph([("a", "b")])]
    D = [digraph([], extra=["a"])]
    for frontier in (F, F[::-1]):
        v = verify_duality(frontier, D, 2, sigma=sigma, category="abox")
        assert v.passed and not v.unknown


# ---------------------------------------------------------------------------
# ABox morphisms
# ---------------------------------------------------------------------------


def _pointed_digraphs() -> list:
    """Every 1-pointed digraph on one or two elements."""
    out = []
    for names in (["a"], ["a", "b"]):
        pairs = list(itertools.product(names, repeat=2))
        for size in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, size):
                out += [digraph(edges, extra=names, points=(p,))
                        for p in names]
    return out


def test_abox_morphism_is_its_definition_when_chases_terminate():
    # under a weakly acyclic theory both chases are finite, and an ABox
    # morphism is by definition a homomorphism of the chases extending h
    sigma = (TGD((Atom("E", ("x", "y")),), (Atom("F", ("y", "z")),),
                 ("z",)),)
    P_sigma = tgd_compile(sigma, E)
    instances = _pointed_digraphs()
    assert len(instances) == 34
    chases = [chase_theory(P_sigma, X)[0] for X in instances]
    seen = set()
    for A, A_chase in zip(instances, chases):
        for B, B_chase in zip(instances, chases):
            h = {A.points[0]: B.points[0]}
            hom = find_homomorphism(A_chase, B_chase, bindings=h)
            got = abox_morphism(sigma, A, B, h)
            assert got == ("no" if hom is None else "yes"), (A, B)
            seen.add(got)
    assert seen == {"yes", "no"}


def test_abox_no_certificate_from_unreachable_relations():
    # under E(x,y) -> exists z : E(y,z) no chase of E facts ever derives
    # F, so a source with an F fact maps into no chase of such a target,
    # although the chase never terminates
    EF = Schema([("E", 2), ("F", 2)])
    a, b, c, d = (Element.named(n) for n in "abcd")
    F_ab = Instance(EF, [a, b], [("F", (a, b))])
    E_cd = Instance(EF, [c, d], [("E", (c, d))])
    assert abox_morphism(sigma2("E"), F_ab, E_cd) == "no"
    v = verify_duality([F_ab], [Instance(EF, [a], [("E", (a, a))])], 2,
                       sigma=sigma2("E"), category="abox")
    assert v.passed and not v.unknown


def test_abox_verify_chases_each_instance_once(monkeypatch):
    sigma = sigma2("E")
    d = abox_dual(sigma, [digraph([("a", "b")])])
    calls = []
    real = chase.chase_existential

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(chase, "chase_existential", counted)
    v = verify_duality(d.frontier, d.duals, 3, sigma=sigma,
                       category="abox")
    assert v.passed
    assert len(calls) <= count_instances(E, 3) + len(d.frontier) + \
        len(d.duals)
