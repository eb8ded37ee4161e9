"""Brute-force verification oracles."""

import itertools

import pytest

from conftest import (
    digraph,
    make_path_program,
    make_slow_answer_program,
    make_tc_program,
    sigma2,
)
from homkit import oracle
from homkit import chase
from homkit.chase import chase_theory
from homkit.core import Instance, Schema, find_homomorphism
from homkit.duality import abox_dual, dual_from_program
from homkit.oracle import (
    OracleError,
    Verdict,
    abox_morphism,
    count_instances,
    enumerate_instances,
    iter_homomorphisms,
    programs_equivalent_bounded,
    verify_duality,
)
from homkit.program import TGD, Atom, tgd_compile


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
        calls.append(P)
        return real(P, I, *args, **kwargs)

    monkeypatch.setattr(oracle, "run_program", counted)
    assert programs_equivalent_bounded(tc_program, tc_program, B=2).passed
    assert calls == [tc_program] * (2 * count_instances(E, 2))
    # an unfinished chase ends the check at once, without a second chase
    calls.clear()
    P1, P2 = make_slow_answer_program(False), make_slow_answer_program(True)
    v = programs_equivalent_bounded(P1, P2, B=2)
    before = list(enumerate_instances(E, 2)).index(v.counterexample)
    assert calls == [P1, P2] * before + [P1]


def test_abox_verify_needs_a_dependency_set():
    with pytest.raises(OracleError):
        verify_duality([digraph([("a", "b")])], [digraph([("x", "x")])], 1,
                       category="abox")


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
