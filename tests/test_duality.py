"""Homomorphism-duality synthesis: plain, relative to a theory, and ABox."""

import pytest

from conftest import (
    digraph,
    make_path_program,
    make_sigma1_rewrite,
    rel_instance,
    sigma1,
    sigma2,
)
from homkit.core import Element, Instance, Schema, adom_instance, \
    find_homomorphism, isomorphic
from homkit.duality import (
    DualityError,
    abox_dual,
    dual_from_program,
    dual_wrt_theory,
    fold_reduce,
    frontier_program,
)
from homkit.oracle import abox_morphism, verify_duality


def linear_order(n: int) -> Instance:
    """Reflexive-free strict linear order on n elements as a digraph."""
    names = [f"v{i}" for i in range(n)]
    return digraph([(names[i], names[j])
                    for i in range(n) for j in range(n) if i < j],
                   extra=names)


def test_fold_reduce_shrinks_equivalent_elements():
    # two parallel copies of the same edge pattern fold together
    I = digraph([("a", "b"), ("c", "b")])
    r = fold_reduce(I)
    assert len(r.domain) == 2
    assert find_homomorphism(r, I) is not None
    assert find_homomorphism(I, r) is not None


def test_fold_reduce_keeps_points():
    I = digraph([("a", "b"), ("c", "b")], points=("a", "c"))
    r = fold_reduce(I)
    assert set(r.points) == set(I.points)


def test_boolean_edge_dual_is_fact_free():
    d = dual_from_program(make_path_program(1), "Ans")
    assert len(d.duals) == 1
    D = d.duals[0]
    assert not D.facts and len(D.domain) >= 1


def test_two_edge_path_dual():
    d = dual_from_program(make_path_program(2), "Ans")
    assert len(d.duals) == 1
    D = d.duals[0]
    # sources-and-sinks: a single edge, no 2-edge path maps into it,
    # every 1-edge (or edgeless) digraph does
    assert find_homomorphism(digraph([("a", "b")]), D) is not None
    assert find_homomorphism(digraph([("a", "b"), ("b", "c")]), D) is None
    v = verify_duality(d.generator, d.duals, 3)
    assert v.passed, v.explanation


def test_path_order_family():
    for n in (1, 2):
        d = dual_from_program(make_path_program(n + 1), "Ans")
        # the dual is hom-equivalent to the strict linear order on n+1
        # elements (longest path n edges, so no (n+1)-edge path maps in)
        L = adom_instance(linear_order(n + 1))
        assert len(d.duals) == 1
        D = d.duals[0]
        assert find_homomorphism(L, D) is not None
        assert find_homomorphism(D, L) is not None


def test_frontier_program_rejects_cyclic_member():
    loop = digraph([("x", "x")])
    with pytest.raises(DualityError):
        frontier_program([loop])
    path = digraph([("a", "b")], points=("a",))
    P = frontier_program([path])
    assert P.s_out.names == ("Ans",)


def test_dual_wrt_theory_requires_weak_acyclicity():
    F = [digraph([("a", "b"), ("b", "c")]).with_points(())]
    with pytest.raises(DualityError):
        dual_wrt_theory(tuple(
            s.__class__(s.body_atoms, s.head_atoms, s.existentials)
            for s in sigma2("E")), F)


def test_dual_wrt_theory_transitive_two_path():
    sigma = sigma1("E")
    F = [digraph([("a", "b"), ("b", "c")])]
    d = dual_wrt_theory(sigma, F,
                        adjoint_program=make_sigma1_rewrite("E"))
    assert d.duals and d.frontier
    v = verify_duality(d.frontier, d.duals, 3, sigma=sigma,
                       category="relative")
    assert v.passed, v.explanation


def test_abox_dual_single_edge():
    sigma = sigma2("E")
    F = [digraph([("a", "b")])]
    d = abox_dual(sigma, F)
    assert d.category == "abox" and d.duals
    v = verify_duality(d.frontier, d.duals, 2, sigma=sigma,
                       category="abox")
    assert v.passed, v.explanation


def test_abox_morphism_edge_to_loop():
    sigma = sigma2("E")
    A = digraph([("a", "b")])
    B = digraph([("x", "x")])
    a = next(e for e in A.domain if e.ser == "a")
    x = next(e for e in B.domain if e.ser == "x")
    assert abox_morphism(sigma, A, B, h={a: x}) == "yes"


def test_abox_morphism_exact_when_wa():
    sigma = sigma1("E")
    A = digraph([("a", "b"), ("b", "c")])
    B = digraph([("x", "x")])
    assert abox_morphism(sigma, A, B) == "yes"
    assert abox_morphism(sigma, A, digraph([("x", "y")])) == "no"


def test_abox_morphism_identity_nonterminating():
    sigma = sigma2("E")
    A = digraph([("a", "b")])
    assert abox_morphism(sigma, A, A) == "yes"


def test_abox_morphism_keeps_isolated_points():
    # a non-terminating theory takes the bounded branch, which must keep
    # the points through the active-domain restriction of each chase
    sigma = sigma2("E")
    A = digraph([], extra=("e",), points=("e",))
    B = digraph([("x", "x")], points=("x",))
    e, x = A.points[0], B.points[0]
    assert abox_morphism(sigma, A, B, h={e: x}) == "yes"
    assert abox_morphism(sigma, B, A, h={x: e}) == "no"


def test_pointed_abox_duality_gives_a_counterexample():
    # homkit verify duality --frontier pedge --dual ploop --category abox
    sigma = sigma2("E")
    pedge = digraph([("a", "b")], points=("a",))
    ploop = digraph([("x", "x")], points=("x",))
    v = verify_duality([pedge], [ploop], 2, sigma=sigma, category="abox")
    assert not v.passed and not v.unknown
    assert v.explanation == "instance is in both the frontier's and the " \
        "duals' closure"
    assert repr(v.counterexample) == repr(
        digraph([("e1", "e1")], points=("e1",)))
