"""Generalized right adjoints: constructions, dispatch, composition."""

import itertools
import random

import pytest

from conftest import (
    digraph,
    make_disconnected_program,
    make_sigma1_rewrite,
    make_symmetric_closure,
    make_tc_program,
    rel_instance,
    sigma2,
)
from homkit.adjoint import (
    AdjointError,
    _maximal_cliques,
    adjoint,
    compose_adjoints,
    sl_adjoint,
    tam_adjoint,
)
from homkit.core import Element, Instance, Schema, find_homomorphism
from homkit.oracle import verify_adjoint
from homkit.program import tgd_compile
from homkit.syntax import parse_program


def out_instance(rel, arity, tuples, extra=()):
    names = {n for t in tuples for n in t} | set(extra)
    elems = {n: Element.named(n) for n in sorted(names)}
    return Instance(Schema([(rel, arity)]), set(elems.values()),
                    [(rel, tuple(elems[n] for n in t)) for t in tuples])


def test_symmetric_closure_adjoint_is_max_symmetric_subinstance():
    P = make_symmetric_closure()
    J = out_instance("S", 2, [("a", "b"), ("b", "a"), ("b", "c")])
    res = adjoint(P, J)
    assert len(res.members) == 1
    member, iota = res.members[0]
    # the 2-cycle a<->b is the maximal symmetric part; the dangling edge
    # b->c contributes no R fact
    pairs = {(iota[x].ser, iota[y].ser) for rel, (x, y) in member.facts}
    assert pairs == {("a", "b"), ("b", "a")}


def test_symmetric_closure_verify(tc_program):
    P = make_symmetric_closure()
    for J in (out_instance("S", 2, [("a", "b"), ("b", "a")]),
              out_instance("S", 2, [("a", "a")]),
              out_instance("S", 2, [("a", "b")])):
        v = verify_adjoint(P, J, adjoint(P, J), B=2)
        assert v.passed, v.explanation


def test_disconnected_program_two_members():
    P = make_disconnected_program()
    c = Element.named("c")
    J = Instance(Schema([("Q3", 0)]), [c], [])
    res = adjoint(P, J)
    assert len(res.members) >= 2
    only_q1 = [m for m, _ in res.members
               if all(rel == "Q1" for rel, _ in m.facts) and m.facts]
    only_q2 = [m for m, _ in res.members
               if all(rel == "Q2" for rel, _ in m.facts) and m.facts]
    assert only_q1 and only_q2
    v = verify_adjoint(P, J, res, B=2)
    assert v.passed, v.explanation


def test_connector_avoids_aux_variables():
    # u sorts first in its component but occurs only in an aux atom; linking
    # the components through it left the connected program not almost
    # monadic, so the answer depended on the variable's name
    text = """program
in: E/2, U/1
out: Q/1
aux: T/2 @1
rules
T(x,y) :- E(x,y).
Q(x) :- E(x,y), T(x,{v}), U(z).
"""
    J = out_instance("Q", 1, [("a",)])
    sizes = []
    for v in ("u", "y2"):
        P = parse_program(text.format(v=v))
        res = adjoint(P, J)
        sizes.append(len(res.members))
        assert verify_adjoint(P, J, res, B=2).passed
    assert sizes == [2, 2]


def test_sl_adjoint_loop_and_edge():
    P = tgd_compile(list(sigma2()))
    loop = out_instance("R_out", 2, [("a", "a")])
    res = sl_adjoint(P, loop)
    assert len(res.members) == 1
    member, _ = res.members[0]
    assert any(rel == "R_in" for rel, _ in member.facts)
    edge = out_instance("R_out", 2, [("a", "b")])
    res2 = sl_adjoint(P, edge)
    member2, _ = res2.members[0]
    # the seed edge has no continuation, so no input fact survives
    assert all(rel != "R_in" for rel, _ in member2.facts)


def test_adjoint_dispatch_and_errors(tc_program):
    with pytest.raises(AdjointError):
        adjoint(tgd_compile(list(sigma2())),
                out_instance("R_out", 2, [("a", "a")]), method="tam")
    ef = tgd_compile(list(sigma2()))
    assert adjoint(ef, out_instance("R_out", 2, [("a", "a")])).method \
        == "sl"
    J = out_instance("Ans", 2, [("a", "a")])
    assert adjoint(tc_program, J).method == "tam"


def test_compose_adjoints_pipeline():
    """Transitivity-after-inclusion as a composed adjoint."""
    P1 = make_sigma1_rewrite()
    P2 = tgd_compile(list(sigma2()))

    def omega2(J):
        return tam_adjoint(P1, J)

    def omega1(J):
        return sl_adjoint(P2, J)

    composed = compose_adjoints(omega2, omega1, {"R_in": "R_out"})
    J = out_instance("R_out", 2, [("a", "a")])
    res = composed(J)
    assert res.members
    # a loop satisfies both theories, so the loop input must map into
    # some member
    loop_in = rel_instance("R_in", 2, [("x", "x")])
    assert any(find_homomorphism(loop_in, m) is not None
               for m, _ in res.members)


def test_maximal_cliques_match_brute_force():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(0, 7)
        density = rng.random()
        adj = {v: set() for v in range(n)}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < density:
                adj[u].add(v)
                adj[v].add(u)
        cliques = [
            frozenset(c) for r in range(1, n + 1)
            for c in itertools.combinations(range(n), r)
            if all(v in adj[u] for u, v in itertools.combinations(c, 2))
        ]
        maximal = {c for c in cliques if not any(c < d for d in cliques)}
        found = [frozenset(c) for c in _maximal_cliques(adj)]
        assert len(found) == len(set(found))
        assert set(found) == maximal
    assert list(_maximal_cliques({})) == []
