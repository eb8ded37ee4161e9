"""Datalog evaluation and the existential chase."""

import itertools
import random

import pytest

import chase_reference as ref
from conftest import (
    digraph,
    make_tc_program,
    rel_instance,
    sigma1,
    sigma2,
)
from homkit import chase
from homkit.chase import (
    NotWeaklyAcyclic,
    chase_datalog,
    chase_existential,
    run_program,
)
from homkit.core import Element, Instance, Schema, find_homomorphism
from homkit.program import (
    Atom,
    Program,
    Rule,
    instance_to_input,
    output_to_instance,
    tgd_compile,
    tgd_schema,
)


def naive_tc(edges):
    closure = set(edges)
    while True:
        new = {(a, d) for a, b in closure for c, d in closure if b == c}
        if new <= closure:
            return closure
        closure |= new


def test_tc_on_path(tc_program):
    I = digraph([("a", "b"), ("b", "c")])
    res = chase_datalog(tc_program, I)
    got = {(x.ser, y.ser) for rel, (x, y) in res.output.facts
           if rel == "Ans"}
    assert got == {("a", "b"), ("b", "c"), ("a", "c")}
    assert res.terminated


def test_tc_random_graphs_match_naive(tc_program):
    rng = random.Random(7)
    names = ["a", "b", "c", "d"]
    for _ in range(50):
        edges = [(x, y) for x in names for y in names
                 if rng.random() < 0.3]
        I = digraph(edges, extra=names)
        res = chase_datalog(tc_program, I)
        got = {(x.ser, y.ser) for rel, (x, y) in res.output.facts}
        assert got == naive_tc(edges)


def test_chase_idempotent(tc_program):
    I = digraph([("a", "b"), ("b", "a")])
    res = chase_datalog(tc_program, I)
    # feeding the full result back through the rules adds nothing
    again = chase_datalog(tc_program, I)
    assert set(res.full.facts) == set(again.full.facts)


def test_wa_chase_transitivity():
    P = tgd_compile(list(sigma1()))
    I = rel_instance("R", 2, [("a", "b"), ("b", "c")])
    res = chase_existential(P, instance_to_input(I, P), mode="wa")
    out = output_to_instance(res.output, tgd_schema(list(sigma1())))
    got = {(x.ser, y.ser) for rel, (x, y) in out.facts}
    assert got == {("a", "b"), ("b", "c"), ("a", "c")}
    assert res.terminated


def test_wa_mode_refuses_nonterminating():
    P = tgd_compile(list(sigma2()))
    I = rel_instance("R", 2, [("a", "b")])
    with pytest.raises(NotWeaklyAcyclic):
        chase_existential(P, instance_to_input(I, P), mode="wa")


def test_bounded_chase_produces_null_path():
    P = tgd_compile(list(sigma2()))
    I = rel_instance("R", 2, [("a1", "a2")])
    res = chase_existential(P, instance_to_input(I, P), mode="bounded",
                            budget=5)
    assert not res.terminated
    # after 5 rounds the aux path has 6 edges over 5 nulls; the output
    # copy trails one round behind with 5 edges over 4 nulls
    r_facts = [args for rel, args in res.full.facts if rel == "R"]
    nulls = {e for args in r_facts for e in args if e.kind == "null"}
    assert len(r_facts) == 6 and len(nulls) == 5
    out_facts = [args for rel, args in res.output.facts]
    assert len(out_facts) == 5
    # the result is a simple path: every node has out-degree <= 1
    starts = [a for a, _ in r_facts]
    assert len(starts) == len(set(starts))


def test_restricted_chase_skips_satisfied_heads():
    P = tgd_compile(list(sigma2()))
    I = rel_instance("R", 2, [("a", "b"), ("b", "a")])
    res = chase_existential(P, instance_to_input(I, P), mode="bounded",
                            budget=20)
    # the 2-cycle satisfies the inclusion dependency: no nulls needed
    assert res.terminated
    assert all(e.kind != "null" for _, args in res.output.facts
               for e in args)


def test_chase_deterministic():
    P = tgd_compile(list(sigma2()))
    I = rel_instance("R", 2, [("a", "b")])
    r1 = chase_existential(P, instance_to_input(I, P), mode="bounded",
                           budget=4)
    r2 = chase_existential(P, instance_to_input(I, P), mode="bounded",
                           budget=4)
    assert r1.full.sorted_facts() == r2.full.sorted_facts()


def test_run_program_dispatch(tc_program):
    I = digraph([("a", "b")])
    assert run_program(tc_program, I).terminated
    P = tgd_compile(list(sigma1()))
    J = rel_instance("R", 2, [("a", "b")])
    assert run_program(P, instance_to_input(J, P)).terminated


def test_universality_of_wa_chase():
    # the chase output maps into any hand-built solution fixing adom
    P = tgd_compile(list(sigma1()))
    I = rel_instance("R", 2, [("a", "b"), ("b", "c")])
    res = chase_existential(P, instance_to_input(I, P), mode="wa")
    total = rel_instance(
        "R", 2, [(x, y) for x in "abc" for y in "abc"])
    solution = Instance(
        res.full.schema, total.domain,
        [(rel + suffix, args) for rel, args in total.facts
         for suffix in ("", "_in", "_out")])
    h = find_homomorphism(res.full, solution,
                          fixed=[e for e in res.full.domain
                                 if e.kind == "named"])
    assert h is not None


def test_idle_rule_visits_build_no_delta_store(monkeypatch):
    # after its first visit, the copy rule R :- R_in never sees a new R_in
    # fact, and the body-less rule stays satisfied: neither builds a delta
    # store, while R_out :- R and the inclusion rule build one in each of
    # rounds 2-5; the store of the chase itself is the ninth
    built = []

    class Counted(chase._Store):
        __slots__ = ()

        def __init__(self, schema, facts=()):
            built.append(schema)
            super().__init__(schema, facts)

    P = tgd_compile(list(sigma2()))
    P = Program(P.s_in, P.s_out, P.s_aux.union(Schema([("Q", 2)])),
                (Rule((Atom("Q", ("u", "v")),), (), ("u", "v")),) + P.rules)
    I = instance_to_input(rel_instance("R", 2, [("a1", "a2")]), P)
    want = ref.chase_existential(P, I, mode="bounded", budget=5)
    monkeypatch.setattr(chase, "_Store", Counted)
    got = chase_existential(P, I, mode="bounded", budget=5)
    assert len(built) == 9
    assert got.full.sorted_facts() == want.full.sorted_facts()
    assert (got.steps, got.terminated) == (want.steps, want.terminated) \
        == (5, False)
    assert sorted(e.ser for e in got.full.domain
                  if e.kind == "null") == [f"_n{k}" for k in range(1, 8)]
    assert ("Q", (Element.null(1), Element.null(2))) in got.full.facts
