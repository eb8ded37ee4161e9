"""Differential test: the indexed chase agrees exactly with the nested-loop
reference in ``chase_reference.py`` on seeded random programs and
instances."""

import random

import chase_reference as ref
from conftest import (
    make_ef_program,
    make_nonterminating_program,
    make_sigma1_rewrite,
    make_tc_program,
    make_unfold_program,
    sigma1,
)
from homkit.chase import chase_datalog, chase_existential
from homkit.core import Element, Instance, Schema
from homkit.program import Atom, Program, Rule, tgd_compile

S_IN = Schema([("E", 2), ("U", 1)])
S_AUX = Schema([("T", 2), ("V", 1), ("W", 3), ("Z", 0)])
S_OUT = Schema([("O", 2), ("Q", 1)])
HEAD_RELS = S_AUX.relations + S_OUT.relations
VARS = ("x", "y", "z", "w")


def _atom(rng, rels, pool) -> Atom:
    rel, arity = rng.choice(rels)
    args = [rng.choice(pool) for _ in range(arity)]
    if arity >= 2 and rng.random() < 0.2:
        args[1] = args[0]  # a variable repeated inside one atom
    return Atom(rel, tuple(args))


def _rule(rng, head_rels, body_rels, existential: bool) -> Rule:
    pool = VARS[:rng.randint(1, 3)]
    first = S_IN.relations if rng.random() < 0.7 else body_rels
    body = (_atom(rng, first, pool),) + tuple(
        _atom(rng, body_rels, pool) for _ in range(rng.randint(0, 2)))
    body_vars = sorted({v for a in body for v in a.args})
    exts = ()
    if existential:
        exts = ("e1", "e2")[:rng.choice((0, 1, 1, 2))]
    pool = body_vars + list(exts)
    if not pool:
        head_rels = [(rel, 0) for rel, arity in head_rels if arity == 0] \
            or [("Z", 0)]
    heads = tuple(_atom(rng, head_rels, pool)
                  for _ in range(len(head_rels) if existential else 1))
    if existential and exts and rng.random() < 0.2:
        exts += ("e3",)  # an existential variable in no head atom
    return Rule(heads, body, exts)


def _program(rng, existential: bool) -> Program:
    """Rules whose bodies read the input and the aux relations that some
    rule derives, so most programs derive facts and many recurse."""
    n = rng.randint(1, 4)
    heads = [rng.sample(HEAD_RELS, rng.choice((1, 1, 2)) if existential
                        else 1) for _ in range(n)]
    derived = {rel for hs in heads for rel, _ in hs}
    body_rels = S_IN.relations + tuple(
        (rel, arity) for rel, arity in S_AUX.relations if rel in derived)
    return Program(S_IN, S_OUT, S_AUX,
                   [_rule(rng, hs, body_rels, existential) for hs in heads])


def _instance(rng, schema=S_IN) -> Instance:
    size = rng.choice((0, 1, 1, 2, 3, 4))
    elems = [Element.named(f"a{i}") for i in range(size)]
    facts = []
    if elems:
        for rel, arity in schema.relations:
            for _ in range(rng.randint(0, 3 * size)):
                facts.append((rel, tuple(rng.choice(elems)
                                         for _ in range(arity))))
    return Instance(schema, elems, facts)


def _summary(res):
    return (repr(res.full), sorted(e.ser for e in res.full.domain),
            res.steps, res.terminated)


def test_datalog_matches_reference():
    rng = random.Random(2302)
    for _ in range(300):
        P = _program(rng, existential=False)
        for _ in range(3):
            I = _instance(rng)
            assert _summary(chase_datalog(P, I)) == \
                _summary(ref.chase_datalog(P, I)), (str(P.rules), I)


def test_bounded_existential_matches_reference():
    rng = random.Random(6366)
    for _ in range(300):
        P = _program(rng, existential=True)
        for _ in range(3):
            I = _instance(rng)
            got = chase_existential(P, I, mode="bounded", budget=4)
            want = ref.chase_existential(P, I, mode="bounded", budget=4)
            assert _summary(got) == _summary(want), (str(P.rules), I)


def test_worked_programs_match_reference():
    rng = random.Random(7)
    programs = [make_tc_program(), make_unfold_program(), make_ef_program(),
                make_sigma1_rewrite(), tgd_compile(list(sigma1())),
                make_nonterminating_program()]
    for P in programs:
        for _ in range(20):
            I = _instance(rng, P.s_in)
            if P.is_datalog:
                assert _summary(chase_datalog(P, I)) == \
                    _summary(ref.chase_datalog(P, I)), I
            got = chase_existential(P, I, mode="bounded", budget=4)
            want = ref.chase_existential(P, I, mode="bounded", budget=4)
            assert _summary(got) == _summary(want), I


def test_generator_covers_the_listed_shapes():
    rng = random.Random(6366)
    rules = [r for _ in range(300)
             for r in _program(rng, existential=True).rules]
    assert any(len(r.head_atoms) > 1 for r in rules)
    assert any(len(set(a.args)) < len(a.args)
               for r in rules for a in r.body_atoms)
    assert any(len(r.existentials) >= 2 for r in rules)
    assert any(set(r.existentials) - r.head_vars() for r in rules)


def test_unheaded_existential_fires_on_empty_domain():
    # B() already holds when the second rule is visited, but no element can
    # witness e, so the rule still fires and its null becomes the domain
    s_in = Schema([("A", 0)])
    P = Program(s_in, Schema([("B", 0)]), Schema([]),
                [Rule((Atom("B", ()),), (Atom("A", ()),)),
                 Rule((Atom("B", ()),), (Atom("A", ()),), ("e",))])
    I = Instance(s_in, [], [("A", ())])
    for chase in (chase_existential, ref.chase_existential):
        res = chase(P, I, mode="bounded", budget=4)
        assert _summary(res) == (
            "Instance(|dom|=1 A() B())", ["_n1"], 1, True)
