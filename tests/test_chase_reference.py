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


def _connected_body(rng, rels, n: int) -> tuple:
    """n atoms over x, y, z, each sharing a variable with the atoms before
    it, so that joins stay small as the chase grows."""
    body, used = [], []
    for _ in range(n):
        rel, arity = rng.choice(rels)
        args = [rng.choice(VARS[:3]) for _ in range(arity)]
        if used and arity and not set(args) & set(used):
            args[rng.randrange(arity)] = rng.choice(used)
        used += args
        body.append(Atom(rel, tuple(args)))
    return tuple(body)


def _recursive_program(rng) -> Program:
    """A program whose chase grows a T-chain by one null per round at each
    end: a seed rule feeds T from the input, one existential "spine" rule
    extends T forward (T(y,e)) or backward (T(e,x)), possibly only where a
    derived V holds and with more head atoms, and up to three other rules
    derive V, W, Z, O and Q from connected bodies, with existentials only
    in heads no body reads.  The rules come in random order."""
    seed = rng.choice([
        Rule((Atom("T", ("x", "y")),), (Atom("E", ("x", "y")),)),
        Rule((Atom("T", ("y", "x")),), (Atom("E", ("x", "y")),)),
        Rule((Atom("T", ("x", "x")),), (Atom("U", ("x",)),)),
        Rule((Atom("T", ("x", "e")),), (Atom("U", ("x",)),), ("e",)),
    ])
    body = [Atom("T", ("x", "x") if rng.random() < 0.2 else ("x", "y"))]
    forward = rng.random() < 0.6
    end = body[0].args[1] if forward else body[0].args[0]
    if rng.random() < 0.4:
        body.append(Atom("V", (end,)))
    heads = [Atom("T", (end, "e") if forward else ("e", end))]
    pool = sorted({v for a in body for v in a.args}) + ["e"]
    for _ in range(rng.choice((0, 1, 1, 2))):
        heads.append(_atom(rng, (("V", 1), ("W", 3), ("Q", 1), ("O", 2),
                                 ("Z", 0)), pool))
    rules = [seed, Rule(tuple(heads), tuple(body), ("e",))]
    readable = S_IN.relations + (("T", 2), ("V", 1), ("W", 3))
    for _ in range(rng.randint(1, 3)):
        body = _connected_body(rng, readable, rng.choice((1, 1, 2)))
        pool = sorted({v for a in body for v in a.args})
        if rng.random() < 0.5:
            rels = (("V", 1), ("W", 3), ("Z", 0), ("O", 2), ("Q", 1))
            rules.append(Rule((_atom(rng, rels, pool),), body))
            continue
        exts = ("e1",) if rng.random() < 0.8 else ("e1", "e2")
        heads = tuple(_atom(rng, (("O", 2), ("Q", 1), ("Z", 0)),
                            pool + ["e1"])
                      for _ in range(rng.choice((1, 2))))
        rules.append(Rule(heads, body, exts))
    rng.shuffle(rules)
    return Program(S_IN, S_OUT, S_AUX, rules)


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


def test_deep_bounded_existential_matches_reference():
    rng = random.Random(5150)
    deep = 0
    for _ in range(200):
        P = _recursive_program(rng)
        I = _instance(rng)
        budget = rng.randint(8, 40)
        got = chase_existential(P, I, mode="bounded", budget=budget)
        want = ref.chase_existential(P, I, mode="bounded", budget=budget)
        assert _summary(got) == _summary(want), (str(P.rules), I, budget)
        deep += got.steps >= 8
    assert deep >= 40  # many cases run past the budget of the test above


def test_bounded_chain_is_linear_in_the_budget():
    # R(x,y) -> exists z R(y,z) on one edge: one null per round, each rule
    # visit seeing only the fact the previous round added
    P = make_nonterminating_program()
    a, b = Element.named("a"), Element.named("b")
    res = chase_existential(P, Instance(P.s_in, [a, b], [("R_in", (a, b))]),
                            mode="bounded", budget=2000)
    assert res.steps == 2000 and res.terminated is False
    nulls = [Element.null(i) for i in range(1, 2001)]
    assert res.full.domain == {a, b, *nulls}
    chain = [a, b, *nulls]
    assert {f for f in res.full.facts if f[0] == "R"} == {
        ("R", pair) for pair in zip(chain, chain[1:])}


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
