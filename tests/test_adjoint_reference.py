"""Differential test: ``adjoint.tam_adjoint``, which reads each rule's body
matches off the pair elements' fact sets, and ``duality.fold_reduce`` agree
exactly with the versions kept in ``adjoint_reference.py``, which search
every assignment of a rule's free variables over D.  Members, their order
and iota must be equal, or both must raise the same error.  So must
``adjoint.sl_adjoint``, which asks the chase's join for head witnesses,
and its reference, which tries every assignment of a rule's existentials;
and ``program.articulation_search``, one product over the candidate
positions, must return its recursive reference's first witness."""

import pathlib
import random

import adjoint_reference as ref
import pytest

from conftest import (
    make_disconnected_program,
    make_path_program,
    make_sigma1_rewrite,
    make_symmetric_closure,
    make_tc_program,
    make_unfold_program,
)
from homkit.adjoint import sl_adjoint, tam_adjoint
from homkit.core import Element, HomkitError, Instance, Schema, budget
from homkit.duality import fold_reduce
from homkit.program import (
    Atom,
    Program,
    Rule,
    articulation_search,
    classify,
)
from homkit.syntax import parse_program

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "fixtures"

PROGRAMS = {
    "disconnected": make_disconnected_program(),
    "path1": make_path_program(1),
    "path2": make_path_program(2),
    "path3": make_path_program(3),
    "path4": make_path_program(4),
    "rewrite": make_sigma1_rewrite(),
    "symmetric": make_symmetric_closure(),
    "tc": make_tc_program(),
    "unfold": make_unfold_program(),
}
PROGRAMS.update({f"fixture-{path.stem}": parse_program(path.read_text())
                 for path in sorted(FIXTURES.glob("*.dl"))})


def _instance(rng, schema: Schema, max_elems: int, max_facts: int):
    dom = [Element.named(c) for c in "abcde"[:rng.randint(1, max_elems)]]
    facts = [(rel, tuple(rng.choice(dom) for _ in range(arity)))
             for rel, arity in schema.relations
             for _ in range(rng.randint(0, max_facts))]
    return Instance(schema, dom, facts)


def _outcome(construct, P: Program, J: Instance, cap: int):
    """Members as (canonical key, iota) in order, or the raised error."""
    try:
        with budget(facts=cap):
            res = construct(P, J)
    except HomkitError as exc:
        return type(exc).__name__, str(exc)
    return res.method, [(m.canonical_key(), repr(sorted(iota.items())))
                        for m, iota in res.members]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fixture_programs(name):
    P = PROGRAMS[name]
    rng = random.Random(name)
    for _ in range(12):
        J = _instance(rng, P.s_out, 2, 3)
        assert _outcome(tam_adjoint, P, J, 10 ** 6) == \
            _outcome(ref.tam_adjoint, P, J, 10 ** 6)


S_IN = Schema([("E", 2), ("U", 1)])
S_AUX = Schema([("T", 2), ("V", 1)])
S_OUT = Schema([("O", 2), ("Q", 1)])


def _rule(rng) -> Rule:
    """An input atom, up to two aux atoms hanging off its variables (each
    T atom binds a fresh variable), sometimes a second input atom and
    sometimes a disconnected U atom; the head reads body variables."""
    body = [Atom("E", ("x", "y")) if rng.random() < 0.7
            else Atom("U", ("x",))]
    anchors = body[0].args
    fresh = iter(("u", "v"))
    for _ in range(rng.choice((0, 1, 1, 2))):
        a = rng.choice(anchors)
        body.append(Atom("T", (a, next(fresh))) if rng.random() < 0.6
                    else Atom("V", (a,)))
    if rng.random() < 0.15:
        body.append(Atom("U", (rng.choice(anchors),)))
    if rng.random() < 0.1:
        body.append(Atom("U", ("z",)))
    pool = sorted({v for atom in body for v in atom.args})
    rel, arity = rng.choice(S_AUX.relations + S_OUT.relations)
    head = Atom(rel, tuple(rng.choice(pool) for _ in range(arity)))
    return Rule((head,), tuple(body))


def _tam_programs(seed: int, count: int):
    rng = random.Random(seed)
    while count:
        rules = [_rule(rng) for _ in range(rng.randint(1, 4))]
        P = Program(S_IN, S_OUT, S_AUX, rules,
                    {"T": 1} if rng.random() < 0.5 else {})
        if classify(P).tam:
            count -= 1
            yield P, rng


def test_random_tam_programs():
    built = 0
    for P, rng in _tam_programs(7, 100):
        J = _instance(rng, S_OUT, 2, 3)
        got = _outcome(tam_adjoint, P, J, 20000)
        assert got == _outcome(ref.tam_adjoint, P, J, 20000), P.rules
        built += got[0] == "tam" and any(key[2] for key, _ in got[1])
    # most cases build members with facts, not only errors
    assert built >= 60


def test_fold_reduce():
    rng = random.Random(11)
    schema = Schema([("E", 2), ("U", 1)])
    for _ in range(2000):
        inst = _instance(rng, schema, 5, 4)
        dom = sorted(inst.domain)
        points = tuple(rng.choice(dom) for _ in range(rng.randint(0, 2)))
        inst = inst.with_points(points)
        assert fold_reduce(inst) == ref.fold_reduce(inst), inst


SL_IN = Schema([("A", 1), ("E", 2)])
SL_AUX = Schema([("T", 2), ("V", 1)])
SL_OUT = Schema([("O", 2), ("Q", 1)])


def _sl_rule(rng) -> Rule:
    """A repetition-free body atom over the input or aux schema, up to two
    existentials (some in no head atom) and one or two head atoms over the
    aux or output schema."""
    rel, arity = rng.choice(SL_IN.relations + SL_AUX.relations)
    body = Atom(rel, tuple(rng.sample(("x", "y", "z"), arity)))
    exts = tuple(rng.sample(("u", "v"), rng.choice((0, 0, 1, 2))))
    pool = list(body.args + exts)
    head = []
    for _ in range(rng.choice((1, 1, 2))):
        rel, arity = rng.choice(SL_AUX.relations + SL_OUT.relations)
        head.append(Atom(rel, tuple(rng.choice(pool) for _ in range(arity))))
    return Rule(tuple(head), (body,), exts)


def _sl_outcome(construct, P: Program, J: Instance):
    res = construct(P, J)
    return res.method, [(m.canonical_key(), repr(sorted(iota.items())))
                        for m, iota in res.members]


def test_random_sl_programs():
    rng = random.Random(13)
    with_facts = 0
    for _ in range(400):
        P = Program(SL_IN, SL_OUT, SL_AUX,
                    [_sl_rule(rng) for _ in range(rng.randint(1, 4))])
        assert classify(P).strongly_linear
        J = _instance(rng, SL_OUT, 2, 3)
        got = _sl_outcome(sl_adjoint, P, J)
        assert got == _sl_outcome(ref.sl_adjoint, P, J), (P.rules, J)
        with_facts += bool(got[1][0][0][2])
    # most members keep some input facts
    assert with_facts >= 300


ART_IN = Schema([("E", 2), ("U", 1)])
ART_AUX = Schema([("T", 2), ("V", 1), ("W", 3)])


def _art_program(rng) -> Program:
    """Random rules over a small variable pool, with some articulation
    positions declared."""
    rules = []
    for _ in range(rng.randint(1, 3)):
        body = []
        for _ in range(rng.randint(1, 3)):
            rel, arity = rng.choice(ART_IN.relations + ART_AUX.relations)
            body.append(Atom(rel, tuple(rng.choice("xyzw")
                                        for _ in range(arity))))
        pool = sorted({v for atom in body for v in atom.args})
        rel, arity = rng.choice(ART_AUX.relations + (("O", 2),))
        head = Atom(rel, tuple(rng.choice(pool) for _ in range(arity)))
        rules.append(Rule((head,), tuple(body)))
    declared = {rel: rng.randint(1, arity)
                for rel, arity in ART_AUX.relations if rng.random() < 0.2}
    return Program(ART_IN, Schema([("O", 2)]), ART_AUX, rules, declared)


def test_random_articulation_search():
    rng = random.Random(17)
    found = 0
    for _ in range(3000):
        P = _art_program(rng)
        for total in (False, True):
            got = articulation_search(P, total=total)
            assert got == ref.articulation_search(P, total=total), \
                (P.rules, P.articulation, total)
            found += got is not None
    # both outcomes occur often
    assert 1000 <= found <= 5000
