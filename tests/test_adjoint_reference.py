"""Differential test: ``adjoint.tam_adjoint``, which reads each rule's body
matches off the pair elements' fact sets, and ``duality.fold_reduce`` agree
exactly with the versions kept in ``adjoint_reference.py``, which search
every assignment of a rule's free variables over D.  Members, their order
and iota must be equal, or both must raise the same error."""

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
from homkit.adjoint import tam_adjoint
from homkit.core import Element, HomkitError, Instance, Schema
from homkit.duality import fold_reduce
from homkit.program import Atom, Program, Rule, classify
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
        res = construct(P, J, cap=cap)
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
