"""``chase.chase_theory`` against the pipeline it replaced, the schema
moves of compiled dependency sets against the checked ``Instance``
construction, and the cached ``Program.terminates`` against
``classify``."""

import random

import pytest

from conftest import (
    digraph,
    make_disconnected_program,
    make_ef_program,
    make_loop_rule_program,
    make_nonterminating_program,
    make_path_program,
    make_sigma1_rewrite,
    make_symmetric_closure,
    make_tc_program,
    make_unfold_program,
    rel_instance,
    sigma1,
    sigma2,
)
from homkit.chase import chase_existential, chase_theory, run_program
from homkit.core import Element, Instance, Schema, SchemaMismatch
from homkit.program import (
    TGD,
    Atom,
    classify,
    input_to_instance,
    instance_to_input,
    instance_to_output,
    output_to_instance,
    tgd_compile,
    tgd_schema,
)
from test_chase_reference import _program, _recursive_program

E = Schema([("E", 2)])
# an inclusion dependency into a second relation: weakly acyclic
INCLUSION = (TGD((Atom("E", ("x", "y")),), (Atom("F", ("y", "z")),),
                 ("z",)),)
THEORIES = {"sigma1": sigma1("E"), "sigma2": sigma2("E"),
            "inclusion": INCLUSION}


def _reference(sigma, A: Instance, rounds):
    """The hand-written pipeline: rename into R_in, chase, rename R_out
    back onto the base schema, restore A's points."""
    base = tgd_schema(sigma).union(A.schema)
    P = tgd_compile(list(sigma), base)
    I = instance_to_input(A.with_points(()), P)
    if rounds is None:
        res = run_program(P, I)
    else:
        res = chase_existential(P, I, mode="bounded", budget=rounds)
    out = output_to_instance(res.output, base)
    return out.with_points(A.points), res.terminated


def _pointed_instance(rng) -> Instance:
    size = rng.choice((0, 1, 2, 2, 3, 4))
    elems = [Element.named(f"a{i}") for i in range(size)]
    facts = [("E", (rng.choice(elems), rng.choice(elems)))
             for _ in range(rng.randint(0, 2 * size))]
    k = rng.choice((0, 1, 2)) if elems else 0
    # some points are isolated elements, which the chase must keep
    points = tuple(rng.choice(elems) for _ in range(k))
    return Instance(E, elems, facts, points)


def test_terminates_matches_classify():
    programs = [
        make_tc_program(), make_unfold_program(), make_ef_program(),
        make_loop_rule_program(), make_symmetric_closure(),
        make_disconnected_program(), make_sigma1_rewrite(),
        make_nonterminating_program(),
    ]
    programs += [make_path_program(n) for n in (1, 2, 3)]
    programs += [tgd_compile(sigma) for sigma in THEORIES.values()]
    rng = random.Random(5)
    programs += [_program(rng, existential=False) for _ in range(100)]
    programs += [_program(rng, existential=True) for _ in range(200)]
    programs += [_recursive_program(rng) for _ in range(100)]
    seen = set()
    for P in programs:
        want = P.is_datalog or classify(P).weakly_acyclic
        assert P.terminates is want, [str(r) for r in P.rules]
        assert P.terminates is want  # the cached value
        seen.add((P.is_datalog, want))
    assert seen == {(True, True), (False, True), (False, False)}


def test_chase_theory_matches_pipeline():
    rng = random.Random(11)
    for name, sigma in THEORIES.items():
        P = tgd_compile(sigma, tgd_schema(sigma).union(E))
        assert P.terminates is (name != "sigma2")
        for _ in range(150):
            A = _pointed_instance(rng)
            for rounds in (None, 0, 1, 2, 5):
                if rounds is None and not P.terminates:
                    continue  # no caller asks for a fixpoint here
                got = chase_theory(P, A, rounds)
                want = _reference(sigma, A, rounds)
                assert got == want, (name, A, rounds)
                assert repr(got[0]) == repr(want[0])
                assert got[0].points == A.points


def _checked_rename(I: Instance, mapping: dict, schema: Schema) -> Instance:
    """The checked construction the schema moves replaced: every renamed
    fact validated against ``schema``."""
    return Instance(schema, I.domain,
                    [(mapping.get(r, r), args) for r, args in I.facts],
                    I.points)


def test_schema_moves_match_the_checked_construction():
    """The four schema moves of a compiled dependency set equal the checked
    construction, on instances over the whole base and over a sub-schema
    of it (the base adds U/1 to each theory's relations)."""
    rng = random.Random(23)
    for name, sigma in THEORIES.items():
        base = tgd_schema(sigma).union(Schema([("E", 2), ("U", 1)]))
        P = tgd_compile(sigma, base)
        to_in = {r: f"{r}_in" for r in base.names}
        to_out = {r: f"{r}_out" for r in base.names}
        for _ in range(60):
            A = _pointed_instance(rng)
            U = [("U", (e,)) for e in sorted(A.domain) if rng.random() < .5]
            for X in (A, Instance(base, A.domain, A.facts | set(U),
                                  A.points)):
                inp = instance_to_input(X, P)
                assert inp == _checked_rename(X, to_in, P.s_in), name
                back = input_to_instance(inp, base)
                assert back == _checked_rename(
                    inp, {v: r for r, v in to_in.items()}, base)
                out = instance_to_output(X, P)
                assert out == _checked_rename(X, to_out, P.s_out), name
                assert output_to_instance(out, base) == back == \
                    X.with_schema(base)


def test_schema_moves_still_check_the_retarget():
    """A move onto a schema with another arity, or without a relation that
    holds facts, raises; a relation without facts may be left behind."""
    P = tgd_compile(sigma1("E"))
    for bad in (rel_instance("E", 3, [("a", "b", "c")]),
                rel_instance("F", 2, [("a", "b")])):
        for move in (instance_to_input, instance_to_output):
            with pytest.raises(SchemaMismatch):
                move(bad, P)
    A = digraph([("a", "b")])
    with pytest.raises(SchemaMismatch):
        input_to_instance(instance_to_input(A, P), Schema([("E", 3)]))
    with pytest.raises(SchemaMismatch):
        output_to_instance(instance_to_output(A, P), Schema([("F", 2)]))
    wider = A.with_schema(Schema([("E", 2), ("F", 2)]))
    assert instance_to_input(wider, P) == instance_to_input(A, P)


def test_chase_theory_builds_no_checked_instance(monkeypatch):
    """On a valid instance, every schema move of ``chase_theory`` and the
    chase itself build their instances unchecked."""
    cases = [(tgd_compile(sigma, tgd_schema(sigma).union(E)), rounds)
             for sigma in THEORIES.values() for rounds in (None, 3)]
    A = digraph([("a", "b"), ("b", "c")], extra=["d"], points=("d", "a"))
    calls = []
    init = Instance.__init__

    def counted(inst, *args, **kwargs):
        calls.append(args)
        init(inst, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counted)
    for P, rounds in cases:
        if rounds is None and not P.terminates:
            continue
        chased, _ = chase_theory(P, A, rounds)
        assert chased.points == A.points and A.facts <= chased.facts
    assert calls == []
