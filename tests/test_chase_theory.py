"""``chase.chase_theory`` against the pipeline it replaced, and the cached
``Program.terminates`` against ``classify``."""

import random

from conftest import (
    make_disconnected_program,
    make_ef_program,
    make_loop_rule_program,
    make_nonterminating_program,
    make_path_program,
    make_sigma1_rewrite,
    make_symmetric_closure,
    make_tc_program,
    make_unfold_program,
    sigma1,
    sigma2,
)
from homkit.chase import chase_existential, chase_theory, run_program
from homkit.core import Element, Instance, Schema
from homkit.program import (
    TGD,
    Atom,
    classify,
    instance_to_input,
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
