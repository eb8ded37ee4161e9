"""UCQ evaluation and uniquely characterizing example sets."""

import itertools
import random

import pytest

from conftest import digraph, make_sigma1_rewrite, sigma1, sigma2
from homkit import oracle, ucq
from homkit.core import Element, Instance, Schema
from homkit.program import TGD, Atom
from homkit.ucq import (
    CQ,
    UCQ,
    ExampleSet,
    QueryError,
    canonical_instances,
    characterize,
    characterize_abox,
    evaluate,
    fits,
    is_c_acyclic,
    verify_characterization,
)


def two_path_query(rel: str = "E") -> UCQ:
    return UCQ("q", 0,
               (CQ((), (Atom(rel, ("x", "y")), Atom(rel, ("y", "z")))),))


def naive_evaluate(q: UCQ, A: Instance) -> set:
    """All-assignments reference semantics."""
    elems = sorted(A.domain)
    facts = set(A.facts)
    answers = set()
    for cq in q.disjuncts:
        vs = sorted({v for a in cq.atoms for v in a.args})
        for combo in itertools.product(elems, repeat=len(vs)):
            asg = dict(zip(vs, combo))
            if all((a.rel, tuple(asg[v] for v in a.args)) in facts
                   for a in cq.atoms):
                answers.add(tuple(asg[v] for v in cq.answer_vars))
    return answers


def test_evaluate_matches_naive_random():
    rng = random.Random(11)
    q = UCQ("q", 2, (
        CQ(("x", "y"), (Atom("E", ("x", "u")), Atom("E", ("u", "y")))),
        CQ(("x", "x"), (Atom("E", ("x", "x")),)),
    ))
    names = ["a", "b", "c"]
    for _ in range(100):
        edges = [(x, y) for x in names for y in names
                 if rng.random() < 0.4]
        A = digraph(edges, extra=names)
        assert evaluate(q, A) == naive_evaluate(q, A)


def test_evaluate_monotone_under_homomorphism():
    # Boolean queries: a hom A -> B carries answers along
    rng = random.Random(13)
    q = two_path_query()
    from homkit.core import find_homomorphism
    names = ["a", "b", "c"]
    for _ in range(60):
        e1 = [(x, y) for x in names for y in names if rng.random() < 0.3]
        e2 = [(x, y) for x in names for y in names if rng.random() < 0.5]
        A, B = digraph(e1, extra=names), digraph(e2, extra=names)
        h = find_homomorphism(A, B)
        if h is None:
            continue
        if evaluate(q, A):
            assert evaluate(q, B)


def test_evaluate_schema_mismatch():
    q = two_path_query("F")
    with pytest.raises(QueryError):
        evaluate(q, digraph([("a", "b")]))


def test_canonical_instances_and_acyclicity():
    q = UCQ("q", 1, (CQ(("x",), (Atom("E", ("x", "y")),)),))
    (ci,) = canonical_instances(q)
    assert len(ci.points) == 1 and len(ci.facts) == 1
    assert is_c_acyclic(q)
    loopq = UCQ("l", 0, (CQ((), (Atom("E", ("x", "x")),)),))
    assert not is_c_acyclic(loopq)
    pointed_loop = UCQ("l", 1, (CQ(("x",), (Atom("E", ("x", "x")),)),))
    assert is_c_acyclic(pointed_loop)


def test_fits_model_mode():
    q = two_path_query()
    pos = (digraph([("a", "b"), ("b", "c")]).with_points(()),)
    neg = (digraph([("a", "b")]).with_points(()),)
    ex = ExampleSet(pos, neg, mode="model")
    assert fits(q, ex)
    swapped = ExampleSet(neg, pos, mode="model")
    assert not fits(q, swapped)


def test_characterize_model_mode():
    q = two_path_query()
    ex = characterize(q, sigma1("E"),
                      adjoint_program=make_sigma1_rewrite("E"))
    assert ex.mode == "model" and ex.positives and ex.negatives
    assert fits(q, ex)
    v = verify_characterization(q, ex, B=3)
    assert v.passed, v.explanation


def test_characterize_abox_mode():
    q = two_path_query()
    ex = characterize_abox(q, sigma2("E"))
    assert ex.mode == "abox"
    assert fits(q, ex)
    v = verify_characterization(q, ex, B=2)
    assert v.passed, v.explanation


def test_characterize_abox_unary_query():
    # pointed examples under a non-terminating theory: the ABox check
    # meets pointed instances whose point is an isolated element
    q = UCQ("q", 1, (CQ(("x",), (Atom("E", ("x", "y")),)),))
    ex = characterize_abox(q, sigma2("E"))
    assert fits(q, ex)
    v = verify_characterization(q, ex, B=2)
    assert v.passed, v.explanation


def test_characterize_empty_theory():
    q = UCQ("e", 0, (CQ((), (Atom("E", ("x", "y")),)),))
    ex = characterize(q, ())
    v = verify_characterization(q, ex, B=3)
    assert v.passed, v.explanation


def test_characterization_rejects_corrupted_examples():
    q = two_path_query()
    ex = characterize(q, ())
    # flip one negative into a positive: the query no longer fits
    corrupted = ExampleSet(ex.positives + (ex.negatives[0],),
                           ex.negatives, mode="model")
    v = verify_characterization(q, corrupted, B=3)
    assert not v.passed and not v.unknown
    assert v.counterexample is corrupted.positives[-1]


def chain_example_set(n: int) -> ExampleSet:
    """Under E(x,y) -> exists z E(y,z) and Qi(x) -> Q(i-1)(x) for
    i = 1..n, the example {Qn(a), E(a,b)} pointed at a holds Q0(a) in the
    chase from round n on, while the E-chain never terminates."""
    sigma = sigma2("E") + tuple(
        TGD((Atom(f"Q{i}", ("x",)),), (Atom(f"Q{i - 1}", ("x",)),))
        for i in range(1, n + 1))
    schema = Schema([("E", 2), ("P", 1)] +
                    [(f"Q{i}", 1) for i in range(n + 1)])
    a, b = Element.named("a"), Element.named("b")
    A = Instance(schema, [a, b], [(f"Q{n}", (a,)), ("E", (a, b))], (a,))
    return ExampleSet((A,), (), mode="abox", theory=sigma)


Q0 = UCQ("q", 1, (CQ(("x",), (Atom("Q0", ("x",)),)),))
# P is in no chase of the example: that disjunct is a certain "no"
Q0_OR_P = UCQ("q", 1, Q0.disjuncts + (CQ(("x",), (Atom("P", ("x",)),)),))


@pytest.mark.parametrize("q", [Q0, Q0_OR_P])
def test_abox_fit_is_certain_on_a_hit_in_the_chase_prefix(q):
    assert fits(q, chain_example_set(20))


@pytest.mark.parametrize("q", [Q0, Q0_OR_P])
def test_abox_fit_is_unknown_on_a_miss_in_an_unfinished_chase(q):
    ex = chain_example_set(30)
    with pytest.raises(QueryError):
        fits(q, ex)
    v = verify_characterization(q, ex, B=1)
    assert not v.passed and v.unknown
    assert v.counterexample is ex.positives[0]


def test_abox_fits_compiles_once_and_chases_each_example_once(monkeypatch):
    q = two_path_query()
    ex = characterize_abox(q, sigma2("E"))
    compiled, chased = [], []
    real_compile, real_chase = ucq.tgd_compile, oracle.chase_theory

    def counted_compile(*args, **kwargs):
        compiled.append(1)
        return real_compile(*args, **kwargs)

    def counted_chase(P_sigma, X, *args, **kwargs):
        chased.append(id(X))
        return real_chase(P_sigma, X, *args, **kwargs)

    monkeypatch.setattr(ucq, "tgd_compile", counted_compile)
    monkeypatch.setattr(oracle, "chase_theory", counted_chase)
    assert fits(q, ex)
    assert len(compiled) == 1
    examples = ex.positives + ex.negatives
    assert all(chased.count(id(A)) == 1 for A in examples)
    # and each disjunct's canonical instance once
    assert len(chased) == len(examples) + len(q.disjuncts)


def test_abox_fit_stops_at_the_first_yes(monkeypatch):
    # the edge disjunct holds; the triangle disjunct would be "unknown" in
    # the never-terminating chase, so it must not be decided at all
    q = UCQ("q", 0, (
        CQ((), (Atom("E", ("x", "y")),)),
        CQ((), (Atom("E", ("x", "y")), Atom("E", ("y", "z")),
                Atom("E", ("z", "x"))))))
    ex = ExampleSet((digraph([("a", "b")]),), (), mode="abox",
                    theory=sigma2("E"))
    answers = []
    real_decide = oracle._abox_decide

    def counted_decide(*args):
        answers.append(real_decide(*args))
        return answers[-1]

    monkeypatch.setattr(oracle, "_abox_decide", counted_decide)
    assert fits(q, ex)
    assert answers == ["yes"]
