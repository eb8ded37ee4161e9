"""Classification, normal forms, reductions, unfoldings, compilation."""

import contextlib
import random
import signal

import pytest

from conftest import (
    digraph,
    make_disconnected_program,
    make_ef_program,
    make_loop_rule_program,
    make_sigma1_rewrite,
    make_symmetric_closure,
    make_tc_program,
    make_unfold_program,
    rel_instance,
    sigma1,
    sigma2,
)
from homkit.chase import run_program
from homkit.core import Element, Instance, Schema, isomorphic, \
    structure_report
from homkit.program import (
    Atom,
    ProgramError,
    Program,
    Rule,
    canonical_instance,
    classify,
    instance_to_input,
    monadic_reduction,
    monadic_to_tam,
    pultr_compile,
    restrict_output,
    tgd_compile,
    to_simple_tam,
    unfoldings,
)
from homkit.syntax import parse_program
from homkit.ucq import CQ


def test_classify_tc(tc_program):
    cls = classify(tc_program)
    assert cls.tam and cls.connected and cls.tree_shaped
    assert cls.almost_monadic and not cls.monadic
    assert cls.weakly_acyclic


def test_classify_ef_program():
    cls = classify(make_ef_program())
    assert cls.tree_shaped and not cls.almost_monadic and not cls.tam


def test_classify_loop_rule():
    cls = classify(make_loop_rule_program())
    assert not cls.tree_shaped and cls.monadic


def test_classify_compiled_theories():
    c2 = classify(tgd_compile(list(sigma2())))
    assert c2.strongly_linear and not c2.weakly_acyclic
    c1 = classify(tgd_compile(list(sigma1())))
    assert not c1.tam and c1.weakly_acyclic
    cr = classify(make_sigma1_rewrite())
    assert cr.tam


def test_classify_shape_matches_the_canonical_instance():
    # classify reads tree-shapedness and connectedness off each body's
    # incidence links; the structure report of the body's canonical
    # instance (where a repeated atom is one fact) must agree
    rng = random.Random(20)
    s_in = Schema([("A", 0), ("U", 1), ("E", 2), ("T", 3)])
    for _ in range(2000):
        body = []
        for _ in range(rng.randint(1, 5)):
            if body and rng.random() < 0.15:
                body.append(rng.choice(body))
            else:
                rel, arity = rng.choice(s_in.relations)
                body.append(Atom(rel, tuple(rng.choice("xyzw")
                                            for _ in range(arity))))
        P = Program(s_in, Schema([("Ans", 0)]), Schema([]),
                    [Rule((Atom("Ans", ()),), tuple(body))])
        cls = classify(P)
        rep = structure_report(canonical_instance(tuple(body), s_in))
        assert (cls.tree_shaped, cls.connected) == \
            (rep.acyclic, rep.connected), body


def test_classify_symmetric_closure():
    cls = classify(make_symmetric_closure())
    assert cls.tam and cls.connected


def test_classify_disconnected():
    cls = classify(make_disconnected_program())
    assert not cls.connected and cls.tree_shaped


def test_restrict_output_drops_other_heads():
    P = Program(
        Schema([("E", 2)]), Schema([("A", 1), ("B", 1)]), Schema([]),
        [Rule((Atom("A", ("x",)),), (Atom("E", ("x", "y")),)),
         Rule((Atom("B", ("y",)),), (Atom("E", ("x", "y")),))])
    Q = restrict_output(P, "A")
    assert Q.s_out.names == ("A",)
    assert all(r.head_atoms[0].rel != "B" for r in Q.rules)


def test_to_simple_tam_preserves_semantics(tc_program):
    simple = to_simple_tam(tc_program)
    cls = classify(simple)
    assert cls.simple and cls.tam
    from homkit.oracle import programs_equivalent_bounded
    assert programs_equivalent_bounded(tc_program, simple, B=3)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _star_program(body: str) -> Program:
    return parse_program(
        f"program\nin: U/1, E/2\nout: Ans/1\nrules\nAns(x) :- {body}.\n")


@pytest.mark.parametrize("body", ["U(x), E(x,y), E(x,z)",
                                  "E(x,y), E(x,z), E(x,w)"])
def test_to_simple_tam_splits_star_bodies(body):
    # x occurs in three atoms, so the atom graph has a triangle; the split
    # runs on the incidence forest and every piece keeps an input atom
    P = _star_program(body)
    with _deadline(20):
        simple = to_simple_tam(P)
    assert classify(simple).simple
    rng = random.Random(8)
    elems = [Element.named(n) for n in "abcd"]
    for _ in range(15):
        facts = [("E", (u, v)) for u in elems for v in elems
                 if rng.random() < 0.3]
        facts += [("U", (u,)) for u in elems if rng.random() < 0.5]
        I = Instance(P.s_in, elems, facts)
        assert run_program(simple, I).output.facts == \
            run_program(P, I).output.facts


def test_to_simple_tam_drops_repeated_atoms():
    with _deadline(20):
        assert to_simple_tam(_star_program("E(x,y), E(x,y), E(y,z)")) == \
            to_simple_tam(_star_program("E(x,y), E(y,z)"))


def test_unfoldings_two_instances():
    P = make_unfold_program()
    us = unfoldings(P, "R", 2)
    assert len(us) == 2
    a, b, c = (Element.named(s) for s in "abc")
    expect1 = Instance(P.s_in, [a, b, c],
                       [("U", (a, b)), ("U", (b, c))], (a, a))
    expect2 = Instance(P.s_in, [a, b], [("S", (a, b))], (a, b))
    for expected in (expect1, expect2):
        assert any(isomorphic(u, expected) for u in us)


def test_unfoldings_keep_pointed_non_isomorphic_rules():
    # the two bodies differ only in facts closed by a point, which the
    # isomorphism dedupe must still compare
    P = parse_program(
        "program\nin: E/2\nout: Q/2\nrules\n"
        "Q(a,b) :- E(a,a), E(a,d), E(b,a), E(c,d).\n"
        "Q(d,c) :- E(a,b), E(c,b), E(c,d), E(d,d).\n")
    us = unfoldings(P, "Q", 1)
    assert len(us) == 2
    assert not isomorphic(us[0], us[1])


def test_unfoldings_characterize_output(tc_program):
    # derivation of Ans(a,c) on a path is witnessed by a pointed unfolding
    from homkit.core import find_homomorphism
    us = unfoldings(tc_program, "Ans", 3)
    I = digraph([("a", "b"), ("b", "c")])
    a = next(e for e in I.domain if e.ser == "a")
    c = next(e for e in I.domain if e.ser == "c")
    assert any(find_homomorphism(u, I.with_points((a, c))) is not None
               for u in us)


def test_tgd_compile_shape():
    P = tgd_compile(list(sigma1()))
    assert P.s_in.names == ("R_in",) and P.s_out.names == ("R_out",)
    assert P.s_aux.names == ("R",)
    I = rel_instance("R", 2, [("a", "b"), ("b", "c")])
    res = run_program(P, instance_to_input(I, P))
    got = {(x.ser, y.ser) for rel, (x, y) in res.output.facts}
    assert got == {("a", "b"), ("b", "c"), ("a", "c")}


def test_tgd_compile_name_collision():
    from homkit.program import TGD
    bad = TGD((Atom("R", ("x", "y")),), (Atom("R_in", ("x", "y")),))
    with pytest.raises(ProgramError):
        tgd_compile([bad])


def test_monadic_reduction_biconditional(tc_program):
    Pp = monadic_reduction(tc_program, "Ans")
    cls = classify(Pp)
    assert cls.monadic and cls.boolean_program
    I = digraph([("a", "b"), ("b", "c")])
    res = run_program(tc_program, I)
    derived = {(x.ser, y.ser) for rel, (x, y) in res.output.facts}
    q1 = next(r for r in Pp.s_in.names if r.startswith("Q1"))
    q2 = next(r for r in Pp.s_in.names if r.startswith("Q2"))
    for x in "abc":
        for y in "abc":
            ex, ey = Element.named(x), Element.named(y)
            J = Instance(Pp.s_in, I.domain,
                         list(I.facts) + [(q1, (ex,)), (q2, (ey,))])
            ans = any(rel == Pp.s_out.names[0]
                      for rel, _ in run_program(Pp, J).output.facts)
            assert ans == ((x, y) in derived), (x, y)


def test_monadic_to_tam_round_trip(tc_program):
    Pp = monadic_reduction(tc_program, "Ans")
    q_rels = sorted(r for r in Pp.s_in.names if r not in tc_program.s_in)
    back = monadic_to_tam(Pp, q_rels)
    assert back.s_out.relations[0][1] == 2
    I = digraph([("a", "b"), ("b", "c")])
    want = {(x.ser, y.ser)
            for rel, (x, y) in run_program(tc_program, I).output.facts}
    got = {(x.ser, y.ser)
           for rel, (x, y) in run_program(back, I).output.facts}
    assert got == want


def test_pultr_compile_arc_functor():
    # vertices = edges of the input; arcs = consecutive edge pairs
    phi_v = CQ(("x", "y"), (Atom("E", ("x", "y")),))
    phi_e = CQ(("x", "y", "y", "z"),
               (Atom("E", ("x", "y")), Atom("E", ("y", "z"))))
    P = pultr_compile(phi_v, phi_e)
    assert classify(P).weakly_acyclic
    I = digraph([("a", "b"), ("b", "c")])
    inp = instance_to_input(I.with_schema(Schema([("E", 2)])), P)
    full = Instance(P.s_in, inp.domain,
                    list(inp.facts) +
                    ([("V_in", (e,)) for e in inp.domain]
                     if "V_in" in P.s_in else []))
    res = run_program(P, full)
    # the arc graph of a 2-edge path has exactly one edge
    arcs = [args for rel, args in res.output.facts if rel == "E_out"]
    assert len(arcs) == 1
