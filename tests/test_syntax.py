"""Parsers, printers, round trips, and JSON rendering."""

import json

import pytest

from conftest import make_tc_program, sigma1, sigma2
from homkit.automata import parse_automaton, parse_term, print_automaton
from homkit.automata import leaf, node
from homkit.core import Element, HomkitError, Instance, Schema
from homkit.program import Atom
from homkit.syntax import (
    ParseError,
    dumps,
    instance_json,
    parse_instance,
    parse_program,
    parse_query,
    parse_tgds,
    print_instance,
    print_program,
    print_query,
    print_tgds,
    program_json,
)
from homkit.ucq import CQ, UCQ
from conftest import make_edge_automaton


PROGRAM_TEXT = """\
program
in: E/2
out: Ans/2
aux: T/2 @1
rules
Ans(x,y) :- T(x,y).
T(x,y) :- E(x,y).
T(x,z) :- E(x,y), T(y,z).
"""


def test_program_round_trip():
    P = parse_program(PROGRAM_TEXT)
    assert print_program(P) == PROGRAM_TEXT
    assert parse_program(print_program(P)).canonical_key() == \
        P.canonical_key()


def test_program_round_trip_from_object():
    P = make_tc_program()
    assert parse_program(print_program(P)).canonical_key() == \
        P.canonical_key()


def test_program_with_existentials_round_trip():
    text = ("program\nin: R_in/2\nout: R_out/2\naux: R/2\nrules\n"
            "R(x,y) :- R_in(x,y).\n"
            "exists z : R(y,z) :- R(x,y).\n"
            "R_out(x,y) :- R(x,y).\n")
    P = parse_program(text)
    assert not P.is_datalog
    # printing is canonical (rules sorted), so compare after one cycle
    printed = print_program(P)
    assert print_program(parse_program(printed)) == printed
    assert parse_program(printed).canonical_key() == P.canonical_key()


def test_program_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_program("program\nin: E/2\nout: A/1\nrules\nA(x) :- F(x).\n")
    assert "line" in str(exc.value)
    with pytest.raises(ParseError):
        parse_program("nonsense")


def test_instance_round_trip():
    text = ("instance over E/2\ndomain: a b c\nE(a,b).\nE(b,c).\n"
            "points: a c\n")
    I = parse_instance(text)
    assert print_instance(I) == text
    assert len(I.domain) == 3 and len(I.points) == 2


def test_instance_commas_accepted():
    I = parse_instance("instance over E/2\ndomain: a, b\nE(a,b).\n")
    assert len(I.domain) == 2


def test_instance_isolated_elements_survive():
    I = parse_instance("instance over E/2\ndomain: a b z\nE(a,b).\n")
    assert len(I.domain) == 3
    assert parse_instance(print_instance(I)).domain == I.domain


def test_pair_element_round_trip():
    b, c = Element.named("b"), Element.named("c")
    pair = Element.pair(b, frozenset([("S", (b, c))]))
    I = Instance(Schema([("E", 2)]), [pair, c], [("E", (pair, c))])
    text = print_instance(I)
    assert parse_instance(text).domain == I.domain
    assert print_instance(parse_instance(text)) == text


def test_tgd_round_trip_canonical():
    for sigma in (sigma1(), sigma2()):
        text = print_tgds(list(sigma))
        back = parse_tgds(text)
        assert print_tgds(back) == text
        assert [t.canonical_str() for t in back] == \
            [t.canonical_str() for t in sorted(
                sigma, key=lambda t: t.canonical_str())]


def test_query_round_trip():
    q = UCQ("q", 2, (CQ(("x", "y"),
                        (Atom("E", ("x", "u")), Atom("F", ("u", "y")))),))
    text = print_query(q)
    back = parse_query(text)
    assert back.arity == 2 and len(back.disjuncts) == 1
    assert print_query(back) == text


def test_query_parse_example():
    q = parse_query("query q/2\n(x,y) :- E(x,u), F(u,y).\n")
    assert q.name == "q" and q.arity == 2
    assert q.schema().arity("E") == 2


def test_automaton_round_trip():
    A = make_edge_automaton()
    text = print_automaton(A)
    assert print_automaton(parse_automaton(text)) == text


def test_term_round_trip():
    t = node("E", 1, [leaf(["X1"]), node("E", 2, [leaf(), leaf(["X1"])])])
    assert parse_term(str(t)) == t
    with pytest.raises(ParseError):
        parse_term("E@1({X1}")


def test_json_rendering_stable():
    P = make_tc_program()
    payload = dumps(program_json(P))
    assert payload == dumps(program_json(P))
    parsed = json.loads(payload)
    assert parsed["in"] == {"E": 2}
    I = parse_instance("instance over E/2\ndomain: a b\nE(a,b).\n")
    j = instance_json(I)
    assert j["facts"] == ["E(a,b)"] and j["points"] == []


CONFLICTING = [
    (parse_instance, "instance over E/1, E/2\nE(a,b).\n"),
    (parse_program,
     "program\nin: E/1, E/2\nout: Ans/0\nrules\nAns() :- E(x,y).\n"),
    (parse_automaton,
     "automaton over E/1, E/2\nlabels: X1\nstates: q0\naccept: q0\n"
     "leaf {} -> q0\n"),
]


@pytest.mark.parametrize("parse, text", CONFLICTING,
                         ids=("instance", "program", "automaton"))
def test_conflicting_arities_are_rejected(parse, text):
    with pytest.raises(HomkitError, match="conflicting arities"):
        parse(text)
    # a repeated declaration with the same arity is accepted
    parse(text.replace("E/1, E/2", "E/2, E/2"))
