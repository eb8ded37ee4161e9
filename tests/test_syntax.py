"""Parsers, printers, round trips, and JSON rendering."""

import json
import random

import pytest

from conftest import make_tc_program, sigma1, sigma2
from homkit.automata import parse_automaton, parse_term, print_automaton
from homkit.automata import leaf, node
from homkit.core import Element, HomkitError, Instance, Schema
from homkit.program import Atom
from homkit.syntax import (
    MAX_NESTING,
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
    for text, message in [
            ("E@1({X1}", "line 1, column 9: expected \\)"),
            ("E@1({},{}){}", "line 1, column 11: trailing text"),
            ("E@x({})", "line 1, column 3: expected root index"),
            ("E@3({},{})", "line 1, column 3: root index 3 out of range "
                           "1\\.\\.2"),
            ("E@2({},E@0({}))", "line 1, column 10: root index 0 out")]:
        with pytest.raises(ParseError, match=message):
            parse_term(text)


def test_deep_nesting_raises_parse_errors():
    # the recursive readers stop at MAX_NESTING levels, at the token that
    # opens the level past it, instead of running out of stack
    depth = MAX_NESTING + 1
    term = "E@1(" * 1000 + "{}" + ")" * 1000
    with pytest.raises(ParseError, match=f"line 1, column {4 * depth}: "
                                         "nesting deeper than 100 levels"):
        parse_term(term)
    inner = "b"
    for _ in range(400):
        inner = f"(b|{{E({inner})}})"
    with pytest.raises(ParseError, match=f"line 2, column {6 * depth - 3}: "
                                         "nesting deeper"):
        parse_instance(f"instance over R/1\nR({inner}).\n")
    # MAX_NESTING levels still read, and print back as they were read
    term = "E@1(" * MAX_NESTING + "{}" + ")" * MAX_NESTING
    assert str(parse_term(term)) == term
    inner = "b"
    for _ in range(MAX_NESTING):
        inner = f"(b|{{E({inner})}})"
    text = f"instance over R/1\ndomain: {inner}\nR({inner}).\n"
    assert print_instance(parse_instance(text)) == text


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


AUTOMATON_TEXT = """\
automaton over E/2
labels: X1
states: q0 q1
accept: q1
leaf {} -> q0
trans E 1 (q0,q0) -> q1
"""


@pytest.mark.parametrize("old, new, line, col, message", [
    ("E/2", "E/x", 1, 18, "expected arity, found 'x'"),
    ("E/2", "E/2/3", 1, 19,
     "expected labels:, states:, accept:, leaf or trans"),
    ("E 1", "E one", 6, 9, "expected root index, found 'one'"),
    ("-> q0", "-> q0 -> q1", 5, 15,
     "expected labels:, states:, accept:, leaf or trans"),
    ("-> q1", "-> q1 -> q0", 6, 25,
     "expected labels:, states:, accept:, leaf or trans"),
    ("q0 q1", "q0 q-1", 3, 13, "unexpected character '-'"),
], ids=("arity", "double-slash", "root-index", "leaf-arrows",
        "trans-arrows", "state-spelling"))
def test_malformed_automata_raise_parse_errors(old, new, line, col,
                                               message):
    with pytest.raises(ParseError) as exc:
        parse_automaton(AUTOMATON_TEXT.replace(old, new, 1))
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"line {line}, column {col}: {message}"


def test_automaton_names_run_to_the_end_of_their_line():
    # a name list ends with its line, so states may be numerals or spell
    # a keyword; a comment may follow anything
    text = ("automaton over E/2 # one relation\n"
            "labels: X1, X2\nstates: 0 leaf\naccept: leaf\n"
            "leaf {X1,X2} -> 0 # both labels\n"
            "trans E 2 (0,leaf) -> leaf\n")
    A = parse_automaton(text)
    assert A.labels == ("X1", "X2") and A.states == ("0", "leaf")
    assert A.accepting == frozenset(["leaf"])
    assert A.trans == {("E", 2): frozenset([(("0", "leaf"), "leaf")])}
    assert parse_automaton(print_automaton(A)) == A
    with pytest.raises(ParseError, match="line 3, column 1: expected"):
        parse_automaton("automaton over E/2\nstates: q0\nq1\n")


MUTATION_ALPHABET = "abxyzEFRTUX0129 \n\t,.:;()[]{}/@|-><#_=*q"


def _mutations(text: str, count: int, rng: random.Random):
    """``count`` copies of ``text``, each with 1-3 random character
    insertions, deletions or replacements."""
    for _ in range(count):
        t = text
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(t) + 1)
            c = rng.choice(MUTATION_ALPHABET)
            t = rng.choice((t[:i] + c + t[i:], t[:i] + t[i + 1:],
                            t[:i] + c + t[i + 1:]))
        yield t


def _format_texts():
    b, c = Element.named("b"), Element.named("c")
    pair = Element.pair(b, frozenset([("S", (b, c))]))
    instance = Instance(Schema([("E", 2), ("S", 2)]),
                        [pair, c, Element.null(3)],
                        [("E", (pair, c)), ("S", (Element.null(3), c))],
                        (c,))
    term = node("E", 1, [leaf(["X1"]), node("E", 2, [leaf(), leaf(["X1"])])])
    query = parse_query("query q/2\n(x,y) :- E(x,u), F(u,y).\n")
    return [
        (parse_program, PROGRAM_TEXT),
        (parse_instance, print_instance(instance)),
        (parse_tgds, print_tgds(list(sigma1()) + list(sigma2("S")))),
        (parse_query, print_query(query)),
        (parse_automaton, AUTOMATON_TEXT),
        (parse_term, str(term)),
    ]


def test_mutated_texts_raise_only_homkit_errors():
    rng = random.Random(2020)
    leaks = []
    for parse, text in _format_texts():
        parse(text)
        for mutant in _mutations(text, 300, rng):
            try:
                parse(mutant)
            except HomkitError:
                pass
            except Exception as exc:  # anything else is a parser fault
                leaks.append((parse.__name__, mutant, repr(exc)))
    assert leaks == []
