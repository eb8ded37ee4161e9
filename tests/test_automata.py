"""Tree-terms, automata, their algebra, and Datalog compilation."""

import itertools
import tracemalloc

import pytest

from conftest import (
    make_edge_automaton,
    make_empty_automaton,
    make_label_automaton,
)
from homkit import automata
from homkit.automata import (
    AutomatonError,
    accepted_cover,
    automaton_to_datalog,
    complement,
    determinize,
    enumerate_terms,
    leaf,
    node,
    parse_automaton,
    print_automaton,
    project,
    run,
    run_states,
    term_to_tree,
    tree_to_term,
    union,
)
from homkit.chase import run_program
from homkit.core import CapExceeded, Schema, find_homomorphism, isomorphic
from homkit.program import classify

S = Schema([("E", 2)])
FULL = S.union(Schema([("X1", 1)]))
LABELS = ("X1",)


def has_x1(t):
    if t.op == "leaf":
        return "X1" in t.labels
    return any(has_x1(c) for c in t.children)


def test_term_validation():
    with pytest.raises(AutomatonError):
        node("E", 3, [leaf(), leaf()])
    with pytest.raises(AutomatonError):
        node("E", 1, [])


def test_term_to_tree_shapes():
    t = node("E", 2, [leaf(["X1"]), leaf()])
    T = term_to_tree(t, FULL)
    assert len(T.domain) == 2 and len(T.points) == 1
    rels = sorted(rel for rel, _ in T.facts)
    assert rels == ["E", "X1"]
    # the point is the root of child 2, which carries no label
    assert all(args[0] != T.points[0] for rel, args in T.facts
               if rel == "X1")


def list_filter_terms(schema, labels, depth):
    """The quadratic enumeration that ``enumerate_terms`` replaced: each
    level rebuilds every earlier term and filters it out by list
    membership."""
    labels = sorted(labels)
    leaves = []
    for r in range(len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            leaves.append(leaf(combo))
    level = list(leaves)
    yield from level
    all_terms = list(level)
    for _ in range(depth):
        new = []
        for rel, arity in schema.relations:
            if arity == 0:
                continue
            for kids in itertools.product(all_terms, repeat=arity):
                for i in range(1, arity + 1):
                    new.append(node(rel, i, kids))
        fresh = [t for t in new if t not in all_terms]
        yield from fresh
        all_terms += fresh
        if not fresh:
            break


def test_enumerate_terms_matches_list_filter_reference():
    cases = [(S, LABELS, 2),
             (Schema([("E", 2), ("F", 1), ("Z", 0)]), ("X1", "X2"), 2),
             (Schema([("T", 3), ("E", 2)]), (), 2)]
    for schema, labels, depth in cases:
        got = list(enumerate_terms(schema, labels, depth))
        assert got == list(list_filter_terms(schema, labels, depth))
        assert len(got) == len(set(got))
    assert len(list(enumerate_terms(S, LABELS, 2))) == 202


def test_enumerate_terms_builds_checked_equal_nodes_at_depth_3():
    # internal terms skip __post_init__; each equals the checked build
    count = 0
    for t in enumerate_terms(S, LABELS, 3):
        count += 1
        if t.op == "node":
            rebuilt = node(t.rel, t.index, t.children)
            assert t == rebuilt and hash(t) == hash(rebuilt)
    assert count == 81_610


def test_enumerate_terms_keeps_no_deepest_level():
    # the 81,408 terms of height 3 are yielded as they are built; holding
    # them in a list first peaked at 12.8 MB
    tracemalloc.start()
    try:
        for _ in enumerate_terms(S, LABELS, 3):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tree_term_round_trip():
    for t in enumerate_terms(S, LABELS, 2):
        T = term_to_tree(t, FULL)
        back = tree_to_term(T, LABELS)
        assert isomorphic(term_to_tree(back, FULL), T)


def test_tree_to_term_rejects_cycles():
    t = node("E", 1, [leaf(), leaf()])
    T = term_to_tree(t, FULL)
    from homkit.core import Instance
    v1, v2 = sorted(T.domain)
    bad = Instance(T.schema, T.domain,
                   list(T.facts) + [("E", (v2, v1))], T.points)
    with pytest.raises(AutomatonError):
        tree_to_term(bad, LABELS)


def test_run_semantics():
    A_x1 = make_label_automaton()
    A_edge = make_edge_automaton()
    A_empty = make_empty_automaton()
    for t in enumerate_terms(S, LABELS, 2):
        assert run(A_x1, t) == has_x1(t)
        assert run(A_edge, t) == (t.op == "node")
        assert not run(A_empty, t)


def test_determinize_singleton_states():
    det = determinize(make_label_automaton())
    for t in enumerate_terms(S, LABELS, 2):
        assert len(run_states(det, t)) == 1
        assert run(det, t) == has_x1(t)


def test_complement_and_de_morgan():
    A, B = make_label_automaton(), make_edge_automaton()
    notA = complement(A)
    u = union(A, B)
    not_u = complement(u)
    # complement(A or B) agrees with (not A) and (not B)
    notB = complement(B)
    for t in enumerate_terms(S, LABELS, 2):
        assert run(notA, t) == (not run(A, t))
        assert run(not_u, t) == (not run(A, t) and not run(B, t))
        assert run(notB, t) == (not run(B, t))
    assert all(run(complement(notA), t) == run(A, t)
               for t in enumerate_terms(S, LABELS, 2))


def test_complement_cap():
    with pytest.raises(CapExceeded):
        determinize(make_label_automaton(), cap=1)


def test_project_drops_labels():
    A = make_label_automaton()
    P0 = project(A, ())
    # every label-free term is the projection of some accepted term
    for t in enumerate_terms(S, (), 2):
        assert run(P0, t)


def test_automaton_text_round_trip():
    for A in (make_label_automaton(), make_edge_automaton(),
              make_empty_automaton()):
        text = print_automaton(A)
        assert print_automaton(parse_automaton(text)) == text


def test_compiled_program_classification():
    for A in (make_label_automaton(), make_edge_automaton(),
              make_empty_automaton()):
        P = automaton_to_datalog(A)
        cls = classify(P)
        assert cls.connected and cls.monadic and cls.tree_shaped
        assert cls.boolean_program


def test_compiled_program_small_biconditional():
    from homkit.oracle import enumerate_instances
    A = make_edge_automaton()
    P = automaton_to_datalog(A)
    cover = accepted_cover(A, 2)
    for I in enumerate_instances(FULL, 2):
        ans = ("Ans", ()) in set(
            run_program(P, I.with_schema(P.s_in)).output.facts)
        hit = any(find_homomorphism(K, I) is not None for K in cover)
        assert ans == hit


def test_accepted_cover_minimal():
    cover = accepted_cover(make_label_automaton(), 2)
    assert len(cover) == 1 and len(cover[0].facts) == 1
    assert accepted_cover(make_empty_automaton(), 2) == []


def _consumed(monkeypatch, A, depth) -> int:
    """How many terms ``accepted_cover(A, depth)`` takes from
    ``enumerate_terms``."""
    consumed = 0
    real = automata.enumerate_terms

    def counted(*args):
        nonlocal consumed
        for t in real(*args):
            consumed += 1
            yield t

    monkeypatch.setattr(automata, "enumerate_terms", counted)
    accepted_cover(A, depth)
    return consumed


@pytest.mark.parametrize("make", [make_label_automaton, make_edge_automaton,
                                  make_empty_automaton])
def test_accepted_cover_consumes_every_term(monkeypatch, make):
    # the benchmark's traced count of automata.terms relies on this
    assert _consumed(monkeypatch, make(), 2) == 202


@pytest.mark.parametrize("make", [make_label_automaton, make_edge_automaton,
                                  make_empty_automaton])
def test_accepted_cover_consumes_every_term_at_depth_3(monkeypatch, make):
    # the depth the benchmark counts
    assert _consumed(monkeypatch, make(), 3) == 81_610


def test_accepted_cover_builds_no_tree_above_an_accepted_term(monkeypatch):
    # only the 8 single-edge terms have no accepted proper subterm
    built = []
    real = automata.term_to_tree

    def counted(t, schema):
        built.append(t)
        return real(t, schema)

    monkeypatch.setattr(automata, "term_to_tree", counted)
    assert len(accepted_cover(make_edge_automaton(), 2)) == 1
    assert len(built) == 8
    assert all(c.op == "leaf" for t in built for c in t.children)
