"""Differential test: ``automata.accepted_cover``, which computes the state
sets of every root index of a kid tuple once from its kids' sets and
builds no tree for a term with an accepted or covered kid, and
``automata.run_states`` agree exactly with the versions kept in
``automata_reference.py``.  Covers must be equal ``repr`` for ``repr`` and
in order; state sets must be equal on every enumerated term."""

import itertools
import random

import automata_reference as ref
import pytest

from conftest import (
    make_edge_automaton,
    make_empty_automaton,
    make_label_automaton,
)
from homkit.automata import (
    TreeAutomaton,
    accepted_cover,
    enumerate_terms,
    run_states,
)
from homkit.core import Schema

BINARY = Schema([("E", 2)])
UNARY = Schema([("F", 1), ("G", 1)])
MIXED = Schema([("E", 2), ("F", 1)])


def _random_automaton(rng, schema: Schema, labels: tuple) -> TreeAutomaton:
    """A nondeterministic automaton with 1-3 states, a random nonempty
    accepting set, and some label sets reaching no state.  Leaves seldom
    reach an accepting state, so that covers hold trees with facts."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    accepting = frozenset(rng.sample(states, rng.randint(1, len(states))))
    leaf_delta = {}
    for r in range(len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            qs = frozenset(q for q in states if rng.random() <
                           (0.1 if q in accepting else 0.7))
            if qs:
                leaf_delta[frozenset(combo)] = qs
    trans = {}
    for rel, arity in schema.relations:
        for i in range(1, arity + 1):
            trans[(rel, i)] = frozenset(
                (qs, q) for qs in itertools.product(states, repeat=arity)
                for q in states if rng.random() < 0.4)
    return TreeAutomaton(schema, labels, states, accepting, leaf_delta,
                         trans)


def _assert_same(A: TreeAutomaton, depth: int):
    for t in enumerate_terms(A.schema, A.labels, depth):
        assert run_states(A, t) == ref.run_states(A, t), str(t)
    assert [repr(K) for K in accepted_cover(A, depth)] == \
        [repr(K) for K in ref.accepted_cover(A, depth)]


@pytest.mark.parametrize("make", [make_edge_automaton, make_empty_automaton,
                                  make_label_automaton])
def test_fixture_automata(make):
    for depth in (0, 1, 2):
        _assert_same(make(), depth)


def test_random_automata_over_a_binary_relation():
    rng = random.Random(1301)
    for _ in range(100):
        _assert_same(_random_automaton(rng, BINARY, ("X1",)), 2)


def test_random_automata_over_unary_relations():
    rng = random.Random(1302)
    for _ in range(200):
        _assert_same(_random_automaton(rng, UNARY, ("X1", "X2")), 3)


def test_random_automata_over_mixed_arities():
    # terms of two relations and two arities reach the per-kid-tuple step
    # memo one after another
    rng = random.Random(2301)
    for _ in range(100):
        _assert_same(_random_automaton(rng, MIXED, ("X1",)), 2)


def test_empty_automaton_at_depth_3():
    # the benchmark's depth; the label and edge automata take several
    # seconds each in the reference there
    A = make_empty_automaton()
    assert accepted_cover(A, 3) == ref.accepted_cover(A, 3) == []
