"""The accepted cover and the bottom-up run as they were before the cover
read each term's state set off its kids' sets, kept verbatim as slow
references.

``test_automata_reference.py`` checks that ``homkit.automata`` agrees
with these functions exactly.  Here ``run_states`` re-runs every subterm
from the leaves, and ``accepted_cover`` runs every enumerated term and
builds the tree of every accepted one, even when one of its subterms was
accepted earlier.
"""

from __future__ import annotations

from homkit.automata import (
    AutomatonError,
    TreeAutomaton,
    TreeTerm,
    enumerate_terms,
    term_to_tree,
)
from homkit.core import Instance, Schema, find_homomorphism


def accepted_cover(A: "TreeAutomaton", depth: int) -> list:
    """Homomorphism-minimal trees of the accepted terms up to the given
    depth.

    Some accepted tree of depth <= depth maps into an instance I exactly
    when some member of the cover does, so the cover is a compact witness
    set for bounded-depth language hits."""
    full = A.schema.union(Schema([(x, 1) for x in A.labels]))
    kept: list[Instance] = []
    for t in enumerate_terms(A.schema, A.labels, depth):
        if not run(A, t):
            continue
        T = term_to_tree(t, full).with_points(())
        if any(find_homomorphism(K, T) is not None for K in kept):
            continue
        kept = [K for K in kept if find_homomorphism(T, K) is None]
        kept.append(T)
    return kept


def run_states(A: TreeAutomaton, t: TreeTerm) -> frozenset:
    """The set of states reachable at the root of a term."""
    if t.op == "leaf":
        if not t.labels <= set(A.labels):
            raise AutomatonError("term labels outside the automaton's X")
        return frozenset(A.leaf_delta.get(frozenset(t.labels), frozenset()))
    child_states = [run_states(A, c) for c in t.children]
    out = set()
    for qs, q in A.trans.get((t.rel, t.index), frozenset()):
        if all(qi in si for qi, si in zip(qs, child_states)):
            out.add(q)
    return frozenset(out)


def run(A: TreeAutomaton, t: TreeTerm) -> bool:
    return bool(run_states(A, t) & A.accepting)
