"""Differential test: ``program._split_rule``, which splits a rule body on
its incidence forest with one union-find, returns exactly the option lists
of the atom-graph walks it replaced, kept below verbatim as the reference,
on tree-shaped bodies in which every variable occurs in at most two atoms.
Where a variable occurs in three or more atoms (a star), the atom graph has
a triangle and the reference can leave a group empty; there the test asks
only that every option is a proper split."""

import itertools
import random

from homkit import program
from homkit.program import Atom, Rule

IN_RELS = {"E": 2, "U": 1, "F": 3, "Z": 0}
AUX_RELS = {"T": 2, "A": 1}
# the nullary Z is drawn rarely, as it always makes its own component
RELS = sorted((rel, n) for rel, n in {**IN_RELS, **AUX_RELS}.items() if n)


# ---------------------------------------------------------------------------
# The atom-graph walks (the reference)
# ---------------------------------------------------------------------------


def _atom_forest(body: tuple[Atom, ...]) -> dict[int, list[tuple[int, str]]]:
    """Adjacency of the body's atom graph: atoms sharing a variable.

    For an acyclic rule body two atoms share at most one variable and this
    graph is a forest.  Returns adjacency {atom index: [(other, shared var)]}.
    """
    adj: dict[int, list[tuple[int, str]]] = {i: [] for i in range(len(body))}
    for i, j in itertools.combinations(range(len(body)), 2):
        shared = set(body[i].args) & set(body[j].args)
        if shared:
            v = sorted(shared)[0]
            adj[i].append((j, v))
            adj[j].append((i, v))
    return adj


def _split_rule(rule: Rule, in_names: set[str]):
    """Candidate splits of a body with >= 2 input-atom occurrences into two
    atom groups sharing at most one variable ``z``, each keeping at least one
    input atom.  Returns a list of (group1, group2, z) orientations."""
    body = rule.body_atoms
    adj = _atom_forest(body)
    inputs = [i for i, a in enumerate(body) if a.rel in in_names]

    # connected components of the atom graph
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for i in range(len(body)):
        if i in comp_of:
            continue
        comp = []
        stack = [i]
        comp_of[i] = len(comps)
        while stack:
            n = stack.pop()
            comp.append(n)
            for m, _ in adj[n]:
                if m not in comp_of:
                    comp_of[m] = len(comps)
                    stack.append(m)
        comps.append(sorted(comp))

    input_comps = sorted({comp_of[i] for i in inputs})
    if len(input_comps) >= 2:
        # input atoms in different components: split along components,
        # no shared variable
        first = input_comps[0]
        group1 = comps[first]
        group2 = [i for i in range(len(body)) if comp_of[i] != first]
        return [(group1, group2, None), (group2, group1, None)]

    # all input atoms share one component: cut an edge on the path between
    # the first two input atoms; other components stay with group 1
    start, goal = inputs[0], inputs[1]
    prev: dict[int, tuple[int, str]] = {start: (-1, "")}
    stack = [start]
    while stack:
        n = stack.pop()
        if n == goal:
            break
        for m, v in sorted(adj[n]):
            if m not in prev:
                prev[m] = (n, v)
                stack.append(m)
    # edges on the path between the two input atoms
    path = []
    n = goal
    while n != start:
        p, v = prev[n]
        path.append((p, n, v))
        n = p
    path.reverse()

    options = []
    for cut_parent, cut_child, z in path:
        # side of cut_child after removing the cut edge (the atom graph
        # restricted to a component is a tree, so skipping the cut edge
        # separates the two sides)
        side = {cut_child}
        stack = [cut_child]
        while stack:
            n = stack.pop()
            for m, _ in adj[n]:
                if n == cut_child and m == cut_parent:
                    continue
                if m not in side:
                    side.add(m)
                    stack.append(m)
        g2 = sorted(side)
        g1 = [i for i in range(len(body)) if i not in side]
        options.append((g1, g2, z))
        options.append((g2, g1, z))
    return options


# ---------------------------------------------------------------------------
# Seeded tree-shaped bodies
# ---------------------------------------------------------------------------


def _random_body(rng: random.Random, max_uses: int):
    """A Berge-acyclic body of 2-7 distinct atoms with at least two input
    atoms, in which no variable occurs in more than ``max_uses`` atoms nor
    twice in one atom; None when the draw misses."""
    atoms, uses, fresh = [], {}, itertools.count()
    for _ in range(rng.randint(2, 7)):
        rel, arity = ("Z", 0) if rng.random() < 0.05 else rng.choice(RELS)
        args = [f"v{next(fresh)}" for _ in range(arity)]
        # join at most one position to a variable of an earlier atom, so
        # the incidence graph stays a forest
        free = [v for v, n in uses.items() if n < max_uses]
        if args and free and rng.random() < 0.9:
            args[rng.randrange(arity)] = rng.choice(free)
        for v in args:
            uses[v] = uses.get(v, 0) + 1
        atoms.append(Atom(rel, tuple(args)))
    rng.shuffle(atoms)
    if len(set(atoms)) < len(atoms) or \
            sum(a.rel in IN_RELS for a in atoms) < 2:
        return None
    return Rule((Atom("Ans", ()),), tuple(atoms))


def _bodies(seed: int, count: int, max_uses: int, star: bool):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        rule = _random_body(rng, max_uses)
        if rule is None:
            continue
        uses = {}
        for a in rule.body_atoms:
            for v in a.args:
                uses[v] = uses.get(v, 0) + 1
        if star == (max(uses.values(), default=0) >= 3):
            found.append(rule)
    return found


def test_forest_bodies_match_reference():
    shapes = set()
    for rule in _bodies(seed=8, count=2500, max_uses=2, star=False):
        options = program._split_rule(rule, set(IN_RELS))
        assert options == _split_rule(rule, set(IN_RELS)), rule
        shapes.add((options[0][2] is None, len(options)))
    # both branches run, and paths of one to three cuts
    assert {(True, 2), (False, 2), (False, 4), (False, 6)} <= shapes


def _assert_proper(rule: Rule, options):
    body = rule.body_atoms
    assert options
    for g1, g2, z in options:
        assert g1 and g2 and sorted(g1 + g2) == list(range(len(body)))
        for group in (g1, g2):
            assert any(body[i].rel in IN_RELS for i in group), rule
        vars1 = {v for i in g1 for v in body[i].args}
        vars2 = {v for i in g2 for v in body[i].args}
        assert vars1 & vars2 <= {z}, rule


def test_star_bodies_split_properly():
    rules = _bodies(seed=9, count=1000, max_uses=4, star=True)
    for rule in rules:
        _assert_proper(rule, program._split_rule(rule, set(IN_RELS)))


def test_star_body_split_is_not_degenerate():
    # U(x), E(x,y), E(x,z): the atom graph is a triangle, and the reference
    # leaves group 1 empty on its only cut
    rule = Rule((Atom("Ans", ("x",)),),
                (Atom("U", ("x",)), Atom("E", ("x", "y")),
                 Atom("E", ("x", "z"))))
    assert _split_rule(rule, set(IN_RELS))[0][0] == []
    options = program._split_rule(rule, set(IN_RELS))
    _assert_proper(rule, options)
    assert options == [([0, 2], [1], "x"), ([1], [0, 2], "x")]
