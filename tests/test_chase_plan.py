"""Differential test: ``chase._plan`` yields exactly what the recursive join
it replaced (``chase_reference._join`` and ``_matches``) yields, in the same
order, on seeded random stores and atom lists; and a program whose names
are not Python identifiers chases like the reference."""

import random

import chase_reference as ref
from homkit.chase import _body_matches, _body_plans, _plan, _Store, \
    chase_datalog, chase_existential
from homkit.core import Element, Instance, Schema
from homkit.program import Atom, Program, Rule

SCHEMA = Schema([("Z", 0), ("U", 1), ("E", 2), ("F", 2), ("T", 3)])
VARS = ("x", "y", "z", "w")


def _facts(rng) -> tuple:
    elems = [Element.named(f"a{i}") for i in range(rng.randint(1, 3))]
    facts = [(rel, tuple(rng.choice(elems) for _ in range(arity)))
             for rel, arity in SCHEMA.relations
             for _ in range(rng.randint(0, 6))]
    return elems, facts


def _atoms(rng) -> tuple:
    """Up to four atoms over four variables: repeats inside an atom are
    common at arity 3."""
    atoms = []
    for _ in range(rng.randint(0, 4)):
        rel, arity = rng.choice(SCHEMA.relations)
        atoms.append(Atom(rel, tuple(rng.choice(VARS)
                                     for _ in range(arity))))
    return tuple(atoms)


def _ref_steps(steps, store, delta, assignment):
    """The recursive join over (from_delta, atom) steps, one atom at a
    time."""
    if not steps:
        yield assignment
        return
    (from_delta, atom), rest = steps[0], steps[1:]
    for m in ref._join((atom,), delta if from_delta else store, assignment):
        yield from _ref_steps(rest, store, delta, m)


def test_plan_matches_recursive_join():
    rng = random.Random(1701)
    full_bound = 0
    for _ in range(3000):
        elems, facts = _facts(rng)
        store = ref._LookupStore(SCHEMA, facts)
        delta = ref._LookupStore(
            SCHEMA, rng.sample(facts, rng.randint(0, len(facts))))
        atoms = _atoms(rng)
        steps = tuple((rng.random() < 0.3, a) for a in atoms)
        bound = tuple(rng.sample(VARS, rng.randint(0, 4)))
        vals = [rng.choice(elems) for _ in bound]
        out = tuple(sorted({v for a in atoms for v in a.args} | set(bound)))
        want = [tuple(m[v] for v in out)
                for m in _ref_steps(steps, store, delta,
                                    dict(zip(bound, vals)))]
        got = list(_plan(steps, bound, out)(store, delta, *vals))
        assert got == want, (steps, bound, vals)
        full_bound += any(set(a.args) <= set(bound) for a in atoms)
    assert full_bound > 500  # membership tests are well covered


def test_pinned_body_matches_recursive_matches():
    rng = random.Random(1702)
    for _ in range(3000):
        _, facts = _facts(rng)
        store = ref._LookupStore(SCHEMA, facts)
        delta = None
        if rng.random() < 0.7:
            delta = ref._LookupStore(
                SCHEMA, rng.sample(facts, rng.randint(0, len(facts))))
        body = _atoms(rng)
        out = tuple(sorted({v for a in body for v in a.args}))
        want = [tuple(m[v] for v in out)
                for m in ref._matches(body, store, delta)]
        got = list(_body_matches(_body_plans(body, out), store, delta))
        assert got == want, (body, delta and delta.all_facts())


def test_empty_and_fully_bound_plans():
    a, b = Element.named("a"), Element.named("b")
    store = _Store(SCHEMA, [("E", (a, b)), ("Z", ())])
    assert list(_plan((), ("x", "y"), ("y", "x", "y"))(store, None, a, b)) \
        == [(b, a, b)]
    assert list(_body_matches(_body_plans((), ()), store, store)) == [()]
    edge = ((False, Atom("E", ("x", "y"))), (False, Atom("Z", ())))
    assert list(_plan(edge, ("x", "y"))(store, None, a, b)) == [()]
    assert list(_plan(edge, ("x", "y"))(store, None, b, a)) == []
    loop = ((False, Atom("E", ("x", "x"))),)
    assert list(_plan(loop, (), ("x",))(store, None)) == []
    store.add("E", (b, b))
    assert list(_plan(loop, (), ("x",))(store, None)) == [(b,)]


def test_names_that_are_not_identifiers_chase_like_the_reference():
    """Relation and variable names reach generated code only as string
    literals, so names that are not identifiers, or that are the plan's
    own local and parameter names, chase exactly as the reference does."""
    s_in = Schema([("R'1", 2), ("f0", 1)])
    s_aux = Schema([('T")', 2), ("store", 3)])
    s_out = Schema([("a b", 1)])
    x, y, z = "a b", "v0", "delta"
    rules = [
        Rule((Atom('T")', (x, y)),), (Atom("R'1", (x, y)),)),
        Rule((Atom('T")', (x, z)),),
             (Atom('T")', (x, y)), Atom("R'1", (y, z)))),
        Rule((Atom("a b", (x,)),), (Atom('T")', (x, x)), Atom("f0", (x,)))),
    ]
    P = Program(s_in, s_out, s_aux, rules)
    e = [Element.named(n) for n in ("p", "q", "r")]
    I = Instance(s_in, e, [("R'1", (e[0], e[1])), ("R'1", (e[1], e[2])),
                           ("R'1", (e[2], e[0])), ("f0", (e[1],))])
    got, want = chase_datalog(P, I), ref.chase_datalog(P, I)
    assert (got.full, got.steps) == (want.full, want.steps)
    assert got.output.facts == {("a b", (e[1],))}

    ex = Program(s_in, s_out, s_aux, rules[:1] + [
        Rule((Atom("store", (x, "_", "e 1")), Atom("a b", ("e 1",))),
             (Atom('T")', (x, y)), Atom("f0", (y,))), ("e 1", "_")),
    ])
    got = chase_existential(ex, I)
    want = ref.chase_existential(ex, I)
    assert (got.full, got.steps, sorted(d.ser for d in got.full.domain)) \
        == (want.full, want.steps, sorted(d.ser for d in want.full.domain))
    assert len(got.full.domain) > len(I.domain)


def test_long_bodies_chain_plans():
    """CPython refuses more than 20 nested blocks in one function, so a
    plan past that many atoms chains; a 25-atom path body, a 25-atom join
    with bound variables and repeats, and 25 fully bound atoms all join and
    chase like the reference."""
    n = 25
    path = tuple(Atom("E", (f"x{i}", f"x{i + 1}")) for i in range(n))
    ends = ("x0", f"x{n}")
    e = [Element.named(f"a{i}") for i in range(4)]
    cycle = [("E", (e[i], e[(i + 1) % 4])) for i in range(4)] \
        + [("E", (e[0], e[2]))]
    store = ref._LookupStore(SCHEMA, cycle)
    want = [tuple(m[v] for v in ends) for m in ref._join(path, store, {})]
    got = list(_plan(tuple((False, a) for a in path), (), ends)(store, None))
    assert got == want and len(want) > n

    rng = random.Random(1703)
    for _ in range(200):
        elems, facts = _facts(rng)
        store = ref._LookupStore(SCHEMA, facts)
        atoms = tuple(Atom(rel, tuple(rng.choice(VARS) for _ in range(ar)))
                      for rel, ar in (rng.choice(SCHEMA.relations)
                                      for _ in range(n)))
        steps = tuple((False, a) for a in atoms)
        bound = tuple(rng.sample(VARS, rng.randint(0, 4)))
        vals = [rng.choice(elems) for _ in bound]
        out = tuple(sorted({v for a in atoms for v in a.args} | set(bound)))
        want = [tuple(m[v] for v in out)
                for m in _ref_steps(steps, store, store,
                                    dict(zip(bound, vals)))]
        assert list(_plan(steps, bound, out)(store, None, *vals)) == want

    ring = tuple(Atom("E", (f"x{i}", f"x{(i + 1) % 4}")) for i in range(4))
    bound = ("x0", "x1", "x2", "x3")
    held = _plan(tuple((False, a) for a in ring * 7), bound)
    assert list(held(_Store(SCHEMA, cycle), None, *e)) == [()]
    assert list(held(_Store(SCHEMA, cycle), None, *e[::-1])) == []

    s_in, s_out = Schema([("E", 2)]), Schema([("Ans", 2)])
    P = Program(s_in, s_out, Schema([]),
                [Rule((Atom("Ans", ends),), path)])
    I = Instance(s_in, e, cycle)
    got, want = chase_datalog(P, I), ref.chase_datalog(P, I)
    assert (got.full, got.steps) == (want.full, want.steps)
    assert got.output.facts
