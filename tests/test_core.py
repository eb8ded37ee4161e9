"""Instances, homomorphisms, isomorphism, cores, structure reports."""

import copy
import gc
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

from conftest import digraph
import homkit
from homkit import core
from homkit.core import (
    BOTTOM,
    Budget,
    CapExceeded,
    Element,
    HomkitError,
    Instance,
    Schema,
    SchemaMismatch,
    adom_instance,
    budget,
    core_of,
    current_budget,
    find_homomorphism,
    isomorphic,
    structure_report,
)


def test_schema_basics():
    s = Schema([("E", 2), ("V", 1)])
    assert "E" in s and s.arity("E") == 2
    assert "W" not in s
    u = s.union(Schema([("W", 0)]))
    assert "W" in u and "E" in u
    with pytest.raises(SchemaMismatch):
        s.arity("W")
    # the lookup table is not a field: equality, hashing and repr see only
    # the sorted relations
    same = Schema({"V": 1, "E": 2})
    assert same == s and hash(same) == hash(s)
    assert repr(s) == "Schema(relations=(('E', 2), ('V', 1)))"
    # the names are stored once, not rebuilt on each read
    assert same.names == ("E", "V") and same.names is same.names
    assert s.restrict(["V"]).names == ("V",)


def test_elements_are_interned():
    """One object per serialization: named, null and pair elements built
    twice are the same object, a pair's facts in any order."""
    a, b = Element.named("a"), Element.named("b")
    assert Element.named("a") is a and Element("named", name="a") is a
    assert Element.null(7) is Element.null(7)
    assert Element.null(7) is not Element.null(8)
    facts = [("E", (a, b)), ("U", (a,)), ("E", (b, Element.null(3)))]
    p = Element.pair(a, facts)
    assert Element.pair(a, reversed(facts)) is p
    assert Element.pair(a, set(facts)) is p
    assert Element.pair(Element.named("a"), frozenset(facts[::-1])) is p
    assert Element.pair(p, [("U", (p,))]) is Element.pair(p, [("U", (p,))])
    assert Element.pair(b, facts) is not p
    # equality and hashing are identity, order is by serialization
    assert p == Element.pair(a, facts) and p != Element.pair(b, facts)
    assert hash(p) == object.__hash__(p)
    assert {a, Element.named("a"), b} == {a, b}
    assert sorted([b, Element.null(3), a, BOTTOM]) == \
        [BOTTOM, Element.null(3), a, b]
    assert "__eq__" not in Element.__dict__
    assert "__hash__" not in Element.__dict__


def test_reserved_spellings_are_no_names():
    """``_`` and ``(`` begin the spellings of bottom, nulls and pairs, so
    no named element may take them."""
    for name in ("_bot", "_n1", "_", "_x", "(a|{})"):
        with pytest.raises(HomkitError):
            Element.named(name)
    assert BOTTOM.kind == "bottom" and Element.null(1).kind == "null"


def test_pickle_and_copy_return_the_interned_element():
    a = Element.named("a")
    p = Element.pair(a, [("E", (a, Element.null(4)))])
    for e in (a, Element.null(4), BOTTOM, p):
        assert pickle.loads(pickle.dumps(e)) is e
        assert copy.copy(e) is e and copy.deepcopy(e) is e
    I = Instance(Schema([("E", 2)]), [a, p], [("E", (a, p))], (p,))
    for J in (pickle.loads(pickle.dumps(I)), copy.deepcopy(I)):
        assert J == I and J.points[0] is p
        assert next(iter(J.facts)) == ("E", (a, p))
        assert all(e is f for e, f in zip(J.sorted_domain(),
                                           I.sorted_domain()))


def test_unreferenced_elements_leave_the_intern_table():
    null = Element.null(987_654_321)
    pair = Element.pair(Element.named("leak_a"), [("U", (null,))])
    sers = [null.ser, pair.ser, "leak_a"]
    assert all(s in core._INTERNED for s in sers)
    del null, pair
    gc.collect()
    assert not any(s in core._INTERNED for s in sers)


def test_instance_rejects_bad_facts():
    a = Element.named("a")
    with pytest.raises(SchemaMismatch):
        Instance(Schema([("E", 2)]), [a], [("F", (a, a))])
    with pytest.raises(HomkitError):
        Instance(Schema([("E", 2)]), [a], [("E", (a, Element.named("b")))])


def test_unchecked_derived_instances_match_the_validated_build():
    """with_points, reduct, adom_instance, rename_relations and with_schema
    (into a schema keeping every relation) build without rechecking the
    facts: each must equal the validated build, a point outside the domain
    is still rejected, and so is a schema that drops a fact's relation or
    changes its arity, and a rename that merges two arities."""
    rng = random.Random(17)
    schema = Schema([("E", 2), ("U", 1), ("Z", 0)])
    for _ in range(200):
        elems = [Element.named(f"a{i}") for i in range(rng.randint(1, 4))]
        facts = [(rel, tuple(rng.choice(elems) for _ in range(arity)))
                 for rel, arity in schema.relations
                 for _ in range(rng.randint(0, 4))]
        points = tuple(rng.choice(elems) for _ in range(rng.randint(0, 2)))
        inst = Instance(schema, elems, facts)
        pointed = inst.with_points(points)
        assert pointed == Instance(schema, elems, facts, points)
        assert pointed.points == points and pointed.facts is inst.facts
        names = rng.sample(["E", "U", "Z", "W"], rng.randint(0, 4))
        sub = schema.restrict(names)
        assert pointed.reduct(names) == Instance(
            sub, elems, [f for f in facts if f[0] in sub], points)
        keep = {e for _, args in facts for e in args} | set(points)
        assert adom_instance(pointed) == Instance(schema, keep, facts,
                                                  points)
        wider = schema.union(Schema([("W", 3)]))
        assert pointed.with_schema(wider) == Instance(wider, elems, facts,
                                                      points)
        ren = rng.choice(({}, {"E": "F"}, {"E": "U_in", "U": "E"},
                          {"Z": "Z_out", "W": "E"}))
        assert pointed.rename_relations(ren) == Instance(
            Schema([(ren.get(r, r), k) for r, k in schema.relations]),
            elems, [(ren.get(r, r), args) for r, args in facts], points)
    a = Element.named("a")
    inst = Instance(schema, [a], [("E", (a, a))])
    with pytest.raises(HomkitError, match="point b not in domain"):
        inst.with_points((a, Element.named("b")))
    with pytest.raises(SchemaMismatch, match="fact relation E not in"):
        inst.with_schema(Schema([("U", 1)]))
    with pytest.raises(SchemaMismatch, match="does not match arity"):
        inst.with_schema(Schema([("E", 3), ("U", 1)]))
    with pytest.raises(SchemaMismatch, match="conflicting arities"):
        inst.rename_relations({"U": "E"})
    # a relation with no facts may be dropped
    edge = Schema([("E", 2)])
    assert inst.with_schema(edge) == Instance(edge, [a], [("E", (a, a))])


def test_hom_path_to_loop():
    path = digraph([("a", "b"), ("b", "c")])
    loop = digraph([("x", "x")])
    h = find_homomorphism(path, loop)
    assert h is not None
    m = h.as_dict()
    for rel, args in path.facts:
        assert ("E", tuple(m[e] for e in args)) in set(loop.facts)


def test_hom_loop_to_path_fails():
    assert find_homomorphism(digraph([("x", "x")]),
                             digraph([("a", "b"), ("b", "c")])) is None


def test_hom_respects_points():
    A = digraph([("a", "b")], points=("a",))
    B = digraph([("x", "y")], points=("y",))
    assert find_homomorphism(A, B) is None
    assert find_homomorphism(A, B.with_points((B.points[0],))) is None
    C = digraph([("x", "y")], points=("x",))
    assert find_homomorphism(A, C) is not None


def test_hom_fixed_elements():
    A = digraph([("a", "b")])
    B = digraph([("a", "b"), ("b", "a")])
    a = next(e for e in A.domain if e.ser == "a")
    h = find_homomorphism(A, B, fixed=[a])
    assert h is not None and h(a).ser == "a"


def test_hom_total_on_isolated_elements():
    A = digraph([], extra=["a"])
    B = digraph([], extra=["x"])
    assert find_homomorphism(A, B) is not None
    empty = Instance(Schema([("E", 2)]), [], [])
    assert find_homomorphism(A, empty) is None


def test_isomorphic_deterministic():
    A = digraph([("a", "b"), ("b", "c")])
    B = digraph([("u", "v"), ("v", "w")])
    assert isomorphic(A, B)
    assert not isomorphic(A, digraph([("a", "b")]))


def test_isomorphic_checks_facts_closed_by_points():
    # E(c,c) ends on the point c; no bijection sends it onto a fact of B
    a, b, c = (Element.named(s) for s in "abc")
    E = Schema([("E", 2)])
    A = Instance(E, [a, b, c], [("E", (b, c)), ("E", (c, c))], (c, a))
    B = Instance(E, [a, b, c], [("E", (a, c)), ("E", (b, b))], (b, c))
    assert not isomorphic(A, B)
    assert not isomorphic(B, A)


def test_budget_blocks_replace_fields_and_reset():
    assert current_budget() == Budget(facts=10 ** 6, states=2 ** 16)
    with budget(facts=5) as outer:
        assert current_budget() is outer and outer == Budget(facts=5)
        with pytest.raises(CapExceeded):
            with budget(states=7):
                assert current_budget() == Budget(facts=5, states=7)
                raise CapExceeded("inner")
        assert current_budget() is outer
    assert current_budget() == Budget()
    with pytest.raises(TypeError):
        with budget(nodes=1):
            pass


def test_core_of_cycle_with_retract():
    # a 2-cycle plus a pendant edge retracts onto the 2-cycle
    A = digraph([("a", "b"), ("b", "a"), ("b", "c")])
    c = core_of(A)
    assert len(c.domain) == 2
    assert find_homomorphism(A, c) is not None
    assert find_homomorphism(c, A) is not None


def test_core_of_core_is_identity():
    A = digraph([("a", "b"), ("b", "a")])
    assert isomorphic(core_of(A), A)


def test_structure_report():
    path = digraph([("a", "b"), ("b", "c")])
    rep = structure_report(path)
    assert rep.acyclic and rep.connected and rep.c_acyclic
    loop = digraph([("x", "x")])
    rep = structure_report(loop)
    assert not rep.acyclic
    # a repeated element within one fact is a cycle, but a cycle through
    # the point is still c-acyclic
    rep = structure_report(loop.with_points(tuple(loop.domain)))
    assert rep.c_acyclic
    two = digraph([("a", "b"), ("c", "d")])
    assert not structure_report(two).connected


PICKLE_SCRIPT = """
import pickle, sys
from homkit.core import Element, Instance, Schema, iter_homomorphisms
a, b = Element.named("a"), Element.named("b")
I = Instance(Schema([("E", 2)]), [a, b], [("E", (a, b)), ("E", (b, b))],
             (a,))
if sys.argv[1] == "dump":
    hash(I)
    list(iter_homomorphisms(I, I))
    print(pickle.dumps(I).hex())
else:
    J = pickle.loads(bytes.fromhex(sys.stdin.read()))
    print(J._hash is None and J._index is None, J == I, J in {I},
          len(list(iter_homomorphisms(J, I))))
"""


def test_pickled_instance_leaves_its_caches_behind():
    """A cached hash is only valid under the string hashing of the process
    that computed it, so it must not travel with a pickle."""
    src = str(pathlib.Path(homkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(seed, mode, stdin=""):
        done = subprocess.run(
            [sys.executable, "-c", PICKLE_SCRIPT, mode], input=stdin,
            capture_output=True, text=True, timeout=60,
            env=dict(env, PYTHONHASHSEED=seed))
        assert done.returncode == 0, done.stderr
        return done.stdout

    dumped = run("1", "dump")
    assert run("2", "load", dumped).split() == ["True"] * 3 + ["1"]
