"""Instances, homomorphisms, isomorphism, cores, structure reports."""

import os
import pathlib
import subprocess
import sys

import pytest

from conftest import digraph
import homkit
from homkit.core import (
    Element,
    HomkitError,
    Instance,
    Schema,
    SchemaMismatch,
    core_of,
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


def test_instance_rejects_bad_facts():
    a = Element.named("a")
    with pytest.raises(SchemaMismatch):
        Instance(Schema([("E", 2)]), [a], [("F", (a, a))])
    with pytest.raises(HomkitError):
        Instance(Schema([("E", 2)]), [a], [("E", (a, Element.named("b")))])


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
