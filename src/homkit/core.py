"""Relational instances, pointed instances, homomorphism search, and
structural checks on the incidence multigraph (acyclicity, connectedness,
c-acyclicity).

Instances carry an explicit finite domain that may strictly contain the
active domain (the elements occurring in facts), and optionally a
distinguished tuple of elements ("points").  Homomorphisms are total maps on
the explicit domain that preserve facts and points and may be required to fix
a set of elements pointwise.

``iter_homomorphisms`` is the one backtracking search over instances: every
homomorphism, isomorphism, endomorphism and core computation in the library
goes through it.  Its order is fixed: pre-assigned elements (fixed, bound and
pointed ones) first in sorted order, then the rest of the source's sorted
domain, each trying the target's elements in sorted order.  So the
enumeration order, and with it every first witness, is deterministic.

The search works on the target's elements coded as their indexes in its
sorted domain, with each level's candidates an int bitmask.  A source fact
is tested by forward checking (Haralick and Elliott, 1980): once all but
its last level are assigned, it narrows that level's candidates to its
support in the target, read from support tables kept on the target
instance.  Narrowing removes only candidates with no completion, so the
order above is unchanged.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, Optional


class HomkitError(Exception):
    """Base class for all structured errors raised by the library."""


class SchemaMismatch(HomkitError):
    pass


class CapExceeded(HomkitError):
    """A configured resource cap was exceeded."""


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schema:
    """A finite collection of relation symbols with arities."""

    relations: tuple[tuple[str, int], ...]

    def __init__(self, relations):
        items = {}
        pairs = relations.items() if isinstance(relations, dict) \
            else relations
        for name, arity in pairs:
            if arity < 0:
                raise HomkitError(f"negative arity for relation {name}")
            if items.setdefault(name, arity) != arity:
                raise SchemaMismatch(
                    f"relation {name} has conflicting arities")
        relations = tuple(sorted(items.items()))
        object.__setattr__(self, "relations", relations)
        # not dataclass fields, so ==, hash and repr see only relations
        object.__setattr__(self, "_arity", items)
        object.__setattr__(self, "names", tuple(r for r, _ in relations))

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise SchemaMismatch(f"unknown relation {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    def as_dict(self) -> dict[str, int]:
        return dict(self.relations)

    def restrict(self, names: Iterable[str]) -> "Schema":
        keep = set(names)
        return Schema([(r, a) for r, a in self.relations if r in keep])

    def union(self, other: "Schema") -> "Schema":
        return Schema(self.relations + other.relations)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class Element:
    """A domain element.

    Four kinds exist:

    - ``named``: a user-supplied constant;
    - ``null``: a labeled null ``_n<k>`` introduced by the chase;
    - ``bottom``: the single reserved element ``_bot``;
    - ``pair``: an element ``(b | {facts...})`` pairing a base element with a
      finite set of facts; these arise in adjoint outputs.

    Each element has a canonical injective serialization ``ser``, and
    elements are interned on it (hash-consing): constructing an element
    returns the live one with the same serialization if there is one.  So
    equal elements are the same object, equality and hashing are identity,
    and order is by ``ser``.  The intern table holds its elements weakly, so
    one that nothing references is dropped; it is not locked, since homkit
    runs in one thread.
    """

    __slots__ = ("kind", "name", "serial", "base", "facts", "ser",
                 "__weakref__")

    def __new__(cls, kind, name="", serial=0, base=None, facts=frozenset()):
        if kind == "named":
            # ``_`` and ``(`` start the reserved spellings of the other kinds
            if name[:1] in ("_", "("):
                raise HomkitError(f"element name {name!r} is reserved")
            ser = name
        elif kind == "null":
            ser = f"_n{serial}"
        elif kind == "bottom":
            ser = "_bot"
        elif kind == "pair":
            inner = ",".join(sorted(fact_ser(f) for f in facts))
            ser = f"({base.ser}|{{{inner}}})"
        else:  # pragma: no cover
            raise HomkitError(f"unknown element kind {kind}")
        self = _INTERNED.get(ser)
        if self is None:
            self = object.__new__(cls)
            self.kind, self.name, self.serial = kind, name, serial
            self.base, self.facts, self.ser = base, facts, ser
            _INTERNED[ser] = self
        return self

    @staticmethod
    def named(name: str) -> "Element":
        return Element("named", name=name)

    @staticmethod
    def null(serial: int) -> "Element":
        return Element("null", serial=serial)

    @staticmethod
    def pair(base: "Element", facts) -> "Element":
        return Element("pair", base=base, facts=frozenset(facts))

    def __reduce__(self):
        # pickle and copy rebuild through the intern table
        return Element, (self.kind, self.name, self.serial, self.base,
                         self.facts)

    def __lt__(self, other):
        return self.ser < other.ser

    def __le__(self, other):
        return self.ser <= other.ser

    def __repr__(self):
        return f"Element({self.ser!r})"


# serialization -> the live element with it
_INTERNED: "weakref.WeakValueDictionary[str, Element]" = \
    weakref.WeakValueDictionary()

BOTTOM = Element("bottom")

Fact = tuple  # (relation_name, tuple[Element, ...])


def fact_ser(fact: Fact) -> str:
    rel, args = fact
    return f"{rel}({','.join(e.ser for e in args)})"


def sort_facts(facts: Iterable[Fact]) -> list[Fact]:
    return sorted(facts, key=fact_ser)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


class Instance:
    """A finite relational instance with explicit domain and optional points."""

    # _hash and _index are caches, not state: see __getstate__
    __slots__ = ("schema", "domain", "facts", "points", "_hash", "_index")

    def __init__(self, schema: Schema, domain, facts, points=()):
        self.schema = schema
        self.domain = frozenset(domain)
        norm = set()
        for rel, args in facts:
            args = tuple(args)
            if rel not in schema:
                raise SchemaMismatch(f"fact relation {rel} not in schema")
            if len(args) != schema.arity(rel):
                raise SchemaMismatch(
                    f"fact {rel}/{len(args)} does not match arity "
                    f"{schema.arity(rel)}"
                )
            for e in args:
                if e not in self.domain:
                    raise HomkitError(
                        f"fact element {e.ser} not in domain"
                    )
            norm.add((rel, args))
        self.facts = frozenset(norm)
        self.points = _checked_points(points, self.domain)
        self._hash = None
        self._index = None  # iter_homomorphisms' target index

    @classmethod
    def _trusted(cls, schema: Schema, domain: frozenset, facts: frozenset,
                 points: tuple) -> "Instance":
        """An instance from parts already valid together, unchecked: for
        facts and points taken from a valid instance."""
        inst = cls.__new__(cls)
        inst.schema, inst.domain, inst.facts = schema, domain, facts
        inst.points = points
        inst._hash = inst._index = None
        return inst

    def __getstate__(self):
        # the caches stay behind: hashes differ between processes
        return self.schema, self.domain, self.facts, self.points

    def __setstate__(self, state):
        self.schema, self.domain, self.facts, self.points = state
        self._hash = self._index = None

    # -- basic structure ---------------------------------------------------

    @property
    def active_domain(self) -> frozenset:
        out = set()
        for _, args in self.facts:
            out.update(args)
        return frozenset(out)

    def sorted_domain(self) -> list[Element]:
        return sorted(self.domain)

    def sorted_facts(self) -> list[Fact]:
        return sort_facts(self.facts)

    def facts_of(self, rel: str) -> set:
        return {f for f in self.facts if f[0] == rel}

    def with_points(self, points) -> "Instance":
        return Instance._trusted(self.schema, self.domain, self.facts,
                                 _checked_points(points, self.domain))

    def reduct(self, names: Iterable[str]) -> "Instance":
        """Restrict to the given relation names, keeping the domain."""
        sub = self.schema.restrict(names)
        keep = set(sub.names)
        return Instance._trusted(
            sub, self.domain,
            frozenset(f for f in self.facts if f[0] in keep), self.points)

    def with_schema(self, schema: Schema) -> "Instance":
        return Instance(schema, self.domain, self.facts, self.points)

    def rename_relations(self, mapping: dict[str, str]) -> "Instance":
        schema = Schema(
            [(mapping.get(r, r), a) for r, a in self.schema.relations]
        )
        facts = [(mapping.get(r, r), args) for r, args in self.facts]
        return Instance(schema, self.domain, facts, self.points)

    def union(self, other: "Instance") -> "Instance":
        schema = self.schema.union(other.schema)
        return Instance(
            schema,
            self.domain | other.domain,
            list(self.facts) + list(other.facts),
            self.points,
        )

    # -- equality / canonical form ----------------------------------------

    def canonical_key(self):
        return (
            self.schema.relations,
            tuple(sorted(e.ser for e in self.domain)),
            tuple(fact_ser(f) for f in self.sorted_facts()),
            tuple(e.ser for e in self.points),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __repr__(self):
        facts = " ".join(fact_ser(f) for f in self.sorted_facts())
        pts = "" if not self.points else (
            " points=" + ",".join(e.ser for e in self.points))
        return f"Instance(|dom|={len(self.domain)} {facts}{pts})"


def _checked_points(points, domain: frozenset) -> tuple:
    points = tuple(points)
    for e in points:
        if e not in domain:
            raise HomkitError(f"point {e.ser} not in domain")
    return points


def adom_instance(I: Instance) -> Instance:
    """Restrict the explicit domain to the active domain plus points."""
    keep = I.active_domain.union(I.points)
    return Instance._trusted(I.schema, keep, I.facts, I.points)


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """A total map from the domain of a source instance into a target."""

    mapping: tuple[tuple[Element, Element], ...]

    @staticmethod
    def of(mapping: dict) -> "Homomorphism":
        return Homomorphism(
            tuple(sorted(mapping.items(), key=lambda kv: kv[0].ser))
        )

    def as_dict(self) -> dict:
        return dict(self.mapping)

    def __call__(self, e: Element) -> Element:
        for src, dst in self.mapping:
            if src is e:
                return dst
        raise KeyError(e.ser)


def _check_hom_inputs(A: Instance, B: Instance, fixed, bindings):
    if A.schema.relations != B.schema.relations:
        raise SchemaMismatch("homomorphism endpoints have different schemas")
    for e in fixed:
        if e not in A.domain or e not in B.domain:
            raise HomkitError(f"fixed element {e.ser} not in both domains")
    if A.points and B.points and len(A.points) != len(B.points):
        raise HomkitError("point-arity mismatch")
    if bindings:
        for src, dst in bindings.items():
            if src not in A.domain:
                raise HomkitError(f"binding source {src.ser} not in domain(A)")
            if dst not in B.domain:
                raise HomkitError(f"binding target {dst.ser} not in domain(B)")


def iter_homomorphisms(
    A: Instance,
    B: Instance,
    fixed: Iterable[Element] = (),
    bindings: Optional[dict] = None,
    iso: bool = False,
) -> Iterator[dict]:
    """Every homomorphism A -> B as a dict, lazily; with ``iso``, every
    isomorphism instead.

    ``fixed`` elements must be mapped to themselves; ``bindings`` is a partial
    map every result extends.  If both instances are pointed, points map to
    points componentwise.  Backtracking assigns the pre-assigned elements
    first, in sorted order, then the rest of A's sorted domain, trying
    candidates in B's sorted order.

    B's elements are coded as their indexes in its sorted domain, and each
    level's candidates form an int bitmask, tried lowest bit first.  A fact
    whose elements all sit at one level narrows that level's initial
    candidates; any other fact, with last level j, narrows level j's
    candidates to its support in B as soon as its second-to-last level is
    assigned, and an empty candidate set rejects that assignment at once.
    The narrowings of a level are undone when it moves on.  Only
    candidates that no homomorphism extends are ever removed, so the
    sequence of results is that of the plain search that tests each fact
    once its last element is assigned.
    """
    if iso and (len(A.domain) != len(B.domain)
                or len(A.facts) != len(B.facts)
                or len(A.points) != len(B.points)):
        return
    fixed = set(fixed)
    _check_hom_inputs(A, B, fixed, bindings)
    pre: dict[Element, Element] = {}
    pairs = [(e, e) for e in fixed] + list((bindings or {}).items())
    if A.points and B.points:
        pairs += zip(A.points, B.points)
    for src, dst in pairs:
        if pre.setdefault(src, dst) is not dst:
            return
    order = sorted(pre) + [e for e in A.sorted_domain() if e not in pre]
    level = {e: i for i, e in enumerate(order)}
    b_elems, b_code, supports = _target_index(B)
    every = (1 << len(b_elems)) - 1
    dom = [1 << b_code[pre[e]] for e in order[:len(pre)]]
    dom += [every] * (len(order) - len(pre))
    if iso:
        occ_a, occ_b = _occurrences(A), _occurrences(B)
        alike: dict[tuple, int] = {}
        for c, e in enumerate(b_elems):
            alike[occ_b[e]] = alike.get(occ_b[e], 0) | 1 << c
        for i, e in enumerate(order):
            dom[i] &= alike.get(occ_a[e], 0)
    # narrow[i]: the facts whose second-to-last level is i, as (last level,
    # getter of the other levels' codes from the image list, support table)
    narrow: list[list] = [[] for _ in order]
    for fact in A.facts:
        rel, args = fact
        if not args:
            if fact not in B.facts:
                return
            continue
        idx = [level[a] for a in args]
        j = max(idx)
        # the positions of level j are the ones marked True
        table = supports[rel, tuple(map(j.__eq__, idx))]
        others = [k for k in idx if k != j]
        if others:
            narrow[max(others)].append((j, itemgetter(*others), table))
        else:
            dom[j] &= table.get((), 0)
    if not all(dom):
        return
    if not order:
        yield {}
        return

    last = len(order) - 1
    image = [0] * len(order)
    rest = [0] * len(order)  # the candidates level i has yet to try
    trail: list[list] = [[] for _ in order]  # (level, domain before)
    used = 0  # in iso mode: the images of levels 0..i-1
    rest[0] = dom[0]
    i = 0
    while i >= 0:
        undo = trail[i]
        while undo:
            j, old = undo.pop()
            dom[j] = old
        cands = rest[i]
        if not cands:
            i -= 1
            if iso and i >= 0:
                used ^= 1 << image[i]
            continue
        low = cands & -cands
        rest[i] = cands ^ low
        image[i] = low.bit_length() - 1
        for j, get, table in narrow[i]:
            old = dom[j]
            new = old & table.get(get(image), 0)
            if new != old:
                undo.append((j, old))
                dom[j] = new
                if not new:
                    break
        else:
            if i == last:
                yield dict(zip(order, map(b_elems.__getitem__, image)))
            else:
                if iso:
                    used |= low
                i += 1
                rest[i] = dom[i] & ~used


def _target_index(B: Instance) -> tuple:
    """B's sorted domain, the code (index) of each element in it, and B's
    support tables; kept on B, which never changes."""
    if B._index is None:
        elems = B.sorted_domain()
        code = {e: c for c, e in enumerate(elems)}
        B._index = (elems, code, _Supports(B.facts, code))
    return B._index


class _Supports(dict):
    """Support tables of a target, each built on first use.

    The table under ``(rel, pattern)``, where ``pattern`` marks some
    positions of ``rel`` True, is for one element repeated at the marked
    positions.  It maps the codes of the other positions' elements (an int
    for one position, a tuple for none or several) to the bitmask of the
    elements e such that the target has the fact of ``rel`` with those
    elements and e at every marked position.
    """

    __slots__ = ("facts", "code")

    def __init__(self, facts, code):
        super().__init__()
        self.facts, self.code = facts, code

    def __missing__(self, key):
        rel, pattern = key
        others = [not at for at in pattern]
        code, table = self.code, {}
        for r, args in self.facts:
            if r != rel:
                continue
            codes = [code[a] for a in args]
            at = set(compress(codes, pattern))
            if len(at) == 1:
                sub = tuple(compress(codes, others))
                if len(sub) == 1:
                    sub = sub[0]
                table[sub] = table.get(sub, 0) | 1 << at.pop()
        self[key] = table
        return table


def _occurrences(inst: Instance) -> dict:
    """Each element's sorted tuple of (relation, position) occurrences, an
    isomorphism invariant."""
    occ: dict[Element, list] = {e: [] for e in inst.domain}
    for rel, args in inst.facts:
        for i, e in enumerate(args):
            occ[e].append((rel, i))
    return {e: tuple(sorted(found)) for e, found in occ.items()}


def find_homomorphism(
    A: Instance,
    B: Instance,
    fixed: Iterable[Element] = (),
    bindings: Optional[dict] = None,
) -> Optional[Homomorphism]:
    """The first homomorphism A -> B of ``iter_homomorphisms``, or None.

    The witness is deterministic: the search order is fixed.
    """
    found = next(iter_homomorphisms(A, B, fixed, bindings), None)
    return None if found is None else Homomorphism.of(found)


def isomorphic(A: Instance, B: Instance) -> bool:
    """True iff a fact- and point-preserving bijection exists."""
    if A.schema.relations != B.schema.relations:
        raise SchemaMismatch("isomorphism endpoints have different schemas")
    return next(iter_homomorphisms(A, B, iso=True), None) is not None


# ---------------------------------------------------------------------------
# Incidence multigraph checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    acyclic: bool
    connected: bool
    c_acyclic: bool


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        """Merge; returns False if a and b were already connected."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _incidence_forest(facts, skip=frozenset()):
    """Forest-check the incidence multigraph of the given facts.

    Element nodes in ``skip`` are removed (with their incident edges).
    Returns (is_forest, components) where components counts the connected
    components among the remaining element/fact nodes.
    """
    uf = _UnionFind()
    nodes = set()
    forest = True
    for idx, (rel, args) in enumerate(facts):
        fnode = ("f", idx)
        nodes.add(fnode)
        uf.find(fnode)
        for e in args:
            if e in skip:
                continue
            enode = ("e", e)
            nodes.add(enode)
            if not uf.union(fnode, enode):
                forest = False
    roots = {uf.find(n) for n in nodes}
    return forest, len(roots)


def structure_report(A: Instance) -> StructureReport:
    """Acyclicity / connectedness / c-acyclicity of the incidence multigraph.

    The incidence multigraph has one node per active-domain element and one
    per fact, with a distinct edge for every occurrence of an element in a
    fact (a repeated element within one fact is a 2-cycle).  c-acyclicity
    deletes the point elements first and asks for forest-ness of the rest.
    """
    facts = A.sorted_facts()
    acyclic, comps = _incidence_forest(facts)
    connected = comps <= 1
    c_acyclic, _ = _incidence_forest(facts, skip=frozenset(A.points))
    return StructureReport(
        acyclic=acyclic, connected=connected, c_acyclic=c_acyclic
    )


# ---------------------------------------------------------------------------
# Cores (exhaustive retract search, small scale)
# ---------------------------------------------------------------------------

# the largest domain whose core ``core_of`` searches for
CORE_CAP = 8


def core_of(A: Instance) -> Instance:
    """A minimal retract of A, by exhaustive endomorphism search.

    Points are fixed pointwise.  Instances with more than ``CORE_CAP``
    domain elements are returned unchanged (the search is exponential).
    """
    current = A
    while len(current.domain) <= CORE_CAP:
        shrunk = None
        for h in iter_homomorphisms(current, current):
            image = set(h.values())
            if len(image) < len(current.domain):
                facts = {
                    (rel, tuple(h[a] for a in args))
                    for rel, args in current.facts
                }
                shrunk = Instance(
                    current.schema, image, facts,
                    tuple(h[p] for p in current.points),
                )
                break
        if shrunk is None:
            break
        current = shrunk
    return current
