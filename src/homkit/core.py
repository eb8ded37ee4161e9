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
instance.  Interchangeable target elements are pruned as well (Freuder,
AAAI 1991): when a candidate has no completion, neither has a twin of it,
an element whose swap with it is an automorphism of the target, unless
one of the two is already an earlier image.  Both kinds of pruning remove
only candidates with no completion, so the order above is unchanged.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Optional


class HomkitError(Exception):
    """Base class for all structured errors raised by the library."""


class SchemaMismatch(HomkitError):
    pass


class CapExceeded(HomkitError):
    """A configured resource cap was exceeded."""


@dataclass(frozen=True)
class Budget:
    """Caps on the enumerations that grow exponentially: ``facts`` bounds
    the pair-element adjoint's subsets and candidate facts, ``states`` the
    subset construction of automata.  Exceeding one raises
    ``CapExceeded``."""

    facts: int = 10 ** 6
    states: int = 2 ** 16


_BUDGET: ContextVar[Budget] = ContextVar("homkit_budget", default=Budget())


def current_budget() -> Budget:
    """The budget in force."""
    return _BUDGET.get()


@contextmanager
def budget(**fields) -> Iterator[Budget]:
    """Run the block under the current budget with ``fields`` replaced."""
    inner = replace(_BUDGET.get(), **fields)
    token = _BUDGET.set(inner)
    try:
        yield inner
    finally:
        _BUDGET.reset(token)


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
        """The same instance over ``schema``, which must have every fact's
        relation with its arity; checked per relation when ``schema`` keeps
        all of this instance's relations, else per fact."""
        if set(self.schema.relations).issubset(schema.relations):
            return Instance._trusted(schema, self.domain, self.facts,
                                     self.points)
        return Instance(schema, self.domain, self.facts, self.points)

    def rename_relations(self, mapping: dict[str, str]) -> "Instance":
        """The same instance with relations renamed by ``mapping``;
        unchecked, as a rename keeps every arity (``Schema`` raises when it
        merges two relations of different arities)."""
        schema = Schema(
            [(mapping.get(r, r), a) for r, a in self.schema.relations]
        )
        facts = frozenset((mapping.get(r, r), args) for r, args in self.facts)
        return Instance._trusted(schema, self.domain, facts, self.points)

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
    The narrowings of a level are undone when it moves on.

    When level i's candidate c yields no result, level i also drops its
    untried twins c' of c (see ``_Target.twins``), provided neither c nor
    c' is the image of an earlier level.  The swap s of c and c' is an
    automorphism of B that fixes every earlier image, so s after h
    extends the prefix with c for any h that extends it with c': c' has
    no completion either.  Pre-assigned elements come first, so their
    images are always earlier images.  Twins are found the first time the
    search backs up a level; before that a failed candidate has cost one
    node, which is all its twins would cost.

    Only candidates that no homomorphism extends are ever removed, so the
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
    target = _target_index(B)
    b_elems, b_code = target.elems, target.code
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
        table = target[rel, tuple(map(j.__eq__, idx))]
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
    prior = [0] * len(order)  # the images of levels 0..i-1, as a bitmask
    trail: list[list] = [[] for _ in order]  # (level, domain before)
    found = 0  # the results yielded so far
    # tried[i]: ``found`` when level i chose image[i]; -1 for none yet
    tried = [-1] * len(order)
    twins = None  # target.twins(), read once a level is exhausted
    rest[0] = dom[0]
    i = 0
    while i >= 0:
        undo = trail[i]
        while undo:
            j, old = undo.pop()
            dom[j] = old
        cands = rest[i]
        if cands and twins and tried[i] == found and \
                not prior[i] >> image[i] & 1:
            # image[i] has no completion, so no twin of it that is not
            # an earlier image has one either
            cands &= ~twins[image[i]] | prior[i]
        if not cands:
            i -= 1
            if twins is None and i >= 0:
                twins = target.twins()
            continue
        low = cands & -cands
        rest[i] = cands ^ low
        image[i] = low.bit_length() - 1
        tried[i] = found
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
                found += 1
                yield dict(zip(order, map(b_elems.__getitem__, image)))
            else:
                i += 1
                prior[i] = seen = prior[i - 1] | low
                tried[i] = -1
                rest[i] = dom[i] & ~seen if iso else dom[i]


def _target_index(B: Instance) -> "_Target":
    """What the search reads of B, kept on B, which never changes."""
    if B._index is None:
        B._index = _Target(B)
    return B._index


class _Target(dict):
    """A target as the search reads it: ``elems``, its sorted domain;
    ``code``, the code (index) of each element in it; ``by_rel``, its
    facts' code tuples by relation; its support tables, the entries of
    this dict, each built on first use; and its twin classes, found on
    first use.

    The table under ``(rel, pattern)``, where ``pattern`` marks some
    positions of ``rel`` True, is for one element repeated at the marked
    positions.  It maps the codes of the other positions' elements (an int
    for one position, a tuple for none or several) to the bitmask of the
    elements e such that the target has the fact of ``rel`` with those
    elements and e at every marked position.
    """

    __slots__ = ("elems", "code", "by_rel", "_twins")

    def __init__(self, B: Instance):
        super().__init__()
        self.elems = B.sorted_domain()
        self.code = code = {e: c for c, e in enumerate(self.elems)}
        self.by_rel: dict[str, list] = {}
        for rel, args in B.facts:
            self.by_rel.setdefault(rel, []).append(
                tuple(map(code.__getitem__, args)))
        self._twins = None

    def __missing__(self, key):
        rel, pattern = key
        marked = [k for k, at in enumerate(pattern) if at]
        others = [k for k, at in enumerate(pattern) if not at]
        # the other positions' codes: an int, a tuple, or codes[0:0] = ()
        sub_of = itemgetter(*others) if others else itemgetter(slice(0, 0))
        table: dict = {}
        if len(marked) == 1:
            k = marked[0]
            for codes in self.by_rel.get(rel, ()):
                sub = sub_of(codes)
                table[sub] = table.get(sub, 0) | 1 << codes[k]
        else:
            at_of = itemgetter(*marked)
            for codes in self.by_rel.get(rel, ()):
                at = set(at_of(codes))
                if len(at) == 1:
                    sub = sub_of(codes)
                    table[sub] = table.get(sub, 0) | 1 << at.pop()
        self[key] = table
        return table

    def twins(self) -> list[int]:
        """For each code, the bitmask of its twins: the elements whose
        swap with it is an automorphism of the target (itself included).

        Two elements that share no fact are twins iff the facts each
        occurs in, with it replaced by a marker, are the same set; those
        sets are hashed.  A pair that shares a fact is checked by swapping
        it.  Twins are an equivalence, since transpositions compose:
        (a b)(b c)(a b) = (a c).  So the pairs found are joined into
        classes by union-find.
        """
        if self._twins is not None:
            return self._twins
        n = len(self.elems)
        # seen[c]: the facts c occurs in, each with c replaced by -1
        seen: list[list] = [[] for _ in range(n)]
        shared = set()  # the pairs (c, d), c < d, that share a fact
        for rel, facts in self.by_rel.items():
            for codes in facts:
                distinct = set(codes)
                for c in distinct:
                    seen[c].append(
                        (rel, tuple([-1 if x == c else x for x in codes])))
                if len(distinct) > 1:
                    shared.update(combinations(sorted(distinct), 2))
        classes = _UnionFind()
        first: dict[frozenset, int] = {}
        for c, found in enumerate(seen):
            classes.union(first.setdefault(frozenset(found), c), c)
        for c, d in shared:
            if len(seen[c]) == len(seen[d]) and \
                    _swapped(seen[c], d) == _swapped(seen[d], c):
                classes.union(c, d)
        masks = [0] * n
        for c in range(n):
            masks[classes.find(c)] |= 1 << c
        self._twins = [masks[classes.find(c)] for c in range(n)]
        return self._twins


def _swapped(found: list, d: int) -> set:
    """The facts in ``found`` (one element's facts, with it replaced by
    -1) with d replaced by -2.  Elements c and d with equally many facts
    are twins iff ``_swapped(seen[c], d) == _swapped(seen[d], c)``: their
    swap then maps c's facts onto d's, and so d's onto c's."""
    return {(rel, tuple([-2 if x == d else x for x in codes]))
            for rel, codes in found}


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
    """Union-find; ``forest`` stays true while no union joins two nodes
    that are already connected."""

    def __init__(self):
        self.parent = {}
        self.forest = True

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self.forest = False
        else:
            self.parent[ra] = rb

    def components(self) -> int:
        return len({self.find(x) for x in list(self.parent)})


def _incidence_links(arg_tuples, cut=None, skip=frozenset()) -> _UnionFind:
    """Union-find over the incidence graph of argument tuples (the facts
    of an instance, the atoms of a rule body).

    Nodes are the tuple indices and the arguments; there is one link per
    (index, argument) occurrence, so an argument repeated within a tuple
    closes a cycle.  The link ``cut`` is left out, and so are the
    arguments in ``skip``, with their links.
    """
    uf = _UnionFind()
    for i, args in enumerate(arg_tuples):
        uf.find(i)
        for a in args:
            if a not in skip and (i, a) != cut:
                uf.union(i, a)
    return uf


def structure_report(A: Instance) -> StructureReport:
    """Acyclicity / connectedness / c-acyclicity of the incidence multigraph.

    The incidence multigraph has one node per active-domain element and one
    per fact, with a distinct edge for every occurrence of an element in a
    fact (a repeated element within one fact is a 2-cycle).  c-acyclicity
    deletes the point elements first and asks for forest-ness of the rest.
    """
    arg_tuples = [args for _, args in A.facts]
    links = _incidence_links(arg_tuples)
    return StructureReport(
        acyclic=links.forest, connected=links.components() <= 1,
        c_acyclic=_incidence_links(arg_tuples,
                                   skip=frozenset(A.points)).forest)


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
