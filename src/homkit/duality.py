"""Homomorphism-duality synthesis.

A duality pairs a frontier F with a finite dual set D such that, for every
instance C in scope, some frontier member maps into C exactly when C does
not map into any dual.  Four constructions are provided:

- ``dual_from_program``: duals for the unfolding frontier of a program with
  a right adjoint, via the adjoint of the program applied to a canonical
  "forbidden tuple" instance;
- ``frontier_program``: a non-recursive program whose unfoldings are a given
  finite set of acyclic pointed instances;
- ``dual_wrt_theory``: duality among the models of a dependency set, by
  chasing both sides through the dependency program;
- ``abox_dual``: duality in the category of ABoxes under a dependency set,
  where morphisms are maps that extend to homomorphisms of the chases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .adjoint import adjoint
from .chase import chase_theory
from .core import (
    Element,
    HomkitError,
    Instance,
    Schema,
    adom_instance,
    core_of,
    find_homomorphism,
    structure_report,
)
from .program import (
    Atom,
    Program,
    Rule,
    input_to_instance,
    instance_to_output,
    restrict_output,
    tgd_compile,
    tgd_schema,
)


class DualityError(HomkitError):
    pass


@dataclass
class Duality:
    """A frontier/dual pair.

    ``frontier`` is a tuple of pointed instances when finite; for infinite
    frontiers ``generator`` holds a (program, relation) pair whose
    derivations generate the frontier.
    """

    duals: tuple
    frontier: tuple = ()
    generator: Optional[tuple] = None  # (Program, relation name)
    category: str = "plain"


# ---------------------------------------------------------------------------
# Plain duality from a program with an adjoint
# ---------------------------------------------------------------------------


def _set_partitions(items: list):
    """All partitions of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def dual_from_program(P: Program, R: str, cap: int = 10 ** 6) -> Duality:
    """Duals for the derivation frontier of (P, R).

    For each equality pattern of the k answer positions, builds the
    instance over one element per block plus an extra element, containing
    every R-fact except the forbidden block-representative tuple, applies
    the right adjoint of P restricted to R, and collects each member
    pointed at every block-constant preimage tuple.  Coarser patterns are
    needed so that pointed tuples with repeated elements are covered.
    """
    P0 = restrict_output(P, R)
    k = P0.s_out.arity(R)
    extra = Element.named("c")

    duals: list = []
    seen = set()
    for partition in _set_partitions(list(range(k))):
        reps = {}
        for block in partition:
            rep = Element.named(f"b{min(block) + 1}")
            for i in block:
                reps[i] = rep
        forbidden = tuple(reps[i] for i in range(k))
        domain = sorted(set(reps.values())) + [extra]
        facts = [
            (R, combo)
            for combo in itertools.product(domain, repeat=k)
            if combo != forbidden
        ]
        J = Instance(P0.s_out, domain, facts)
        result = adjoint(P0, J, cap=cap)
        blocks = sorted(partition, key=min)
        for j_prime, iota in result.members:
            pools = [
                [e for e in sorted(j_prime.domain)
                 if iota.get(e) == reps[block[0]]]
                for block in blocks
            ]
            for choice in itertools.product(*pools):
                by_pos = {}
                for block, e in zip(blocks, choice):
                    for i in block:
                        by_pos[i] = e
                combo = tuple(by_pos[i] for i in range(k))
                cand = _reduced(j_prime.with_points(combo))
                key = cand.canonical_key()
                if key in seen:
                    continue
                seen.add(key)
                duals = _admit_dual(duals, cand)
    duals.sort(key=lambda d: d.canonical_key())
    return Duality(duals=tuple(duals), generator=(P0, R), category="plain")


def fold_reduce(I: Instance) -> Instance:
    """Shrink an instance by folding: map an element u onto v whenever the
    substitution preserves every fact.  Each fold is a retraction, so the
    result is pointed-homomorphically equivalent to the input.  Search-free,
    so it scales to instances far beyond exhaustive core computation.

    A fold is taken only when every substituted fact is already present,
    so it just deletes u and its incident facts."""
    facts = set(I.facts)
    domain = sorted(I.domain)
    points = set(I.points)
    incident: dict[Element, set] = {e: set() for e in domain}
    for f in facts:
        for a in f[1]:
            incident[a].add(f)
    changed = True
    while changed:
        changed = False
        for u in list(domain):
            if u in points:
                continue
            if not any(v is not u and all(
                    (rel, tuple(v if a is u else a for a in args)) in facts
                    for rel, args in incident[u]) for v in domain):
                continue
            for f in incident.pop(u):
                facts.discard(f)
                for a in f[1]:
                    if a is not u:
                        incident[a].discard(f)
            domain.remove(u)
            changed = True
    return Instance(I.schema, domain, facts, I.points)


def _reduced(cand: Instance) -> Instance:
    """The folded active-domain part of a candidate dual; a fact-free
    result keeps one element c, so that fact-free instances still map
    into it."""
    cand = fold_reduce(adom_instance(cand))
    if not cand.domain:
        cand = Instance(cand.schema, [Element.named("c")], [], cand.points)
    return cand


def _admit_dual(kept: list, cand: Instance) -> list:
    """Add a candidate dual to a dominance-reduced set.

    A pointed dual that maps homomorphically into another has a smaller
    down-closure and is redundant; this keeps only dominance-maximal duals
    (which also removes isomorphic duplicates).
    """
    if any(find_homomorphism(cand, k) is not None for k in kept):
        return kept
    kept = [k for k in kept if find_homomorphism(k, cand) is None]
    kept.append(cand)
    return kept


# ---------------------------------------------------------------------------
# Frontier programs
# ---------------------------------------------------------------------------


def frontier_program(F) -> Program:
    """A non-recursive program whose depth-1 unfoldings are exactly F.

    Every member must be acyclic (instances that are c-acyclic but contain a
    cycle are rejected: they have no acyclic rule body).  All members must
    share one schema and point arity.
    """
    members = list(F)
    if not members:
        raise DualityError("empty frontier")
    schema = members[0].schema
    k = len(members[0].points)
    rules = []
    for A in members:
        if A.schema.relations != schema.relations:
            raise DualityError("frontier members have different schemas")
        if len(A.points) != k:
            raise DualityError("frontier members have different arities")
        if not structure_report(A).acyclic:
            raise DualityError(
                "frontier member is not acyclic (c-acyclic members with "
                "cycles are not expressible as a rule body)")
        elems = sorted(set(A.active_domain) | set(A.points))
        names = {e: f"v{i}" for i, e in enumerate(elems, start=1)}
        missing = [e for e in A.points if e not in A.active_domain]
        if missing:
            raise DualityError(
                f"frontier member has an isolated point {missing[0].ser}")
        body = tuple(
            Atom(rel, tuple(names[e] for e in args))
            for rel, args in A.sorted_facts()
        )
        head = Atom("Ans", tuple(names[e] for e in A.points))
        rules.append(Rule((head,), body))
    if "Ans" in schema:
        raise DualityError("output name Ans collides with the frontier "
                           "schema")
    return Program(schema, Schema([("Ans", k)]), Schema([]), rules)


# ---------------------------------------------------------------------------
# Duality relative to a dependency set
# ---------------------------------------------------------------------------


def _theory_duals(sigma, F_spec, adjoint_program, cap,
                  chase_duals: bool) -> tuple:
    sigma = tuple(sigma)
    base = tgd_schema(sigma)
    for A in F_spec:
        base = base.union(A.schema)
    P_sigma = tgd_compile(sigma, base)
    if chase_duals and not P_sigma.terminates:
        raise DualityError("the dependency set admits non-terminating "
                           "chases; relative duality requires termination")
    Q = adjoint_program if adjoint_program is not None else P_sigma
    if Q.s_in.relations != P_sigma.s_in.relations or \
            Q.s_out.relations != P_sigma.s_out.relations:
        raise DualityError("the adjoint program must share the dependency "
                           "program's input and output schemas")

    # dual_from_program's duals are an antichain under pointed
    # homomorphism, and each core is hom-equivalent to its dual, so the
    # cores are one too and none is dominated
    raw = sorted((core_of(d) for d in
                  dual_from_program(frontier_program(F_spec), "Ans",
                                    cap=cap).duals),
                 key=lambda d: d.canonical_key())

    duals = []
    for B in raw:
        b_points = B.points
        J = instance_to_output(B.with_points(()), Q)
        result = adjoint(Q, J, cap=cap)
        for j_prime, iota in result.members:
            renamed = input_to_instance(j_prime, base)
            pools = [
                [e for e in sorted(renamed.domain) if iota.get(e) is b]
                for b in b_points
            ]
            for combo in itertools.product(*pools):
                cand = renamed.with_points(combo)
                if chase_duals:
                    cand, _ = chase_theory(P_sigma, cand)
                duals = _admit_dual(duals, _reduced(cand))
    duals.sort(key=lambda d: d.canonical_key())
    return tuple(duals), P_sigma


def dual_wrt_theory(sigma, F_spec,
                    adjoint_program: Optional[Program] = None,
                    cap: int = 10 ** 6) -> Duality:
    """Duality among the models of a dependency set.

    The frontier consists of the chased specification instances; duals are
    adjoint members of the base duals, chased.  Requires the dependency
    program to have terminating chases on all inputs (``terminates``).
    """
    duals, P_sigma = _theory_duals(sigma, F_spec, adjoint_program, cap,
                                   chase_duals=True)
    frontier = tuple(adom_instance(chase_theory(P_sigma, A)[0])
                     for A in F_spec)
    return Duality(duals=duals, frontier=frontier, category="relative")


def abox_dual(sigma, F, adjoint_program: Optional[Program] = None,
              cap: int = 10 ** 6) -> Duality:
    """Duality in the ABox category of a dependency set: duals are adjoint
    members of the base duals, left unchased; morphisms are maps extending
    to homomorphisms of the chases."""
    duals, _ = _theory_duals(sigma, F, adjoint_program, cap,
                             chase_duals=False)
    return Duality(duals=duals, frontier=tuple(F), category="abox")
