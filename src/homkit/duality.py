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

import functools
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
    core_of,
    find_homomorphism,
    structure_report,
)
from .program import (
    Atom,
    Program,
    Rule,
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
    derivations generate the frontier.  ``verified`` is set by the
    brute-force checker, never by the constructions themselves.
    """

    duals: tuple
    frontier: tuple = ()
    generator: Optional[tuple] = None  # (Program, relation name)
    theory: Optional[tuple] = None  # tuple[TGD, ...]
    category: str = "plain"
    verified: Optional[object] = None


def adom_instance(I: Instance) -> Instance:
    """Restrict the explicit domain to the active domain plus points."""
    keep = set(I.active_domain) | set(I.points)
    return Instance(I.schema, keep, I.facts, I.points)


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


def dual_from_program(P: Program, R: str, method: str = "auto",
                      cap: int = 10 ** 6) -> Duality:
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
        result = adjoint(P0, J, method=method, cap=cap)
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
                cand = fold_reduce(
                    adom_instance(j_prime.with_points(combo)))
                if not cand.domain:
                    # keep fact-free duals nonempty so that fact-free
                    # instances still map into them
                    cand = Instance(cand.schema, [extra], [], cand.points)
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
    so it scales to instances far beyond exhaustive core computation."""
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
            for v in domain:
                if v is u or v == u:
                    continue
                ok = True
                for rel, args in incident[u]:
                    sub = (rel, tuple(v if a == u else a for a in args))
                    if sub not in facts:
                        ok = False
                        break
                if not ok:
                    continue
                for f in list(incident[u]):
                    rel, args = f
                    facts.discard(f)
                    for a in set(args):
                        incident[a].discard(f)
                    sub = (rel, tuple(v if a == u else a for a in args))
                    if sub not in facts:
                        facts.add(sub)
                        for a in set(sub[1]):
                            incident[a].add(sub)
                domain.remove(u)
                del incident[u]
                changed = True
                break
    return Instance(I.schema, domain, facts, I.points)


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


def frontier_program(F, out_name: str = "Ans") -> Program:
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
        head = Atom(out_name, tuple(names[e] for e in A.points))
        rules.append(Rule((head,), body))
    if out_name in schema:
        raise DualityError(f"output name {out_name} collides with the "
                           "frontier schema")
    return Program(schema, Schema([(out_name, k)]), Schema([]), rules)


# ---------------------------------------------------------------------------
# Duality relative to a dependency set
# ---------------------------------------------------------------------------


def _theory_duals(sigma, F_spec, adjoint_program, method, cap,
                  chase_duals: bool) -> tuple:
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

    fp = frontier_program(F_spec)
    raw = [core_of(d) for d in
           dual_from_program(fp, "Ans", method=method, cap=cap).duals]
    raw = functools.reduce(_admit_dual,
                           sorted(raw, key=lambda d: d.canonical_key()), [])

    duals = []
    unrename = {f"{r}_in": r for r, _ in base.relations}
    for B in raw:
        b_points = B.points
        J = instance_to_output(B.with_points(()), Q)
        result = adjoint(Q, J, method=method, cap=cap)
        for j_prime, iota in result.members:
            renamed = j_prime.rename_relations(unrename)
            renamed = Instance(base, renamed.domain, renamed.facts)
            pools = [
                [e for e in sorted(renamed.domain) if iota.get(e) == b]
                for b in b_points
            ]
            for combo in itertools.product(*pools):
                cand = renamed.with_points(combo)
                if chase_duals:
                    cand, _ = chase_theory(P_sigma, cand)
                cand = fold_reduce(adom_instance(cand))
                if not cand.domain:
                    cand = Instance(cand.schema, [Element.named("c")],
                                    [], cand.points)
                duals = _admit_dual(duals, cand)
    duals.sort(key=lambda d: d.canonical_key())
    return tuple(duals), P_sigma


def dual_wrt_theory(sigma, F_spec,
                    adjoint_program: Optional[Program] = None,
                    method: str = "auto", cap: int = 10 ** 6) -> Duality:
    """Duality among the models of a dependency set.

    The frontier consists of the chased specification instances; duals are
    adjoint members of the base duals, chased.  Requires the dependency
    program to have terminating chases on all inputs (``terminates``).
    """
    sigma = tuple(sigma)
    duals, P_sigma = _theory_duals(sigma, F_spec, adjoint_program, method,
                                   cap, chase_duals=True)
    frontier = tuple(adom_instance(chase_theory(P_sigma, A)[0])
                     for A in F_spec)
    return Duality(duals=duals, frontier=frontier, theory=sigma,
                   category="relative")


def abox_dual(sigma, F, adjoint_program: Optional[Program] = None,
              method: str = "auto", cap: int = 10 ** 6) -> Duality:
    """Duality in the ABox category of a dependency set: duals are adjoint
    members of the base duals, left unchased; morphisms are maps extending
    to homomorphisms of the chases."""
    sigma = tuple(sigma)
    duals, _ = _theory_duals(sigma, F, adjoint_program, method, cap,
                             chase_duals=False)
    return Duality(duals=duals, frontier=tuple(F), theory=sigma,
                   category="abox")


# ---------------------------------------------------------------------------
# ABox morphisms
# ---------------------------------------------------------------------------


def _relation_closure(P: Program, seeds: set[str]) -> set[str]:
    """Relations that can ever hold in a chase whose input relations with
    facts are ``seeds``."""
    reachable = set(seeds)
    changed = True
    while changed:
        changed = False
        for rule in P.rules:
            if all(a.rel in reachable for a in rule.body_atoms):
                for a in rule.head_atoms:
                    if a.rel not in reachable:
                        reachable.add(a.rel)
                        changed = True
    return reachable


def abox_morphism(sigma, A: Instance, B: Instance,
                  h: Optional[dict] = None,
                  budget: int = 24) -> str:
    """Decide whether a map extending ``h`` exists from A to B that extends
    to a homomorphism of the chases.  Returns "yes", "no", or "unknown".

    Exact when both chases terminate.  Otherwise: "no" on a
    relation-reachability certificate, "yes" when a homomorphism between
    the bounded chases exists and survives one more chase round on the
    source, "unknown" otherwise.
    """
    sigma = tuple(sigma)
    base = tgd_schema(sigma).union(A.schema).union(B.schema)
    P_sigma = tgd_compile(sigma, base)
    h = dict(h or {})
    for src, dst in h.items():
        if src not in A.domain or dst not in B.domain:
            raise DualityError("binding maps outside the given domains")

    def chased(X: Instance, rounds: Optional[int] = None):
        ch, terminated = chase_theory(P_sigma, X, rounds)
        return adom_instance(ch.union(X)), terminated

    if P_sigma.terminates:
        found = find_homomorphism(chased(A)[0], chased(B)[0], bindings=h)
        return "yes" if found is not None else "no"

    chA_r, termA = chased(A, budget)
    # the target is chased deeper than the source so that a source chase
    # extended by one round still fits into it
    chB_r, termB = chased(B, 2 * budget + 2)
    if termA and termB:
        found = find_homomorphism(chA_r, chB_r, bindings=h)
        return "yes" if found is not None else "no"

    # certificate: a relation holding in A's chase that can never hold in B's
    seedsB = {f"{r}_in" for r, _ in base.relations
              if any(f[0] == r for f in B.facts)}
    reachB = _relation_closure(P_sigma, seedsB)
    reachB_base = {r[:-4] for r in reachB if r.endswith("_out")}
    for rel, _ in chA_r.facts:
        if rel not in reachB_base:
            return "no"

    hom_r = find_homomorphism(chA_r, chB_r, bindings=h)
    if termB and hom_r is None:
        # the bounded source chase is contained in the full one, so a full
        # homomorphism would restrict to one here
        return "no"
    chA_r1, _ = chased(A, budget + 1)
    hom_r1 = find_homomorphism(chA_r1, chB_r, bindings=h)
    if hom_r is not None and hom_r1 is not None:
        return "yes"
    return "unknown"
