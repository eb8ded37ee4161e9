"""Brute-force verification backbone.

Exhaustive small-instance enumeration plus checkers for homomorphism
dualities, generalized right-adjoints, and bounded program equivalence.
Everything here is deliberately independent of the constructions it checks:
it only uses the chase and plain homomorphism search.

In the ABox category of a dependency set, a morphism A -> B is a map that
extends to a homomorphism of the chases; by universality of the chase that
holds exactly when A maps into the chase of B, so one homomorphism search
into B's chase decides it (Fagin, Kolaitis, Miller and Popa, TCS 2005).
A chase cut off at its round bound is a prefix, so the answer is
three-valued: "yes", "no" or "unknown".  Every "does some member map"
question (a frontier member into (C, c), (C, c) into a dual, a query's
disjunct into an example) goes through ``_some_map``, which folds the
answers by strong Kleene disjunction: any "yes", then any "unknown", then
"no".

Every bounded check reads its instances from one generator, ``_checked``,
which chases each of them once.  Its one rule: a check first reads only
the first labeled member of each isomorphism class, and the least point
tuple of each orbit under the instance's automorphisms; at the first
answer that is not exact it reads every labeled instance and tuple from
the start, and returns that loop's verdict.  An exact answer is invariant
under isomorphism: a terminated chase is unique up to isomorphism, a fact
of a chase prefix holds in every model, and a prefix that does not map
into a target rules out every model.  So when the labeled loop reads only
exact answers, the class loop returns its verdict and first counterexample
(orderly generation: Read, "Every one a winner", 1978; McKay, J.
Algorithms 1998).  A prefix cut off at its round bound can depend on
element names, as the restricted chase fires triggers in name order, so
three answers are not exact: an "unknown", the heuristic "yes" of
``verify_adjoint``, and a bounded equivalence whose chase did not
terminate.  A labeled copy may read such an answer where its class
representative reads an exact one; the class loop then keeps the exact
answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .chase import chase_theory, run_program
from .core import (
    Element,
    Fact,
    HomkitError,
    Instance,
    Schema,
    adom_instance,
    fact_ser,
    find_homomorphism,
    iter_homomorphisms,
)
from .program import Program, tgd_compile

# rounds of the chase behind an ABox morphism check when the dependency set
# admits non-terminating chases
ABOX_ROUNDS = 22

# rounds of a program's chase in the duality, adjoint and equivalence checks
# when the program admits non-terminating chases
PROGRAM_ROUNDS = 12


class OracleError(HomkitError):
    pass


@dataclass
class Verdict:
    """Outcome of a bounded exhaustive check.

    ``counterexample`` is present exactly when ``passed`` is false; when the
    check could not be decided within the chase budget, ``unknown`` is set
    and the explanation says why.
    """

    passed: bool
    bound: int
    counterexample: Optional[Instance] = None
    explanation: str = ""
    unknown: bool = False

    def __post_init__(self):
        if self.passed and self.counterexample is not None:
            raise OracleError("passing verdict with a counterexample")
        if not self.passed and self.counterexample is None and \
                not self.unknown:
            raise OracleError("failing verdict without a counterexample")

    def __bool__(self):
        return self.passed


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _all_facts(schema: Schema, elems: list[Element]) -> list[Fact]:
    facts: list[Fact] = []
    for rel, arity in schema.relations:
        for combo in itertools.product(elems, repeat=arity):
            facts.append((rel, combo))
    return facts


def count_instances(schema: Schema, max_domain: int) -> int:
    """Closed-form count of the enumeration, for self-testing."""
    total = 0
    for m in range(max_domain + 1):
        exponent = sum(m ** arity for _, arity in schema.relations)
        total += 2 ** exponent
    return total


def _is_model(C: Instance, P_sigma: Program) -> bool:
    """Does the chase of C add nothing new, up to homomorphic equivalence
    fixing the active domain of C?  ``P_sigma`` terminates, and C is
    unpointed."""
    if C.schema != P_sigma.s_aux:
        C = C.with_schema(P_sigma.s_aux)
    chased, _ = chase_theory(P_sigma, C)
    # the chase keeps C's facts, so its active domain holds C's
    return find_homomorphism(adom_instance(chased), C,
                             fixed=sorted(C.active_domain)) is not None


def enumerate_instances(schema: Schema, max_domain: int) -> Iterator[Instance]:
    """All instances over domains {e1..em}, m <= max_domain, all fact
    subsets, ordered by domain size, then fact count, then canonical fact
    order."""
    if max_domain < 0:
        raise OracleError("max_domain must be >= 0")
    for m in range(max_domain + 1):
        elems = [Element.named(f"e{i}") for i in range(1, m + 1)]
        domain = frozenset(elems)
        candidates = _all_facts(schema, elems)
        for size in range(len(candidates) + 1):
            for combo in itertools.combinations(range(len(candidates)),
                                                size):
                # valid by construction: every candidate is over elems
                facts = frozenset([candidates[i] for i in combo])
                yield Instance._trusted(schema, domain, facts, ())


def _permutation_table(schema: Schema, m: int) -> tuple[dict, list]:
    """The fact index map over {e1..em} and every permutation of it as
    (element map, action on fact indices); no permutations when there are
    more of them than instances with m elements."""
    elems = [Element.named(f"e{i}") for i in range(1, m + 1)]
    candidates = _all_facts(schema, elems)
    index = {f: i for i, f in enumerate(candidates)}
    if math.factorial(m) > 2 ** len(candidates):
        return index, []
    perms = []
    for images in itertools.permutations(elems):
        pi = dict(zip(elems, images))
        perms.append((pi, [index[rel, tuple(pi[e] for e in args)]
                           for rel, args in candidates]))
    return index, perms


def _class_representatives(schema: Schema, max_domain: int,
                           up_to_iso: bool = True):
    """(C, autos) for every C of ``enumerate_instances`` that is the first
    labeled member of its isomorphism class: no permutation of {e1..em}
    maps its fact-index combination to a lexicographically smaller one.
    ``autos`` holds the permutations that fix the combination, as element
    maps.  Without ``up_to_iso``, and at a domain size with more
    permutations than instances, every instance comes with no
    automorphisms."""
    m, perms = -1, []
    for C in enumerate_instances(schema, max_domain):
        if up_to_iso and len(C.domain) != m:
            m = len(C.domain)
            index, perms = _permutation_table(schema, m)
        if not perms:
            yield C, ()
            continue
        combo = sorted(map(index.__getitem__, C.facts))
        autos = []
        for pi, fmap in perms:
            image = sorted(map(fmap.__getitem__, combo))
            if image < combo:
                break
            if image == combo:
                autos.append(pi)
        else:
            yield C, autos


# ---------------------------------------------------------------------------
# ABox morphisms
# ---------------------------------------------------------------------------


def _relation_closure(P: Program, seeds: set[str]) -> set[str]:
    """Relations that can ever hold in a chase of P once the relations
    ``seeds`` hold facts."""
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


def _abox_chase(P_sigma: Program, X: Instance) -> tuple[Instance, bool]:
    """X's chase through a compiled dependency set, with X's whole domain
    and points: to the fixpoint when the chase terminates, otherwise for
    ``ABOX_ROUNDS`` rounds.  Returns (chase, terminated)."""
    return chase_theory(P_sigma, X,
                        None if P_sigma.terminates else ABOX_ROUNDS)


def _abox_decide(P_sigma: Program, A: Instance, A_chase, B: Instance,
                 B_chase, h: dict) -> str:
    """Is there an ABox morphism A -> B extending h?  ``A_chase`` and
    ``B_chase`` come from ``_abox_chase``; a ``None`` ``A_chase`` is
    computed here, only when the answer needs it.

    "yes" when A maps into B's chase, a prefix of the full one; "no" when
    B's chase terminated, or when A's chase holds a relation that no chase
    of B can ever derive (the closure runs from B's base relations: under
    the copy rules of ``tgd_compile`` a base relation is reachable exactly
    when its output copy is); "unknown" otherwise.
    """
    source = adom_instance(A)
    if source.schema != P_sigma.s_aux:
        source = source.with_schema(P_sigma.s_aux)
    target, terminated = B_chase
    if find_homomorphism(source, target, bindings=h) is not None:
        return "yes"
    if terminated:
        return "no"
    reach = _relation_closure(P_sigma, {rel for rel, _ in B.facts})
    if A_chase is None:
        A_chase = _abox_chase(P_sigma, A)
    if any(rel not in reach for rel, _ in A_chase[0].facts):
        return "no"
    return "unknown"


def abox_morphism(sigma, A: Instance, B: Instance,
                  h: Optional[dict] = None) -> str:
    """Decide whether a map extending ``h`` exists from A to B that extends
    to a homomorphism of the chases: "yes", "no" or "unknown", exact when
    the dependency set's chases terminate (see ``_abox_decide``)."""
    h = dict(h or {})
    for src, dst in h.items():
        if src not in A.domain or dst not in B.domain:
            raise OracleError("binding maps outside the given domains")
    P_sigma = tgd_compile(tuple(sigma), A.schema.union(B.schema))
    return _abox_decide(P_sigma, A, None, B, _abox_chase(P_sigma, B), h)


# ---------------------------------------------------------------------------
# The bounded loop
# ---------------------------------------------------------------------------


def _program_output(P: Program, I: Instance, budget: int):
    """(output instance restricted to its active domain, stable?)"""
    res = run_program(P, I, budget=budget)
    return adom_instance(res.output), res.terminated


def _checked(schema: Schema, B: int, k: int, up_to_iso: bool, programs=(),
             P_sigma: Optional[Program] = None,
             models_of: Optional[Program] = None):
    """(C pointed at pts, pts, runs) for each instance C with at most B
    elements and each k-tuple pts over its domain: with ``up_to_iso``
    only class representatives and the least tuple of each orbit, else
    every labeled instance and tuple.  ``runs``, shared by C's tuples,
    holds C's ``_program_output`` through each of ``programs``, then its
    ``_abox_chase`` through ``P_sigma``.  Only models of ``models_of``
    are read, and no instance without a point tuple."""
    if models_of is not None and not models_of.terminates:
        raise OracleError("instance filter requires a dependency set "
                          "with terminating chases")
    for C, autos in _class_representatives(schema, B, up_to_iso):
        if k and not C.domain:
            continue
        if models_of is not None and not _is_model(C, models_of):
            continue
        runs = [_program_output(P, C, PROGRAM_ROUNDS) for P in programs]
        if P_sigma is not None:
            runs.append(_abox_chase(P_sigma, C))
        order = C.sorted_domain()
        rank = {e: i for i, e in enumerate(order)}
        for pts in itertools.product(order, repeat=k):
            # the least tuple of its orbit, in the product order of rank
            key = [rank[e] for e in pts]
            if all([rank[pi[e]] for e in pts] >= key for pi in autos):
                yield (C.with_points(pts) if k else C), pts, runs


def _exact_first(fold) -> Verdict:
    """``fold(up_to_iso)`` folds a check over ``_checked`` and returns its
    verdict, or None at an answer that is not exact while it reads class
    representatives; the labeled fold then decides (the module
    docstring's rule)."""
    verdict = fold(True)
    return fold(False) if verdict is None else verdict


# ---------------------------------------------------------------------------
# Duality verification
# ---------------------------------------------------------------------------


def _some_map(pairs, P_sigma: Optional[Program] = None) -> str:
    """Does some source map into its target?  Each pair is ((A, A_chase),
    (B, B_chase)), a chase from ``_abox_chase`` or None.  Without
    ``P_sigma`` a pair is a homomorphism A -> B; with it, an ABox morphism
    that maps A's points to B's (``_abox_decide``).  "yes" at the first
    pair that maps, else "unknown" when some pair was unknown, else "no":
    strong Kleene disjunction."""
    unknown = False
    for (A, A_chase), (B, B_chase) in pairs:
        if P_sigma is None:
            ans = "no" if find_homomorphism(A, B) is None else "yes"
        else:
            ans = _abox_decide(P_sigma, A, A_chase, B, B_chase,
                               dict(zip(A.points, B.points)))
        if ans == "yes":
            return ans
        unknown = unknown or ans == "unknown"
    return "unknown" if unknown else "no"


def verify_duality(F, D, B: int = 3, sigma=None,
                   category: Optional[str] = None) -> Verdict:
    """Check the duality statement exhaustively at bound B.

    For every pointed (C, c) with at most B elements (dependency models
    only in the relative category), exactly one of "some frontier member
    maps into (C, c)" and "(C, c) maps into some dual" must hold.  The
    relative and ABox categories need a dependency set ``sigma``, and the
    plain one takes none; the category defaults to relative when ``sigma``
    is given, else to plain.  ``F`` is a set of pointed instances or a
    (program, relation) generator; generator membership is decided by
    chase derivation of R(c), with one chase per unpointed instance shared
    by all its point tuples.  A chase that does not terminate is read for
    ``PROGRAM_ROUNDS`` rounds: R(c) in that prefix is a certain "yes", its
    absence is a certain "no" only after a fixpoint, and the verdict is
    unknown otherwise.  In the ABox category every frontier member, dual
    and unpointed instance is chased once, and each chase serves as a
    morphism target and as a certificate source.  The pointed instances
    come from ``_checked``.
    """
    duals = list(D)
    if category is None:
        category = "plain" if sigma is None else "relative"
    if (sigma is None) != (category == "plain"):
        raise OracleError(f"the {category} category needs a dependency set"
                          if sigma is None else
                          "the plain category takes no dependency set")
    generator = isinstance(F, tuple) and bool(F) and \
        isinstance(F[0], Program)
    if generator:
        schema = F[0].s_in
        k = F[0].s_out.arity(F[1])
    else:
        F = list(F)
        if not F and not duals:
            raise OracleError("nothing to verify")
        probe = (F or duals)[0]
        schema = probe.schema
        k = len(probe.points)
    P_sigma = None if sigma is None else tgd_compile(tuple(sigma), schema)
    abox = P_sigma if category == "abox" else None

    def side(X: Instance) -> tuple:
        return X, None if abox is None else _abox_chase(abox, X)

    F_sides = [] if generator else [side(A) for A in F]
    D_sides = [side(d) for d in duals]

    def fold(up_to_iso: bool) -> Optional[Verdict]:
        for Cp, pts, runs in _checked(
                schema, B, k, up_to_iso, (F[0],) if generator else (), abox,
                P_sigma if category == "relative" else None):
            C_side = (adom_instance(Cp), None) if abox is None else \
                (Cp, runs[-1])
            if generator:
                out, terminated = runs[0]
                # a miss in a chase prefix decides nothing
                fin = "yes" if (F[1], pts) in out.facts else (
                    "no" if terminated else "unknown")
            else:
                fin = _some_map([(A, C_side) for A in F_sides], abox)
            din = _some_map([(C_side, d) for d in D_sides], abox)
            if "unknown" in (fin, din):
                if up_to_iso:
                    return None
                expl = (f"{fact_ser((F[1], pts))} is not derived in "
                        f"{PROGRAM_ROUNDS} chase rounds and the chase has "
                        "not terminated"
                        if generator and fin == "unknown" else
                        "bounded chase could not decide a morphism for "
                        "this instance")
                return Verdict(False, B, Cp, unknown=True,
                               explanation=f"unknown: {expl}")
            if fin == din:
                where = ("in both the frontier's and the duals' closure"
                         if fin == "yes" else "in neither closure")
                return Verdict(False, B, Cp,
                               explanation=f"instance is {where}")
        return Verdict(True, B)

    return _exact_first(fold)


# ---------------------------------------------------------------------------
# Adjoint verification
# ---------------------------------------------------------------------------


def verify_adjoint(P: Program, J: Instance, result, B: int = 3) -> Verdict:
    """Check the right-adjoint property of ``result`` for (P, J) at bound B.

    For every input instance I with at most B elements: P(I) maps into J
    iff I maps into some member; and when both hold, some witness pair of
    homomorphisms commutes through the member's partial back-map.  For
    programs with non-terminating chases the left side reads a chase
    prefix of ``PROGRAM_ROUNDS`` rounds.  A prefix that does not map into
    J is a certain "no", as the output only grows.  A prefix that maps
    into J is not a certain "yes": it is accepted when one more round
    still maps, and the verdict is unknown otherwise.  The instances come
    from ``_checked``: class representatives while every answer is exact,
    and every labeled instance from the start once a prefix maps into J,
    since that heuristic "yes" is not exact.
    """
    members = list(result.members)

    def fold(up_to_iso: bool) -> Optional[Verdict]:
        for I, _, ((out, stable),) in _checked(P.s_in, B, 0, up_to_iso,
                                               (P,)):
            lhs = find_homomorphism(out, J) is not None
            if lhs and not stable:
                if up_to_iso:
                    return None
                # heuristic "yes": certifying it needs a finite model of P
                # whose output maps into J, and nothing here searches for one
                out1, _ = _program_output(P, I, PROGRAM_ROUNDS + 1)
                lhs1 = find_homomorphism(out1, J) is not None
                if lhs != lhs1:
                    return Verdict(False, B, I, unknown=True,
                                   explanation="unknown: bounded chase not "
                                               "stable for this instance")
            I_adom = adom_instance(I)
            rhs = any(
                find_homomorphism(I_adom, j_prime) is not None
                for j_prime, _ in members
            )
            if lhs != rhs:
                expl = ("program image maps into J but I maps into no "
                        "member" if lhs else
                        "I maps into a member but the program image does "
                        "not map into J")
                return Verdict(False, B, I, explanation=expl)
            if not lhs:
                continue
            # commuting diagram: some h: I -> member and g: image -> J with
            # g agreeing with iota∘h wherever iota∘h is defined
            ok = False
            for j_prime, iota in members:
                if ok:
                    break
                for h in iter_homomorphisms(I_adom, j_prime):
                    bindings = {
                        x: iota[h[x]]
                        for x in h
                        if x in out.domain and h[x] in iota
                    }
                    if find_homomorphism(out, J,
                                         bindings=bindings) is not None:
                        ok = True
                        break
            if not ok:
                return Verdict(False, B, I,
                               explanation="no homomorphism pair commutes "
                                           "through the member back-maps")
        return Verdict(True, B)

    return _exact_first(fold)


# ---------------------------------------------------------------------------
# Bounded program equivalence
# ---------------------------------------------------------------------------


def programs_equivalent_bounded(P1: Program, P2: Program,
                                B: int = 3) -> Verdict:
    """Check that both programs produce homomorphically equivalent outputs
    (fixing the input's active domain) on every input with at most B
    elements.  Each program is chased once per input from ``_checked``; a
    chase that did not terminate within ``PROGRAM_ROUNDS`` rounds leaves
    only a prefix of the output, which certifies nothing, so the verdict
    is unknown, at the first such labeled input."""
    if P1.s_in.relations != P2.s_in.relations or \
            P1.s_out.relations != P2.s_out.relations:
        raise OracleError("programs have different input or output schemas")

    def fold(up_to_iso: bool) -> Optional[Verdict]:
        for I, _, outs in _checked(P1.s_in, B, 0, up_to_iso, (P1, P2)):
            if not all(terminated for _, terminated in outs):
                if up_to_iso:
                    return None
                return Verdict(False, B, I, unknown=True,
                               explanation="unknown: bounded chase did not "
                                           "terminate for this instance")
            fixed = sorted(set(I.active_domain))
            o1, o2 = (Instance(P1.s_out, set(o.domain) | set(fixed),
                               o.facts) for o, _ in outs)
            if find_homomorphism(o1, o2, fixed=fixed) is None or \
                    find_homomorphism(o2, o1, fixed=fixed) is None:
                return Verdict(False, B, I,
                               explanation="outputs are not homomorphically "
                                           "equivalent over the input's "
                                           "active domain")
        return Verdict(True, B)

    return _exact_first(fold)
