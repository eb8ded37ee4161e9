"""Differential test: ``oracle.verify_duality``, which chases each
unpointed instance once for all its point tuples and checks one instance
per isomorphism class and one point tuple per orbit, agrees exactly with
the per-tuple loop over every labeled instance, kept below verbatim as the
slow reference: same ``passed``, ``unknown``, explanation and
counterexample, points included.  ``oracle.verify_adjoint`` and
``oracle.programs_equivalent_bounded`` are checked the same way against
their labeled loops, and the model filter of the relative category reads
every labeled instance here.  Programs and dependency sets whose chases do
not terminate are among the cases: there the oracle keeps reading class
representatives while every answer is exact, which only these comparisons
guard, since the restricted chase fires its triggers in element-name
order."""

import itertools
import random
from types import SimpleNamespace
from typing import Iterator, Optional

from conftest import (
    digraph,
    make_disconnected_program,
    make_nonterminating_program,
    make_path_program,
    make_sigma1_rewrite,
    make_symmetric_closure,
    make_tc_program,
    rel_instance,
    sigma1,
    sigma2,
)
from homkit.chase import chase_theory, run_program
from homkit.adjoint import adjoint
from homkit.core import (
    Instance,
    Schema,
    adom_instance,
    fact_ser,
    find_homomorphism,
    iter_homomorphisms,
)
from homkit.duality import abox_dual, dual_from_program, dual_wrt_theory
from homkit import oracle
from homkit.oracle import (
    PROGRAM_ROUNDS,
    OracleError,
    Verdict,
    abox_morphism,
    enumerate_instances,
)
from homkit.program import Atom, Program, Rule, tgd_compile


# ---------------------------------------------------------------------------
# The per-tuple loop (one chase for every point tuple)
# ---------------------------------------------------------------------------


def _is_model(C: Instance, P_sigma: Program) -> bool:
    """Does the chase of C add nothing new, up to homomorphic equivalence
    fixing the active domain of C?  ``P_sigma`` terminates, and C is an
    unpointed instance over its base schema."""
    chased, _ = chase_theory(P_sigma, C)
    fixed = sorted(set(C.active_domain))
    chased = Instance(P_sigma.s_aux, set(chased.active_domain) | set(fixed),
                      chased.facts)
    return find_homomorphism(chased, C, fixed=fixed) is not None


def enumerate_models(schema: Schema, max_domain: int,
                     filter_sigma=None) -> Iterator[Instance]:
    """Every labeled instance, or with ``filter_sigma`` only those the
    dependency chase leaves unchanged up to hom-equivalence over the
    active domain (requires terminating chases)."""
    P_sigma = base = None
    if filter_sigma is not None:
        P_sigma = tgd_compile(tuple(filter_sigma), schema)
        base = P_sigma.s_aux
        if not P_sigma.terminates:
            raise OracleError("instance filter requires a dependency set "
                              "with terminating chases")
    for C in enumerate_instances(schema, max_domain):
        if P_sigma is not None and not _is_model(
                C.with_schema(base) if base != schema else C, P_sigma):
            continue
        yield C


def enumerate_pointed(schema: Schema, max_domain: int, k: int,
                      filter_sigma=None) -> Iterator[Instance]:
    """Pointed variant: every instance with every k-tuple over its domain."""
    for C in enumerate_models(schema, max_domain, filter_sigma):
        if k == 0:
            yield C
            continue
        for pts in itertools.product(C.sorted_domain(), repeat=k):
            yield C.with_points(pts)


# ---------------------------------------------------------------------------
# Duality verification
# ---------------------------------------------------------------------------


def _frontier_hit(F, C: Instance, sigma, category: str) -> Optional[bool]:
    """Is (C, c) in the upward closure of the frontier?  None = unknown."""
    if isinstance(F, tuple) and len(F) in (2, 3) and \
            isinstance(F[0], Program):
        # generator: derivation membership via a chase prefix, where a
        # miss is certain only after a fixpoint
        P, R = F[0], F[1]
        I = C.with_points(()).with_schema(P.s_in)
        res = run_program(P, I, budget=PROGRAM_ROUNDS)
        target = (R, tuple(C.points))
        if target in res.output.facts:
            return True
        return False if res.terminated else None
    for A in F:
        if category == "abox":
            h = dict(zip(A.points, C.points))
            ans = abox_morphism(sigma, A, C, h)
            if ans == "yes":
                return True
            if ans == "unknown":
                return None
        else:
            if find_homomorphism(A, adom_instance(C)) is not None:
                return True
    return False


def _dual_hit(D, C: Instance, sigma, category: str) -> Optional[bool]:
    unknown = False
    for d in D:
        if category == "abox":
            h = dict(zip(C.points, d.points))
            ans = abox_morphism(sigma, C, d, h)
            if ans == "yes":
                return True
            if ans == "unknown":
                unknown = True
        else:
            if find_homomorphism(adom_instance(C), d) is not None:
                return True
    return None if unknown else False


def verify_duality(F, D, B: int = 3, sigma=None,
                   category: Optional[str] = None) -> Verdict:
    """Check the duality statement exhaustively at bound B.

    For every pointed (C, c) with at most B elements (dependency models
    only when ``sigma`` is given in the model category), exactly one of
    "some frontier member maps into (C, c)" and "(C, c) maps into some
    dual" must hold.  ``F`` is a set of pointed instances or a
    (program, relation[, depth]) generator; generator membership is decided
    by chase derivation of R(c) in ``PROGRAM_ROUNDS`` rounds.
    """
    duals = list(D)
    if category is None:
        category = "plain" if sigma is None else "relative"
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
    filt = sigma if (sigma is not None and category == "relative") else None
    for C in enumerate_pointed(schema, B, k, filter_sigma=filt):
        fin = _frontier_hit(F, C, sigma, category)
        din = _dual_hit(duals, C, sigma, category)
        if fin is None or din is None:
            expl = (f"{fact_ser((F[1], C.points))} is not derived in "
                    f"{PROGRAM_ROUNDS} chase rounds and the chase has not "
                    "terminated" if generator and fin is None else
                    "bounded chase could not decide a morphism for this "
                    "instance")
            return Verdict(False, B, C, unknown=True,
                           explanation=f"unknown: {expl}")
        if fin == din:
            side = ("in both the frontier's and the duals' closure"
                    if fin else "in neither closure")
            return Verdict(False, B, C,
                           explanation=f"instance is {side}")
    return Verdict(True, B)


# ---------------------------------------------------------------------------
# Adjoint verification over every labeled instance
# ---------------------------------------------------------------------------


def _program_output(P: Program, I: Instance, budget: int):
    """(output instance restricted to its active domain, stable?)"""
    res = run_program(P, I, budget=budget)
    return adom_instance(res.output), res.terminated


def verify_adjoint(P: Program, J: Instance, result, B: int = 3) -> Verdict:
    """Check the right-adjoint property of ``result`` for (P, J) at bound B.

    For every input instance I with at most B elements: P(I) maps into J
    iff I maps into some member; and when both hold, some witness pair of
    homomorphisms commutes through the member's partial back-map.  For
    programs with non-terminating chases the left side reads a chase
    prefix of ``PROGRAM_ROUNDS`` rounds.  A prefix that does not map into
    J is a certain "no", as the output only grows.  A prefix that maps
    into J is not a certain "yes": it is accepted when one more round
    still maps, and the verdict is unknown otherwise.
    """
    members = list(result.members)
    for I in enumerate_instances(P.s_in, B):
        out, stable = _program_output(P, I, PROGRAM_ROUNDS)
        lhs = find_homomorphism(out, J) is not None
        if lhs and not stable:
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
            expl = ("program image maps into J but I maps into no member"
                    if lhs else
                    "I maps into a member but the program image does not "
                    "map into J")
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
                if find_homomorphism(out, J, bindings=bindings) is not None:
                    ok = True
                    break
        if not ok:
            return Verdict(False, B, I,
                           explanation="no homomorphism pair commutes "
                                       "through the member back-maps")
    return Verdict(True, B)


# ---------------------------------------------------------------------------
# Bounded program equivalence over every labeled instance
# ---------------------------------------------------------------------------


def programs_equivalent_bounded(P1: Program, P2: Program,
                                B: int = 3) -> Verdict:
    """Check that both programs produce homomorphically equivalent outputs
    (fixing the input's active domain) on every input with at most B
    elements.  Each program is chased once per input; a chase that did
    not terminate within ``PROGRAM_ROUNDS`` rounds leaves only a prefix of
    the output, which certifies nothing, so the verdict is unknown."""
    if P1.s_in.relations != P2.s_in.relations or \
            P1.s_out.relations != P2.s_out.relations:
        raise OracleError("programs have different input or output schemas")
    for I in enumerate_instances(P1.s_in, B):
        outs = []
        for P in (P1, P2):
            out, terminated = _program_output(P, I, PROGRAM_ROUNDS)
            if not terminated:
                return Verdict(False, B, I, unknown=True,
                               explanation="unknown: bounded chase did not "
                                           "terminate for this instance")
            outs.append(out)
        fixed = sorted(set(I.active_domain))
        o1, o2 = (Instance(P1.s_out, set(o.domain) | set(fixed), o.facts)
                  for o in outs)
        if find_homomorphism(o1, o2, fixed=fixed) is None or \
                find_homomorphism(o2, o1, fixed=fixed) is None:
            return Verdict(False, B, I,
                           explanation="outputs are not homomorphically "
                                       "equivalent over the input's "
                                       "active domain")
    return Verdict(True, B)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


E = Schema([("E", 2)])


def _summary(v: Verdict):
    cex = v.counterexample
    return (v.passed, v.unknown, v.bound, v.explanation, repr(cex),
            None if cex is None else sorted(e.ser for e in cex.domain))


def _same(F, D, B, **kw):
    got = oracle.verify_duality(F, D, B, **kw)
    want = verify_duality(F, D, B, **kw)
    assert _summary(got) == _summary(want), (F, D, B)
    return got


def _path_out(n: int, ends: tuple) -> Program:
    """Ans over the chosen positions of an n-edge directed path x0..xn."""
    body = tuple(Atom("E", (f"x{i}", f"x{i + 1}")) for i in range(n))
    head = tuple(f"x{i}" for i in ends)
    return Program(E, Schema([("Ans", len(head))]), Schema([]),
                   [Rule((Atom("Ans", head),), body)])


def _random_pointed(rng, k: int) -> Instance:
    names = [f"d{i}" for i in range(rng.randint(1, 3))]
    edges = [(a, b) for a in names for b in names if rng.random() < 0.35]
    points = tuple(rng.choice(names) for _ in range(k))
    return digraph(edges, extra=names, points=points)


def _wrong_duals(rng, duals: list, k: int) -> list:
    """A seeded perturbation: drop a dual, add a random one, or add or
    drop an edge of one."""
    duals = list(duals)
    choice = rng.randrange(4)
    if choice == 0 and duals:
        duals.pop(rng.randrange(len(duals)))
    elif choice == 1 or not duals:
        duals.append(_random_pointed(rng, k))
    else:
        i = rng.randrange(len(duals))
        d = duals[i]
        facts = sorted(d.facts)
        if choice == 2 and facts:
            facts.pop(rng.randrange(len(facts)))
        else:
            elems = d.sorted_domain()
            facts.append(("E", (rng.choice(elems), rng.choice(elems))))
        duals[i] = Instance(d.schema, d.domain, facts, d.points)
    return duals


GENERATORS = [
    make_path_program(1), make_path_program(2), make_path_program(3),
    _path_out(1, (0,)), _path_out(2, (0,)), _path_out(2, (1,)),
    _path_out(1, (0, 1)), make_tc_program(),
]


def test_generators_cover_point_arities():
    assert sorted({P.s_out.arity("Ans") for P in GENERATORS}) == [0, 1, 2]


def test_generator_frontiers_match_reference():
    rng = random.Random(4051)
    verdicts = []
    for P in GENERATORS:
        d = dual_from_program(P, "Ans")
        k = P.s_out.arity("Ans")
        for B in (2, 3):
            verdicts.append(_same(d.generator, d.duals, B))
            for _ in range(3):
                verdicts.append(
                    _same(d.generator, _wrong_duals(rng, d.duals, k), B))
    # both outcomes occur, and failures at both bounds
    assert any(v.passed for v in verdicts)
    assert {v.bound for v in verdicts if not v.passed} == {2, 3}


def test_explicit_frontiers_match_reference():
    rng = random.Random(977)
    for _ in range(12):
        k = rng.choice((0, 1, 2))
        F = [_random_pointed(rng, k) for _ in range(rng.randint(1, 2))]
        D = [_random_pointed(rng, k) for _ in range(rng.randint(0, 2))]
        for B in (2, 3):
            _same(F, D, B)
    edge = digraph([("a", "b")], points=("a",))
    _same([edge], [digraph([], extra=["x"], points=("x",))], 3)


def test_theory_frontiers_match_reference():
    sigma = sigma1("E")
    d = dual_wrt_theory(sigma, [digraph([("a", "b"), ("b", "c")])],
                        adjoint_program=make_sigma1_rewrite("E"))
    for B in (2, 3):
        assert _same(d.frontier, d.duals, B, sigma=sigma,
                     category="relative").passed
        assert not _same(d.frontier, d.duals[1:], B, sigma=sigma,
                         category="relative").passed
    sigma = sigma2("E")
    d = abox_dual(sigma, [digraph([("a", "b")])])
    assert _same(d.frontier, d.duals, 2, sigma=sigma,
                 category="abox").passed


def test_nonterminating_abox_dualities_match_reference():
    # under E(x,y) -> exists z E(y,z) no chase terminates; the pointed
    # 2-edge path's verdict ends unknown, which the labeled loop decides
    rng = random.Random(5309)
    sigma = sigma2("E")
    ppath = digraph([("a", "b"), ("b", "c")], points=("a", "c"))
    verdicts = []
    for frontier in ([digraph([("a", "b")])], [ppath]):
        d = abox_dual(sigma, frontier)
        k = len(frontier[0].points)
        for B in (2, 3):
            for duals in [d.duals] + [_wrong_duals(rng, d.duals, k)
                                      for _ in range(3)]:
                verdicts.append(_same(d.frontier, duals, B, sigma=sigma,
                                      category="abox"))
    assert verdicts[0].passed and not verdicts[0].unknown
    ppath_verdicts = verdicts[len(verdicts) // 2:]
    assert ppath_verdicts[0].unknown and ppath_verdicts[4].unknown
    assert any(not v.passed and not v.unknown for v in verdicts)


# T(y,w) :- T(x,y) for an existential w: not weakly acyclic
UNBOUNDED = Rule((Atom("T", ("y", "w")),), (Atom("T", ("x", "y")),), ("w",))


def test_nonterminating_generator_frontiers_match_reference():
    # unary generators with T(x,y) :- E(x,y) and the unbounded rule of
    # ``_random_program``: a miss in a chase prefix leaves the verdict
    # unknown; with T(y,y) :- E(x,y) too, every chase stops at a loop, so
    # every answer is exact
    rng = random.Random(6143)
    seed = Rule((Atom("T", ("x", "y")),), (Atom("E", ("x", "y")),))
    loop = Rule((Atom("T", ("y", "y")),), (Atom("E", ("x", "y")),))
    verdicts = []
    for G in GENERATORS:
        if G.s_out.arity("Ans") != 1:
            continue
        duals = dual_from_program(G, "Ans").duals
        for extra in ([seed, UNBOUNDED], [seed, loop, UNBOUNDED]):
            P = Program(G.s_in, G.s_out, Schema([("T", 2)]),
                        list(G.rules) + extra)
            assert not P.terminates
            for B in (2, 3):
                for D in [duals] + [_wrong_duals(rng, duals, 1)
                                    for _ in range(2)]:
                    verdicts.append(_same((P, "Ans"), D, B))
    assert len(verdicts) == 36
    assert any(v.passed for v in verdicts)
    assert any(not v.passed and not v.unknown for v in verdicts)
    assert any(v.unknown and "not derived in" in v.explanation
               for v in verdicts)


def _wrong_members(rng, members: list) -> list:
    """A seeded perturbation: drop a member, drop or add a fact of one,
    or send all of one member's back-map to a single element."""
    members = list(members)
    i = rng.randrange(len(members))
    m, iota = members[i]
    choice = rng.randrange(4)
    if choice == 0:
        members.pop(i)
    elif choice in (1, 2):
        facts = sorted(m.facts)
        if choice == 1 and facts:
            facts.pop(rng.randrange(len(facts)))
        else:
            rel, arity = rng.choice(m.schema.relations)
            elems = m.sorted_domain()
            facts.append((rel, tuple(rng.choice(elems)
                                     for _ in range(arity))))
        members[i] = (Instance(m.schema, m.domain, facts), iota)
    elif iota:
        members[i] = (m, dict.fromkeys(iota, min(iota.values())))
    return members


def test_adjoint_verdicts_match_labeled_reference():
    rng = random.Random(3607)
    programs = [make_symmetric_closure(), make_disconnected_program(),
                make_path_program(2), make_sigma1_rewrite(),
                make_tc_program()]
    verdicts = []
    for P in programs:
        assert P.terminates
        rel, arity = P.s_out.relations[0]
        for tuples in ([], [("a",) * arity], [tuple("ab"[:arity])]):
            J = rel_instance(rel, arity, tuples, extra=["a", "b"])
            members = adjoint(P, J).members
            for result in [members] + [_wrong_members(rng, members)
                                       for _ in range(3)]:
                res = SimpleNamespace(members=result)
                for B in (2, 3):
                    got = oracle.verify_adjoint(P, J, res, B)
                    want = verify_adjoint(P, J, res, B)
                    assert _summary(got) == _summary(want), (P, J, B)
                    verdicts.append(got)
    assert any(v.passed for v in verdicts)
    assert {v.bound for v in verdicts if not v.passed} == {2, 3}
    assert len({v.explanation for v in verdicts if not v.passed}) == 3


ADJOINT_TARGETS = [[], [("a", "a")], [("a", "b")], [("a", "b"), ("b", "a")],
                   [("a", "b"), ("b", "c")], [("a", "b"), ("b", "b")]]


def test_nonterminating_adjoint_verdicts_match_labeled_reference():
    # the inclusion dependency R(x,y) -> exists z R(y,z), compiled and as
    # written in conftest: its chases do not terminate, so a verdict reads
    # class representatives only while every answer is exact (J = a loop
    # gives a heuristic "yes" and so the labeled loop)
    rng = random.Random(2711)
    verdicts = []
    for P in (tgd_compile(sigma2()), make_nonterminating_program()):
        assert not P.terminates
        for tuples in ADJOINT_TARGETS:
            J = rel_instance("R_out", 2, tuples,
                             extra=["a", "b"] if not tuples else [])
            members = adjoint(P, J).members
            for result in [members] + [_wrong_members(rng, members)
                                       for _ in range(4)]:
                res = SimpleNamespace(members=result)
                for B in (2, 3):
                    got = oracle.verify_adjoint(P, J, res, B)
                    want = verify_adjoint(P, J, res, B)
                    assert _summary(got) == _summary(want), (P, J, B)
                    verdicts.append(got)
    assert len(verdicts) == 120
    assert any(v.passed for v in verdicts)
    assert {v.bound for v in verdicts if not v.passed} == {2, 3}


def _random_program(rng, unbounded: bool = False) -> Program:
    """One to three seeded rules over E/2, the aux T/2 and the output
    Ans/1, each with one or two body atoms; with ``unbounded``, also
    T(y,w) :- T(x,y) for an existential w, which is not weakly acyclic."""
    rules = []
    for _ in range(rng.randint(1, 3)):
        body = tuple(Atom(rng.choice("ET"), tuple(rng.sample("xyz", 2)))
                     for _ in range(rng.randint(1, 2)))
        seen = sorted({v for a in body for v in a.args})
        head = Atom("Ans", (rng.choice(seen),)) if rng.random() < 0.5 \
            else Atom("T", (rng.choice(seen), rng.choice(seen)))
        rules.append(Rule((head,), body))
    rules.append(Rule((Atom("Ans", ("x",)),), (Atom("T", ("x", "y")),)))
    if unbounded:
        rules.append(UNBOUNDED)
    return Program(E, Schema([("Ans", 1)]), Schema([("T", 2)]), rules)


def _weakened(P: Program) -> Program:
    """P with one more rule that another rule subsumes: an equivalent
    program that is not the same program."""
    rule = P.rules[0]
    extra = Rule(rule.head_atoms,
                 rule.body_atoms + (Atom("E", ("x", "x")),))
    return Program(P.s_in, P.s_out, P.s_aux, list(P.rules) + [extra])


def test_equivalence_verdicts_match_labeled_reference():
    rng = random.Random(2111)
    pairs = []
    for _ in range(6):
        P = _random_program(rng)
        pairs += [(P, _weakened(P)), (P, _random_program(rng)),
                  (_random_program(rng, unbounded=True), P)]
    verdicts = []
    for P1, P2 in pairs:
        for B in (2, 3):
            got = oracle.programs_equivalent_bounded(P1, P2, B)
            want = programs_equivalent_bounded(P1, P2, B)
            assert _summary(got) == _summary(want), (P1, P2, B)
            verdicts.append(got)
    # passing, failing and unknown verdicts all occur
    assert any(v.passed for v in verdicts)
    assert any(not v.passed and not v.unknown for v in verdicts)
    assert any(v.unknown for v in verdicts)
