"""Right-adjoint constructions for program functors.

Given a program P and an instance J over its output schema, a (generalized)
right adjoint produces a finite set of members (J', iota) over the input
schema such that, for every input instance I, P(I) maps homomorphically into
J exactly when I maps into some member.  Each iota is a partial map from the
member's domain into J's domain witnessing the commuting diagram.

Three constructions are provided: ``tam_adjoint`` for tree-shaped
almost-monadic Datalog programs (pair-element construction), ``sl_adjoint``
for strongly linear programs (greatest subinstance with head witnesses), and
``compose_adjoints`` for compositions of program functors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .chase import _plan, _Store
from .core import (
    BOTTOM,
    CapExceeded,
    Element,
    HomkitError,
    Instance,
    Schema,
    _incidence_links,
    current_budget,
)
from .program import (
    Atom,
    Program,
    Rule,
    articulation_search,
    classify,
    fresh_name,
    to_simple_tam,
)

class AdjointError(HomkitError):
    pass


@dataclass(frozen=True)
class AdjointResult:
    """Members (j_prime, iota) of a right adjoint applied to ``source``.

    ``iota`` is a partial map represented as a dict; keys outside it are
    undefined.  Every defined image lies in the source's domain.
    """

    members: tuple  # tuple[(Instance, dict[Element, Element])]
    source: Instance
    method: str

    def __post_init__(self):
        for j_prime, iota in self.members:
            for e, target in iota.items():
                if e not in j_prime.domain:
                    raise AdjointError("iota defined outside member domain")
                if target not in self.source.domain:
                    raise AdjointError("iota image outside source domain")


# ---------------------------------------------------------------------------
# TAM construction
# ---------------------------------------------------------------------------


def _connect_rules(P: Program) -> tuple[Program, str]:
    """Add a fresh binary input relation and use it to connect every
    disconnected rule body.  Returns (augmented program, connector name)."""
    conn = fresh_name("Conn", set(P.full_schema().names))
    s_in = P.s_in.union(Schema([(conn, 2)]))
    new_rules = []
    for rule in P.rules:
        comps = _var_components(rule.body_atoms)
        if len(comps) <= 1:
            new_rules.append(rule)
            continue
        # a variable of an input atom keeps aux variables off the connector
        in_vars = {v for a in rule.body_atoms if a.rel in P.s_in
                   for v in a.args}
        reps = []
        for comp in comps:
            if not comp:
                raise AdjointError(
                    "cannot connect a rule with a variable-free body atom")
            reps.append(min(comp & in_vars or comp))
        extra = tuple(
            Atom(conn, (reps[i], reps[i + 1])) for i in range(len(reps) - 1)
        )
        new_rules.append(Rule(rule.head_atoms, rule.body_atoms + extra,
                              rule.existentials))
    return (
        Program(s_in, P.s_out, P.s_aux, new_rules, P.articulation),
        conn,
    )


def _var_components(body: tuple[Atom, ...]) -> list[set[str]]:
    """Connected components of the body's variable graph (variables linked
    when they co-occur in an atom).  One (possibly empty) set per component
    of the atom graph."""
    uf = _incidence_links([atom.args for atom in body])
    comps: dict = {}
    for idx, atom in enumerate(body):
        comps.setdefault(uf.find(idx), set()).update(atom.args)
    return sorted(comps.values(), key=sorted)


def _maximal_cliques(adj: dict) -> Iterator[frozenset]:
    """Maximal cliques of a loop-free graph given as adjacency sets, by
    Bron-Kerbosch with pivoting.  An empty graph has none."""

    def expand(clique, cands, excluded):
        if not cands and not excluded:
            yield clique
            return
        pivot = max(cands | excluded, key=lambda u: len(cands & adj[u]))
        for v in list(cands - adj[pivot]):
            yield from expand(clique | {v}, cands & adj[v], excluded & adj[v])
            cands = cands - {v}
            excluded = excluded | {v}

    if adj:
        yield from expand(frozenset(), set(adj), set())


def tam_adjoint(P: Program, J: Instance) -> AdjointResult:
    """Right adjoint of a tree-shaped almost-monadic Datalog program.

    Members are built over pair elements (b, X): a base element of
    domain(J) ∪ {⊥} together with a set of aux facts carrying b in
    articulation position.  An input fact over such elements is accepted when
    the closure conditions induced by the (simple-normal-form) rules hold:
    for every rule whose input atom matches the fact's bases, and every
    choice of one fact from X_j for each body aux atom j (X_j being the
    pair element at the atom's articulated variable), the head instantiated
    by that choice lies in J, or, for an aux head, in the X of the element
    at its articulated variable.  This reads every body match off the pair
    elements exactly: under the total articulation witness each
    non-articulated variable of a body aux atom occurs once in the body,
    and each articulated one lies in the input atom and agrees with X's
    base, so the choices never conflict.  Disconnected programs are first
    made connected with a fresh binary connector relation; members are then
    the connector-clique components.  The budget's ``facts`` caps both the
    subsets per base element and the candidate input facts.
    """
    if J.schema.relations != P.s_out.relations:
        raise AdjointError("J must be an instance over the output schema")
    cls = classify(P)
    if not cls.tam:
        raise AdjointError("the pair-element construction requires a "
                           "tree-shaped almost-monadic program")
    if not P.is_datalog:
        raise AdjointError("the pair-element construction requires a "
                           "Datalog program")

    connector = None
    work = P
    if not cls.connected:
        work, connector = _connect_rules(P)
    simple = to_simple_tam(work)
    if not classify(simple).simple:
        raise AdjointError("program admits no simple normal form "
                           "(a rule body cannot be anchored to the input)")
    art = articulation_search(simple, total=True)
    if art is None:
        raise AdjointError("no total articulation witness exists")

    cap = current_budget().facts
    D = sorted(J.domain) + [BOTTOM]
    # every pair element (b, X), X a set of aux facts over D with b in
    # articulation position
    pool = []
    for b in D:
        cands = sorted(
            ((rel, args) for rel, arity in simple.s_aux.relations
             for args in itertools.product(D, repeat=arity)
             if args[art[rel] - 1] is b),
            key=lambda f: (f[0], [e.ser for e in f[1]]))
        n = len(cands)
        if n > 60 or 2 ** n > cap:
            raise CapExceeded(
                f"pair-element enumeration too large: 2^{n} subsets")
        pool += [Element.pair(b, x) for r in range(n + 1)
                 for x in itertools.combinations(cands, r)]

    j_facts = set(J.facts)
    rules_by_input: dict[str, list] = {}
    for rule in simple.rules:
        in_atoms = [a for a in rule.body_atoms if a.rel in simple.s_in]
        input_atom = in_atoms[0]
        aux_atoms = [a for a in rule.body_atoms if a.rel in simple.s_aux]
        head = rule.head_atoms[0]
        # index in the input atom of each aux atom's articulated variable
        p = []
        for atom in aux_atoms:
            v = atom.args[art[atom.rel] - 1]
            if v not in input_atom.args:
                raise AdjointError(
                    "articulated body variable does not occur in the "
                    f"input atom: {rule}")
            p.append(input_atom.args.index(v))
        if head.rel in simple.s_aux:
            v0 = head.args[art[head.rel] - 1]
            if v0 not in input_atom.args:
                raise AdjointError(
                    "articulated head variable does not occur in the "
                    f"input atom: {rule}")
            p0 = input_atom.args.index(v0)
        else:
            p0 = None
        rules_by_input.setdefault(input_atom.rel, []).append(
            (input_atom, aux_atoms, head, p, p0))

    def fact_ok(rel: str, elems: tuple[Element, ...]) -> bool:
        for input_atom, aux_atoms, head, p, p0 in rules_by_input.get(rel, ()):
            pin = {}
            if any(pin.setdefault(var, e.base) is not e.base
                   for var, e in zip(input_atom.args, elems)):
                continue
            choices = [[args for r, args in elems[pi].facts if r == atom.rel]
                       for atom, pi in zip(aux_atoms, p)]
            target = j_facts if p0 is None else elems[p0].facts
            for match in itertools.product(*choices):
                g = dict(pin)
                for atom, args in zip(aux_atoms, match):
                    g.update(zip(atom.args, args))
                if (head.rel, tuple(g[v] for v in head.args)) not in target:
                    return False
        return True

    facts = []
    for rel, arity in simple.s_in.relations:
        if len(pool) ** arity > cap:
            raise CapExceeded(
                f"candidate fact enumeration for {rel} exceeds cap {cap}")
        facts += [(rel, elems)
                  for elems in itertools.product(pool, repeat=arity)
                  if fact_ok(rel, elems)]

    domain = {e for _, args in facts for e in args}
    domain.update(Element.pair(b, frozenset()) for b in D)
    big = Instance(simple.s_in, domain, facts)
    iota = {
        e: e.base for e in domain
        if e.base is not BOTTOM and e.base in J.domain
    }

    if connector is None:
        member = Instance(P.s_in, big.domain, big.facts)
        return AdjointResult(((member, iota),), J, "tam")

    # connector-clique components: maximal element sets with the connector
    # fact present for every ordered pair (loops included)
    conn_facts = {args for r, args in big.facts if r == connector}
    adj = {e: set() for e in big.domain if (e, e) in conn_facts}
    for e, f in itertools.combinations(sorted(adj), 2):
        if (e, f) in conn_facts and (f, e) in conn_facts:
            adj[e].add(f)
            adj[f].add(e)
    members = []
    seen = set()
    for comp in _maximal_cliques(adj):
        sub_facts = [
            (r, args) for r, args in big.facts
            if r != connector and all(e in comp for e in args)
        ]
        member = Instance(P.s_in, comp, sub_facts)
        sub_iota = {e: iota[e] for e in comp if e in iota}
        key = (member.canonical_key(),
               tuple(sorted((e.ser, v.ser) for e, v in sub_iota.items())))
        if key not in seen:
            seen.add(key)
            members.append((member, sub_iota))
    members.sort(key=lambda m: m[0].canonical_key())
    return AdjointResult(tuple(members), J, "tam")


# ---------------------------------------------------------------------------
# Strongly linear construction
# ---------------------------------------------------------------------------


def sl_adjoint(P: Program, J: Instance) -> AdjointResult:
    """Right adjoint of a strongly linear program.

    The single member is the largest input-schema instance over
    domain(J) ∪ {⊥} whose facts all chase into J.  From all input/aux
    facts over that domain plus exactly J's facts, every fact with a body
    match that has no head witness left (the restricted chase's trigger
    check, run by a ``chase._plan`` of the rule's head with the body
    variables bound) is removed, all at once, until none is: a greatest
    fixpoint, so the order is immaterial.
    """
    if J.schema.relations != P.s_out.relations:
        raise AdjointError("J must be an instance over the output schema")
    if not classify(P).strongly_linear:
        raise AdjointError("the greedy construction requires every rule "
                           "body to be a single repetition-free atom")

    D = sorted(J.domain) + [BOTTOM]
    facts = {(rel, args)
             for rel, arity in P.s_in.union(P.s_aux).relations
             for args in itertools.product(D, repeat=arity)}
    facts.update(J.facts)
    # per body relation, the head plans of its rules: a body is one
    # repetition-free atom, so its argument tuple binds the body variables
    heads: dict[str, list] = {}
    for rule in P.rules:
        heads.setdefault(rule.body_atoms[0].rel, []).append(
            _plan(tuple((False, a) for a in rule.head_atoms),
                  rule.body_atoms[0].args))

    # an existential in no head atom stays unbound, as D is not empty
    while True:
        store = _Store(P.full_schema(), facts)
        dead = {(rel, args) for rel, args in facts
                for head in heads.get(rel, ())
                if next(head(store, None, *args), None) is None}
        if not dead:
            break
        facts -= dead

    member = Instance(P.s_in, D, [f for f in facts if f[0] in P.s_in])
    iota = {d: d for d in J.domain}
    return AdjointResult(((member, iota),), J, "sl")


# ---------------------------------------------------------------------------
# Composition and dispatch
# ---------------------------------------------------------------------------


def compose_adjoints(omega2, omega1, rename: dict | None = None):
    """Adjoint of a composed functor: apply P1 first, then P2.

    ``omega2`` and ``omega1`` are callables J -> AdjointResult for P2 and P1.
    Each member of omega2(J) is an instance over P2's input schema; when P1's
    output schema spells those relations differently, ``rename`` maps the
    former names to the latter before omega1 is applied.  Member maps are
    composed where both legs are defined.
    """

    def omega(J: Instance) -> AdjointResult:
        res2 = omega2(J)
        members = []
        for j_prime, iota in res2.members:
            mid = j_prime.rename_relations(rename) if rename else j_prime
            res1 = omega1(mid)
            for j_second, kappa in res1.members:
                composed = {
                    e: iota[v] for e, v in kappa.items() if v in iota
                }
                members.append((j_second, composed))
        members.sort(key=lambda m: m[0].canonical_key())
        return AdjointResult(tuple(members), J, "composed")

    return omega


def adjoint(P: Program, J: Instance, method: str = "auto") -> AdjointResult:
    """Dispatch to the applicable construction."""
    if method == "tam":
        return tam_adjoint(P, J)
    if method == "sl":
        return sl_adjoint(P, J)
    if method != "auto":
        raise AdjointError(f"unknown adjoint method {method!r}")
    cls = classify(P)
    if cls.tam and P.is_datalog:
        return tam_adjoint(P, J)
    if cls.strongly_linear:
        return sl_adjoint(P, J)
    raise AdjointError(
        "no adjoint construction applies: the program is neither "
        "tree-shaped almost-monadic Datalog nor strongly linear")
