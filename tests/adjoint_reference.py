"""The pair-element adjoint and the folding reduction as they were before
the adjoint read body matches off its pair elements, kept verbatim as slow
references.

``test_adjoint_reference.py`` checks that ``homkit.adjoint.tam_adjoint``
and ``homkit.duality.fold_reduce`` agree with these functions exactly.
Here every pair element's candidate facts are built per base
(``_pair_candidates``), the pair elements are rebuilt once per argument
position of every input relation, and the closure check ``fact_ok`` tries
every assignment in D^n of a rule's free variables.
"""

from __future__ import annotations

import itertools

from homkit.adjoint import (
    DEFAULT_FACT_CAP,
    AdjointError,
    AdjointResult,
    _connect_rules,
    _maximal_cliques,
)
from homkit.core import BOTTOM, CapExceeded, Element, Instance, Schema
from homkit.program import (
    Program,
    articulation_search,
    classify,
    to_simple_tam,
)


def _pair_candidates(D, aux_schema: Schema, art: dict):
    """For each base element b: the aux facts over D with b in articulation
    position, in canonical order."""
    out = {}
    for b in D:
        facts = []
        for rel, arity in aux_schema.relations:
            pos = art[rel] - 1
            rest = arity - 1
            for combo in itertools.product(D, repeat=rest):
                args = list(combo[:pos]) + [b] + list(combo[pos:])
                facts.append((rel, tuple(args)))
        out[b] = sorted(facts, key=lambda f: (f[0], [e.ser for e in f[1]]))
    return out


def tam_adjoint(P: Program, J: Instance,
                cap: int = DEFAULT_FACT_CAP) -> AdjointResult:
    """Right adjoint of a tree-shaped almost-monadic Datalog program.

    Members are built over pair elements (b, X): a base element of
    domain(J) ∪ {⊥} together with a set of aux facts carrying b in
    articulation position.  An input fact over such elements is accepted when
    the closure conditions induced by the (simple-normal-form) rules hold.
    Disconnected programs are first made connected with a fresh binary
    connector relation; members are then the connector-clique components.
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

    D = sorted(J.domain) + [BOTTOM]
    per_base = _pair_candidates(D, simple.s_aux, art)

    # candidate pair elements per base, as (base, frozenset-of-facts)
    elems_per_base = {}
    total_elems = 0
    for b in D:
        n = len(per_base[b])
        if n > 60 or 2 ** n > cap:
            raise CapExceeded(
                f"pair-element enumeration too large: 2^{n} subsets")
        subsets = []
        for r in range(n + 1):
            for combo in itertools.combinations(per_base[b], r):
                subsets.append(frozenset(combo))
        elems_per_base[b] = subsets
        total_elems += len(subsets)

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
            (rule, input_atom, aux_atoms, head, p, p0))

    def fact_ok(rel: str, elems: tuple[Element, ...]) -> bool:
        bases = [e.base for e in elems]
        xsets = [e.facts for e in elems]
        for rule, input_atom, aux_atoms, head, p, p0 in \
                rules_by_input.get(rel, ()):
            pin = {}
            conflict = False
            for var, val in zip(input_atom.args, bases):
                if pin.get(var, val) != val:
                    conflict = True
                    break
                pin[var] = val
            if conflict:
                continue
            free = sorted(
                v for v in rule.all_vars() if v not in pin)
            for combo in itertools.product(D, repeat=len(free)):
                g = dict(pin)
                g.update(zip(free, combo))
                if all(
                    (atom.rel, tuple(g[v] for v in atom.args)) in xsets[pi]
                    for atom, pi in zip(aux_atoms, p)
                ):
                    concl = (head.rel, tuple(g[v] for v in head.args))
                    if p0 is not None:
                        if concl not in xsets[p0]:
                            return False
                    elif concl not in j_facts:
                        return False
        return True

    facts = []
    for rel, arity in simple.s_in.relations:
        count = 1
        for _ in range(arity):
            count *= total_elems
        if count > cap:
            raise CapExceeded(
                f"candidate fact enumeration for {rel} exceeds cap {cap}")
        pools = []
        for _ in range(arity):
            pools.append([
                Element.pair(b, x)
                for b in D for x in elems_per_base[b]
            ])
        for elems in itertools.product(*pools):
            if fact_ok(rel, elems):
                facts.append((rel, elems))

    domain = {e for _, args in facts for e in args}
    domain.update(Element.pair(b, frozenset()) for b in D)
    big = Instance(simple.s_in, domain, facts)
    iota = {
        e: e.base for e in domain
        if e.base != BOTTOM and e.base in J.domain
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
