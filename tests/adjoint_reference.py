"""The pair-element adjoint and the folding reduction as they were before
the adjoint read body matches off its pair elements, and the strongly
linear adjoint and the articulation search as they were before they left
their searches to the chase's join and to one product, kept verbatim as
slow references.

``test_adjoint_reference.py`` checks that ``homkit.adjoint.tam_adjoint``,
``homkit.adjoint.sl_adjoint``, ``homkit.program.articulation_search`` and
``homkit.duality.fold_reduce`` agree with these functions exactly.  Here
every pair element's candidate facts are built per base
(``_pair_candidates``), the pair elements are rebuilt once per argument
position of every input relation, and the closure check ``fact_ok`` tries
every assignment in D^n of a rule's free variables; ``sl_adjoint`` tries
every assignment in D^m of a rule's existential variables and removes
facts one relation at a time; ``articulation_search`` recurses over the
aux relations.
"""

from __future__ import annotations

import itertools
from typing import Optional

from homkit.adjoint import (
    AdjointError,
    AdjointResult,
    _connect_rules,
    _maximal_cliques,
)
from homkit.core import BOTTOM, CapExceeded, Element, Instance, Schema, \
    current_budget
from homkit.program import (
    Program,
    Rule,
    _am_ok_for_rule,
    classify,
    to_simple_tam,
)


def articulation_search(P: Program, total: bool = False) -> Optional[dict]:
    """Search for an articulation function witnessing almost-monadicity.

    Declared articulations are fixed (validated, not trusted).  With
    ``total=True`` only total functions on aux relations are considered.
    Returns the witness dict or None.
    """
    aux = list(P.s_aux.names)
    aux_set = set(aux)

    def candidates(rel: str):
        if rel in P.articulation:
            return [P.articulation[rel]]
        arity = P.s_aux.arity(rel)
        opts = list(range(1, arity + 1))
        if not total:
            opts.append(None)
        return opts

    def check(f: dict) -> bool:
        return all(_am_ok_for_rule(r, aux_set, f) for r in P.rules)

    def search(i: int, f: dict) -> Optional[dict]:
        if i == len(aux):
            return dict(f) if check(f) else None
        rel = aux[i]
        for cand in candidates(rel):
            if cand is not None:
                f[rel] = cand
            found = search(i + 1, f)
            if found is not None:
                return found
            f.pop(rel, None)
        return None

    return search(0, {})


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
                cap: Optional[int] = None) -> AdjointResult:
    """Right adjoint of a tree-shaped almost-monadic Datalog program.

    Members are built over pair elements (b, X): a base element of
    domain(J) ∪ {⊥} together with a set of aux facts carrying b in
    articulation position.  An input fact over such elements is accepted when
    the closure conditions induced by the (simple-normal-form) rules hold.
    Disconnected programs are first made connected with a fresh binary
    connector relation; members are then the connector-clique components.
    ``cap`` defaults to the budget's ``facts``.
    """
    if cap is None:
        cap = current_budget().facts
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


def sl_adjoint(P: Program, J: Instance) -> AdjointResult:
    """Right adjoint of a strongly linear program.

    The single member is the maximal input-schema instance over
    domain(J) ∪ {⊥} whose facts all chase into J: start from all input/aux
    facts over that domain plus exactly J's facts, then greedily remove any
    input/aux fact whose rule body match has no remaining head witness.
    """
    if J.schema.relations != P.s_out.relations:
        raise AdjointError("J must be an instance over the output schema")
    if not classify(P).strongly_linear:
        raise AdjointError("the greedy construction requires every rule "
                           "body to be a single repetition-free atom")

    D = sorted(J.domain) + [BOTTOM]
    k: dict[str, set] = {}
    for rel, arity in P.s_in.union(P.s_aux).relations:
        k[rel] = set(itertools.product(D, repeat=arity))
    for rel, _ in P.s_out.relations:
        k[rel] = set()
    for rel, args in J.facts:
        k[rel].add(args)

    rules_by_body: dict[str, list[Rule]] = {}
    for rule in P.rules:
        rules_by_body.setdefault(rule.body_atoms[0].rel, []).append(rule)

    def supported(rel: str, args: tuple) -> bool:
        for rule in rules_by_body.get(rel, ()):
            body = rule.body_atoms[0]
            g = dict(zip(body.args, args))
            exts = list(rule.existentials)
            witnessed = False
            for combo in itertools.product(D, repeat=len(exts)):
                full = dict(g)
                full.update(zip(exts, combo))
                if all(
                    tuple(full[v] for v in a.args) in k[a.rel]
                    for a in rule.head_atoms
                ):
                    witnessed = True
                    break
            if not witnessed:
                return False
        return True

    removable = set(P.s_in.names) | set(P.s_aux.names)
    changed = True
    while changed:
        changed = False
        for rel in sorted(removable):
            dead = {args for args in k[rel] if not supported(rel, args)}
            if dead:
                k[rel] -= dead
                changed = True

    facts = [(rel, args) for rel in P.s_in.names for args in k[rel]]
    member = Instance(P.s_in, D, facts)
    iota = {d: d for d in J.domain}
    return AdjointResult(((member, iota),), J, "sl")


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
