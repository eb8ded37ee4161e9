"""The nested-loop chase of the seed, kept verbatim as a slow reference.

``test_chase_reference.py`` checks that ``homkit.chase`` agrees with these
functions exactly: same facts, domain, null numbering, ``steps`` and
``terminated``.  Matching visits the sorted fact store atom by atom, and the
restricted chase's ``satisfied`` check tries every element of the domain for
each existential variable.
"""

from __future__ import annotations

from typing import Iterator, Optional

from homkit.chase import ChaseError, ChaseResult, DEFAULT_BUDGET, \
    NotWeaklyAcyclic
from homkit.core import Element, Instance, SchemaMismatch
from homkit.program import Program, Rule, classify


def _check_input(P: Program, I: Instance):
    if I.schema.relations != P.s_in.relations:
        raise SchemaMismatch(
            "instance schema does not match the program input schema")


def _match_atoms(atoms, facts_by_rel, assignment) -> Iterator[dict]:
    """All extensions of ``assignment`` matching the atoms, in canonical
    order (facts visited in sorted order)."""
    if not atoms:
        yield dict(assignment)
        return
    atom, rest = atoms[0], atoms[1:]
    for args in facts_by_rel.get(atom.rel, ()):
        new = dict(assignment)
        ok = True
        for var, val in zip(atom.args, args):
            if new.get(var, val) != val:
                ok = False
                break
            new[var] = val
        if ok:
            yield from _match_atoms(rest, facts_by_rel, new)


def _sorted_facts_by_rel(facts: dict[str, set]) -> dict[str, list]:
    return {
        rel: sorted(tuples, key=lambda t: tuple(e.ser for e in t))
        for rel, tuples in facts.items()
    }


# ---------------------------------------------------------------------------
# Datalog (semi-naive)
# ---------------------------------------------------------------------------


def chase_datalog(P: Program, I: Instance) -> ChaseResult:
    """Least solution of a Datalog program via semi-naive evaluation."""
    if not P.is_datalog:
        raise ChaseError("program has existential rules; use "
                         "chase_existential")
    _check_input(P, I)
    full_schema = P.full_schema()

    total: dict[str, set] = {rel: set() for rel in full_schema.names}
    for rel, args in I.facts:
        total[rel].add(args)

    def eval_rule(rule: Rule, delta: Optional[dict]) -> set:
        """Head tuples derivable; with a delta, at least one body atom must
        match a delta fact."""
        head = rule.head_atoms[0]
        derived = set()
        body = rule.body_atoms
        if delta is None or not body:
            if delta is not None and body:
                return derived
            srt = _sorted_facts_by_rel(total)
            for m in _match_atoms(body, srt, {}):
                derived.add(tuple(m[v] for v in head.args))
            return derived
        srt = _sorted_facts_by_rel(total)
        for i, atom in enumerate(body):
            delta_facts = delta.get(atom.rel)
            if not delta_facts:
                continue
            local = dict(srt)
            local[atom.rel] = sorted(
                delta_facts, key=lambda t: tuple(e.ser for e in t))
            # pin atom i to delta facts; others range over the full store
            for args in local[atom.rel]:
                new = {}
                ok = True
                for var, val in zip(atom.args, args):
                    if new.get(var, val) != val:
                        ok = False
                        break
                    new[var] = val
                if not ok:
                    continue
                rest = body[:i] + body[i + 1:]
                for m in _match_atoms(rest, srt, new):
                    derived.add(tuple(m[v] for v in head.args))
        return derived

    steps = 0
    delta: Optional[dict] = None
    while True:
        new_delta: dict[str, set] = {}
        for rule in P.rules:
            head_rel = rule.head_atoms[0].rel
            for args in eval_rule(rule, delta):
                if args not in total[head_rel]:
                    total[head_rel].add(args)
                    new_delta.setdefault(head_rel, set()).add(args)
        if not new_delta:
            break
        steps += 1
        delta = new_delta

    facts = [(rel, args) for rel, tuples in total.items() for args in tuples]
    full = Instance(full_schema, I.domain, facts)
    output = full.reduct(P.s_out.names)
    return ChaseResult(full=full, output=output, terminated=True, steps=steps)


# ---------------------------------------------------------------------------
# Existential chase (restricted)
# ---------------------------------------------------------------------------


def chase_existential(P: Program, I: Instance, mode: str = "wa",
                      budget: int = DEFAULT_BUDGET) -> ChaseResult:
    """Restricted chase with labeled nulls.

    ``mode`` is ``"wa"`` (refuse programs whose existential recursion can
    diverge, i.e. require weak acyclicity) or ``"bounded"`` (run at most
    ``budget`` rounds; ``terminated`` reports whether a fixpoint was
    reached).
    """
    _check_input(P, I)
    if mode == "wa":
        if not classify(P).weakly_acyclic:
            raise NotWeaklyAcyclic("program is not weakly acyclic; use "
                                   "bounded mode")
        max_rounds = None
    elif mode == "bounded":
        max_rounds = budget
    else:
        raise ChaseError(f"unknown chase mode {mode!r}")

    full_schema = P.full_schema()
    facts: dict[str, set] = {rel: set() for rel in full_schema.names}
    for rel, args in I.facts:
        facts[rel].add(args)
    domain = set(I.domain)
    null_counter = 0

    def satisfied(rule: Rule, match: dict) -> bool:
        """Does some extension of the exported assignment satisfy the
        head in the current instance?"""
        exported = dict(match)
        exts = rule.existentials
        if not exts:
            return all(
                tuple(exported[v] for v in a.args) in facts[a.rel]
                for a in rule.head_atoms
            )
        elems = sorted(domain)

        def try_assign(i: int) -> bool:
            if i == len(exts):
                return all(
                    tuple(exported[v] for v in a.args) in facts[a.rel]
                    for a in rule.head_atoms
                )
            for e in elems:
                exported[exts[i]] = e
                if try_assign(i + 1):
                    return True
            exported.pop(exts[i], None)
            return False

        return try_assign(0)

    def fire(rule: Rule, match: dict):
        nonlocal null_counter
        assignment = dict(match)
        for v in rule.existentials:
            null_counter += 1
            null = Element.null(null_counter)
            domain.add(null)
            assignment[v] = null
        for a in rule.head_atoms:
            facts[a.rel].add(tuple(assignment[v] for v in a.args))

    steps = 0
    terminated = False
    while max_rounds is None or steps < max_rounds:
        fired = False
        for rule in P.rules:
            srt = _sorted_facts_by_rel(facts)
            body_vars = sorted(rule.body_vars())
            matches = [
                m for m in _match_atoms(rule.body_atoms, srt, {})
            ]
            matches.sort(
                key=lambda m: tuple(m[v].ser for v in body_vars))
            seen = set()
            for m in matches:
                key = tuple(m[v] for v in body_vars)
                if key in seen:
                    continue
                seen.add(key)
                if not satisfied(rule, m):
                    fire(rule, m)
                    fired = True
        if not fired:
            terminated = True
            break
        steps += 1

    all_facts = [(rel, args) for rel, tuples in facts.items()
                 for args in tuples]
    full = Instance(full_schema, domain, all_facts)
    output = full.reduct(P.s_out.names)
    return ChaseResult(full=full, output=output, terminated=terminated,
                       steps=steps)
