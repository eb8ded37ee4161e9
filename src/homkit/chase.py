"""Fixpoint evaluation of programs.

``chase_datalog`` runs semi-naive bottom-up evaluation for programs without
existentials.  ``chase_existential`` runs the restricted (standard) chase
with labeled nulls: a rule fires on a body match only when no assignment of
its existential variables into the current domain already satisfies the head.
``run_program`` picks between them by ``Program.terminates``, and
``chase_theory`` chases a base-schema instance through a dependency set
compiled by ``program.tgd_compile``.

The two chases keep their facts in a ``_Store``: one set of argument tuples per
relation, plus hash indexes keyed on ``(relation, bound positions)``.  An
index is built on its first lookup and updated on every insert after that.
``_join`` is the single join: it matches atoms left to right, looking each
one up through the index for the positions the assignment already binds, and
iterates over a copy of the bucket, never the live one.  Body matches,
semi-naive delta pins, the restricted chase's head check, the head check
of ``adjoint.sl_adjoint`` and ``ucq.evaluate`` all go through it.

Steps are counted in rounds: one round visits every rule in file order, and
a chase terminates when a full round adds nothing.  Three points fix
``steps`` and the null numbering:

- Datalog: the delta is the previous round's new facts, and each body atom
  in turn is pinned to it, first in the join.  A rule is evaluated against
  the store as it stands when the rule is visited, so it sees facts derived
  by earlier rules in the same round, and its derived set is computed in
  full before any of it is inserted.
- Existential: a rule's body matches are collected once, when the rule is
  visited, and fired in the order of the serializations of their body
  variables.  A visit collects only the matches that are new since the
  rule's previous visit, those that use a fact inserted after that visit
  began, found by pinning each body atom in turn to those facts as in
  Datalog.  Skipping the old ones is exact: the store only grows, so a
  match that was satisfied or fired at an earlier visit is still
  satisfied, and the fired sequence, ``steps`` and the null numbering are
  those of collecting every match.  The head check reads the live store,
  including facts fired earlier in the same visit.
- An existential variable that occurs in no head atom can take any domain
  element, so a rule with existentials is never satisfied while the domain
  is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import Element, HomkitError, Instance, Schema, SchemaMismatch
from .program import Program, Rule, instance_to_input, output_to_instance

DEFAULT_BUDGET = 10_000


class ChaseError(HomkitError):
    pass


class NotWeaklyAcyclic(ChaseError):
    pass


@dataclass(frozen=True)
class ChaseResult:
    full: Instance
    output: Instance
    terminated: bool
    steps: int


def _check_input(P: Program, I: Instance):
    if I.schema.relations != P.s_in.relations:
        raise SchemaMismatch(
            "instance schema does not match the program input schema")


class _Store:
    """Argument tuples per relation, with lazily built hash indexes on
    bound argument positions."""

    __slots__ = ("arity", "facts", "indexes")

    def __init__(self, schema: Schema, facts=()):
        self.arity = schema.as_dict()
        self.facts: dict[str, set] = {rel: set() for rel in schema.names}
        # relation -> bound positions -> key tuple -> argument tuples
        self.indexes: dict[str, dict[tuple, dict]] = {
            rel: {} for rel in schema.names}
        for rel, args in facts:
            self.add(rel, args)

    def add(self, rel: str, args: tuple) -> bool:
        """Insert a fact; False when it was already present."""
        tuples = self.facts[rel]
        if args in tuples:
            return False
        tuples.add(args)
        for positions, index in self.indexes[rel].items():
            index.setdefault(tuple(args[p] for p in positions),
                             []).append(args)
        return True

    def lookup(self, rel: str, positions: tuple, key: tuple) -> tuple:
        """A copy of the tuples whose ``positions`` hold ``key``."""
        tuples = self.facts[rel]
        if not positions:
            return tuple(tuples)
        if len(positions) == self.arity[rel]:
            return (key,) if key in tuples else ()
        index = self.indexes[rel].get(positions)
        if index is None:
            index = {}
            for args in tuples:
                index.setdefault(tuple(args[p] for p in positions),
                                 []).append(args)
            self.indexes[rel][positions] = index
        return tuple(index.get(key, ()))

    def all_facts(self) -> list:
        return [(rel, args) for rel, tuples in self.facts.items()
                for args in tuples]


def _join(atoms, store: _Store, assignment: dict) -> Iterator[dict]:
    """Every extension of ``assignment`` mapping each atom onto a fact of
    the store.  ``assignment`` itself is never modified."""
    if not atoms:
        yield assignment
        return
    atom, rest = atoms[0], atoms[1:]
    positions = tuple(i for i, v in enumerate(atom.args) if v in assignment)
    key = tuple(assignment[atom.args[i]] for i in positions)
    for args in store.lookup(atom.rel, positions, key):
        new = dict(assignment)
        for var, val in zip(atom.args, args):
            old = new.setdefault(var, val)
            if old is not val and old != val:
                break
        else:
            yield from _join(rest, store, new)


def _matches(body, store: _Store, delta: Optional[_Store]) -> Iterator[dict]:
    """Body matches in the store.  With a delta (a store holding some of
    the store's facts), only those mapping at least one body atom onto a
    delta fact: each atom in turn is pinned to the delta, first in the join,
    so a match may be found more than once."""
    if delta is None or not body:
        return _join(body, store, {})
    return (
        m
        for i, atom in enumerate(body) if delta.facts[atom.rel]
        for pinned in _join(body[i:i + 1], delta, {})
        for m in _join(body[:i] + body[i + 1:], store, pinned)
    )


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
    store = _Store(full_schema, I.facts)

    def eval_rule(rule: Rule, delta: Optional[_Store]) -> set:
        """Head tuples derivable; with a delta, at least one body atom must
        match a delta fact."""
        head = rule.head_atoms[0]
        return {tuple(m[v] for v in head.args)
                for m in _matches(rule.body_atoms, store, delta)}

    steps = 0
    delta: Optional[_Store] = None
    while True:
        new_delta = _Store(full_schema)
        fired = False
        for rule in P.rules:
            head_rel = rule.head_atoms[0].rel
            for args in eval_rule(rule, delta):
                if store.add(head_rel, args):
                    new_delta.add(head_rel, args)
                    fired = True
        if not fired:
            break
        steps += 1
        delta = new_delta

    full = Instance(full_schema, I.domain, store.all_facts())
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
        if not P.terminates:
            raise NotWeaklyAcyclic("program is not weakly acyclic; use "
                                   "bounded mode")
        max_rounds = None
    elif mode == "bounded":
        max_rounds = budget
    else:
        raise ChaseError(f"unknown chase mode {mode!r}")

    full_schema = P.full_schema()
    store = _Store(full_schema, I.facts)
    inserted = list(I.facts)  # every fact in insertion order
    domain = set(I.domain)
    null_counter = 0

    def satisfied(rule: Rule, match: dict) -> bool:
        """Does some extension of the match satisfy the head in the
        current instance?"""
        if rule.existentials and not domain:
            return False
        return next(_join(rule.head_atoms, store, match), None) is not None

    def fire(rule: Rule, match: dict):
        nonlocal null_counter
        assignment = dict(match)
        for v in rule.existentials:
            null_counter += 1
            null = Element.null(null_counter)
            domain.add(null)
            assignment[v] = null
        for a in rule.head_atoms:
            args = tuple(assignment[v] for v in a.args)
            if store.add(a.rel, args):
                inserted.append((a.rel, args))

    body_vars = [sorted(rule.body_vars()) for rule in P.rules]
    # per rule, how many facts were inserted when its last visit began
    seen = [0] * len(P.rules)
    steps = 0
    terminated = False
    while max_rounds is None or steps < max_rounds:
        fired = False
        for r, rule in enumerate(P.rules):
            start, seen[r] = seen[r], len(inserted)
            if not start:
                delta = None  # every match
            elif start < len(inserted):
                delta = _Store(full_schema, inserted[start:])
            else:
                continue  # nothing inserted since the last visit
            matches = {tuple(m[v].ser for v in body_vars[r]): m
                       for m in _matches(rule.body_atoms, store, delta)}
            for key in sorted(matches):
                m = matches[key]
                if not satisfied(rule, m):
                    fire(rule, m)
                    fired = True
        if not fired:
            terminated = True
            break
        steps += 1

    full = Instance(full_schema, domain, store.all_facts())
    output = full.reduct(P.s_out.names)
    return ChaseResult(full=full, output=output, terminated=terminated,
                       steps=steps)


# ---------------------------------------------------------------------------
# Uniform entry point
# ---------------------------------------------------------------------------


def run_program(P: Program, I: Instance,
                budget: int = DEFAULT_BUDGET) -> ChaseResult:
    """Evaluate P on I by the most precise applicable method: semi-naive
    for Datalog, full chase when it is guaranteed finite, bounded chase
    otherwise."""
    if P.is_datalog:
        return chase_datalog(P, I)
    if P.terminates:
        return chase_existential(P, I, mode="wa")
    return chase_existential(P, I, mode="bounded", budget=budget)


def chase_theory(P_sigma: Program, A: Instance,
                 rounds: Optional[int] = None) -> tuple[Instance, bool]:
    """Chase an instance through a compiled dependency set.

    ``P_sigma`` comes from ``program.tgd_compile``, whose aux schema is the
    base schema S.  A's relations are copied to their ``R_in`` inputs, the
    program runs to its fixpoint (``run_program``) or, given ``rounds``,
    for at most that many bounded rounds, and the ``R_out`` facts are
    renamed back onto S.  Returns (the chase, with A's points; terminated).
    """
    I = instance_to_input(A.with_points(()), P_sigma)
    if rounds is None:
        res = run_program(P_sigma, I)
    else:
        res = chase_existential(P_sigma, I, mode="bounded", budget=rounds)
    out = output_to_instance(res.output, P_sigma.s_aux)
    return out.with_points(A.points), res.terminated
