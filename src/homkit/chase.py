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
index is built on its first use and updated on every insert after that.
Every join is a compiled plan: ``_plan`` generates, once per (atoms, bound
variables, output variables), a Python generator function with one nested
loop per atom.  The function fetches each atom's index bucket table once
per call, iterates over a copy of each bucket, never the live one, and
yields the output variables' values.  Body matches, semi-naive delta pins,
the restricted chase's head check, the head check of
``adjoint.sl_adjoint`` and ``ucq.evaluate`` all run through it.

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
  those of collecting every match.  A visit where no body relation has a
  new fact finds no new match and is skipped; so is every visit of a
  body-less rule after its first.  Otherwise the delta holds only the new
  facts of body relations, the only ones pinned.  The head check reads
  the live store, including facts fired earlier in the same visit.
- An existential variable that occurs in no head atom can take any domain
  element, so a rule with existentials is never satisfied while the domain
  is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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

    __slots__ = ("facts", "indexes")

    def __init__(self, schema: Schema, facts=()):
        self.facts: dict[str, set] = {rel: set() for rel in schema.names}
        # relation -> bound positions -> key tuple -> argument tuples
        self.indexes: dict[str, dict[tuple, dict]] = {
            rel: {} for rel in schema.names}
        for rel, args in facts:  # no index exists yet
            self.facts[rel].add(args)

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

    def index(self, rel: str, positions: tuple) -> dict:
        """The hash index of ``rel`` on ``positions``: key tuple -> the
        argument tuples holding it there.  Built on first use, kept up
        to date by ``add``."""
        index = self.indexes[rel].get(positions)
        if index is None:
            index = {}
            for args in self.facts[rel]:
                index.setdefault(tuple(args[p] for p in positions),
                                 []).append(args)
            self.indexes[rel][positions] = index
        return index

    def all_facts(self) -> list:
        return [(rel, args) for rel, tuples in self.facts.items()
                for args in tuples]


_NESTED = 16  # atoms per generated function


@lru_cache(maxsize=1024)
def _plan(steps: tuple, bound: tuple = (), out: tuple = ()):
    """A compiled join: a generator function ``plan(store, delta, *vals)``
    yielding, for every extension of ``bound`` (given as ``vals``) that
    maps each atom of ``steps`` onto a fact, the tuple of its ``out``
    values.

    ``steps`` holds ``(from_delta, atom)`` pairs, matched left to right
    against ``delta`` or ``store``, one nested loop per atom.  Each atom's
    bucket is looked up in the index on the positions bound before it, and
    the loop runs over a copy of the bucket, never the live one; an atom
    with every position bound is a membership test, one with none a loop
    over a copy of the relation.  The generated source names variables by
    number and relations by ``repr``, so no name from a program is code.
    CPython compiles at most 20 nested blocks, so a function holds at most
    ``_NESTED`` atoms and hands the rest, with the variables bound so far,
    to a chained plan.
    """
    if len(set(bound)) != len(bound):
        raise ValueError("repeated bound variable")
    names = {v: f"v{i}" for i, v in enumerate(bound)}
    fetches, lines, depth = [], [], 1
    steps, rest = steps[:_NESTED], steps[_NESTED:]
    for k, (from_delta, atom) in enumerate(steps):
        src, rel = "delta" if from_delta else "store", repr(atom.rel)
        positions = tuple(i for i, v in enumerate(atom.args) if v in names)
        key = _tuple_source(names[atom.args[i]] for i in positions)
        if len(positions) == len(atom.args):
            fetches.append(f"f{k} = {src}.facts[{rel}]")
            lines.append((depth, f"if {key} in f{k}:"))
            depth += 1
            continue
        if positions:
            fetches.append(f"f{k} = {src}.index({rel}, {positions!r})")
            bucket = f"f{k}.get({key}, ())"
        else:
            fetches.append(f"f{k} = {src}.facts[{rel}]")
            bucket = f"f{k}"
        targets, checks = [], []
        for i, v in enumerate(atom.args):
            if i in positions:
                targets.append("_")
            elif v in names:  # repeated in this atom
                r, first = f"r{k}_{i}", names[v]
                targets.append(r)
                checks.append(f"if {r} is not {first}: continue")
            else:
                names[v] = f"v{len(names)}"
                targets.append(names[v])
        lines.append((depth, f"for {', '.join(targets)}, in tuple({bucket}):"))
        lines += [(depth + 1, c) for c in checks]
        depth += 1
    namespace: dict = {}
    if rest:
        namespace["rest"] = _plan(rest, tuple(names), out)
        lines.append((depth, "yield from rest(store, delta"
                      + "".join(", " + n for n in names.values()) + ")"))
    else:
        missing = [v for v in out if v not in names]
        if missing:
            raise ValueError(f"output variables {missing} are not bound")
        lines.append((depth, "yield " + _tuple_source(names[v] for v in out)))
    params = "".join(", " + names[v] for v in bound)
    source = "\n".join(
        [f"def plan(store, delta{params}):"]
        + ["    " + f for f in fetches]
        + ["    " * d + line for d, line in lines])
    exec(compile(source, "<join plan>", "exec"), namespace)
    return namespace["plan"]


def _tuple_source(local_names) -> str:
    """The source of a tuple of the named locals."""
    return "(" + "".join(n + ", " for n in local_names) + ")"


# called once per chase and rule; the cache saves a third of a small chase
@lru_cache(maxsize=256)
def _body_plans(body: tuple, out: tuple) -> tuple:
    """The plan of a rule body yielding ``out``, and per body atom its
    relation and the plan that pins it to the delta, first in the join."""
    pins = tuple(
        (atom.rel, _plan(((True, atom),) + tuple(
            (False, a) for a in body[:i] + body[i + 1:]), (), out))
        for i, atom in enumerate(body))
    return _plan(tuple((False, a) for a in body), (), out), pins


def _body_matches(plans: tuple, store: _Store,
                  delta: Optional[_Store]) -> Iterator[tuple]:
    """Body matches in the store, from ``_body_plans``.  With a delta (a
    store holding some of the store's facts), only those mapping at least
    one body atom onto a delta fact: each atom in turn is pinned to the
    delta, so a match may be found more than once."""
    whole, pins = plans
    if delta is None or not pins:
        return whole(store, None)
    return chain.from_iterable(plan(store, delta) for rel, plan in pins
                               if delta.facts[rel])


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
    # per rule, its head relation and the plans yielding its head tuples
    rules = [(rule.head_atoms[0].rel,
              _body_plans(rule.body_atoms, rule.head_atoms[0].args))
             for rule in P.rules]

    steps = 0
    delta: Optional[_Store] = None
    while True:
        new_delta = _Store(full_schema)
        fired = False
        for head_rel, plans in rules:
            # computed in full before any of it is inserted
            for args in set(_body_matches(plans, store, delta)):
                if store.add(head_rel, args):
                    new_delta.add(head_rel, args)
                    fired = True
        if not fired:
            break
        steps += 1
        delta = new_delta

    full = Instance._trusted(full_schema, I.domain,
                             frozenset(store.all_facts()), ())
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

    # per rule, its body relations, its sorted body variables, the plans
    # yielding their values and the plan of its head with them bound
    plans = []
    for rule in P.rules:
        body_vars = tuple(sorted(rule.body_vars()))
        plans.append((frozenset(a.rel for a in rule.body_atoms), body_vars,
                      _body_plans(rule.body_atoms, body_vars),
                      _plan(tuple((False, a) for a in rule.head_atoms),
                            body_vars)))

    def fire(rule: Rule, body_vars: tuple, match: tuple):
        nonlocal null_counter
        assignment = dict(zip(body_vars, match))
        for v in rule.existentials:
            null_counter += 1
            null = Element.null(null_counter)
            domain.add(null)
            assignment[v] = null
        for a in rule.head_atoms:
            args = tuple(assignment[v] for v in a.args)
            if store.add(a.rel, args):
                inserted.append((a.rel, args))

    # per rule, how many facts were inserted when its last visit began
    seen = [0] * len(P.rules)
    steps = 0
    terminated = False
    while max_rounds is None or steps < max_rounds:
        fired = False
        for r, rule in enumerate(P.rules):
            body_rels, body_vars, body, head = plans[r]
            start, seen[r] = seen[r], len(inserted)
            if not start:
                delta = None  # every match
            else:
                new = [f for f in inserted[start:] if f[0] in body_rels]
                if not new:
                    continue  # no new match since the last visit
                delta = _Store(full_schema, new)
            matches = {tuple([e.ser for e in m]): m
                       for m in _body_matches(body, store, delta)}
            for key in sorted(matches):
                m = matches[key]
                # the head check reads the live store; an existential in
                # no head atom has no value while the domain is empty
                if (rule.existentials and not domain) or \
                        next(head(store, None, *m), None) is None:
                    fire(rule, body_vars, m)
                    fired = True
        if not fired:
            terminated = True
            break
        steps += 1

    full = Instance._trusted(full_schema, frozenset(domain),
                             frozenset(store.all_facts()), ())
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
    base schema S.  A moves onto the input copies of S, the program runs
    to its fixpoint (``run_program``) or, given ``rounds``, for at most
    that many bounded rounds, and its output copies move back onto S.
    Returns (the chase, with A's points; terminated).
    """
    I = instance_to_input(A.with_points(()), P_sigma)
    if rounds is None:
        res = run_program(P_sigma, I)
    else:
        res = chase_existential(P_sigma, I, mode="bounded", budget=rounds)
    out = output_to_instance(res.output, P_sigma.s_aux)
    return out.with_points(A.points), res.terminated
