"""Unions of conjunctive queries and uniquely characterizing example sets.

A UCQ is evaluated by homomorphisms from the canonical instances of its
disjuncts.  ``characterize`` builds a labeled example set (positives and
negatives) that pins the query down uniquely among UCQs over the models of
a dependency set, and ``characterize_abox`` does the same in the ABox
category where examples are incomplete databases evaluated via the chase.

In the ABox category q holds at an example when some disjunct maps into
the example's chase.  A chase cut off at its round bound is a prefix, read
by one rule: a hit in the prefix is certain, a miss is certain only when
the chase terminated, and any other case is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chase import _plan, _Store
from .core import HomkitError, Instance, Schema, structure_report
from .duality import abox_dual, dual_wrt_theory
from .oracle import Verdict, _abox_chase, _some_map, verify_duality
from .program import Atom, canonical_instance, tgd_compile, tgd_schema


class QueryError(HomkitError):
    pass


@dataclass(frozen=True)
class CQ:
    """A conjunctive query: body atoms plus a tuple of answer variables.

    Answer variables may repeat; each must occur in some atom."""

    answer_vars: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        body_vars = {v for a in self.atoms for v in a.args}
        for v in self.answer_vars:
            if v not in body_vars:
                raise QueryError(
                    f"answer variable {v} occurs in no conjunct")

    def canonical_str(self) -> str:
        head = "(" + ",".join(self.answer_vars) + ")"
        body = ", ".join(sorted(str(a) for a in self.atoms))
        return f"{head} :- {body}."


@dataclass(frozen=True)
class UCQ:
    """A named union of conjunctive queries of fixed answer arity."""

    name: str
    arity: int
    disjuncts: tuple[CQ, ...]

    def __post_init__(self):
        for cq in self.disjuncts:
            if len(cq.answer_vars) != self.arity:
                raise QueryError(
                    f"disjunct arity {len(cq.answer_vars)} does not match "
                    f"query arity {self.arity}")
        self.schema()  # arity-consistency check

    def schema(self) -> Schema:
        rels: dict[str, int] = {}
        for cq in self.disjuncts:
            for a in cq.atoms:
                if rels.setdefault(a.rel, len(a.args)) != len(a.args):
                    raise QueryError(f"inconsistent arity for {a.rel}")
        return Schema(rels)


@dataclass
class ExampleSet:
    """Labeled pointed instances characterizing a query."""

    positives: tuple
    negatives: tuple
    mode: str = "model"  # model | abox
    theory: Optional[tuple] = None

    def __post_init__(self):
        if self.mode not in ("model", "abox"):
            raise QueryError(f"unknown example mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def canonical_instances(q: UCQ, schema: Optional[Schema] = None) -> list:
    """Pointed canonical instance of each disjunct (variables become
    elements; the answer tuple becomes the points)."""
    base = schema if schema is not None else q.schema()
    return [canonical_instance(cq.atoms, base, cq.answer_vars)
            for cq in q.disjuncts]


def is_c_acyclic(q: UCQ) -> bool:
    return all(structure_report(ci).c_acyclic
               for ci in canonical_instances(q))


def _check_schema(q: UCQ, schema: Schema):
    for rel, arity in q.schema().relations:
        if rel not in schema or schema.arity(rel) != arity:
            raise QueryError(
                f"query relation {rel}/{arity} missing from the instance "
                "schema")


def evaluate(q: UCQ, A: Instance) -> set:
    """All answer tuples of q on A (Chandra-Merlin: homomorphisms from the
    canonical instances)."""
    _check_schema(q, A.schema)
    store = _Store(A.schema, A.facts)
    answers: set = set()
    for cq in q.disjuncts:
        plan = _plan(tuple((False, a) for a in cq.atoms), (),
                     tuple(cq.answer_vars))
        answers.update(plan(store, None))
    return answers


# ---------------------------------------------------------------------------
# Characterization
# ---------------------------------------------------------------------------


def _spec_instances(q: UCQ, sigma) -> list:
    if not q.disjuncts:
        raise QueryError("a query with no disjuncts cannot be "
                         "characterized")
    base = tgd_schema(tuple(sigma)).union(q.schema())
    return canonical_instances(q, base)


def characterize(q: UCQ, sigma, adjoint_program=None) -> ExampleSet:
    """Uniquely characterizing examples among models of the dependency set:
    positives are the chased canonical instances, negatives their duals
    relative to the theory."""
    sigma = tuple(sigma)
    F_spec = _spec_instances(q, sigma)
    d = dual_wrt_theory(sigma, F_spec, adjoint_program=adjoint_program)
    return ExampleSet(positives=d.frontier, negatives=d.duals,
                      mode="model", theory=sigma)


def characterize_abox(q: UCQ, sigma, adjoint_program=None) -> ExampleSet:
    """ABox-mode characterization: positives are the raw canonical
    instances; negatives come from the unchased ABox duals."""
    sigma = tuple(sigma)
    F_spec = _spec_instances(q, sigma)
    d = abox_dual(sigma, F_spec, adjoint_program=adjoint_program)
    return ExampleSet(positives=tuple(F_spec), negatives=d.duals,
                      mode="abox", theory=sigma)


# ---------------------------------------------------------------------------
# Fitting and verification
# ---------------------------------------------------------------------------


def _misfit(q: UCQ, ex: ExampleSet):
    """The first example q gets wrong, with q's answer there ("yes", "no"
    or "unknown"), or None.  q holds at (A, a) when some disjunct's
    canonical instance maps, answer variables to a, into A (model mode) or
    into A's chase (ABox mode: certain answers are answers on the chase,
    Fagin, Kolaitis, Miller and Popa, TCS 2005), decided by
    ``oracle._some_map`` with each example chased once."""
    labeled = [(A, "yes") for A in ex.positives] + \
        [(A, "no") for A in ex.negatives]
    for A, _ in labeled:
        if len(A.points) != q.arity:
            raise QueryError("example arity does not match the query")
    P_sigma = None
    if ex.mode == "abox":
        schema = Schema([])
        for A, _ in labeled:
            schema = schema.union(A.schema)
        P_sigma = tgd_compile(tuple(ex.theory or ()), schema)
        _check_schema(q, P_sigma.s_aux)
        sources = [(ci, _abox_chase(P_sigma, ci))
                   for ci in canonical_instances(q, P_sigma.s_aux)]
    for A, want in labeled:
        if P_sigma is None:
            _check_schema(q, A.schema)
            sources = [(ci, None) for ci in canonical_instances(q, A.schema)]
            A_side = (A, None)
        else:
            A_side = (A, _abox_chase(P_sigma, A))
        got = _some_map([(ci, A_side) for ci in sources], P_sigma)
        if got != want:
            return A, got
    return None


def fits(q: UCQ, ex: ExampleSet) -> bool:
    """Does q accept every positive and reject every negative example?
    Raises ``QueryError`` when a bounded chase cannot decide an example."""
    miss = _misfit(q, ex)
    if miss is not None and miss[1] == "unknown":
        raise QueryError("bounded chase could not decide whether the query "
                         "holds at an example")
    return miss is None


def verify_characterization(q: UCQ, ex: ExampleSet, B: int = 3):
    """Fitting plus the bounded duality check: a pass certifies that any
    UCQ fitting the examples agrees with q on instances of at most B
    elements.  When q does not fit, the counterexample is the first
    example it gets wrong or cannot decide."""
    miss = _misfit(q, ex)
    if miss is not None:
        A, got = miss
        if got == "unknown":
            return Verdict(False, B, A, unknown=True,
                           explanation="unknown: bounded chase could not "
                                       "decide this example")
        return Verdict(False, B, A,
                       explanation="query does not fit its own example set")
    category = "abox" if ex.mode == "abox" else (
        "relative" if ex.theory else "plain")
    sigma = None if category == "plain" else tuple(ex.theory or ())
    return verify_duality(ex.positives, ex.negatives, B, sigma=sigma,
                          category=category)
