"""Unions of conjunctive queries and uniquely characterizing example sets.

A UCQ is evaluated by homomorphisms from the canonical instances of its
disjuncts.  ``characterize`` builds a labeled example set (positives and
negatives) that pins the query down uniquely among UCQs over the models of
a dependency set, and ``characterize_abox`` does the same in the ABox
category where examples are incomplete databases evaluated via the chase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chase import _join, _Store, chase_theory
from .core import Element, HomkitError, Instance, Schema, structure_report
from .duality import abox_dual, dual_wrt_theory
from .program import Atom, tgd_compile, tgd_schema


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
    out = []
    for cq in q.disjuncts:
        elems = {}
        for a in cq.atoms:
            for v in a.args:
                elems.setdefault(v, Element.named(v))
        facts = [(a.rel, tuple(elems[v] for v in a.args)) for a in cq.atoms]
        points = tuple(elems[v] for v in cq.answer_vars)
        out.append(Instance(base, set(elems.values()), facts, points))
    return out


def is_c_acyclic(q: UCQ) -> bool:
    return all(structure_report(ci).c_acyclic
               for ci in canonical_instances(q))


def evaluate(q: UCQ, A: Instance) -> set:
    """All answer tuples of q on A (Chandra-Merlin: homomorphisms from the
    canonical instances)."""
    qschema = q.schema()
    for rel, arity in qschema.relations:
        if rel not in A.schema or A.schema.arity(rel) != arity:
            raise QueryError(
                f"query relation {rel}/{arity} missing from the instance "
                "schema")
    store = _Store(A.schema, A.facts)
    answers: set = set()
    for cq in q.disjuncts:
        for asg in _join(cq.atoms, store, {}):
            answers.add(tuple(asg[v] for v in cq.answer_vars))
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


def characterize(q: UCQ, sigma, adjoint_program=None,
                 cap: int = 10 ** 6) -> ExampleSet:
    """Uniquely characterizing examples among models of the dependency set:
    positives are the chased canonical instances, negatives their duals
    relative to the theory."""
    sigma = tuple(sigma)
    F_spec = _spec_instances(q, sigma)
    d = dual_wrt_theory(sigma, F_spec, adjoint_program=adjoint_program,
                        cap=cap)
    return ExampleSet(positives=d.frontier, negatives=d.duals,
                      mode="model", theory=sigma)


def characterize_abox(q: UCQ, sigma, adjoint_program=None,
                      cap: int = 10 ** 6) -> ExampleSet:
    """ABox-mode characterization: positives are the raw canonical
    instances; negatives come from the unchased ABox duals."""
    sigma = tuple(sigma)
    F_spec = _spec_instances(q, sigma)
    d = abox_dual(sigma, F_spec, adjoint_program=adjoint_program, cap=cap)
    return ExampleSet(positives=tuple(F_spec), negatives=d.duals,
                      mode="abox", theory=sigma)


# ---------------------------------------------------------------------------
# Fitting and verification
# ---------------------------------------------------------------------------


def _abox_answers(q: UCQ, A: Instance, sigma, start_depth: int = 8,
                  hard_cap: int = 256) -> set:
    """q's answers over the chase of A, restricted to A's elements.

    When the chase is guaranteed finite it is run exactly; otherwise the
    depth is doubled until the answer set is stable for two consecutive
    depths.  Hitting the hard cap is an error, never a silent answer.
    """
    sigma = tuple(sigma)
    P_sigma = tgd_compile(sigma, A.schema)
    dom = set(A.domain)

    def answers_at(depth: Optional[int]) -> set:
        out, _ = chase_theory(P_sigma, A, depth)
        return {t for t in evaluate(q, out) if all(e in dom for e in t)}

    if P_sigma.terminates:
        return answers_at(None)
    depth = start_depth
    prev = answers_at(depth)
    while depth <= hard_cap:
        depth *= 2
        cur = answers_at(depth)
        if cur == prev:
            return cur
        prev = cur
    raise QueryError(
        f"answer set did not stabilize within chase depth {hard_cap}")


def fits(q: UCQ, ex: ExampleSet) -> bool:
    """Does q accept every positive and reject every negative example?"""
    for A in ex.positives:
        if len(A.points) != q.arity:
            raise QueryError("example arity does not match the query")
    for A in ex.negatives:
        if len(A.points) != q.arity:
            raise QueryError("example arity does not match the query")
    if ex.mode == "model":
        for A in ex.positives:
            if tuple(A.points) not in evaluate(q, A):
                return False
        for A in ex.negatives:
            if tuple(A.points) in evaluate(q, A):
                return False
        return True
    sigma = tuple(ex.theory or ())
    for A in ex.positives:
        if tuple(A.points) not in _abox_answers(q, A, sigma):
            return False
    for A in ex.negatives:
        if tuple(A.points) in _abox_answers(q, A, sigma):
            return False
    return True


def verify_characterization(q: UCQ, ex: ExampleSet, B: int = 3):
    """Fitting plus the bounded duality check: a pass certifies that any
    UCQ fitting the examples agrees with q on instances of at most B
    elements."""
    from .oracle import Verdict, verify_duality

    if not fits(q, ex):
        probe = None
        for A in list(ex.positives) + list(ex.negatives):
            probe = A
            break
        return Verdict(False, B, probe,
                       explanation="query does not fit its own example set")
    category = "abox" if ex.mode == "abox" else (
        "relative" if ex.theory else "plain")
    sigma = tuple(ex.theory) if ex.theory else None
    return verify_duality(ex.positives, ex.negatives, B, sigma=sigma,
                          category=category)
