"""Datalog / existential-Datalog program model, syntactic classification,
and program transformations: simple normal form, monadic reduction (both
directions), unfoldings, output restriction, dependency compilation, and
graph-functor compilation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Element,
    HomkitError,
    Instance,
    Schema,
    _incidence_links,
    _UnionFind,
    isomorphic,
)


class ProgramError(HomkitError):
    pass


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[str, ...]

    def __str__(self):
        return f"{self.rel}({','.join(self.args)})"


@dataclass(frozen=True)
class Rule:
    """A rule ``exists z1..zm : H1,..,Hp :- B1,..,Bq``.

    A Datalog rule has exactly one head atom and no existentials.
    """

    head_atoms: tuple[Atom, ...]
    body_atoms: tuple[Atom, ...]
    existentials: tuple[str, ...] = ()

    @property
    def is_datalog(self) -> bool:
        return len(self.head_atoms) == 1 and not self.existentials

    def head_vars(self) -> set[str]:
        return {v for a in self.head_atoms for v in a.args}

    def body_vars(self) -> set[str]:
        return {v for a in self.body_atoms for v in a.args}

    def all_vars(self) -> set[str]:
        return self.head_vars() | self.body_vars() | set(self.existentials)

    def canonical_str(self) -> str:
        head = ", ".join(str(a) for a in self.head_atoms)
        body = ", ".join(str(a) for a in self.body_atoms)
        ex = ""
        if self.existentials:
            ex = "exists " + ",".join(self.existentials) + " : "
        return f"{ex}{head} :- {body}."

    def __str__(self):
        return self.canonical_str()


class Program:
    """An existential-Datalog program (s_in, s_out, s_aux, rules).

    ``articulation`` is a partial map from aux relation names to 1-based
    argument positions.
    """

    __slots__ = ("s_in", "s_out", "s_aux", "rules", "articulation",
                 "is_datalog", "_terminates", "_full")

    def __init__(self, s_in: Schema, s_out: Schema, s_aux: Schema,
                 rules: Iterable[Rule], articulation: Optional[dict] = None):
        self.s_in = s_in
        self.s_out = s_out
        self.s_aux = s_aux
        self.rules = tuple(rules)
        self.articulation = dict(articulation or {})
        # rules is assigned only here, so this is decided once
        self.is_datalog: bool = all(r.is_datalog for r in self.rules)
        self._terminates: Optional[bool] = None
        self._validate()

    def _validate(self):
        names_in = set(self.s_in.names)
        names_out = set(self.s_out.names)
        names_aux = set(self.s_aux.names)
        if names_in & names_out or names_in & names_aux or \
                names_out & names_aux:
            raise ProgramError("in/out/aux schemas must be disjoint")
        full = self._full = self.s_in.union(self.s_out).union(self.s_aux)
        for rule in self.rules:
            if not rule.head_atoms:
                raise ProgramError("rule with empty head")
            for atom in rule.head_atoms:
                if atom.rel not in names_out | names_aux:
                    raise ProgramError(
                        f"head relation {atom.rel} not in out/aux")
                if len(atom.args) != full.arity(atom.rel):
                    raise ProgramError(f"arity mismatch in {atom}")
            for atom in rule.body_atoms:
                if atom.rel not in names_in | names_aux:
                    raise ProgramError(
                        f"body relation {atom.rel} not in in/aux")
                if len(atom.args) != full.arity(atom.rel):
                    raise ProgramError(f"arity mismatch in {atom}")
            allowed = rule.body_vars() | set(rule.existentials)
            missing = rule.head_vars() - allowed
            if missing:
                raise ProgramError(
                    "unsafe rule: head variables "
                    f"{sorted(missing)} not in body: {rule}")
            if set(rule.existentials) & rule.body_vars():
                raise ProgramError(
                    f"existential variable also occurs in body: {rule}")
        for rel, pos in self.articulation.items():
            if rel not in names_aux:
                raise ProgramError(f"articulation for non-aux relation {rel}")
            if not 1 <= pos <= self.s_aux.arity(rel):
                raise ProgramError(f"articulation position out of range: "
                                   f"{rel}@{pos}")

    # -- helpers -----------------------------------------------------------

    @property
    def terminates(self) -> bool:
        """Does the chase reach a fixpoint on every input?  True for Datalog
        and weakly acyclic programs; decided on first use, then cached."""
        if self._terminates is None:
            self._terminates = self.is_datalog or _weakly_acyclic(self)
        return self._terminates

    def full_schema(self) -> Schema:
        """s_in, s_out and s_aux together, built once by ``_validate``."""
        return self._full

    def sorted_rules(self) -> list[Rule]:
        return sorted(self.rules, key=lambda r: r.canonical_str())

    def canonical_key(self):
        return (
            self.s_in.relations, self.s_out.relations, self.s_aux.relations,
            tuple(r.canonical_str() for r in self.sorted_rules()),
            tuple(sorted(self.articulation.items())),
        )

    def __eq__(self, other):
        return (isinstance(other, Program)
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _fresh_var(base: str, taken: set[str]) -> str:
    v = base
    i = 0
    while v in taken:
        i += 1
        v = f"{base}{i}"
    taken.add(v)
    return v


def canonical_instance(atoms: tuple[Atom, ...], schema: Schema,
                       points: tuple[str, ...] = ()) -> Instance:
    """The canonical instance of a conjunction of atoms: its variables
    become elements, and the variables ``points`` become the points."""
    elems = {v: Element.named(v)
             for v in {v for a in atoms for v in a.args} | set(points)}
    facts = [(a.rel, tuple(elems[v] for v in a.args)) for a in atoms]
    return Instance(schema, elems.values(), facts,
                    tuple(elems[v] for v in points))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    tree_shaped: bool
    almost_monadic: bool
    tam: bool
    simple: bool
    connected: bool
    monadic: bool
    strongly_linear: bool
    weakly_acyclic: bool
    non_recursive: bool
    boolean_program: bool
    articulation_witness: Optional[tuple[tuple[str, int], ...]] = None

    def as_dict(self) -> dict:
        d = {
            "tree_shaped": self.tree_shaped,
            "almost_monadic": self.almost_monadic,
            "tam": self.tam,
            "simple": self.simple,
            "connected": self.connected,
            "monadic": self.monadic,
            "strongly_linear": self.strongly_linear,
            "weakly_acyclic": self.weakly_acyclic,
            "non_recursive": self.non_recursive,
            "boolean_program": self.boolean_program,
        }
        if self.articulation_witness is not None:
            d["articulation_witness"] = {
                r: p for r, p in self.articulation_witness
            }
        return d


def _am_ok_for_rule(rule: Rule, aux_names: set[str], f: dict) -> bool:
    """Almost-monadicity condition for one rule under articulation f.

    Every variable occurring in a non-articulation position of an aux atom in
    the body must occur exactly once in the body, and must not occur in the
    articulation position of any aux atom in the head.
    """
    occurrences: dict[str, int] = {}
    for atom in rule.body_atoms:
        for v in atom.args:
            occurrences[v] = occurrences.get(v, 0) + 1
    head_art_vars = set()
    for atom in rule.head_atoms:
        if atom.rel in aux_names and atom.rel in f:
            head_art_vars.add(atom.args[f[atom.rel] - 1])
    for atom in rule.body_atoms:
        if atom.rel not in aux_names:
            continue
        art = f.get(atom.rel)
        for i, v in enumerate(atom.args, start=1):
            if art is not None and i == art:
                continue
            if occurrences[v] != 1:
                return False
            if v in head_art_vars:
                return False
    return True


def articulation_search(P: Program, total: bool = False) -> Optional[dict]:
    """Search for an articulation function witnessing almost-monadicity.

    Declared articulations are fixed (validated, not trusted).  With
    ``total=True`` only total functions on aux relations are considered.
    Returns the witness dict or None.
    """
    aux = P.s_aux.names
    aux_set = set(aux)
    options = [[P.articulation[rel]] if rel in P.articulation
               else [*range(1, arity + 1)] + ([] if total else [None])
               for rel, arity in P.s_aux.relations]
    for combo in itertools.product(*options):
        f = {rel: pos for rel, pos in zip(aux, combo) if pos is not None}
        if all(_am_ok_for_rule(r, aux_set, f) for r in P.rules):
            return f
    return None


def _weakly_acyclic(P: Program) -> bool:
    """No dependency-graph cycle through a special edge.

    Nodes are positions (R, i) of aux relations.  A normal edge goes from a
    body position to a head position sharing a variable; a special edge goes
    from every position of a body aux relation to every head position holding
    an existential variable.
    """
    aux = set(P.s_aux.names)
    normal: set[tuple] = set()
    special: set[tuple] = set()
    for rule in P.rules:
        body_positions: dict[str, list[tuple]] = {}
        for atom in rule.body_atoms:
            if atom.rel not in aux:
                continue
            for i, v in enumerate(atom.args, start=1):
                body_positions.setdefault(v, []).append((atom.rel, i))
        body_aux_rels = {a.rel for a in rule.body_atoms if a.rel in aux}
        for atom in rule.head_atoms:
            if atom.rel not in aux:
                continue
            for j, v in enumerate(atom.args, start=1):
                if v in rule.existentials:
                    for rel in body_aux_rels:
                        for i in range(1, P.s_aux.arity(rel) + 1):
                            special.add(((rel, i), (atom.rel, j)))
                else:
                    for src in body_positions.get(v, ()):
                        normal.add((src, (atom.rel, j)))
    edges = normal | special
    succ: dict[tuple, list[tuple]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)

    def reaches(start, goal) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return not any(reaches(v, u) for u, v in special)


def classify(P: Program) -> Classification:
    # a repeated atom is one fact of the body's canonical instance
    bodies = [_incidence_links([a.args for a in dict.fromkeys(r.body_atoms)])
              for r in P.rules]
    tree_shaped = all(uf.forest for uf in bodies)
    connected = all(uf.components() <= 1 for uf in bodies)
    witness = articulation_search(P)
    almost_monadic = witness is not None
    in_names = set(P.s_in.names)
    simple = all(
        sum(1 for a in r.body_atoms if a.rel in in_names) == 1
        for r in P.rules
    )
    monadic = all(a == 1 for _, a in P.s_aux.relations)
    strongly_linear = all(
        len(r.body_atoms) == 1
        and len(set(r.body_atoms[0].args)) == len(r.body_atoms[0].args)
        for r in P.rules
    )
    out_rels = P.s_out.relations
    return Classification(
        tree_shaped=tree_shaped,
        almost_monadic=almost_monadic,
        tam=tree_shaped and almost_monadic,
        simple=simple,
        connected=connected,
        monadic=monadic,
        strongly_linear=strongly_linear,
        weakly_acyclic=P.terminates,
        non_recursive=not P.s_aux.relations,
        boolean_program=len(out_rels) == 1 and out_rels[0][1] == 0,
        articulation_witness=(
            tuple(sorted(witness.items())) if witness is not None else None),
    )


# ---------------------------------------------------------------------------
# Output restriction
# ---------------------------------------------------------------------------


def restrict_output(P: Program, R: str) -> Program:
    """Keep only the output relation R; rules with other output heads are
    dropped."""
    if R not in P.s_out:
        raise ProgramError(f"unknown output relation {R}")
    other_out = set(P.s_out.names) - {R}
    rules = [
        r for r in P.rules
        if not any(a.rel in other_out for a in r.head_atoms)
    ]
    return Program(P.s_in, P.s_out.restrict([R]), P.s_aux, rules,
                   P.articulation)


# ---------------------------------------------------------------------------
# Unsafe-rule repair
# ---------------------------------------------------------------------------


def _anchor_in_inputs(rule: Rule, anchors: list[str],
                      s_in: Schema) -> list[Rule]:
    """The rule with one input atom per anchor variable added to its body,
    in all possible ways: the anchor goes at one (relation, position) of
    ``s_in`` and fresh ``w`` variables fill the other positions.  The
    cartesian product is taken across anchors; with no anchor the rule is
    returned as it is, and with no input position none is returned."""
    positions = [
        (rel, i) for rel, arity in s_in.relations
        for i in range(1, arity + 1)
    ]
    out = []
    for combo in itertools.product(positions, repeat=len(anchors)):
        taken = set(rule.all_vars())
        extra = tuple(
            Atom(rel, tuple(var if i == pos else _fresh_var("w", taken)
                            for i in range(1, s_in.arity(rel) + 1)))
            for var, (rel, pos) in zip(anchors, combo))
        out.append(Rule(rule.head_atoms, rule.body_atoms + extra,
                        rule.existentials))
    return out


def repair_unsafe_rules(rules: list[Rule], s_in: Schema) -> list[Rule]:
    """Make unsafe rules safe by grounding missing head variables in input
    atoms.

    For every head variable not occurring in the body (and not existential),
    the body is extended with one input atom containing that variable,
    enumerating all (relation, position) placements with fresh variables in
    the other positions; the cartesian product is taken across missing
    variables.  Rules that cannot be repaired (no input relation of positive
    arity) are dropped.
    """
    out: list[Rule] = []
    for rule in rules:
        missing = sorted(
            rule.head_vars() - rule.body_vars() - set(rule.existentials))
        out += _anchor_in_inputs(rule, missing, s_in)
    # canonical order, dedupe
    seen = set()
    result = []
    for r in sorted(out, key=lambda r: r.canonical_str()):
        key = r.canonical_str()
        if key not in seen:
            seen.add(key)
            result.append(r)
    return result


# ---------------------------------------------------------------------------
# Simple normal form for tree-shaped almost-monadic programs
# ---------------------------------------------------------------------------


def _split_rule(rule: Rule, in_names: set[str]):
    """Candidate splits of a body with >= 2 input atoms into two atom
    groups sharing at most one variable ``z``, each keeping at least one
    input atom.  Returns a list of (group1, group2, z) orientations.

    The body is split on its incidence forest (atoms and variables, one
    link per occurrence); the caller drops repeated atoms first, as the
    two copies of an atom form a cycle.  Input atoms in different
    components split along the first such component, with no shared
    variable.  Otherwise each link (i, z) whose removal leaves the first
    input atom on z's side and the second on i's side is a cut: group 2
    is the second input's side, and the cuts run from the first input
    toward the second.
    """
    body = rule.body_atoms
    atoms = range(len(body))
    inputs = [i for i in atoms if body[i].rel in in_names]
    args = [atom.args for atom in body]
    uf = _incidence_links(args)
    roots = {uf.find(i) for i in inputs}
    if len(roots) >= 2:
        first = next(uf.find(i) for i in atoms if uf.find(i) in roots)
        group1 = [i for i in atoms if uf.find(i) == first]
        group2 = [i for i in atoms if uf.find(i) != first]
        return [(group1, group2, None), (group2, group1, None)]

    start, goal = inputs[0], inputs[1]
    cuts = []
    for i, atom in enumerate(body):
        for z in atom.args:
            cut = _incidence_links(args, cut=(i, z))
            if cut.find(start) == cut.find(z) != cut.find(i) == \
                    cut.find(goal):
                g2 = [j for j in atoms if cut.find(j) == cut.find(goal)]
                g1 = [j for j in atoms if j not in g2]
                cuts.append((g1, g2, z))
    # nested cuts: group 2 shrinks from the first input toward the second
    cuts.sort(key=lambda c: -len(c[1]))
    return [opt for g1, g2, z in cuts for opt in ((g1, g2, z), (g2, g1, z))]


def to_simple_tam(P: Program) -> Program:
    """Equivalent simple program: exactly one input atom per rule body.

    Repeated atoms of a body are dropped first.  Phase 1 then splits rules
    with two or more input atoms on their body's incidence forest (see
    ``_split_rule``), using a fresh aux relation articulated at position 1;
    phase 2 extends input-free rule bodies with an input atom at an
    articulated body variable, in all possible ways.  Connectedness is
    preserved.
    """
    cls = classify(P)
    if not cls.tam:
        raise ProgramError("simple normal form requires a tree-shaped "
                           "almost-monadic program")
    art = dict(cls.articulation_witness or ())
    in_names = set(P.s_in.names)
    taken = set(P.full_schema().names)
    aux = P.s_aux.as_dict()

    # phase 1: at most one input atom per body
    queue = [Rule(r.head_atoms, tuple(dict.fromkeys(r.body_atoms)),
                  r.existentials) for r in P.rules]
    rules = []
    while queue:
        rule = queue.pop(0)
        n_inputs = sum(1 for a in rule.body_atoms if a.rel in in_names)
        if n_inputs <= 1:
            rules.append(rule)
            continue
        body = rule.body_atoms
        new_rel = fresh_name("Split", taken)

        def build(option):
            """Rules and articulation entry for one split orientation."""
            g1, g2, z = option
            # only variables visible outside group 2 need to be exported
            needed = set(v for i in g1 for v in body[i].args)
            for a in rule.head_atoms:
                needed.update(a.args)
            vars2 = []
            for i in g2:
                for v in body[i].args:
                    if v not in vars2 and (v in needed or v == z):
                        vars2.append(v)
            if z is not None:
                vars2.remove(z)
                vars2.insert(0, z)
            else:
                # start with a variable of an input atom in group 2, if any
                for i in g2:
                    if body[i].rel in in_names and body[i].args:
                        lead = body[i].args[0]
                        if lead in vars2:
                            vars2.remove(lead)
                        vars2.insert(0, lead)
                        break
            rule1 = Rule(
                rule.head_atoms,
                tuple(body[i] for i in g1) + (Atom(new_rel, tuple(vars2)),),
                rule.existentials,
            )
            rule2 = Rule((Atom(new_rel, tuple(vars2)),),
                         tuple(body[i] for i in g2))
            return rule1, rule2, vars2

        options = _split_rule(rule, in_names)
        chosen = None
        for option in options:
            rule1, rule2, vars2 = build(option)
            f_test = dict(art)
            if vars2:
                f_test[new_rel] = 1
            aux_test = set(aux) | {new_rel}
            if _am_ok_for_rule(rule1, aux_test, f_test) and \
                    _am_ok_for_rule(rule2, aux_test, f_test):
                chosen = (rule1, rule2, vars2)
                break
        if chosen is None:
            chosen = build(options[0])
        rule1, rule2, vars2 = chosen
        taken.add(new_rel)
        aux[new_rel] = len(vars2)
        if vars2:
            art[new_rel] = 1
        queue.append(rule1)
        queue.append(rule2)

    # phase 2: no input-free bodies
    expanded = []
    for rule in rules:
        anchor = next((atom.args[art[atom.rel] - 1]
                       for atom in rule.body_atoms if atom.rel in art), None)
        if any(a.rel in in_names for a in rule.body_atoms) or anchor is None:
            expanded.append(rule)
        else:
            # with no input position there is nothing to anchor to
            expanded += _anchor_in_inputs(rule, [anchor], P.s_in) or [rule]
    rules = expanded

    rules = sorted(rules, key=lambda r: r.canonical_str())
    return Program(P.s_in, P.s_out, Schema(aux), rules, art)


# ---------------------------------------------------------------------------
# Monadic reduction (almost-monadic -> Boolean monadic) and its converse
# ---------------------------------------------------------------------------


def _normalize_articulation(P: Program, art: dict) -> Program:
    """Permute aux relation arguments so that every articulated position
    becomes position 1."""
    perms = {}
    for rel, pos in art.items():
        arity = P.s_aux.arity(rel)
        order = [pos - 1] + [i for i in range(arity) if i != pos - 1]
        perms[rel] = order

    def permute(atom: Atom) -> Atom:
        if atom.rel in perms:
            order = perms[atom.rel]
            return Atom(atom.rel, tuple(atom.args[i] for i in order))
        return atom

    rules = [
        Rule(tuple(permute(a) for a in r.head_atoms),
             tuple(permute(a) for a in r.body_atoms),
             r.existentials)
        for r in P.rules
    ]
    new_art = {rel: 1 for rel in art}
    return Program(P.s_in, P.s_out, P.s_aux, rules, new_art)


def _sf_name(rel: str, f: dict[int, int]) -> str:
    parts = "".join(f"_{i}q{j}" for i, j in sorted(f.items()))
    return f"{rel}_f{parts}"


def monadic_reduction(P: Program, R: str) -> Program:
    """Reduce an almost-monadic program with k-ary output R to a Boolean
    monadic program P' over s_in plus fresh unary relations Q1..Qk such that
    R(a1..ak) is derived by P on I iff P' accepts I + {Q1(a1),..,Qk(ak)}.
    """
    witness = articulation_search(P)
    if witness is None:
        raise ProgramError("monadic reduction requires an almost-monadic "
                           "program")
    if R not in P.s_out:
        raise ProgramError(f"unknown output relation {R}")
    k = P.s_out.arity(R)
    P = restrict_output(P, R)
    P = _normalize_articulation(P, {r: p for r, p in witness.items()
                                    if r in P.s_aux})

    taken = set(P.full_schema().names)
    q_names = []
    for i in range(1, k + 1):
        q = fresh_name(f"Q{i}", taken)
        taken.add(q)
        q_names.append(q)
    ans = fresh_name("Ans", taken)
    taken.add(ans)

    aux_names = set(P.s_aux.names)
    starred = aux_names | {R}
    new_aux: dict[str, int] = {}
    new_rules: list[Rule] = []

    def sf(rel: str, f: dict[int, int]) -> str:
        name = _sf_name(rel, f)
        new_aux[name] = 1
        return name

    boolean_target = (k == 0)

    for rule in P.rules:
        head = rule.head_atoms[0]
        starred_atoms = [head] + [a for a in rule.body_atoms
                                  if a.rel in aux_names]
        labelled_vars = sorted({v for a in starred_atoms for v in a.args})
        input_atoms = [a for a in rule.body_atoms if a.rel not in aux_names]
        for combo in itertools.product(range(k + 1),
                                       repeat=len(labelled_vars)):
            # label 0 = unconstrained; label j >= 1 = relation Qj
            lab = dict(zip(labelled_vars, combo))

            def f_of(atom: Atom) -> dict[int, int]:
                return {i: lab[v]
                        for i, v in enumerate(atom.args, start=1)
                        if lab[v] != 0}

            body = []
            for a in rule.body_atoms:
                if a.rel in aux_names:
                    body.append(Atom(sf(a.rel, f_of(a)), (a.args[0],)))
                else:
                    body.append(a)
            f0 = f_of(head)
            for i, v in enumerate(head.args, start=1):
                if lab[v] != 0:
                    body.append(Atom(q_names[lab[v] - 1], (v,)))
            if head.rel == R and boolean_target:
                new_head = Atom(ans, ())
            else:
                new_head = Atom(sf(head.rel, f0), (head.args[0],))
            new_rules.append(Rule((new_head,), tuple(body)))

    if not boolean_target:
        final_f = {i: i for i in range(1, k + 1)}
        x = "x"
        new_rules.append(Rule((Atom(ans, ()),),
                              (Atom(sf(R, final_f), (x,)),)))

    s_in = P.s_in.union(Schema([(q, 1) for q in q_names]))
    new_rules = repair_unsafe_rules(new_rules, s_in)
    # drop S^f relations never derivable (no rule head) to keep things small
    derivable = {r.head_atoms[0].rel for r in new_rules}
    reachable_rules = []
    for r in new_rules:
        if all(a.rel not in new_aux or a.rel in derivable
               for a in r.body_atoms):
            reachable_rules.append(r)
    used = {a.rel for r in reachable_rules
            for a in list(r.head_atoms) + list(r.body_atoms)}
    aux_schema = Schema([(n, 1) for n in new_aux if n in used])
    art = {n: 1 for n, _ in aux_schema.relations}
    return Program(s_in, Schema([(ans, 0)]), aux_schema,
                   reachable_rules, art)


def monadic_to_tam(Pp: Program, q_rels: list[str]) -> Program:
    """Converse reduction: from a Boolean monadic program P' whose input
    schema contains unary relations Q1..Qk, build a program P with a k-ary
    output such that P derives R(a1..ak) on I iff P' accepts
    I + {Q1(a1),..,Qk(ak)}.

    Aux relations are (1+k)-ary starred versions of P's aux and Q relations.
    """
    cls = classify(Pp)
    if not cls.boolean_program or not cls.monadic:
        raise ProgramError("converse reduction requires a Boolean monadic "
                           "program")
    for q in q_rels:
        if q not in Pp.s_in or Pp.s_in.arity(q) != 1:
            raise ProgramError(f"{q} must be a unary input relation")
    k = len(q_rels)
    q_set = set(q_rels)
    ans_rel = Pp.s_out.names[0]
    s_in = Schema([(r, a) for r, a in Pp.s_in.relations if r not in q_set])
    taken = set(s_in.names)

    star: dict[str, str] = {}
    new_aux: dict[str, int] = {}
    for rel in list(Pp.s_aux.names) + q_rels:
        name = fresh_name(f"{rel}_s", taken)
        taken.add(name)
        star[rel] = name
        new_aux[name] = 1 + k
    out_rel = fresh_name("Ans", taken)
    taken.add(out_rel)

    rules: list[Rule] = []
    xs = [f"x{i}" for i in range(1, k + 1)]
    for i, q in enumerate(q_rels, start=1):
        head = Atom(star[q], (xs[i - 1],) + tuple(xs))
        rules.append(Rule((head,), ()))

    starrable = set(Pp.s_aux.names) | q_set
    for rule in Pp.rules:
        local = set(rule.all_vars())
        inner = set(local)
        ys = tuple(_fresh_var(f"y{i}", inner) for i in range(1, k + 1))
        head = rule.head_atoms[0]
        if head.rel == ans_rel:
            new_head = Atom(out_rel, ys)
        else:
            new_head = Atom(star[head.rel], head.args + ys)
        body = []
        for a in rule.body_atoms:
            if a.rel in starrable:
                body.append(Atom(star[a.rel], a.args + ys))
            else:
                body.append(a)
        rules.append(Rule((new_head,), tuple(body)))

    rules = repair_unsafe_rules(rules, s_in)
    art = {name: 1 for name in new_aux}
    return Program(s_in, Schema([(out_rel, k)]), Schema(new_aux), rules, art)


# ---------------------------------------------------------------------------
# Unfoldings
# ---------------------------------------------------------------------------


def _standardize(rule: Rule, suffix: str) -> Rule:
    sub = {v: f"{v}_{suffix}" for v in rule.all_vars()}

    def ren(a: Atom) -> Atom:
        return Atom(a.rel, tuple(sub[v] for v in a.args))

    return Rule(tuple(ren(a) for a in rule.head_atoms),
                tuple(ren(a) for a in rule.body_atoms),
                tuple(sub[v] for v in rule.existentials))


def unfoldings(P: Program, R: str, depth: int) -> list[Instance]:
    """Pointed canonical instances of input-only derivable rules with head
    relation R, reachable in at most ``depth`` substitution steps,
    deduplicated up to isomorphism."""
    if not P.is_datalog:
        raise ProgramError("unfoldings require a Datalog program")
    if depth < 1:
        raise ProgramError("depth must be >= 1")
    aux_names = set(P.s_aux.names)
    work_schema = P.full_schema()

    frontier: list[tuple] = []  # (head_args, body_atoms)
    for i, rule in enumerate(P.rules):
        if rule.head_atoms[0].rel == R:
            r = _standardize(rule, f"r{i}")
            frontier.append((r.head_atoms[0].args, r.body_atoms))

    def bucket(entry):
        head_args, body = entry
        shape = sorted((a.rel, len(a.args)) for a in body)
        return (len(head_args), tuple(shape))

    def dedupe(entries):
        buckets: dict = {}
        for entry in entries:
            inst = canonical_instance(entry[1], work_schema, entry[0])
            buckets.setdefault(bucket(entry), [])
            if not any(isomorphic(inst, other_inst)
                       for _, other_inst in buckets[bucket(entry)]):
                buckets[bucket(entry)].append((entry, inst))
        return [entry for group in buckets.values()
                for entry, _ in group]

    results: list[tuple] = []
    counter = 0
    for step in range(depth + 1):
        frontier = dedupe(frontier)
        new_frontier = []
        for head_args, body in frontier:
            if all(a.rel not in aux_names for a in body):
                # without repeated atoms, isomorphic results share a bucket
                results.append((head_args, tuple(dict.fromkeys(body))))
                continue
            if step == depth:
                continue
            for bi, atom in enumerate(body):
                if atom.rel not in aux_names:
                    continue
                for rj, rule in enumerate(P.rules):
                    if rule.head_atoms[0].rel != atom.rel:
                        continue
                    counter += 1
                    r = _standardize(rule, f"s{counter}")
                    # most general unifier of the atom and the rule head
                    uf = _UnionFind()
                    for a, b in zip(atom.args, r.head_atoms[0].args):
                        uf.union(a, b)
                    new_body = tuple(
                        Atom(a.rel, tuple(uf.find(v) for v in a.args))
                        for a in body[:bi] + body[bi + 1:] + r.body_atoms
                    )
                    new_head = tuple(uf.find(v) for v in head_args)
                    new_frontier.append((new_head, new_body))
        frontier = new_frontier
        if not frontier:
            break

    return sorted((canonical_instance(body, P.s_in, head_args)
                   for head_args, body in dedupe(results)),
                  key=lambda i: i.canonical_key())


# ---------------------------------------------------------------------------
# Dependency compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TGD:
    """A tuple-generating dependency: body atoms imply head atoms, with
    optional existential head variables."""

    body_atoms: tuple[Atom, ...]
    head_atoms: tuple[Atom, ...]
    existentials: tuple[str, ...] = ()

    def canonical_str(self) -> str:
        body = ", ".join(str(a) for a in self.body_atoms)
        head = ", ".join(str(a) for a in self.head_atoms)
        ex = ""
        if self.existentials:
            ex = "exists " + ",".join(self.existentials) + " : "
        return f"{body} -> {ex}{head}."


def tgd_schema(tgds: Iterable[TGD]) -> Schema:
    rels: dict[str, int] = {}
    for t in tgds:
        for a in list(t.body_atoms) + list(t.head_atoms):
            if rels.setdefault(a.rel, len(a.args)) != len(a.args):
                raise ProgramError(f"inconsistent arity for {a.rel}")
    return Schema(rels)


def tgd_compile(tgds: list[TGD],
                schema: Optional[Schema] = None) -> Program:
    """Compile a dependency set over schema S into a program with input
    copies R_in, output copies R_out, aux S, the dependency rules, and the
    copy rules R(x) :- R_in(x) and R_out(x) :- R(x)."""
    base = tgd_schema(tgds)
    if schema is not None:
        base = schema.union(base)
    names = set(base.names)
    for rel in base.names:
        if f"{rel}_in" in names or f"{rel}_out" in names:
            raise ProgramError(
                f"relation name collision: {rel}_in/{rel}_out reserved")
    s_in = Schema([(f"{r}_in", a) for r, a in base.relations])
    s_out = Schema([(f"{r}_out", a) for r, a in base.relations])
    rules: list[Rule] = []
    for rel, arity in base.relations:
        xs = tuple(f"x{i}" for i in range(1, arity + 1))
        rules.append(Rule((Atom(rel, xs),), (Atom(f"{rel}_in", xs),)))
        rules.append(Rule((Atom(f"{rel}_out", xs),), (Atom(rel, xs),)))
    for t in tgds:
        rules.append(Rule(t.head_atoms, t.body_atoms, t.existentials))
    return Program(s_in, s_out, base, rules)


def instance_to_input(I: Instance, P: Program) -> Instance:
    """Rename an instance over schema S to the R_in input schema of a
    dependency program."""
    return I.rename_relations(
        {r: f"{r}_in" for r in I.schema.names}).with_schema(P.s_in)


def input_to_instance(I: Instance, base: Schema) -> Instance:
    """Rename an R_in input instance back to the base schema S."""
    return I.rename_relations(
        {f"{r}_in": r for r in base.names}).with_schema(base)


def output_to_instance(J: Instance, base: Schema) -> Instance:
    """Rename an R_out output instance back to the base schema S."""
    return J.rename_relations(
        {f"{r}_out": r for r in base.names}).with_schema(base)


def instance_to_output(I: Instance, P: Program) -> Instance:
    """Rename an instance over schema S to the R_out output schema."""
    return I.rename_relations(
        {r: f"{r}_out" for r in I.schema.names}).with_schema(P.s_out)


# ---------------------------------------------------------------------------
# Graph-functor compilation
# ---------------------------------------------------------------------------


def pultr_compile(phi_v, phi_e) -> Program:
    """Compile a digraph functor given by a vertex CQ of arity k and an edge
    CQ of arity 2k into a weakly acyclic existential program whose output is
    hom-equivalent (over the input's active domain) to the functor image.

    ``phi_v`` and ``phi_e`` are CQ objects with ``answer_vars`` and ``atoms``
    over the schema {V/1, E/2}.
    """
    k = len(phi_v.answer_vars)
    if len(phi_e.answer_vars) != 2 * k:
        raise ProgramError("edge query arity must be twice the vertex query "
                           "arity")
    for atom in list(phi_v.atoms) + list(phi_e.atoms):
        if atom.rel not in ("V", "E"):
            raise ProgramError("functor queries must be over {V/1, E/2}")
    s_in = Schema([("V_in", 1), ("E_in", 2)])
    s_out = Schema([("V_out", 1), ("E_out", 2)])
    s_aux = Schema([(f"R{i}", 2) for i in range(1, k + 1)])
    ren = {"V": "V_in", "E": "E_in"}

    def ren_atoms(atoms):
        return tuple(Atom(ren[a.rel], a.args) for a in atoms)

    taken_v = set(v for a in phi_v.atoms for v in a.args)
    y = _fresh_var("y", set(taken_v))
    rule1 = Rule(
        tuple(Atom(f"R{i}", (y, v))
              for i, v in enumerate(phi_v.answer_vars, start=1)),
        ren_atoms(phi_v.atoms),
        (y,),
    )
    taken_e = set(v for a in phi_e.atoms for v in a.args)
    taken_e |= set(phi_e.answer_vars)
    u = _fresh_var("u", taken_e)
    v2 = _fresh_var("v", taken_e)
    xs = phi_e.answer_vars[:k]
    ys = phi_e.answer_vars[k:]
    body2 = list(ren_atoms(phi_e.atoms))
    for i in range(k):
        body2.append(Atom(f"R{i + 1}", (u, xs[i])))
        body2.append(Atom(f"R{i + 1}", (v2, ys[i])))
    rule2 = Rule((Atom("E_out", (u, v2)),), tuple(body2))
    return Program(s_in, s_out, s_aux, [rule1, rule2])
