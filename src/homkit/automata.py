"""Tree-terms, bottom-up tree automata, and their compilation to Datalog.

A tree-term denotes a connected acyclic pointed instance over a schema S
plus unary label predicates X: a leaf is a single node carrying a set of
labels, and an internal node glues the roots of its children with one
S-fact and points at the i-th child's root.  Automata run bottom-up over
state sets; ``automaton_to_datalog`` produces a connected Boolean monadic
tree-shaped program deriving its answer exactly when some accepted term's
tree maps homomorphically into the input.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator

from .core import CapExceeded, Element, HomkitError, Instance, Schema, \
    find_homomorphism
from .program import Atom, Program, Rule

STATE_CAP = 2 ** 16


class AutomatonError(HomkitError):
    pass


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeTerm:
    """leaf: ``op="leaf"`` with a frozenset of labels.
    internal: ``op="node"`` with relation, 1-based root index, children."""

    op: str
    labels: frozenset = frozenset()
    rel: str = ""
    index: int = 0
    children: tuple = ()

    def __post_init__(self):
        if self.op == "leaf":
            if self.children or self.rel:
                raise AutomatonError("leaf terms have no children")
        elif self.op == "node":
            if not self.rel or not self.children:
                raise AutomatonError("internal terms need a relation and "
                                     "children")
            if not 1 <= self.index <= len(self.children):
                raise AutomatonError(
                    f"root index {self.index} out of range 1.."
                    f"{len(self.children)}")
        else:
            raise AutomatonError(f"unknown term op {self.op!r}")

    def __str__(self):
        if self.op == "leaf":
            return "{" + ",".join(sorted(self.labels)) + "}"
        kids = ",".join(str(c) for c in self.children)
        return f"{self.rel}@{self.index}({kids})"


def leaf(labels=()) -> TreeTerm:
    return TreeTerm("leaf", labels=frozenset(labels))


def node(rel: str, index: int, children) -> TreeTerm:
    return TreeTerm("node", rel=rel, index=index, children=tuple(children))


_NO_LABELS = frozenset()
_set = object.__setattr__


def _node(rel: str, index: int, children: tuple) -> TreeTerm:
    """``node`` for arguments valid by construction (a relation, 1 <=
    index <= len(children), children a non-empty tuple): skips the checks
    of ``__post_init__``.  Fields are set one by one in declaration order,
    as the dataclass ``__init__`` does, so terms keep the compact
    attribute layout (a ``__dict__.update`` costs 128 bytes more a
    term)."""
    t = object.__new__(TreeTerm)
    _set(t, "op", "node")
    _set(t, "labels", _NO_LABELS)
    _set(t, "rel", rel)
    _set(t, "index", index)
    _set(t, "children", children)
    return t


def term_to_tree(t: TreeTerm, schema: Schema) -> Instance:
    """The pointed instance denoted by a term, over the full S ∪ X schema."""
    counter = itertools.count(1)

    def build(term: TreeTerm):
        if term.op == "leaf":
            v = Element.named(f"v{next(counter)}")
            facts = [(lab, (v,)) for lab in sorted(term.labels)]
            return v, {v}, facts
        if term.rel not in schema or \
                schema.arity(term.rel) != len(term.children):
            raise AutomatonError(
                f"relation {term.rel}/{len(term.children)} not in the "
                "schema")
        roots, domain, facts = [], set(), []
        for child in term.children:
            r, d, f = build(child)
            roots.append(r)
            domain |= d
            facts += f
        facts.append((term.rel, tuple(roots)))
        return roots[term.index - 1], domain, facts

    root, domain, facts = build(t)
    return Instance(schema, domain, facts, (root,))


def tree_to_term(T: Instance, labels) -> TreeTerm:
    """Inverse of ``term_to_tree`` up to isomorphism.

    Requires a single point and a connected acyclic instance; the label
    predicates are carried on leaves, all other facts become internal
    nodes."""
    from .core import structure_report

    if len(T.points) != 1:
        raise AutomatonError("tree conversion needs exactly one point")
    rep = structure_report(T)
    if not rep.acyclic or not rep.connected:
        raise AutomatonError("tree conversion needs a connected acyclic "
                             "instance")
    labels = set(labels)
    label_facts: dict[Element, list[str]] = {}
    struct_facts = []
    for rel, args in T.sorted_facts():
        if rel in labels and len(args) == 1:
            label_facts.setdefault(args[0], []).append(rel)
        else:
            struct_facts.append((rel, args))
    used: set = set()

    def build(elem: Element, banned) -> TreeTerm:
        term = leaf(label_facts.get(elem, ()))
        for f in struct_facts:
            if f in used or f is banned:
                continue
            rel, args = f
            if elem not in args:
                continue
            used.add(f)
            i = args.index(elem) + 1
            children = []
            for j, arg in enumerate(args):
                if j == i - 1:
                    children.append(term)
                else:
                    children.append(build(arg, f))
            term = node(rel, i, children)
        return term

    result = build(T.points[0], None)
    if len(used) != len(struct_facts):
        raise AutomatonError("instance is not connected through its point")
    return result


def enumerate_terms(schema: Schema, labels, depth: int) -> Iterator[TreeTerm]:
    """All terms of the given maximum nesting depth, in a deterministic
    order: leaves, then level by level, each level by relation, kid tuple
    (kids in the order of their first yield, the last kid varying
    fastest) and root index.

    Earlier levels are kept, as the kids of later ones.  The deepest
    level is no term's kid: it is yielded as it is built and kept
    nowhere."""
    labels = sorted(labels)
    leaves = []
    for r in range(len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            leaves.append(leaf(combo))
    yield from leaves
    all_terms = list(leaves)
    start = 0  # where the previous level begins in all_terms
    for level in range(depth):
        terms = _next_level(schema, all_terms, start)
        if level == depth - 1:
            yield from terms
        else:
            fresh = list(terms)
            yield from fresh
            start = len(all_terms)
            all_terms += fresh


def _next_level(schema: Schema, all_terms: list,
                start: int) -> Iterator[TreeTerm]:
    """The terms one level above ``all_terms[start:]``.  A kid tuple drawn
    wholly from before ``start`` builds a term of an earlier level, so a
    tuple whose first kids all lie there takes its last kid from
    ``all_terms[start:]`` only."""
    previous = all_terms[start:]
    for rel, arity in schema.relations:
        if arity == 0:
            continue
        roots = range(1, arity + 1)
        for idx in itertools.product(range(len(all_terms)), repeat=arity - 1):
            head = tuple([all_terms[k] for k in idx])
            tails = all_terms if idx and max(idx) >= start else previous
            for t in tails:
                kids = head + (t,)
                for i in roots:
                    yield _node(rel, i, kids)


def accepted_cover(A: "TreeAutomaton", depth: int) -> list:
    """Homomorphism-minimal trees of the accepted terms up to the given
    depth.

    Some accepted tree of depth <= depth maps into an instance I exactly
    when some member of the cover does, so the cover is a compact witness
    set for bounded-depth language hits.

    Each term's state set comes from its kids' sets by one transition
    step.  A term is covered when some kid is accepted or covered, and a
    covered term gets no run and no tree: it cannot change the cover.
    This is exact, because ``enumerate_terms`` yields kids before parents:
    once an accepted term is seen, some kept tree maps into its tree;
    a kept tree is dropped only for a tree that maps into it;
    and a kid's tree embeds in its parent's."""
    full = A.schema.union(Schema([(x, 1) for x in A.labels]))
    kept: list[Instance] = []
    # id(term) -> (term, height, state set, or None when accepted or
    # covered); only terms of height < depth can be kids, and the term in
    # the value keeps its id from being reused
    seen: dict = {}
    steps: dict = {}  # (rel, index, kid state sets) -> state set
    for t in enumerate_terms(A.schema, A.labels, depth):
        if t.op == "leaf":
            height, states = 0, _leaf_states(A, t.labels)
        else:
            _, heights, kid_sets = zip(*[seen[id(c)] for c in t.children])
            height = 1 + max(heights)
            if None in kid_sets:
                states = None
            else:
                key = (t.rel, t.index, kid_sets)
                states = steps.get(key)
                if states is None:
                    states = steps[key] = _step(A, t.rel, t.index, kid_sets)
        if states is not None and states & A.accepting:
            states = None
            T = term_to_tree(t, full).with_points(())
            if not any(find_homomorphism(K, T) is not None for K in kept):
                kept = [K for K in kept if find_homomorphism(T, K) is None]
                kept.append(T)
        if height < depth:
            seen[id(t)] = (t, height, states)
    return kept


# ---------------------------------------------------------------------------
# Automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeAutomaton:
    """Bottom-up nondeterministic tree automaton.

    ``leaf_delta`` maps a frozenset of labels to the states reachable at
    such a leaf (missing sets mean no state); ``trans`` maps (relation,
    root index) to a frozenset of (child-state tuple, state) pairs."""

    schema: Schema
    labels: tuple
    states: tuple
    accepting: frozenset
    leaf_delta: dict
    trans: dict

    def __post_init__(self):
        states = set(self.states)
        if not self.accepting <= states:
            raise AutomatonError("accepting states outside the state set")
        for s, qs in self.leaf_delta.items():
            if not frozenset(s) <= set(self.labels):
                raise AutomatonError(f"leaf labels {sorted(s)} outside X")
            if not set(qs) <= states:
                raise AutomatonError("leaf transition to unknown state")
        for (rel, i), pairs in self.trans.items():
            if rel not in self.schema:
                raise AutomatonError(f"transition over unknown relation "
                                     f"{rel}")
            k = self.schema.arity(rel)
            if not 1 <= i <= k:
                raise AutomatonError(f"root index {i} out of range for "
                                     f"{rel}/{k}")
            for qs, q in pairs:
                if len(qs) != k or not set(qs) <= states or q not in states:
                    raise AutomatonError("malformed transition")

    def __hash__(self):
        return hash((self.schema.relations, self.labels, self.states))


def _leaf_states(A: TreeAutomaton, labels: frozenset) -> frozenset:
    if not labels <= set(A.labels):
        raise AutomatonError("term labels outside the automaton's X")
    return frozenset(A.leaf_delta.get(frozenset(labels), frozenset()))


def _step(A: TreeAutomaton, rel: str, index: int, kid_sets) -> frozenset:
    """The states at an internal node from its kids' state sets."""
    return frozenset(
        q for qs, q in A.trans.get((rel, index), frozenset())
        if all(qi in si for qi, si in zip(qs, kid_sets)))


def run_states(A: TreeAutomaton, t: TreeTerm) -> frozenset:
    """The set of states reachable at the root of a term."""
    if t.op == "leaf":
        return _leaf_states(A, t.labels)
    return _step(A, t.rel, t.index,
                 tuple(run_states(A, c) for c in t.children))


def run(A: TreeAutomaton, t: TreeTerm) -> bool:
    return bool(run_states(A, t) & A.accepting)


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------


def _check_signature(A: TreeAutomaton, B: TreeAutomaton):
    if A.schema.relations != B.schema.relations or \
            tuple(A.labels) != tuple(B.labels):
        raise AutomatonError("automata have different signatures")


def union(A: TreeAutomaton, B: TreeAutomaton) -> TreeAutomaton:
    """Language union by disjoint state renaming."""
    _check_signature(A, B)

    def tag(prefix, q):
        return f"{prefix}{q}"

    states = tuple(tag("a_", q) for q in A.states) + \
        tuple(tag("b_", q) for q in B.states)
    accepting = frozenset(tag("a_", q) for q in A.accepting) | \
        frozenset(tag("b_", q) for q in B.accepting)
    leaf_delta: dict = {}
    for prefix, M in (("a_", A), ("b_", B)):
        for s, qs in M.leaf_delta.items():
            leaf_delta.setdefault(s, frozenset())
            leaf_delta[s] |= frozenset(tag(prefix, q) for q in qs)
    trans: dict = {}
    for prefix, M in (("a_", A), ("b_", B)):
        for key, pairs in M.trans.items():
            trans.setdefault(key, frozenset())
            trans[key] |= frozenset(
                (tuple(tag(prefix, q) for q in qs), tag(prefix, q0))
                for qs, q0 in pairs)
    return TreeAutomaton(A.schema, tuple(A.labels), states, accepting,
                         leaf_delta, trans)


def _subset_name(subset: frozenset) -> str:
    return "s_" + "_".join(sorted(subset)) if subset else "s_empty"


def determinize(A: TreeAutomaton, cap: int = STATE_CAP) -> TreeAutomaton:
    """Subset construction; the result assigns exactly one state to every
    term.  Accepting subsets are those containing an accepting state."""
    label_sets = [frozenset(c) for r in range(len(A.labels) + 1)
                  for c in itertools.combinations(sorted(A.labels), r)]
    subsets: dict[frozenset, str] = {}
    leaf_delta: dict = {}
    queue: list[frozenset] = []

    def admit(sub: frozenset) -> str:
        if sub not in subsets:
            if len(subsets) >= cap:
                raise CapExceeded(
                    f"subset construction exceeds {cap} states")
            subsets[sub] = _subset_name(sub)
            queue.append(sub)
        return subsets[sub]

    for s in label_sets:
        sub = frozenset(A.leaf_delta.get(s, frozenset()))
        leaf_delta[s] = frozenset([admit(sub)])

    trans: dict = {}
    done: set = set()
    while queue:
        queue_snapshot = sorted(subsets, key=_subset_name)
        queue.clear()
        for (rel, i) in sorted(A.trans):
            k = A.schema.arity(rel)
            pairs = A.trans[(rel, i)]
            for combo in itertools.product(queue_snapshot, repeat=k):
                key = ((rel, i), combo)
                if key in done:
                    continue
                done.add(key)
                out = frozenset(
                    q0 for qs, q0 in pairs
                    if all(qi in sub for qi, sub in zip(qs, combo)))
                name = admit(out)
                trans.setdefault((rel, i), set()).add(
                    (tuple(subsets[c] for c in combo), name))
        if not queue:
            break
    states = tuple(sorted(subsets.values()))
    accepting = frozenset(
        name for sub, name in subsets.items() if sub & A.accepting)
    return TreeAutomaton(A.schema, tuple(A.labels), states, accepting,
                         leaf_delta,
                         {k: frozenset(v) for k, v in trans.items()})


def complement(A: TreeAutomaton, cap: int = STATE_CAP) -> TreeAutomaton:
    det = determinize(A, cap=cap)
    accepting = frozenset(q for q in det.states if q not in det.accepting)
    return TreeAutomaton(det.schema, det.labels, det.states, accepting,
                         det.leaf_delta, det.trans)


def project(A: TreeAutomaton, keep) -> TreeAutomaton:
    """Language of label-projections of accepted terms."""
    keep = tuple(sorted(set(keep)))
    if not set(keep) <= set(A.labels):
        raise AutomatonError("projection labels outside X")
    leaf_delta: dict = {}
    for s, qs in A.leaf_delta.items():
        s2 = frozenset(x for x in s if x in keep)
        leaf_delta.setdefault(s2, frozenset())
        leaf_delta[s2] |= frozenset(qs)
    return TreeAutomaton(A.schema, keep, A.states, A.accepting,
                         leaf_delta, A.trans)


# ---------------------------------------------------------------------------
# Compilation to Datalog
# ---------------------------------------------------------------------------


def automaton_to_datalog(A: TreeAutomaton) -> Program:
    """A connected Boolean monadic tree-shaped program deriving its answer
    exactly when the tree of some accepted term maps into the input.

    One unary relation per state; leaf transitions become label rules
    (label-free leaves are repaired by extending the body with every
    single input atom containing the variable); internal transitions
    become one rule per (relation, index) pair; accepting states feed a
    zero-ary answer relation.
    """
    s_in = Schema(list(A.schema.relations) +
                  [(x, 1) for x in A.labels])
    taken = set(s_in.names) | {"Ans"}
    state_rel = {}
    for q in A.states:
        name = f"St_{q}"
        while name in taken:
            name += "_"
        taken.add(name)
        state_rel[q] = name
    rules: list[Rule] = []
    for s, qs in sorted(A.leaf_delta.items(),
                        key=lambda kv: sorted(kv[0])):
        body_labels = tuple(Atom(x, ("x",)) for x in sorted(s))
        for q in sorted(qs):
            head = (Atom(state_rel[q], ("x",)),)
            if body_labels:
                rules.append(Rule(head, body_labels))
            else:
                # safety repair: anchor the variable in every input atom
                for rel, arity in s_in.relations:
                    for p in range(arity):
                        args = tuple(
                            "x" if j == p else f"y{j + 1}"
                            for j in range(arity))
                        rules.append(Rule(head, (Atom(rel, args),)))
    for (rel, i) in sorted(A.trans):
        k = A.schema.arity(rel)
        xs = tuple(f"x{j}" for j in range(1, k + 1))
        for qs, q0 in sorted(A.trans[(rel, i)]):
            body = (Atom(rel, xs),) + tuple(
                Atom(state_rel[qj], (xs[j],)) for j, qj in enumerate(qs))
            rules.append(Rule((Atom(state_rel[q0], (xs[i - 1],)),), body))
    for q in sorted(A.accepting):
        rules.append(Rule((Atom("Ans", ()),),
                          (Atom(state_rel[q], ("x",)),)))
    seen: set = set()
    deduped = []
    for r in rules:
        key = r.canonical_str()
        if key not in seen:
            seen.add(key)
            deduped.append(r)
    s_aux = Schema([(state_rel[q], 1) for q in A.states])
    art = {state_rel[q]: 1 for q in A.states}
    return Program(s_in, Schema([("Ans", 0)]), s_aux, deduped, art)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def parse_automaton(text: str) -> TreeAutomaton:
    """Parse the line-oriented automaton format:

    automaton over E/2, F/3
    labels: X1 X2
    states: q0 q1
    accept: q1
    leaf {X1} -> q0
    trans E 1 (q0,q1) -> q1
    """
    from .syntax import ParseError

    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not lines or not lines[0][1].startswith("automaton"):
        raise ParseError("expected 'automaton over ...'", 1, 1)
    header = lines[0][1][len("automaton"):].strip()
    rels = []
    if header:
        if not header.startswith("over"):
            raise ParseError("expected 'over' after 'automaton'",
                             lines[0][0], 1)
        for part in header[len("over"):].split(","):
            part = part.strip()
            if not part:
                continue
            if "/" not in part:
                raise ParseError(f"bad relation declaration {part!r}",
                                 lines[0][0], 1)
            name, arity = part.split("/")
            rels.append((name.strip(), int(arity)))
    labels: list[str] = []
    states: list[str] = []
    accepting: list[str] = []
    leaf_delta: dict = {}
    trans: dict = {}
    for lineno, ln in lines[1:]:
        if ln.startswith("labels:"):
            labels = ln[len("labels:"):].replace(",", " ").split()
        elif ln.startswith("states:"):
            states = ln[len("states:"):].replace(",", " ").split()
        elif ln.startswith("accept:"):
            accepting = ln[len("accept:"):].replace(",", " ").split()
        elif ln.startswith("leaf"):
            rest = ln[len("leaf"):].strip()
            if "->" not in rest or not rest.startswith("{"):
                raise ParseError("bad leaf line", lineno, 1)
            lhs, q = rest.split("->")
            lhs = lhs.strip()
            if not lhs.endswith("}"):
                raise ParseError("bad leaf label set", lineno, 1)
            labs = frozenset(
                x for x in lhs[1:-1].replace(",", " ").split())
            leaf_delta.setdefault(labs, set()).add(q.strip())
        elif ln.startswith("trans"):
            parts = ln[len("trans"):].strip()
            if "->" not in parts:
                raise ParseError("bad trans line", lineno, 1)
            lhs, q0 = parts.split("->")
            lhs = lhs.strip()
            try:
                rel, idx, rest = lhs.split(None, 2)
            except ValueError:
                raise ParseError("bad trans line", lineno, 1) from None
            rest = rest.strip()
            if not (rest.startswith("(") and rest.endswith(")")):
                raise ParseError("bad trans state tuple", lineno, 1)
            qs = tuple(x.strip() for x in rest[1:-1].split(",")
                       if x.strip())
            trans.setdefault((rel, int(idx)), set()).add((qs, q0.strip()))
        else:
            raise ParseError(f"unrecognized line {ln!r}", lineno, 1)
    try:
        return TreeAutomaton(
            Schema(rels), tuple(labels), tuple(states),
            frozenset(accepting),
            {s: frozenset(qs) for s, qs in leaf_delta.items()},
            {k: frozenset(v) for k, v in trans.items()})
    except HomkitError as exc:
        raise ParseError(str(exc), len(lines), 1) from exc


def parse_term(text: str) -> TreeTerm:
    """Parse the term notation produced by ``str(term)``:
    ``{X1,X2}`` for a leaf, ``R@i(t1,...,tk)`` for an internal node."""
    from .syntax import ParseError

    s = text.strip()
    pos = 0

    def error(msg):
        raise ParseError(msg, 1, pos + 1)

    def parse() -> TreeTerm:
        nonlocal pos
        if pos >= len(s):
            error("unexpected end of term")
        if s[pos] == "{":
            end = s.find("}", pos)
            if end < 0:
                error("unclosed label set")
            labs = [x.strip() for x in s[pos + 1:end].split(",")
                    if x.strip()]
            pos = end + 1
            return leaf(labs)
        m = re.match(r"([A-Za-z_][A-Za-z_0-9]*)@([0-9]+)\(", s[pos:])
        if not m:
            error("expected leaf '{...}' or node 'R@i(...)'")
        rel, idx = m.group(1), int(m.group(2))
        pos += m.end()
        children = [parse()]
        while pos < len(s) and s[pos] == ",":
            pos += 1
            children.append(parse())
        if pos >= len(s) or s[pos] != ")":
            error("expected ')' or ','")
        pos += 1
        return node(rel, idx, children)

    t = parse()
    if s[pos:].strip():
        error("trailing text after term")
    return t


def print_automaton(A: TreeAutomaton) -> str:
    lines = ["automaton over " + ", ".join(
        f"{r}/{a}" for r, a in A.schema.relations)]
    if A.labels:
        lines.append("labels: " + " ".join(A.labels))
    lines.append("states: " + " ".join(A.states))
    lines.append("accept: " + " ".join(sorted(A.accepting)))
    for s in sorted(A.leaf_delta, key=sorted):
        for q in sorted(A.leaf_delta[s]):
            lines.append("leaf {" + ",".join(sorted(s)) + "} -> " + q)
    for (rel, i) in sorted(A.trans):
        for qs, q0 in sorted(A.trans[(rel, i)]):
            lines.append(
                f"trans {rel} {i} (" + ",".join(qs) + f") -> {q0}")
    return "\n".join(lines) + "\n"
