"""Independent reference checks for the benchmark's task outputs.

Nothing here imports homkit: outputs arrive as plain data (element names,
fact tuples, JSON payloads) and are checked against facts known by
construction or recomputed by small brute-force code.  Each check returns
an error string, or None when the output is correct.
"""

from __future__ import annotations

import itertools
from collections import deque


def parse_fact(text: str) -> tuple:
    """'R(a,b)' -> ('R', ('a', 'b')), for the CLI's fact strings."""
    rel, _, rest = text.partition("(")
    inner = rest[:-1]
    return rel, tuple(inner.split(",")) if inner else ()


# ---------------------------------------------------------------------------
# chase-closure
# ---------------------------------------------------------------------------


def closure(edges) -> set:
    """Pairs (x, y) with y reachable from x by at least one edge (BFS)."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    out = set()
    for x in succ:
        seen, todo = set(), deque(succ[x])
        while todo:
            y = todo.popleft()
            if y in seen:
                continue
            seen.add(y)
            todo.extend(succ.get(y, ()))
        out.update((x, y) for y in seen)
    return out


def check_tc(exit_code: int, payload: dict, edges) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    if payload["terminated"] is not True:
        return "transitive closure did not terminate"
    got = {args for rel, args in map(parse_fact, payload["output"]["facts"])
           if rel == "Ans"}
    want = closure(edges)
    if got != want:
        return (f"closure differs from BFS reachability: "
                f"{len(got - want)} extra, {len(want - got)} missing")
    return None


def check_bounded(exit_code: int, payload: dict, edges, sinks,
                  budget: int) -> str | None:
    """Closed form of the restricted chase of R(x,y) -> exists z R(y,z)
    (copied in from R_in, out to R_out) after ``budget`` rounds: the input
    plus, under each sink, a fresh chain of exactly ``budget`` nulls."""
    if exit_code != 3:
        return f"exit code {exit_code}, expected 3 (budget reached)"
    if payload["terminated"] is not False or payload["steps"] != budget:
        return "bounded chase did not stop at its budget"
    facts = [args for rel, args in map(parse_fact,
                                       payload["output"]["facts"])
             if rel == "R_out"]
    named = {(a, b) for a, b in facts
             if not a.startswith("_n") and not b.startswith("_n")}
    if named != set(edges):
        return "named part of the output differs from the input"
    succ: dict = {}
    indeg: dict = {}
    for a, b in facts:
        if b.startswith("_n"):
            succ.setdefault(a, []).append(b)
            indeg[b] = indeg.get(b, 0) + 1
        elif a.startswith("_n"):
            return f"null {a} points back to a named element"
    nulls = {e for e in payload["output"]["domain"] if e.startswith("_n")}
    if len(nulls) != len(sinks) * budget or set(indeg) != nulls:
        return (f"{len(nulls)} nulls, expected "
                f"{len(sinks) * budget} in chains")
    if any(d != 1 for d in indeg.values()) or \
            any(len(v) != 1 for v in succ.values()):
        return "nulls do not form disjoint chains"
    if {a for a in succ if not a.startswith("_n")} != set(sinks):
        return "null chains do not hang exactly off the sinks"
    for s in sinks:
        length, cur = 0, s
        while cur in succ:
            cur = succ[cur][0]
            length += 1
        if length != budget:
            return f"chain under {s} has length {length}, not {budget}"
    return None


# ---------------------------------------------------------------------------
# hom-search
# ---------------------------------------------------------------------------


def check_witness(mapping: dict | None, src, dst) -> str | None:
    """Fact-by-fact check of a homomorphism witness between plain
    instances given as (domain, facts)."""
    if mapping is None:
        return "no homomorphism returned for a hit"
    dom, facts = src
    tdom, tfacts = dst
    if set(mapping) != set(dom):
        return "witness is not total on the source domain"
    if not set(mapping.values()) <= set(tdom):
        return "witness leaves the target domain"
    tset = set(tfacts)
    for rel, args in facts:
        if (rel, tuple(mapping[a] for a in args)) not in tset:
            return f"fact {rel}{args} is not preserved"
    return None


def is_clique(dom, facts, k: int) -> bool:
    want = {("E", (a, b)) for a in dom for b in dom if a != b}
    return len(dom) == k and set(facts) == want


def is_cycle(dom, facts, k: int) -> bool:
    """Symmetric loop-free cycle of length k."""
    if len(dom) != k or len(facts) != 2 * k:
        return False
    adj = {v: set() for v in dom}
    for _, (a, b) in facts:
        adj[a].add(b)
    if any(len(n) != 2 for n in adj.values()):
        return False
    start = next(iter(dom))
    prev, cur, steps = None, start, 0
    while True:
        nxt = next(v for v in adj[cur] if v != prev)
        prev, cur, steps = cur, nxt, steps + 1
        if cur == start:
            return steps == k


# ---------------------------------------------------------------------------
# oracle-duality
# ---------------------------------------------------------------------------


def has_walk(facts, n: int) -> bool:
    """Does the digraph contain a directed walk of n edges (equivalently,
    does the directed n-edge path map into it)?"""
    edges = [args for rel, args in facts if rel == "E"]
    ends = {b for _, b in edges}  # last elements of walks with one edge
    for _ in range(n - 1):
        ends = {b for a, b in edges if a in ends}
    return bool(ends)


def maps_into(src, dst) -> bool:
    """Brute-force: does some map dom(src) -> dom(dst) preserve facts?"""
    dom, facts = src
    tdom, tfacts = dst
    dom, tdom, tset = list(dom), list(tdom), set(tfacts)
    if dom and not tdom:
        return False
    for image in itertools.product(tdom, repeat=len(dom)):
        h = dict(zip(dom, image))
        if all((rel, tuple(h[a] for a in args)) in tset
               for rel, args in facts):
            return True
    return False


def digraphs(m: int):
    """Every digraph on m elements, as plain (domain, facts)."""
    dom = [f"x{i}" for i in range(m)]
    pairs = list(itertools.product(dom, repeat=2))
    for mask in range(2 ** len(pairs)):
        yield dom, [("E", p) for i, p in enumerate(pairs) if mask >> i & 1]


def violates(inst, n: int, duals) -> bool:
    """Does a digraph break "the n-edge path maps in  iff  it maps into no
    dual"?"""
    return has_walk(inst[1], n) == any(maps_into(inst, d) for d in duals)


def check_wrong_dual(passed: bool, unknown: bool, bound: int, cex, n: int,
                     duals, want_bound: int) -> str | None:
    """A wrong dual set that agrees with the duality below the bound must
    fail at the bound, with a counterexample of exactly ``want_bound``
    elements that really violates the duality."""
    if bound != want_bound:
        return f"checked at bound {bound}, not {want_bound}"
    if any(violates(g, n, duals)
           for m in range(want_bound) for g in digraphs(m)):
        return "wrong dual set is refuted below the bound"
    if passed or unknown or cex is None:
        return "wrong dual set was not refuted"
    if len(cex[0]) != want_bound:
        return f"counterexample has {len(cex[0])} elements, not {want_bound}"
    if not violates(cex, n, duals):
        return "counterexample does not violate the duality"
    return None


def count_instances(relations, bound: int) -> int:
    """Closed form of the number of instances over ``relations`` with
    domains {e1..em}, m <= bound."""
    return sum(2 ** sum(m ** arity for _, arity in relations)
               for m in range(bound + 1))


def count_terms(labels: int, depth: int) -> int:
    """Distinct tree terms over one binary relation (two root indices)
    with ``labels`` unary labels, of nesting depth at most ``depth``:
    N(0) = 2^labels leaves, N(d+1) = N(0) + 2 N(d)^2."""
    leaves = n = 2 ** labels
    for _ in range(depth):
        n = leaves + 2 * n * n
    return n


# ---------------------------------------------------------------------------
# automata-cover
# ---------------------------------------------------------------------------

PREDICATES = {
    "edge": lambda facts: any(rel == "E" for rel, _ in facts),
    "label": lambda facts: any(rel == "X1" for rel, _ in facts),
    "empty": lambda facts: False,
}
