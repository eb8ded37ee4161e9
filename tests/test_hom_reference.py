"""The homomorphism engine against brute-force map enumeration and against
its previous version.

Seeded random instances with at most 4 elements over E/2, U/1 and a 0-ary
relation Z, with fixed elements, bindings and points.  The reference
enumerates every map with ``itertools.product`` in the engine's documented
order (pre-assigned elements first in sorted order, then the rest of the
sorted source domain; target elements in sorted order) and keeps those that
preserve facts.

The search before forward checking, kept in ``hom_reference.py``, must yield
the same full sequence of maps on sources of up to 6 elements and targets of
up to 4 over E/2, T/3, U/1 and Z/0 (loops and repeated arguments included,
with fixed elements, bindings, points and in iso mode), and the same first
witness on planted 3-colourable graphs and relabelled Mycielski graphs M4
into K3.  Random targets rarely have twins (elements whose swap is an
automorphism), which the search prunes on, so the full sequences are also
compared on targets that have them; and the twin classes the search reads
are compared with a check of every transposition.
"""

import itertools
import random

import hom_reference
from conftest import mycielski, symmetric_digraph
from homkit.core import (
    Element,
    Instance,
    Schema,
    _target_index,
    core_of,
    find_homomorphism,
    isomorphic,
    iter_homomorphisms,
)

SCHEMA = Schema([("E", 2), ("U", 1), ("Z", 0)])
POOL = [Element.named(s) for s in "abcd"]
TRIALS = 1500


def random_instance(rng, n=None, k=None) -> Instance:
    n = rng.randint(0, 4) if n is None else n
    dom = sorted(rng.sample(POOL, n))
    facts = [("E", (x, y)) for x in dom for y in dom if rng.random() < 0.3]
    facts += [("U", (x,)) for x in dom if rng.random() < 0.3]
    if rng.random() < 0.3:
        facts.append(("Z", ()))
    k = rng.choice([0, 0, 1, 2]) if k is None else k
    points = tuple(rng.choice(dom) for _ in range(k)) if dom else ()
    return Instance(SCHEMA, dom, facts, points)


def preserves(A: Instance, B: Instance, h: dict) -> bool:
    return all((rel, tuple(h[a] for a in args)) in B.facts
               for rel, args in A.facts)


def reference_homs(A, B, fixed=(), bindings=None) -> list:
    pre = {}
    pairs = [(e, e) for e in fixed] + list((bindings or {}).items())
    if A.points and B.points:
        pairs += zip(A.points, B.points)
    for src, dst in pairs:
        if pre.setdefault(src, dst) != dst:
            return []
    order = sorted(pre) + [e for e in sorted(A.domain) if e not in pre]
    pools = [[pre[e]] if e in pre else sorted(B.domain) for e in order]
    maps = (dict(zip(order, combo)) for combo in itertools.product(*pools))
    return [h for h in maps if preserves(A, B, h)]


def reference_isomorphic(A: Instance, B: Instance) -> bool:
    if len(A.domain) != len(B.domain) or len(A.points) != len(B.points):
        return False
    src = sorted(A.domain)
    for perm in itertools.permutations(sorted(B.domain)):
        h = dict(zip(src, perm))
        image = {(rel, tuple(h[a] for a in args)) for rel, args in A.facts}
        if image == B.facts and tuple(h[p] for p in A.points) == B.points:
            return True
    return False


def smallest_retract_size(A: Instance) -> int:
    """The fewest elements in the image of a point-fixing endomorphism."""
    return min(len(set(h.values())) for h in reference_homs(A, A))


def random_pair(rng):
    A, B = random_instance(rng), random_instance(rng)
    if A.points and B.points and len(A.points) != len(B.points):
        B = B.with_points(())
    common = sorted(A.domain & B.domain)
    fixed = [e for e in common if rng.random() < 0.3]
    bindings = {}
    if A.domain and B.domain and rng.random() < 0.4:
        bindings[rng.choice(sorted(A.domain))] = rng.choice(sorted(B.domain))
    return A, B, fixed, bindings


def test_enumeration_matches_reference():
    rng = random.Random(3)
    hits = 0
    for _ in range(TRIALS):
        A, B, fixed, bindings = random_pair(rng)
        expected = reference_homs(A, B, fixed, bindings)
        got = list(iter_homomorphisms(A, B, fixed, bindings))
        assert got == expected, (A, B, fixed, bindings)
        h = find_homomorphism(A, B, fixed, bindings)
        if expected:
            hits += 1
            assert h is not None and h.as_dict() == expected[0]
        else:
            assert h is None
    # the trials exercise both outcomes
    assert 0.2 * TRIALS < hits < 0.8 * TRIALS


def test_isomorphic_matches_permutations():
    rng = random.Random(4)
    positives = 0
    for _ in range(TRIALS):
        A = random_instance(rng)
        if A.domain and rng.random() < 0.5:
            # a permuted copy, sometimes with moved points
            src = sorted(A.domain)
            h = dict(zip(src, rng.sample(src, len(src))))
            pts = tuple(h[p] for p in A.points)
            if pts and rng.random() < 0.3:
                pts = tuple(rng.choice(src) for _ in pts)
            B = Instance(SCHEMA, A.domain,
                         [(rel, tuple(h[a] for a in args))
                          for rel, args in A.facts], pts)
        else:
            B = random_instance(rng, n=len(A.domain), k=len(A.points))
        expected = reference_isomorphic(A, B)
        positives += expected
        assert isomorphic(A, B) == expected, (A, B)
    assert 0.2 * TRIALS < positives < 0.8 * TRIALS


def test_core_of_has_smallest_retract_size():
    rng = random.Random(5)
    for _ in range(TRIALS // 2):
        A = random_instance(rng)
        C = core_of(A)
        assert len(C.domain) == smallest_retract_size(A), A
        assert C.points == A.points
        assert find_homomorphism(A, C) is not None
        assert find_homomorphism(C, A) is not None


# -- the search against its own previous version ----------------------------

WIDE = Schema([("E", 2), ("T", 3), ("U", 1), ("Z", 0)])
WIDE_POOL = [Element.named(s) for s in "abcdef"]


def wide_instance(rng, n, k=None) -> Instance:
    """A random instance over E, T, U and Z on ``n`` elements of the pool,
    with loops and ternary facts that repeat an argument."""
    dom = sorted(rng.sample(WIDE_POOL, n))
    density = rng.choice([0.15, 0.3, 0.5])
    facts = [("E", (x, y)) for x in dom for y in dom if rng.random() < density]
    facts += [("U", (x,)) for x in dom if rng.random() < density]
    for _ in range(rng.randint(0, 3) if dom else 0):
        x, y = rng.choice(dom), rng.choice(dom)
        facts.append(("T", rng.choice([(x, y, rng.choice(dom)), (x, y, x),
                                       (y, x, x), (x, x, y), (x, x, x)])))
    if rng.random() < 0.3:
        facts.append(("Z", ()))
    k = rng.choice([0, 0, 1, 2]) if k is None else k
    points = tuple(rng.choice(dom) for _ in range(k)) if dom else ()
    return Instance(WIDE, dom, facts, points)


def test_sequences_match_previous_search():
    rng = random.Random(14)
    hits = 0
    for _ in range(TRIALS):
        A = wide_instance(rng, rng.randint(0, 6))
        B = wide_instance(rng, rng.randint(0, 4))
        if A.points and B.points and len(A.points) != len(B.points):
            B = B.with_points(())
        common = sorted(A.domain & B.domain)
        fixed = [e for e in common if rng.random() < 0.3]
        bindings = {}
        if A.domain and B.domain and rng.random() < 0.4:
            bindings[rng.choice(sorted(A.domain))] = \
                rng.choice(sorted(B.domain))
        expected = list(hom_reference.iter_homomorphisms(A, B, fixed,
                                                         bindings))
        got = list(iter_homomorphisms(A, B, fixed, bindings))
        assert got == expected, (A, B, fixed, bindings)
        hits += bool(expected)
    assert 0.2 * TRIALS < hits < 0.8 * TRIALS


def test_isomorphism_sequences_match_previous_search():
    rng = random.Random(15)
    positives = 0
    for _ in range(TRIALS):
        A = wide_instance(rng, rng.randint(0, 5))
        if rng.random() < 0.6:
            src = sorted(A.domain)
            h = dict(zip(src, rng.sample(src, len(src))))
            B = Instance(WIDE, A.domain,
                         [(rel, tuple(h[a] for a in args))
                          for rel, args in A.facts],
                         tuple(h[p] for p in A.points))
        else:
            B = wide_instance(rng, len(A.domain), len(A.points))
        expected = list(hom_reference.iter_homomorphisms(A, B, iso=True))
        assert list(iter_homomorphisms(A, B, iso=True)) == expected, (A, B)
        positives += bool(expected)
    assert 0.2 * TRIALS < positives < 0.9 * TRIALS


def planted_graph(rng, gadgets=6, size=9, degree=4.0) -> Instance:
    """A chain of random gadgets, each 3-colourable by a planted colouring,
    consecutive gadgets joined by one properly coloured edge."""
    labels, edges, colour = [], set(), {}
    for g in range(gadgets):
        local = [f"g{g}v{i}" for i in range(size)]
        rng.shuffle(local)
        for i, v in enumerate(local):
            colour[v] = i % 3
        pairs = [(a, b) for a, b in itertools.combinations(local, 2)
                 if colour[a] != colour[b]]
        edges.update(rng.sample(pairs, min(int(size * degree / 2),
                                           len(pairs))))
        if labels:
            a = rng.choice(labels[-size:])
            edges.add((a, rng.choice([v for v in local
                                      if colour[v] != colour[a]])))
        labels += local
    return symmetric_digraph(sorted(edges), extra=labels)


def relabelled_m4(rng) -> Instance:
    """The Mycielski graph M4 (chromatic number 4) under random names."""
    n, edges = mycielski(4)
    labels = [f"m{i}" for i in range(n)]
    rng.shuffle(labels)
    return symmetric_digraph([(labels[a], labels[b]) for a, b in edges])


def test_colouring_witnesses_match_previous_search():
    rng = random.Random(16)
    k3 = symmetric_digraph([("x", "y"), ("y", "z"), ("x", "z")])
    for G in [planted_graph(rng) for _ in range(4)] + \
            [relabelled_m4(rng) for _ in range(4)]:
        expected = next(hom_reference.iter_homomorphisms(G, k3), None)
        assert next(iter_homomorphisms(G, k3), None) == expected
        assert (expected is None) == (len(G.domain) == 11)


# -- targets with twins -------------------------------------------------------


def twin_targets() -> list:
    """Targets over WIDE with interchangeable elements: complete graphs,
    a 4-cycle (non-adjacent twins), edgeless ones, a star, disjoint
    copies, and mixed arity with repeated arguments and unary facts."""
    a, b, c, d, e, _ = WIDE_POOL

    def sym(pairs):
        return [("E", p) for x, y in pairs for p in ((x, y), (y, x))]

    specs = [
        ([a, b], sym([(a, b)])),
        ([a, b, c], sym(itertools.combinations([a, b, c], 2))),
        ([a, b, c, d], sym(itertools.combinations([a, b, c, d], 2))),
        ([a, b, c], sym(itertools.combinations([a, b, c], 2))
         + [("E", (x, x)) for x in (a, b, c)]),
        ([a, b, c, d], sym([(a, b), (b, c), (c, d), (d, a)])),
        ([a], []),
        ([a, b, c], []),
        ([a, b, c], [("U", (x,)) for x in (a, b, c)] + [("Z", ())]),
        ([a, b, c, d, e], sym([(a, x) for x in (b, c, d, e)])),
        ([a, b, c, d], [("E", (a, b)), ("E", (c, d))]),
        ([a, b, c], [("E", (x, x)) for x in (a, b, c)]),
        ([a, b, c, d], sym([(a, b), (c, d)]) + [("U", (a,)), ("U", (c,))]),
        ([a, b, c, d], [("T", (a, a, b)), ("T", (c, c, b)), ("T", (b, d, d)),
                        ("U", (b,)), ("Z", ())]),
        ([a, b, c], [("T", (a, b, b)), ("T", (b, a, a)), ("E", (c, c)),
                     ("U", (a,)), ("U", (b,))]),
    ]
    return [Instance(WIDE, dom, facts) for dom, facts in specs]


def brute_force_twins(B: Instance) -> list:
    """For each element of B's sorted domain, the bitmask (bit k for the
    k-th element) of the elements whose swap with it maps B's facts onto
    themselves, trying every transposition."""
    elems = B.sorted_domain()
    masks = []
    for x in elems:
        mask = 0
        for k, y in enumerate(elems):
            swap = {x: y, y: x}
            image = {(rel, tuple(swap.get(v, v) for v in args))
                     for rel, args in B.facts}
            if image == B.facts:
                mask |= 1 << k
        masks.append(mask)
    return masks


def test_sequences_match_previous_search_on_targets_with_twins():
    rng = random.Random(18)
    targets = twin_targets()
    hits = 0
    for _ in range(TRIALS):
        B = rng.choice(targets)
        k = rng.choice([0, 0, 1, 2])
        A = wide_instance(rng, rng.randint(0, 6), k)
        if rng.random() < 0.7:
            # keep only relations B has facts of, so that more A map
            rels = {rel for rel, _ in B.facts}
            A = Instance(WIDE, A.domain,
                         [f for f in A.facts if f[0] in rels], A.points)
        if k and rng.random() < 0.7:
            B = B.with_points(tuple(rng.choice(sorted(B.domain))
                                    for _ in range(k)))
        common = sorted(A.domain & B.domain)
        fixed = [e for e in common if rng.random() < 0.3]
        bindings = {}
        if A.domain and rng.random() < 0.4:
            bindings[rng.choice(sorted(A.domain))] = \
                rng.choice(sorted(B.domain))
        expected = list(hom_reference.iter_homomorphisms(A, B, fixed,
                                                         bindings))
        got = list(iter_homomorphisms(A, B, fixed, bindings))
        assert got == expected, (A, B, fixed, bindings)
        hits += bool(expected)
    assert 0.1 * TRIALS < hits < 0.9 * TRIALS


def test_colourings_match_previous_search():
    """Loop-free graphs into K2-K4 and C4: colouring a vertex like an
    earlier neighbour fails only deeper in the search, the case where a
    twin of an earlier image must not be pruned."""
    rng = random.Random(21)
    k2, k3, k4, _, c4 = twin_targets()[:5]
    targets = [k2, k3, k4, c4]
    for _ in range(TRIALS // 3):
        B = rng.choice(targets)
        dom = sorted(rng.sample(WIDE_POOL, rng.randint(3, 6)))
        edges = [p for p in itertools.combinations(dom, 2)
                 if rng.random() < 0.5]
        A = Instance(WIDE, dom, [("E", p) for x, y in edges
                                 for p in ((x, y), (y, x))])
        fixed = [e for e in sorted(A.domain & B.domain)
                 if rng.random() < 0.2]
        expected = list(hom_reference.iter_homomorphisms(A, B, fixed))
        assert list(iter_homomorphisms(A, B, fixed)) == expected, (A, B)


def test_isomorphism_sequences_match_previous_search_on_twins():
    rng = random.Random(19)
    positives = 0
    for _ in range(TRIALS // 3):
        B = rng.choice(twin_targets())
        src = sorted(B.domain)
        k = rng.choice([0, 1, 2])
        B = B.with_points(tuple(rng.choice(src) for _ in range(k)))
        if rng.random() < 0.6:
            h = dict(zip(src, rng.sample(src, len(src))))
            A = Instance(WIDE, B.domain,
                         [(rel, tuple(h[a] for a in args))
                          for rel, args in B.facts],
                         tuple(h[p] for p in B.points))
        else:
            A = wide_instance(rng, len(src), k)
        expected = list(hom_reference.iter_homomorphisms(A, B, iso=True))
        assert list(iter_homomorphisms(A, B, iso=True)) == expected, (A, B)
        positives += bool(expected)
    assert 0.2 * TRIALS // 3 < positives < 0.9 * TRIALS // 3


def test_twin_classes_match_transpositions():
    rng = random.Random(20)
    cases = twin_targets()
    for n in range(1, 7):
        # complete graphs with and without loops: every pair is adjacent
        dom = WIDE_POOL[:n]
        pairs = itertools.product(dom, repeat=2)
        cases.append(Instance(WIDE, dom, [("E", p) for p in pairs]))
        cases.append(Instance(WIDE, dom, [("E", (x, y)) for x in dom
                                          for y in dom if x != y]))
    for _ in range(TRIALS):
        inst = wide_instance(rng, rng.randint(0, 6))
        if len(inst.domain) > 1 and rng.random() < 0.6:
            # closed under a random swap, which is then an automorphism
            x, y = rng.sample(sorted(inst.domain), 2)
            swap = {x: y, y: x}
            facts = set(inst.facts) | {
                (rel, tuple(swap.get(v, v) for v in args))
                for rel, args in inst.facts}
            inst = Instance(WIDE, inst.domain, facts)
        cases.append(inst)
    with_twins = 0
    for B in cases:
        got = _target_index(B).twins()
        assert got == brute_force_twins(B), B
        with_twins += any(mask & (mask - 1) for mask in got)
    assert with_twins > len(cases) // 3
