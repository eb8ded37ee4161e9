"""The homomorphism engine against brute-force map enumeration.

Seeded random instances with at most 4 elements over E/2, U/1 and a 0-ary
relation Z, with fixed elements, bindings and points.  The reference
enumerates every map with ``itertools.product`` in the engine's documented
order (pre-assigned elements first in sorted order, then the rest of the
sorted source domain; target elements in sorted order) and keeps those that
preserve facts.
"""

import itertools
import random

from homkit.core import (
    Element,
    Instance,
    Schema,
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
