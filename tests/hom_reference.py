"""The homomorphism search before forward checking, kept verbatim as a slow
reference.

``test_hom_reference.py`` checks that ``homkit.core.iter_homomorphisms``
yields exactly the sequence of this function.  Here the target's elements
are tried as ``Element`` objects and every fact of the source is probed in
the target's fact set once the last element of the fact in the search order
has been assigned.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Optional

from homkit.core import (
    Element,
    Instance,
    _check_hom_inputs,
    _occurrences,
)


def iter_homomorphisms(
    A: Instance,
    B: Instance,
    fixed: Iterable[Element] = (),
    bindings: Optional[dict] = None,
    iso: bool = False,
) -> Iterator[dict]:
    """Every homomorphism A -> B as a dict, lazily; with ``iso``, every
    isomorphism instead.

    ``fixed`` elements must be mapped to themselves; ``bindings`` is a partial
    map every result extends.  If both instances are pointed, points map to
    points componentwise.  Backtracking assigns the pre-assigned elements
    first, in sorted order, then the rest of A's sorted domain, trying
    candidates in B's sorted order; a fact is checked as soon as its last
    element in that order is assigned.
    """
    if iso and (len(A.domain) != len(B.domain)
                or len(A.facts) != len(B.facts)
                or len(A.points) != len(B.points)):
        return
    fixed = set(fixed)
    _check_hom_inputs(A, B, fixed, bindings)
    pre: dict[Element, Element] = {}
    pairs = [(e, e) for e in fixed] + list((bindings or {}).items())
    if A.points and B.points:
        pairs += zip(A.points, B.points)
    for src, dst in pairs:
        if pre.setdefault(src, dst) != dst:
            return
    order = sorted(pre) + [e for e in A.sorted_domain() if e not in pre]
    level = {e: i for i, e in enumerate(order)}
    # checks[i]: the facts whose last element is order[i], as (relation,
    # getter of the argument images)
    checks: list[list] = [[] for _ in order]
    for fact in A.facts:
        rel, args = fact
        if not args:
            if fact not in B.facts:
                return
            continue
        idx = [level[a] for a in args]
        checks[max(idx)].append((rel, _args_getter(idx)))
    b_elems = B.sorted_domain()
    cands = [(pre[e],) for e in order[:len(pre)]]
    cands += [b_elems] * (len(order) - len(pre))
    if iso:
        occ_a, occ_b = _occurrences(A), _occurrences(B)
        cands = [[c for c in cs if occ_b[c] == occ_a[e]]
                 for e, cs in zip(order, cands)]
    if not order:
        yield {}
        return

    b_facts = B.facts
    last = len(order) - 1
    image: list = [None] * len(order)
    used: set = set()  # in iso mode: the images of levels 0..i-1
    its = [iter(cands[0])] + [None] * last
    i = 0
    while i >= 0:
        for cand in its[i]:
            if iso and cand in used:
                continue
            image[i] = cand
            for rel, get in checks[i]:
                if (rel, get(image)) not in b_facts:
                    break
            else:
                break
        else:
            i -= 1
            if iso and i >= 0:
                used.discard(image[i])
            continue
        if i == last:
            yield dict(zip(order, image))
        else:
            if iso:
                used.add(cand)
            i += 1
            its[i] = iter(cands[i])


def _args_getter(idx: list):
    """A function taking the image list to the argument tuple at ``idx``."""
    if len(idx) == 1:
        j = idx[0]
        return lambda image: (image[j],)
    return itemgetter(*idx)
