"""Seeded input generators for the benchmark workloads.

Everything here is plain data (names, edge lists, texts) built from a
``random.Random``; nothing imports homkit.  Sizes are fixed per workload so
that a different seed changes the inputs but not the amount of work.
"""

from __future__ import annotations

import itertools
import random


def names(prefix: str, n: int, rng: random.Random | None = None) -> list:
    """Zero-padded names; shuffled when ``rng`` is given, so that the
    canonical (sorted) order no longer follows construction order."""
    labels = [f"{prefix}{i:03d}" for i in range(n)]
    if rng is not None:
        rng.shuffle(labels)
    return labels


def layered_dag(rng: random.Random, layers: int, width: int,
                out_degree: int) -> tuple[list, list]:
    """A random layered digraph: every node of layer i gets ``out_degree``
    distinct random successors in layer i + 1.  Node names are shuffled."""
    n = layers * width
    labels = names("v", n, rng)
    edges = set()
    for layer in range(layers - 1):
        for i in range(width):
            src = layer * width + i
            for j in rng.sample(range(width), out_degree):
                edges.add((labels[src], labels[(layer + 1) * width + j]))
    return labels, sorted(edges)


def sink_graph(rng: random.Random, sources: int, sinks: int,
               out_degree: int) -> tuple[list, list, list]:
    """A random bipartite digraph in which exactly ``sinks`` nodes have no
    successor and each of them has a predecessor."""
    src = names("s", sources, rng)
    dst = names("t", sinks, rng)
    edges = set()
    for t in dst:  # every sink is hit at least once
        edges.add((rng.choice(src), t))
    for s in src:
        for t in rng.sample(dst, out_degree):
            edges.add((s, t))
    return src + dst, sorted(edges), sorted(dst)


def planted_colouring(rng: random.Random, gadgets: int, size: int,
                      degree: float) -> tuple[list, list, dict]:
    """A planted 3-colourable graph: a chain of random planted gadgets of
    ``size`` vertices each, consecutive gadgets joined by one edge.  Names
    are in gadget order (shuffled inside each gadget), so a search in
    canonical order meets one gadget at a time.  Returns (names, undirected
    edges, planted colouring)."""
    labels, edges, colour = [], set(), {}
    for g in range(gadgets):
        local = [f"g{g:03d}v{i:02d}" for i in range(size)]
        rng.shuffle(local)
        cols = [i % 3 for i in range(size)]
        rng.shuffle(cols)
        for v, c in zip(local, cols):
            colour[v] = c
        target = int(size * degree / 2)
        pairs = [(a, b) for a, b in itertools.combinations(local, 2)
                 if colour[a] != colour[b]]
        edges.update(rng.sample(pairs, min(target, len(pairs))))
        if labels:
            prev = [v for v in labels[-size:]]
            a = rng.choice(prev)
            b = rng.choice([v for v in local if colour[v] != colour[a]])
            edges.add((a, b))
        labels.extend(local)
    return labels, sorted(edges), colour


def mycielski(k: int) -> tuple[int, list]:
    """The Mycielski graph M_k (chromatic number k) on vertices 0..n-1."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        grown = list(edges)
        for a, b in edges:
            grown += [(a, n + b), (b, n + a)]
        grown += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, grown
    return n, edges


def clique(k: int) -> list:
    return list(itertools.combinations(range(k), 2))


def relabel(rng: random.Random, prefix: str, n: int, edges) -> tuple:
    """A random relabelling of a graph on 0..n-1."""
    labels = names(prefix, n, rng)
    return labels, sorted((labels[a], labels[b]) for a, b in edges)


def core_with_trees(rng: random.Random, prefix: str, core_n: int,
                    core_edges, extra: int) -> tuple[list, list]:
    """An undirected core graph with ``extra`` tree vertices hung off it.
    Every vertex added is joined to exactly one earlier vertex, so the
    result retracts onto the core."""
    n = core_n + extra
    edges = list(core_edges)
    for v in range(core_n, n):
        edges.append((rng.randrange(v), v))
    return relabel(rng, prefix, n, edges)


def walk_dual_impostor(rng: random.Random) -> tuple[list, list]:
    """A loop-free, digon-free digraph on 3 elements that contains a
    2-edge walk.  Put next to the true dual of the 2-edge path (the edge
    t0 -> t1), it makes a wrong dual set that still agrees with the
    duality on every digraph with at most 2 elements: there, a 2-edge walk
    needs a loop or a digon, and neither maps into this graph."""
    labels = ["d0", "d1", "d2"]
    edges = [("d0", "d1"), ("d1", "d2")]
    edges += rng.choice([[], [("d0", "d2")], [("d2", "d0")]])
    perm = dict(zip(labels, rng.sample(labels, 3)))
    return labels, sorted((perm[a], perm[b]) for a, b in edges)


def all_facts(elems, relations) -> list:
    return [(rel, combo) for rel, arity in relations
            for combo in itertools.product(elems, repeat=arity)]


def instances_up_to(rng: random.Random, relations, full: int, sampled: int,
                    sample_size: int) -> list:
    """Plain instances (domain, facts) over ``relations``: every one with
    at most ``full`` elements, then ``sample_size`` distinct seeded ones
    with exactly ``sampled`` elements.  Domains are e1..em."""
    out = []
    for m in list(range(full + 1)) + [sampled]:
        elems = tuple(f"e{i}" for i in range(1, m + 1))
        cands = all_facts(elems, relations)
        masks = range(2 ** len(cands)) if m <= full else \
            sorted(rng.sample(range(2 ** len(cands)), sample_size))
        out += [(elems, tuple(f for i, f in enumerate(cands)
                              if mask >> i & 1)) for mask in masks]
    return out


def random_digraph(rng: random.Random, prefix: str, n: int,
                   m: int) -> tuple[list, list]:
    labels = names(prefix, n)
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        edges.add((labels[a], labels[b]))
    return labels, sorted(edges)


def degree_profile(labels, edges) -> list:
    """Sorted (out-degree, in-degree) pairs: an isomorphism invariant."""
    out = {v: 0 for v in labels}
    inn = {v: 0 for v in labels}
    for a, b in edges:
        out[a] += 1
        inn[b] += 1
    return sorted((out[v], inn[v]) for v in labels)


def permuted_copy(rng: random.Random, prefix: str, labels,
                  edges) -> tuple[list, list, dict]:
    """An isomorphic copy under a random bijection (returned as well)."""
    image = dict(zip(labels, names(prefix, len(labels), rng)))
    return (sorted(image.values()),
            sorted((image[a], image[b]) for a, b in edges), image)


def perturbed_copy(rng: random.Random, prefix: str, labels,
                   edges) -> tuple[list, list]:
    """A copy with one edge re-targeted so that the degree profile, and
    hence the isomorphism type, changes while the edge count does not."""
    base = degree_profile(labels, edges)
    while True:
        moved = list(edges)
        i = rng.randrange(len(moved))
        a, _ = moved[i]
        moved[i] = (a, rng.choice(labels))
        if len(set(moved)) == len(moved) and \
                degree_profile(labels, moved) != base:
            break
    new_labels, new_edges, _ = permuted_copy(rng, prefix, labels, moved)
    return new_labels, new_edges
