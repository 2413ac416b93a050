"""2-hop graphs on the fair side (Algorithm 3 and Algorithm 8).

``Construct2HopGraph`` connects two fair-side vertices iff they share at
least ``alpha`` common neighbours; the bi-side variant
(``BiConstruct2HopGraph``) requires at least ``alpha`` common neighbours *of
every upper-side attribute value*. Both count common neighbours of every
fair-side pair in one Σd² pass over the upper side.

The functions take the fair side as the lower side ``V``; to build the
upper-side 2-hop graph used by BCFCore, pass ``g.mirror()``.
"""
from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from typing import Iterable

from repro.graph.bipartite import BipartiteGraph

Adjacency = dict[int, set[int]]


def two_hop(g: BipartiteGraph, alpha: int) -> Adjacency:
    """Algorithm 3: undirected 2-hop adjacency over ``V`` (common neighbours >= alpha)."""
    common: Counter[tuple[int, int]] = Counter()
    for nbrs in g.adj_u.values():
        for a, b in itertools.combinations(sorted(nbrs), 2):
            common[(a, b)] += 1
    return adjacency_from_pairs([p for p, c in common.items() if c >= alpha], g.adj_v)


def bi_two_hop(g: BipartiteGraph, alpha: int) -> Adjacency:
    """Algorithm 8: 2-hop adjacency requiring >= alpha common neighbours per A(U) value."""
    common: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for u, nbrs in g.adj_u.items():
        a_u = g.u_val[u]
        for a, b in itertools.combinations(sorted(nbrs), 2):
            common[(a, b)][a_u] += 1
    ok = [p for p, cnt in common.items() if all(cnt[x] >= alpha for x in g.attrs_u)]
    return adjacency_from_pairs(ok, g.adj_v)


def adjacency_from_pairs(
    pairs: Iterable[tuple[int, int]], vertices: Iterable[int]
) -> Adjacency:
    """Build an undirected adjacency dict from (v1, v2) pairs over ``vertices``."""
    adj: Adjacency = {v: set() for v in vertices}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj
